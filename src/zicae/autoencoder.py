"""Learned transmitter/receiver pairs for the Z-interference channel.

Each transmitter is two parallel branches: branch 1 shapes unit-power I/Q
symbols from the input bits (dense stack with shortcuts, then batch power
normalization) and branch 2 allocates the I/Q power split from the
interference intensity (tiny dense stack, then power normalization to the
total budget).  Multiplying the branches yields symbols whose batch-average
power equals the budget by construction.

Receivers batch-power-normalize the channel output, restore the desired
signal scale, append the CSI inputs available at that node, and decode
per-bit probabilities through a sigmoid output layer.

Training follows an iterate-over-channels schedule: per channel draw an
interference intensity (and, with imperfect CSI, a rejection-sampled
estimated channel plus a residual feedback angle), then run a few epochs of
random bit batches with a shared adaptive-moment optimizer.  Both receivers'
binary cross entropies are summed; the interfered receiver's loss reaches
both transmitters through the cross link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .channel import (
    IMPERFECT,
    ChannelConfig,
    CsiInputs,
    EquivalentChannel,
    channel_context,
    draw_channel,  # noqa: F401 -- module-level binding read by tracing tools
    rule,
)
from .modem import Constellation, bits_to_index, index_to_bits, modulate


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig(ChannelConfig):
    """Hyperparameters of one training run (defaults follow the full-scale recipe)."""

    alpha_min: float = rule(0.0, 0)
    alpha_max: float = rule(0.5, 0, open_lo=True)
    train_snr_db: float = rule(10.0)
    n_channels: int = rule(30000, 0)
    epochs_per_channel: int = rule(10, 1)
    batch: int = rule(10000, 1)
    lr: float = rule(1e-2, 0, open_lo=True)
    decay: float = rule(0.95, 0, 1, open_lo=True)
    decay_every: int = rule(200, 1)
    hidden_width: int = rule(64, 1)
    n_res_blocks: int = rule(2, 0)
    subnet2_width: int = rule(16, 1)
    # architecture toggles of the ablation study; all true is the proposed design
    use_shortcuts: bool = True
    alpha_to_subnet1: bool = True
    alpha_to_subnet2: bool = True
    alpha_to_rx: bool = True
    use_subnet2: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not self.alpha_min < self.alpha_max:
            raise ValueError("need alpha_min < alpha_max")


# the TrainConfig fields a model is built from, in model-file header order
ARCH_FIELDS = ("n_bits", "csi_mode", "alpha_min", "alpha_max", "total_power",
               "train_snr_db", "hidden_width", "n_res_blocks", "subnet2_width",
               "use_shortcuts", "alpha_to_subnet1", "alpha_to_subnet2", "alpha_to_rx",
               "use_subnet2")


def receiver_scale(p_desired, noise_var: float):
    """Desired-signal scaling sqrt(1 + P_D/noise_var) applied after batch norm."""
    return np.sqrt(1.0 + p_desired / noise_var)


def _complex_matrix(h: complex) -> np.ndarray:
    """Real 2x2 form of multiplication by a complex gain."""
    return np.array([[h.real, -h.imag], [h.imag, h.real]])


def pattern_index(bits, n_bits: int) -> np.ndarray:
    """Label of each bit row (MSB first); anything but 0/1 rows of n_bits is an error."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != n_bits:
        raise ValueError(f"expected rows of {n_bits} bits, got shape {bits.shape}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("transmitter inputs must be 0/1 bits")
    return bits_to_index(bits)


def _trunk(n_in: int, n_out: int, activation: str, cfg: TrainConfig,
           rng: np.random.Generator) -> list:
    """Input layer, ``n_res_blocks`` hidden blocks (with shortcuts if set), output layer."""
    width = cfg.hidden_width
    trunk = [nn.Dense(n_in, width, rng=rng)]
    for _ in range(cfg.n_res_blocks):
        block = nn.Dense(width, width, rng=rng)
        trunk.append(nn.Residual(block) if cfg.use_shortcuts else block)
    return trunk + [nn.Dense(width, n_out, activation, rng=rng)]


def _named(prefix: str, stack: list) -> list[tuple[str, np.ndarray]]:
    """``<prefix>.<i>.W`` and ``<prefix>.<i>.b`` of each layer of a stack."""
    return [(f"{prefix}.{i}.{key}", p) for i, layer in enumerate(stack)
            for key, p in zip("Wb", layer.params())]


class Transmitter:
    """Bit vector -> I/Q symbol with an average power constraint.

    Branch 1's dense stack sees only the 2**n_bits bit patterns (plus the
    fed-back sqrt(alpha)), so it runs on those rows alone; the batch rows
    are gathered from them, and their gradients summed back onto them.
    """

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.arch = cfg
        self.net1 = _trunk(cfg.n_bits + (1 if cfg.alpha_to_subnet1 else 0), 2, nn.LINEAR,
                           cfg, rng)
        self.bpn = nn.BatchPowerNorm(2)
        if cfg.use_subnet2:
            self.net2 = [nn.Dense(1, cfg.subnet2_width, rng=rng),
                         nn.Dense(cfg.subnet2_width, 2, nn.LINEAR, rng=rng)]
            self.pnorm = nn.PowerNorm(cfg.total_power)
        else:
            self.net2 = []
            self.pnorm = None
        self.patterns = index_to_bits(np.arange(1 << cfg.n_bits), cfg.n_bits).astype(float)
        self._cache = None

    def forward(self, bits: np.ndarray, sqrt_alpha: float, training: bool) -> np.ndarray:
        arch = self.arch
        idx = pattern_index(bits, arch.n_bits)
        x = self.patterns
        if arch.alpha_to_subnet1:
            x = np.concatenate([x, np.full((x.shape[0], 1), sqrt_alpha)], axis=1)
        for layer in self.net1:
            x = layer.forward(x, training)
        xb = self.bpn.forward(x[idx], training)
        if arch.use_subnet2:
            g = np.array([[sqrt_alpha if arch.alpha_to_subnet2 else 1.0]])
            for layer in self.net2:
                g = layer.forward(g, training)
            gamma = self.pnorm.forward(g, training)
        else:
            gamma = np.full((1, 2), math.sqrt(arch.total_power / 2.0))
        if training:
            self._cache = (idx, xb, gamma)
        return xb * gamma

    def points(self, sqrt_alpha: float) -> np.ndarray:
        """Inference-mode complex symbol of every bit pattern; entry i carries the bits of i."""
        x = self.forward(self.patterns, sqrt_alpha, training=False)
        return x[:, 0] + 1j * x[:, 1]

    def backward(self, grad_x: np.ndarray) -> None:
        idx, xb, gamma = nn.take_cache(self)
        if self.arch.use_subnet2:
            g_gamma = np.sum(grad_x * xb, axis=0, keepdims=True)
            g = self.pnorm.backward(g_gamma)
            for layer in reversed(self.net2):
                g = layer.backward(g)
        g = self.bpn.backward(grad_x * gamma)
        n_patterns = len(self.patterns)
        g = np.stack([np.bincount(idx, weights=col, minlength=n_patterns)
                      for col in g.T], axis=1)
        for layer in reversed(self.net1):
            g = layer.backward(g)

    def arrays(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        return (_named(f"{prefix}.net1", self.net1)
                + [(f"{prefix}.bpn.running_ms", self.bpn.running_ms)]
                + _named(f"{prefix}.net2", self.net2))


# rows per slice of a frozen receiver pass, at most: a float32 activation of
# 512 x 64 is 128 KB and stays in cache.  Decoding the 60 blocks of 4000 rows
# of one eval-dae-perfect round (reused buffers, one BLAS thread), 1024 rows
# were within noise of 512, 256 about 15 % slower, 2048 and 4096 25-35 %
# slower.  Float32 bits depend on the slicing: a new value may move
# probabilities in their last bit
_DECODE_ROWS = 512
# rows per slice of a receiver training pass, at most.  At width 64 with one
# BLAS thread, a batch-1000 step in two 500-row slices took 5 % longer than in
# one pass (median CPU time, 9 of 10 alternating process pairs), so batch
# 1000 stays one slice.  At batch 10000, slices of 512, 1024 and 2048 rows and
# the whole-batch pass were within noise of each other; smaller slices hold
# less memory.  The float64 gradient sums change order with the slicing, so a
# new value moves trained models in their last bits
_TRAIN_ROWS = 1024


class Receiver:
    """Channel output (+ CSI side inputs) -> per-bit probabilities.

    Samples of any shape S go through the network as rows in C order; ``eta``
    and each side input are scalars or arrays that broadcast against S, as a
    block's (B, 1) per-draw columns do against its (B, n) samples.
    :meth:`train_pass` is the training pass: it runs the trunk's forward,
    loss gradient and backward slice by slice, and :meth:`input_grad`
    finishes it at the input norm.  :meth:`decode` is inference.
    """

    def __init__(self, cfg: TrainConfig, n_extras: int, rng: np.random.Generator):
        self.n_extras = n_extras
        self.bpn = nn.BatchPowerNorm(2)
        self.net = _trunk(2 + n_extras, cfg.n_bits, nn.SIGMOID, cfg, rng)
        self._cache = None

    def _input(self, y: np.ndarray, extras: list, eta, training: bool) -> np.ndarray:
        """First-layer input rows: the power-normalized real pairs ``y`` (S + (2,)) times
        ``eta``, then each side input, broadcast over S; float64 to train, float32 to decode."""
        if len(extras) != self.n_extras:
            raise ValueError(f"expected {self.n_extras} side inputs, got {len(extras)}")
        x = np.empty(y.shape[:-1] + (2 + self.n_extras,), float if training else np.float32)
        np.multiply(self.bpn.forward(y, training), np.expand_dims(eta, -1), out=x[..., :2])
        for j, v in enumerate(extras, 2):
            x[..., j] = v
        return x.reshape(-1, x.shape[-1])

    def train_pass(self, y: np.ndarray, extras: list, eta, bits: np.ndarray) -> np.ndarray:
        """Training pass on real-valued rows ``y`` of shape (rows, 2) with labels ``bits``.

        The input power norm sees the whole batch.  The trunk then runs
        forward, cross-entropy gradient and backward on each of the
        :func:`nn.row_slices` of at most ``_TRAIN_ROWS`` rows, so no
        activation outlives its slice; the first slice writes each layer's
        dW/db and later slices add to them.  Returns the bit probabilities of
        the whole batch and keeps the gradient at the trunk's first two input
        columns for :meth:`input_grad`.
        """
        x = self._input(y, extras, eta, True)
        probs = np.empty((len(x), self.net[-1].W.shape[0]))
        grad = np.empty((len(x), 2))
        for i, rows in enumerate(nn.row_slices(len(x), _TRAIN_ROWS)):
            p = x[rows]
            for layer in self.net:
                p = layer.forward(p)
            probs[rows] = p
            g = nn.bce_loss_grad(bits[rows], p, len(x))
            for layer in reversed(self.net):
                g = layer.backward(g, accumulate=i > 0)
            grad[rows] = g[:, :2]
        self._cache = (eta, grad)
        return probs

    def decode(self, y: np.ndarray, extras: list, eta):
        """Inference on the complex samples ``y``: ``(rows, probabilities)`` per slice.

        The dense stack runs in float32 from the first layer's input to the
        sigmoid, through :func:`nn.frozen_forward` in slices of at most
        ``_DECODE_ROWS`` rows; each slice's probabilities are overwritten by
        the next.  Nothing is cached.
        """
        pairs = np.ascontiguousarray(y, dtype=complex).view(float).reshape(np.shape(y) + (2,))
        return nn.frozen_forward(self.net, self._input(pairs, extras, eta, False), _DECODE_ROWS)

    def decide(self, y: np.ndarray, extras: list, eta) -> np.ndarray:
        """Hard bits of :meth:`decode` of shape S + (n_bits,), written slice by slice."""
        hat = np.empty((np.size(y), self.net[-1].W.shape[0]), int)
        for rows, p in self.decode(y, extras, eta):
            np.greater(p, 0.5, out=hat[rows])
        return hat.reshape(np.shape(y) + hat.shape[1:])

    def input_grad(self) -> np.ndarray:
        """Gradient at the rows ``y`` of the latest :meth:`train_pass`, once."""
        eta, grad = nn.take_cache(self)
        return self.bpn.backward(grad * np.expand_dims(eta, -1))

    def arrays(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        return ([(f"{prefix}.bpn.running_ms", self.bpn.running_ms)]
                + _named(f"{prefix}.net", self.net))


class ZicAutoencoder:
    """The four jointly trained networks plus everything needed to reuse them."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.arch = arch = replace(TrainConfig(), **{n: getattr(cfg, n) for n in ARCH_FIELDS})
        self.tx1 = Transmitter(arch, rng)
        self.tx2 = Transmitter(arch, rng)
        to_rx = 1 if arch.alpha_to_rx else 0
        self.rx1 = Receiver(arch, to_rx + (1 if arch.csi_mode == IMPERFECT else 0), rng)
        self.rx2 = Receiver(arch, to_rx, rng)
        self._cache = None

    # -- wiring -----------------------------------------------------------

    def _side_inputs(self, knows: CsiInputs, noise_var: float) -> list[tuple[list, object]]:
        """Each receiver's side inputs and input scale ``eta``, from what its node knows.

        Each field of ``knows`` is a scalar or an array that broadcasts
        against the samples, and so are the side inputs and scales it gives.
        """
        arch = self.arch
        extras1 = [knows.sa_rx1] if arch.alpha_to_rx else []
        if arch.csi_mode == IMPERFECT:
            if knows.theta_delta is None:
                raise ValueError("imperfect mode needs theta_delta")
            extras1.append(knows.theta_delta)
        extras2 = [knows.sa_rx2] if arch.alpha_to_rx else []
        return [(extras1, receiver_scale((1.0 + knows.sa_rx1**2) * arch.total_power,
                                         noise_var)),
                (extras2, receiver_scale(arch.total_power, noise_var))]

    def forward(self, bits1: np.ndarray, bits2: np.ndarray, eq: EquivalentChannel,
                knows: CsiInputs, noise_var: float,
                rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
        """Training-mode system pass; returns the two receivers' bit probabilities.

        The receivers also run their trunks' backward against the labels
        ``bits1``/``bits2`` slice by slice (:meth:`Receiver.train_pass`), so
        their dW/db are set on return; :meth:`backward` finishes the step.
        ``noise_var`` is the nominal (pre-normalization) noise power used for
        the desired-signal scaling; the actual injected noise follows the
        per-receiver variances of ``eq``.  ``rng=None`` disables noise.
        """
        x1 = self.tx1.forward(bits1, knows.sa_tx, training=True)
        x2 = self.tx2.forward(bits2, knows.sa_tx, training=True)
        H11 = _complex_matrix(eq.hbar11)
        H21 = _complex_matrix(eq.hbar21)
        H22 = _complex_matrix(eq.hbar22)
        y1 = nn.gaussian_noise(x1 @ H11.T + x2 @ H21.T, eq.noise_var_rx1 / 2.0, rng)
        y2 = nn.gaussian_noise(x2 @ H22.T, eq.noise_var_rx2 / 2.0, rng)
        self._cache = (H11, H21, H22)
        (extras1, eta1), (extras2, eta2) = self._side_inputs(knows, noise_var)
        return (self.rx1.train_pass(y1, extras1, eta1, bits1),
                self.rx2.train_pass(y2, extras2, eta2, bits2))

    def backward(self) -> None:
        """Finish backpropagating the summed cross-entropy of the latest forward, once.

        The receivers' trunks ran their backward within :meth:`forward`; this
        runs their input norms, the cross links and the transmitters.
        """
        H11, H21, H22 = nn.take_cache(self)
        gy1 = self.rx1.input_grad()
        gy2 = self.rx2.input_grad()
        self.tx1.backward(gy1 @ H11)
        self.tx2.backward(gy1 @ H21 + gy2 @ H22)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter and normalization-state array, named, in model-file order."""
        return (self.tx1.arrays("tx1") + self.tx2.arrays("tx2")
                + self.rx1.arrays("rx1") + self.rx2.arrays("rx2"))

    def _layers(self) -> list:
        """Every trained layer, in the order :meth:`arrays` names their parameters."""
        return [*self.tx1.net1, *self.tx1.net2, *self.tx2.net1, *self.tx2.net2,
                *self.rx1.net, *self.rx2.net]

    def params(self) -> list[np.ndarray]:
        return [p for layer in self._layers() for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self._layers() for g in layer.grads()]

    # -- frozen-model use --------------------------------------------------

    def covers(self, alpha: float) -> bool:
        return self.arch.alpha_min <= alpha <= self.arch.alpha_max

    def transmit(self, bits1: np.ndarray, bits2: np.ndarray,
                 constellations) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode encoding of bit rows to complex symbols: a constellation lookup.

        ``constellations`` is the pair ``encode_constellation(self, sa_tx)``
        gives; its points may hold one alphabet per row, shape (rows, M).
        """
        for bits in (bits1, bits2):
            pattern_index(bits, self.arch.n_bits)  # refuses anything but rows of n_bits 0/1s
        c1, c2 = constellations
        return modulate(c1, bits1), modulate(c2, bits2)

    def receive(self, y1: np.ndarray, y2: np.ndarray, knows: CsiInputs,
                noise_var: float) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode decoding of complex channel outputs to hard bits.

        ``y1``/``y2`` may have any shape S; the bits come back in S + (n_bits,).
        Each field of ``knows`` is a scalar or broadcasts against S, as a
        block's (B, 1) per-draw columns do against its (B, n) samples.
        ``noise_var`` is the noise power that the receivers' input scale
        assumes; ``DaeScheme`` passes the one of ``arch.train_snr_db``.  Each
        receiver decodes in float32 slices of at most ``_DECODE_ROWS`` rows
        (:meth:`Receiver.decode`), its layers cast once per call, and writes
        each slice's decisions straight into its output.
        """
        return tuple(rx.decide(y, extras, eta) for rx, y, (extras, eta) in zip(
            (self.rx1, self.rx2), (y1, y2), self._side_inputs(knows, noise_var)))


def encode_constellation(model: ZicAutoencoder, sqrt_alpha: float
                         ) -> tuple[Constellation, Constellation]:
    """Inference-mode symbol of every bit pattern of both frozen transmitters."""
    p1, p2 = model.tx1.points(sqrt_alpha), model.tx2.points(sqrt_alpha)
    n_bits = model.arch.n_bits
    return Constellation(p1, n_bits), Constellation(p2, n_bits)


def train(cfg: TrainConfig) -> tuple[ZicAutoencoder, list[dict]]:
    """Run the channel-iteration training schedule.

    Returns the trained model and a log with one row per channel:
    ``{"channel", "alpha", "loss", "lr"}`` where loss is the mean over that
    channel's epochs.  Deterministic given (cfg, cfg.seed).
    """
    ss = np.random.SeedSequence(cfg.seed)
    rng_init, rng_channel, rng_data = (np.random.default_rng(s) for s in ss.spawn(3))
    model = ZicAutoencoder(cfg, rng_init)
    opt = nn.Adam(model.params(), lr=cfg.lr, decay=cfg.decay)
    log: list[dict] = []

    for i_ch in range(cfg.n_channels):
        alpha = rng_channel.uniform(cfg.alpha_min, cfg.alpha_max)
        ctx = channel_context(cfg, alpha, cfg.train_snr_db, rng_channel, 1,
                              simulated_residual=True).draw(0)
        losses = []
        for i_ep in range(cfg.epochs_per_channel):
            bits1 = rng_data.integers(0, 2, size=(cfg.batch, cfg.n_bits)).astype(float)
            bits2 = rng_data.integers(0, 2, size=(cfg.batch, cfg.n_bits)).astype(float)
            p1, p2 = model.forward(bits1, bits2, ctx.eq, ctx.csi, ctx.noise_var, rng_data)
            loss = nn.bce_loss(bits1, p1) + nn.bce_loss(bits2, p2)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at channel {i_ch}, epoch {i_ep}, "
                    f"alpha={alpha:.4f}, lr={opt.lr:.3e}")
            model.backward()
            opt.step(model.grads())
            losses.append(loss)
        if (i_ch + 1) % cfg.decay_every == 0:
            opt.decay_lr()
        log.append({"channel": i_ch, "alpha": alpha,
                    "loss": float(np.mean(losses)), "lr": opt.lr})
    return model, log


# each experiment's overrides of the architecture toggles
ABLATION_EXPERIMENTS: dict[str, dict[str, bool]] = {
    "proposed": {},
    "exp1": {"use_shortcuts": False},
    "exp2": {"alpha_to_subnet1": False},
    "exp3": {"alpha_to_subnet2": False},
    "exp4": {"alpha_to_subnet1": False, "alpha_to_subnet2": False},
    "exp5": {"alpha_to_rx": False},
    "exp6": {"alpha_to_subnet2": False, "use_subnet2": False},
}
