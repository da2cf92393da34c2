"""Monte Carlo bit-error-rate harness.

A *scheme* (standard QAM, rotated QAM, or a set of trained autoencoders)
turns bit rows into symbols and channel outputs back into bits.  The harness
pushes random bits through :func:`zicae.channel.apply_channel` for a grid of
(SNR, interference intensity) points, averaging over random channel draws,
and reports per-user and worst-case BERs with binomial standard errors.

Random streams are derived per (seed, point, round): each round of a grid
point draws all its channels at once (:func:`draw_context`, under imperfect
CSI in blocks of keep-rule attempts, see :mod:`zicae.channel`), then the bits
and noise of all of them in blocks of whole draws, from one generator.  Grid
points are independent work units and every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import modem
from .autoencoder import ZicAutoencoder, encode_constellation
from .channel import (
    ChannelConfig,
    ChannelContext,
    CsiInputs,
    EquivalentChannel,
    apply_channel,
    channel_context,
    draw_channel,  # noqa: F401 -- module-level binding read by tracing tools
    rule,
)
from .modem import Constellation

_BLOCK_ROWS = 4096   # symbols per block of whole channel draws
_CHUNK = 16384       # symbols per piece of a draw longer than a block


@dataclass(frozen=True)
class EvalConfig(ChannelConfig):
    """Grid, averaging, and adaptivity settings for one evaluation run."""

    snr_grid_db: tuple = rule((10.0,))
    alpha_grid: tuple = rule((1.0,), 0)
    n_channel_draws: int = rule(500, 1)
    n_symbols_per_point: int = rule(0, 0)  # 0 -> adaptive stopping
    min_errors: int = rule(100, 1)
    max_bits: int = rule(10_000_000, 1)


@dataclass(frozen=True)
class BerPoint:
    """One evaluated grid point; worst-case fields drive the comparisons.

    ``n_draws`` channel draws were kept out of ``n_attempts`` drawn under the
    keep rule; neither goes to the CSV.
    """

    scheme: str
    snr_db: float
    alpha: float
    ber_user1: float
    ber_user2: float
    ber_worst: float
    n_bits_simulated: int
    n_bit_errors: int
    n_draws: int = 0
    n_attempts: int = 0

    @property
    def stderr(self) -> float:
        p = self.ber_worst
        return math.sqrt(p * (1.0 - p) / self.n_bits_simulated)


@dataclass
class BerResult:
    points: list[BerPoint] = field(default_factory=list)


CSV_HEADER = "scheme,snr_db,alpha,ber1,ber2,ber_worst,stderr,n_bits"


def result_to_csv(result: BerResult, run_id: str | None = None) -> str:
    """Render a result as CSV ('.' decimals, LF endings)."""
    lines = []
    if run_id:
        lines.append(f"# run: {run_id}")
    lines.append(CSV_HEADER)
    for p in result.points:
        lines.append(f"{p.scheme},{p.snr_db!r},{p.alpha!r},{p.ber_user1!r},"
                     f"{p.ber_user2!r},{p.ber_worst!r},{p.stderr!r},{p.n_bits_simulated}")
    return "\n".join(lines) + "\n"


# -- channel contexts -------------------------------------------------------


def ideal_context(alpha: float, snr_db: float, total_power: float = 1.0) -> ChannelContext:
    """Unit direct gains and exact noise power: the analytic-oracle setting."""
    nv = ChannelConfig(total_power=total_power).noise_var(snr_db)
    sa = math.sqrt(alpha)
    eq = EquivalentChannel(1.0 + 0j, complex(sa), 1.0 + 0j, nv, nv)
    return ChannelContext(eq, nv, alpha, CsiInputs(sa, sa, sa))


def draw_context(cfg: EvalConfig, alpha: float, snr_db: float,
                 rng: np.random.Generator) -> ChannelContext:
    """The ``n_channel_draws`` channels of one round of a grid point, with the real
    feedback quantizer."""
    return channel_context(cfg, alpha, snr_db, rng, cfg.n_channel_draws)


def _per_draw(sa_tx, build) -> tuple[Constellation, Constellation]:
    """The constellation pair ``build(v)`` gives for each draw's fed-back ``sa_tx``.

    ``build`` runs once per distinct value; for K draws the points are
    gathered to shape (K, M), unless every draw gets the same constellation
    object, which stays as it is.
    """
    if np.ndim(sa_tx) == 0:
        return build(float(sa_tx))
    values, inverse = np.unique(sa_tx, return_inverse=True)
    built = [build(float(v)) for v in values]

    def stack(cs):
        if all(c is cs[0] for c in cs):
            return cs[0]
        points = np.stack([c.points for c in cs])[inverse]
        return Constellation(points, cs[0].n_bits)

    return stack([b[0] for b in built]), stack([b[1] for b in built])


# -- transmission schemes ----------------------------------------------------


class Scheme:
    """Bit rows -> symbols through per-draw constellations; channel outputs -> bits.

    A scheme has a ``name`` and an ``n_bits``.  ``constellations(ctx)`` gives
    both transmitters' constellations for the draws of ``ctx``: points (M,)
    when common to all draws, (K, M) when not.  ``transmit`` and ``detect``
    take bit rows of shape (B, n, n_bits) and samples of shape (B, n) from a
    block of B draws (``ctx.block``, with the per-draw points cut to
    (B, 1, M)), or (n, n_bits) and (n,) from one channel; the context's
    per-draw fields, (B, 1) columns in a block, broadcast against them.
    """

    def transmit(self, bits1, bits2, ctx: ChannelContext, cons=None):
        """Both users' symbols for bit rows sent through ``ctx``.

        ``cons`` is ``self.constellations(ctx)`` when the caller has it already.
        """
        c1, c2 = cons or self.constellations(ctx)
        return modem.modulate(c1, bits1), modem.modulate(c2, bits2)


class Baseline1(Scheme):
    """Standard QAM at both transmitters, joint ML detection at Rx1."""

    name = "baseline1"

    def __init__(self, n_bits: int, total_power: float = 1.0):
        self.n_bits = n_bits
        self.c1 = modem.standard_qam(n_bits, total_power)
        self.c2 = modem.standard_qam(n_bits, total_power)

    def constellations(self, ctx: ChannelContext) -> tuple[Constellation, Constellation]:
        return self.c1, self.c2

    def detect(self, y1, y2, ctx: ChannelContext, cons):
        c1, c2 = cons
        theta_delta = 0.0 if ctx.csi.theta_delta is None else ctx.csi.theta_delta
        cross = ctx.csi.sa_rx1 * np.exp(1j * theta_delta)
        return modem.detect_rx1(y1, c1, c2, cross), modem.detect_rx2(y2, c2)


class Baseline2(Baseline1):
    """Standard QAM at Tx1; Tx2 rotates per the fed-back interference intensity."""

    name = "baseline2"

    def __init__(self, n_bits: int, total_power: float = 1.0):
        super().__init__(n_bits, total_power)
        self._rotations: dict[float, float] = {}

    def rotation_for(self, sa_tx: float) -> float:
        theta = self._rotations.get(sa_tx)
        if theta is None:
            theta = modem.best_rotation(self.c1, self.c2, sa_tx)
            self._rotations[sa_tx] = theta
        return theta

    def constellations(self, ctx: ChannelContext) -> tuple[Constellation, Constellation]:
        return _per_draw(ctx.csi.sa_tx,
                         lambda sa: (self.c1, modem.rotate(self.c2, self.rotation_for(sa))))


class DaeScheme(Scheme):
    """Routes each interference intensity to the trained model covering it."""

    name = "dae"

    def __init__(self, models: list[ZicAutoencoder]):
        if not models:
            raise ValueError("need at least one model")
        self.models = models
        self.n_bits = models[0].arch.n_bits

    def route(self, alpha: float) -> ZicAutoencoder:
        for m in self.models:
            if m.covers(alpha):
                return m
        intervals = ", ".join(f"[{m.arch.alpha_min:g}, {m.arch.alpha_max:g}]"
                              for m in self.models)
        raise LookupError(f"no trained model covers alpha={alpha:g} (have {intervals})")

    def constellations(self, ctx: ChannelContext) -> tuple[Constellation, Constellation]:
        model = self.route(ctx.alpha)
        return _per_draw(ctx.csi.sa_tx, lambda sa: encode_constellation(model, sa))

    def transmit(self, bits1, bits2, ctx: ChannelContext, cons=None):
        """The routed model's transmitters on the bit rows, looked up in ``cons``."""
        model = self.route(ctx.alpha)
        shape = np.shape(bits1)[:-1]

        def per_row(c):  # one alphabet per row where the alphabet is per draw
            if c.points.ndim == 1:
                return c
            return replace(c, points=np.broadcast_to(c.points, shape + (c.size,)
                                                     ).reshape(-1, c.size))

        rows1, rows2 = (np.reshape(b, (-1, self.n_bits)) for b in (bits1, bits2))
        cons = cons or self.constellations(ctx)
        x1, x2 = model.transmit(rows1, rows2, tuple(map(per_row, cons)))
        return x1.reshape(shape), x2.reshape(shape)

    def detect(self, y1, y2, ctx: ChannelContext, cons):
        """The routed model's receivers on the samples as they are, their inputs scaled
        for the noise power of the model's training SNR."""
        model = self.route(ctx.alpha)
        return model.receive(y1, y2, ctx.csi, model.arch.noise_var(model.arch.train_snr_db))


# -- simulation core ---------------------------------------------------------


def _blocks(ctx: ChannelContext, cons, per_draw: int):
    """(context, constellations) of each block of whole draws.

    A K-draw context goes in blocks of as many draws of ``per_draw`` symbols
    as fit in ``_BLOCK_ROWS`` symbols (at least one); one channel is a
    single block.
    """
    if not ctx.shape:
        yield ctx, cons
        return
    step = max(1, _BLOCK_ROWS // per_draw)
    for first in range(0, ctx.shape[0], step):
        draws = slice(first, first + step)
        yield ctx.block(draws), tuple(replace(c, points=c.points[draws, None])
                                      if c.points.ndim > 1 else c for c in cons)


def run_point(scheme: Scheme, ctx: ChannelContext, n_symbols: int,
              rng: np.random.Generator) -> tuple[int, int, int]:
    """Transmit ``n_symbols`` random bit rows per user through ``ctx``.

    ``ctx`` is one channel or K draws, each of which carries an equal share
    of the ``n_symbols`` (a multiple of K).  The constellations are built
    once per call; blocks of whole draws then go through transmission,
    channel, noise and detection together, a draw longer than a block alone
    in pieces of at most ``_CHUNK`` symbols.  Each piece draws its bits,
    then its noise.

    Returns (bit errors user 1, bit errors user 2, bits simulated per user),
    summed over the draws.
    """
    n_draws = math.prod(ctx.shape)
    per_draw, rest = divmod(n_symbols, n_draws)
    if rest:
        raise ValueError(f"{n_symbols} symbols do not split evenly over {n_draws} draws")
    cons = scheme.constellations(ctx)
    err1 = err2 = 0
    for block, block_cons in _blocks(ctx, cons, per_draw):
        draws = block.shape[:-1]  # (B,) for B draws as columns, () for one channel
        done = 0
        while done < per_draw:
            n = min(_CHUNK, per_draw - done)
            bits1 = rng.integers(0, 2, size=(*draws, n, scheme.n_bits))
            bits2 = rng.integers(0, 2, size=(*draws, n, scheme.n_bits))
            x1, x2 = scheme.transmit(bits1, bits2, block, block_cons)
            y1, y2 = apply_channel(block.eq, x1, x2, rng)
            hat1, hat2 = scheme.detect(y1, y2, block, block_cons)
            err1 += int(np.count_nonzero(hat1 != bits1))
            err2 += int(np.count_nonzero(hat2 != bits2))
            done += n
    return err1, err2, n_symbols * scheme.n_bits


def evaluate_point(cfg: EvalConfig, scheme: Scheme, alpha: float, snr_db: float,
                   point_index: int) -> BerPoint:
    """Average one grid point over channel draws, adaptively sized.

    Each round draws every channel of the point, then sends the same number
    of symbols through each, from the generator of (seed, point, round); rounds
    repeat until at least ``min_errors`` worst-user errors or ``max_bits``
    bits per user, unless ``n_symbols_per_point`` pins the count per draw.
    """
    if cfg.n_symbols_per_point:
        chunk = cfg.n_symbols_per_point
    else:
        budget = min(200_000, max(2_000 * cfg.n_channel_draws, 50_000))
        chunk = max(1, budget // (cfg.n_channel_draws * cfg.n_bits))
    err1 = err2 = 0
    bits_done = 0
    rnd = attempts = 0
    while True:
        rng = np.random.default_rng([cfg.seed, point_index, rnd])
        ctx = draw_context(cfg, alpha, snr_db, rng)
        attempts += ctx.attempts
        e1, e2, nb = run_point(scheme, ctx, cfg.n_channel_draws * chunk, rng)
        err1 += e1
        err2 += e2
        bits_done += nb
        rnd += 1
        if cfg.n_symbols_per_point:
            break
        if max(err1, err2) >= cfg.min_errors or bits_done >= cfg.max_bits:
            break
    ber1 = err1 / bits_done
    ber2 = err2 / bits_done
    worst = max(ber1, ber2)
    return BerPoint(scheme=scheme.name, snr_db=snr_db, alpha=alpha,
                    ber_user1=ber1, ber_user2=ber2, ber_worst=worst,
                    n_bits_simulated=bits_done, n_bit_errors=max(err1, err2),
                    n_draws=rnd * cfg.n_channel_draws, n_attempts=attempts)


def sweep(cfg: EvalConfig, scheme) -> BerResult:
    """Evaluate the full snr x alpha grid."""
    result = BerResult()
    index = 0
    for snr_db in cfg.snr_grid_db:
        for alpha in cfg.alpha_grid:
            result.points.append(evaluate_point(cfg, scheme, alpha, snr_db, index))
            index += 1
    return result

