"""Z-interference channel models with perfect and imperfect CSI.

The physical channel has two transmitter/receiver pairs where only receiver 1
is interfered (Tx2 -> Rx1).  All simulation runs on the *equivalent* model:
unit direct gains, a real nonnegative cross gain sqrt(alpha) (perfect CSI) or
a complex cross gain carrying estimation/quantization residuals (imperfect
CSI), and per-receiver noise variances scaled by the inverse squared direct
gains.

One channel draw passes through one record per stage: the raw gains
(:class:`ChannelRealization`), Rx1's estimate of them
(:class:`EstimatedChannel`), what each node knows after the N_q-bit feedback
of (alpha, theta) (:class:`CsiInputs`, from :func:`make_feedback`), the
equivalent channel (:class:`EquivalentChannel`) and the context that joins
the last two (:class:`ChannelContext`).  Every stage works elementwise, one
entry per draw.

Complex Gaussian convention: CN(mu, var) has independent real/imaginary parts,
each N(Re/Im(mu), var/2).

Every operation is pure given an explicit ``numpy.random.Generator``; callers
own their streams, so everything here is safe to use from parallel workers.

:class:`ChannelConfig` holds the settings that training and evaluation share,
and :func:`channel_context` draws the K channels of one round under them:
training draws one at a time, evaluation ``n_channel_draws`` per round.  Under
imperfect CSI the keep rule's attempts go in blocks of as many attempts as
draws are missing: n x 4 normals for the direct gains, n uniforms for the
cross-link angles, then n x 6 normals for the estimation errors, so one draw
reads the stream of one attempt after the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

PERFECT = "perfect"
IMPERFECT = "imperfect"

# feedback quantizer ranges of the interference intensity and the angle
ALPHA_RANGE = (0.0, 3.0)
THETA_RANGE = (-math.pi, math.pi)

# keep-rule attempts per channel draw before the estimation setting is
# declared unusable; at an acceptance of 8e-4 a false trip has probability
# about e^-80
MAX_ESTIMATE_ATTEMPTS = 100_000


class DegenerateChannelError(ValueError):
    """Raised when a direct channel gain is zero and cannot be normalized out."""


class RejectionLimitError(ValueError):
    """Raised when the keep rule rejects every estimate of one channel draw."""


@dataclass(frozen=True)
class ChannelRealization:
    """Raw complex gains of channel uses, one entry per draw; h21 is the only cross link."""

    h11: complex
    h21: complex
    h22: complex


@dataclass(frozen=True)
class EquivalentChannel:
    """Normalized channel actually simulated.

    Perfect CSI: hbar11 = hbar22 = 1 and hbar21 = sqrt(alpha) (real >= 0).
    Imperfect CSI: the gains carry estimation-error and residual-phase terms.
    """

    hbar11: complex
    hbar21: complex
    hbar22: complex
    noise_var_rx1: float
    noise_var_rx2: float


_BOOL = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


def _render(name: str, kind, value) -> list[tuple[str, str]]:
    """Config-file ``(key, text)`` pairs of one field; ``kind`` is its default.

    A complex field is written as ``<name>_re``/``<name>_im``, a tuple as a
    comma list and a bool as 0/1.
    """
    if isinstance(kind, complex):
        return [(f"{name}_re", repr(value.real)), (f"{name}_im", repr(value.imag))]
    if isinstance(kind, tuple):
        return [(name, ",".join(repr(v) for v in value))]
    if isinstance(kind, bool):
        return [(name, str(int(value)))]
    return [(name, repr(value) if isinstance(value, float) else str(value))]


def _parse(name: str, kind, base, raw: dict[str, str]):
    """Inverse of :func:`_render`: the field's value from ``raw``, else ``base``."""
    if isinstance(kind, complex):
        return complex(_parse(f"{name}_re", 0.0, base.real, raw),
                       _parse(f"{name}_im", 0.0, base.imag, raw))
    if name not in raw:
        return base
    text = raw[name]
    try:
        if isinstance(kind, tuple):
            return tuple(float(v) for v in text.split(",") if v.strip())
        if isinstance(kind, bool):
            return _BOOL[text.lower()]
        return type(kind)(text)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad value for {name!r}: {text!r}") from exc


def rule(default, lo=None, hi=None, open_lo=False):
    """A config field whose values lie in [lo, hi], open at lo if ``open_lo``; None: no bound.

    Floats, complex parts and grid entries must also be finite, and grids non-empty;
    an SNR's noise power must be finite and > 0.
    """
    return field(default=default, metadata={"rule": (lo, hi, open_lo)})


@dataclass(frozen=True)
class ChannelConfig:
    """Settings shared by training and evaluation: symbols, power, seed and CSI model.

    Subclasses add their own fields; every field maps to config-file keys
    through :meth:`config_items` and :meth:`from_config`.
    """

    # above 6 bits, Baseline2's rotation search compares ~(M1*M2)^2/2 point pairs at
    # each of 90 angles (about 2 minutes per fed-back intensity at 7); above 52
    # feedback bits a segment is finer than float64 spacing
    n_bits: int = rule(2, 1, 6)
    total_power: float = rule(1.0, 0, open_lo=True)
    seed: int = rule(0, 0)
    csi_mode: str = PERFECT
    sigma_e2: float = rule(0.0, 0)
    threshold_t: float = rule(1.0, 0, open_lo=True)
    n_q: int = rule(3, 1, 52)
    mu_h: complex = rule(1.0 + 0j)
    sigma_h2: float = rule(0.1, 0)

    def __post_init__(self):
        if self.csi_mode not in (PERFECT, IMPERFECT):
            raise ValueError(f"unknown csi_mode {self.csi_mode!r}")
        for f in fields(self):
            if "rule" not in f.metadata:
                continue
            lo, hi, open_lo = f.metadata["rule"]
            value = getattr(self, f.name)
            if isinstance(f.default, complex):
                parts = [(f"{f.name}_re", value.real), (f"{f.name}_im", value.imag)]
            elif isinstance(f.default, tuple):
                if not value:
                    raise ValueError(f"{f.name} must be non-empty, got {value!r}")
                parts = [(f.name, v) for v in value]
            else:
                parts = [(f.name, value)]
            for key, v in parts:
                # an int is never tested: math.isfinite(10**400) overflows
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{key} must be finite, got {v!r}")
                if lo is not None and (v <= lo if open_lo else v < lo):
                    raise ValueError(f"{key} must be {'>' if open_lo else '>='} {lo}, got {v!r}")
                if hi is not None and v > hi:
                    raise ValueError(f"{key} must be <= {hi}, got {v!r}")
                if "snr" in key:  # an SNR field: its noise power must be positive and finite
                    try:
                        nv = self.noise_var(v)
                    except ArithmeticError:  # 10**(v/10) overflows, or is 0 and divides
                        nv = 0.0
                    if not 0 < nv < math.inf:
                        raise ValueError(f"{key} must be an SNR whose noise power "
                                         f"total_power / 10**(dB/10) is finite and > 0, got {v!r}")
        if self.mu_h == 0 and self.sigma_h2 == 0:
            raise ValueError("mu_h_re = mu_h_im = 0 with sigma_h2 = 0 makes every direct "
                             "gain zero, which cannot be normalized out")

    def noise_var(self, snr_db: float) -> float:
        """Nominal noise power sigma_N^2 at ``snr_db`` for the total power budget."""
        return self.total_power / 10.0 ** (snr_db / 10.0)

    def config_items(self, names=None) -> list[tuple[str, str]]:
        """Config-file ``(key, text)`` pairs of the named fields (default: all), in order."""
        kinds = {f.name: f.default for f in fields(self)}
        return [pair for name in (names or kinds)
                for pair in _render(name, kinds[name], getattr(self, name))]

    def config_text(self) -> str:
        """Canonical ``key=value`` lines of every field: the text run ids and digests hash."""
        return "".join(f"{key}={text}\n" for key, text in self.config_items())

    @classmethod
    def from_config(cls, raw: dict[str, str], base=None):
        """Parse config-file keys; a key that is absent keeps ``base``'s value.

        ``base`` defaults to ``cls()``; keys of other configs are ignored.
        """
        base = cls() if base is None else base
        return replace(base, **{f.name: _parse(f.name, f.default, getattr(base, f.name), raw)
                                for f in fields(cls)})


@dataclass(frozen=True)
class EstimatedChannel:
    """Estimated gains, their errors (true h = hhat + eps), and derived CSI.

    alpha_hat is the interference intensity receiver 1 assumes and theta_hat
    the phase difference it feeds back, wrapped to [-pi, pi); both are
    computed from the estimates when read.
    """

    hhat11: complex
    hhat21: complex
    hhat22: complex
    eps11: complex
    eps21: complex
    eps22: complex

    @property
    def alpha_hat(self):
        """(|hhat21|/|hhat11|)^2, inf where hhat11 is 0."""
        r11 = _abs(self.hhat11)
        ratio = np.divide(_abs(self.hhat21), r11, out=np.full(np.shape(r11), math.inf),
                          where=r11 > 0)
        return _square(ratio)

    @property
    def theta_hat(self):
        """arg hhat11 - arg hhat21, by np.arctan2 (``cmath.phase`` differs in the last bit)."""
        return _wrap_angle(np.arctan2(np.imag(self.hhat11), np.real(self.hhat11))
                           - np.arctan2(np.imag(self.hhat21), np.real(self.hhat21)))


@dataclass(frozen=True)
class CsiInputs:
    """Interference knowledge available at each node, per channel draw.

    sa_* are sqrt-intensity values: the transmitters and Rx2 see the fed-back
    (possibly quantized) value, Rx1 its own non-quantized estimate plus the
    residual feedback angle (None under perfect CSI).  Each field is a
    scalar or holds one value per draw: (K,) for a round of K draws, (B, 1)
    columns for a block, which broadcast against its (B, n) samples.
    """

    sa_tx: float
    sa_rx1: float
    sa_rx2: float
    theta_delta: float | None = None


# Elementwise arithmetic that gives, bit for bit, what Python's arithmetic
# gives on one value; numpy's own abs and complex division differ from it in
# the last bit on about a third of inputs.

def _abs(z):
    """|z| as Python's ``abs`` of a complex computes it."""
    return np.hypot(np.real(z), np.imag(z))


def _square(x):
    """x**2 as Python squares a float: with the C library's pow, not x*x.

    The two differ in the last bit on about 0.1 % of inputs.
    """
    return np.asarray(np.power(np.asarray(x, dtype=object), 2), dtype=float)


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real, out.imag = re, im
    return out[()]  # a numpy scalar, not a 0-d array, for scalar parts


def _quotient(a, b):
    """a / b by Smith's method, as Python divides complex numbers; nan where b is 0."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    swap = np.abs(b.real) < np.abs(b.imag)  # divide top and bottom by the larger part of b
    big, small = np.where(swap, b.imag, b.real), np.where(swap, b.real, b.imag)
    x, y = np.where(swap, a.imag, a.real), np.where(swap, a.real, a.imag)
    ratio = small / big
    denom = big + small * ratio
    xr = x * ratio
    return _complex((x + y * ratio) / denom, np.where(swap, xr - y, y - xr) / denom)


def _expj(theta):
    """e^{j*theta}, as ``cmath.exp(1j * theta)`` computes it."""
    return _complex(np.cos(theta), np.sin(theta))


def draw_channel(cfg: ChannelConfig, rng: np.random.Generator, n: int) -> ChannelRealization:
    """Draw ``n`` pairs of direct gains h11, h22 from CN(mu_h, sigma_h2); h21 is left at zero.

    Draw i reads the normals ``standard_normal((n, 4))[i]``: Re h11, Im h11,
    Re h22, Im h22.  The cross link is interference-intensity driven and is
    set separately, see :func:`draw_interference` / :func:`draw_zic_channel`.
    """
    h = cfg.mu_h + _complex_noise(rng, cfg.sigma_h2, (n, 2))
    return ChannelRealization(h11=h[:, 0], h21=np.zeros(n, complex), h22=h[:, 1])


def draw_interference(alpha, rng: np.random.Generator, n: int):
    """``n`` cross gains sqrt(alpha)*e^{j*theta}, theta uniform on [0, 2*pi).

    ``alpha`` is one intensity or one per draw.
    """
    if (np.asarray(alpha) < 0).any():
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return np.sqrt(alpha) * _expj(2.0 * math.pi * rng.random(n))


def draw_zic_channel(cfg: ChannelConfig, alpha, rng: np.random.Generator,
                     n: int) -> ChannelRealization:
    """``n`` full ZIC realizations: random direct gains plus the alpha-driven cross link."""
    ch = draw_channel(cfg, rng, n)
    return ChannelRealization(ch.h11, draw_interference(alpha, rng, n), ch.h22)


def normalize_perfect(ch: ChannelRealization, noise_var: float) -> EquivalentChannel:
    """Equivalent model under perfect CSI, elementwise over the draws of ``ch``.

    Tx2 pre-rotates to align the cross-link phase with the direct one and both
    receivers divide by their direct gain, leaving unit direct gains, a real
    cross gain r21/r11 and noise variances noise_var/|hii|^2.
    """
    r11 = _abs(ch.h11)
    r22 = _abs(ch.h22)
    if np.any(r11 == 0.0) or np.any(r22 == 0.0):
        raise DegenerateChannelError("direct gain is zero; channel cannot be normalized")
    return EquivalentChannel(
        hbar11=1.0 + 0j,
        hbar21=_complex(_abs(ch.h21) / r11, 0.0),
        hbar22=1.0 + 0j,
        noise_var_rx1=noise_var / _square(r11),
        noise_var_rx2=noise_var / _square(r22),
    )


def _wrap_angle(theta):
    """Wrap to [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def estimate(ch: ChannelRealization, cfg: ChannelConfig,
             rng: np.random.Generator) -> EstimatedChannel:
    """Estimates hhat_ij = h_ij - eps_ij of the draws of ``ch``, eps_ij from CN(0, sigma_e2).

    Draw i reads the normals ``standard_normal((n, 6))[i]``: eps11, eps21,
    eps22, each real part first.
    """
    e11, e21, e22 = np.moveaxis(_complex_noise(rng, cfg.sigma_e2, (*np.shape(ch.h11), 3)), -1, 0)
    return EstimatedChannel(ch.h11 - e11, ch.h21 - e21, ch.h22 - e22, e11, e21, e22)


def accept_channel(est: EstimatedChannel, cfg: ChannelConfig):
    """Keep rule, elementwise: no error-to-estimate ratio reaches threshold_t.

    A zero estimated direct gain gives a nan ratio, which is never kept.
    """
    ratios = _quotient([est.eps11, est.eps22, est.eps21], [est.hhat11, est.hhat22, est.hhat11])
    return _abs(ratios).max(axis=0) < cfg.threshold_t


def quantize(value, n_bits: int, lo: float, hi: float):
    """Uniform midpoint quantizer over [lo, hi] with 2**n_bits segments, elementwise.

    Segments are half-open [lo + k*w, lo + (k+1)*w), the last one closed;
    out-of-range inputs clamp to the nearest end segment.  The output is
    always the midpoint of the selected segment.
    """
    n_seg = 1 << n_bits
    w = (hi - lo) / n_seg
    k = np.clip(np.floor((np.asarray(value) - lo) / w), 0, n_seg - 1)
    return lo + (k + 0.5) * w


def make_feedback(est: EstimatedChannel, n_q: int) -> CsiInputs:
    """What each node knows after Rx1 feeds back (alpha_hat, theta_hat) on n_q bits.

    The transmitters and Rx2 see the quantized intensity, Rx1 its own
    estimate plus the residual angle quantized(theta_hat) - theta_hat.
    Elementwise over the draws of ``est``.
    """
    alpha_hat, theta_hat = est.alpha_hat, est.theta_hat
    sa_q = np.sqrt(quantize(alpha_hat, n_q, *ALPHA_RANGE))
    return CsiInputs(sa_tx=sa_q, sa_rx1=np.sqrt(alpha_hat), sa_rx2=sa_q,
                     theta_delta=quantize(theta_hat, n_q, *THETA_RANGE) - theta_hat)


def normalize_imperfect(est: EstimatedChannel, theta_delta,
                        noise_var: float) -> EquivalentChannel:
    """Equivalent model when nodes equalize with estimated gains, elementwise.

    Direct gains become 1 + eps_ii/hhat_ii, the cross gain
    (rhat21/rhat11)*e^{j*theta_delta} + eps21/hhat11, and noise variances
    scale with the *estimated* direct gains.
    """
    r11, r22 = _abs(est.hhat11), _abs(est.hhat22)
    if np.any(r11 == 0.0) or np.any(r22 == 0.0):
        raise DegenerateChannelError("estimated direct gain is zero")
    return EquivalentChannel(
        hbar11=1.0 + _quotient(est.eps11, est.hhat11),
        hbar21=_abs(est.hhat21) / r11 * _expj(theta_delta) + _quotient(est.eps21, est.hhat11),
        hbar22=1.0 + _quotient(est.eps22, est.hhat22),
        noise_var_rx1=noise_var / _square(r11),
        noise_var_rx2=noise_var / _square(r22),
    )


def draw_accepted_estimate(cfg: ChannelConfig, alpha: float, rng: np.random.Generator,
                           k: int) -> tuple[EstimatedChannel, int]:
    """Rejection-sample ``k`` kept channel estimates; return them and the attempts made.

    Attempts go in blocks of as many attempts as draws are missing, the
    block's channels (:func:`draw_zic_channel`) then their estimates; one is
    kept if both estimated direct gains are nonzero and :func:`accept_channel`
    holds.  Kept attempts fill the draws in attempt order, so a draw's
    attempts are the rejections in a row before it, plus itself.  Raises
    :class:`RejectionLimitError` once one draw has ``MAX_ESTIMATE_ATTEMPTS``.
    """
    kept, attempts, missing = [], 0, k
    rejected = 0  # rejections in a row since the last kept attempt
    while missing:
        est = estimate(draw_zic_channel(cfg, alpha, rng, missing), cfg, rng)
        ok = (est.hhat11 != 0) & (est.hhat22 != 0) & accept_channel(est, cfg)
        hits = np.flatnonzero(ok)
        if hits.size:  # the longest run of rejections before a kept attempt
            longest = max(rejected + hits[0], (hits[1:] - hits[:-1]).max(initial=1) - 1)
            rejected = missing - 1 - hits[-1]
            kept.append(_take(est, hits))
        else:
            longest = rejected = rejected + missing
        if max(longest, rejected) >= MAX_ESTIMATE_ATTEMPTS:
            raise RejectionLimitError(
                f"no channel estimate passed the keep rule in {MAX_ESTIMATE_ATTEMPTS} "
                f"attempts (observed acceptance 0/{MAX_ESTIMATE_ATTEMPTS}) at "
                f"sigma_e2={cfg.sigma_e2!r}, threshold_t={cfg.threshold_t!r}, "
                f"alpha={alpha:g}; raise threshold_t or lower sigma_e2")
        attempts += missing
        missing -= hits.size
    return EstimatedChannel(*(np.concatenate([getattr(e, f.name) for e in kept])
                              for f in fields(EstimatedChannel))), attempts


def apply_channel(eq: EquivalentChannel, x1, x2, rng: np.random.Generator | None):
    """Push symbols through the equivalent channel.

    y1 = hbar11*x1 + hbar21*x2 + n1 and y2 = hbar22*x2 + n2 with ni complex
    Gaussian of variance noise_var_rxi (half per real component).  ``x1``/``x2``
    may be scalars or arrays; the fields of ``eq`` may be arrays that
    broadcast against them (one value per draw).  ``rng=None`` disables noise.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    y1 = eq.hbar11 * x1 + eq.hbar21 * x2
    y2 = eq.hbar22 * x2
    if rng is not None:
        y1 += _complex_noise(rng, eq.noise_var_rx1, x1.shape)
        y2 += _complex_noise(rng, eq.noise_var_rx2, x2.shape)
    return y1, y2


def _complex_noise(rng: np.random.Generator, var, shape):
    z = rng.standard_normal((*shape, 2)).view(complex)[..., 0]  # z[..., 0] + 1j*z[..., 1]
    z *= np.sqrt(np.maximum(var, 0.0) / 2.0)
    return z


def _take(obj, rows):
    """Copy of a frozen dataclass with every array field indexed by ``rows``."""
    return replace(obj, **{f.name: v[rows] for f in fields(obj)
                           if np.ndim(v := getattr(obj, f.name))})


@dataclass(frozen=True)
class ChannelContext:
    """Everything the draws of one round fix: equivalent gains and node knowledge.

    A context of K draws (:func:`channel_context`) holds ``(K,)`` arrays in
    the fields of ``eq`` and ``csi`` that vary between draws; the others are
    scalars.  ``attempts`` counts the round's channels drawn under the keep
    rule, kept or not (K under perfect CSI); :meth:`block` and :meth:`draw`
    keep the round's count.
    """

    eq: EquivalentChannel
    noise_var: float          # nominal sigma_N^2 at this SNR
    alpha: float              # true interference intensity of the draw
    csi: CsiInputs
    attempts: int = 1

    @property
    def shape(self) -> tuple:
        """Shape of the draw axes: () for one channel, (K,) for K draws."""
        return np.broadcast_shapes(*(np.shape(getattr(self.eq, f.name))
                                     for f in fields(self.eq)))

    def block(self, draws: slice) -> ChannelContext:
        """The draws ``draws`` of a K-draw context, every array field as a column.

        The ``(B, 1)`` fields broadcast against ``(B, n)`` arrays holding n
        symbols of each of the B draws.
        """
        return replace(self, eq=_take(self.eq, (draws, None)), csi=_take(self.csi, (draws, None)))

    def draw(self, i: int) -> ChannelContext:
        """Draw ``i`` of a K-draw context as a context of one channel."""
        return replace(self, eq=_take(self.eq, i), csi=_take(self.csi, i))


def channel_context(cfg: ChannelConfig, alpha: float, snr_db: float,
                    rng: np.random.Generator, k: int, simulated_residual: bool = False
                    ) -> ChannelContext:
    """Draw ``k`` channels at interference intensity ``alpha`` under ``cfg``'s CSI model.

    Perfect CSI: random direct gains that, after normalization, only scale
    the noise.  Imperfect CSI: rejection-sampled estimated channels
    (:func:`draw_accepted_estimate`) with N_q-bit feedback of (alpha, theta).
    With ``simulated_residual`` (the training loop) the residual feedback
    angles are drawn uniformly from the quantizer's half segment
    +-pi/2**n_q, after the estimates, instead of quantizing the estimated
    phase.
    """
    nv = cfg.noise_var(snr_db)
    if cfg.csi_mode == PERFECT:
        sa = math.sqrt(alpha)
        eq = replace(normalize_perfect(draw_channel(cfg, rng, k), nv), hbar21=complex(sa))
        return ChannelContext(eq, nv, alpha, CsiInputs(sa, sa, sa), k)
    est, attempts = draw_accepted_estimate(cfg, alpha, rng, k)
    csi = make_feedback(est, cfg.n_q)
    if simulated_residual:
        half = math.pi / 2**cfg.n_q
        csi = replace(csi, theta_delta=rng.uniform(-half, half, k))
    return ChannelContext(normalize_imperfect(est, csi.theta_delta, nv), nv, alpha, csi,
                          attempts)
