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
the last two (:class:`ChannelContext`).

Complex Gaussian convention: CN(mu, var) has independent real/imaginary parts,
each N(Re/Im(mu), var/2).

Every operation is pure given an explicit ``numpy.random.Generator``; callers
own their streams, so everything here is safe to use from parallel workers.

:class:`ChannelConfig` holds the settings that training and evaluation share,
and :func:`channel_context` draws one channel under them for either.
Evaluation joins the contexts of many draws with :func:`stack_contexts`
into one context holding an array entry per draw.
"""

from __future__ import annotations

import cmath
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
    """Raw complex gains of one channel use; h21 is the only cross link."""

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

    Floats, complex parts and grid entries must also be finite, and grids non-empty.
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
    the phase difference it feeds back, wrapped to [-pi, pi).
    """

    hhat11: complex
    hhat21: complex
    hhat22: complex
    eps11: complex
    eps21: complex
    eps22: complex
    alpha_hat: float
    theta_hat: float


@dataclass(frozen=True)
class CsiInputs:
    """Interference knowledge available at each node for one channel.

    sa_* are sqrt-intensity values: the transmitters and Rx2 see the fed-back
    (possibly quantized) value, Rx1 its own non-quantized estimate plus the
    residual feedback angle (None under perfect CSI).
    """

    sa_tx: float
    sa_rx1: float
    sa_rx2: float
    theta_delta: float | None = None


def _complex_gaussians(rng: np.random.Generator, mean: complex, var: float,
                       n: int) -> list[complex]:
    """``n`` python complex CN(mean, var) draws from one ``standard_normal(2n)`` call."""
    scale = math.sqrt(var / 2.0) if var > 0 else 0.0
    z = rng.standard_normal(2 * n).tolist()
    return [mean + scale * complex(z[i], z[i + 1]) for i in range(0, 2 * n, 2)]


def draw_channel(cfg: ChannelConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw the direct gains h11, h22 from CN(mu_h, sigma_h2); h21 is left at zero.

    The cross link is interference-intensity driven and is set separately,
    see :func:`draw_interference` / :func:`draw_zic_channel`.
    """
    h11, h22 = _complex_gaussians(rng, cfg.mu_h, cfg.sigma_h2, 2)
    return ChannelRealization(h11=h11, h21=0j, h22=h22)


def draw_interference(alpha: float, rng: np.random.Generator) -> complex:
    """Cross gain sqrt(alpha)*e^{j*theta} with theta uniform on [0, 2*pi)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    theta = 2.0 * math.pi * rng.random()  # the value rng.uniform(0, 2*pi) draws
    return math.sqrt(alpha) * cmath.exp(1j * theta)


def draw_zic_channel(cfg: ChannelConfig, alpha: float,
                     rng: np.random.Generator) -> ChannelRealization:
    """Full ZIC realization: random direct gains plus the alpha-driven cross link."""
    ch = draw_channel(cfg, rng)
    return ChannelRealization(ch.h11, draw_interference(alpha, rng), ch.h22)


def normalize_perfect(ch: ChannelRealization, noise_var: float) -> EquivalentChannel:
    """Equivalent model under perfect CSI.

    Tx2 pre-rotates to align the cross-link phase with the direct one and both
    receivers divide by their direct gain, leaving unit direct gains, a real
    cross gain r21/r11 and noise variances noise_var/|hii|^2.
    """
    r11 = abs(ch.h11)
    r22 = abs(ch.h22)
    if r11 == 0.0 or r22 == 0.0:
        raise DegenerateChannelError("direct gain is zero; channel cannot be normalized")
    return EquivalentChannel(
        hbar11=1.0 + 0j,
        hbar21=complex(abs(ch.h21) / r11),
        hbar22=1.0 + 0j,
        noise_var_rx1=noise_var / r11**2,
        noise_var_rx2=noise_var / r22**2,
    )


def _wrap_angle(theta: float) -> float:
    """Wrap to [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def estimate_with_errors(ch: ChannelRealization, eps11: complex, eps21: complex,
                         eps22: complex) -> EstimatedChannel:
    """Deterministic core of :func:`estimate`: hhat_ij = h_ij - eps_ij."""
    hhat11 = ch.h11 - eps11
    hhat21 = ch.h21 - eps21
    hhat22 = ch.h22 - eps22
    r11 = abs(hhat11)
    alpha_hat = (abs(hhat21) / r11) ** 2 if r11 > 0 else math.inf
    theta_hat = _wrap_angle(cmath.phase(hhat11) - cmath.phase(hhat21))
    return EstimatedChannel(hhat11, hhat21, hhat22, eps11, eps21, eps22,
                            alpha_hat, theta_hat)


def estimate(ch: ChannelRealization, cfg: ChannelConfig,
             rng: np.random.Generator) -> EstimatedChannel:
    """Receiver-side channel estimate with CN(0, sigma_e2) additive errors."""
    eps11, eps21, eps22 = _complex_gaussians(rng, 0.0, cfg.sigma_e2, 3)
    return estimate_with_errors(ch, eps11, eps21, eps22)


def accept_channel(est: EstimatedChannel, cfg: ChannelConfig) -> bool:
    """Keep the channel only if no error-to-estimate ratio reaches threshold_t."""
    ratios = (
        abs(est.eps11 / est.hhat11),
        abs(est.eps22 / est.hhat22),
        abs(est.eps21 / est.hhat11),
    )
    return max(ratios) < cfg.threshold_t


def quantize(value: float, n_bits: int, lo: float, hi: float) -> float:
    """Uniform midpoint quantizer over [lo, hi] with 2**n_bits segments.

    Segments are half-open [lo + k*w, lo + (k+1)*w), the last one closed;
    out-of-range inputs clamp to the nearest end segment.  The output is
    always the midpoint of the selected segment.
    """
    n_seg = 1 << n_bits
    w = (hi - lo) / n_seg
    k = int(math.floor((value - lo) / w))
    k = min(max(k, 0), n_seg - 1)
    return lo + (k + 0.5) * w


def make_feedback(est: EstimatedChannel, n_q: int) -> CsiInputs:
    """What each node knows after Rx1 feeds back (alpha_hat, theta_hat) on n_q bits.

    The transmitters and Rx2 see the quantized intensity, Rx1 its own
    estimate plus the residual angle quantized(theta_hat) - theta_hat.
    """
    sa_q = math.sqrt(quantize(est.alpha_hat, n_q, *ALPHA_RANGE))
    theta_q = quantize(est.theta_hat, n_q, *THETA_RANGE)
    return CsiInputs(sa_tx=sa_q, sa_rx1=math.sqrt(est.alpha_hat), sa_rx2=sa_q,
                     theta_delta=theta_q - est.theta_hat)


def normalize_imperfect(est: EstimatedChannel, theta_delta: float,
                        noise_var: float) -> EquivalentChannel:
    """Equivalent model when nodes equalize with estimated gains.

    Direct gains become 1 + eps_ii/hhat_ii, the cross gain
    (rhat21/rhat11)*e^{j*theta_delta} + eps21/hhat11, and noise variances
    scale with the *estimated* direct gains.
    """
    if abs(est.hhat11) == 0.0 or abs(est.hhat22) == 0.0:
        raise DegenerateChannelError("estimated direct gain is zero")
    mag_ratio = abs(est.hhat21) / abs(est.hhat11)
    hbar21 = mag_ratio * cmath.exp(1j * theta_delta) + est.eps21 / est.hhat11
    return EquivalentChannel(
        hbar11=1.0 + est.eps11 / est.hhat11,
        hbar21=hbar21,
        hbar22=1.0 + est.eps22 / est.hhat22,
        noise_var_rx1=noise_var / abs(est.hhat11) ** 2,
        noise_var_rx2=noise_var / abs(est.hhat22) ** 2,
    )


def draw_accepted_estimate(cfg: ChannelConfig, alpha: float,
                           rng: np.random.Generator) -> EstimatedChannel:
    """Rejection-sample channels and their estimates; return the first estimate kept.

    Raises :class:`RejectionLimitError` after ``MAX_ESTIMATE_ATTEMPTS`` tries.
    """
    for _ in range(MAX_ESTIMATE_ATTEMPTS):
        ch = draw_zic_channel(cfg, alpha, rng)
        est = estimate(ch, cfg, rng)
        if abs(est.hhat11) == 0.0 or abs(est.hhat22) == 0.0:
            continue
        if accept_channel(est, cfg):
            return est
    raise RejectionLimitError(
        f"no channel estimate passed the keep rule in {MAX_ESTIMATE_ATTEMPTS} attempts "
        f"(observed acceptance 0/{MAX_ESTIMATE_ATTEMPTS}) at sigma_e2={cfg.sigma_e2!r}, "
        f"threshold_t={cfg.threshold_t!r}, alpha={alpha:g}; "
        "raise threshold_t or lower sigma_e2")


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
    """Everything one channel draw fixes: equivalent gains and node knowledge.

    A context of K draws (:func:`stack_contexts`) holds ``(K,)`` arrays in
    the fields of ``eq`` and ``csi`` that vary between draws.
    """

    eq: EquivalentChannel
    noise_var: float          # nominal sigma_N^2 at this SNR
    alpha: float              # true interference intensity of the draw
    csi: CsiInputs

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


def stack_contexts(contexts: list[ChannelContext]) -> ChannelContext:
    """K single-channel contexts of one grid point as one K-draw context.

    The draws share ``noise_var`` and ``alpha``.  Every field of ``eq``
    becomes a ``(K,)`` array, and so does every field of ``csi`` that
    differs between the draws; a common one stays a scalar.
    """
    first = contexts[0]
    if any(c.noise_var != first.noise_var or c.alpha != first.alpha for c in contexts):
        raise ValueError("stacked contexts must share noise_var and alpha")
    eq = EquivalentChannel(*(np.array([getattr(c.eq, f.name) for c in contexts])
                             for f in fields(EquivalentChannel)))
    csi = {}
    for f in fields(CsiInputs):
        values = [getattr(c.csi, f.name) for c in contexts]
        if any(v != values[0] for v in values):
            csi[f.name] = np.array(values)
    return replace(first, eq=eq, csi=replace(first.csi, **csi))


def channel_context(cfg: ChannelConfig, alpha: float, snr_db: float,
                    rng: np.random.Generator, simulated_residual: bool = False
                    ) -> ChannelContext:
    """Draw one channel at interference intensity ``alpha`` under ``cfg``'s CSI model.

    Perfect CSI: random direct gains that, after normalization, only scale
    the noise.  Imperfect CSI: a rejection-sampled estimated channel with
    N_q-bit feedback of (alpha, theta).  With ``simulated_residual`` (the
    training loop) the residual feedback angle is drawn uniformly from the
    quantizer's half segment +-pi/2**n_q instead of quantizing the estimated
    phase.
    """
    nv = cfg.noise_var(snr_db)
    if cfg.csi_mode == PERFECT:
        ch = draw_channel(cfg, rng)
        sa = math.sqrt(alpha)
        eq = EquivalentChannel(1.0 + 0j, complex(sa), 1.0 + 0j,
                               nv / abs(ch.h11) ** 2, nv / abs(ch.h22) ** 2)
        return ChannelContext(eq, nv, alpha, CsiInputs(sa, sa, sa))
    est = draw_accepted_estimate(cfg, alpha, rng)
    csi = make_feedback(est, cfg.n_q)
    if simulated_residual:
        csi = replace(csi, theta_delta=rng.uniform(-math.pi / 2**cfg.n_q, math.pi / 2**cfg.n_q))
    return ChannelContext(normalize_imperfect(est, csi.theta_delta, nv), nv, alpha, csi)
