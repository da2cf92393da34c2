"""Monte Carlo bit-error-rate harness.

A *scheme* (standard QAM, rotated QAM, or a set of trained autoencoders)
turns bit rows into symbols and channel outputs back into bits.  The harness
pushes random bits through :func:`zicae.channel.apply_channel` for a grid of
(SNR, interference intensity) points, averaging over random channel draws,
and reports per-user and worst-case BERs with binomial standard errors.

Random streams are derived per (seed, point, draw, round), so grid points and
draws are independent work units and every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import modem
from .autoencoder import ZicAutoencoder
from .channel import (
    ChannelConfig,
    ChannelContext,
    CsiInputs,
    EquivalentChannel,
    apply_channel,
    channel_context,
    draw_channel,  # noqa: F401 -- module-level binding read by tracing tools
)

_CHUNK = 16384  # symbols per detection block, keeps distance matrices small


@dataclass(frozen=True)
class EvalConfig(ChannelConfig):
    """Grid, averaging, and adaptivity settings for one evaluation run."""

    snr_grid_db: tuple = (10.0,)
    alpha_grid: tuple = (1.0,)
    n_channel_draws: int = 500
    n_symbols_per_point: int | None = None  # None -> adaptive stopping
    min_errors: int = 100
    max_bits: int = 10_000_000

    def __post_init__(self):
        super().__post_init__()
        if not self.snr_grid_db or not self.alpha_grid:
            raise ValueError("grids must be non-empty")
        if self.n_channel_draws < 1 or self.min_errors < 1 or self.max_bits < 1:
            raise ValueError("counts must be positive")


@dataclass(frozen=True)
class BerPoint:
    """One evaluated grid point; worst-case fields drive the comparisons."""

    scheme: str
    snr_db: float
    alpha: float
    ber_user1: float
    ber_user2: float
    ber_worst: float
    n_bits_simulated: int
    n_bit_errors: int

    @property
    def stderr(self) -> float:
        p = self.ber_worst
        return math.sqrt(p * (1.0 - p) / self.n_bits_simulated)


@dataclass
class BerResult:
    points: list[BerPoint] = field(default_factory=list)

    def mean_worst(self) -> float:
        return float(np.mean([p.ber_worst for p in self.points]))

    def grid(self) -> list[tuple[float, float]]:
        return [(p.snr_db, p.alpha) for p in self.points]


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
    eq = EquivalentChannel(1.0 + 0j, complex(sa), 1.0 + 0j, sa, nv, nv)
    return ChannelContext(eq, nv, alpha, CsiInputs(sa, sa, sa))


def draw_context(cfg: EvalConfig, alpha: float, snr_db: float,
                 rng: np.random.Generator) -> ChannelContext:
    """One channel draw of a grid point, with the real feedback quantizer."""
    return channel_context(cfg, alpha, snr_db, rng)


# -- transmission schemes ----------------------------------------------------


class Baseline1:
    """Standard QAM at both transmitters, joint ML detection at Rx1."""

    name = "baseline1"

    def __init__(self, n_bits: int, total_power: float = 1.0):
        self.n_bits = n_bits
        self.c1 = modem.standard_qam(n_bits, total_power)
        self.c2 = modem.standard_qam(n_bits, total_power)

    def _tx2_constellation(self, ctx: ChannelContext) -> modem.Constellation:
        return self.c2

    def transmit(self, bits1, bits2, ctx: ChannelContext):
        c2 = self._tx2_constellation(ctx)
        return modem.modulate(self.c1, bits1), modem.modulate(c2, bits2)

    def detect(self, y1, y2, ctx: ChannelContext):
        c2 = self._tx2_constellation(ctx)
        cross = ctx.csi.sa_rx1 * np.exp(1j * (ctx.csi.theta_delta or 0.0))
        return (modem.detect_rx1(y1, self.c1, c2, cross),
                modem.detect_rx2(y2, c2))


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

    def _tx2_constellation(self, ctx: ChannelContext) -> modem.Constellation:
        return modem.rotate(self.c2, self.rotation_for(ctx.csi.sa_tx))


class DaeScheme:
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

    def transmit(self, bits1, bits2, ctx: ChannelContext):
        model = self.route(ctx.alpha)
        return model.transmit(bits1, bits2, ctx.csi.sa_tx)

    def detect(self, y1, y2, ctx: ChannelContext):
        model = self.route(ctx.alpha)
        return model.receive(y1, y2, ctx.csi, ctx.noise_var)


# -- simulation core ---------------------------------------------------------


def run_point(scheme, ctx: ChannelContext, n_symbols: int,
              rng: np.random.Generator) -> tuple[int, int, int]:
    """Transmit ``n_symbols`` random bit rows per user through one channel.

    Returns (bit errors user 1, bit errors user 2, bits simulated per user).
    """
    n_bits = scheme.n_bits
    err1 = err2 = 0
    done = 0
    while done < n_symbols:
        n = min(_CHUNK, n_symbols - done)
        bits1 = rng.integers(0, 2, size=(n, n_bits))
        bits2 = rng.integers(0, 2, size=(n, n_bits))
        x1, x2 = scheme.transmit(bits1, bits2, ctx)
        y1, y2 = apply_channel(ctx.eq, x1, x2, rng)
        hat1, hat2 = scheme.detect(y1, y2, ctx)
        err1 += int(np.sum(hat1 != bits1))
        err2 += int(np.sum(hat2 != bits2))
        done += n
    return err1, err2, n_symbols * n_bits


def _point_rng(seed: int, point_index: int, draw: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, point_index, draw, rnd])


def evaluate_point(cfg: EvalConfig, scheme, alpha: float, snr_db: float,
                   point_index: int) -> BerPoint:
    """Average one grid point over channel draws, adaptively sized.

    Rounds iterate over all draws with equal per-draw symbol counts; rounds
    repeat until at least ``min_errors`` worst-user errors or ``max_bits``
    bits per user, unless ``n_symbols_per_point`` pins the count per draw.
    """
    err1 = err2 = 0
    bits_done = 0
    rnd = 0
    while True:
        if cfg.n_symbols_per_point is not None:
            chunk = cfg.n_symbols_per_point
        else:
            budget = min(200_000, max(2_000 * cfg.n_channel_draws, 50_000))
            chunk = max(1, budget // (cfg.n_channel_draws * cfg.n_bits))
        for draw in range(cfg.n_channel_draws):
            rng = _point_rng(cfg.seed, point_index, draw, rnd)
            ctx = draw_context(cfg, alpha, snr_db, rng)
            e1, e2, nb = run_point(scheme, ctx, chunk, rng)
            err1 += e1
            err2 += e2
            bits_done += nb
        rnd += 1
        if cfg.n_symbols_per_point is not None:
            break
        if max(err1, err2) >= cfg.min_errors or bits_done >= cfg.max_bits:
            break
    ber1 = err1 / bits_done
    ber2 = err2 / bits_done
    worst = max(ber1, ber2)
    return BerPoint(scheme=scheme.name, snr_db=snr_db, alpha=alpha,
                    ber_user1=ber1, ber_user2=ber2, ber_worst=worst,
                    n_bits_simulated=bits_done, n_bit_errors=max(err1, err2))


def sweep(cfg: EvalConfig, scheme) -> BerResult:
    """Evaluate the full snr x alpha grid."""
    result = BerResult()
    index = 0
    for snr_db in cfg.snr_grid_db:
        for alpha in cfg.alpha_grid:
            result.points.append(evaluate_point(cfg, scheme, alpha, snr_db, index))
            index += 1
    return result


def compare_reduction(result_a: BerResult, result_b: BerResult) -> float:
    """Percentage reduction of mean worst-case BER of ``a`` relative to ``b``."""
    if result_a.grid() != result_b.grid():
        raise ValueError("results cover different grids")
    mean_a = result_a.mean_worst()
    mean_b = result_b.mean_worst()
    if mean_b == 0.0:
        return 0.0
    return 100.0 * (mean_b - mean_a) / mean_b
