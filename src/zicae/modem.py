"""Finite-alphabet baseline transceivers: standard and rotated QAM.

Constellations are ordered point lists indexed by the bit pattern read as a
binary number (bits[0] is the MSB); Gray labeling is baked into the point
order.  Detection at the interfered receiver is joint maximum likelihood over
both users' symbols, reporting only the desired user's bits.  Detectors slice
a scaled, rotated :func:`standard_qam` grid per axis (other alphabets raise
ValueError): one slice per Tx2 symbol at Rx1, one at Rx2.  Within 1e-9 of a
decision boundary the full search decides, so exact ties go to the lowest
hypothesis index.

A constellation may hold one alphabet per channel draw: points of shape
``(..., M)`` whose leading axes broadcast against the received samples, for
example ``(B, 1, M)`` against ``(B, n)`` samples of B draws.  Modulation and
detection then use each draw's own alphabet.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Ordered complex alphabet; points[..., i] carries the bits of integer i."""

    points: np.ndarray
    n_bits: int

    def __post_init__(self):
        if self.points.shape[-1] != 1 << self.n_bits:
            raise ValueError("constellation size must be 2**n_bits")

    @property
    def size(self) -> int:
        return self.points.shape[-1]


def index_to_bits(index, n_bits: int) -> np.ndarray:
    """Integer label(s) -> bit rows, MSB first."""
    index = np.asarray(index)
    shifts = np.arange(n_bits - 1, -1, -1)
    return (index[..., None] >> shifts) & 1


def bits_to_index(bits) -> np.ndarray:
    """Bit rows (MSB first) -> integer label(s)."""
    bits = np.asarray(bits, dtype=int)
    index = 0
    for k in range(bits.shape[-1]):
        index = (index << 1) | bits[..., k]
    return index


def _gray_pam_levels(n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced PAM levels and their Gray-coded integer labels."""
    levels = np.arange(-(n_levels - 1), n_levels, 2, dtype=float)
    codes = np.array([g ^ (g >> 1) for g in range(n_levels)])
    return levels, codes


def standard_qam(n_bits: int, power: float = 1.0) -> Constellation:
    """Gray-mapped rectangular QAM normalized to the given average power.

    n_bits=2 gives QPSK on {(+-a, +-a)}; n_bits=3 the 4x2-grid 8-QAM.  Odd
    bit counts put the extra bit(s) on the in-phase axis.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    bits_i = (n_bits + 1) // 2
    bits_q = n_bits - bits_i
    levels_i, gray_i = _gray_pam_levels(1 << bits_i)
    levels_q, gray_q = _gray_pam_levels(1 << bits_q)

    points = np.zeros(1 << n_bits, dtype=complex)
    for ki, gi in enumerate(gray_i):
        for kq, gq in enumerate(gray_q):
            label = (int(gi) << bits_q) | int(gq)
            points[label] = levels_i[ki] + 1j * levels_q[kq]
    norm = np.sqrt(power / np.mean(np.abs(points) ** 2))
    points = points * norm
    return Constellation(points=points, n_bits=n_bits)


def rotate(c: Constellation, theta: float) -> Constellation:
    """Rotate every point by e^{j*theta}; power is unchanged."""
    return Constellation(points=c.points * cmath.exp(1j * theta), n_bits=c.n_bits)


def composite_points(c1: Constellation, c2: Constellation, cross) -> np.ndarray:
    """All p1 + cross*p2 sums, the last axis flattened with index i1*c2.size + i2.

    ``cross`` may be one gain per draw; the leading axes broadcast.
    """
    comp = c1.points[..., :, None] + np.asarray(cross)[..., None, None] * c2.points[..., None, :]
    return comp.reshape(comp.shape[:-2] + (-1,))


# composite points per block of composite_min_distance: a block's differences
# take 64 KB, which the allocator reuses instead of mapping fresh pages each time
BLOCK_POINTS = 64


@functools.cache
def _upper_labels(step: int, m2: int) -> np.ndarray:
    """Mask of a diagonal block's point pairs whose c1 labels satisfy a < b."""
    labels = np.arange(step) // m2
    return labels[:, None] < labels


def composite_min_distance(c1: Constellation, c2: Constellation, cross: complex) -> float:
    """Minimum distance between composite points with different c1 labels.

    The points are compared in blocks of ``BLOCK_POINTS``, or of one c1
    label if that holds more, each pair of labels a < b once.  Up to 3 bits
    per alphabet, all points form one block.
    """
    comp = composite_points(c1, c2, cross)
    step = max(c2.size, min(comp.size, BLOCK_POINTS))
    upper = _upper_labels(step, c2.size)
    best = np.inf
    for i in range(0, comp.size, step):
        rows = comp[i:i + step, None]
        best = min(best, np.abs(rows - comp[i:i + step])[upper].min(initial=np.inf))
        for j in range(i + step, comp.size, step):
            best = min(best, np.abs(rows - comp[j:j + step]).min())
    return float(best)


ROTATION_STEPS = 90  # grid points of the rotation search over [0, pi/2)


def best_rotation(c1: Constellation, c2: Constellation, sqrt_alpha: float) -> float:
    """Interference-aware rotation for the second transmitter.

    Scans theta over a uniform grid of ``ROTATION_STEPS`` angles on [0, pi/2)
    and maximizes the minimum distance between composite points
    p1 + sqrt_alpha*e^{j*theta}*p2 that carry different c1 labels.  Ties
    resolve to the smallest angle.
    """
    best_theta, best_obj = 0.0, -1.0
    for k in range(ROTATION_STEPS):
        theta = k * (np.pi / 2.0) / ROTATION_STEPS
        obj = composite_min_distance(c1, c2, sqrt_alpha * cmath.exp(1j * theta))
        if obj > best_obj:
            best_theta, best_obj = theta, obj
    return best_theta


@functools.cache
def _qam_tables(n_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points, labels by ascending (in-phase, quadrature) level, bits by label."""
    pts = standard_qam(n_bits).points
    return pts, np.lexsort((pts.imag, pts.real)), index_to_bits(np.arange(pts.size), n_bits)


def _slice(y, c: Constellation, shift=0.0):
    """The point of ``c`` nearest to each sample of ``y - shift``, one axis at a time.

    ``c`` must be ``standard_qam(c.n_bits)`` times one complex factor per
    alphabet, else ValueError.  The samples are derotated by its phase
    (unless 0), each axis folded onto its upper half and cut at the
    midpoints between levels.
    Returns the level position (i*L_q + q), squared distance, whether the
    sample lies within 1e-9 of the level spacing of a midpoint (far above
    rounding error), and the half level spacing.
    """
    std, order, _ = _qam_tables(c.n_bits)
    n_q = 1 << (c.n_bits // 2)
    ref = order[c.size // n_q // 2 * n_q + n_q // 2]  # the grid point 1+1j (1 for BPSK)
    factor = c.points[..., ref] / std[ref]
    if not (np.abs(c.points - factor[..., None] * std) < 1e-12 * np.abs(factor)[..., None]).all():
        raise ValueError(f"not a scaled, rotated {c.size}-point Gray QAM grid: {c.points!r}")
    turn, half = np.exp(-1j * np.angle(factor)), np.abs(factor) * std[ref].real
    if (turn != 1).any():
        y, shift = y * turn, shift * turn
    pos = unsure = None  # set by the in-phase axis, which has two levels or more
    errs = []
    for part, n_levels in ((np.real, c.size // n_q), (np.imag, n_q)):
        x = np.ascontiguousarray(part(y)) - part(shift)  # a new array, overwritten below
        if n_levels > 1:  # else the one level is 0
            upper = x > 0
            np.abs(x, out=x)
            near = x < 1e-9 * half
            unsure = near if unsure is None else np.logical_or(unsure, near, out=unsure)
            x -= half
            out = np.int8(0)  # steps out from the innermost level
            for _ in range(n_levels // 2 - 1):
                low, high = x > half * (1 - 1e-9), x > half * (1 + 1e-9)
                np.logical_or(unsure, low != high, out=unsure)
                x -= low * (2 * half)
                out = out + low
            level = (upper.view(np.int8) if n_levels == 2
                     else n_levels // 2 - 1 - out + upper * (2 * out + 1))
            pos = level if pos is None else pos * n_levels + level
        errs.append(np.square(x, out=x))
    errs[0] += errs[1]
    return pos, errs[0], unsure, half


def _full_search(y, points: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Index of the point nearest to each sample at ``where``, the lowest on exact ties."""
    y = np.broadcast_to(y, where.shape)[where]
    points = np.broadcast_to(points, where.shape + points.shape[-1:])[where]
    return np.argmin(np.abs(y[:, None] - points), axis=1)


# bytes of one float64 temporary over a group of Tx2 hypotheses, at most,
# unless one hypothesis alone takes more
GROUP_BYTES = 64 * 1024


def detect_rx1(y, c1: Constellation, c2: Constellation, hbar21) -> np.ndarray:
    """Joint ML detection at the interfered receiver.

    Minimizes |y - p1 - hbar21*p2|^2 over all symbol pairs and returns the
    bits of the winning p1 (the interference hypothesis is discarded).
    ``y`` may be a scalar or an array; ``hbar21`` and the constellations may
    hold one value per draw, broadcasting against ``y``.  The last output
    axis holds the detected bits.  Each of Tx2's symbols is one hypothesis,
    under which ``y - hbar21*p2`` is sliced against ``c1``.  Hypotheses go in
    groups whose temporaries take at most ``GROUP_BYTES`` each; the best
    distance, its level position and the second-best distance carry over
    from group to group.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    cross = np.moveaxis(np.asarray(hbar21)[..., None] * c2.points, -1, 0)  # (M2, ...)
    # contiguous, so that the (M2, ...) temporaries are too and each hypothesis is one block
    cross = np.ascontiguousarray(cross).reshape(
        cross.shape[:1] + (1,) * (y.ndim + 1 - cross.ndim) + cross.shape[1:])
    shape = np.broadcast_shapes(y.shape, cross.shape[1:])  # the samples of one hypothesis
    step = max(1, GROUP_BYTES // (8 * max(1, math.prod(shape))))
    best, second = np.full(shape, np.inf), np.full(shape, np.inf)
    label, unsure = np.zeros(shape, np.int8), np.zeros(shape, bool)  # < 64 level positions
    for first in range(0, c2.size, step):
        pos, dist2, group_unsure, half = _slice(y, c1, cross[first:first + step])
        unsure |= group_unsure.any(axis=0)
        for p, d in zip(pos, dist2):
            np.minimum(second, np.maximum(best, d), out=second)
            label += (d < best) * (p - label)  # faster than np.where or np.copyto
            np.minimum(best, d, out=best)
    unsure |= second <= best + 1e-9 * (best + half * half)  # a second pair as near is unsure
    _, order, bits = _qam_tables(c1.n_bits)
    label = order.take(label)
    if unsure.any():
        label[unsure] = _full_search(y, composite_points(c1, c2, hbar21), unsure) // c2.size
    return bits.take(label, axis=0)


def detect_rx2(y, c2: Constellation) -> np.ndarray:
    """Nearest-neighbor detection against the points of ``c2``, by one slice per sample."""
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    pos, _, unsure, _ = _slice(y, c2)
    _, order, bits = _qam_tables(c2.n_bits)
    label = order.take(pos)
    if unsure.any():
        label[unsure] = _full_search(y, c2.points, unsure)
    return bits.take(label, axis=0)


def modulate(c: Constellation, bits) -> np.ndarray:
    """Bit rows -> symbols of the constellation (of each draw's alphabet, if per draw)."""
    idx = bits_to_index(bits)
    if c.points.ndim == 1:
        return c.points.take(idx)
    lead = c.points.shape[:-1]
    rows = np.arange(np.prod(lead, dtype=int)).reshape(lead) * c.size
    return c.points.reshape(-1).take(rows + idx)


def constellation_rows(c: Constellation) -> list[tuple[str, float, float]]:
    """CSV-friendly (bit-pattern, re, im) rows in label order."""
    rows = []
    for i, p in enumerate(c.points):
        pattern = format(i, f"0{c.n_bits}b")
        rows.append((pattern, float(p.real), float(p.imag)))
    return rows
