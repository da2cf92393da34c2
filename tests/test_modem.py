import cmath
import math

import numpy as np
import pytest

from zicae import modem
from zicae.modem import (
    Constellation,
    best_rotation,
    bits_to_index,
    composite_min_distance,
    composite_points,
    constellation_rows,
    detect_rx1,
    detect_rx2,
    index_to_bits,
    modulate,
    rotate,
    standard_qam,
)


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_bit_index_roundtrip():
    idx = np.arange(8)
    assert np.array_equal(bits_to_index(index_to_bits(idx, 3)), idx)
    assert list(index_to_bits(5, 3)) == [1, 0, 1]


def test_qpsk_points():
    c = standard_qam(2, 1.0)
    assert len(c.points) == 4
    assert np.allclose(np.abs(c.points), 1.0)
    mags = np.sort(np.abs(np.concatenate([c.points.real, c.points.imag])))
    assert np.allclose(mags, 1 / math.sqrt(2))
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_8qam_grid_normalization():
    c = standard_qam(3, 1.0)
    assert len(c.points) == 8
    # 4x2 grid with raw levels {+-1, +-3} x {+-1} has mean square 6
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    i_levels = np.unique(np.round(c.points.real, 12))
    q_levels = np.unique(np.round(c.points.imag, 12))
    assert len(i_levels) == 4 and len(q_levels) == 2
    assert np.allclose(i_levels, np.array([-3, -1, 1, 3]) / math.sqrt(6))


@pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
def test_gray_adjacency(n_bits):
    c = standard_qam(n_bits, 1.0)
    pts = c.points
    dists = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dists, np.inf)
    step = dists.min()
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i < j and abs(dists[i, j] - step) < 1e-9:
                assert bin(i ^ j).count("1") == 1, f"labels {i},{j} differ in >1 bit"


def test_rotate_trivials():
    c = standard_qam(2, 1.0)
    same = rotate(c, 0.0)
    assert np.array_equal(same.points, c.points)
    quarter = rotate(c, math.pi / 2)
    assert np.allclose(np.sort_complex(quarter.points), np.sort_complex(c.points))
    any_rot = rotate(c, 0.7331)
    assert np.mean(np.abs(any_rot.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_best_rotation_no_interference_tie_breaks_to_zero():
    c = standard_qam(2, 1.0)
    assert best_rotation(c, c, 0.0, 90) == 0.0


def test_best_rotation_qpsk_alpha_one():
    c = standard_qam(2, 1.0)
    theta = best_rotation(c, c, 1.0, 90)
    assert 0.0 < theta < math.pi / 2
    assert composite_min_distance(c, c, 1.0) == 0.0
    assert composite_min_distance(c, c, cmath.exp(1j * theta)) > 0.0
    # argmax definition
    for sa in (0.3, 1.0, 2.5):
        t = best_rotation(c, c, sa, 45)
        obj_star = composite_min_distance(c, c, sa * cmath.exp(1j * t))
        obj_zero = composite_min_distance(c, c, sa)
        assert obj_star >= obj_zero - 1e-15


def test_best_rotation_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    c1 = standard_qam(2, 1.0)
    c2 = standard_qam(2, 1.0)
    perm = rng.permutation(4)
    c2_shuffled = Constellation(c2.points[perm], 2, c2.avg_power)
    assert best_rotation(c1, c2, 0.8, 60) == best_rotation(c1, c2_shuffled, 0.8, 60)
    perm1 = rng.permutation(4)
    c1_shuffled = Constellation(c1.points[perm1], 2, c1.avg_power)
    assert best_rotation(c1, c2, 0.8, 60) == best_rotation(c1_shuffled, c2, 0.8, 60)


def test_detect_rx1_exact_hit():
    c1 = standard_qam(2, 1.0)
    c2 = rotate(standard_qam(2, 1.0), 0.4)
    cross = 0.7 * cmath.exp(0.2j)
    for i1 in range(4):
        for i2 in range(4):
            y = c1.points[i1] + cross * c2.points[i2]
            bits = detect_rx1(y, c1, c2, cross)[0]
            assert bits_to_index(bits) == i1


def test_detect_rx1_degenerate_origin_tie_break():
    c = standard_qam(2, 1.0)
    comp = composite_points(c, c, 1.0)
    zero_pairs = np.flatnonzero(np.abs(comp) == 0.0)
    assert len(zero_pairs) == 4  # 4 (x1, x2) hypotheses collapse onto the origin
    bits = detect_rx1(0j, c, c, 1.0)[0]
    assert bits_to_index(bits) == zero_pairs[0] // 4  # lowest composite index wins


def test_detect_rx2_trivials():
    c = standard_qam(2, 1.0)
    for i in range(4):
        assert bits_to_index(detect_rx2(c.points[i], c)[0]) == i
    # equidistant point resolves to the lowest index
    y = (c.points[0] + c.points[1]) / 2.0
    assert bits_to_index(detect_rx2(y, c)[0]) == min(0, 1)


def test_detect_rx1_reduces_to_rx2_without_interference():
    c = standard_qam(2, 1.0)
    rng = np.random.default_rng(1)
    y = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.array_equal(detect_rx1(y, c, c, 0j), detect_rx2(y, c))


def test_detect_rx2_rotation_invariance():
    c = standard_qam(3, 1.0)
    rng = np.random.default_rng(2)
    y = rng.normal(size=500) + 1j * rng.normal(size=500)
    theta = 0.61
    ref = detect_rx2(y, c)
    rotated = detect_rx2(y * cmath.exp(1j * theta), rotate(c, theta))
    assert np.array_equal(ref, rotated)


def _awgn_ber(c, snr_db, n, seed):
    rng = np.random.default_rng(seed)
    noise_var = 1.0 / 10 ** (snr_db / 10.0)
    bits = rng.integers(0, 2, size=(n, c.n_bits))
    x = modulate(c, bits)
    scale = math.sqrt(noise_var / 2)
    y = x + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    hat = detect_rx2(y, c)
    return np.sum(hat != bits), n * c.n_bits


def test_qpsk_awgn_matches_analytic():
    c = standard_qam(2, 1.0)
    errors, bits = _awgn_ber(c, 10.0, 400_000, seed=3)
    ber = errors / bits
    expected = qfunc(math.sqrt(10.0))
    stderr = math.sqrt(expected * (1 - expected) / bits)
    assert errors >= 100
    assert abs(ber - expected) < 3 * stderr


def test_constellation_rows_format():
    rows = constellation_rows(standard_qam(2, 1.0))
    assert len(rows) == 4
    assert rows[0][0] == "00" and rows[3][0] == "11"
    assert all(isinstance(r[1], float) and isinstance(r[2], float) for r in rows)


def _argmin_reference(y, c1, c2, cross):
    """The full distance matrix with argmin: the lowest index wins exact ties."""
    comp = (c1.points[:, None] + cross * c2.points[None, :]).ravel()
    idx = np.argmin(np.abs(y[:, None] - comp[None, :]), axis=1)
    return index_to_bits(idx // c2.size, c1.n_bits), index_to_bits(
        np.argmin(np.abs(y[:, None] - c2.points[None, :]), axis=1), c2.n_bits)


def test_per_draw_detection_equals_one_draw_at_a_time():
    c1 = standard_qam(2, 1.0)
    rng = np.random.default_rng(4)
    thetas = [0.0, 0.0, 0.3, 1.1]
    crosses = np.array([1.0, 0.0, 0.8 * cmath.exp(0.25j), 1.4 * cmath.exp(-0.6j)])
    c2 = Constellation(np.stack([rotate(c1, t).points for t in thetas]), 2, 1.0)
    n = 64
    y = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    # exact ties: noiseless composite points (draw 0 has alpha 1 and no
    # rotation, so pairs coincide), the origin, and equidistant midpoints
    y[:, :16] = (c1.points[:, None] + crosses[:, None, None] * c2.points[:, None, :]
                 ).reshape(4, 16)
    y[:, 16] = 0.0
    y[:, 17] = (c1.points[0] + c1.points[1]) / 2.0
    columns = Constellation(c2.points[:, None, :], 2, 1.0)
    hat1 = detect_rx1(y, c1, columns, crosses[:, None])
    hat2 = detect_rx2(y, columns)
    assert hat1.shape == hat2.shape == (4, n, 2)
    for d in range(4):
        one = Constellation(c2.points[d], 2, 1.0)
        assert np.array_equal(hat1[d], detect_rx1(y[d], c1, one, crosses[d]))
        assert np.array_equal(hat2[d], detect_rx2(y[d], one))
        ref1, ref2 = _argmin_reference(y[d], c1, one, crosses[d])
        assert np.array_equal(hat1[d], ref1) and np.array_equal(hat2[d], ref2)


def test_modulate_per_draw_constellation():
    c = standard_qam(2, 1.0)
    per_draw = Constellation(np.stack([c.points, -c.points, 1j * c.points])[:, None, :], 2, 1.0)
    bits = np.random.default_rng(5).integers(0, 2, size=(3, 10, 2))
    x = modulate(per_draw, bits)
    assert x.shape == (3, 10)
    for d, scale in enumerate((1, -1, 1j)):
        assert np.array_equal(x[d], scale * modulate(c, bits[d]))


@pytest.mark.parametrize("c1_per_draw", [False, True], ids=["common-c1", "rotated-c1-per-draw"])
@pytest.mark.parametrize("n_bits", [2, 3, 4])
def test_sliced_detection_equals_the_full_search(n_bits, c1_per_draw):
    rng = np.random.default_rng(20 + n_bits)
    k, m = 6, 1 << n_bits
    thetas = np.concatenate([[0.0, 0.0], rng.uniform(0.0, np.pi / 2, k - 2)])
    crosses = np.concatenate([[1.0, 0.0], rng.uniform(0.2, 2.0, k - 2)
                              * np.exp(1j * rng.uniform(-np.pi, np.pi, k - 2))])
    c1 = standard_qam(n_bits, 1.0)
    points1 = np.stack([rotate(c1, t / 3).points * 1.2 for t in thetas]) if c1_per_draw else (
        np.broadcast_to(c1.points, (k, m)))
    points2 = np.stack([rotate(standard_qam(n_bits, 0.7), t).points for t in thetas])
    y = rng.normal(size=(k, 3 * m * m + 300)) + 1j * rng.normal(size=(k, 3 * m * m + 300))
    # exact ties: noiseless composite points (draw 0 has alpha 1 and no
    # rotation, so pairs coincide), the origin, and the midpoints between
    # any two points of either alphabet
    y[:, :m * m] = (points1[:, :, None] + crosses[:, None, None] * points2[:, None, :]
                    ).reshape(k, -1)
    y[:, m * m] = 0.0
    y[:, m * m + 1:2 * m * m + 1] = ((points1[:, :, None] + points1[:, None, :]) / 2).reshape(k, -1)
    y[:, 2 * m * m + 1:3 * m * m + 1] = ((points2[:, :, None] + points2[:, None, :]) / 2
                                         ).reshape(k, -1)
    c1s = Constellation(points1[:, None, :], n_bits, 1.0) if c1_per_draw else c1
    c2s = Constellation(points2[:, None, :], n_bits, 0.7)
    hat1 = detect_rx1(y, c1s, c2s, crosses[:, None])
    hat2 = detect_rx2(y, c2s)
    for d in range(k):
        ref1, ref2 = _argmin_reference(y[d], Constellation(points1[d], n_bits, 1.0),
                                       Constellation(points2[d], n_bits, 0.7), crosses[d])
        assert np.array_equal(hat1[d], ref1) and np.array_equal(hat2[d], ref2)
    # the noisy samples are sliced, not searched
    assert not modem._slice(y[:, 3 * m * m + 1:], c2s)[2].any()


def test_detectors_refuse_alphabets_off_the_qam_grid():
    c = standard_qam(2, 1.0)
    y = np.zeros(3, dtype=complex)
    other = Constellation(np.array([1.0, 1j, -1.0, -0.5j]), 2, 1.0)
    with pytest.raises(ValueError, match="Gray QAM grid"):
        detect_rx2(y, other)
    relabeled = Constellation(c.points[[1, 0, 2, 3]], 2, 1.0)  # a grid, but not Gray-mapped
    with pytest.raises(ValueError, match="Gray QAM grid"):
        detect_rx1(y, relabeled, c, 0.5)
