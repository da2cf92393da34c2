"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints a [PASS] summary line).
"""

import cmath
import math
import time
from dataclasses import fields

import numpy as np
import pytest

from zicae import nn
from zicae.autoencoder import (
    TrainConfig,
    ZicAutoencoder,
    train,
)
from zicae.bersim import (
    Baseline1,
    Baseline2,
    BerPoint,
    BerResult,
    DaeScheme,
    ideal_context,
    run_point,
)
from zicae.channel import (
    THETA_RANGE,
    ChannelConfig,
    ChannelRealization,
    accept_channel,
    draw_zic_channel,
    estimate,
    make_feedback,
    normalize_imperfect,
    normalize_perfect,
    quantize,
)
from zicae.modem import standard_qam
from conftest import DESK_CFG, compare_reduction
from gradcheck import max_relative_gradient_error


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _mc_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def test_c01_gradient_correctness():
    t0 = time.time()
    err = max_relative_gradient_error(seed=0, batch=16, hidden_width=8,
                                      subnet2_width=4, n_res_blocks=2)
    elapsed = time.time() - t0
    assert err < 1e-4, f"max relative gradient error {err:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    print(f"\n[PASS] C1 gradient correctness: max rel err {err:.2e} in {elapsed:.1f}s")


def test_c02_power_constraint():
    cfg = TrainConfig(n_channels=0, batch=128, hidden_width=16, subnet2_width=8,
                      alpha_min=0.5, alpha_max=1.5)
    model = ZicAutoencoder(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        bits = rng.integers(0, 2, size=(128, cfg.n_bits)).astype(float)
        sa = rng.uniform(0.5, 1.5)
        x = model.tx1.forward(bits, sa, training=True)
        worst = max(worst, abs(float(np.mean(np.sum(x * x, axis=1))) - cfg.total_power))
    assert worst < 1e-9, f"batch power deviates by {worst:.2e}"

    pnorm = nn.PowerNorm(cfg.total_power)
    g0 = rng.normal(size=(1000, 2))
    gamma = pnorm.forward(g0)
    norms = np.sum(gamma * gamma, axis=1)
    assert np.max(np.abs(norms - cfg.total_power)) < 1e-12
    print(f"\n[PASS] C2 power constraint: worst batch-power error {worst:.2e}")


def test_c03_awgn_oracle():
    t0 = time.time()
    scheme = Baseline1(2)
    ctx = ideal_context(0.0, 10.0)
    err1, err2, bits = run_point(scheme, ctx, 400_000, np.random.default_rng(3))
    expected = qfunc(math.sqrt(10.0))
    se = _mc_se(expected, bits)
    assert err1 >= 100 and err2 >= 100
    assert abs(err1 / bits - expected) < 3 * se
    assert abs(err2 / bits - expected) < 3 * se
    assert time.time() - t0 < 60.0
    print(f"\n[PASS] C3 AWGN oracle: ber {err1 / bits:.3e} vs Q(sqrt(10)) {expected:.3e}")


def _ambiguity_floor_qpsk_alpha1():
    """Noiseless brute force over all 16 symbol pairs with the lowest-index tie-break."""
    c = standard_qam(2, 1.0)
    comp = [c.points[i1] + c.points[i2] for i1 in range(4) for i2 in range(4)]
    bit_errors = 0
    for i1 in range(4):
        for i2 in range(4):
            y = c.points[i1] + c.points[i2]
            best, best_d = 0, float("inf")
            for k, point in enumerate(comp):
                d = abs(y - point)
                if d < best_d:
                    best, best_d = k, d
            decided = best // 4
            bit_errors += bin(i1 ^ decided).count("1")
    return bit_errors / (16 * 2)


def test_c04_interference_floor_oracle():
    floor = _ambiguity_floor_qpsk_alpha1()
    assert floor > 0.0
    scheme = Baseline1(2)
    ctx = ideal_context(1.0, 40.0)
    err1, _, bits = run_point(scheme, ctx, 200_000, np.random.default_rng(4))
    se = _mc_se(floor, bits)
    assert abs(err1 / bits - floor) < 3 * se, (err1 / bits, floor)
    print(f"\n[PASS] C4 interference floor: MC {err1 / bits:.4f} vs brute force {floor:.4f}")


def test_c05_rotation_gain():
    from zicae.modem import best_rotation, composite_min_distance
    c = standard_qam(2, 1.0)
    assert composite_min_distance(c, c, 1.0) == 0.0  # exact overlap at theta=0
    theta = best_rotation(c, c, 1.0)
    dmin = composite_min_distance(c, c, cmath.exp(1j * theta))
    assert dmin > 0.0

    ctx = ideal_context(1.0, 10.0)
    e1, _, bits = run_point(Baseline1(2), ctx, 200_000, np.random.default_rng(5))
    e2, _, _ = run_point(Baseline2(2), ctx, 200_000, np.random.default_rng(5))
    b1, b2 = e1 / bits, e2 / bits
    gap_se = math.sqrt(_mc_se(b1, bits) ** 2 + _mc_se(b2, bits) ** 2)
    assert b1 - b2 > 3 * gap_se
    print(f"\n[PASS] C5 rotation gain: dmin(theta*)={dmin:.3f}, "
          f"baseline2 {b2:.4f} < baseline1 {b1:.4f}")


def test_c06_dae_beats_baseline1_desk_scale(desk_model):
    ctx = ideal_context(1.0, 10.0)
    n_sym = 200_000
    e1, _, bits = run_point(Baseline1(2), ctx, n_sym, np.random.default_rng(99))
    eb2, _, _ = run_point(Baseline2(2), ctx, n_sym, np.random.default_rng(99))
    ber_b1, ber_b2 = e1 / bits, eb2 / bits

    wins = 0
    beats_b2 = 0
    daes = []
    for seed in range(10):
        t0 = time.time()
        if seed == DESK_CFG.seed:
            model = desk_model
        else:
            cfg = TrainConfig(n_channels=500, epochs_per_channel=10, batch=1000,
                              alpha_min=0.9, alpha_max=1.1, seed=seed)
            model, _ = train(cfg)
        assert time.time() - t0 < 1800.0, "training exceeded the runtime budget"
        d1, d2, _ = run_point(DaeScheme([model]), ctx, n_sym, np.random.default_rng(99))
        ber_dae = max(d1, d2) / bits
        daes.append(ber_dae)
        gap_se = math.sqrt(_mc_se(ber_b1, bits) ** 2 + _mc_se(max(ber_dae, 1e-9), bits) ** 2)
        if ber_b1 - ber_dae > 3 * gap_se:
            wins += 1
        gap_se2 = math.sqrt(_mc_se(ber_b2, bits) ** 2 + _mc_se(max(ber_dae, 1e-9), bits) ** 2)
        if ber_b2 - ber_dae > 3 * gap_se2:
            beats_b2 += 1
    assert wins >= 8, f"only {wins}/10 seeds beat baseline1 ({daes})"
    assert beats_b2 >= 1, f"no seed improved on baseline2 ({daes})"

    # full-scale reference reductions (75.77% vs baseline1, 44.43% vs
    # baseline2 for 2-bit symbols without estimation error) are not
    # desk-reproducible; only the ordering is asserted, the achieved
    # reductions are reported for the record
    def single(name, ber):
        return BerResult([BerPoint(name, 10.0, 1.0, ber, 0.0, ber, bits,
                                   int(round(ber * bits)))])

    median_dae = sorted(daes)[len(daes) // 2]
    red_b1 = compare_reduction(single("dae", median_dae), single("b1", ber_b1))
    red_b2 = compare_reduction(single("dae", median_dae), single("b2", ber_b2))
    assert red_b1 > 0.0 and red_b2 > 0.0
    print(f"\n[PASS] C6 desk-scale ordering: dae worst BER {min(daes):.4f}..{max(daes):.4f} "
          f"vs baseline1 {ber_b1:.4f} ({wins}/10 seeds; {beats_b2}/10 beat "
          f"baseline2 {ber_b2:.4f}); median reductions {red_b1:.1f}%/{red_b2:.1f}%")


def test_c07_model_equivalence():
    rng = np.random.default_rng(6)
    n = 10_000
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.3), rng.uniform(0.0, 3.0, n), rng, n)
    usable = (np.abs(ch.h11) >= 1e-9) & (np.abs(ch.h22) >= 1e-9)
    ch = ChannelRealization(ch.h11[usable], ch.h21[usable], ch.h22[usable])
    checked = len(ch.h11)
    x1, x2, n1, n2 = ((rng.normal(size=checked) + 1j * rng.normal(size=checked)) * scale
                      for scale in (1.0, 1.0, 0.3, 0.3))
    # original chain: Tx2 pre-rotates, receivers divide (Rx2 also
    # compensates the pre-rotation phase)
    pre = np.exp(1j * (np.angle(ch.h11) - np.angle(ch.h21)))
    post2 = np.exp(1j * (np.angle(ch.h21) - np.angle(ch.h11)))
    y1 = (ch.h11 * x1 + ch.h21 * pre * x2 + n1) / ch.h11
    y2 = post2 * (ch.h22 * pre * x2 + n2) / ch.h22
    # equivalent chain with the matched transformed noise samples
    eq = normalize_perfect(ch, 0.09)
    z1 = eq.hbar11 * x1 + eq.hbar21 * x2 + n1 / ch.h11
    z2 = eq.hbar22 * x2 + post2 * n2 / ch.h22
    worst = max(np.abs(z1 - y1).max(), np.abs(z2 - y2).max())
    assert checked > 9_900
    assert worst < 1e-10, f"models disagree by {worst:.2e}"
    print(f"\n[PASS] C7 model equivalence: worst deviation {worst:.2e} over {checked} channels")


def test_c08_imperfect_csi_limits():
    rng = np.random.default_rng(7)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    no_err = ChannelConfig(sigma_e2=0.0)
    ch = draw_zic_channel(dist, rng.uniform(0.0, 3.0, 500), rng, 500)
    est = estimate(ch, no_err, rng)
    csi = make_feedback(est, 30)
    imp = normalize_imperfect(est, csi.theta_delta, 0.1)
    per = normalize_perfect(ch, 0.1)
    worst = max(np.max(np.abs(getattr(imp, f.name) - getattr(per, f.name)))
                for f in fields(imp))
    assert worst < 1e-6, f"zero-error limit deviates by {worst:.2e}"

    def acceptance_rate(seed):
        r = np.random.default_rng(seed)
        cfg = ChannelConfig(sigma_e2=0.1, threshold_t=1.0)
        kept = 0
        n = 10_000  # attempts per batch, ten batches
        for _ in range(10):
            est = estimate(draw_zic_channel(dist, r.uniform(0.0, 3.0, n), r, n), cfg, r)
            kept += np.count_nonzero(accept_channel(est, cfg))
        return kept / (10 * n)

    rate = acceptance_rate(8)
    assert 0.0 < rate < 1.0, f"acceptance rate {rate} not in (0, 1)"
    assert rate == acceptance_rate(8), "acceptance rate is not deterministic per seed"
    print(f"\n[PASS] C8 imperfect-CSI limits: zero-error dev {worst:.1e}, "
          f"acceptance rate {rate:.4f}")


def test_c09_quantizer_properties():
    rng = np.random.default_rng(9)
    n_inputs = 100_000
    values = rng.uniform(-2 * math.pi, 2 * math.pi, size=n_inputs)
    lo, hi = THETA_RANGE
    inside = (lo <= values) & (values <= hi)
    for n_q in range(1, 9):
        w = (hi - lo) / 2**n_q
        out = quantize(values, n_q, lo, hi)
        k = (out - lo) / w - 0.5
        assert (np.abs(k - np.round(k)) < 1e-9).all(), "output is not a segment midpoint"
        assert np.array_equal(quantize(out, n_q, lo, hi), out), "not idempotent"
        assert (np.abs(out - np.clip(values, lo, hi)) <= w / 2 + 1e-12).all()
        # residual bound for in-range angles
        assert (np.abs(out - values)[inside] <= math.pi / 2**n_q + 1e-12).all()
    print("\n[PASS] C9 quantizer: midpoint, idempotence and residual bound for N_q=1..8")


def test_c10_determinism(tmp_path):
    from zicae.cli import main
    cfg_text = ("n_bits = 2\nalpha_min = 0.9\nalpha_max = 1.1\nn_channels = 3\n"
                "epochs_per_channel = 2\nbatch = 64\nhidden_width = 8\n"
                "subnet2_width = 4\nseed = 11\n")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(cfg_text)
    m1, m2 = tmp_path / "m1.zicmodel", tmp_path / "m2.zicmodel"
    assert main(["train", "--config", str(cfg), "--out", str(m1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes(), "model files differ between replays"

    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text("snr_grid_db = 6, 10\nalpha_grid = 0.5, 1\n"
                        "n_channel_draws = 2\nn_symbols_per_point = 2000\nseed = 12\n")
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["eval", "--config", str(eval_cfg), "--scheme", "baseline2",
                 "--out", str(c1)]) == 0
    assert main(["eval", "--config", str(eval_cfg), "--scheme", "baseline2",
                 "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes(), "evaluation CSVs differ between replays"
    print("\n[PASS] C10 determinism: byte-identical model files and CSVs")


def test_c11_ablation_ordering():
    # deeper desk variant: the shortcut effect is architecture-level and only
    # separates clearly from the optimizer noise once the stack is deep enough
    common = dict(n_channels=100, epochs_per_channel=10, batch=1000,
                  alpha_min=0.9, alpha_max=1.1, n_res_blocks=4, seed=0)
    proposed, _ = train(TrainConfig(**common))
    no_short, _ = train(TrainConfig(**common, use_shortcuts=False))

    ctx = ideal_context(1.0, 10.0)
    n_sym = 400_000
    p1, p2, bits = run_point(DaeScheme([proposed]), ctx, n_sym, np.random.default_rng(99))
    e1, e2, _ = run_point(DaeScheme([no_short]), ctx, n_sym, np.random.default_rng(99))
    ber_p = max(p1, p2) / bits
    ber_e = max(e1, e2) / bits
    assert ber_p < ber_e, f"proposed {ber_p:.4f} not below no-shortcut {ber_e:.4f}"
    print(f"\n[PASS] C11 ablation ordering: proposed {ber_p:.4f} < no-shortcut {ber_e:.4f}")
