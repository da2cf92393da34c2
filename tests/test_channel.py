import cmath
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from zicae import channel
from zicae.autoencoder import TrainConfig
from zicae.bersim import EvalConfig
from zicae.channel import (
    ALPHA_RANGE,
    THETA_RANGE,
    ChannelConfig,
    ChannelRealization,
    DegenerateChannelError,
    EstimatedChannel,
    RejectionLimitError,
    accept_channel,
    apply_channel,
    channel_context,
    draw_accepted_estimate,
    draw_channel,
    draw_interference,
    draw_zic_channel,
    estimate,
    make_feedback,
    normalize_imperfect,
    normalize_perfect,
    quantize,
)


def test_draw_channel_zero_variance_is_exact():
    ch = draw_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.0), np.random.default_rng(0), 3)
    assert (ch.h11 == 1.0 + 0j).all()
    assert (ch.h22 == 1.0 + 0j).all()
    assert (ch.h21 == 0j).all()


def test_draw_channel_sample_mean():
    rng = np.random.default_rng(1)
    n = 100_000
    h = draw_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), rng, n).h11
    tol = 3.0 * math.sqrt(0.1 / n)
    assert abs(h.real.mean() - 1.0) < tol
    assert abs(h.imag.mean()) < tol


def test_draw_channel_second_moment():
    rng = np.random.default_rng(2)
    h = draw_channel(ChannelConfig(mu_h=0j, sigma_h2=1.0), rng, 100_000).h22
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02


def test_draw_interference_trivials():
    rng = np.random.default_rng(3)
    assert (draw_interference(0.0, rng, 5) == 0j).all()
    assert (np.abs(np.abs(draw_interference(1.0, rng, 5)) - 1.0) < 1e-15).all()
    with pytest.raises(ValueError):
        draw_interference(-0.5, rng, 5)


def test_draw_interference_phase_uniform_ks():
    rng = np.random.default_rng(4)
    n = 100_000
    thetas = np.sort(np.angle(draw_interference(2.0, rng, n)) % (2 * math.pi))
    # one-sample KS statistic against U[0, 2pi)
    grid = np.arange(1, n + 1) / n
    cdf = thetas / (2 * math.pi)
    ks = max(np.max(np.abs(grid - cdf)), np.max(np.abs(cdf - (np.arange(n) / n))))
    assert ks < 1.63 / math.sqrt(n)


def test_normalize_perfect_direct_substitution():
    eq = normalize_perfect(ChannelRealization(2.0 + 0j, 1.0 + 0j, 1.0 + 0j), 0.1)
    assert eq.hbar21 == pytest.approx(0.5)
    assert eq.noise_var_rx1 == pytest.approx(0.025)
    assert eq.noise_var_rx2 == pytest.approx(0.1)
    assert eq.hbar11 == 1.0 + 0j and eq.hbar22 == 1.0 + 0j


def test_normalize_perfect_no_interference():
    eq = normalize_perfect(ChannelRealization(1.0 + 0j, 0j, 1.0 + 0j), 0.1)
    assert eq.hbar21 == 0j


def test_normalize_perfect_phases_eliminated():
    h11 = cmath.exp(1j * math.pi / 3)
    h21 = math.sqrt(2) * cmath.exp(1j * math.pi / 7)
    eq = normalize_perfect(ChannelRealization(h11, h21, 1.0 + 0j), 0.1)
    assert abs(eq.hbar21 - math.sqrt(2)) < 1e-12
    assert eq.hbar21.imag == 0.0


def test_normalize_perfect_rejects_zero_gain():
    with pytest.raises(DegenerateChannelError):
        normalize_perfect(ChannelRealization(0j, 0j, 1.0 + 0j), 0.1)


def test_estimate_zero_error_is_exact():
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 1.3, np.random.default_rng(5), 20)
    est = estimate(ch, ChannelConfig(sigma_e2=0.0), np.random.default_rng(6))
    for name in ("11", "21", "22"):
        assert np.array_equal(getattr(est, "hhat" + name), getattr(ch, "h" + name))
    true_alpha = (np.abs(ch.h21) / np.abs(ch.h11)) ** 2
    assert est.alpha_hat == pytest.approx(true_alpha, rel=1e-12)


def test_estimate_error_subtraction():
    ch = ChannelRealization(1.0 + 0j, 0.5 + 0j, 1.0 + 0j)
    est = estimate(ch, ChannelConfig(sigma_e2=0.0), np.random.default_rng(7))
    assert (est.hhat11, est.hhat21, est.hhat22) == (ch.h11, ch.h21, ch.h22)
    # identity holds for drawn errors too
    rng = np.random.default_rng(7)
    est2 = estimate(ch, ChannelConfig(sigma_e2=0.2), rng)
    assert est2.hhat11 + est2.eps11 == ch.h11
    assert est2.hhat21 + est2.eps21 == ch.h21
    assert est2.hhat22 + est2.eps22 == ch.h22


def test_estimate_error_variance():
    rng = np.random.default_rng(8)
    ones = np.ones(100_000, complex)
    eps = estimate(ChannelRealization(ones, ones, ones), ChannelConfig(sigma_e2=0.1), rng).eps11
    assert abs(np.mean(np.abs(eps) ** 2) - 0.1) < 0.002


def test_accept_channel_trivials():
    cfg = ChannelConfig(sigma_e2=0.0, threshold_t=1.0)
    est = EstimatedChannel(1 + 0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j)
    assert accept_channel(est, cfg)
    eps = 1.5 * (1 + 0j) / 2.5
    bad = EstimatedChannel(1 - eps, 1 + 0j, 1 + 0j, eps, 0j, 0j)
    # eps11/hhat11 = 0.6/0.4 = 1.5 > 1
    assert abs(bad.eps11 / bad.hhat11) == pytest.approx(1.5)
    assert not accept_channel(bad, cfg)


def test_accept_channel_matches_recomputed_rule():
    rng = np.random.default_rng(9)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.3, threshold_t=1.0)
    n = 5000  # estimates, each checked both ways
    est = estimate(draw_zic_channel(dist, rng.uniform(0, 3, n), rng, n), cfg, rng)
    expected = [max(abs(e11 / h11), abs(e22 / h22), abs(e21 / h11)) < cfg.threshold_t
                for e11, e21, e22, h11, h22 in zip(*(getattr(est, name).tolist() for name in (
                    "eps11", "eps21", "eps22", "hhat11", "hhat22")))]
    assert 0 < sum(expected) < n
    assert accept_channel(est, cfg).tolist() == expected


def test_accept_always_true_without_error():
    rng = np.random.default_rng(10)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.0)
    est = estimate(draw_zic_channel(dist, 1.0, rng, 200), cfg, rng)
    assert accept_channel(est, cfg).all()


def test_quantize_alpha_example():
    assert quantize(0.5, 3, *ALPHA_RANGE) == pytest.approx(0.5625, abs=1e-15)


def test_quantize_angle_example():
    assert quantize(0.0, 3, *THETA_RANGE) == pytest.approx(math.pi / 8, abs=1e-15)


def test_quantize_fine_resolution_bound():
    rng = np.random.default_rng(11)
    for v in rng.uniform(0, 3, 200):
        assert abs(quantize(v, 30, 0.0, 3.0) - v) <= 3.0 / 2**31 + 1e-15


def test_quantize_idempotent_and_clamps():
    rng = np.random.default_rng(12)
    lo, hi = THETA_RANGE
    for n_bits in range(1, 9):
        w = (hi - lo) / 2**n_bits
        for v in rng.uniform(-5, 5, 2000):
            out = quantize(v, n_bits, lo, hi)
            assert quantize(out, n_bits, lo, hi) == out
            assert lo < out < hi
            k = round((out - lo) / w - 0.5)  # the segment, whose midpoint ``out`` must be
            assert 0 <= k < 2**n_bits
            assert abs(out - (lo + (k + 0.5) * w)) < 1e-12
    assert quantize(99.0, 2, 0.0, 1.0) == quantize(1.0, 2, 0.0, 1.0)
    assert quantize(-99.0, 2, 0.0, 1.0) == quantize(0.0, 2, 0.0, 1.0)


def test_feedback_fine_quantizer_limit():
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 1.2, np.random.default_rng(13), 50)
    est = estimate(ch, ChannelConfig(sigma_e2=0.05), np.random.default_rng(14))
    csi = make_feedback(est, 28)
    assert (np.abs(csi.theta_delta) < 1e-7).all()
    inside = est.alpha_hat < ALPHA_RANGE[1]  # above, the quantizer clamps
    assert inside.sum() > 40
    assert (np.abs(csi.sa_tx**2 - est.alpha_hat)[inside] < 1e-6).all()
    assert np.array_equal(csi.sa_rx2, csi.sa_tx)
    assert np.array_equal(csi.sa_rx1, np.sqrt(est.alpha_hat))


def test_feedback_midpoint_gives_zero_residual():
    mid = quantize(0.3, 3, *THETA_RANGE)  # a segment midpoint by construction
    est = SimpleNamespace(alpha_hat=1.0, theta_hat=mid)  # the two fields make_feedback reads
    assert make_feedback(est, 3).theta_delta == 0.0


def test_feedback_residual_bound():
    rng = np.random.default_rng(15)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.1)
    est = estimate(draw_zic_channel(dist, rng.uniform(0, 3, 500), rng, 500), cfg, rng)
    assert (np.abs(make_feedback(est, 3).theta_delta) <= math.pi / 8 + 1e-12).all()


def test_normalize_imperfect_reduces_to_perfect():
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 0.8, np.random.default_rng(16), 20)
    est = estimate(ch, ChannelConfig(sigma_e2=0.0), np.random.default_rng(17))
    eq_imp = normalize_imperfect(est, 0.0, 0.1)
    eq_per = normalize_perfect(ch, 0.1)
    for f in fields(eq_imp):
        assert (getattr(eq_imp, f.name) == getattr(eq_per, f.name)).all(), f.name


def test_normalize_imperfect_residual_phase():
    est = EstimatedChannel(1 + 0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j)
    eq = normalize_imperfect(est, math.pi / 8, 0.1)
    assert abs(eq.hbar21 - cmath.exp(1j * math.pi / 8)) < 1e-15


def test_normalize_imperfect_matches_reevaluation():
    rng = np.random.default_rng(18)
    cfg = ChannelConfig(mu_h=1.0, sigma_h2=0.1, sigma_e2=0.1)
    for alpha in rng.uniform(0, 3, 3):
        est, _ = draw_accepted_estimate(cfg, alpha, rng, 100)
        theta_delta = make_feedback(est, 3).theta_delta
        eq = normalize_imperfect(est, theta_delta, 0.1)
        assert (np.abs(eq.hbar11 - (1 + est.eps11 / est.hhat11)) < 1e-12).all()
        assert (np.abs(eq.hbar22 - (1 + est.eps22 / est.hhat22)) < 1e-12).all()
        expected21 = (np.abs(est.hhat21) / np.abs(est.hhat11)) * np.exp(1j * theta_delta) \
            + est.eps21 / est.hhat11
        assert (np.abs(eq.hbar21 - expected21) < 1e-12).all()
        # accepted channels keep the direct gains near one
        assert (np.abs(eq.hbar11 - 1.0) < cfg.threshold_t).all()
        assert (np.abs(eq.hbar22 - 1.0) < cfg.threshold_t).all()


def test_channel_context_accepts_estimates_far_larger_than_the_channel():
    # with sigma_e2 = 1e18, h - eps + eps rounds far from h; the context is
    # built from the estimate alone, so every draw still gives one
    cfg = ChannelConfig(csi_mode="imperfect", sigma_e2=1e18, threshold_t=2.0)
    ctx = channel_context(cfg, 1.0, 10.0, np.random.default_rng(0), 200)
    assert ctx.shape == (200,)
    assert (np.abs(ctx.eq.hbar11 - 1.0) < cfg.threshold_t).all()
    assert (np.abs(ctx.eq.hbar22 - 1.0) < cfg.threshold_t).all()


def test_apply_channel_noiseless():
    eqa = normalize_perfect(ChannelRealization(1 + 0j, 0j, 1 + 0j), 0.0)
    y1, y2 = apply_channel(eqa, 1 + 1j, 2 - 1j, rng=None)
    assert y1 == 1 + 1j and y2 == 2 - 1j
    eqb = normalize_perfect(ChannelRealization(1 + 0j, 1 + 0j, 1 + 0j), 0.0)
    y1, y2 = apply_channel(eqb, 1.0, 1j, rng=None)
    assert y1 == 1 + 1j


def test_apply_channel_noise_variance():
    eq = normalize_perfect(ChannelRealization(1 + 0j, 0j, 1 + 0j), 0.1)
    rng = np.random.default_rng(19)
    x = np.zeros(1_000_000, dtype=complex)
    _, y2 = apply_channel(eq, x, x, rng)
    assert abs(np.mean(np.abs(y2) ** 2) - 0.1) < 0.001


def test_scalar_draws_follow_the_per_value_stream():
    # training streams depend on these values: in a block of one attempt h11, h22
    # are one CN draw each from standard_normal(2), theta one rng.uniform(0, 2*pi),
    # eps one CN each
    cfg = ChannelConfig(mu_h=0.9 + 0.2j, sigma_h2=0.2, sigma_e2=0.05)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)

    def cn(mean, var):
        re, im = ref.standard_normal(2)
        return complex(mean) + math.sqrt(var / 2.0) * complex(re, im)

    for _ in range(20):
        ch = draw_zic_channel(cfg, 1.7, rng, 1)
        est = estimate(ch, cfg, rng)
        assert ch.h11[0] == cn(cfg.mu_h, cfg.sigma_h2) and ch.h22[0] == cn(cfg.mu_h, cfg.sigma_h2)
        assert ch.h21[0] == math.sqrt(1.7) * cmath.exp(1j * ref.uniform(0.0, 2.0 * math.pi))
        assert (est.eps11[0], est.eps21[0], est.eps22[0]) == tuple(
            cn(0.0, cfg.sigma_e2) for _ in range(3))


def _reference_quantize(value, n_bits, lo, hi):
    n_seg = 1 << n_bits
    w = (hi - lo) / n_seg
    return lo + (min(max(int(math.floor((value - lo) / w)), 0), n_seg - 1) + 0.5) * w


def _reference_context(cfg, alpha, snr_db, rng, k, simulated_residual=False):
    """What ``channel_context`` draws, replayed one attempt at a time in Python scalars.

    Reads the drawer's stream: blocks of as many attempts as draws are still
    missing, each block's direct gains (k x 4 normals), angles (k uniforms),
    then errors (k x 6 normals).  Python's abs, complex division, x**2 and
    cmath.exp give what the drawer's arrays hold; only the phases use
    np.arctan2, as the drawer does (cmath.phase differs in the last bit).
    Returns the (K,) values of every field of ``eq`` and ``csi``, and the
    attempts made.
    """
    def cn(mean, var, re, im):
        return mean + math.sqrt(var / 2.0) * complex(re, im)

    nv = cfg.noise_var(snr_db)
    if cfg.csi_mode == "perfect":
        sa = math.sqrt(alpha)
        gains = [(cn(cfg.mu_h, cfg.sigma_h2, *z[:2]), cn(cfg.mu_h, cfg.sigma_h2, *z[2:]))
                 for z in rng.standard_normal((k, 4)).tolist()]
        eq = [(1 + 0j, complex(sa), 1 + 0j, nv / abs(h11) ** 2, nv / abs(h22) ** 2)
              for h11, h22 in gains]
        return eq, [(sa, sa, sa, None)] * k, k
    kept, attempts = [], 0
    while len(kept) < k:
        n = k - len(kept)
        blocks = (rng.standard_normal((n, 4)).tolist(), rng.random(n).tolist(),
                  rng.standard_normal((n, 6)).tolist())
        for z, u, e in zip(*blocks):
            attempts += 1
            h11, h22 = cn(cfg.mu_h, cfg.sigma_h2, *z[:2]), cn(cfg.mu_h, cfg.sigma_h2, *z[2:])
            h21 = math.sqrt(alpha) * cmath.exp(1j * (2.0 * math.pi * u))
            e11, e21, e22 = (cn(0.0, cfg.sigma_e2, *e[i:i + 2]) for i in (0, 2, 4))
            hh11, hh21, hh22 = h11 - e11, h21 - e21, h22 - e22
            if abs(hh11) == 0 or abs(hh22) == 0:
                continue
            if max(abs(e11 / hh11), abs(e22 / hh22), abs(e21 / hh11)) < cfg.threshold_t:
                kept.append((hh11, hh21, hh22, e11, e21, e22))
    half = math.pi / 2**cfg.n_q
    residuals = rng.uniform(-half, half, k).tolist() if simulated_residual else [None] * k
    eq, csi = [], []
    for (hh11, hh21, hh22, e11, e21, e22), residual in zip(kept, residuals):
        alpha_hat = (abs(hh21) / abs(hh11)) ** 2
        phase = float(np.arctan2(hh11.imag, hh11.real) - np.arctan2(hh21.imag, hh21.real))
        theta_hat = (phase + math.pi) % (2.0 * math.pi) - math.pi
        sa_q = math.sqrt(_reference_quantize(alpha_hat, cfg.n_q, *ALPHA_RANGE))
        theta_delta = _reference_quantize(theta_hat, cfg.n_q, *THETA_RANGE) - theta_hat
        if residual is not None:
            theta_delta = residual
        csi.append((sa_q, math.sqrt(alpha_hat), sa_q, theta_delta))
        eq.append((1.0 + e11 / hh11,
                   abs(hh21) / abs(hh11) * cmath.exp(1j * theta_delta) + e21 / hh11,
                   1.0 + e22 / hh22, nv / abs(hh11) ** 2, nv / abs(hh22) ** 2))
    return eq, csi, attempts


_DRAWN = ChannelConfig(mu_h=0.9 + 0.2j, sigma_h2=0.2, sigma_e2=0.05, threshold_t=0.3, n_q=2)


@pytest.mark.parametrize("simulated_residual", [False, True], ids=["quantized", "simulated"])
@pytest.mark.parametrize("k", [1, 37])
@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
def test_drawer_equals_the_scalar_reference(mode, k, simulated_residual):
    cfg = replace(_DRAWN, csi_mode=mode)
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    for alpha in (0.0, 0.8, 2.5):
        ctx = channel_context(cfg, alpha, 10.0, rng, k, simulated_residual)
        eq, csi, attempts = _reference_context(cfg, alpha, 10.0, ref, k, simulated_residual)
        assert ctx.shape == (k,) and (ctx.alpha, ctx.noise_var) == (alpha, cfg.noise_var(10.0))
        assert ctx.attempts == attempts >= k
        for i, f in enumerate(fields(ctx.eq)):
            assert np.broadcast_to(getattr(ctx.eq, f.name), (k,)).tolist() == [
                d[i] for d in eq], f.name
        for i, f in enumerate(fields(ctx.csi)):
            value = getattr(ctx.csi, f.name)
            assert (value if np.ndim(value) == 0 else value.tolist()) == (
                csi[0][i] if mode == "perfect" else [d[i] for d in csi]), f.name
    assert rng.random() == ref.random()  # both read the same stream


@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
def test_round_context_blocks_and_draws(mode):
    cfg = replace(_DRAWN, csi_mode=mode)
    ctx = channel_context(cfg, 0.8, 10.0, np.random.default_rng(4), 7)
    assert ctx.shape == (7,)
    block = ctx.block(slice(2, 5))
    assert block.shape == (3, 1)
    assert np.array_equal(block.eq.noise_var_rx1[:, 0], ctx.eq.noise_var_rx1[2:5])
    assert block.noise_var == ctx.noise_var and block.alpha == ctx.alpha
    one = ctx.draw(3)
    assert one.shape == ()
    assert one.eq.noise_var_rx2 == ctx.eq.noise_var_rx2[3]
    assert one.csi.sa_rx1 == np.broadcast_to(ctx.csi.sa_rx1, (7,))[3]


def test_perfect_round_equals_rounds_of_one_draw():
    cfg = replace(_DRAWN, sigma_e2=0.0)
    whole = channel_context(cfg, 0.8, 10.0, np.random.default_rng(9), 37)
    rng = np.random.default_rng(9)
    singles = [channel_context(cfg, 0.8, 10.0, rng, 1) for _ in range(37)]
    for f in fields(whole.eq):
        assert np.broadcast_to(getattr(whole.eq, f.name), (37,)).tolist() == [
            complex(getattr(s.eq, f.name)) if f.name.startswith("hbar")
            else float(getattr(s.eq, f.name)[0]) for s in singles], f.name
    assert all(s.csi == whole.csi for s in singles)


def test_attempt_cap_counts_the_rejections_of_one_draw(monkeypatch):
    # about a quarter of the attempts pass: a round of 100 draws takes some 400
    # attempts, while one draw needs 50 in a row with probability about 6e-7
    monkeypatch.setattr(channel, "MAX_ESTIMATE_ATTEMPTS", 50)
    cfg = ChannelConfig(csi_mode="imperfect", mu_h=1.0, sigma_h2=0.1, sigma_e2=0.1,
                        threshold_t=0.3)
    ctx = channel_context(cfg, 1.0, 10.0, np.random.default_rng(3), 100)
    assert ctx.shape == (100,) and ctx.attempts > 5 * 50


def test_zero_acceptance_stops_at_the_real_attempt_cap():
    assert channel.MAX_ESTIMATE_ATTEMPTS == 100_000
    cfg = ChannelConfig(csi_mode="imperfect", sigma_e2=2.0, threshold_t=1e-9)
    with pytest.raises(RejectionLimitError, match=r"in 100000 attempts \(observed acceptance "
                                                  r"0/100000\)"):
        channel_context(cfg, 1.0, 10.0, np.random.default_rng(0), 1000)


def test_rejection_loop_stops_at_the_attempt_cap(monkeypatch):
    monkeypatch.setattr(channel, "MAX_ESTIMATE_ATTEMPTS", 500)
    cfg = ChannelConfig(mu_h=1.0, sigma_h2=0.1, sigma_e2=2.0, threshold_t=0.05)
    with pytest.raises(RejectionLimitError, match=r"500 attempts.*sigma_e2=2.0.*threshold_t=0.05"):
        draw_accepted_estimate(cfg, 1.0, np.random.default_rng(20), 1)


@pytest.mark.parametrize("cls", [TrainConfig, EvalConfig])
@pytest.mark.parametrize("key,value", [
    ("n_bits", 0), ("total_power", 0.0), ("sigma_h2", -0.1), ("n_q", 0),
    ("sigma_e2", -0.01), ("threshold_t", 0.0), ("csi_mode", "psychic"),
])
def test_channel_config_rejects_bad_values(cls, key, value):
    with pytest.raises(ValueError, match=key):
        cls(**{key: value})


@pytest.mark.parametrize("cls", [TrainConfig, EvalConfig])
def test_every_config_field_declares_a_rule(cls):
    toggles = {f.name for f in fields(cls) if isinstance(f.default, bool)}
    assert {f.name for f in fields(cls) if "rule" not in f.metadata} == {"csi_mode", *toggles}
    cls()  # every default keeps its rule


def test_rules_accept_ints_too_large_for_a_float():
    huge = 10**400
    assert TrainConfig(seed=huge, n_channels=huge, batch=huge).seed == huge


def test_config_keys_round_trip():
    train = TrainConfig(n_bits=3, alpha_min=0.25, alpha_max=0.75, seed=7, csi_mode="imperfect",
                        sigma_e2=0.05, mu_h=0.9 - 0.2j, alpha_to_rx=False)
    evals = [EvalConfig(snr_grid_db=(0.0, 12.5), alpha_grid=(0.1,), n_symbols_per_point=300,
                        max_bits=5000, mu_h=1.1 + 0.3j, n_q=4),
             EvalConfig()]
    for cfg in [train, TrainConfig(), *evals]:
        items = cfg.config_items()
        assert len({key for key, _ in items}) == len(items)
        assert type(cfg).from_config(dict(items)) == cfg
    assert ("n_symbols_per_point", "0") in EvalConfig().config_items()
    assert dict(train.config_items())["alpha_to_rx"] == "0"
    assert TrainConfig.from_config({"mu_h_im": "0.5"}).mu_h == 1.0 + 0.5j


def test_config_from_rejects_bad_value_naming_key():
    with pytest.raises(ValueError, match="'use_shortcuts'"):
        TrainConfig.from_config({"use_shortcuts": "maybe"})
    with pytest.raises(ValueError, match="'alpha_grid'"):
        EvalConfig.from_config({"alpha_grid": "1, x"})


def test_channel_context_perfect_knowledge():
    cfg = ChannelConfig(sigma_h2=0.2)
    ctx = channel_context(cfg, 0.81, 10.0, np.random.default_rng(21), 4)
    assert ctx.csi == channel.CsiInputs(0.9, 0.9, 0.9, None)
    assert ctx.eq.hbar21 == 0.9 and ctx.noise_var == pytest.approx(0.1)


def test_channel_context_residual_angle_per_caller():
    cfg = ChannelConfig(csi_mode="imperfect", sigma_e2=0.05, n_q=2)
    half = math.pi / 4
    for k in (1, 50):
        trained = channel_context(cfg, 1.0, 10.0, np.random.default_rng(k), k,
                                  simulated_residual=True)
        evaluated = channel_context(cfg, 1.0, 10.0, np.random.default_rng(k), k)
        assert (np.abs(trained.csi.theta_delta) <= half).all()
        assert (np.abs(evaluated.csi.theta_delta) <= half + 1e-12).all()
        # the channels and the estimates come first in the stream, so both agree on them
        assert np.array_equal(trained.csi.sa_rx1, evaluated.csi.sa_rx1)
        assert np.array_equal(trained.csi.sa_tx, evaluated.csi.sa_tx)
        assert np.array_equal(trained.csi.sa_tx, trained.csi.sa_rx2)
