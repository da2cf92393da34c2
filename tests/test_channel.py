import cmath
import math
from dataclasses import fields

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
    estimate_with_errors,
    make_feedback,
    normalize_imperfect,
    normalize_perfect,
    quantize,
    stack_contexts,
)


def test_draw_channel_zero_variance_is_exact():
    ch = draw_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.0), np.random.default_rng(0))
    assert ch.h11 == 1.0 + 0j
    assert ch.h22 == 1.0 + 0j
    assert ch.h21 == 0j


def test_draw_channel_sample_mean():
    rng = np.random.default_rng(1)
    n = 100_000
    h = np.array(channel._complex_gaussians(rng, 1.0, 0.1, n))
    tol = 3.0 * math.sqrt(0.1 / n)
    assert abs(h.real.mean() - 1.0) < tol
    assert abs(h.imag.mean()) < tol


def test_draw_channel_second_moment():
    rng = np.random.default_rng(2)
    h = np.array(channel._complex_gaussians(rng, 0.0, 1.0, 100_000))
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02


def test_draw_interference_trivials():
    rng = np.random.default_rng(3)
    assert draw_interference(0.0, rng) == 0j
    assert abs(abs(draw_interference(1.0, rng)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        draw_interference(-0.5, rng)


def test_draw_interference_phase_uniform_ks():
    rng = np.random.default_rng(4)
    n = 100_000
    thetas = np.sort([cmath.phase(draw_interference(2.0, rng)) % (2 * math.pi)
                      for _ in range(n)])
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
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 1.3, np.random.default_rng(5))
    est = estimate(ch, ChannelConfig(sigma_e2=0.0), np.random.default_rng(6))
    assert est.hhat11 == ch.h11 and est.hhat21 == ch.h21 and est.hhat22 == ch.h22
    true_alpha = (abs(ch.h21) / abs(ch.h11)) ** 2
    assert est.alpha_hat == pytest.approx(true_alpha, rel=1e-12)


def test_estimate_error_subtraction():
    ch = ChannelRealization(1.0 + 0j, 0.5 + 0j, 1.0 + 0j)
    est = estimate_with_errors(ch, 0.1 + 0j, 0j, 0j)
    assert est.hhat11 == 0.9 + 0j
    # identity holds for drawn errors too
    rng = np.random.default_rng(7)
    est2 = estimate(ch, ChannelConfig(sigma_e2=0.2), rng)
    assert est2.hhat11 + est2.eps11 == ch.h11
    assert est2.hhat21 + est2.eps21 == ch.h21
    assert est2.hhat22 + est2.eps22 == ch.h22


def test_estimate_error_variance():
    rng = np.random.default_rng(8)
    ch = ChannelRealization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    eps = np.array([estimate(ch, ChannelConfig(sigma_e2=0.1), rng).eps11
                    for _ in range(100_000)])
    assert abs(np.mean(np.abs(eps) ** 2) - 0.1) < 0.002


def test_accept_channel_trivials():
    cfg = ChannelConfig(sigma_e2=0.0, threshold_t=1.0)
    est = estimate_with_errors(ChannelRealization(1 + 0j, 1 + 0j, 1 + 0j), 0j, 0j, 0j)
    assert accept_channel(est, cfg)
    bad = estimate_with_errors(ChannelRealization(1 + 0j, 1 + 0j, 1 + 0j),
                               1.5 * (1 + 0j) / 2.5, 0j, 0j)
    # eps11/hhat11 = 0.6/0.4 = 1.5 > 1
    assert abs(bad.eps11 / bad.hhat11) == pytest.approx(1.5)
    assert not accept_channel(bad, cfg)


def test_accept_channel_matches_recomputed_rule():
    rng = np.random.default_rng(9)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.3, threshold_t=1.0)
    for _ in range(100_000 // 20):  # 5k estimates, each checked both ways
        ch = draw_zic_channel(dist, rng.uniform(0, 3), rng)
        est = estimate(ch, cfg, rng)
        expected = max(abs(est.eps11 / est.hhat11), abs(est.eps22 / est.hhat22),
                       abs(est.eps21 / est.hhat11)) < cfg.threshold_t
        assert accept_channel(est, cfg) == expected


def test_accept_always_true_without_error():
    rng = np.random.default_rng(10)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.0)
    for _ in range(200):
        est = estimate(draw_zic_channel(dist, 1.0, rng), cfg, rng)
        assert accept_channel(est, cfg)


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
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 1.2, np.random.default_rng(13))
    est = estimate(ch, ChannelConfig(sigma_e2=0.05), np.random.default_rng(14))
    csi = make_feedback(est, 28)
    assert abs(csi.theta_delta) < 1e-7
    assert abs(csi.sa_tx**2 - est.alpha_hat) < 1e-6
    assert csi.sa_rx2 == csi.sa_tx and csi.sa_rx1 == math.sqrt(est.alpha_hat)


def test_feedback_midpoint_gives_zero_residual():
    mid = quantize(0.3, 3, *THETA_RANGE)  # a segment midpoint by construction
    est = EstimatedChannel(1 + 0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j,
                           alpha_hat=1.0, theta_hat=mid)
    assert make_feedback(est, 3).theta_delta == 0.0


def test_feedback_residual_bound():
    rng = np.random.default_rng(15)
    dist = ChannelConfig(mu_h=1.0, sigma_h2=0.1)
    cfg = ChannelConfig(sigma_e2=0.1)
    for _ in range(500):
        est = estimate(draw_zic_channel(dist, rng.uniform(0, 3), rng), cfg, rng)
        assert abs(make_feedback(est, 3).theta_delta) <= math.pi / 8 + 1e-12


def test_normalize_imperfect_reduces_to_perfect():
    ch = draw_zic_channel(ChannelConfig(mu_h=1.0, sigma_h2=0.1), 0.8, np.random.default_rng(16))
    est = estimate(ch, ChannelConfig(sigma_e2=0.0), np.random.default_rng(17))
    eq_imp = normalize_imperfect(est, 0.0, 0.1)
    eq_per = normalize_perfect(ch, 0.1)
    assert eq_imp.hbar11 == eq_per.hbar11
    assert eq_imp.hbar22 == eq_per.hbar22
    assert eq_imp.hbar21 == eq_per.hbar21
    assert eq_imp.noise_var_rx1 == eq_per.noise_var_rx1
    assert eq_imp.noise_var_rx2 == eq_per.noise_var_rx2


def test_normalize_imperfect_residual_phase():
    est = EstimatedChannel(1 + 0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j, 1.0, 0.0)
    eq = normalize_imperfect(est, math.pi / 8, 0.1)
    assert abs(eq.hbar21 - cmath.exp(1j * math.pi / 8)) < 1e-15


def test_normalize_imperfect_matches_reevaluation():
    rng = np.random.default_rng(18)
    cfg = ChannelConfig(mu_h=1.0, sigma_h2=0.1, sigma_e2=0.1)
    for _ in range(300):
        est = draw_accepted_estimate(cfg, rng.uniform(0, 3), rng)
        theta_delta = make_feedback(est, 3).theta_delta
        eq = normalize_imperfect(est, theta_delta, 0.1)
        assert abs(eq.hbar11 - (1 + est.eps11 / est.hhat11)) < 1e-12
        assert abs(eq.hbar22 - (1 + est.eps22 / est.hhat22)) < 1e-12
        expected21 = (abs(est.hhat21) / abs(est.hhat11)) * cmath.exp(1j * theta_delta) \
            + est.eps21 / est.hhat11
        assert abs(eq.hbar21 - expected21) < 1e-12
        # accepted channels keep the direct gains near one
        assert abs(eq.hbar11 - 1.0) < cfg.threshold_t
        assert abs(eq.hbar22 - 1.0) < cfg.threshold_t


def test_channel_context_accepts_estimates_far_larger_than_the_channel():
    # with sigma_e2 = 1e18, h - eps + eps rounds far from h; the context is
    # built from the estimate alone, so every draw still gives one
    cfg = ChannelConfig(csi_mode="imperfect", sigma_e2=1e18, threshold_t=2.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ctx = channel_context(cfg, 1.0, 10.0, rng)
        assert abs(ctx.eq.hbar11 - 1.0) < cfg.threshold_t
        assert abs(ctx.eq.hbar22 - 1.0) < cfg.threshold_t


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
    # training streams depend on these values: h11, h22 are one CN draw each
    # from standard_normal(2), theta one rng.uniform(0, 2*pi), eps one CN each
    cfg = ChannelConfig(mu_h=0.9 + 0.2j, sigma_h2=0.2, sigma_e2=0.05)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)

    def cn(mean, var):
        re, im = ref.standard_normal(2)
        return complex(mean) + math.sqrt(var / 2.0) * complex(re, im)

    for _ in range(20):
        ch = draw_zic_channel(cfg, 1.7, rng)
        est = estimate(ch, cfg, rng)
        assert ch.h11 == cn(cfg.mu_h, cfg.sigma_h2) and ch.h22 == cn(cfg.mu_h, cfg.sigma_h2)
        assert ch.h21 == math.sqrt(1.7) * cmath.exp(1j * ref.uniform(0.0, 2.0 * math.pi))
        assert (est.eps11, est.eps21, est.eps22) == tuple(cn(0.0, cfg.sigma_e2) for _ in range(3))


@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
def test_stack_contexts_holds_each_draw(mode):
    cfg = ChannelConfig(csi_mode=mode, sigma_e2=0.05, n_q=2)
    rng = np.random.default_rng(4)
    draws = [channel_context(cfg, 0.8, 10.0, rng) for _ in range(7)]
    ctx = stack_contexts(draws)
    assert ctx.shape == (7,) and (ctx.alpha, ctx.noise_var) == (0.8, draws[0].noise_var)
    for name in ("hbar11", "hbar21", "hbar22", "noise_var_rx1", "noise_var_rx2"):
        assert getattr(ctx.eq, name).tolist() == [getattr(d.eq, name) for d in draws]
    for name in ("sa_tx", "sa_rx1", "sa_rx2", "theta_delta"):
        values = [getattr(d.csi, name) for d in draws]
        stacked = getattr(ctx.csi, name)
        # a value common to every draw stays a scalar
        assert stacked == values[0] if np.ndim(stacked) == 0 else stacked.tolist() == values
    if mode == "perfect":
        assert ctx.csi == draws[0].csi
    block = ctx.block(slice(2, 5))
    assert block.shape == (3, 1)
    assert np.array_equal(block.eq.noise_var_rx1[:, 0], ctx.eq.noise_var_rx1[2:5])
    assert block.noise_var == ctx.noise_var and block.alpha == ctx.alpha
    with pytest.raises(ValueError, match="share"):
        stack_contexts([draws[0], channel_context(cfg, 0.9, 10.0, rng)])


def test_rejection_loop_stops_at_the_attempt_cap(monkeypatch):
    monkeypatch.setattr(channel, "MAX_ESTIMATE_ATTEMPTS", 500)
    cfg = ChannelConfig(mu_h=1.0, sigma_h2=0.1, sigma_e2=2.0, threshold_t=0.05)
    with pytest.raises(RejectionLimitError, match=r"500 attempts.*sigma_e2=2.0.*threshold_t=0.05"):
        draw_accepted_estimate(cfg, 1.0, np.random.default_rng(20))


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
    ctx = channel_context(cfg, 0.81, 10.0, np.random.default_rng(21))
    assert ctx.csi == channel.CsiInputs(0.9, 0.9, 0.9, None)
    assert ctx.eq.hbar21 == 0.9 and ctx.noise_var == pytest.approx(0.1)


def test_channel_context_residual_angle_per_caller():
    cfg = ChannelConfig(csi_mode="imperfect", sigma_e2=0.05, n_q=2)
    half = math.pi / 4
    for seed in range(50):
        trained = channel_context(cfg, 1.0, 10.0, np.random.default_rng(seed),
                                  simulated_residual=True)
        evaluated = channel_context(cfg, 1.0, 10.0, np.random.default_rng(seed))
        assert abs(trained.csi.theta_delta) <= half
        assert abs(evaluated.csi.theta_delta) <= half + 1e-12
        # the channel and the estimate come first in the stream, so both agree on them
        assert trained.csi.sa_rx1 == evaluated.csi.sa_rx1
        assert trained.csi.sa_tx == evaluated.csi.sa_tx == trained.csi.sa_rx2
