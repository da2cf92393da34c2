import math

import numpy as np
import pytest

from zicae.autoencoder import TrainConfig, ZicAutoencoder
from zicae.bersim import (
    Baseline1,
    Baseline2,
    BerPoint,
    BerResult,
    DaeScheme,
    EvalConfig,
    compare_reduction,
    evaluate_point,
    ideal_context,
    result_to_csv,
    run_point,
    sweep,
)
from zicae.channel import ChannelConfig, ChannelContext, CsiInputs, EquivalentChannel


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _noiseless_context(alpha):
    sa = math.sqrt(alpha)
    eq = EquivalentChannel(1 + 0j, complex(sa), 1 + 0j, sa, 0.0, 0.0)
    return ChannelContext(eq=eq, noise_var=1e-9, alpha=alpha, csi=CsiInputs(sa, sa, sa))


def test_noiseless_no_interference_is_error_free():
    scheme = Baseline1(2)
    err1, err2, bits = run_point(scheme, _noiseless_context(0.0), 5000,
                                 np.random.default_rng(0))
    assert err1 == 0 and err2 == 0 and bits == 10000


def test_awgn_point_matches_analytic_qpsk():
    scheme = Baseline1(2)
    ctx = ideal_context(0.0, 10.0)
    err1, err2, bits = run_point(scheme, ctx, 200_000, np.random.default_rng(1))
    expected = qfunc(math.sqrt(10.0))
    stderr = math.sqrt(expected * (1 - expected) / bits)
    assert err1 >= 100
    for err in (err1, err2):
        assert abs(err / bits - expected) < 3 * stderr


def test_baseline2_monotone_in_snr():
    cfg = EvalConfig(snr_grid_db=(4.0, 8.0, 12.0), alpha_grid=(1.0,),
                     n_channel_draws=2, n_symbols_per_point=30_000, seed=5,
                     sigma_h2=0.0)
    result = sweep(cfg, Baseline2(2))
    bers = [p.ber_worst for p in result.points]
    ns = [p.n_bits_simulated for p in result.points]
    for (b_lo, n_lo), (b_hi, n_hi) in zip(zip(bers, ns), list(zip(bers, ns))[1:]):
        se = math.sqrt(b_lo * (1 - b_lo) / n_lo + b_hi * (1 - b_hi) / n_hi)
        assert b_hi <= b_lo + 2 * se


def test_stderr_scales_inverse_sqrt():
    a = BerPoint("x", 10.0, 1.0, 0.01, 0.002, 0.01, 100_000, 1000)
    b = BerPoint("x", 10.0, 1.0, 0.01, 0.002, 0.01, 200_000, 2000)
    assert a.stderr == pytest.approx(math.sqrt(0.01 * 0.99 / 100_000))
    assert b.stderr == pytest.approx(a.stderr / math.sqrt(2.0))


def test_sweep_alpha_baseline1_peaks_at_unit_interference():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(0.5, 1.0, 1.5),
                     n_channel_draws=5, n_symbols_per_point=20_000, seed=6)
    result = sweep(cfg, Baseline1(2))
    b = {p.alpha: p.ber_worst for p in result.points}
    assert b[1.0] > b[0.5]
    assert b[1.0] > b[1.5]


def test_baseline2_beats_baseline1_at_unit_interference():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(1.0,), n_channel_draws=3,
                     n_symbols_per_point=40_000, seed=7)
    p1 = sweep(cfg, Baseline1(2)).points[0]
    p2 = sweep(cfg, Baseline2(2)).points[0]
    gap = p1.ber_worst - p2.ber_worst
    assert gap > 3 * math.sqrt(p1.stderr**2 + p2.stderr**2)


def test_baselines_identical_without_interference():
    cfg = EvalConfig(snr_grid_db=(8.0,), alpha_grid=(0.0,), n_channel_draws=2,
                     n_symbols_per_point=10_000, seed=8)
    r1 = sweep(cfg, Baseline1(2)).points[0]
    r2 = sweep(cfg, Baseline2(2)).points[0]
    assert (r1.ber_user1, r1.ber_user2) == (r2.ber_user1, r2.ber_user2)


def test_matched_seeds_reproduce_results():
    cfg = EvalConfig(snr_grid_db=(6.0,), alpha_grid=(0.7,), n_channel_draws=3,
                     n_symbols_per_point=5_000, seed=9, csi_mode="imperfect",
                     sigma_e2=0.05)
    r1 = sweep(cfg, Baseline1(2))
    r2 = sweep(cfg, Baseline1(2))
    assert r1.points == r2.points


def test_adaptive_stopping_reaches_error_floor():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(0.0,), n_channel_draws=2,
                     min_errors=100, max_bits=5_000_000, seed=10, sigma_h2=0.0)
    point = evaluate_point(cfg, Baseline1(2), 0.0, 10.0, 0)
    assert point.n_bit_errors >= 100 or point.n_bits_simulated >= 5_000_000
    assert point.ber_worst == max(point.ber_user1, point.ber_user2)


def test_compare_reduction():
    def mk(vals):
        return BerResult([BerPoint("x", 10.0, a, v, v, v, 1000, int(1000 * v))
                          for a, v in vals])

    a = mk([(0.5, 0.1), (1.0, 0.2)])
    assert compare_reduction(a, a) == 0.0
    b = mk([(0.5, 0.2), (1.0, 0.4)])
    assert compare_reduction(a, b) == pytest.approx(50.0)
    mismatch = mk([(0.7, 0.2)])
    with pytest.raises(ValueError):
        compare_reduction(a, mismatch)


def test_dae_scheme_routing_names_the_gap():
    cfg = TrainConfig(n_channels=0, batch=32, hidden_width=8, subnet2_width=4,
                      alpha_min=0.9, alpha_max=1.1)
    model = ZicAutoencoder(cfg, np.random.default_rng(0))
    scheme = DaeScheme([model])
    assert scheme.route(1.0) is model
    with pytest.raises(LookupError, match=r"alpha=2.5.*\[0.9, 1.1\]"):
        scheme.route(2.5)


def test_dae_scheme_runs_through_channel():
    cfg = TrainConfig(n_channels=0, batch=32, hidden_width=8, subnet2_width=4,
                      alpha_min=0.9, alpha_max=1.1)
    model = ZicAutoencoder(cfg, np.random.default_rng(1))
    scheme = DaeScheme([model])
    err1, err2, bits = run_point(scheme, ideal_context(1.0, 10.0), 2000,
                                 np.random.default_rng(2))
    assert 0 <= err1 <= bits and 0 <= err2 <= bits


def test_imperfect_mode_sweep_runs():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(1.0,), n_channel_draws=5,
                     n_symbols_per_point=2_000, seed=11, csi_mode="imperfect",
                     sigma_e2=0.1, n_q=3)
    point = sweep(cfg, Baseline2(2)).points[0]
    assert 0.0 <= point.ber_worst <= 1.0


def test_imperfect_mode_dae_sweep_runs():
    train_cfg = TrainConfig(n_channels=2, epochs_per_channel=2, batch=64,
                            hidden_width=8, subnet2_width=4, alpha_min=0.5,
                            alpha_max=1.5, csi_mode="imperfect", sigma_e2=0.05,
                            n_q=3, seed=14)
    from zicae.autoencoder import train as train_model
    model, _ = train_model(train_cfg)
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(1.0,), n_channel_draws=3,
                     n_symbols_per_point=1_000, seed=15, csi_mode="imperfect",
                     sigma_e2=0.05, n_q=3)
    point = sweep(cfg, DaeScheme([model])).points[0]
    assert 0.0 <= point.ber_worst <= 1.0
    assert point.n_bits_simulated == 3 * 1_000 * 2


def test_csv_output_shape():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(0.0, 0.5), n_channel_draws=1,
                     n_symbols_per_point=1_000, seed=12)
    text = result_to_csv(sweep(cfg, Baseline1(2)), run_id="cafebabe")
    lines = text.splitlines()
    assert lines[0] == "# run: cafebabe"
    assert lines[1].startswith("scheme,snr_db,alpha")
    assert len(lines) == 2 + 2
    assert text.endswith("\n") and "\r" not in text


def test_noise_var_from_snr():
    assert ChannelConfig().noise_var(10.0) == pytest.approx(0.1)
    assert ChannelConfig(total_power=2.0).noise_var(0.0) == pytest.approx(2.0)


def test_sweep_reproduces_awgn_oracle_at_zero_alpha():
    cfg = EvalConfig(snr_grid_db=(10.0,), alpha_grid=(0.0,), n_channel_draws=2,
                     min_errors=100, max_bits=2_000_000, seed=13, sigma_h2=0.0)
    point = sweep(cfg, Baseline1(2)).points[0]
    expected = qfunc(math.sqrt(10.0))
    se = math.sqrt(expected * (1 - expected) / point.n_bits_simulated)
    assert point.n_bit_errors >= 100
    assert abs(point.ber_worst - expected) < 3 * se
