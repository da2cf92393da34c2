import math
import tracemalloc

import numpy as np
import pytest

from zicae import autoencoder, bersim
from zicae.autoencoder import TrainConfig, ZicAutoencoder, encode_constellation, train
from zicae.bersim import (
    Baseline1,
    Baseline2,
    BerPoint,
    BerResult,
    DaeScheme,
    EvalConfig,
    draw_context,
    evaluate_point,
    ideal_context,
    result_to_csv,
    run_point,
    sweep,
)
from zicae.channel import (
    ChannelConfig,
    ChannelContext,
    CsiInputs,
    EquivalentChannel,
    channel_context,
)
from zicae.modem import Constellation, detect_rx1, detect_rx2
from conftest import compare_reduction


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _noiseless_context(alpha):
    sa = math.sqrt(alpha)
    eq = EquivalentChannel(1 + 0j, complex(sa), 1 + 0j, 0.0, 0.0)
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
    model, _ = train(train_cfg)
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


# (scheme, alpha, SNR, symbols, seed) of the C3, C4 and C5 run_point calls in
# test_acceptance.py, with the error counts of the per-draw engine they replaced
PINNED_SINGLE_CHANNEL = [
    (Baseline1, 0.0, 10.0, 400_000, 3, (652, 630, 800_000)),
    (Baseline1, 1.0, 40.0, 200_000, 4, (100_183, 0, 400_000)),
    (Baseline1, 1.0, 10.0, 200_000, 5, (99_799, 283, 400_000)),
    (Baseline2, 1.0, 10.0, 200_000, 5, (22_697, 285, 400_000)),
]


@pytest.mark.parametrize("cls,alpha,snr_db,n_symbols,seed,counts", PINNED_SINGLE_CHANNEL,
                         ids=["c3", "c4", "c5-baseline1", "c5-baseline2"])
def test_single_channel_run_point_keeps_its_stream(cls, alpha, snr_db, n_symbols, seed, counts):
    ctx = ideal_context(alpha, snr_db)
    assert run_point(cls(2), ctx, n_symbols, np.random.default_rng(seed)) == counts


def _draws_context(noise_var, cross, theta_delta=None):
    """A hand-built context of len(cross) draws with (K,) array fields."""
    k = len(cross)
    sa = np.abs(cross)
    eq = EquivalentChannel(np.ones(k, complex), np.asarray(cross, complex), np.ones(k, complex),
                           np.asarray(noise_var, float), np.asarray(noise_var, float))
    return ChannelContext(eq, 0.1, 1.0, CsiInputs(sa, sa, sa, theta_delta))


def _recording(cls):
    """A ``cls`` scheme that keeps every detect call's inputs and outputs."""
    class Recording(cls):
        def detect(self, y1, y2, ctx, cons):
            out = super().detect(y1, y2, ctx, cons)
            self.calls.append((y1, y2, ctx, cons, out))
            return out

    scheme = Recording(2)
    scheme.calls = []
    return scheme


@pytest.mark.parametrize("cls", [Baseline1, Baseline2])
@pytest.mark.parametrize("n_symbols", [300, 5000, 20000],
                         ids=["blocks-of-draws", "draw-longer-than-a-block", "chunked-draw"])
def test_block_detection_equals_per_draw_detection(cls, n_symbols):
    # draws 0 and 4 are noiseless, so their samples are exact composite
    # points; with Baseline1, draw 0 (alpha 1, no residual angle) has
    # coinciding composite points, so exact ties occur
    cross = [1.0, 0.6 * np.exp(0.3j), 1.3 * np.exp(-0.2j), 0.2, 0.9]
    theta_delta = np.array([0.0, 0.1, -0.2, 0.05, 0.0])
    ctx = _draws_context([0.0, 0.05, 0.2, 0.01, 0.0], cross, theta_delta)
    scheme = _recording(cls)
    e1, e2, bits = run_point(scheme, ctx, 5 * n_symbols, np.random.default_rng(8))
    assert bits == 5 * n_symbols * 2
    rows = 0
    for y1, y2, block, (c1, c2), (hat1, hat2) in scheme.calls:
        assert y1.size <= max(bersim._BLOCK_ROWS, min(n_symbols, bersim._CHUNK))
        for d in range(block.shape[0]):
            one1, one2 = (Constellation(c.points[d, 0] if c.points.ndim > 1 else c.points, 2)
                          for c in (c1, c2))
            cross_d = block.csi.sa_rx1[d, 0] * np.exp(1j * block.csi.theta_delta[d, 0])
            assert np.array_equal(hat1[d], detect_rx1(y1[d], one1, one2, cross_d))
            assert np.array_equal(hat2[d], detect_rx2(y2[d], one2))
            rows += y1.shape[-1]
    assert rows == 5 * n_symbols


def test_evaluate_point_draws_one_stream_per_round():
    # adaptive sizing with an unreachable error floor: two rounds, stopped by max_bits
    chunk = 50_000 // (7 * 2)
    cfg = EvalConfig(n_channel_draws=7, min_errors=10**9, max_bits=2 * 7 * chunk * 2,
                     seed=17, csi_mode="imperfect", sigma_e2=0.05)
    point = evaluate_point(cfg, Baseline2(2), 0.6, 8.0, 3)
    e1 = e2 = 0
    for rnd in range(2):
        rng = np.random.default_rng([17, 3, rnd])
        ctx = draw_context(cfg, 0.6, 8.0, rng)
        a, b, _ = run_point(Baseline2(2), ctx, 7 * chunk, rng)
        e1, e2 = e1 + a, e2 + b
    assert point.n_bits_simulated == 2 * 7 * chunk * 2
    assert (point.ber_user1, point.ber_user2) == (e1 / point.n_bits_simulated,
                                                  e2 / point.n_bits_simulated)


def test_run_point_splits_symbols_evenly_over_draws():
    ctx = _draws_context([0.1, 0.1, 0.1], [0.5, 0.6, 0.7])
    with pytest.raises(ValueError, match="split evenly"):
        run_point(Baseline1(2), ctx, 100, np.random.default_rng(0))
    assert run_point(Baseline1(2), ctx, 99, np.random.default_rng(0))[2] == 99 * 2


def _dae_draws(mode, snr_db=10.0):
    """A small model trained at 10 dB and a 6-draw context under ``mode``'s CSI."""
    model, _ = train(TrainConfig(n_channels=3, epochs_per_channel=2, batch=64, hidden_width=8,
                                 subnet2_width=4, alpha_min=0.5, alpha_max=1.5, csi_mode=mode,
                                 sigma_e2=0.05, seed=4))
    cfg = ChannelConfig(csi_mode=mode, sigma_e2=0.05, n_q=2)
    rng = np.random.default_rng(5)
    return model, channel_context(cfg, 1.0, snr_db, rng, 6)


def _draw_csi(ctx, d):
    """The node knowledge of draw ``d`` of a K-draw context."""
    return CsiInputs(*(None if v is None else float(np.broadcast_to(v, ctx.shape)[d])
                       for v in (ctx.csi.sa_tx, ctx.csi.sa_rx1, ctx.csi.sa_rx2,
                                 ctx.csi.theta_delta)))


@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
def test_block_dae_transmit_equals_per_draw_transmit(mode):
    model, ctx = _dae_draws(mode)
    if mode == "imperfect":
        assert len(np.unique(ctx.csi.sa_tx)) > 1  # one alphabet per draw
    block = ctx.block(slice(0, 6))
    rng = np.random.default_rng(7)
    bits1, bits2 = rng.integers(0, 2, size=(2, 6, 50, 2))
    scheme = DaeScheme([model])
    x1, x2 = scheme.transmit(bits1, bits2, block, scheme.constellations(block))
    assert np.array_equal((x1, x2), scheme.transmit(bits1, bits2, block))
    for d in range(6):
        ref1, ref2 = model.transmit(bits1[d], bits2[d],
                                    encode_constellation(model, _draw_csi(ctx, d).sa_tx))
        assert np.array_equal(x1[d], ref1) and np.array_equal(x2[d], ref2)


@pytest.mark.parametrize("mode,snr_db", [
    pytest.param(mode, snr_db, id=mode + ("" if snr_db == 10.0 else f"-{snr_db:g}dB"))
    for snr_db in (10.0, 20.0) for mode in ("perfect", "imperfect")])
def test_block_dae_decode_equals_per_draw_receive(mode, snr_db):
    model, ctx = _dae_draws(mode, snr_db)
    block = ctx.block(slice(0, 6))
    rng = np.random.default_rng(6)
    n = 300  # 1800 rows: receiver slices of 512 rows cross draw boundaries
    y1 = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    y2 = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    scheme = DaeScheme([model])
    hat1, hat2 = scheme.detect(y1, y2, block, scheme.constellations(block))
    assert hat1.shape == hat2.shape == (6, n, 2)
    for d in range(6):
        ref1, ref2 = model.receive(y1[d], y2[d], _draw_csi(ctx, d),
                                   model.arch.noise_var(model.arch.train_snr_db))
        assert np.array_equal(hat1[d], ref1) and np.array_equal(hat2[d], ref2)


def _untrained_dae(mode, **arch):
    return DaeScheme([ZicAutoencoder(TrainConfig(n_channels=0, alpha_min=0.5, alpha_max=1.5,
                                                 csi_mode=mode, **arch),
                                     np.random.default_rng(3))])


@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
@pytest.mark.parametrize("name", ["baseline1", "baseline2", "dae"])
def test_zero_samples_detect_to_empty_bits(name, mode):
    scheme = {"baseline1": lambda: Baseline1(2), "baseline2": lambda: Baseline2(2),
              "dae": lambda: _untrained_dae(mode, hidden_width=8, subnet2_width=4)}[name]()
    cfg = EvalConfig(csi_mode=mode, sigma_e2=0.05, n_q=2, n_channel_draws=6)
    ctx = draw_context(cfg, 1.0, 10.0, np.random.default_rng(4))
    block, block_cons = next(bersim._blocks(ctx, scheme.constellations(ctx), 1))
    one = ctx.draw(0)
    for c, cons, y in ((block, block_cons, np.zeros((6, 0), complex)),
                       (one, scheme.constellations(one), np.zeros(0, complex))):
        hat1, hat2 = scheme.detect(y, y, c, cons)
        assert hat1.shape == hat2.shape == y.shape + (2,)


# a 4000-row block at hidden width 64 peaks at 493 KiB under either CSI mode.  The
# bound sits below 650 KiB, the imperfect-CSI peak with the per-draw knowledge spread
# to one value per sample, and the block's activations whole would take 1000 KiB
_DETECT_PEAK_BYTES = 576 * 1024


@pytest.mark.parametrize("mode", ["perfect", "imperfect"])
def test_dae_detect_memory_is_bounded(mode):
    scheme = _untrained_dae(mode)
    cfg = EvalConfig(csi_mode=mode, sigma_e2=0.05, n_q=2, n_channel_draws=8)
    rng = np.random.default_rng(5)
    block = draw_context(cfg, 1.0, 10.0, rng).block(slice(0, 8))
    cons = scheme.constellations(block)
    y1, y2 = (rng.normal(size=(8, 500)) + 1j * rng.normal(size=(8, 500)) for _ in range(2))
    scheme.detect(y1, y2, block, cons)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        scheme.detect(y1, y2, block, cons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _DETECT_PEAK_BYTES, f"detecting 4000 rows peaked at {peak} bytes"


def test_dae_ber_falls_above_the_training_snr(desk_model):
    # the receivers scale their inputs for the 10 dB the model was trained at
    worst = {}
    for snr_db in (10.0, 15.0, 20.0):
        e1, e2, bits = run_point(DaeScheme([desk_model]), ideal_context(1.0, snr_db), 100_000,
                                 np.random.default_rng(99))
        worst[snr_db] = max(e1, e2) / bits
    assert worst[15.0] < worst[10.0] and worst[20.0] < worst[10.0], worst


def test_dae_builds_constellations_once_per_point_round(monkeypatch):
    calls = []
    original = bersim.encode_constellation

    def counting(model, sqrt_alpha):
        calls.append((id(model), sqrt_alpha))
        return original(model, sqrt_alpha)

    for module in (bersim, autoencoder):  # the scheme's binding and the model's
        monkeypatch.setattr(module, "encode_constellation", counting)
    arch = dict(n_channels=0, batch=32, hidden_width=8, subnet2_width=4)
    models = [ZicAutoencoder(TrainConfig(**arch, alpha_min=0.0, alpha_max=0.8),
                             np.random.default_rng(1)),
              ZicAutoencoder(TrainConfig(**arch, alpha_min=0.8, alpha_max=2.0),
                             np.random.default_rng(2))]
    cfg = EvalConfig(snr_grid_db=(5.0, 10.0), alpha_grid=(0.25, 1.0, 1.5),
                     n_channel_draws=30, n_symbols_per_point=400, seed=3)
    sweep(cfg, DaeScheme(models))
    expected = [(id(models[0 if a < 0.8 else 1]), math.sqrt(a))
                for _ in cfg.snr_grid_db for a in cfg.alpha_grid]
    assert calls == expected


@pytest.mark.parametrize("key,value", [
    ("n_symbols_per_point", -5), ("alpha_grid", (0.5, -1.0)), ("alpha_grid", (math.inf,)),
    ("alpha_grid", (math.nan,)), ("snr_grid_db", (10.0, math.nan)),
    ("snr_grid_db", (-math.inf,)),
])
def test_eval_config_rejects_bad_grid_and_counts(key, value):
    with pytest.raises(ValueError, match=key):
        EvalConfig(**{key: value})
