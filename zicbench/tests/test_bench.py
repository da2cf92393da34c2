"""Tests of the benchmark's own parts: oracles, counters, spans, tracing.

Run from the repository root with ``python3 -m pytest zicbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import spans
from workloads import LOG_TAIL_LIMIT, import_layers

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def mods():
    return import_layers()


# -- oracles -----------------------------------------------------------------


def test_qpsk_floor_by_hand():
    # Cross gain 1: the 4 opposite pairs all land on 0 and decode as label 0
    # (0+1+1+2 bit errors); the 8 pairs differing in one component share a
    # composite with their swap, and the higher index decodes as the lower
    # (4 x 1 bit error).  8 errors over 16 pairs x 2 bits.
    assert oracle.qpsk_ambiguity_floor(1.0) == 0.25
    assert oracle.qpsk_ambiguity_floor(0.0) == 0.0
    assert oracle.qpsk_ambiguity_floor(0.5) == 0.0


def test_qpsk_floor_matches_joint_ml_without_noise(mods):
    modem = mods["modem"]
    c = modem.standard_qam(2, 1.0)
    assert np.allclose(c.points, oracle.gray_qpsk())
    i1, i2 = np.divmod(np.arange(16), 4)
    y = c.points[i1] + c.points[i2]
    hat = modem.detect_rx1(y, c, c, 1.0)
    ber = np.mean(hat != modem.index_to_bits(i1, 2))
    assert ber == oracle.qpsk_ambiguity_floor(1.0)


def test_user2_oracle_awgn_limit():
    # No estimation error and no fading: g = 1, |hhat22| = 1, plain QPSK.
    g, mag = oracle.accepted_user2_draws(1000, 0.0, 0.3, 1.0, 0.0, np.random.default_rng(0))
    assert np.all(g == 1.0) and np.allclose(mag, 1.0)
    for snr_db in (0.0, 6.0, 10.0):
        a, b = oracle.user2_error_probs(g, mag, snr_db)
        expected = 0.5 * math.erfc(math.sqrt(10 ** (snr_db / 10) / 2))
        assert np.allclose(a, expected) and np.allclose(b, expected)


def test_chernoff_bound_covers_exact_binomial_tail():
    # Constant error probability: the count is Binomial(2 * symbols * draws, p).
    p, n_sym, n_draws = 0.05, 10, 10
    a = b = np.full(10, p)
    log_mgf = oracle.log_mgf_per_draw(a, b, n_sym, oracle.CHERNOFF_TS)
    n = 2 * n_sym * n_draws
    for errors in (0, 4, 25, 40):
        if errors >= n * p:
            exact = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(errors, n + 1))
        else:
            exact = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(0, errors + 1))
        bound = oracle.log_tail_bound(errors, n * p, n_draws, log_mgf)
        assert bound >= math.log(exact) - 1e-9
    assert oracle.log_tail_bound(round(n * p), n * p, n_draws, log_mgf) > -0.1


def test_user2_oracle_agrees_with_simulation(mods):
    bersim = mods["bersim"]
    cfg = bersim.EvalConfig(snr_grid_db=(5.0,), alpha_grid=(1.0,), n_channel_draws=200,
                            n_symbols_per_point=200, seed=4, csi_mode="imperfect",
                            sigma_e2=0.05, threshold_t=0.3, n_q=3)
    point = bersim.sweep(cfg, bersim.Baseline2(2)).points[0]
    g, mag = oracle.accepted_user2_draws(50_000, 0.05, 0.3, 1.0, 0.1, np.random.default_rng(5))
    a, b = oracle.user2_error_probs(g, mag, 5.0)
    log_mgf = oracle.log_mgf_per_draw(a, b, 200, oracle.CHERNOFF_TS)
    bits = point.n_bits_simulated
    mean = 0.5 * np.mean(a + b) * bits
    errors = round(point.ber_user2 * bits)
    assert oracle.log_tail_bound(errors, mean, 200, log_mgf) > LOG_TAIL_LIMIT
    # a BER off by half of itself is flagged
    assert oracle.log_tail_bound(round(1.5 * errors), mean, 200, log_mgf) < LOG_TAIL_LIMIT


# -- counters and spans ---------------------------------------------------------


def test_dense_flop_formula():
    assert spans.dense_flops(10000, 64, 64) == 2 * 10000 * 64 * 64
    assert spans.dense_flops(3, 4, 5, backward=True) == 4 * 3 * 4 * 5


def test_traced_dense_counts_its_flops(mods):
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        layer = mods["nn"].Dense(3, 7, rng=np.random.default_rng(0))
        with tracer.region(spans.ROUND):
            y = layer.forward(np.ones((5, 3)))
            layer.backward(np.ones_like(y))
    finally:
        tracer.uninstall()
    assert tracer.counts["nn.dense_flop"] == 2 * 5 * 3 * 7 * 3
    metrics = spans.layer_metrics(tracer)
    assert metrics["nn.dense_gflop"]["value"] == 2 * 5 * 3 * 7 * 3 / 1e9


def test_self_time_arithmetic():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     c [2, 3]
    #   3   b  [5, 6]
    #   4 root2 [11, 12]
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 6.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    assert spans.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert spans.roots(parent).tolist() == [0, 0, 0, 0, 4]


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.region(spans.ROUND):
        assert inner(1) == 2
        assert inner(2) == 3
    arrays = tracer.arrays()
    assert arrays["parent"].tolist() == [-1, 0, 0]
    assert (arrays["end"] - arrays["start"]).tolist() == [5.0, 1.0, 1.0]


def test_install_rebinds_imported_names_and_uninstall_restores(mods):
    original = mods["channel"].draw_channel
    tracer = spans.Tracer()
    tracer.install(mods)
    assert mods["bersim"].draw_channel is not original
    assert mods["bersim"].draw_channel is mods["channel"].draw_channel
    assert mods["autoencoder"].draw_channel.__wrapped__ is original
    tracer.uninstall()
    assert mods["bersim"].draw_channel is original
    assert mods["autoencoder"].draw_channel is original


# -- tracing leaves outputs unchanged ------------------------------------------


def _traced(mods, fn):
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        with tracer.region(spans.ROUND):
            return fn(), tracer
    finally:
        tracer.uninstall()


def test_traced_training_log_is_unchanged(mods):
    ae = mods["autoencoder"]
    cfg = ae.TrainConfig(alpha_min=0.5, alpha_max=1.0, n_channels=2,
                         epochs_per_channel=2, batch=64, seed=3)
    plain = ae.train(cfg)[1]
    traced, tracer = _traced(mods, lambda: ae.train(cfg)[1])
    assert traced == plain
    assert spans.layer_metrics(tracer)["nn.adam_step_s"]["value"] > 0


def test_traced_sweeps_are_unchanged(mods):
    bersim, ae = mods["bersim"], mods["autoencoder"]
    cfg = bersim.EvalConfig(snr_grid_db=(5.0, 10.0), alpha_grid=(1.0,), n_channel_draws=20,
                            n_symbols_per_point=50, seed=6, csi_mode="imperfect",
                            sigma_e2=0.05, threshold_t=0.3)
    plain = bersim.result_to_csv(bersim.sweep(cfg, bersim.Baseline2(2)))
    traced, tracer = _traced(mods, lambda: bersim.result_to_csv(
        bersim.sweep(cfg, bersim.Baseline2(2))))
    assert traced == plain
    metrics = spans.layer_metrics(tracer)
    assert metrics["bersim.channel_draws"]["value"] == 40
    assert metrics["bersim.symbols"]["value"] == 40 * 50
    assert 0.4 < metrics["channel.acceptance_ratio"]["value"] < 0.8

    model, _ = ae.train(ae.TrainConfig(alpha_min=0.5, alpha_max=1.5, n_channels=2,
                                       epochs_per_channel=2, batch=64, seed=1))
    cfg = bersim.EvalConfig(snr_grid_db=(10.0,), alpha_grid=(1.0,), n_channel_draws=5,
                            n_symbols_per_point=40, seed=7)
    plain = bersim.result_to_csv(bersim.sweep(cfg, bersim.DaeScheme([model])))
    traced, tracer = _traced(mods, lambda: bersim.result_to_csv(
        bersim.sweep(cfg, bersim.DaeScheme([model]))))
    assert traced == plain
    assert spans.layer_metrics(tracer)["autoencoder.transmit_rows"]["value"] == 5 * 40 * 2


# -- the command ---------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "zicbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace in (0, 1):
        proc = _run(ROOT, "--workload", "eval-qam-imperfect", "--seed", "1",
                    "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] == 12 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[trace]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "zicbench", tmp_path / "zicbench",
                    ignore=shutil.ignore_patterns(".cache", "results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "train-perfect", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
