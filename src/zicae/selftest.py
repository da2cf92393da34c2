"""Built-in property suites behind ``zicae selftest``.

Fast, deterministic checks of the load-bearing contracts: quantizer geometry,
power constraints, end-to-end gradients against finite differences, the
original-vs-equivalent channel model identity, QAM detection against the full
search, training determinism, and float32 receivers against float64.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import modem, nn
from .autoencoder import TrainConfig, ZicAutoencoder, receiver_scale, train
from .channel import (
    IMPERFECT,
    THETA_RANGE,
    ChannelConfig,
    CsiInputs,
    draw_zic_channel,
    normalize_perfect,
    quantize,
)


def _check_quantizer() -> None:
    rng = np.random.default_rng(7)
    lo, hi = THETA_RANGE
    for n_bits in range(1, 9):
        w = (hi - lo) / 2**n_bits
        values = rng.uniform(-4.0, 4.0, size=2000)
        for v in values:
            out = quantize(v, n_bits, lo, hi)
            k = round((out - lo) / w - 0.5)
            assert 0 <= k < 2**n_bits, "midpoint outside segment table"
            assert abs(out - (lo + (k + 0.5) * w)) < 1e-12, "not a segment midpoint"
            assert quantize(out, n_bits, lo, hi) == out, "quantizer is not idempotent"
            if lo <= v <= hi:
                assert abs(out - v) <= w / 2 + 1e-12, "residual exceeds half segment"


def _check_power_constraint() -> None:
    cfg = TrainConfig(n_channels=0, batch=256, hidden_width=16, subnet2_width=8)
    model = ZicAutoencoder(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _ in range(50):
        bits = rng.integers(0, 2, size=(256, cfg.n_bits)).astype(float)
        x = model.tx1.forward(bits, 1.0, training=True)
        power = float(np.mean(np.sum(x * x, axis=1)))
        assert abs(power - cfg.total_power) < 1e-9, f"batch power {power} != P_t"
        _, _, gamma = model.tx1._cache
        assert abs(float((gamma * gamma).sum()) - cfg.total_power) < 1e-12, "gamma norm off"


def _check_gradients() -> None:
    from .gradcheck import max_relative_gradient_error
    err = max_relative_gradient_error(seed=0, batch=8, hidden_width=6,
                                      subnet2_width=4, n_res_blocks=1)
    assert err < 1e-4, f"gradient mismatch {err:.3e}"


def _check_model_equivalence() -> None:
    rng = np.random.default_rng(11)
    cfg = ChannelConfig(mu_h=1.0, sigma_h2=0.5)
    for _ in range(1000):
        ch = draw_zic_channel(cfg, rng.uniform(0.0, 3.0), rng)
        if abs(ch.h11) < 1e-6 or abs(ch.h22) < 1e-6:
            continue
        x1 = complex(rng.normal(), rng.normal())
        x2 = complex(rng.normal(), rng.normal())
        n1 = complex(rng.normal(), rng.normal()) * 0.3
        n2 = complex(rng.normal(), rng.normal()) * 0.3
        # original model: pre-rotation at Tx2, post-division at the receivers
        pre = cmath.exp(1j * (cmath.phase(ch.h11) - cmath.phase(ch.h21)))
        y1 = (ch.h11 * x1 + ch.h21 * pre * x2 + n1) / ch.h11
        y2 = ((ch.h22 * pre * x2 + n2) / ch.h22
              * cmath.exp(1j * (cmath.phase(ch.h21) - cmath.phase(ch.h11))))
        eq = normalize_perfect(ch, 0.09)
        n1b = n1 / ch.h11
        n2b = cmath.exp(1j * (cmath.phase(ch.h21) - cmath.phase(ch.h11))) * n2 / ch.h22
        z1 = eq.hbar11 * x1 + eq.hbar21 * x2 + n1b
        z2 = eq.hbar22 * x2 + n2b
        assert abs(z1 - y1) < 1e-10 and abs(z2 - y2) < 1e-10, "models disagree"


def _check_qam_detection() -> None:
    rng = np.random.default_rng(13)
    for n_bits in (2, 4):
        c1 = modem.standard_qam(n_bits)
        for theta, cross in ((0.0, 1.0), (0.4, 0.8 * cmath.exp(0.3j))):  # ties at alpha 1
            c2 = modem.rotate(c1, theta)
            y = rng.normal(size=2000) + 1j * rng.normal(size=2000)
            y[:c1.size ** 2] = modem.composite_points(c1, c2, cross)
            i1 = np.argmin(np.abs(y[:, None] - modem.composite_points(c1, c2, cross)), axis=1)
            i2 = np.argmin(np.abs(y[:, None] - c2.points), axis=1)
            assert np.array_equal(modem.detect_rx1(y, c1, c2, cross),
                                  modem.index_to_bits(i1 // c2.size, n_bits)), "Rx1 differs"
            assert np.array_equal(modem.detect_rx2(y, c2),
                                  modem.index_to_bits(i2, n_bits)), "Rx2 differs"


def _check_determinism() -> None:
    cfg = TrainConfig(n_channels=3, epochs_per_channel=2, batch=64,
                      hidden_width=8, subnet2_width=4, alpha_min=0.9,
                      alpha_max=1.1, seed=5)
    m1, _ = train(cfg)
    m2, _ = train(cfg)
    for a, b in zip(m1.params(), m2.params()):
        assert np.array_equal(a, b), "training is not deterministic"


def float64_probs(model: ZicAutoencoder, y1, y2, knows: CsiInputs, noise_var: float):
    """Both frozen receivers' bit probabilities in float64, the training arithmetic.

    A reference for the float32 inference path: the input columns are built
    as the receivers build them, then run through their layers uncast.
    """
    arch = model.arch
    extras1 = [knows.sa_rx1] if arch.alpha_to_rx else []
    if arch.csi_mode == IMPERFECT:
        extras1.append(knows.theta_delta)
    extras2 = [knows.sa_rx2] if arch.alpha_to_rx else []
    probs = []
    for rx, y, extras, p_desired in (
            (model.rx1, y1, extras1, (1.0 + knows.sa_rx1**2) * arch.total_power),
            (model.rx2, y2, extras2, arch.total_power)):
        eta = np.broadcast_to(receiver_scale(p_desired, noise_var), len(y))[:, None]
        x = np.column_stack([rx.bpn.forward(np.stack([y.real, y.imag], axis=1), False) * eta]
                            + [np.broadcast_to(v, len(y)) for v in extras])
        for layer in rx.net:
            x = layer.forward(x, training=False)
        probs.append(x)
    return probs


def assert_float32_agrees(model: ZicAutoencoder, y1, y2, knows: CsiInputs,
                          noise_var: float, tol: float = 1e-5) -> None:
    """Float32 probabilities within ``tol`` of float64, and decisions flipped only
    where the float64 probability is within ``tol`` of 0.5."""
    got = model._receive(np.stack([y1.real, y1.imag], axis=1),
                         np.stack([y2.real, y2.imag], axis=1), knows, noise_var,
                         training=False)
    hats = model.receive(y1, y2, knows, noise_var)
    for p32, p64, hat in zip(got, float64_probs(model, y1, y2, knows, noise_var), hats):
        assert p32.dtype == np.float32, f"inference ran in {p32.dtype}"
        dp = float(np.max(np.abs(p32 - p64)))
        assert dp <= tol, f"float32 probabilities differ by {dp:.2e}"
        flipped = hat != (p64 > 0.5)
        assert np.all(np.abs(p64[flipped] - 0.5) < tol), "a clear decision flipped"


def _check_float32_inference() -> None:
    rng = np.random.default_rng(17)
    for csi_mode in ("perfect", IMPERFECT):
        cfg = TrainConfig(n_channels=0, hidden_width=16, subnet2_width=8, csi_mode=csi_mode)
        model = ZicAutoencoder(cfg, rng)
        for snr_db in (10.0, 25.0):
            y1, y2 = (rng.normal(size=1000) + 1j * rng.normal(size=1000) for _ in range(2))
            knows = CsiInputs(1.0, rng.uniform(0.0, 1.5, 1000), 1.0,
                              rng.uniform(-0.4, 0.4, 1000) if csi_mode == IMPERFECT else None)
            assert_float32_agrees(model, y1, y2, knows, cfg.noise_var(snr_db))


def _check_adam_first_step() -> None:
    p = np.zeros(1)
    opt = nn.Adam([p], lr=0.01)
    opt.step([np.ones(1)])
    assert abs(-p[0] - 0.01) < 1e-6, f"first-step magnitude {p[0]}"


CHECKS = [
    ("quantizer midpoint/idempotence/residual bound", _check_quantizer),
    ("transmitter average power constraint", _check_power_constraint),
    ("end-to-end gradients vs finite differences", _check_gradients),
    ("original vs equivalent channel model", _check_model_equivalence),
    ("QAM joint-ML detection equals brute force", _check_qam_detection),
    ("training determinism", _check_determinism),
    ("float32 receivers agree with float64", _check_float32_inference),
    ("optimizer first-step magnitude", _check_adam_first_step),
]


def run_all() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[PASS] {name}")
    return 1 if failures else 0
