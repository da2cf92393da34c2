import math

import numpy as np
import pytest

from zicae import nn


def _fd_check(forward_loss, params, analytic, step=1e-5, tol=1e-5):
    """Central finite differences over every entry of every parameter array."""
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = forward_loss()
            flat[i] = saved - step
            lo = forward_loss()
            flat[i] = saved
            numeric = (hi - lo) / (2 * step)
            denom = max(abs(numeric) + abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    assert worst < tol, f"max relative gradient error {worst:.3e}"


def test_dense_identity_passthrough():
    layer = nn.Dense(3, 3, nn.LINEAR, rng=np.random.default_rng(0))
    layer.W = np.eye(3)
    layer.b = np.zeros(3)
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(layer.forward(x), x)


def test_dense_draws_its_weights_from_a_named_generator():
    # an unseeded fallback would break the seed contract without a trace
    for args in [(3, 2), (3, 2, nn.TANH, np.random.default_rng(0))]:
        with pytest.raises(TypeError):
            nn.Dense(*args)


def test_dense_tanh_zero_input():
    layer = nn.Dense(4, 2, nn.TANH, rng=np.random.default_rng(2))
    layer.b = np.zeros(2)
    assert np.array_equal(layer.forward(np.zeros((3, 4))), np.zeros((3, 2)))


def test_dense_shape_mismatch():
    layer = nn.Dense(4, 2, nn.TANH, rng=np.random.default_rng(3))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((3, 5)))


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    layer = nn.Dense(5, 4, nn.TANH, rng=rng)
    x = rng.normal(size=(6, 5))
    target = rng.normal(size=(6, 4))

    def loss():
        y = layer.forward(x)
        return float(np.sum((y - target) ** 2))

    y = layer.forward(x)
    layer.backward(2 * (y - target))
    _fd_check(loss, layer.params(), layer.grads())


def test_residual_trivials_and_gradient():
    rng = np.random.default_rng(5)
    inner = nn.Dense(3, 3, nn.TANH, rng=rng)
    block = nn.Residual(inner)
    x = rng.normal(size=(4, 3))
    inner.W = np.zeros_like(inner.W)  # f(x) = 0 -> output = x
    assert np.allclose(block.forward(x), x)

    inner.W = rng.normal(size=inner.W.shape) * 0.3
    zero = np.zeros((4, 3))
    assert np.allclose(block.forward(zero), inner.forward(zero))

    target = rng.normal(size=(4, 3))

    def loss():
        return float(np.sum((block.forward(x) - target) ** 2))

    y = block.forward(x)
    block.backward(2 * (y - target))
    _fd_check(loss, block.params(), block.grads())


def test_batch_power_norm_scales_to_unit_mean_square():
    bpn = nn.BatchPowerNorm(2)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(64, 2)) * np.array([2.0, 0.3])
    y = bpn.forward(x, training=True)
    assert np.allclose(np.mean(y * y, axis=0), 1.0, atol=1e-10)
    # already unit mean square -> nearly unchanged
    y2 = bpn.forward(y, training=True)
    assert np.allclose(y2, y, atol=1e-9)


def test_batch_power_norm_inference_uses_running_stats():
    bpn = nn.BatchPowerNorm(2)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(512, 2)) * 3.0
    for _ in range(1000):  # the running value keeps 0.99**1000 of its start
        bpn.forward(x, training=True)
    y = bpn.forward(x, training=False)
    assert np.allclose(np.mean(y * y, axis=0), 1.0, atol=1e-2)


def test_batch_power_norm_gradient_includes_batch_statistic():
    rng = np.random.default_rng(8)
    bpn = nn.BatchPowerNorm(2)
    front = nn.Dense(3, 2, nn.LINEAR, rng=rng)
    x = rng.normal(size=(10, 3))
    target = rng.normal(size=(10, 2))

    def loss():
        return float(np.sum((bpn.forward(front.forward(x), training=True) - target) ** 2))

    y = bpn.forward(front.forward(x), training=True)
    front.backward(bpn.backward(2 * (y - target)))
    _fd_check(loss, front.params(), front.grads(), tol=1e-4)


def test_power_norm_345_triangle():
    pn = nn.PowerNorm(1.0)
    y = pn.forward(np.array([[3.0, 4.0]]))
    assert np.allclose(y, [[0.6, 0.8]])
    assert float((y * y).sum()) == pytest.approx(1.0, abs=1e-12)
    y2 = pn.forward(np.array([[1.0, 0.0]]))
    assert np.allclose(y2, [[1.0, 0.0]])


def test_power_norm_total_power_exact():
    pn = nn.PowerNorm(2.5)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(200, 2))
    y = pn.forward(x)
    assert np.allclose(np.sum(y * y, axis=1), 2.5, atol=1e-12)


def test_power_norm_gradient():
    rng = np.random.default_rng(10)
    pn = nn.PowerNorm(1.0)
    front = nn.Dense(2, 2, nn.LINEAR, rng=rng)
    x = rng.normal(size=(5, 2))
    target = rng.normal(size=(5, 2))

    def loss():
        return float(np.sum((pn.forward(front.forward(x)) - target) ** 2))

    y = pn.forward(front.forward(x))
    front.backward(pn.backward(2 * (y - target)))
    _fd_check(loss, front.params(), front.grads())


@pytest.mark.parametrize("kind", [nn.TANH, nn.SIGMOID, nn.LINEAR])
def test_dense_backward_consumes_its_forward(kind):
    rng = np.random.default_rng(14)
    layer = nn.Dense(3, 2, kind, rng=rng)
    grad = rng.normal(size=(4, 2))
    with pytest.raises(RuntimeError, match="Dense.backward"):
        layer.backward(grad)
    y = layer.forward(rng.normal(size=(4, 3)))
    kept = y.copy()
    layer.backward(grad)
    if kind != nn.TANH:  # output layers hand the caller an output backward leaves alone
        assert np.array_equal(y, kept)
    with pytest.raises(RuntimeError, match="Dense.backward"):
        layer.backward(grad)


def test_residual_backward_consumes_its_forward():
    rng = np.random.default_rng(15)
    block = nn.Residual(nn.Dense(3, 3, nn.TANH, rng=rng))
    grad = rng.normal(size=(4, 3))
    with pytest.raises(RuntimeError, match="Dense.backward"):
        block.backward(grad)
    block.forward(rng.normal(size=(4, 3)))
    block.backward(grad)
    with pytest.raises(RuntimeError, match="Dense.backward"):
        block.backward(grad)


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("kind", [nn.TANH, nn.SIGMOID, nn.LINEAR])
def test_inference_forward_runs_in_input_dtype_and_caches_nothing(kind, residual):
    rng = np.random.default_rng(17)
    inner = nn.Dense(3, 3, kind, rng=rng)
    layer = nn.Residual(inner) if residual else inner
    x = rng.normal(size=(4, 3))
    slices = [(rows, y.copy()) for rows, y in nn.frozen_forward([layer], x.astype(np.float32), 2)]
    assert [rows for rows, _ in slices] == [slice(0, 2), slice(2, 4)]
    y32 = np.concatenate([y for _, y in slices])
    assert y32.dtype == np.float32
    assert inner._cache is None
    with pytest.raises(RuntimeError, match="Dense.backward"):
        layer.backward(np.ones((4, 3)))
    y64 = layer.forward(x, training=False)
    assert y64.dtype == np.float64 and inner._cache is None
    assert np.array_equal(y64, layer.forward(x))  # the training arithmetic
    assert np.max(np.abs(y32 - y64)) < 1e-6
    assert inner.W.dtype == np.float64 and inner.b.dtype == np.float64


@pytest.mark.parametrize("training", [True, False])
def test_batch_power_norm_backward_consumes_its_forward(training):
    bpn = nn.BatchPowerNorm(2)
    x = np.random.default_rng(16).normal(size=(8, 2))
    with pytest.raises(RuntimeError, match="BatchPowerNorm.backward"):
        bpn.backward(x)
    bpn.forward(x, training)
    if training:  # an inference pass leaves nothing to backpropagate through
        bpn.backward(x)
    with pytest.raises(RuntimeError, match="BatchPowerNorm.backward"):
        bpn.backward(x)


def test_gaussian_noise_layer():
    x = np.ones((10, 2))
    assert nn.gaussian_noise(x, 0.0, np.random.default_rng(11)) is x
    assert nn.gaussian_noise(x, 1.0, None) is x
    big = nn.gaussian_noise(np.zeros((500_000, 2)), 0.25, np.random.default_rng(12))
    assert abs(np.var(big) - 0.25) < 0.0025


def test_bce_loss_values():
    s = np.array([[1.0]])
    assert nn.bce_loss(s, np.array([[0.5]])) == pytest.approx(math.log(2), rel=1e-12)
    assert nn.bce_loss(s, np.array([[1.0]])) == pytest.approx(0.0, abs=1e-6)
    both = np.array([[1.0, 0.0]])
    pred = np.array([[0.9, 0.2]])
    expected = -(math.log(0.9) + math.log(0.8))
    assert nn.bce_loss(both, pred) == pytest.approx(expected, rel=1e-12)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    s = rng.integers(0, 2, size=(6, 3)).astype(float)
    s_hat = rng.uniform(0.2, 0.8, size=(6, 3))
    g = nn.bce_loss_grad(s, s_hat, len(s))
    step = 1e-7
    for i in range(6):
        for j in range(3):
            saved = s_hat[i, j]
            s_hat[i, j] = saved + step
            hi = nn.bce_loss(s, s_hat)
            s_hat[i, j] = saved - step
            lo = nn.bce_loss(s, s_hat)
            s_hat[i, j] = saved
            numeric = (hi - lo) / (2 * step)
            assert abs(numeric - g[i, j]) / max(abs(numeric), 1e-8) < 1e-6


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    opt = nn.Adam([p], lr=0.1)
    opt.step([np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_descends_constant_gradient():
    p = np.array([0.0])
    opt = nn.Adam([p], lr=0.01)
    for _ in range(50):
        opt.step([np.array([2.0])])
    assert p[0] < 0.0


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    opt = nn.Adam([p], lr=0.01)
    opt.step([np.array([1.0])])
    assert -p[0] == pytest.approx(0.01, rel=1e-6)


def test_learning_rate_decay():
    opt = nn.Adam([np.zeros(1)], lr=0.01, decay=0.95)
    opt.decay_lr()
    assert opt.lr == pytest.approx(0.0095, rel=1e-12)
    for _ in range(4):
        opt.decay_lr()
    assert opt.lr == pytest.approx(0.01 * 0.95**5, rel=1e-12)
    keep = nn.Adam([np.zeros(1)], lr=0.01, decay=1.0)
    keep.decay_lr()
    assert keep.lr == 0.01
