import copy
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from zicae import nn
from zicae.autoencoder import (
    _TRAIN_ROWS,
    ABLATION_EXPERIMENTS,
    CsiInputs,
    TrainConfig,
    TrainingDiverged,
    ZicAutoencoder,
    _complex_matrix,
    encode_constellation,
    receiver_scale,
    train,
)
from zicae.bersim import DaeScheme, ideal_context
from zicae.channel import IMPERFECT, EquivalentChannel, apply_channel, channel_context
from zicae.modem import bits_to_index

MINI = dict(n_channels=0, batch=64, hidden_width=8, subnet2_width=4,
            alpha_min=0.9, alpha_max=1.1)


def _mini_model(seed=0, **overrides):
    cfg = TrainConfig(**{**MINI, **overrides})
    return cfg, ZicAutoencoder(cfg, np.random.default_rng(seed))


def _unit_channel(alpha=1.0, noise_var=0.1):
    sa = math.sqrt(alpha)
    return EquivalentChannel(1 + 0j, complex(sa), 1 + 0j, noise_var, noise_var)


def test_transmit_power_constraint_in_training_mode():
    cfg, model = _mini_model()
    rng = np.random.default_rng(1)
    for _ in range(20):
        bits = rng.integers(0, 2, size=(64, 2)).astype(float)
        x = model.tx1.forward(bits, 1.0, training=True)
        assert np.mean(np.sum(x * x, axis=1)) == pytest.approx(cfg.total_power, abs=1e-9)
        _, _, gamma = model.tx1._cache  # the power branch's split between the two axes
        assert float(np.sum(gamma * gamma)) == pytest.approx(cfg.total_power, abs=1e-12)


def test_transmit_without_power_branch_splits_evenly():
    cfg, model = _mini_model(use_subnet2=False, alpha_to_subnet2=False)
    bits = np.random.default_rng(2).integers(0, 2, size=(256, 2)).astype(float)
    x = model.tx1.forward(bits, 1.0, training=True)
    assert np.mean(x[:, 0] ** 2) == pytest.approx(cfg.total_power / 2, abs=1e-9)
    assert np.mean(x[:, 1] ** 2) == pytest.approx(cfg.total_power / 2, abs=1e-9)


def test_transmit_is_deterministic():
    _, model = _mini_model()
    bits = np.random.default_rng(3).integers(0, 2, size=(32, 2)).astype(float)
    a = model.tx1.forward(bits, 0.8, training=True)
    b = model.tx1.forward(bits, 0.8, training=True)
    assert np.array_equal(a, b)


def _per_row_pass(tx, bits, sqrt_alpha, training, grad_x):
    """Reference transmitter that runs net1 on every batch row.

    Returns the forward output and, when training, the parameter gradients
    for the upstream gradient ``grad_x`` (None otherwise).
    """
    x = np.asarray(bits, dtype=float)
    if tx.arch.alpha_to_subnet1:
        x = np.concatenate([x, np.full((len(x), 1), sqrt_alpha)], axis=1)
    for layer in tx.net1:
        x = layer.forward(x, training)
    xb = tx.bpn.forward(x, training)
    if tx.arch.use_subnet2:
        g = np.array([[sqrt_alpha if tx.arch.alpha_to_subnet2 else 1.0]])
        for layer in tx.net2:
            g = layer.forward(g, training)
        gamma = tx.pnorm.forward(g, training)
    else:
        gamma = np.full((1, 2), math.sqrt(tx.arch.total_power / 2.0))
    if not training:
        return xb * gamma, None
    if tx.arch.use_subnet2:
        g = tx.pnorm.backward(np.sum(grad_x * xb, axis=0, keepdims=True))
        for layer in reversed(tx.net2):
            g = layer.backward(g)
    g = tx.bpn.backward(grad_x * gamma)
    for layer in reversed(tx.net1):
        g = layer.backward(g)
    return xb * gamma, [g.copy() for g in _grads(tx)]


def _grads(tx):
    return [g for layer in tx.net1 + tx.net2 for g in layer.grads()]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
@pytest.mark.parametrize("overrides", ABLATION_EXPERIMENTS.values(),
                         ids=list(ABLATION_EXPERIMENTS))
def test_per_pattern_transmitter_matches_per_row_reference(overrides, n_bits, training):
    _, model = _mini_model(n_bits=n_bits, **overrides)
    tx = model.tx1
    rng = np.random.default_rng(100 + n_bits)
    for rows in (3, 64):  # 3 rows miss some patterns from n_bits = 2 on
        bits = rng.integers(0, 2, size=(rows, n_bits)).astype(float)
        grad_x = rng.standard_normal((rows, 2))
        ref = copy.deepcopy(tx)
        x_ref, grads_ref = _per_row_pass(ref, bits, 0.8, training, grad_x)
        x = tx.forward(bits, 0.8, training)
        assert np.max(np.abs(x - x_ref)) <= 1e-12
        assert np.max(np.abs(tx.bpn.running_ms - ref.bpn.running_ms)) <= 1e-12
        if not training:  # an inference pass leaves nothing to backpropagate through
            with pytest.raises(RuntimeError, match="Transmitter.backward"):
                tx.backward(grad_x)
            continue
        tx.backward(grad_x)
        # relative to the largest gradient entry: some entries are zero up
        # to rounding (e.g. a lone input bit under the batch normalization)
        scale = max(np.max(np.abs(g)) for g in grads_ref)
        for g, g_ref in zip(_grads(tx), grads_ref):
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
def test_transmitter_rejects_non_bit_inputs(bad):
    _, model = _mini_model()
    bits = np.zeros((5, 2))
    bits[3, 1] = bad
    with pytest.raises(ValueError, match="0/1"):
        model.tx1.forward(bits, 1.0, training=True)
    with pytest.raises(ValueError, match="0/1"):
        model.transmit(bits, np.zeros((5, 2)), encode_constellation(model, 1.0))


def test_transmitter_rejects_wrong_bit_width():
    _, model = _mini_model()
    with pytest.raises(ValueError, match="rows of 2 bits"):
        model.tx1.forward(np.zeros((5, 3)), 1.0, training=True)


def test_dae_transmit_is_the_constellation_lookup():
    model, _ = train(TrainConfig(**{**MINI, "n_channels": 2, "epochs_per_channel": 2},
                                 n_bits=3))
    scheme = DaeScheme([model])
    rng = np.random.default_rng(7)
    for alpha in (0.9, 1.0, 1.1):
        bits1 = rng.integers(0, 2, size=(500, 3))
        bits2 = rng.integers(0, 2, size=(500, 3))
        x1, x2 = scheme.transmit(bits1, bits2, ideal_context(alpha, 10.0))
        c1, c2 = encode_constellation(model, math.sqrt(alpha))
        assert np.array_equal(x1, c1.points[bits_to_index(bits1)])
        assert np.array_equal(x2, c2.points[bits_to_index(bits2)])


def test_receiver_outputs_are_probabilities():
    _, model = _mini_model()
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=(64, 2)).astype(float)
    p1, p2 = model.forward(bits, bits, _unit_channel(), CsiInputs(1.0, 1.0, 1.0),
                           0.1, rng=rng)
    for p in (p1, p2):
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_receiver_scale_values():
    assert receiver_scale(2.0, 0.1) == pytest.approx(math.sqrt(21.0), rel=1e-12)
    assert receiver_scale(2.0, 1e12) == pytest.approx(1.0, abs=1e-9)


def test_loss_decomposition():
    _, model = _mini_model()
    rng = np.random.default_rng(5)
    b1 = rng.integers(0, 2, size=(64, 2)).astype(float)
    b2 = rng.integers(0, 2, size=(64, 2)).astype(float)
    p1, p2 = model.forward(b1, b2, _unit_channel(), CsiInputs(1.0, 1.0, 1.0),
                           0.1, rng=None)
    joint = nn.bce_loss(np.concatenate([b1, b2], axis=1),
                        np.concatenate([p1, p2], axis=1))
    assert joint == pytest.approx(nn.bce_loss(b1, p1) + nn.bce_loss(b2, p2), abs=1e-12)


def test_gradient_isolation_between_users():
    _, model = _mini_model()
    rng = np.random.default_rng(6)
    b1 = rng.integers(0, 2, size=(16, 2)).astype(float)
    b2 = rng.integers(0, 2, size=(16, 2)).astype(float)
    knows = CsiInputs(1.0, 1.0, 1.0)
    eq = _unit_channel()

    _, p2_ref = model.forward(b1, b2, eq, knows, 0.1, rng=None)
    p1_ref, _ = model.forward(b1, b2, eq, knows, 0.1, rng=None)

    model.tx1.net1[0].W[0, 0] += 0.1  # perturb Tx1: no path to Rx2
    p1_new, p2_new = model.forward(b1, b2, eq, knows, 0.1, rng=None)
    assert np.array_equal(p2_new, p2_ref)
    assert not np.array_equal(p1_new, p1_ref)
    model.tx1.net1[0].W[0, 0] -= 0.1

    model.tx2.net1[0].W[0, 0] += 0.1  # perturb Tx2: reaches both receivers
    p1_new, p2_new = model.forward(b1, b2, eq, knows, 0.1, rng=None)
    assert not np.array_equal(p1_new, p1_ref)
    assert not np.array_equal(p2_new, p2_ref)


def test_backward_consumes_the_forward_pass():
    _, model = _mini_model()
    rng = np.random.default_rng(7)
    b1 = rng.integers(0, 2, size=(16, 2)).astype(float)
    b2 = rng.integers(0, 2, size=(16, 2)).astype(float)
    with pytest.raises(RuntimeError, match="ZicAutoencoder.backward"):
        model.backward()
    model.forward(b1, b2, _unit_channel(), CsiInputs(1.0, 1.0, 1.0), 0.1, rng)
    model.backward()
    with pytest.raises(RuntimeError, match="ZicAutoencoder.backward"):
        model.backward()


def whole_batch_step(model: ZicAutoencoder, bits1, bits2, eq, knows: CsiInputs,
                     noise_var: float):
    """One noiseless training step with each receiver's trunk over the whole batch.

    The receivers' training pass before row slices: every layer keeps its
    whole-batch input and output from forward to backward.  A reference for
    the sliced pass of ``forward``; returns both receivers' probabilities,
    the loss and a copy of every gradient.
    """
    x1 = model.tx1.forward(bits1, knows.sa_tx, training=True)
    x2 = model.tx2.forward(bits2, knows.sa_tx, training=True)
    H11, H21, H22 = (_complex_matrix(h) for h in (eq.hbar11, eq.hbar21, eq.hbar22))
    probs, grads_y = [], []
    for rx, y, (extras, eta), bits in zip((model.rx1, model.rx2),
                                          (x1 @ H11.T + x2 @ H21.T, x2 @ H22.T),
                                          model._side_inputs(knows, noise_var),
                                          (bits1, bits2)):
        p = rx._input(y, extras, eta, True)
        for layer in rx.net:
            p = layer.forward(p)
        g = nn.bce_loss_grad(bits, p, len(bits))
        for layer in reversed(rx.net):
            g = layer.backward(g)
        probs.append(p)
        grads_y.append(rx.bpn.backward(g[:, :2] * np.expand_dims(eta, -1)))
    model.tx1.backward(grads_y[0] @ H11)
    model.tx2.backward(grads_y[0] @ H21 + grads_y[1] @ H22)
    loss = nn.bce_loss(bits1, probs[0]) + nn.bce_loss(bits2, probs[1])
    return probs, loss, [g.copy() for g in model.grads()]


_EQ = EquivalentChannel(0.9 + 0.2j, 1.1 - 0.3j, 1.0 + 0.1j, 0.08, 0.11)


# relative to each array's largest entry; at 3 * 1024 + 7 rows the
# probabilities and the loss agreed bit for bit, the gradients within 6e-14
_SLICED_RTOL = 1e-12


@pytest.mark.parametrize("batch", [3 * _TRAIN_ROWS + 7, _TRAIN_ROWS, 5])
@pytest.mark.parametrize("csi_mode", ["perfect", "imperfect"])
def test_sliced_training_pass_matches_the_whole_batch_pass(csi_mode, batch):
    _, model = _mini_model(csi_mode=csi_mode, hidden_width=16)
    reference = copy.deepcopy(model)
    bits1, bits2 = np.random.default_rng(11).integers(0, 2, size=(2, batch, 2)).astype(float)
    knows = CsiInputs(1.0, 1.1, 0.9, 0.2 if csi_mode == IMPERFECT else None)
    p1, p2 = model.forward(bits1, bits2, _EQ, knows, 0.1, rng=None)
    loss = nn.bce_loss(bits1, p1) + nn.bce_loss(bits2, p2)
    model.backward()
    want_probs, want_loss, want_grads = whole_batch_step(reference, bits1, bits2, _EQ, knows,
                                                         0.1)
    pairs = list(zip([p1, p2, *model.grads()], [*want_probs, *want_grads]))
    if batch <= _TRAIN_ROWS:  # one slice: the whole-batch arithmetic
        assert loss == want_loss
        assert all(np.array_equal(got, want) for got, want in pairs)
    else:
        assert loss == pytest.approx(want_loss, rel=_SLICED_RTOL)
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= _SLICED_RTOL * np.max(np.abs(want))
    for net in ("tx1", "tx2", "rx1", "rx2"):
        assert np.array_equal(getattr(model, net).bpn.running_ms,
                              getattr(reference, net).bpn.running_ms)


# tracemalloc peak of one width-64 step at 3 * 1024 + 7 rows, in KiB: measured
# 3215 in row slices and 17641 with whole-batch activations
_STEP_PEAK_KIB = 4096


def test_training_step_memory_is_bounded():
    batch = 3 * _TRAIN_ROWS + 7
    cfg = TrainConfig(n_channels=0, batch=batch, hidden_width=64)
    rng = np.random.default_rng(12)
    model = ZicAutoencoder(cfg, rng)
    opt = nn.Adam(model.params())
    bits1, bits2 = rng.integers(0, 2, size=(2, batch, 2)).astype(float)
    tracemalloc.start()
    try:
        p1, p2 = model.forward(bits1, bits2, _EQ, CsiInputs(1.0, 1.0, 1.0), 0.1, rng)
        nn.bce_loss(bits1, p1) + nn.bce_loss(bits2, p2)
        model.backward()
        opt.step(model.grads())
        del p1, p2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _STEP_PEAK_KIB * 1024, f"peak {peak // 1024} KiB"


def _reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        children = getattr(obj, "__dict__", {}).values()
    return [a for child in children for a in _reachable_arrays(child, seen)]


def test_trained_model_holds_no_batch_activations():
    batch = 777  # no layer width or pattern count has this many rows
    model, _ = train(TrainConfig(**{**MINI, "n_channels": 2, "epochs_per_channel": 2,
                                    "batch": batch}))
    arrays = _reachable_arrays(model)
    assert len(arrays) > len(model.params())
    assert [a.shape for a in arrays if a.ndim and len(a) == batch] == []


def test_receive_holds_no_activations():
    cfg = TrainConfig(**{**MINI, "n_channels": 2, "epochs_per_channel": 2})
    model, _ = train(cfg)
    scheme = DaeScheme([model])
    held = _reachable_arrays(scheme)
    assert any(a is model.rx1.bpn.running_ms for a in held)
    kept = [a.copy() for a in held]
    rng = np.random.default_rng(8)
    y1, y2 = (rng.normal(size=4000) + 1j * rng.normal(size=4000) for _ in range(2))
    model.receive(y1, y2, CsiInputs(1.0, 1.0, 1.0), 0.1)
    encode_constellation(model, 0.95)
    block = channel_context(cfg, 1.0, 10.0, rng, 8).block(slice(0, 8))
    scheme.detect(y1.reshape(8, 500), y2.reshape(8, 500), block, scheme.constellations(block))
    now = _reachable_arrays(scheme)
    assert [id(a) for a in now] == [id(a) for a in held]
    assert all(np.array_equal(a, k) for a, k in zip(now, kept))


def _step_grads(model, bits1, bits2, probe=None):
    """The gradients of one training step, with ``probe(model)`` between its passes."""
    model.forward(bits1, bits2, _unit_channel(), CsiInputs(1.0, 1.0, 1.0), 0.1, rng=None)
    if probe is not None:
        probe(model)
    model.backward()
    return [g.copy() for g in model.grads()]


_Y = np.linspace(-2.0, 2.0, 50) + 0.3j
INFERENCE_PROBES = {
    "receive": lambda model: model.receive(_Y, _Y[::-1], CsiInputs(0.9, 0.9, 0.9), 0.2),
    "encode_constellation": lambda model: encode_constellation(model, 0.7),
}


@pytest.mark.parametrize("probe", list(INFERENCE_PROBES))
@pytest.mark.parametrize("batch", [64, 4])  # 4 rows: as many as bit patterns
def test_inference_between_forward_and_backward_leaves_the_gradients(batch, probe):
    _, model = _mini_model()
    bits1, bits2 = np.random.default_rng(10).integers(0, 2, size=(2, batch, 2)).astype(float)
    plain = copy.deepcopy(model)
    want = _step_grads(plain, bits1, bits2)
    got = _step_grads(model, bits1, bits2, INFERENCE_PROBES[probe])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for net in ("tx1", "tx2", "rx1", "rx2"):
        assert np.array_equal(getattr(model, net).bpn.running_ms,
                              getattr(plain, net).bpn.running_ms)


@pytest.mark.parametrize("sa_rx", [1.0, np.linspace(0.9, 1.1, 5)], ids=["scalar", "per-row"])
def test_frozen_receiver_runs_in_float32(sa_rx):
    _, model = _mini_model()
    y = np.random.default_rng(9).normal(size=(5, 2)) @ [1, 1j]
    (rows, probs), = model.rx1.decode(y, [sa_rx], np.full(5, 3.0))
    assert rows == slice(0, 5) and probs.shape == (5, 2)
    assert probs.dtype == np.float32
    assert model.rx1._cache is None


def float32_probs(model: ZicAutoencoder, y1, y2, knows: CsiInputs, noise_var: float):
    """Both frozen receivers' probabilities, gathered from the slices of their decode."""
    probs = []
    for rx, y, (extras, eta) in zip((model.rx1, model.rx2), (y1, y2),
                                    model._side_inputs(knows, noise_var)):
        p = np.empty((len(y), model.arch.n_bits), np.float32)
        for rows, p_rows in rx.decode(y, extras, eta):
            assert p_rows.dtype == np.float32, f"inference ran in {p_rows.dtype}"
            p[rows] = p_rows
        probs.append(p)
    return probs


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
    got = float32_probs(model, y1, y2, knows, noise_var)
    hats = model.receive(y1, y2, knows, noise_var)
    for p32, p64, hat in zip(got, float64_probs(model, y1, y2, knows, noise_var), hats):
        dp = float(np.max(np.abs(p32 - p64)))
        assert dp <= tol, f"float32 probabilities differ by {dp:.2e}"
        flipped = hat != (p64 > 0.5)
        assert np.all(np.abs(p64[flipped] - 0.5) < tol), "a clear decision flipped"


def per_layer_float32(rx, x: np.ndarray) -> np.ndarray:
    """A receiver's float32 probabilities on the first-layer inputs ``x``, layer by
    layer with a new array per step: the arithmetic the one-pass decoder replaced."""
    for layer in rx.net:
        dense = layer.inner if isinstance(layer, nn.Residual) else layer
        z = x @ dense.W.astype(np.float32).T
        z += dense.b.astype(np.float32)
        if dense.activation == nn.TANH:
            np.tanh(z, out=z)
        elif dense.activation == nn.SIGMOID:
            z = 1.0 / (1.0 + np.exp(-z))
        x = x + z if isinstance(layer, nn.Residual) else z
    return x


DECODER_ARCHS = {"proposed": {}, "no-shortcuts": {"use_shortcuts": False},
                 "no-alpha-to-rx": {"alpha_to_rx": False}, "no-res-blocks": {"n_res_blocks": 0}}


@pytest.mark.parametrize("side", ["scalar", "per-row"])
@pytest.mark.parametrize("arch", list(DECODER_ARCHS))
@pytest.mark.parametrize("csi_mode", ["perfect", "imperfect"])
def test_decoder_is_bit_identical_to_the_per_layer_path(csi_mode, arch, side):
    rng = np.random.default_rng(31)
    model = ZicAutoencoder(TrainConfig(n_channels=0, csi_mode=csi_mode, **DECODER_ARCHS[arch]),
                           rng)
    for layer in model._layers():  # nonzero biases and running statistics
        layer.params()[1][:] = rng.normal(0.0, 0.3, layer.params()[1].shape)
    model.rx1.bpn.running_ms[:] = (0.8, 1.3)
    model.rx2.bpn.running_ms[:] = (1.2, 0.7)
    noise_var = model.arch.noise_var(10.0)
    for n in (1, 7, 511, 512, 513, 1000, 4000):
        y1, y2 = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
        if side == "scalar":
            knows = CsiInputs(1.0, 0.95, 1.05, 0.1 if csi_mode == IMPERFECT else None)
        else:
            knows = CsiInputs(1.0, rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n),
                              rng.uniform(-0.4, 0.4, n) if csi_mode == IMPERFECT else None)
        hats = model.receive(y1, y2, knows, noise_var)
        for rx, y, (extras, eta), hat in zip((model.rx1, model.rx2), (y1, y2),
                                             model._side_inputs(knows, noise_var), hats):
            # the first-layer input as the per-layer path built it
            x = np.concatenate([rx.bpn.forward(np.stack([y.real, y.imag], axis=1), False)
                                * np.broadcast_to(eta, n)[:, None]]
                               + [np.broadcast_to(v, n)[:, None] for v in extras],
                               axis=1).astype(np.float32)
            slices = [(rows, p.copy()) for rows, p in rx.decode(y, extras, eta)]
            step = math.ceil(n / math.ceil(n / 512))  # equal slices of at most 512 rows
            assert [rows for rows, _ in slices] == [slice(a, min(a + step, n))
                                                    for a in range(0, n, step)]
            for rows, p in slices:
                want = per_layer_float32(rx, x[rows])
                assert p.dtype == np.float32 and np.array_equal(p, want), (n, rows)
                assert np.array_equal(hat[rows], want > 0.5)


@pytest.mark.parametrize("side", ["scalar", "per-draw"])
@pytest.mark.parametrize("csi_mode", ["perfect", "imperfect"])
def test_block_receive_equals_flat_receive(csi_mode, side):
    rng = np.random.default_rng(41)
    model = ZicAutoencoder(TrainConfig(n_channels=0, csi_mode=csi_mode, hidden_width=16,
                                       subnet2_width=4), rng)
    noise_var = model.arch.noise_var(10.0)
    for b, n in ((6, 300), (5, 1), (3, 0)):
        y1, y2 = (rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n)) for _ in range(2))
        if side == "scalar":
            sa, theta = (1.0, 0.95, 1.05), 0.1
        else:
            sa, theta = rng.uniform(0.5, 1.5, (3, b, 1)), rng.uniform(-0.4, 0.4, (b, 1))
        knows = CsiInputs(*sa, theta if csi_mode == IMPERFECT else None)
        # the same knowledge per row of the flattened samples
        flat = replace(knows, **{f.name: np.broadcast_to(v, (b, n)).ravel()
                                 for f in fields(knows) if np.ndim(v := getattr(knows, f.name))})
        hats = model.receive(y1, y2, knows, noise_var)
        refs = model.receive(y1.ravel(), y2.ravel(), flat, noise_var)
        for hat, ref in zip(hats, refs):
            assert hat.shape == (b, n, 2) and np.array_equal(hat, ref.reshape(b, n, 2))


@pytest.fixture(scope="module")
def imperfect_model():
    model, _ = train(TrainConfig(n_channels=100, epochs_per_channel=10, batch=500,
                                 alpha_min=0.9, alpha_max=1.1, seed=0, csi_mode="imperfect",
                                 sigma_e2=0.05, threshold_t=0.5, n_q=3))
    return model


@pytest.mark.parametrize("snr_db", [10.0, 25.0])
@pytest.mark.parametrize("csi_mode", ["perfect", "imperfect"])
def test_float32_receivers_decide_as_float64(request, csi_mode, snr_db):
    model = request.getfixturevalue("desk_model" if csi_mode == "perfect"
                                    else "imperfect_model")
    cfg = replace(model.arch, sigma_e2=0.05, threshold_t=0.5, n_q=3)
    rng = np.random.default_rng(22)
    for alpha in np.linspace(0.9, 1.1, 10):
        ctx = channel_context(cfg, alpha, snr_db, rng, 1).draw(0)
        bits1, bits2 = rng.integers(0, 2, size=(2, 400, 2))
        x1, x2 = model.transmit(bits1, bits2, encode_constellation(model, ctx.csi.sa_tx))
        y1, y2 = apply_channel(ctx.eq, x1, x2, rng)
        assert_float32_agrees(model, y1, y2, ctx.csi, ctx.noise_var)
    # an untrained model on random samples, with per-row intensity and phase
    untrained = ZicAutoencoder(TrainConfig(n_channels=0, hidden_width=16, subnet2_width=8,
                                           csi_mode=csi_mode), rng)
    y1, y2 = (rng.normal(size=1000) + 1j * rng.normal(size=1000) for _ in range(2))
    knows = CsiInputs(1.0, rng.uniform(0.0, 1.5, 1000), 1.0,
                      rng.uniform(-0.4, 0.4, 1000) if csi_mode == IMPERFECT else None)
    assert_float32_agrees(untrained, y1, y2, knows, untrained.arch.noise_var(snr_db))


def test_ablation_parameter_counts():
    _, full = _mini_model()
    _, lean = _mini_model(use_subnet2=False, alpha_to_subnet2=False)
    n_full = sum(p.size for p in full.params())
    n_lean = sum(p.size for p in lean.params())
    assert n_full > n_lean


def test_ablation_experiment_table():
    assert set(ABLATION_EXPERIMENTS) == {"proposed", "exp1", "exp2", "exp3",
                                         "exp4", "exp5", "exp6"}
    assert ABLATION_EXPERIMENTS["proposed"] == {}
    assert ABLATION_EXPERIMENTS["exp1"] == {"use_shortcuts": False}
    assert ABLATION_EXPERIMENTS["exp6"] == {"alpha_to_subnet2": False, "use_subnet2": False}


def test_train_zero_channels_returns_untrained_model():
    cfg = TrainConfig(**MINI, seed=7)
    model, log = train(cfg)
    assert log == []
    reference = ZicAutoencoder(cfg, np.random.default_rng(0))
    assert len(model.params()) == len(reference.params())


def test_train_is_deterministic():
    cfg = TrainConfig(**{**MINI, "n_channels": 4, "epochs_per_channel": 2}, seed=8)
    m1, log1 = train(cfg)
    m2, log2 = train(cfg)
    for a, b in zip(m1.params(), m2.params()):
        assert np.array_equal(a, b)
    assert log1 == log2


def test_train_loss_decreases_in_most_seeds():
    wins = 0
    for seed in range(10):
        cfg = TrainConfig(n_channels=20, epochs_per_channel=10, batch=256,
                          alpha_min=0.9, alpha_max=1.1, seed=seed)
        _, log = train(cfg)
        first = np.mean([r["loss"] for r in log[:3]])
        last = np.mean([r["loss"] for r in log[-3:]])
        wins += last < first
    assert wins >= 9


def test_train_imperfect_mode_runs():
    cfg = TrainConfig(**{**MINI, "n_channels": 3, "epochs_per_channel": 2},
                      csi_mode="imperfect", sigma_e2=0.05, n_q=3, seed=9)
    model, log = train(cfg)
    assert len(log) == 3
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, size=(32, 2)).astype(float)
    knows = CsiInputs(sa_tx=1.0, sa_rx1=1.05, sa_rx2=1.0, theta_delta=0.1)
    p1, p2 = model.forward(bits, bits, _unit_channel(), knows, 0.1, rng=rng)
    assert p1.shape == (32, 2)


def test_train_lr_decay_schedule():
    cfg = TrainConfig(**{**MINI, "n_channels": 5, "epochs_per_channel": 1},
                      decay_every=2, seed=11)
    _, log = train(cfg)
    lrs = [r["lr"] for r in log]
    assert lrs[0] == pytest.approx(0.01)
    assert lrs[1] == pytest.approx(0.0095)   # decayed after channel 2
    assert lrs[3] == pytest.approx(0.009025)
    assert lrs[4] == pytest.approx(0.009025)


def test_train_diverged_raises(monkeypatch):
    cfg = TrainConfig(**{**MINI, "n_channels": 1, "epochs_per_channel": 1}, seed=12)
    monkeypatch.setattr("zicae.autoencoder.nn.bce_loss", lambda s, p: float("nan"))
    with pytest.raises(TrainingDiverged):
        train(cfg)


def test_encode_constellation_shape_and_determinism():
    cfg = TrainConfig(n_channels=10, epochs_per_channel=5, batch=256,
                      alpha_min=0.9, alpha_max=1.1, seed=13)
    model, _ = train(cfg)
    c1, c2 = encode_constellation(model, 1.0)
    assert c1.size == 4 and c2.size == 4
    d1, d2 = encode_constellation(model, 1.0)
    assert np.array_equal(c1.points, d1.points)
    assert np.array_equal(c2.points, d2.points)


def test_encode_constellation_power_audit(desk_model):
    # inference-mode power uses frozen running statistics; only a properly
    # trained model has settled ones
    c1, c2 = encode_constellation(desk_model, 1.0)
    for c in (c1, c2):
        power = np.mean(np.abs(c.points) ** 2)
        assert power == pytest.approx(desk_model.arch.total_power, rel=0.05)


def test_noiseless_self_decoding_after_convergence(desk_model):
    # converged encoder/decoder pairs separate their own symbols exactly
    # when no noise is injected (the receiver still assumes the training
    # noise floor for its scaling)
    rng = np.random.default_rng(21)
    bits1 = rng.integers(0, 2, size=(4096, 2)).astype(float)
    bits2 = rng.integers(0, 2, size=(4096, 2)).astype(float)
    x1, x2 = desk_model.transmit(bits1, bits2, encode_constellation(desk_model, 1.0))
    y1 = x1 + 1.0 * x2
    y2 = x2
    knows = CsiInputs(sa_tx=1.0, sa_rx1=1.0, sa_rx2=1.0)
    hat1, hat2 = desk_model.receive(y1, y2, knows, noise_var=0.1)
    assert np.array_equal(hat1, bits1.astype(int))
    assert np.array_equal(hat2, bits2.astype(int))


def test_three_bit_symbols_train_and_encode():
    cfg = TrainConfig(n_bits=3, n_channels=2, epochs_per_channel=2, batch=64,
                      hidden_width=8, subnet2_width=4, alpha_min=0.9,
                      alpha_max=1.1, seed=20)
    model, _ = train(cfg)
    c1, c2 = encode_constellation(model, 1.0)
    assert c1.size == 8 and c2.size == 8


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(alpha_min=1.0, alpha_max=0.5)
    with pytest.raises(ValueError):
        TrainConfig(csi_mode="psychic")
    with pytest.raises(ValueError):
        TrainConfig(batch=0)


@pytest.mark.parametrize("key,value,rule", [
    ("alpha_min", -1.0, ">= 0"), ("alpha_min", -math.inf, "finite"),
    ("alpha_max", math.inf, "finite"), ("train_snr_db", math.nan, "finite"),
    ("train_snr_db", math.inf, "finite"), ("train_snr_db", -math.inf, "finite"),
])
def test_train_config_rejects_unusable_alpha_and_snr(key, value, rule):
    with pytest.raises(ValueError, match=f"{key} must be {rule}"):
        TrainConfig(**{key: value})
