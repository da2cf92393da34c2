"""Finite-difference verification of the end-to-end analytic gradients.

Builds a miniature system (noise disabled so the loss is deterministic),
backpropagates once (with a frozen ``receive`` and ``encode_constellation``
between forward and backward), then perturbs every parameter entry with
central differences and compares.  The reference behind acceptance
criterion C1.
"""

from __future__ import annotations

import numpy as np

from zicae import nn
from zicae.autoencoder import TrainConfig, ZicAutoencoder, encode_constellation
from zicae.channel import IMPERFECT, PERFECT, CsiInputs, EquivalentChannel

FD_STEP = 1e-5


def _system_loss(model: ZicAutoencoder, bits1, bits2, eq, knows, noise_var) -> float:
    p1, p2 = model.forward(bits1, bits2, eq, knows, noise_var, rng=None)
    return nn.bce_loss(bits1, p1) + nn.bce_loss(bits2, p2)


def max_relative_gradient_error(seed: int = 0, batch: int = 16, n_bits: int = 2,
                                hidden_width: int = 8, subnet2_width: int = 4,
                                n_res_blocks: int = 2, csi_mode: str = PERFECT,
                                step: float = FD_STEP) -> float:
    """Largest relative analytic-vs-numeric gradient error over all parameters."""
    cfg = TrainConfig(n_channels=0, n_bits=n_bits, batch=batch,
                      hidden_width=hidden_width, subnet2_width=subnet2_width,
                      n_res_blocks=n_res_blocks, csi_mode=csi_mode,
                      alpha_min=0.5, alpha_max=1.5)
    rng = np.random.default_rng(seed)
    model = ZicAutoencoder(cfg, rng)

    bits1 = rng.integers(0, 2, size=(batch, n_bits)).astype(float)
    bits2 = rng.integers(0, 2, size=(batch, n_bits)).astype(float)
    alpha = 1.2
    eq = EquivalentChannel(1.0 + 0j, complex(np.sqrt(alpha)), 1.0 + 0j, 0.08, 0.11)
    theta = 0.1 if csi_mode == IMPERFECT else None
    knows = CsiInputs(sa_tx=float(np.sqrt(alpha)), sa_rx1=float(np.sqrt(alpha)),
                      sa_rx2=float(np.sqrt(alpha)), theta_delta=theta)
    noise_var = cfg.noise_var(cfg.train_snr_db)

    p1, p2 = model.forward(bits1, bits2, eq, knows, noise_var, rng=None)
    # a probe: inference writes nothing, so these passes must leave the gradients alone
    y = np.linspace(-2.0, 2.0, 2 * batch) + 0.5j
    model.receive(y, y[::-1], knows, noise_var)
    encode_constellation(model, 0.5)
    model.backward(bits1, bits2, p1, p2)
    analytic = [g.copy() for g in model.grads()]

    worst = 0.0
    for p, g in zip(model.params(), analytic):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            lo_hi = _system_loss(model, bits1, bits2, eq, knows, noise_var)
            flat[i] = saved - step
            lo_lo = _system_loss(model, bits1, bits2, eq, knows, noise_var)
            flat[i] = saved
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            denom = max(abs(numeric) + abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst
