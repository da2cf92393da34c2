"""Reference computations made apart from the program under test.

Nothing here imports ``zicae``: the QPSK alphabet, the keep rule of the
imperfect-CSI estimator and the user-2 error probability are written out
again from their definitions, so a check against them is a check of the
program, not of a copy of it.
"""

from __future__ import annotations

import math

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x) = P(N(0,1) > x), elementwise."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0)).astype(float)


def gray_qpsk() -> np.ndarray:
    """Unit-power Gray QPSK indexed by its 2-bit label, MSB on the in-phase sign."""
    a = math.sqrt(0.5)
    return np.array([a * complex(2 * (i >> 1) - 1, 2 * (i & 1) - 1) for i in range(4)])


def qpsk_ambiguity_floor(cross: complex = 1.0) -> float:
    """Receiver-1 BER of standard QPSK at both transmitters without noise.

    Joint ML detection over all 16 symbol pairs of the composite
    p1 + cross*p2, with exact ties broken toward the lowest hypothesis index
    i1*4 + i2.  At cross = 1 opposite symbols cancel and equal composites
    carry different p1 labels, so the BER stays above zero at any SNR.
    """
    pts = gray_qpsk()
    comp = np.array([p1 + cross * p2 for p1 in pts for p2 in pts])
    errors = 0
    for true in range(16):
        dist = np.abs(comp - comp[true])
        guess = int(np.flatnonzero(dist <= dist.min() + 1e-12)[0])
        errors += bin((true >> 2) ^ (guess >> 2)).count("1")
    return errors / (16 * 2)


def _cn(rng: np.random.Generator, mean: complex, var: float, n: int) -> np.ndarray:
    """CN(mean, var): independent real and imaginary parts of variance var/2."""
    z = rng.standard_normal((n, 2))
    return mean + math.sqrt(var / 2.0) * (z[:, 0] + 1j * z[:, 1])


def accepted_user2_draws(n: int, sigma_e2: float, threshold_t: float, mu_h: complex,
                         sigma_h2: float, rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n`` kept channels; return g = h22/hhat22 and |hhat22|.

    The keep rule max(|e11/hhat11|, |e22/hhat22|, |e21/hhat11|) < T does not
    involve the cross gain h21, so user 2's law is the same at every alpha.
    """
    gs, mags = [], []
    kept = 0
    while kept < n:
        m = 2 * (n - kept) + 1000
        h11, h22 = _cn(rng, mu_h, sigma_h2, m), _cn(rng, mu_h, sigma_h2, m)
        e11, e21, e22 = (_cn(rng, 0.0, sigma_e2, m) for _ in range(3))
        hhat11, hhat22 = h11 - e11, h22 - e22
        ratio = np.maximum(np.maximum(np.abs(e11 / hhat11), np.abs(e22 / hhat22)),
                           np.abs(e21 / hhat11))
        keep = ratio < threshold_t
        gs.append(h22[keep] / hhat22[keep])
        mags.append(np.abs(hhat22[keep]))
        kept += int(keep.sum())
    return np.concatenate(gs)[:n], np.concatenate(mags)[:n]


def user2_error_probs(g: np.ndarray, hhat_mag: np.ndarray, snr_db: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw bit error probabilities (A, B) of user 2's QPSK, any rotation.

    Rx2 equalizes with hhat22, so y = g*x + n with per-component noise
    variance sigma^2/(2|hhat22|^2) and quadrant decisions.  With
    k = |hhat22| sqrt(P/sigma^2) (the SNR in dB is P/sigma^2), a symbol
    whose two bits agree in sign has in-phase error probability
    A = Q(k(g_r - g_i)) and quadrature error probability B = Q(k(g_r + g_i));
    otherwise the two swap.  Either bit's error rate is (A + B)/2.
    """
    k = hhat_mag * math.sqrt(10.0 ** (snr_db / 10.0))
    return qfunc(k * (g.real - g.imag)), qfunc(k * (g.real + g.imag))


def log_mgf_per_draw(a: np.ndarray, b: np.ndarray, n_symbols: int,
                     ts: np.ndarray) -> np.ndarray:
    """log E[exp(t * errors of one draw)] for each t, over the sampled draws.

    Given the channel, a symbol's two bit errors have the generating function
    (1 - A + A e^t)(1 - B + B e^t) whichever bit pattern was sent, and
    symbols are independent, so a draw of ``n_symbols`` raises it to that
    power.  Averaging over the sampled draws keeps the whole between-draw
    spread, rare deep fades included.
    """
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        e = math.expm1(t)
        x = n_symbols * (np.log1p(a * e) + np.log1p(b * e))
        top = x.max()
        out[i] = top + math.log(np.mean(np.exp(x - top)))
    return out


CHERNOFF_TS = np.concatenate([-np.geomspace(30.0, 1e-3, 60), np.geomspace(1e-3, 30.0, 60)])


def log_tail_bound(errors: int, mean_errors: float, n_draws: int, log_mgf: np.ndarray,
                   ts: np.ndarray = CHERNOFF_TS) -> float:
    """Chernoff bound on log P(error count at least as far out as ``errors``).

    The count is a sum of ``n_draws`` independent draws whose log generating
    function is ``log_mgf`` (on ``ts``) and whose mean is ``mean_errors``.
    The bound is for the side of the mean that ``errors`` lies on; 0 means
    no evidence against the model.
    """
    side = ts > 0 if errors >= mean_errors else ts < 0
    return float(min(0.0, np.min(-ts[side] * errors + n_draws * log_mgf[side])))
