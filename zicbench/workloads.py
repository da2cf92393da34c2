"""The benchmark's workloads: inputs, one timed round, and output checks.

Each workload builds its inputs from ``--seed`` in :meth:`setup`, runs one
round of work through the public functions that ``zicae train`` and
``zicae eval`` call, and checks the first round's outputs against
computations made apart from the program (see ``oracle.py``) or against
properties the method must have.  Every round of a run repeats the same
operations on the same inputs, so rounds are interchangeable timing samples
and their outputs must be identical.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

LAYERS = ("nn", "channel", "modem", "autoencoder", "bersim", "modelio")

ALPHAS = (0.25, 1.0, 2.0)  # weak, moderate, strong interference

# A user-2 BER whose Chernoff tail bound under the oracle's law is below
# e^-20 (about 2e-9) fails the check.  Over 12 seeds x 12 points the correct
# program's lowest bound was e^-4.1; a 1.5 dB error in user 2's noise power
# gives bounds of e^-32 to e^-133 at 5 and 10 dB.
LOG_TAIL_LIMIT = -20.0


def import_layers() -> dict:
    """Import the layer modules afresh, dropping any earlier import of zicae."""
    for name in [k for k in sys.modules if k == "zicae" or k.startswith("zicae.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"zicae.{name}") for name in LAYERS}


def loss_log_text(log: list[dict]) -> str:
    """The loss log as ``zicae train`` writes it."""
    rows = ["channel,alpha,loss,lr"]
    rows += [f"{r['channel']},{r['alpha']!r},{r['loss']!r},{r['lr']!r}" for r in log]
    return "\n".join(rows) + "\n"


class Workload:
    """Interface of a workload; ``prepare`` builds what set-up reads, if anything."""

    name = ""

    def prepare(self, root: Path):
        return None


class TrainPerfect(Workload):
    """``autoencoder.train`` at the paper's scale per step, for two channels."""

    name = "train-perfect"
    n_channels = 2
    epochs = 10
    batch = 10000

    def setup(self, mods: dict, seed: int, prepared) -> dict:
        cfg = mods["autoencoder"].TrainConfig(
            n_bits=2, alpha_min=0.5, alpha_max=1.0, csi_mode="perfect",
            n_channels=self.n_channels, epochs_per_channel=self.epochs,
            batch=self.batch, hidden_width=64, n_res_blocks=2, subnet2_width=16,
            seed=seed)
        return {"mods": mods, "cfg": cfg}

    def round(self, state: dict):
        return state["mods"]["autoencoder"].train(state["cfg"])

    def output_text(self, state: dict, out) -> str:
        return loss_log_text(out[1])

    def work(self, state: dict, out) -> tuple[int, int, int]:
        """(operations, steps, bits per user) of one round; an operation is a step."""
        cfg = state["cfg"]
        steps = cfg.n_channels * cfg.epochs_per_channel
        return steps, steps, steps * cfg.batch * cfg.n_bits

    def check(self, state: dict, out, seed: int) -> tuple[int, list[str]]:
        model, log = out
        cfg = state["cfg"]
        problems = []
        losses = [r["loss"] for r in log]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite loss in {losses}")
        chance = 2 * cfg.n_bits * math.log(2.0)
        if not losses[-1] < min(losses[0], chance):
            problems.append(f"last channel loss {losses[-1]:.4f} not below first "
                            f"{losses[0]:.4f} and chance {chance:.4f}")
        rng = np.random.default_rng([seed, 1])
        bits = rng.integers(0, 2, size=(1000, cfg.n_bits)).astype(float)
        for alpha in (cfg.alpha_min, 0.5 * (cfg.alpha_min + cfg.alpha_max), cfg.alpha_max):
            for tx in (model.tx1, model.tx2):
                x = tx.forward(bits, math.sqrt(alpha), training=True)
                power = float(np.mean(np.sum(x * x, axis=1)))
                if abs(power - cfg.total_power) > 1e-9:
                    problems.append(f"training-mode batch power {power!r} at alpha "
                                    f"{alpha} differs from {cfg.total_power}")
        return 0, problems


class _Sweep(Workload):
    """Shared round of the two evaluation workloads: one ``bersim.sweep``.

    Set-up builds the scheme once, as ``zicae eval`` does before sweeping.
    Each round sweeps with a fresh copy, so that per-scheme caches (the
    rotation table of ``Baseline2``) start cold in every round, as in one
    ``zicae eval`` run, and every round does the same work.
    """

    def round(self, state: dict):
        return state["mods"]["bersim"].sweep(state["cfg"], self.scheme(state))

    def output_text(self, state: dict, out) -> str:
        return state["mods"]["bersim"].result_to_csv(out)

    def work(self, state: dict, out) -> tuple[int, int, int]:
        """(operations, channel draws, bits per user); an operation is a grid point."""
        n_points = len(out.points)
        n_bits = sum(p.n_bits_simulated for p in out.points)
        return n_points, n_points * state["cfg"].n_channel_draws, n_bits

    def _common_checks(self, state: dict, out) -> list[str]:
        cfg = state["cfg"]
        problems = []
        expected_bits = cfg.n_channel_draws * cfg.n_symbols_per_point * cfg.n_bits
        for p in out.points:
            if p.n_bits_simulated != expected_bits:
                problems.append(f"{p.snr_db} dB, alpha {p.alpha}: {p.n_bits_simulated} "
                                f"bits simulated, configured {expected_bits}")
            if p.ber_worst != max(p.ber_user1, p.ber_user2):
                problems.append(f"{p.snr_db} dB, alpha {p.alpha}: ber_worst "
                                f"{p.ber_worst} is not max(ber1, ber2)")
        return problems


class EvalQamImperfect(_Sweep):
    """Rotated QAM (``Baseline2``) with estimation error and 3-bit feedback."""

    name = "eval-qam-imperfect"
    snrs = (5.0, 10.0, 15.0, 20.0)
    sigma_e2 = 0.05
    threshold_t = 0.3

    def setup(self, mods: dict, seed: int, prepared) -> dict:
        bersim = mods["bersim"]
        cfg = bersim.EvalConfig(
            snr_grid_db=self.snrs, alpha_grid=ALPHAS, n_channel_draws=500,
            n_symbols_per_point=200, seed=seed, csi_mode="imperfect",
            sigma_e2=self.sigma_e2, threshold_t=self.threshold_t, n_q=3)
        state = {"mods": mods, "cfg": cfg}
        state["scheme"] = self.scheme(state)
        return state

    def scheme(self, state: dict):
        return state["mods"]["bersim"].Baseline2(state["cfg"].n_bits, state["cfg"].total_power)

    def check(self, state: dict, out, seed: int) -> tuple[int, list[str]]:
        cfg = state["cfg"]
        problems = self._common_checks(state, out)
        g, mag = oracle.accepted_user2_draws(100_000, cfg.sigma_e2, cfg.threshold_t,
                                             cfg.mu_h, cfg.sigma_h2,
                                             np.random.default_rng([seed, 2]))
        bits = cfg.n_channel_draws * cfg.n_symbols_per_point * cfg.n_bits
        for snr in self.snrs:
            a, b = oracle.user2_error_probs(g, mag, snr)
            log_mgf = oracle.log_mgf_per_draw(a, b, cfg.n_symbols_per_point, oracle.CHERNOFF_TS)
            expected = 0.5 * float(np.mean(a + b))
            for p in (p for p in out.points if p.snr_db == snr):
                errors = round(p.ber_user2 * bits)
                bound = oracle.log_tail_bound(errors, expected * bits,
                                              cfg.n_channel_draws, log_mgf)
                if bound < LOG_TAIL_LIMIT:
                    problems.append(f"{p.snr_db} dB, alpha {p.alpha}: user-2 BER "
                                    f"{p.ber_user2:.3e} against oracle {expected:.3e}; "
                                    f"tail probability below e^{bound:.1f}")
        floor = oracle.qpsk_ambiguity_floor(1.0)
        top = [p for p in out.points if p.alpha == 1.0 and p.snr_db == max(self.snrs)][0]
        if not top.ber_worst < 0.5 * floor:
            problems.append(f"worst BER {top.ber_worst} at alpha 1, {top.snr_db} dB is "
                            f"not well below the QPSK floor {floor}")
        return 0, problems


# One model per interference regime, trained at reduced scale from fixed
# seeds that do not depend on --seed: (alpha_min, alpha_max, seed).
DAE_MODELS = ((0.0, 0.5, 1), (0.5, 1.0, 2), (1.5, 2.5, 3))
TRAIN_SNR_DB = 10.0
DAE_TRAIN = {"n_channels": 60, "epochs_per_channel": 10, "batch": 500,
             "train_snr_db": TRAIN_SNR_DB}


class EvalDaePerfect(_Sweep):
    """``DaeScheme`` over three trained models with perfect CSI."""

    name = "eval-dae-perfect"
    snrs = (TRAIN_SNR_DB, 15.0, 20.0, 25.0)  # the training SNR, then points above it

    def prepare(self, root: Path) -> list[Path]:
        """Train the models once per version of the program; return their paths."""
        digest = hashlib.sha256(repr((DAE_MODELS, DAE_TRAIN)).encode())
        for path in sorted((root / "src" / "zicae").glob("*.py")):
            digest.update(path.name.encode() + path.read_bytes())
        cache = root / "zicbench" / ".cache" / f"dae-{digest.hexdigest()[:16]}"
        paths = [cache / f"a{lo:g}-{hi:g}.zicmodel" for lo, hi, _ in DAE_MODELS]
        if not all(p.exists() for p in paths):
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            subprocess.run([sys.executable, str(Path(__file__).with_name("prepare.py")),
                            str(cache)], check=True, env=env, stdout=subprocess.DEVNULL)
        return paths

    def setup(self, mods: dict, seed: int, prepared: list[Path]) -> dict:
        bersim = mods["bersim"]
        cfg = bersim.EvalConfig(snr_grid_db=self.snrs, alpha_grid=ALPHAS,
                                n_channel_draws=40, n_symbols_per_point=500, seed=seed)
        state = {"mods": mods, "cfg": cfg,
                 "models": [mods["modelio"].load_model(p) for p in prepared]}
        state["scheme"] = scheme = self.scheme(state)
        for alpha in ALPHAS:
            scheme.route(alpha)  # fail in set-up if no model covers a grid alpha
        return state

    def scheme(self, state: dict):
        return state["mods"]["bersim"].DaeScheme(state["models"])

    def failed_points(self, out) -> list:
        """Points above the training SNR whose worst BER is not below the one at it."""
        base = {p.alpha: p.ber_worst for p in out.points if p.snr_db == self.snrs[0]}
        return [p for p in out.points
                if p.snr_db > self.snrs[0] and not p.ber_worst < base[p.alpha]]

    def check(self, state: dict, out, seed: int) -> tuple[int, list[str]]:
        mods, cfg, scheme = state["mods"], state["cfg"], state["scheme"]
        autoencoder, bersim = mods["autoencoder"], mods["bersim"]
        problems = self._common_checks(state, out)
        rng = np.random.default_rng([seed, 3])
        weights = 1 << np.arange(cfg.n_bits - 1, -1, -1)
        for alpha in ALPHAS:
            model = scheme.route(alpha)
            ctx = bersim.ideal_context(alpha, self.snrs[0], cfg.total_power)
            bits1 = rng.integers(0, 2, size=(1000, cfg.n_bits))
            bits2 = rng.integers(0, 2, size=(1000, cfg.n_bits))
            x1, x2 = scheme.transmit(bits1, bits2, ctx)
            c1, c2 = autoencoder.encode_constellation(model, math.sqrt(alpha))
            gap = max(np.max(np.abs(x1 - c1.points[bits1 @ weights])),
                      np.max(np.abs(x2 - c2.points[bits2 @ weights])))
            if gap > 1e-12:
                problems.append(f"alpha {alpha}: transmit differs from the "
                                f"encode_constellation lookup by {gap:.3e}")
            y1, y2 = mods["channel"].apply_channel(ctx.eq, x1, x2, rng)
            sa = math.sqrt(alpha)
            knows = autoencoder.CsiInputs(sa_tx=sa, sa_rx1=sa, sa_rx2=sa)
            whole = model.receive(y1, y2, knows, ctx.noise_var)
            cuts = [0, 1, 8, 300, 1000]
            pieces = [model.receive(y1[a:b], y2[a:b], knows, ctx.noise_var)
                      for a, b in zip(cuts, cuts[1:])]
            for user in (0, 1):
                if not np.array_equal(whole[user], np.concatenate([p[user] for p in pieces])):
                    problems.append(f"alpha {alpha}: user {user + 1} bits differ when "
                                    "the block is decoded in pieces")
        floor = oracle.qpsk_ambiguity_floor(1.0)
        base = [p for p in out.points if p.alpha == 1.0 and p.snr_db == self.snrs[0]][0]
        if not base.ber_worst < floor:
            problems.append(f"worst BER {base.ber_worst} at alpha 1, training SNR is "
                            f"not below the QPSK floor {floor}")
        return len(self.failed_points(out)), problems


WORKLOADS = {w.name: w for w in (TrainPerfect(), EvalQamImperfect(), EvalDaePerfect())}
