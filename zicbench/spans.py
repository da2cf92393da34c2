"""Span tracing of the zicae layers, installed from outside the package.

A :class:`Tracer` replaces public functions and methods of the layer modules
(``nn``, ``autoencoder``, ``channel``, ``modem``, ``bersim``, ``modelio``)
with wrappers that record one span per call: name, start, end and parent.
Spans stay in memory until the run ends.  Counters are bumped at the same
boundaries, so ratios are measured where the work happens.

Modules bind some functions of other modules by name at import
(``from .channel import draw_channel``), so a function wrapper replaces every
binding of the original object in every loaded ``zicae`` module, not only the
attribute of the module that defines it.  Methods are wrapped on their class.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

SETUP = "bench.setup"
ROUND = "bench.round"


def dense_flops(rows: int, n_in: int, n_out: int, backward: bool = False) -> int:
    """Multiply-add count (2 flops each) of a dense layer's matrix products.

    Forward is ``x @ W.T`` (rows x n_in by n_in x n_out).  Backward is
    ``gz.T @ x`` for the weight gradient plus ``gz @ W`` for the input
    gradient, twice the forward count.  Bias adds and activations are not
    counted.
    """
    flops = 2 * rows * n_in * n_out
    return 2 * flops if backward else flops


def _calls(args) -> int:
    return 1


def _dense_forward_flops(args) -> int:
    layer, x = args[0], args[1]
    return dense_flops(len(x), layer.W.shape[1], layer.W.shape[0])


def _dense_backward_flops(args) -> int:
    layer, grad = args[0], args[1]
    return dense_flops(len(grad), layer.W.shape[1], layer.W.shape[0], backward=True)


# (module, qualified attribute, span name, (counter, increment from the call's
# arguments) or None)
TARGETS = (
    ("nn", "Dense.forward", "nn.dense_forward", ("nn.dense_flop", _dense_forward_flops)),
    ("nn", "Dense.backward", "nn.dense_backward", ("nn.dense_flop", _dense_backward_flops)),
    ("nn", "Residual.forward", "nn.residual", None),
    ("nn", "Residual.backward", "nn.residual", None),
    ("nn", "BatchPowerNorm.forward", "nn.norm", None),
    ("nn", "BatchPowerNorm.backward", "nn.norm", None),
    ("nn", "PowerNorm.forward", "nn.norm", None),
    ("nn", "PowerNorm.backward", "nn.norm", None),
    ("nn", "gaussian_noise", "nn.noise", None),
    ("nn", "bce_loss", "nn.loss", None),
    ("nn", "bce_loss_grad", "nn.loss", None),
    ("nn", "Adam.step", "nn.adam_step", None),
    ("autoencoder", "train", "autoencoder.train", None),
    ("autoencoder", "ZicAutoencoder.forward", "autoencoder.forward", None),
    ("autoencoder", "ZicAutoencoder.backward", "autoencoder.backward", None),
    ("autoencoder", "ZicAutoencoder.transmit", "autoencoder.transmit",
     ("autoencoder.transmit_rows", lambda a: len(a[1]) + len(a[2]))),
    ("autoencoder", "ZicAutoencoder.receive", "autoencoder.receive", None),
    ("channel", "draw_channel", "channel.draw_channel", None),
    ("channel", "estimate", "channel.estimate", ("channel.estimate_attempts", _calls)),
    ("channel", "draw_accepted_estimate", "channel.accepted_estimate",
     ("channel.accepted", _calls)),
    ("channel", "make_feedback", "channel.feedback", None),
    ("channel", "normalize_imperfect", "channel.normalize", None),
    ("channel", "apply_channel", "channel.apply_channel", None),
    ("modem", "modulate", "modem.modulate", None),
    ("modem", "detect_rx1", "modem.detect_rx1",
     ("modem.distance_evals", lambda a: np.size(a[0]) * a[1].size * a[2].size)),
    ("modem", "detect_rx2", "modem.detect_rx2",
     ("modem.distance_evals", lambda a: np.size(a[0]) * a[1].size)),
    ("modem", "best_rotation", "modem.best_rotation", ("modem.best_rotation_calls", _calls)),
    ("bersim", "sweep", "bersim.sweep", None),
    ("bersim", "evaluate_point", "bersim.evaluate_point", None),
    ("bersim", "draw_context", "bersim.draw_context", ("bersim.channel_draws", _calls)),
    ("bersim", "run_point", "bersim.run_point", ("bersim.symbols", lambda a: a[2])),
    ("modelio", "load_model", "modelio.load_model",
     ("modelio.bytes_read", lambda a: os.path.getsize(a[0]))),
)


class Tracer:
    """In-memory span recorder plus counters; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """Root or intermediate span around benchmark code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span, and bumping ``count``, per call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counts[count[0]] += count[1](args)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> module object)."""
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "zicae" or k.startswith("zicae."))]
        for mod_name, attr, span, count in TARGETS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self.wrap(span, original, count)
            bindings = [(owner, leaf)] if path else [
                (m, name) for m in loaded for name, value in vars(m).items()
                if value is original]
            for holder, name in bindings:
                self._undo.append((holder, name, original))
                setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children are disjoint and lie inside
    their parent; the time they cover is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (parents precede children)."""
    out = np.arange(len(parent))
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = out[p]
    return out


# per-layer metric -> (span name, "total" or "self", phase root)
_TIMES = {
    "nn.dense_forward_s": ("nn.dense_forward", "total", ROUND),
    "nn.dense_backward_s": ("nn.dense_backward", "total", ROUND),
    "nn.residual_self_s": ("nn.residual", "self", ROUND),
    "nn.norm_s": ("nn.norm", "total", ROUND),
    "nn.noise_s": ("nn.noise", "total", ROUND),
    "nn.loss_s": ("nn.loss", "total", ROUND),
    "nn.adam_step_s": ("nn.adam_step", "total", ROUND),
    "autoencoder.train_self_s": ("autoencoder.train", "self", ROUND),
    "autoencoder.forward_self_s": ("autoencoder.forward", "self", ROUND),
    "autoencoder.backward_self_s": ("autoencoder.backward", "self", ROUND),
    "autoencoder.transmit_s": ("autoencoder.transmit", "total", ROUND),
    "autoencoder.receive_s": ("autoencoder.receive", "total", ROUND),
    "channel.accepted_estimate_s": ("channel.accepted_estimate", "total", ROUND),
    "channel.feedback_s": ("channel.feedback", "total", ROUND),
    "channel.normalize_s": ("channel.normalize", "total", ROUND),
    "channel.draw_channel_s": ("channel.draw_channel", "total", ROUND),
    "channel.apply_channel_s": ("channel.apply_channel", "total", ROUND),
    "modem.detect_rx1_s": ("modem.detect_rx1", "total", ROUND),
    "modem.detect_rx2_s": ("modem.detect_rx2", "total", ROUND),
    "modem.modulate_s": ("modem.modulate", "total", ROUND),
    "modem.best_rotation_s": ("modem.best_rotation", "total", ROUND),
    "bersim.evaluate_point_self_s": ("bersim.evaluate_point", "self", ROUND),
    "bersim.draw_context_self_s": ("bersim.draw_context", "self", ROUND),
    "bersim.run_point_self_s": ("bersim.run_point", "self", ROUND),
    "modelio.load_model_s": ("modelio.load_model", "total", SETUP),
}

# per-layer counter metric -> (counter, unit, phase root)
_COUNTS = {
    "nn.dense_gflop": ("nn.dense_flop", "GFLOP", ROUND),
    "autoencoder.transmit_rows": ("autoencoder.transmit_rows", "count", ROUND),
    "channel.estimate_attempts": ("channel.estimate_attempts", "count", ROUND),
    "modem.best_rotation_calls": ("modem.best_rotation_calls", "count", ROUND),
    "modem.distance_evals": ("modem.distance_evals", "count", ROUND),
    "bersim.channel_draws": ("bersim.channel_draws", "count", ROUND),
    "bersim.symbols": ("bersim.symbols", "count", ROUND),
    "modelio.bytes_read": ("modelio.bytes_read", "B", SETUP),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics, each per repetition of the phase it runs in.

    Times and counts of the timed phase are divided by the number of
    ``bench.round`` spans, those of set-up (model loading) by the number of
    ``bench.setup`` spans.  A layer that does not run reads 0.  Counters are
    only bumped inside phase regions, so they share the same divisors.
    """
    a = tracer.arrays()
    parent = a["parent"]
    label = a["names"][a["name_id"]] if len(parent) else np.array([], dtype=str)
    root_label = label[roots(parent)]
    total = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], parent)
    reps = Counter(label[parent < 0].tolist())

    out = {}
    for metric, (span, kind, phase) in _TIMES.items():
        sel = (label == span) & (root_label == phase)
        value = float(np.sum((total if kind == "total" else own)[sel]))
        out[metric] = {"value": value / max(1, reps[phase]), "unit": "s"}
    for metric, (counter, unit, phase) in _COUNTS.items():
        value = tracer.counts[counter] / max(1, reps[phase])
        out[metric] = {"value": value / 1e9 if unit == "GFLOP" else value, "unit": unit}
    dense_s = out["nn.dense_forward_s"]["value"] + out["nn.dense_backward_s"]["value"]
    out["nn.dense_gflop_per_s"] = {
        "value": out["nn.dense_gflop"]["value"] / dense_s if dense_s > 0 else 0.0,
        "unit": "GFLOP/s"}
    attempts = tracer.counts["channel.estimate_attempts"]
    out["channel.acceptance_ratio"] = {
        "value": tracer.counts["channel.accepted"] / attempts if attempts else 0.0,
        "unit": "ratio"}
    return out
