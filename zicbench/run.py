"""Run one benchmark workload of zicae and print its metrics as JSON.

Usage, from the root of a source checkout::

    python3 zicbench/run.py --workload train-perfect --seed 1 --seconds 10 --trace 0

The run imports the package from ``src/`` of the checkout and repeats whole
rounds of the workload until ``--seconds`` have passed.  It sets up
(imports, configuration, model loading, scheme construction) several times,
once before the first round and the rest between rounds, and finally checks
the first round's outputs.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps the layer functions (see
``spans.py``) and reports per-layer metrics instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with environment facts, goes to
``zicbench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine more threads measure the
# scheduler, not the program.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import ROUND, SETUP, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, import_layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "zicbench"
N_SETUPS = 31


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    prepared = workload.prepare(ROOT)
    tracer = Tracer() if trace else None

    def phase(name):
        return nullcontext() if tracer is None else tracer.region(name)

    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        with phase(SETUP):
            mods = import_layers()
            if tracer is not None:
                tracer.uninstall()
                tracer.install(mods)
            state = workload.setup(mods, seed, prepared)
        setup_s.append(time.perf_counter() - t0)
        return state

    # Set-ups are spread over the run, one before the first round and the
    # rest between rounds, so that their median samples the same stretch of
    # machine speed as the rounds do.  Each round uses the newest set-up.
    state = set_up()
    round_s, texts, first = [], [], None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with phase(ROUND):
            out = workload.round(state)
        round_s.append(time.perf_counter() - t0)
        texts.append(workload.output_text(state, out))
        first = out if first is None else first
        share = min(1.0, (time.perf_counter() - started) / seconds) if seconds > 0 else 1.0
        while len(setup_s) < 1 + round((N_SETUPS - 1) * share):
            state = set_up()
        if share >= 1.0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if any(t != texts[0] for t in texts):
        problems.append("rounds on the same inputs gave different outputs")
    if tracer is not None:
        tracer.uninstall()
        if workload.output_text(state, workload.round(state)) != texts[0]:
            problems.append("traced and untraced rounds gave different outputs")
    failed_per_round, found = workload.check(state, first, seed)
    problems += found

    ops, steps, bits = workload.work(state, first)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "train_step_ms": {"value": statistics.median(1e3 * t / steps for t in round_s),
                              "unit": "ms"},
            "eval_mbit_s": {"value": statistics.median(bits / t / 1e6 for t in round_s),
                            "unit": "Mbit/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer)
    return {
        "correct": not problems,
        "attempted": ops * len(round_s),
        "failed": failed_per_round * len(round_s),
        "metrics": metrics,
        "record": {"setup_s": setup_s, "round_s": round_s, "problems": problems,
                   "ops_steps_bits_per_round": [ops, steps, bits]},
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zicae" / "__init__.py").is_file():
        print(f"error: no zicae package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    res = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in res["record"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    record = {"args": vars(args), "environment": environment(), **summary, **res["record"]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res["tracer"] is not None:
        res["tracer"].save(results / f"{stem}.spans.npz")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
