"""Repeat one workload over several seeds and summarize each metric.

Usage, from the root of a source checkout::

    python3 zicbench/spread.py --workload eval-dae-perfect --seeds 1-10 --seconds 10

Runs ``zicbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median.  It also prints the share of
failed operations of every run, which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="range 1-10 or list 1,4,7")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "zicbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed shares: {shares}")
    for name, s in summarize(runs).items():
        print(f"  {name:30s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
