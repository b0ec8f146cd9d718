"""Repeat the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads profiles,twists,configs \
        --seeds 1-10 [--seconds 20] [--trace 0] [--out summary.json] [--note TEXT]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With ``--out`` the summary
is also written as JSON, with every run's value and a ``run`` record of the
seeds, seconds, interpreter, machine and ``--note``.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    summary = {"run": {
        "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "note": args.note,
    }}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        names = runs[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {
                name: dict(unit=runs[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in runs]))
                for name in names
            },
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"attempted={summary[workload]['attempted']}")
        for name, stats in summary[workload]["metrics"].items():
            print(f"  {name:26s} median {stats['median']:14.4f} {stats['unit']:14s} "
                  f"spread {stats['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
