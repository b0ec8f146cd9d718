"""sbcurves benchmark: three CLI journeys, checked against a reference.

    python3 bench/run.py --workload profiles|twists|configs --seed N \
        --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/``.  One
process, one thread, one client in a closed loop: each operation is one CLI
query, ``sbcurves.cli.main(argv)`` in-process with its output captured, and
the next query starts when the previous one has returned.  Every output is
checked against ``oracle.py``.  Queries run in rounds of seeded input
(``workloads.py``) until the queries' own wall time reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every query
untraced and traced (``tracing.py``) and prints the per-layer metrics and
the tracing overhead: the traced ``cli.main`` time over the untraced one.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; diagnostics,
including the unscaled wall times, go to standard error.  Configuration
files are written under ``.bench_work/`` in the checkout and removed at exit.

Times are reference-speed times.  A shared machine can run at very
different speeds for tens of seconds at a time, which no amount of
repetition inside one run averages out.  So every query is bracketed by a
fixed pure-Python kernel that does not use sbcurves, and its wall time is
scaled by ``REFERENCE_S`` over the mean kernel time around it; cold-start
probes are scaled the same way by a bare interpreter start (``ColdStart``).
A time reads as it would on a machine where those take the reference times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads
from workloads import ConfigFile, Query, config_queries, config_text, family_graph, family_query, feasible_query

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ".bench_work"
PROBES = 15  # cold-start probe pairs per run; the medians are reported
PROBE_TIMEOUT = 60
# Kernel time, and ``python -c pass`` time, on the machine the baseline was
# taken on (2 vCPU x86-64 cloud VM, CPython 3.11) in its fast state.
REFERENCE_S = 0.0035
REFERENCE_START_S = 0.05


def kernel_seconds() -> float:
    """Wall time of a fixed mix of integer, dict, Fraction and str work."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table, acc, parts = {}, Fraction(0), []
    for i in range(600):
        table[(i, i + 1)] = str(i)
        acc += Fraction(i % 13 - 6, i % 5 + 1)
        parts.append(f"{i}:{acc.denominator}")
    "  ".join(parts).split()
    return time.perf_counter() - start


class Clock:
    """Scales wall times by REFERENCE_S over the kernel time around them."""

    def __init__(self):
        self.last = kernel_seconds()

    def refresh(self):
        self.last = kernel_seconds()

    def scale(self, wall: float) -> float:
        """Scale a wall time measured since the previous kernel run."""
        before, self.last = self.last, kernel_seconds()
        return wall * REFERENCE_S * 2 / (before + self.last)


def load_program():
    """Import ``sbcurves.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sbcurves" / "cli.py").is_file():
        sys.exit(f"error: no sbcurves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sbcurves import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: sbcurves was imported from {cli.__file__}, not from {SRC}")
    return cli


def warmup_file() -> ConfigFile:
    """A fixed small embedded pentagon for the configs warm-up."""
    graph = family_graph("ngon", 5)
    text = config_text(graph, random.Random("warmup"), "cycles", 5)
    return ConfigFile(f"{WORKDIR}/warmup.cfg", text, graph, 5, "cycles")


def warmup_queries(workload: str, warm: ConfigFile) -> list:
    """The queries a fresh process runs before the workload is measured."""
    if workload == "profiles":
        return [feasible_query(5, 0, "json")]
    if workload == "twists":
        return [family_query("ngon", 5, "json", (0, 1), True)]
    return config_queries(warm, random.Random("warmup"), workloads.ALL_COMMANDS, (0, 1))


def smallest_query(workload: str, warm: ConfigFile) -> Query:
    """The cheapest query of each workload, for the one-shot CLI probe."""
    if workload == "profiles":
        return feasible_query(5, 0, "table")
    if workload == "twists":
        return family_query("ngon", 5, "table", (0,))
    return config_queries(warm, random.Random("smallest"), ("check-config",))[0]


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.failures = []

    def call(self, argv):
        """(status, stdout, wall seconds) of one in-process CLI query."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed query, not a crashed run
            status = f"exception {exc!r}"
        return status, out.getvalue(), time.perf_counter() - start

    def verify(self, q, status, out) -> bool:
        why = oracle.check(q, status, out)
        if why is not None:
            self.failures.append(f"{' '.join(q.argv)}: {why}")
        return why is None


def write_files(files):
    for cfg in files:
        Path(cfg.path).write_text(cfg.text, encoding="utf-8")


def rounds(workload, seed, tiny, clock):
    """Each round's queries, with its configuration files written."""
    number = 0
    while True:
        files, queries = workloads.round_queries(workload, seed, number, WORKDIR, tiny)
        write_files(files)
        gc.collect()
        clock.refresh()
        yield queries
        number += 1


SETUP_CHILD = """
import contextlib, io, json, sys
from sbcurves import cli
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    results.append([status, buf.getvalue()])
print(json.dumps(results))
"""


class ColdStart:
    """Set-up and one-shot CLI probes, one child process at a time.

    Set-up: a fresh interpreter imports ``sbcurves.cli`` and finishes the
    workload's warm-up queries.  One-shot: ``python -m sbcurves`` runs the
    workload's smallest query.  One pair runs after each measured round, so
    the probes sample the whole run.  A bare ``python -c pass`` runs before,
    between and after the two, and each probe's wall time is scaled by
    ``REFERENCE_START_S`` over the mean bare time around it: process start-up
    slows down differently from in-process work, so the kernel would not do.
    """

    def __init__(self, runner, warm_qs, small_q):
        self.runner = runner
        self.warm_qs = warm_qs
        self.small_q = small_q
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.bare_argv = [sys.executable, "-c", "pass"]
        self.setup_argv = [sys.executable, "-c", SETUP_CHILD, json.dumps([q.argv for q in warm_qs])]
        self.cold_argv = [sys.executable, "-m", "sbcurves", *small_q.argv]
        self.setups, self.colds, self.walls = [], [], []

    def _child(self, argv):
        """(wall seconds, stdout) of one child process, started and reaped here."""
        start = time.perf_counter()
        done = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, check=False)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
        return wall, done.stdout

    def pair(self):
        bare_before, _ = self._child(self.bare_argv)
        setup, stdout = self._child(self.setup_argv)
        for q, (status, out) in zip(self.warm_qs, json.loads(stdout)):
            self.runner.verify(q, status, out)
        bare_between, _ = self._child(self.bare_argv)
        cold, stdout = self._child(self.cold_argv)
        self.runner.verify(self.small_q, 0, stdout)
        bare_after, _ = self._child(self.bare_argv)
        self.walls.append(cold)
        self.setups.append(setup * 2 * REFERENCE_START_S / (bare_before + bare_between))
        self.colds.append(cold * 2 * REFERENCE_START_S / (bare_between + bare_after))

    def medians(self):
        while len(self.setups) < PROBES:
            self.pair()
        return statistics.median(self.setups), statistics.median(self.colds)


def percentile(values, p):
    """Inclusive linear-interpolation percentile, p in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(runner, workload, seed, seconds, tiny, warm_qs, small_q):
    """Whole rounds until the queries' own wall time reaches ``seconds``."""
    clock = Clock()
    probes = ColdStart(runner, warm_qs, small_q)
    latencies, walls, failed = [], [], 0
    for queries in rounds(workload, seed, tiny, clock):
        for q in queries:
            status, out, wall = runner.call(q.argv)
            latencies.append(clock.scale(wall))
            walls.append(wall)
            failed += not runner.verify(q, status, out)
        if len(probes.setups) < PROBES:
            probes.pair()
        if sum(walls) >= seconds:
            break
    setup_s, cold_s = probes.medians()
    attempted = len(latencies)
    print(f"{attempted} queries; {attempted - int(attempted * 0.9)} lie beyond p90. Unscaled: "
          f"{attempted / sum(walls):.4g} ops/s, p50 {percentile(walls, 50) * 1000:.4g} ms, "
          f"p90 {percentile(walls, 90) * 1000:.4g} ms, probes {statistics.median(probes.walls):.4g} s",
          file=sys.stderr)
    metrics = {
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "cli_cold_ms": (cold_s * 1000, "ms"),
    }
    return attempted, failed, metrics


def per_layer(runner, workload, seed, seconds, tiny):
    import tracing  # imports sbcurves, which load_program has put on the path

    clock = Clock()
    recorder = tracing.Recorder()
    attempted = failed = cli_failed = 0
    plain_total = traced_total = spent = 0.0
    output_bytes = cells = 0
    for queries in rounds(workload, seed, tiny, clock):
        for q in queries:
            attempted += 1
            recorder.query = attempted
            ok = True
            # alternate which of the two runs of a query goes first
            for traced in (False, True) if attempted % 2 else (True, False):
                if not traced:
                    status, out, wall = runner.call(q.argv)
                    plain_total += clock.scale(wall)
                    spent += wall
                    ok &= runner.verify(q, status, out)
                    continue
                start = time.perf_counter()
                with tracing.installed(recorder), recorder.span("cli.main"):
                    status, out, wall = runner.call(q.argv)
                whole = time.perf_counter() - start
                factor = clock.scale(whole) / whole
                recorder.scale[attempted] = factor
                traced_total += wall * factor
                spent += whole
                cli_failed += status != 0
                ok &= runner.verify(q, status, out)
                output_bytes += len(out)
            failed += not ok
            if q.graph is not None:
                ms = list(q.twists) + ([0, 1] if q.smoothing else [])
                cells += sum(oracle.matrix_cells(q.graph, m, q.ambient_dim) for m in ms)
        if spent >= seconds:
            break

    selfs = recorder.self_times()
    count = recorder.counts
    twist_calls = sum(1 for span in recorder.spans if span[1] == "cohomology.twist")

    def ms(name):
        return selfs[name] * 1000 / attempted

    def rate(total, name):
        return total / selfs[name] if selfs[name] > 0 else 0.0

    metrics = {
        "cli.self_ms": (ms("cli.main"), "ms"),
        "cli.output_bytes": (output_bytes / attempted, "bytes"),
        "classify.enumerate_ms": (ms("classify.enumerate"), "ms"),
        "classify.profiles": (count["classify.profiles"] / attempted, "count"),
        "classify.profiles_per_s": (rate(count["classify.profiles"], "classify.enumerate"), "1/s"),
        "cohomology.twist_ms": (ms("cohomology.twist"), "ms"),
        "cohomology.smoothing_ms": (ms("cohomology.smoothing"), "ms"),
        "cohomology.twist_calls": (twist_calls / attempted, "count"),
        "cohomology.matrix_cells": (cells / attempted, "cells_computed"),
        "cohomology.embed_ms": (ms("cohomology.embed"), "ms"),
        "configfile.parse_ms": (ms("configfile.parse"), "ms"),
        "configfile.lines": (count["configfile.lines"] / attempted, "count"),
        "configfile.lines_per_s": (rate(count["configfile.lines"], "configfile.parse"), "1/s"),
        "lineconfig.build_ms": (ms("lineconfig.build"), "ms"),
        "lineconfig.report_ms": (ms("lineconfig.report"), "ms"),
        "lineconfig.pgon_ms": (ms("lineconfig.pgon"), "ms"),
        "lineconfig.edges": (count["lineconfig.edges"] / attempted, "count"),
        "trace.overhead_pct": ((traced_total - plain_total) / plain_total * 100, "%"),
    }
    for layer in tracing.LAYERS:
        value = cli_failed if layer == "cli" else recorder.failed[layer]
        metrics[f"{layer}.failed"] = (value, "count")
    return attempted, failed, metrics


def run(workload, seed, seconds, trace, tiny=False) -> dict:
    """One benchmark run; ``tiny`` shrinks every tier (for the smoke tests)."""
    cli = load_program()
    os.chdir(ROOT)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        runner = Runner(cli)
        warm = warmup_file()
        write_files([warm])
        warm_qs = warmup_queries(workload, warm)
        for q in warm_qs:
            status, out, _ = runner.call(q.argv)
            runner.verify(q, status, out)
        if trace:
            attempted, failed, metrics = per_layer(runner, workload, seed, seconds, tiny)
        else:
            attempted, failed, metrics = end_to_end(
                runner, workload, seed, seconds, tiny, warm_qs, smallest_query(workload, warm))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
