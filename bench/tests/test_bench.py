"""Tests of the benchmark itself: seeded inputs, the oracle, and a smoke run.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sbcurves import cli, lineconfig  # noqa: E402
from sbcurves.classify import enumerate_profiles  # noqa: E402
from sbcurves.cohomology import smoothing_hypotheses, standard_embedding, twist_cohomology  # noqa: E402
from sbcurves.configfile import parse_config_text  # noqa: E402
from sbcurves.constraints import AlgebraInvariants  # noqa: E402
from sbcurves.numpoly import NumPoly  # noqa: E402

SMALL = [("ngon", p) for p in range(3, 13)] + [("cube", r) for r in (2, 3, 4)] + [
    ("complete", n) for n in range(3, 8)
]


def _round(workload, seed, number=0):
    files, queries = workloads.round_queries(workload, seed, number, ".bench_work")
    return [q.argv for q in queries], [(f.path, f.text) for f in files]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _round(workload, 7) == _round(workload, 7)
    assert _round(workload, 7, 3) == _round(workload, 7, 3)
    assert _round(workload, 7) != _round(workload, 8)
    assert _round(workload, 7) != _round(workload, 7, 1)


def test_pinned_counts_match_the_partition_count():
    for n, counts in workloads.EXPECTED["profile_counts"].items():
        for s, count in counts.items():
            assert oracle.profile_count(int(n), int(s)) == count


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9, 15])
def test_profile_count_matches_program(n):
    r = workloads.min_curve_degree(n)
    for s in range(0, 4 * r + 1):
        try:
            got = enumerate_profiles(AlgebraInvariants(n, n, n, True), NumPoly(r, s))
        except ValueError:
            continue
        assert len(got) == oracle.profile_count(n, s), (n, s)


@pytest.mark.parametrize("family,size", SMALL)
def test_oracle_matches_program_on_families(family, size):
    graph = workloads.family_graph(family, size)
    config = getattr(lineconfig, family)(size)
    assert len(config.vertices) == graph.nverts
    assert set(config.edges) == set(graph.edges)
    rep = lineconfig.report(config)
    assert vars(rep) == oracle.expected_report(graph)
    for p in (3, 4, 5, 7, len(graph.edges)):
        assert lineconfig.is_pgon(config, p) == oracle.expected_is_pgon(graph, p)
    for dim in (graph.nverts, graph.nverts + 2):
        if dim < 3:
            continue
        embedded = standard_embedding(config, dim)
        for m in range(4):
            assert vars(twist_cohomology(embedded, m)) == oracle.expected_cohomology(graph, m, dim)
        assert vars(smoothing_hypotheses(embedded)) == oracle.expected_smoothing(graph)


@pytest.mark.parametrize("family,size", [("ngon", 7), ("ngon", 12), ("cube", 3), ("complete", 6)])
@pytest.mark.parametrize("extra", [0, 1])
def test_generated_embeddings_realize_the_graph_curve(family, size, extra):
    graph = workloads.family_graph(family, size)
    dim = graph.nverts + extra
    text = workloads.config_text(graph, random.Random(size), "images", dim)
    parsed = parse_config_text(text)
    assert parsed.embedded.ambient_dim == dim
    for m in range(3):
        got = vars(twist_cohomology(parsed.embedded, m))
        assert got == oracle.expected_cohomology(graph, m, dim)


def test_change_of_basis_is_unimodular_and_dense():
    rows = workloads.change_of_basis(6, random.Random(1))
    det, mat = 1, [row[:] for row in rows]
    for col in range(6):
        pivot = next(i for i in range(col, 6) if mat[i][col])
        mat[col], mat[pivot] = mat[pivot], mat[col]
        det *= mat[col][col] * (-1 if pivot != col else 1)
        for i in range(col + 1, 6):
            ratio = mat[i][col] / mat[col][col]
            mat[i] = [a - ratio * b for a, b in zip(mat[i], mat[col])]
    assert det == 1
    assert sum(1 for row in rows for x in row if x) > 6 * 6 // 2


def _cli(argv):
    status, out, _ = run.Runner(cli).call(argv)
    return status, out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_program_output_and_rejects_a_wrong_one(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files, queries = workloads.round_queries(workload, 3, 0, "work", tiny=True)
    (tmp_path / "work").mkdir()
    run.write_files(files)
    for q in queries:
        status, out = _cli(q.argv)
        assert oracle.check(q, status, out) is None, q.argv
        wrong = out.replace("1", "2", 1) if "1" in out else out + "x"
        assert oracle.check(q, status, wrong) is not None, q.argv
        assert oracle.check(q, 4, out) is not None


def test_paper_profiles_are_checked():
    q = workloads.feasible_query(5, 0, "json")
    status, out = _cli(q.argv)
    assert oracle.check(q, status, out) is None
    doc = json.loads(out)
    doc["profiles"][1]["h1"] = 11  # still within every invariant but the paper's list
    assert oracle.check(q, 0, json.dumps(doc, indent=2) + "\n") is not None


def test_traced_cli_records_the_programs_own_calls():
    import tracing

    recorder = tracing.Recorder()
    recorder.query = 1
    argv = workloads.family_query("ngon", 5, "json", (0, 1), True).argv
    with tracing.installed(recorder), recorder.span("cli.main"):
        status, _ = _cli(argv)
    assert status == 0
    names = [span[1] for span in recorder.spans]
    assert names[0] == "cli.main"
    assert {"lineconfig.build", "lineconfig.report", "cohomology.embed", "cohomology.smoothing"} <= set(names)
    assert names.count("cohomology.twist") == 4  # two asked for, two inside smoothing_hypotheses
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["lineconfig.report"][4] == 0  # a child of the cli.main span
    assert cli.report is lineconfig.report and cli._FAMILIES["ngon"][0] is lineconfig.ngon


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = run.run(workload, seed=1, seconds=0.01, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end, per_layer = _declared()
    want = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not (ROOT / run.WORKDIR).exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "profiles", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
