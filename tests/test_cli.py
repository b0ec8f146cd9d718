"""Tests for the command-line surface: dispatch, rendering, exit statuses."""

import json

import pytest

from sbcurves.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    Query,
    build_parser,
    main,
    run,
    _query_from_args,
)

PENTAGON = """\
[vertices]
v1: 1, 0, 0, 0, 0
v2: 0, 1, 0, 0, 0
v3: 0, 0, 1, 0, 0
v4: 0, 0, 0, 1, 0
v5: 0, 0, 0, 0, 1
[edges]
v1 v2
v2 v3
v3 v4
v4 v5
v5 v1
[generators]
(v1 v2 v3 v4 v5)
"""


def query_for(argv):
    return _query_from_args(build_parser().parse_args(argv))


def invoke(argv):
    return run(query_for(argv))


FEASIBLE_DEG5 = [
    "feasible",
    "--degree", "5",
    "--index", "5",
    "--exponent", "5",
    "--division",
    "--poly", "5,0",
]


class TestFeasible:
    def test_four_profiles_rendered(self):
        status, text = invoke(FEASIBLE_DEG5)
        assert status == EXIT_OK
        assert "4 admissible profile(s)" in text
        for tag in ["SmoothGenusOne", "SingularIntegral", "PGonOfLines", "NonReducedCurve"]:
            assert tag in text

    def test_json_structure(self):
        status, text = invoke(FEASIBLE_DEG5 + ["--format", "json"])
        assert status == EXIT_OK
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["command"] == "feasible"
        assert doc["profile_count"] == 4
        assert [p["narrative"] for p in doc["profiles"]] == [
            "SmoothGenusOne",
            "SingularIntegral",
            "PGonOfLines",
            "NonReducedCurve",
        ]
        assert doc["profiles"][1]["extra_point_degrees"] == [5]

    def test_json_round_trips(self):
        _, text = invoke(FEASIBLE_DEG5 + ["--format", "json"])
        assert json.dumps(json.loads(text), indent=2) == text

    def test_empty_result_is_success(self):
        status, text = invoke(
            ["feasible", "--degree", "5", "--index", "5", "--exponent", "5",
             "--division", "--poly", "5,1"]
        )
        assert status == EXIT_OK
        assert "0 admissible profile(s)" in text
        assert "unsatisfiable" in text

    def test_non_division_is_precondition_failure(self):
        status, text = invoke(
            ["feasible", "--degree", "5", "--index", "5", "--exponent", "5",
             "--poly", "5,0"]
        )
        assert status == EXIT_PRECONDITION
        assert "division" in text

    def test_empty_hilbert_scheme_is_precondition_failure(self):
        status, text = invoke(
            ["feasible", "--degree", "4", "--index", "4", "--exponent", "2",
             "--division", "--poly", "2,0"]
        )
        assert status == EXIT_PRECONDITION
        assert "Hilbert" in text

    def test_malformed_algebra_is_invariant_failure(self):
        status, text = invoke(
            ["feasible", "--degree", "6", "--index", "6", "--exponent", "4",
             "--division", "--poly", "3,0"]
        )
        assert status == EXIT_INVARIANT
        assert "exponent" in text

    def test_wrong_leading_coefficient(self):
        status, _ = invoke(
            ["feasible", "--degree", "5", "--index", "5", "--exponent", "5",
             "--division", "--poly", "4,0"]
        )
        assert status == EXIT_PRECONDITION


class TestFamily:
    def test_ngon_with_cohomology(self):
        status, text = invoke(["family", "ngon", "5", "--embed", "standard",
                               "--cohomology", "0,1"])
        assert status == EXIT_OK
        lines = text.splitlines()
        assert any(line.startswith("0  1   1   0") for line in lines)
        assert any(line.startswith("1  5   0   5") for line in lines)

    def test_smoothing_flags(self):
        status, text = invoke(["family", "ngon", "5", "--smoothing"])
        assert status == EXIT_OK
        assert text.splitlines()[-1].split() == ["yes", "yes", "yes"]

    def test_cube_report(self):
        status, text = invoke(["family", "cube", "3"])
        assert status == EXIT_OK
        assert "cube(3)" in text and "12" in text

    def test_disjoint_lines_takes_no_size(self):
        status, text = invoke(["family", "disjoint-lines"])
        assert status == EXIT_OK
        status, text = invoke(["family", "disjoint-lines", "3"])
        assert status == EXIT_USAGE

    def test_missing_size_is_usage_error(self):
        status, text = invoke(["family", "cube"])
        assert status == EXIT_USAGE
        assert "size" in text

    def test_bad_size_is_precondition(self):
        status, _ = invoke(["family", "ngon", "2"])
        assert status == EXIT_PRECONDITION

    def test_json_document(self):
        status, text = invoke(["family", "ngon", "5", "--cohomology", "0,1",
                               "--format", "json"])
        assert status == EXIT_OK
        doc = json.loads(text)
        assert doc["report"]["degree"] == 5
        assert doc["cohomology"][0] == {"m": 0, "h0": 1, "h1": 1, "chi": 0, "spans": True}
        assert doc["cohomology"][1]["h1"] == 0

    def test_huge_twist_is_answered(self):
        # no matrix of size proportional to m is ever built
        status, text = invoke(["family", "ngon", "5", "--cohomology", "1000000000000",
                               "--format", "json"])
        assert status == EXIT_OK
        rep = json.loads(text)["cohomology"][0]
        assert (rep["h0"], rep["h1"]) == (5 * 10**12, 0)


class TestConfigCommands:
    @pytest.fixture
    def pentagon_path(self, tmp_path):
        path = tmp_path / "pentagon.cfg"
        path.write_text(PENTAGON, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def edgeless_path(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[vertices]\na\nb\n[edges]\n", encoding="utf-8")
        return str(path)

    def test_check_config_ok(self, pentagon_path):
        status, text = invoke(["check-config", pentagon_path])
        assert status == EXIT_OK
        assert text.startswith("ok")
        assert "5" in text

    def test_check_config_edgeless(self, edgeless_path):
        status, text = invoke(["check-config", edgeless_path])
        assert status == EXIT_INVARIANT
        assert "no lines" in text

    def test_check_config_missing_file(self, tmp_path):
        status, text = invoke(["check-config", str(tmp_path / "absent.cfg")])
        assert status == EXIT_PARSE
        assert "cannot read" in text

    def test_check_config_bad_fraction(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[vertices]\na: 0.5, 1, 0\nb: 0, 1, 0\n[edges]\na b\n")
        status, text = invoke(["check-config", str(path)])
        assert status == EXIT_PARSE
        assert "decimal" in text

    def test_classify_recognizes_pgon(self, pentagon_path):
        status, text = invoke(["classify", pentagon_path])
        assert status == EXIT_OK
        assert "pgon(p=5)" in text
        assert text.splitlines()[-1].endswith("yes")

    def test_classify_with_explicit_parameter(self, pentagon_path):
        status, text = invoke(["classify", pentagon_path, "--pgon", "7"])
        assert status == EXIT_OK
        assert text.splitlines()[-1].endswith("no")

    def test_cohomology_command(self, pentagon_path):
        status, text = invoke(["cohomology", pentagon_path, "--twist", "0,1,2"])
        assert status == EXIT_OK
        doc_status, doc_text = invoke(
            ["cohomology", pentagon_path, "--twist", "0,1,2", "--format", "json"]
        )
        assert doc_status == EXIT_OK
        doc = json.loads(doc_text)
        assert [row["h1"] for row in doc["cohomology"]] == [1, 0, 0]

    def test_cohomology_needs_embedding(self, tmp_path):
        path = tmp_path / "abstract.cfg"
        path.write_text("[vertices]\na\nb\n[edges]\na b\n")
        status, text = invoke(["cohomology", str(path), "--twist", "0"])
        assert status == EXIT_PRECONDITION
        assert "coordinates" in text


class TestDeterminismAndPlumbing:
    def test_identical_queries_identical_output(self):
        results = {invoke(FEASIBLE_DEG5) for _ in range(3)}
        assert len(results) == 1

    def test_env_var_sets_default_format(self, monkeypatch):
        monkeypatch.setenv("SBCURVES_FORMAT", "json")
        status, text = invoke(FEASIBLE_DEG5)
        assert status == EXIT_OK
        json.loads(text)

    def test_flag_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv("SBCURVES_FORMAT", "json")
        status, text = invoke(FEASIBLE_DEG5 + ["--format", "table"])
        assert status == EXIT_OK
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_invalid_env_format_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("SBCURVES_FORMAT", "xml")
        status, text = invoke(FEASIBLE_DEG5)
        assert status == EXIT_USAGE
        assert "format" in text

    def test_unknown_command_in_query(self):
        status, text = run(Query(command="bogus"))
        assert status == EXIT_USAGE

    def test_incomplete_query_is_usage_error(self):
        status, text = run(Query(command="feasible"))
        assert status == EXIT_USAGE

    def test_argparse_usage_exit_codes(self, capsys):
        assert main(["unknown-command"]) == EXIT_USAGE
        assert main(["feasible", "--poly", "5,0"]) == EXIT_USAGE  # missing algebra flags
        assert main(["feasible", "--degree", "5", "--index", "5", "--exponent", "5",
                     "--division", "--poly", "5.0"]) == EXIT_USAGE  # float literal
        capsys.readouterr()

    def test_main_prints_to_stdout_on_success(self, capsys):
        assert main(FEASIBLE_DEG5) == EXIT_OK
        captured = capsys.readouterr()
        assert "SmoothGenusOne" in captured.out
        assert captured.err == ""

    def test_main_prints_errors_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[vertices]\na\nb\n[edges]\n")
        assert main(["check-config", str(path)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no lines" in captured.err

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
