"""Tests for the command-line surface: dispatch, rendering, exit statuses."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sbcurves.cli
import sbcurves.cohomology
from sbcurves.classify import Narrative, SubschemeProfile
from sbcurves.cli import (
    _FEASIBLE_HEADERS,
    _HANDLERS,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    _grid,
    build_parser,
    main,
    render_json,
    render_table,
    run,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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


TRIANGLE = """\
[vertices]
a
b
c
[edges]
a b
b c
c a
[generators]
b c a
"""


def invoke(argv):
    return run(build_parser().parse_args(argv))


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
        # index 5 in degree 10: a valid algebra that is not a division algebra
        status, text = invoke(
            ["feasible", "--degree", "10", "--index", "5", "--exponent", "5",
             "--poly", "5,0"]
        )
        assert status == EXIT_PRECONDITION
        assert "division" in text

    def test_index_equal_to_degree_without_division_is_invariant_failure(self):
        status, text = invoke(
            ["feasible", "--degree", "5", "--index", "5", "--exponent", "5",
             "--poly", "5,0"]
        )
        assert status == EXIT_INVARIANT
        assert text == "error: index equal to degree (n = d = 5) makes the algebra a division algebra"

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

    def test_exponent_without_every_prime_of_the_index_is_invariant_failure(self):
        status, text = invoke(
            ["feasible", "--degree", "5", "--index", "5", "--exponent", "1",
             "--division", "--poly", "5,0"]
        )
        assert status == EXIT_INVARIANT
        assert text == "error: exponent 1 and index 5 must have the same prime factors"

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

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_twist_too_long_to_print_is_refused(self, fmt):
        digits = sys.get_int_max_str_digits()
        # h0 = 5m has one digit more than m = 99...9, the longest twist argparse reads
        status, text = invoke(["family", "ngon", "5", "--cohomology", "9" * digits,
                               "--format", fmt])
        assert status == EXIT_PRECONDITION
        assert text == (f"error: a twist of {digits} digits gives an h0 of more than "
                        f"{digits} digits, too many to print")

    def test_longest_printable_twist_is_answered(self):
        digits = sys.get_int_max_str_digits()
        twist = "1" + "0" * (digits - 1)
        status, text = invoke(["family", "ngon", "5", "--cohomology", twist, "--format", "json"])
        assert status == EXIT_OK
        assert json.loads(text)["cohomology"][0]["h0"] == 5 * 10 ** (digits - 1)


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

    def test_cohomology_twist_too_long_to_print_is_refused(self, pentagon_path):
        status, text = invoke(["cohomology", pentagon_path, "--twist",
                               "1," + "9" * sys.get_int_max_str_digits()])
        assert status == EXIT_PRECONDITION
        assert "too many to print" in text and "\n" not in text

    def test_coordinate_too_long_to_convert_is_parse_error(self, tmp_path):
        digits = sys.get_int_max_str_digits() + 1
        path = tmp_path / "huge.cfg"
        path.write_text(f"[vertices]\na: 1, 0, 0\nb: 0, {'9' * digits}, 0\n[edges]\na b\n")
        status, text = invoke(["check-config", str(path)])
        assert status == EXIT_PARSE
        assert text == (f"error: line 3: a coordinate of {digits} characters "
                        "has too many digits to convert")

    def test_cohomology_needs_embedding(self, tmp_path):
        path = tmp_path / "abstract.cfg"
        path.write_text("[vertices]\na\nb\n[edges]\na b\n")
        status, text = invoke(["cohomology", str(path), "--twist", "0"])
        assert status == EXIT_PRECONDITION
        assert "coordinates" in text


class TestEmbeddedFileChecks:
    """Proportionality is read off primitive integer rows, through the CLI."""

    @staticmethod
    def write(tmp_path, a, b):
        path = tmp_path / "line.cfg"
        path.write_text(f"[vertices]\na: {a}\nb: {b}\n[edges]\na b\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", [["cohomology", "--twist", "0"], ["check-config"]])
    def test_rational_and_integer_multiples_are_proportional(self, tmp_path, command):
        path = self.write(tmp_path, "1/2, -1/3, 0", "-3, 2, 0")
        status, text = invoke([command[0], path, *command[1:]])
        assert status == EXIT_INVARIANT
        assert text == "error: vertices 'a' and 'b' have proportional coordinate vectors"

    @pytest.mark.parametrize("command", [["cohomology", "--twist", "0"], ["check-config"]])
    def test_sign_flip_of_one_entry_is_not_proportional(self, tmp_path, command):
        path = self.write(tmp_path, "1, 2, 0", "-1, 2, 0")
        status, _ = invoke([command[0], path, *command[1:]])
        assert status == EXIT_OK


class TestSpansRankedOnce:
    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        rank = sbcurves.cohomology._rank

        def counted(rows, ncols):
            calls.append(ncols)
            return rank(rows, ncols)

        monkeypatch.setattr(sbcurves.cohomology, "_rank", counted)
        return calls

    @staticmethod
    def ngon30(*extra):
        status, text = invoke(["family", "ngon", "30", "--cohomology", "0,1,2", "--smoothing",
                               "--format", "json", *extra])
        assert status == EXIT_OK
        return json.loads(text)

    def test_one_rank_for_all_twists_and_smoothing(self, rank_calls):
        doc = self.ngon30()
        assert rank_calls == [30]
        assert [(r["h0"], r["h1"], r["spans"]) for r in doc["cohomology"]] == [
            (1, 1, True), (30, 0, True), (60, 0, True)
        ]
        assert doc["smoothing"] == {"h1_O_equals_1": True, "h1_O1_vanishes": True, "nodal": True}

    def test_fewer_vertices_than_coordinates_needs_no_rank(self, rank_calls):
        doc = self.ngon30("--embed-dim", "40")
        assert rank_calls == []
        assert [r["spans"] for r in doc["cohomology"]] == [False, False, False]


class TestScale:
    def test_ngon_1009_with_twists_and_smoothing(self):
        start = time.perf_counter()
        status, text = invoke(["family", "ngon", "1009", "--cohomology", "0,1,2", "--smoothing",
                               "--format", "json"])
        elapsed = time.perf_counter() - start
        assert status == EXIT_OK
        doc = json.loads(text)
        assert [(r["h0"], r["h1"], r["spans"]) for r in doc["cohomology"]] == [
            (1, 1, True), (1009, 0, True), (2018, 0, True)
        ]
        # about a second when the 1009 x 1009 rank is integer and runs once
        assert elapsed < 10


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

    def test_closed_pipe_is_not_a_traceback(self):
        # megabytes of JSON, so the write outlives a reader that takes one line
        argv = ["feasible", "--degree", "5", "--index", "5", "--exponent", "5", "--division",
                "--poly", "5,100", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sbcurves", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert b"Traceback" not in stderr
        contract = (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_INVARIANT, EXIT_PRECONDITION)
        assert proc.returncode in contract

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestUndecodableFile:
    @pytest.mark.parametrize(
        "command", [["check-config"], ["classify"], ["cohomology", "--twist", "0"]]
    )
    def test_non_utf8_file_is_parse_error(self, tmp_path, command):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[vertices]\n\xff\n")
        status, text = invoke([command[0], str(path), *command[1:]])
        assert status == EXIT_PARSE
        assert "UTF-8" in text


# Byte-exact stdout of each subcommand in both formats.  Config paths are
# relative to the test's working directory, so each document's "path" is fixed.

FEASIBLE_5T_TABLE = """\
4 admissible profile(s) for 5t at index 5

narrative         degree  h0  h1  chi  connected  reduced  irreducible  points  provenance
----------------  ------  --  --  ---  ---------  -------  -----------  ------  --------------
SmoothGenusOne    5       1   1   0    yes        yes      yes          -       classification
SingularIntegral  5       1   6   0    yes        yes      yes          5       classification
PGonOfLines       5       1   1   0    yes        yes      no           -       classification
NonReducedCurve   5       6   6   0    yes        no       yes          -       classification
"""

FEASIBLE_5T_JSON = """\
{
  "schema_version": 1,
  "command": "feasible",
  "algebra": {
    "degree": 5,
    "index": 5,
    "exponent": 5,
    "division": true
  },
  "poly": {
    "r": 5,
    "s": 0
  },
  "profile_count": 4,
  "profiles": [
    {
      "narrative": "SmoothGenusOne",
      "curve_degree": 5,
      "h0": 1,
      "h1": 1,
      "chi": 0,
      "geom_connected": true,
      "geom_reduced": true,
      "geom_irreducible": true,
      "extra_point_degrees": [],
      "provenance": "classification"
    },
    {
      "narrative": "SingularIntegral",
      "curve_degree": 5,
      "h0": 1,
      "h1": 6,
      "chi": 0,
      "geom_connected": true,
      "geom_reduced": true,
      "geom_irreducible": true,
      "extra_point_degrees": [
        5
      ],
      "provenance": "classification"
    },
    {
      "narrative": "PGonOfLines",
      "curve_degree": 5,
      "h0": 1,
      "h1": 1,
      "chi": 0,
      "geom_connected": true,
      "geom_reduced": true,
      "geom_irreducible": false,
      "extra_point_degrees": [],
      "provenance": "classification"
    },
    {
      "narrative": "NonReducedCurve",
      "curve_degree": 5,
      "h0": 6,
      "h1": 6,
      "chi": 0,
      "geom_connected": true,
      "geom_reduced": false,
      "geom_irreducible": true,
      "extra_point_degrees": [],
      "provenance": "classification"
    }
  ]
}
"""

FEASIBLE_EMPTY_TABLE = """\
0 admissible profile(s) for 5t+1 at index 5 (constraints are jointly unsatisfiable)
"""

FEASIBLE_EMPTY_JSON = """\
{
  "schema_version": 1,
  "command": "feasible",
  "algebra": {
    "degree": 5,
    "index": 5,
    "exponent": 5,
    "division": true
  },
  "poly": {
    "r": 5,
    "s": 1
  },
  "profile_count": 0,
  "profiles": []
}
"""

FAMILY_NGON_TABLE = """\
family   degree  h0  h1  edge_transitive  vertex_single_orbit
-------  ------  --  --  ---------------  -------------------
ngon(5)  5       1   1   yes              yes

m  h0  h1  chi  spans
-  --  --  ---  -----
0  1   1   0    yes
1  5   0   5    yes

h1_O_equals_1  h1_O1_vanishes  nodal
-------------  --------------  -----
yes            yes             yes
"""

FAMILY_NGON_JSON = """\
{
  "schema_version": 1,
  "command": "family",
  "family": "ngon",
  "size": 5,
  "report": {
    "degree": 5,
    "h0": 1,
    "h1": 1,
    "edge_transitive": true,
    "vertex_single_orbit": true
  },
  "embedding": {
    "method": "standard",
    "ambient_dim": 5
  },
  "cohomology": [
    {
      "m": 0,
      "h0": 1,
      "h1": 1,
      "chi": 0,
      "spans": true
    },
    {
      "m": 1,
      "h0": 5,
      "h1": 0,
      "chi": 5,
      "spans": true
    }
  ],
  "smoothing": {
    "h1_O_equals_1": true,
    "h1_O1_vanishes": true,
    "nodal": true
  }
}
"""

FAMILY_DISJOINT_TABLE = """\
family          degree  h0  h1  edge_transitive  vertex_single_orbit
--------------  ------  --  --  ---------------  -------------------
disjoint-lines  2       2   0   yes              yes
"""

FAMILY_DISJOINT_JSON = """\
{
  "schema_version": 1,
  "command": "family",
  "family": "disjoint-lines",
  "size": null,
  "report": {
    "degree": 2,
    "h0": 2,
    "h1": 0,
    "edge_transitive": true,
    "vertex_single_orbit": true
  }
}
"""

CLASSIFY_TABLE = """\
degree  h0  h1  edge_transitive  vertex_single_orbit  pgon(p=5)
------  --  --  ---------------  -------------------  ---------
5       1   1   yes              yes                  yes
"""

CLASSIFY_JSON = """\
{
  "schema_version": 1,
  "command": "classify",
  "path": "pentagon.cfg",
  "report": {
    "degree": 5,
    "h0": 1,
    "h1": 1,
    "edge_transitive": true,
    "vertex_single_orbit": true
  },
  "pgon_parameter": 5,
  "is_pgon": true
}
"""

COHOMOLOGY_TABLE = """\
m  h0  h1  chi  spans
-  --  --  ---  -----
0  1   1   0    yes
1  5   0   5    yes
2  10  0   10   yes
"""

COHOMOLOGY_JSON = """\
{
  "schema_version": 1,
  "command": "cohomology",
  "path": "pentagon.cfg",
  "ambient_dim": 5,
  "cohomology": [
    {
      "m": 0,
      "h0": 1,
      "h1": 1,
      "chi": 0,
      "spans": true
    },
    {
      "m": 1,
      "h0": 5,
      "h1": 0,
      "chi": 5,
      "spans": true
    },
    {
      "m": 2,
      "h0": 10,
      "h1": 0,
      "chi": 10,
      "spans": true
    }
  ]
}
"""

CHECK_PLAIN_TABLE = """\
ok

vertices  edges  generators  embedded  ambient_dim
--------  -----  ----------  --------  -----------
3         3      1           no        -
"""

CHECK_PLAIN_JSON = """\
{
  "schema_version": 1,
  "command": "check-config",
  "path": "triangle.cfg",
  "vertices": 3,
  "edges": 3,
  "generators": 1,
  "embedded": false,
  "ambient_dim": null
}
"""

CHECK_EMBEDDED_TABLE = """\
ok

vertices  edges  generators  embedded  ambient_dim
--------  -----  ----------  --------  -----------
5         5      1           yes       5
"""

CHECK_EMBEDDED_JSON = """\
{
  "schema_version": 1,
  "command": "check-config",
  "path": "pentagon.cfg",
  "vertices": 5,
  "edges": 5,
  "generators": 1,
  "embedded": true,
  "ambient_dim": 5
}
"""

GOLDEN = {
    "feasible-5t": (FEASIBLE_DEG5, FEASIBLE_5T_TABLE, FEASIBLE_5T_JSON),
    "feasible-empty": (
        FEASIBLE_DEG5[:-1] + ["5,1"], FEASIBLE_EMPTY_TABLE, FEASIBLE_EMPTY_JSON
    ),
    "family-ngon": (
        ["family", "ngon", "5", "--cohomology", "0,1", "--smoothing"],
        FAMILY_NGON_TABLE,
        FAMILY_NGON_JSON,
    ),
    "family-disjoint": (["family", "disjoint-lines"], FAMILY_DISJOINT_TABLE, FAMILY_DISJOINT_JSON),
    "classify": (["classify", "pentagon.cfg"], CLASSIFY_TABLE, CLASSIFY_JSON),
    "cohomology": (
        ["cohomology", "pentagon.cfg", "--twist", "0,1,2"], COHOMOLOGY_TABLE, COHOMOLOGY_JSON
    ),
    "check-config-plain": (["check-config", "triangle.cfg"], CHECK_PLAIN_TABLE, CHECK_PLAIN_JSON),
    "check-config-embedded": (
        ["check-config", "pentagon.cfg"], CHECK_EMBEDDED_TABLE, CHECK_EMBEDDED_JSON
    ),
}


# A file name with a non-ASCII letter, a quote and a backslash: the "path"
# field must come out ASCII-escaped, as json.dumps writes it.
ESCAPED_PATH = 'trié "q" \\.cfg'

ESCAPED_PATH_JSON = {
    "check-config": r"""{
  "schema_version": 1,
  "command": "check-config",
  "path": "tri\u00e9 \"q\" \\.cfg",
  "vertices": 3,
  "edges": 3,
  "generators": 1,
  "embedded": false,
  "ambient_dim": null
}
""",
    "classify": r"""{
  "schema_version": 1,
  "command": "classify",
  "path": "tri\u00e9 \"q\" \\.cfg",
  "report": {
    "degree": 3,
    "h0": 1,
    "h1": 1,
    "edge_transitive": true,
    "vertex_single_orbit": true
  },
  "pgon_parameter": 3,
  "is_pgon": true
}
""",
}

class TestByteExactOutput:
    @pytest.fixture(autouse=True)
    def config_dir(self, tmp_path, monkeypatch):
        (tmp_path / "pentagon.cfg").write_text(PENTAGON, encoding="utf-8")
        (tmp_path / "triangle.cfg").write_text(TRIANGLE, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SBCURVES_FORMAT", raising=False)

    @staticmethod
    def stdout_of(argv, capsys):
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    @pytest.mark.parametrize("case", GOLDEN)
    def test_table(self, case, capsys):
        argv, table, _ = GOLDEN[case]
        assert self.stdout_of(argv, capsys) == table
        assert self.stdout_of(argv + ["--format", "table"], capsys) == table

    @pytest.mark.parametrize("case", GOLDEN)
    def test_json(self, case, capsys, monkeypatch):
        argv, _, doc = GOLDEN[case]
        assert self.stdout_of(argv + ["--format", "json"], capsys) == doc
        monkeypatch.setenv("SBCURVES_FORMAT", "json")
        assert self.stdout_of(argv, capsys) == doc

    def test_readme_table_is_the_cli_table(self, capsys):
        fenced = re.search(r"```\n(narrative .*?)```", README.read_text(encoding="utf-8"), re.S)
        out = self.stdout_of(FEASIBLE_DEG5, capsys)
        assert out.split("\n\n", 1)[1] == fenced.group(1)

    def test_readme_json_is_the_start_of_the_cli_json(self, capsys):
        fenced = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        shown, elision = fenced.group(1).rsplit("\n", 2)[:2]
        assert elision.strip() == "..."
        out = self.stdout_of(FEASIBLE_DEG5 + ["--format", "json"], capsys)
        lines = shown.splitlines()
        assert len(lines) > 20
        assert out.splitlines()[: len(lines)] == lines

    @pytest.mark.parametrize("command", ESCAPED_PATH_JSON)
    def test_quoted_non_ascii_path_is_escaped(self, command, capsys):
        Path(ESCAPED_PATH).write_text(TRIANGLE, encoding="utf-8")
        out = self.stdout_of([command, ESCAPED_PATH, "--format", "json"], capsys)
        assert out == ESCAPED_PATH_JSON[command]
        assert json.loads(out)["path"] == ESCAPED_PATH


# The exit-code contract over argv drawn from the CLI grammar.  Sizes are
# capped (cube <= 4, ngon <= 60, complete <= 8, feasible constant term <= 40)
# because runaway work is not yet refused with exit 5; widen the caps once
# explicit resource bounds exist.

CONFIG_FILES = {
    "good.cfg": PENTAGON.encode(),
    "abstract.cfg": TRIANGLE.encode(),
    "malformed.cfg": b"[vertices]\na: 0.5, 1, 0\nb: 0, 1, 0\n[edges]\na b\n",
    "edgeless.cfg": b"[vertices]\na\nb\n[edges]\n",
    "non-utf8.cfg": b"[vertices]\n\xff\n",
}
SIZE_CAPS = {"ngon": 60, "cube": 4, "complete": 8}

def mostly(good, bad):
    """Draw from ``good`` nine times in ten and from ``bad`` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: good if i < 9 else bad)


twist_text = mostly(
    st.lists(st.integers(-5, 1000), min_size=1, max_size=4).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from(["", "0,", "a", "1.0"]),
)


@st.composite
def algebra_values(draw):
    """A (degree, index, exponent) triple that passes validation."""
    n = draw(st.integers(1, 10))
    # m | n, and n | m**n exactly when every prime of n divides m
    m = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0 and k**n % n == 0]))
    return n * draw(st.integers(1, 2)), n, m


@st.composite
def feasible_argv(draw):
    values = draw(mostly(algebra_values(), st.tuples(*[st.integers(-3, 12)] * 3)))
    argv = ["feasible"]
    for flag, value in zip(("--degree", "--index", "--exponent"), values):
        argv += draw(mostly(st.just([f"{flag}={value}"]), st.sampled_from([[], [f"{flag}=x"]])))
    if draw(mostly(st.just(True), st.just(False))):
        argv.append("--division")
    n = values[1]
    r = draw(mostly(st.just(n if n % 2 else n // 2), st.integers(-2, 12)))
    poly = mostly(st.integers(-5, 40).map(lambda s: f"{r},{s}"), st.sampled_from(["7", "1.5,0", "1,2,3"]))
    argv += draw(mostly(st.just([f"--poly={draw(poly)}"]), st.just([])))
    return argv


@st.composite
def family_argv(draw):
    name = draw(mostly(st.sampled_from([*SIZE_CAPS, "disjoint-lines"]), st.just("bogus")))
    argv = ["family", name]
    sized = st.integers(-2, SIZE_CAPS[name]) if name in SIZE_CAPS else st.none()
    size = draw(mostly(sized, st.none() | st.integers(0, 3)))
    if size is not None:
        argv.append(str(size))
    if draw(st.booleans()):
        argv.append(f"--embed-dim={draw(st.integers(-2, 64))}")
    if draw(st.booleans()):
        argv.append(f"--cohomology={draw(twist_text)}")
    if draw(st.booleans()):
        argv.append("--smoothing")
    if draw(st.booleans()):
        argv.append(f"--embed={draw(mostly(st.just('standard'), st.just('generic')))}")
    return argv


@st.composite
def config_argv(draw):
    command = draw(st.sampled_from(["classify", "cohomology", "check-config"]))
    argv = [command, draw(mostly(st.sampled_from(list(CONFIG_FILES)), st.just("missing.cfg")))]
    if command == "classify" and draw(st.booleans()):
        argv.append(f"--pgon={draw(st.integers(-3, 10**6))}")
    if command == "cohomology":
        argv += draw(mostly(st.just([f"--twist={draw(twist_text)}"]), st.just([])))
    return argv


cli_argv = st.tuples(
    mostly(st.one_of(feasible_argv(), family_argv(), config_argv()), st.just(["bogus-command"])),
    mostly(st.sampled_from([[], ["--format=table"], ["--format=json"]]), st.just(["--format=xml"])),
    mostly(st.just([]), st.sampled_from([["--bogus"], ["--help"]])),
).map(lambda parts: parts[0] + parts[1] + parts[2])


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    for name, data in CONFIG_FILES.items():
        (root / name).write_bytes(data)
    return root


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv, env_format=mostly(st.sampled_from([None, "json", "table", ""]), st.just("xml")))
def test_every_argv_maps_to_a_contract_exit_status(config_dir, argv, env_format):
    argv = [str(config_dir / a) if a.endswith(".cfg") else a for a in argv]
    with pytest.MonkeyPatch.context() as mp:
        if env_format is None:
            mp.delenv("SBCURVES_FORMAT", raising=False)
        else:
            mp.setenv("SBCURVES_FORMAT", env_format)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    assert status in {EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_INVARIANT, EXIT_PRECONDITION}


# The renderers against their references: json.dumps(indent=2) of each
# profile's fields for the JSON writer, and the cell-by-cell table below for
# both grids.


def _oracle_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, list):
        return "+".join(map(str, value)) or "-"
    return str(value)


def _oracle_grid(rows, headers=None) -> str:
    headers = list(headers or rows[0])
    cells = [[_oracle_cell(v) for v in row.values()] for row in rows]
    widths = [
        max([len(headers[i])] + [len(row[i]) for row in cells])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths).rstrip(),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def profile_fields(profile) -> dict:
    """A profile as the feasible document lists it."""
    return {
        "narrative": profile.narrative.value,
        "curve_degree": profile.curve_degree,
        "h0": profile.h0,
        "h1": profile.h1,
        "chi": profile.h0 - profile.h1 + sum(profile.extra_point_degrees),
        "geom_connected": profile.geom_connected,
        "geom_reduced": profile.geom_reduced,
        "geom_irreducible": profile.geom_irreducible,
        "extra_point_degrees": list(profile.extra_point_degrees),
        "provenance": profile.provenance,
    }


def oracle_json(doc) -> str:
    if doc["command"] == "feasible":
        doc = {**doc, "profiles": [profile_fields(p) for p in doc["profiles"]]}
    return json.dumps(doc, indent=2)


def first_difference(got, want):
    """None for equal texts, else the first differing line (cheap to report for megabytes)."""
    if got == want:
        return None
    pairs = zip(got.splitlines() + [None], want.splitlines() + [None])
    return next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)


def document(argv):
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


def feasible_query(n, m, r, s):
    return ["feasible", "--degree", str(n), "--index", str(n), "--exponent", str(m),
            "--division", "--poly", f"{r},{s}"]


# (index, exponent, r, s): from the paper's 5t to the 10,435 profiles of
# (8, 4t+156), with an empty list at 5t+1 and the even index 4
FEASIBLE_DOCS = [
    (5, 5, 5, 0), (5, 5, 5, 1), (5, 5, 5, 65), (7, 7, 7, 77),
    (8, 4, 4, 156), (15, 15, 15, 60), (4, 2, 2, 2),
]

# sha256 of the standard output of each FEASIBLE_DOCS query, (table, json),
# as the earlier generic column writers printed it: the bytes cannot move
# whichever writer prints them.
FEASIBLE_SHA256 = {
    (5, 5, 5, 0): ("3e5c0269449932aad70d2d8bd55638af1861086432d9eee6e25c7ed0a09b9313",
                   "a313a27e7544659649eb8b0d03c1be7ec06e769fe147c3b7f3713554d9d25e05"),
    (5, 5, 5, 1): ("08a34c15a497ccb9e237557b1e0357ba987d73b843807297a04a87dfecea9064",
                   "c1f29ba68bfd22e3ef55b0d6265098bdcfc5334ee4b4ab1feeb95aa5587b224e"),
    (5, 5, 5, 65): ("d2d9d48667516dd4be9f6cc748b43d9516e62118eeaf592e24bd279b0cfab181",
                    "9dd5c66d831f9157cd5603882323108e6ca552690a14dffb011611a5e1bc024a"),
    (7, 7, 7, 77): ("0b7a77ac0e3085bab8d1590fe2cc8cc7da693eeb68db952ecc8c73e617007b52",
                    "0ef7e50317aa3e2b42ee09473ef2c791e52c87c67b2763303b1a9619696de139"),
    (8, 4, 4, 156): ("96ed023127ddcf450a8940a4bc915924e09cd8eb9ca4650c0f67174d0f80eeed",
                     "a346d670be8c690044cf9d43b41d6676dfb3e1e38f62b4745640fed835060363"),
    (15, 15, 15, 60): ("46ccde0668f342616a5ebecae45b0f6cd6bb5af3bc3654ee1412f762c2b63fca",
                       "b567a93fdaf7c5a4c6ebfceb0c2b4fec4af9e1c36dc954c1ca8742c441044bc8"),
    (4, 2, 2, 2): ("43f6d088ac28811ffcbb6f08336f525c7adb4e9583b965c6de7736bbecbe66e4",
                   "1eb25297299918815cc7bed14387eb6468efffa378749d03fbcf8c35016410d1"),
}

# The feasible queries of the benchmark's profiles workload (bench/workloads.py):
# each constant term of each index's profile classes, at each exponent drawn.
PROFILE_CLASSES = {
    5: (0, 5, 10, 30, 45, 65),
    7: (7, 14, 35, 49, 77),
    8: (36, 40, 88, 92, 112, 116, 152, 156),
    15: (0, 60),
}
EXPONENTS = {5: (5,), 7: (7,), 8: (2, 4, 8), 15: (15,)}
WORKLOAD_QUERIES = [
    (n, m, n if n % 2 else n // 2, s)
    for n, terms in PROFILE_CLASSES.items() for s in terms for m in EXPONENTS[n]
]

ONE_ROW_DOCS = {
    "family-ngon": ["family", "ngon", "5", "--cohomology", "0,1,2", "--smoothing"],
    "family-disjoint": ["family", "disjoint-lines"],
    "family-cube": ["family", "cube", "3", "--cohomology", "0", "--embed-dim", "10"],
    "classify": ["classify", "pentagon.cfg", "--pgon", "7"],
    "cohomology": ["cohomology", "pentagon.cfg", "--twist", "0,1,2,1000"],
    "check-config-plain": ["check-config", "triangle.cfg"],
    "check-config-embedded": ["check-config", "pentagon.cfg"],
}


@pytest.fixture(scope="module")
def feasible_docs():
    return {key: document(feasible_query(*key)) for key in FEASIBLE_DOCS}


@pytest.fixture
def in_config_dir(tmp_path, monkeypatch):
    (tmp_path / "pentagon.cfg").write_text(PENTAGON, encoding="utf-8")
    (tmp_path / "triangle.cfg").write_text(TRIANGLE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


# Strings with everything a writer must handle: non-ASCII, quote,
# backslash, control characters, lone surrogates, and "%" (the profile
# templates are %-format strings).
json_text = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\%\x00\x1f\x7f\udcff\ud800é\u2028😀'),
    max_size=8,
)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70) | json_text
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_text, children, max_size=4),
    max_leaves=30,
)


@st.composite
def record_lists(draw):
    """Lists of dicts that share their keys in order, each column drawn from one strategy."""
    keys = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    column = st.sampled_from([
        st.integers(), st.booleans(), json_text, st.none() | st.integers(),
        st.booleans() | st.integers(0, 1), st.lists(st.integers(), max_size=3), json_values,
    ])
    fields = {key: draw(column) for key in keys}
    return draw(st.lists(st.fixed_dictionaries(fields), min_size=1, max_size=6))


def feasible_doc(profiles) -> dict:
    return {
        "schema_version": 1,
        "command": "feasible",
        "algebra": {"degree": 5, "index": 5, "exponent": 5, "division": True},
        "poly": {"r": 5, "s": 0},
        "profile_count": len(profiles),
        "profiles": profiles,
    }


@st.composite
def profile_lists(draw):
    """Profiles in a few shared curve shapes, with any ints, points and provenance text."""
    big = st.integers(-(2**70), 2**70)
    shapes = draw(st.lists(
        st.tuples(big, big, big, st.booleans(), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ))
    tags = draw(st.lists(st.tuples(st.sampled_from(Narrative), json_text), min_size=1, max_size=3))
    points = st.lists(big | st.integers(1, 3), max_size=3).map(tuple)
    return [
        SubschemeProfile(*draw(st.sampled_from(shapes)), draw(points), *draw(st.sampled_from(tags)))
        for _ in range(draw(st.integers(0, 8)))
    ]


class TestJsonWriter:
    @pytest.mark.parametrize("case", GOLDEN)
    def test_golden_documents(self, case, in_config_dir):
        doc = document(GOLDEN[case][0])
        assert render_json(doc) == oracle_json(doc) == GOLDEN[case][2].rstrip("\n")

    @pytest.mark.parametrize("key", FEASIBLE_DOCS)
    def test_feasible_documents(self, feasible_docs, key):
        doc = feasible_docs[key]
        assert first_difference(render_json(doc), oracle_json(doc)) is None

    @settings(max_examples=150, deadline=None)
    @given(profiles=profile_lists())
    def test_record_lists(self, profiles):
        doc = feasible_doc(profiles)
        assert render_json(doc) == oracle_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(value=json_values, profiles=profile_lists())
    def test_recursive_values(self, value, profiles):
        # any header in front of the profile templates, and a "profiles" key
        # outside feasible, which json.dumps writes as it is
        doc = {**feasible_doc(profiles), "algebra": value, "poly": {"r": value, "s": [value]}}
        assert render_json(doc) == oracle_json(doc)
        other = {"schema_version": 1, "command": "classify", "profiles": value}
        assert render_json(other) == json.dumps(other, indent=2)

    # Profiles whose shapes differ in one field only, share a shape but not
    # their points or text, or carry the extreme ints and strings.
    @pytest.mark.parametrize("value", [
        [(5, 1, 1, c, r, i, ()) for c in (True, False) for r in (True, False) for i in (True, False)],
        [(5, 1, 1, True, True, True, (), tag) for tag in Narrative],
        [(5, 1, 1, True, True, True, (), Narrative.PGON_OF_LINES, text) for text in ("a", "b", "a", "")],
        [(5, 1, 0, True, True, False, points) for points in ((), (5,), (), (5, 10), (5,))],
        [(5, 1, 0, True, True, False, (1, 1, 1)), (5, 1, 0, True, True, False, (1, 1))],
        [(5, 0, 7, False, True, False, ()), (5, 0, 7, False, True, False, (2,))],
        [(2**64, -(2**64) - 1, 2**70, True, False, True, (2**64, 1))],
        [(0, 0, 0, False, False, False, (), Narrative.REDUCIBLE_CURVE, "%s %d %% %(k)s %")],
        [(3, 1, 1, True, True, True, (), Narrative.NON_REDUCED_CURVE, '"\\\x00\x1f\x7f\udcff\u00e9\u2028\U0001f600')],
        [(7, 1, 1, True, True, True, (7,), Narrative.WITH_RESIDUAL_POINT)],
        [(5, 1, 1, True, True, True, (), Narrative.SMOOTH_GENUS_ONE, "x"),
         (5, 1, 1, True, True, True, (), Narrative.SINGULAR_INTEGRAL, "x"),
         (5, 1, 1, True, True, True, ())],
        [(d, h, h, True, True, True, (d,) * h) for d in (1, 2) for h in (0, 1, 2)],
    ])
    def test_record_edge_cases(self, value):
        doc = feasible_doc([SubschemeProfile(*fields) for fields in value])
        assert render_json(doc) == oracle_json(doc)

    def test_percent_signs_are_text(self):
        shape = (5, 1, 1, True, True, True, (5, 10))
        profiles = [
            SubschemeProfile(*shape, Narrative.PGON_OF_LINES, "%d %s %% %(x)s"),
            SubschemeProfile(*shape, Narrative.PGON_OF_LINES, "%"),
        ]
        doc = feasible_doc(profiles)
        assert render_json(doc) == oracle_json(doc)
        assert [p["provenance"] for p in json.loads(render_json(doc))["profiles"]] == [
            "%d %s %% %(x)s", "%",
        ]


class TestColumnarGrid:
    @pytest.mark.parametrize("key", [k for k in FEASIBLE_DOCS if k[3] != 1])
    def test_feasible_tables(self, feasible_docs, key):
        doc = feasible_docs[key]
        table = render_table(doc).split("\n\n", 1)[1]
        rows = [profile_fields(p) for p in doc["profiles"]]
        assert first_difference(table, _oracle_grid(rows, _FEASIBLE_HEADERS)) is None

    @pytest.mark.parametrize("case", ONE_ROW_DOCS)
    def test_one_row_tables(self, case, in_config_dir, monkeypatch):
        doc = document(ONE_ROW_DOCS[case])
        table = render_table(doc)
        monkeypatch.setattr(sbcurves.cli, "_grid", _oracle_grid)
        assert table == render_table(doc)

    @settings(max_examples=150, deadline=None)
    @given(rows=record_lists())
    def test_drawn_rows(self, rows):
        assert _grid(rows) == _oracle_grid(rows)

    def test_mixed_columns(self):
        rows = [{"a": None, "b": 1, "c": []}, {"a": 12, "b": True, "c": [1, 2]}, {"a": 3, "b": "x", "c": None}]
        assert _grid(rows) == _oracle_grid(rows)
        assert _grid(rows, ["", "b", "c"]) == _oracle_grid(rows, ["", "b", "c"])


@pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda q: "n{}-m{}-{}t+{}".format(*q))
def test_workload_query_output(query):
    """Both formats of each benchmark query against json.dumps and the cell-by-cell grid."""
    doc = document(feasible_query(*query))
    out = render_json(doc)
    parsed = json.loads(out)
    assert first_difference(out, json.dumps(parsed, indent=2)) is None
    rows = [profile_fields(p) for p in doc["profiles"]]
    # the same fields in the same order as the document's
    assert list(parsed.items())[:-1] == list(doc.items())[:-1]
    assert list(map(list, map(dict.items, parsed["profiles"]))) == list(map(list, map(dict.items, rows)))
    table = render_table(doc).split("\n\n", 1)[1]
    assert first_difference(table, _oracle_grid(rows, _FEASIBLE_HEADERS)) is None


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("key", FEASIBLE_SHA256)
def test_feasible_stdout_is_pinned(key, fmt, capsys):
    out = TestByteExactOutput.stdout_of(feasible_query(*key) + ["--format", fmt], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == FEASIBLE_SHA256[key][fmt == "json"]
