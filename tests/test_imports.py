"""Each subcommand loads only the layers it runs, and the package exports lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbcurves

ROOT = Path(__file__).resolve().parents[1]

# Runs one command line the way ``python -m sbcurves`` does (the package
# first, then the CLI) and prints its exit status and the names of every
# loaded module, one a line.  It imports nothing the CLI might not, so that
# ``json`` shows up only if the CLI loaded it.
CHILD = """
import contextlib, io, sys
import sbcurves.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = sbcurves.cli.main(sys.argv[1:])
print(status, *sorted(sys.modules), sep="\\n")
"""

TRIANGLE = "[vertices]\na\nb\nc\n[edges]\na b\nb c\nc a\n[generators]\nb c a\n"


def loaded_modules(argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SBCURVES_FORMAT", None)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60, check=True)
    status, *modules = done.stdout.splitlines()
    assert status == "0", done.stderr
    return set(modules)


FEASIBLE = ["feasible", "--degree", "5", "--index", "5", "--exponent", "5", "--division",
            "--poly", "5,0"]


@pytest.mark.parametrize("argv,absent", [
    (FEASIBLE, {"sbcurves.cohomology", "sbcurves.configfile", "fractions", "json"}),
    (["family", "ngon", "5"],
     {"sbcurves.classify", "sbcurves.numpoly", "sbcurves.cohomology", "sbcurves.configfile",
      "sbcurves.constraints", "json"}),
    (["family", "ngon", "5", "--cohomology", "0", "--format", "json"],
     {"sbcurves.classify", "sbcurves.numpoly"}),
], ids=["feasible", "family", "family-cohomology"])
def test_subcommand_loads_only_its_layers(argv, absent):
    modules = loaded_modules(argv)
    assert "sbcurves.cli" in modules
    assert not absent & modules


def test_plain_file_loads_no_coordinate_layer(tmp_path):
    (tmp_path / "triangle.cfg").write_text(TRIANGLE, encoding="utf-8")
    modules = loaded_modules(["check-config", "triangle.cfg"], cwd=tmp_path)
    assert "sbcurves.configfile" in modules
    assert not {"sbcurves.cohomology", "fractions", "decimal", "json"} & modules


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_json_is_loaded_only_for_json_output(fmt):
    modules = loaded_modules(FEASIBLE + ["--format", fmt])
    assert ("json" in modules) == (fmt == "json")


def test_every_public_name_is_its_home_modules_object():
    listing = dir(sbcurves)
    for module, names in sbcurves._EXPORTS.items():
        home = importlib.import_module(f"sbcurves.{module}")
        for name in names:
            value = getattr(sbcurves, name)
            assert value is getattr(home, name)
            if isinstance(value, type) or callable(value):
                assert value.__module__ == home.__name__
            assert name in listing
    # the 41 names the package has always exported, each once
    assert len(set(sbcurves.__all__)) == len(sbcurves.__all__) == 41


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sbcurves import *", namespace)
    assert {name: namespace[name] for name in sbcurves.__all__} == {
        name: getattr(sbcurves, name) for name in sbcurves.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sbcurves.no_such_name
