"""Each subcommand loads only the layers it runs, and the package exports lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbcurves

ROOT = Path(__file__).resolve().parents[1]

# Runs one command line the way ``python -m sbcurves`` does (the package
# first, then the CLI) and prints the names of every loaded module.
CHILD = """
import contextlib, io, json, sys
import sbcurves.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = sbcurves.cli.main(json.loads(sys.argv[1]))
print(json.dumps([status, sorted(sys.modules)]))
"""


def loaded_modules(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    status, modules = json.loads(done.stdout)
    assert status == 0, done.stderr
    return set(modules)


@pytest.mark.parametrize("argv,absent", [
    (["feasible", "--degree", "5", "--index", "5", "--exponent", "5", "--division",
      "--poly", "5,0"], {"sbcurves.cohomology", "sbcurves.configfile", "fractions"}),
    (["family", "ngon", "5"],
     {"sbcurves.classify", "sbcurves.numpoly", "sbcurves.cohomology", "sbcurves.configfile"}),
    (["family", "ngon", "5", "--cohomology", "0", "--format", "json"],
     {"sbcurves.classify", "sbcurves.numpoly"}),
], ids=["feasible", "family", "family-cohomology"])
def test_subcommand_loads_only_its_layers(argv, absent):
    modules = loaded_modules(argv)
    assert "sbcurves.cli" in modules
    assert not absent & modules


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
