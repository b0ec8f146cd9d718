"""Exact-arithmetic engine for low-degree curves on Severi-Brauer varieties.

The package decides which curves-and-points subschemes a Severi-Brauer
variety with given invariants can carry, enumerates their admissible
numerical profiles, and constructs and analyzes the Galois-stable line
configurations that witness the minimal-degree cases.  All computation is
exact (integers and rationals); there is no floating point anywhere.

The public names are imported from their modules on first access (PEP 562),
so ``import sbcurves`` and a CLI run load only the modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "classify": (
        "CLASSIFICATION",
        "EXTRAPOLATION",
        "FILTERED",
        "Narrative",
        "SubschemeProfile",
        "enumerate_profiles",
        "reducible_case",
    ),
    "cohomology": (
        "CohomReport",
        "EmbeddedConfig",
        "SmoothingReport",
        "smoothing_hypotheses",
        "standard_embedding",
        "twist_cohomology",
    ),
    "configfile": ("ParsedConfig", "load_config", "parse_config_text"),
    "constraints": (
        "AlgebraInvariants",
        "CastelnuovoBound",
        "castelnuovo",
        "degree_admissible",
        "euler_admissible",
        "is_prime",
        "min_curve_degree",
        "normal_bundle_euler",
        "point_degree_admissible",
    ),
    "errors": ("ConfigParseError", "InvariantError", "PreconditionError"),
    "lineconfig": (
        "ConfigReport",
        "LineConfig",
        "complete",
        "cube",
        "disjoint_lines",
        "is_pgon",
        "ngon",
        "report",
    ),
    "numpoly": ("BinomialDecomposition", "NumPoly", "decompose", "h1_upper_bound", "hilb_nonempty"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
