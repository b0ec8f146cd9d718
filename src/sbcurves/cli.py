"""Command-line surface.

Subcommands: ``feasible`` (profile enumeration for an algebra and a linear
polynomial), ``classify`` (invariants and shape recognition of an ingested
configuration file), ``family`` (standard configurations, optionally with
twist cohomology and smoothing-hypothesis checks), ``cohomology`` (twist
cohomology of an embedded configuration file) and ``check-config``
(validation only).

Each subcommand builds one document, with a stable field order and a
``schema_version`` field; ``feasible``'s lists its ``SubschemeProfile``
objects themselves.  ``--format json`` prints it as ``json.dumps(indent=2)``
would, each profile written as its fields; the default ``--format table``
prints a deterministic table rendered from that document alone, so the two
formats cannot drift apart (the ``SBCURVES_FORMAT`` environment variable
sets the default).  Exit status: 0 ok, 2 usage, 3 file parse error,
4 invariant violation, 5 unsatisfiable preconditions.

Each handler imports the layers it runs when it runs, so a one-shot
``python -m sbcurves`` loads only those: ``feasible`` never loads the
coordinate and file layers, and ``family`` loads ``cohomology`` only for
``--cohomology`` or ``--smoothing``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .errors import ConfigParseError, InvariantError, PreconditionError
from .lineconfig import complete, cube, disjoint_lines, is_pgon, ngon, report

SCHEMA_VERSION = 1
FORMAT_ENV = "SBCURVES_FORMAT"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_PRECONDITION = 5


class UsageError(ValueError):
    """Arguments argparse accepts but the query cannot use."""


# Every document but feasible's is a few fields under 1 KB, written by
# json.dumps and a cell-by-cell table.  A feasible document holds its
# profile objects, up to hundreds of thousands of them in a few curve
# shapes: the table reads each column straight from their attributes, and
# the JSON fills one template per curve shape.


class _Memo(dict):
    """``function(key)`` for each key looked up, computed on first use."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        self[key] = value = self.function(key)
        return value


_YES_NO = {False: "no", True: "yes"}


def _cell(value) -> str:
    if isinstance(value, bool):
        return _YES_NO[value]
    if value is None:
        return "-"
    if isinstance(value, list):
        return "+".join(map(str, value)) or "-"
    return str(value)


def _format_grid(headers, columns) -> str:
    """Columns of cell strings, left-aligned under a dashed rule."""
    widths = [max(len(header), *map(len, column)) for header, column in zip(headers, columns)]
    line = "  ".join("%%-%ds" % width for width in widths)
    return "\n".join(
        [(line % headers).rstrip(), "  ".join("-" * width for width in widths).rstrip()]
        + [(line % row).rstrip() for row in zip(*columns)]
    )


def _grid(rows, headers=None) -> str:
    """A table of a few records, cell by cell; the headers default to the row keys."""
    columns = [list(map(_cell, column)) for column in zip(*map(dict.values, rows))]
    return _format_grid(tuple(headers or rows[0]), columns)


_FEASIBLE_HEADERS = (
    "narrative", "degree", "h0", "h1", "chi",
    "connected", "reduced", "irreducible", "points", "provenance",
)


def _feasible_grid(profiles) -> str:
    """The profile table, each column read straight from the profiles' attributes."""
    from .classify import Narrative

    names = {tag: tag.value for tag in Narrative}
    points = _Memo(lambda degrees: "+".join(map(str, degrees)) or "-")
    columns = [
        [names[p.narrative] for p in profiles],
        [str(p.curve_degree) for p in profiles],
        [str(p.h0) for p in profiles],
        [str(p.h1) for p in profiles],
        [str(p.chi()) for p in profiles],
        [_YES_NO[p.geom_connected] for p in profiles],
        [_YES_NO[p.geom_reduced] for p in profiles],
        [_YES_NO[p.geom_irreducible] for p in profiles],
        [points[p.extra_point_degrees] for p in profiles],
        [p.provenance for p in profiles],
    ]
    return _format_grid(_FEASIBLE_HEADERS, columns)


def render_table(doc: dict) -> str:
    """The table form of a subcommand's document, read from the document alone."""
    command = doc["command"]
    if command == "feasible":
        from .numpoly import NumPoly

        poly, index = NumPoly(**doc["poly"]), doc["algebra"]["index"]
        summary = f"{doc['profile_count']} admissible profile(s) for {poly} at index {index}"
        if not doc["profiles"]:
            return summary + " (constraints are jointly unsatisfiable)"
        return summary + "\n\n" + _feasible_grid(doc["profiles"])
    blocks = []
    if command == "family":
        label = doc["family"] if doc["size"] is None else f"{doc['family']}({doc['size']})"
        blocks.append(_grid([{"family": label, **doc["report"]}]))
    elif command == "classify":
        pgon = f"pgon(p={doc['pgon_parameter']})"
        blocks.append(_grid([{**doc["report"], pgon: doc["is_pgon"]}]))
    elif command == "check-config":
        fields = {k: v for k, v in doc.items() if k not in ("schema_version", "command", "path")}
        blocks += ["ok", _grid([fields])]
    if "cohomology" in doc:
        blocks.append(_grid(doc["cohomology"]))
    if "smoothing" in doc:
        blocks.append(_grid([doc["smoothing"]]))
    return "\n\n".join(blocks)


# One profile as json.dumps(indent=2) writes it inside the "profiles" list.
# The first % fills in a curve shape; the %%d and %%s left over take chi
# and the point degrees.
_PROFILE_JSON = """{
      "narrative": %s,
      "curve_degree": %d,
      "h0": %d,
      "h1": %d,
      "chi": %%d,
      "geom_connected": %s,
      "geom_reduced": %s,
      "geom_irreducible": %s,
      "extra_point_degrees": %%s,
      "provenance": %s
    }"""


def _profile_template(shape) -> str:
    import json

    narrative, degree, h0, h1, connected, reduced, irreducible, provenance = shape
    # a % in a string would be read as a slot by the second fill
    name, origin = (json.dumps(text).replace("%", "%%") for text in (narrative.value, provenance))
    flags = map(json.dumps, (connected, reduced, irreducible))
    return _PROFILE_JSON % (name, degree, h0, h1, *flags, origin)


def _json_points(degrees) -> str:
    return "[\n        " + ",\n        ".join(map(str, degrees)) + "\n      ]" if degrees else "[]"


def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, reading feasible's profile objects as their fields.

    A feasible document can list hundreds of thousands of profiles but only
    a few curve shapes, so each profile is one fill of its shape's template.
    """
    import json

    profiles = doc["profiles"] if doc["command"] == "feasible" else None
    if not profiles:
        return json.dumps(doc, indent=2)
    templates, points = _Memo(_profile_template), _Memo(_json_points)
    rows = [
        templates[
            p.narrative, p.curve_degree, p.h0, p.h1,
            p.geom_connected, p.geom_reduced, p.geom_irreducible, p.provenance,
        ] % (p.chi(), points[p.extra_point_degrees])
        for p in profiles
    ]
    # the header as json.dumps writes it, up to the opening bracket of "profiles"
    head = json.dumps({**doc, "profiles": []}, indent=2)[: -len("]\n}")]
    return head + "\n    " + ",\n    ".join(rows) + "\n  ]\n}"


def _cmd_feasible(args) -> dict:
    from .classify import enumerate_profiles
    from .constraints import AlgebraInvariants
    from .numpoly import NumPoly

    d, n, m, division = args.degree, args.index, args.exponent, args.division
    r, s = args.poly
    alg = AlgebraInvariants(d=d, n=n, m=m, is_division=division)
    profiles = enumerate_profiles(alg, NumPoly(r, s))
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "feasible",
        "algebra": {"degree": d, "index": n, "exponent": m, "division": division},
        "poly": {"r": r, "s": s},
        "profile_count": len(profiles),
        "profiles": profiles,
    }


_FAMILIES = {
    "ngon": (ngon, True),
    "cube": (cube, True),
    "complete": (complete, True),
    "disjoint-lines": (disjoint_lines, False),
}


def _cmd_family(args) -> dict:
    builder, sized = _FAMILIES[args.name]
    if sized and args.size is None:
        raise UsageError(f"family {args.name!r} needs a size argument")
    if not sized and args.size is not None:
        raise UsageError(f"family {args.name!r} takes no size argument")
    config = builder(args.size) if sized else builder()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "family",
        "family": args.name,
        "size": args.size,
        "report": asdict(report(config)),
    }
    if args.cohomology or args.smoothing:
        from .cohomology import smoothing_hypotheses, standard_embedding

        dim = args.embed_dim if args.embed_dim is not None else len(config.vertices)
        embedded = standard_embedding(config, dim)
        doc["embedding"] = {"method": "standard", "ambient_dim": dim}
        if args.cohomology:
            doc["cohomology"] = _twist_rows(embedded, args.cohomology)
        if args.smoothing:
            doc["smoothing"] = asdict(smoothing_hypotheses(embedded))
    return doc


def _twist_rows(embedded, twists) -> list:
    """The cohomology rows of ``twists``, refused if an h0 has too many digits to print."""
    from .cohomology import twist_cohomology

    rows = [asdict(twist_cohomology(embedded, m)) for m in twists]
    # h0 is the row's largest number; before Python 3.10.7 there is no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for row in rows:
        h0 = row["h0"]
        # 10**limit has more than 3 * limit bits, so a shorter h0 needs no power
        if limit and h0.bit_length() > 3 * limit and h0 >= 10**limit:
            raise PreconditionError(
                f"a twist of {len(str(row['m']))} digits gives an h0 of more than "
                f"{limit} digits, too many to print"
            )
    return rows


def _cmd_classify(args) -> dict:
    from .configfile import load_config

    config = load_config(args.config).config
    rep = report(config)
    p = args.pgon if args.pgon is not None else rep.degree
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "path": args.config,
        "report": asdict(rep),
        "pgon_parameter": p,
        "is_pgon": is_pgon(config, p),
    }


def _cmd_cohomology(args) -> dict:
    from .configfile import load_config

    embedded = load_config(args.config).embedded
    if embedded is None:
        raise PreconditionError(
            "twist cohomology needs an embedded configuration: add vertex coordinates"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "cohomology",
        "path": args.config,
        "ambient_dim": embedded.ambient_dim,
        "cohomology": _twist_rows(embedded, args.twist),
    }


def _cmd_check_config(args) -> dict:
    from .configfile import load_config

    parsed = load_config(args.config)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check-config",
        "path": args.config,
        "vertices": len(parsed.config.vertices),
        "edges": len(parsed.config.edges),
        "generators": len(parsed.config.action),
        "embedded": parsed.is_embedded,
        "ambient_dim": parsed.embedded.ambient_dim if parsed.embedded else None,
    }


_HANDLERS = {
    "feasible": _cmd_feasible,
    "classify": _cmd_classify,
    "family": _cmd_family,
    "cohomology": _cmd_cohomology,
    "check-config": _cmd_check_config,
}


def run(args: argparse.Namespace):
    """Execute one parsed command line; returns (exit status, rendered output)."""
    fmt = args.format or os.environ.get(FORMAT_ENV) or "table"
    if fmt not in ("table", "json"):
        return EXIT_USAGE, f"error: unknown output format {fmt!r}"
    try:
        doc = _HANDLERS[args.command](args)
    except UsageError as exc:
        return EXIT_USAGE, f"error: {exc}"
    except ConfigParseError as exc:
        return EXIT_PARSE, f"error: {exc}"
    except InvariantError as exc:
        return EXIT_INVARIANT, f"error: {exc}"
    except PreconditionError as exc:
        return EXIT_PRECONDITION, f"error: {exc}"
    return EXIT_OK, render_json(doc) if fmt == "json" else render_table(doc)


def _int_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected R,S with integer entries, got {text!r}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected exact integers, got {text!r}") from None


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbcurves",
        description="Feasibility and classification of low-degree curves on Severi-Brauer varieties.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "json"),
        default=None,
        help=f"output format (default: ${FORMAT_ENV} or table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    feasible = sub.add_parser(
        "feasible", parents=[common], help="enumerate admissible subscheme profiles"
    )
    feasible.add_argument("--degree", type=int, required=True, help="degree of the algebra")
    feasible.add_argument("--index", type=int, required=True, help="index of the algebra")
    feasible.add_argument("--exponent", type=int, required=True, help="exponent of the algebra")
    feasible.add_argument(
        "--division", action="store_true", help="the algebra is a division algebra"
    )
    feasible.add_argument(
        "--poly", type=_int_pair, required=True, metavar="R,S", help="linear polynomial R*t+S"
    )

    classify = sub.add_parser(
        "classify", parents=[common], help="invariants and shape of a configuration file"
    )
    classify.add_argument("config", help="configuration file path")
    classify.add_argument(
        "--pgon", type=int, default=None, help="test the p-gon shape for this p (default: edge count)"
    )

    family = sub.add_parser(
        "family", parents=[common], help="standard configuration families"
    )
    family.add_argument("name", choices=sorted(_FAMILIES), help="family name")
    family.add_argument("size", type=int, nargs="?", default=None, help="family size parameter")
    family.add_argument(
        "--embed",
        choices=("standard",),
        default="standard",
        help="embedding used for cohomology (vertices at standard basis vectors)",
    )
    family.add_argument(
        "--embed-dim", type=int, default=None, help="ambient dimension (default: vertex count)"
    )
    family.add_argument(
        "--cohomology", type=_int_list, default=(), metavar="M[,M...]", help="twists to compute"
    )
    family.add_argument(
        "--smoothing", action="store_true", help="check the smoothing hypotheses"
    )

    cohom = sub.add_parser(
        "cohomology", parents=[common], help="twist cohomology of an embedded configuration file"
    )
    cohom.add_argument("config", help="configuration file path (with coordinates)")
    cohom.add_argument(
        "--twist", type=_int_list, required=True, metavar="M[,M...]", help="twists to compute"
    )

    check = sub.add_parser(
        "check-config", parents=[common], help="validate a configuration file"
    )
    check.add_argument("config", help="configuration file path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    status, text = run(args)
    stream = sys.stdout if status == EXIT_OK else sys.stderr
    if text:
        try:
            print(text, file=stream)
            stream.flush()
        except BrokenPipeError:
            # the reader left early; point the stream at devnull so the
            # flush at interpreter exit has nowhere to fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    return status


def console_main():
    raise SystemExit(main())
