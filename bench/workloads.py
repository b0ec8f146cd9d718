"""Seeded inputs for the three benchmark workloads.

A run is a sequence of rounds.  Round ``k`` of a run with seed ``s`` is drawn
from ``random.Random(f"{workload}:{s}:{k}")``, so one seed always yields the
same argv lists and byte-identical configuration texts.  Every round draws
the same queries from each class, the classes are narrow in cost, and choices
that change the cost a lot (twist sets, generator notation, which command
reads a large file) are fixed per class instead of drawn, so every round
does about the same work whatever the seed or the round number.  Because classes
are narrow, a query text can recur across rounds; the program keeps no
state between queries, so a recurrence costs the same as a first run.

The graphs are built here, not by ``sbcurves``: the oracle derives its
reference answers from these graphs alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

WORKLOADS = ("profiles", "twists", "configs")


@dataclass(frozen=True)
class Graph:
    """A standard family on vertices ``0..nverts-1`` with its generator images."""

    family: str
    size: int
    nverts: int
    edges: tuple  # (i, j) pairs with i < j
    generators: tuple  # each a tuple: entry i is the image of vertex i


def family_graph(family: str, size: int) -> Graph:
    """The n-gon with its rotation, the r-cube with its coordinate flips, or
    the complete graph on n points with a transposition and an n-cycle."""
    if family == "ngon":
        nverts = size
        edges = [(i, i + 1) for i in range(size - 1)] + [(0, size - 1)]
        generators = [tuple((i + 1) % size for i in range(size))]
    elif family == "cube":
        nverts = 1 << size
        edges = [
            (v, v | 1 << i) for v in range(nverts) for i in range(size) if not v >> i & 1
        ]
        generators = [tuple(v ^ 1 << i for v in range(nverts)) for i in range(size)]
    elif family == "complete":
        nverts = size
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
        swap = list(range(size))
        swap[0], swap[1] = 1, 0
        generators = [tuple(swap), tuple((i + 1) % size for i in range(size))]
    else:
        raise ValueError(f"unknown family {family!r}")
    return Graph(family, size, nverts, tuple(edges), tuple(generators))


@dataclass
class Query:
    """One CLI invocation and the facts the oracle needs to check its output.

    ``kind`` is the subcommand.  ``graph`` is the configuration behind a
    ``family`` query or a configuration file; ``ambient_dim`` is the
    coordinate count (``None`` for a file without coordinates).
    """

    kind: str
    argv: list
    fmt: str
    graph: Graph | None = None
    ambient_dim: int | None = None
    twists: tuple = ()
    smoothing: bool = False
    pgon: int | None = None
    n: int | None = None  # feasible: index (= degree) of the division algebra
    exponent: int | None = None  # feasible: exponent of the algebra
    s: int | None = None  # feasible: constant term of r*t + s
    config: "ConfigFile | None" = None


@dataclass(frozen=True)
class ConfigFile:
    """A generated configuration file and the graph it describes."""

    path: str
    text: str
    graph: Graph
    ambient_dim: int | None
    notation: str

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def _formats(rng, count):
    """Half table, half JSON (the odd one out seeded), in seeded order."""
    fmts = ["table", "json"] * (count // 2 + 1)
    if count % 2 and rng.random() < 0.5:
        fmts = fmts[1:]
    fmts = fmts[:count]
    rng.shuffle(fmts)
    return fmts


# ---------------------------------------------------------------- profiles

# (index, constant terms) classes.  A class's constant terms give profile
# counts within a factor of two of each other (see expected.json).  Classes
# whose queries sit near the median query time, or above 10^3 profiles, have
# one constant term, or two within 5%, so the queries that set p50 and the
# tail cost the same in every round.  Every round asks each class once per
# output format.  Counts run from 4 (the paper's 5t) to about 10^4.
PROFILE_CLASSES = (
    (5, (0,)), (5, (5, 10)), (5, (30,)), (5, (45,)), (5, (65,)),
    (7, (7, 14)), (7, (35,)), (7, (49,)), (7, (77,)),
    (8, (36, 40)), (8, (88, 92)), (8, (112, 116)), (8, (152, 156)),
    (15, (0,)), (15, (60,)),
)
TINY_PROFILE_CLASSES = ((5, (0,)), (7, (7,)), (8, (4, 8)), (15, (0,)))
EXPONENTS = {5: (5,), 7: (7,), 8: (2, 4, 8), 15: (15,)}


def min_curve_degree(n: int) -> int:
    return n if n % 2 else n // 2


def feasible_query(n: int, s: int, fmt: str, exponent: int | None = None) -> Query:
    r = min_curve_degree(n)
    m = exponent if exponent is not None else n
    argv = [
        "feasible", "--degree", str(n), "--index", str(n), "--exponent", str(m),
        "--division", "--poly", f"{r},{s}", "--format", fmt,
    ]
    return Query(kind="feasible", argv=argv, fmt=fmt, n=n, exponent=m, s=s)


def profiles_round(rng: random.Random, tiny: bool = False) -> list:
    queries = []
    for n, values in TINY_PROFILE_CLASSES if tiny else PROFILE_CLASSES:
        for fmt in ("table", "json"):
            queries.append(feasible_query(n, rng.choice(values), fmt, rng.choice(EXPONENTS[n])))
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------ twists

# (family, sizes, shapes): each round asks every tier once per shape.  A
# shape is a twist set with or without the smoothing checks; across the
# tiers every nonempty proper subset of {0, 1, 2} occurs, with and without
# smoothing.  Sizes vary by a few percent, and a quarter of the queries embed
# in a larger ambient space (``spans`` false).
TWIST_TIERS = (
    ("ngon", (5, 6, 7), (((0, 1), False), ((2,), True))),
    ("ngon", range(28, 33), (((1, 2), False), ((0,), True))),
    ("ngon", range(64, 67), (((0, 2), False), ((1,), True))),
    ("ngon", range(120, 128), (((0, 1), False),)),
    ("ngon", range(196, 201), (((1,), False), ((2,), False))),
    ("cube", (3,), (((0, 2), False), ((1,), True))),
    ("cube", (4,), (((0, 1), False), ((2,), True))),
    ("cube", (5,), (((1, 2), False),)),
    ("complete", (5, 6), (((0, 2), False), ((0,), True))),
    ("complete", (8,), (((1, 2), False), ((1,), True))),
    ("complete", (10,), (((0, 1), False),)),
    ("complete", (12,), (((1, 2), False),)),
)
TINY_TWIST_TIERS = (
    ("ngon", (5, 6, 7), (((0, 1), False), ((2,), True))),
    ("cube", (3,), (((0,), True),)),
    ("complete", (4, 5), (((1, 2), False),)),
)


def family_query(family, size, fmt, twists=(), smoothing=False, embed_dim=None) -> Query:
    graph = family_graph(family, size)
    argv = ["family", family, str(size), "--format", fmt]
    if embed_dim is not None:
        argv += ["--embed-dim", str(embed_dim)]
    if twists:
        argv += ["--cohomology", ",".join(str(m) for m in twists)]
    if smoothing:
        argv.append("--smoothing")
    dim = embed_dim if embed_dim is not None else graph.nverts
    return Query(
        kind="family", argv=argv, fmt=fmt, graph=graph, ambient_dim=dim,
        twists=tuple(twists), smoothing=smoothing,
    )


def twists_round(rng: random.Random, tiny: bool = False) -> list:
    queries = []
    for family, sizes, shapes in TINY_TWIST_TIERS if tiny else TWIST_TIERS:
        for (twists, smoothing), fmt in zip(shapes, _formats(rng, len(shapes))):
            size = rng.choice(sizes)
            embed_dim = None
            if rng.random() < 0.25:
                embed_dim = family_graph(family, size).nverts + rng.randint(1, 3)
            twists = rng.sample(twists, len(twists))  # in the order a user might type them
            queries.append(family_query(family, size, fmt, twists, smoothing, embed_dim))
    rng.shuffle(queries)
    return queries


# ----------------------------------------------------------------- configs


def _cycle_notation(perm, names):
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = []
        v = start
        while v not in seen:
            seen.add(v)
            cycle.append(names[v])
            v = perm[v]
        cycles.append("(" + " ".join(cycle) + ")")
    return "".join(cycles)


def change_of_basis(d: int, rng: random.Random) -> list:
    """Rows of L*U for seeded unit lower and upper triangular rational L, U.

    The rows form a basis of Q^d (det = 1), so any subset of them is
    linearly independent: points at these rows span lines that meet only at
    shared vertices and have independent branch directions at every vertex.
    Both factors are dense, so the rows are dense rationals.
    """

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    lower = [[entry() for _ in range(i)] + [Fraction(1)] for i in range(d)]
    upper = [[Fraction(1)] + [entry() for _ in range(d - i - 1)] for i in range(d)]
    rows = []
    for i in range(d):
        row = [Fraction(0)] * d
        for k in range(i + 1):
            a = lower[i][k]
            if a:
                for j, u in enumerate(upper[k], start=k):
                    row[j] += a * u
        rows.append(row)
    return rows


def config_text(graph: Graph, rng: random.Random, notation: str, ambient_dim=None) -> str:
    """Serialize ``graph`` with shuffled, randomly oriented edges.

    ``notation`` is ``cycles`` or ``images`` for the generators.  With
    ``ambient_dim`` set, vertex i gets row i of a seeded change of basis of
    Q^ambient_dim as its coordinates.
    """
    names = [f"v{i}" for i in range(graph.nverts)]
    coords = change_of_basis(ambient_dim, rng)[: graph.nverts] if ambient_dim else None
    out = [f"# {graph.family}({graph.size}), {notation} generators", "[vertices]"]
    for i, name in enumerate(names):
        if coords:
            out.append(f"{name}: " + ", ".join(str(x) for x in coords[i]))
        else:
            out.append(name)
    out += ["", "[edges]"]
    edges = list(graph.edges)
    rng.shuffle(edges)
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        out.append(f"{names[a]} {names[b]}")
    out += ["", "[generators]"]
    for perm in graph.generators:
        if notation == "cycles":
            out.append(_cycle_notation(perm, names))
        else:
            out.append(" ".join(names[j] for j in perm))
    return "\n".join(out) + "\n"


# (family, sizes, notation, commands) tiers of files without coordinates,
# from about 10^3 to about 2*10^4 lines.
PLAIN_TIERS = (
    ("ngon", range(9600, 10001), "cycles", ("check-config",)),
    ("ngon", range(2900, 3001), "images", ("classify",)),
    ("ngon", range(1000, 1051), "cycles", ("classify",)),
    ("ngon", range(1000, 1051), "images", ("check-config",)),
    ("cube", (9,), "cycles", ("classify",)),
    ("cube", (9,), "images", ("check-config",)),
    ("complete", range(57, 61), "images", ("check-config",)),
    ("complete", range(195, 201), "cycles", ("classify",)),
)
# (family, sizes, notation, twists) tiers of small embedded files (7 to 61
# vertices); each goes through check-config, classify and cohomology.
EMBEDDED_TIERS = (
    ("ngon", range(7, 10), "cycles", (0, 1)),
    ("ngon", range(58, 62), "images", (2,)),
    ("cube", (3,), "images", (1, 2)),
    ("cube", (4,), "cycles", (0,)),
    ("complete", (9,), "cycles", (0, 2)),
)
TINY_PLAIN_TIERS = (("ngon", range(20, 40), "cycles", ("check-config",)),
                    ("cube", (3,), "images", ("classify",)))
TINY_EMBEDDED_TIERS = (("ngon", range(5, 9), "images", (0, 2)), ("complete", (4, 5), "cycles", (1,)))
ALL_COMMANDS = ("check-config", "classify", "cohomology")


def config_queries(cfg: ConfigFile, rng: random.Random, kinds, twists=(0,)) -> list:
    """Queries of the given kinds on one file, in balanced formats."""
    graph, dim = cfg.graph, cfg.ambient_dim
    common = dict(graph=graph, ambient_dim=dim, config=cfg)
    queries = []
    for kind, fmt in zip(kinds, _formats(rng, len(kinds))):
        if kind == "check-config":
            argv = ["check-config", cfg.path, "--format", fmt]
            queries.append(Query(kind=kind, argv=argv, fmt=fmt, **common))
        elif kind == "classify":
            argv = ["classify", cfg.path, "--format", fmt]
            pgon = None
            if rng.random() < 0.5:
                pgon = rng.choice((3, 5, 7, len(graph.edges)))
                argv += ["--pgon", str(pgon)]
            queries.append(Query(kind=kind, argv=argv, fmt=fmt, pgon=pgon, **common))
        else:
            argv = ["cohomology", cfg.path, "--twist", ",".join(map(str, twists)), "--format", fmt]
            queries.append(Query(kind=kind, argv=argv, fmt=fmt, twists=tuple(twists), **common))
    return queries


def configs_round(rng: random.Random, workdir: str, prefix: str, tiny: bool = False):
    plain = TINY_PLAIN_TIERS if tiny else PLAIN_TIERS
    embedded = TINY_EMBEDDED_TIERS if tiny else EMBEDDED_TIERS
    tiers = [(f, sizes, notation, kinds, (), False) for f, sizes, notation, kinds in plain]
    tiers += [(f, sizes, notation, ALL_COMMANDS, twists, True) for f, sizes, notation, twists in embedded]
    files, queries = [], []
    for k, (family, sizes, notation, kinds, twists, embed) in enumerate(tiers):
        graph = family_graph(family, rng.choice(sizes))
        dim = graph.nverts + (1 if rng.random() < 0.25 else 0) if embed else None
        text = config_text(graph, rng, notation, dim)
        cfg = ConfigFile(f"{workdir}/{prefix}{k}.cfg", text, graph, dim, notation)
        files.append(cfg)
        queries += config_queries(cfg, rng, kinds, rng.sample(twists, len(twists)))
    rng.shuffle(queries)
    return files, queries


def round_queries(workload: str, seed: int, number: int, workdir: str, tiny: bool = False):
    """``(files, queries)`` of round ``number`` of a run with this seed.

    ``files`` lists the configuration files the queries read (``configs``
    only); the caller writes them under ``workdir`` before running them.
    """
    rng = random.Random(f"{workload}:{seed}:{number}")
    if workload == "profiles":
        return [], profiles_round(rng, tiny)
    if workload == "twists":
        return [], twists_round(rng, tiny)
    if workload == "configs":
        return configs_round(rng, workdir, f"r{number}-", tiny)
    raise ValueError(f"unknown workload {workload!r}")
