"""Reference answers, computed by the benchmark without calling ``sbcurves``.

* Graph facts (V, E, components, vertex degrees) come from the benchmark's
  own graphs and its own breadth-first search.
* Twist cohomology of a standard or generated embedding follows the
  graph-curve closed form: at m = 0, h0 = c and h1 = E - V + c; at m >= 1,
  h0 = E(m - 1) + V and h1 = 0.  ``spans`` holds iff V = d.  The smoothing
  flags follow: h1(O) = 1 iff the cycle rank is 1, h1(O(1)) always vanishes,
  and the curve is nodal iff every vertex has degree 2.
* Every standard family is transitive on vertices under its generators; the
  n-gon's rotation and the complete graph's S_n are transitive on lines, the
  cube's coordinate flips are not (they keep each line's direction).
  A configuration is a p-gon iff p is an odd prime, the graph
  is connected with p vertices and p lines, and every vertex has degree 2.
* Profiles are checked against the paper's four profiles for 5t and against
  invariants every profile must satisfy; their count is pinned in
  expected.json, which ``profile_count`` below regenerates by counting
  partitions rather than enumerating them.

``check(query, status, out)`` returns ``None`` when the output agrees and a
one-line reason otherwise.  Tables are compared cell by cell; JSON
documents byte for byte against ``json.dumps(doc, indent=2)``, except
``feasible`` documents, whose reference is not a list but the checks above.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from workloads import EXPECTED, Graph, min_curve_degree

SCHEMA_VERSION = 1
NARRATIVES = EXPECTED["narratives"]
PROVENANCES = set(EXPECTED["provenances"])


# ------------------------------------------------------------ graph facts


def components(graph: Graph) -> int:
    adjacency = [[] for _ in range(graph.nverts)]
    for a, b in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * graph.nverts
    count = 0
    for start in range(graph.nverts):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        for v in queue:
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


def degrees(graph: Graph) -> list:
    deg = [0] * graph.nverts
    for a, b in graph.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


@lru_cache(maxsize=16)  # a round's graphs; more would let memory grow with the run
def facts(graph: Graph) -> tuple:
    """(V, E, components, every vertex on exactly two lines)."""
    return (
        graph.nverts,
        len(graph.edges),
        components(graph),
        all(d == 2 for d in degrees(graph)),
    )


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))


# family -> (transitive on lines, transitive on vertices)
TRANSITIVE = {"ngon": (True, True), "cube": (False, True), "complete": (True, True)}


def expected_report(graph: Graph) -> dict:
    nverts, nedges, comps, _ = facts(graph)
    on_lines, on_vertices = TRANSITIVE[graph.family]
    return {
        "degree": nedges,
        "h0": comps,
        "h1": nedges - nverts + comps,
        "edge_transitive": on_lines,
        "vertex_single_orbit": on_vertices,
    }


def expected_is_pgon(graph: Graph, p: int) -> bool:
    nverts, nedges, comps, nodal = facts(graph)
    return (
        p % 2 == 1 and is_prime(p) and nverts == nedges == p and nodal and comps == 1
        and TRANSITIVE[graph.family][0]
    )


def expected_cohomology(graph: Graph, m: int, ambient_dim: int) -> dict:
    nverts, nedges, comps, _ = facts(graph)
    if m == 0:
        h0, h1 = comps, nedges - nverts + comps
    else:
        h0, h1 = nedges * (m - 1) + nverts, 0
    return {"m": m, "h0": h0, "h1": h1, "chi": h0 - h1, "spans": nverts == ambient_dim}


def expected_smoothing(graph: Graph) -> dict:
    nverts, nedges, comps, nodal = facts(graph)
    return {
        "h1_O_equals_1": nedges - nverts + comps == 1,
        "h1_O1_vanishes": True,
        "nodal": nodal,
    }


def matrix_cells(graph: Graph, m: int, ambient_dim: int) -> int:
    """Cells of the agreement matrix plus the spans matrix for one twist."""
    nverts, nedges, _, _ = facts(graph)
    return (2 * nedges - nverts) * nedges * (m + 1) + nverts * ambient_dim


def expected_doc(q) -> dict:
    """The JSON document a non-feasible query must print."""
    graph = q.graph
    if q.kind == "family":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "family",
            "family": graph.family,
            "size": graph.size,
            "report": expected_report(graph),
        }
        if q.twists or q.smoothing:
            doc["embedding"] = {"method": "standard", "ambient_dim": q.ambient_dim}
        if q.twists:
            doc["cohomology"] = [expected_cohomology(graph, m, q.ambient_dim) for m in q.twists]
        if q.smoothing:
            doc["smoothing"] = expected_smoothing(graph)
        return doc
    path = q.config.path
    if q.kind == "check-config":
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "check-config",
            "path": path,
            "vertices": graph.nverts,
            "edges": len(graph.edges),
            "generators": len(graph.generators),
            "embedded": q.ambient_dim is not None,
            "ambient_dim": q.ambient_dim,
        }
    if q.kind == "classify":
        p = q.pgon if q.pgon is not None else len(graph.edges)
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "classify",
            "path": path,
            "report": expected_report(graph),
            "pgon_parameter": p,
            "is_pgon": expected_is_pgon(graph, p),
        }
    if q.kind == "cohomology":
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "cohomology",
            "path": path,
            "ambient_dim": q.ambient_dim,
            "cohomology": [expected_cohomology(graph, m, q.ambient_dim) for m in q.twists],
        }
    raise ValueError(f"no reference document for {q.kind!r}")


# ----------------------------------------------------------------- tables


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _table(headers, rows) -> list:
    return [list(headers)] + [[_cell(v) for v in row] for row in rows]


def expected_tables(q) -> list:
    """Header-plus-rows blocks of the table output, cells as strings."""
    doc = expected_doc(q)
    cohom = ("m", "h0", "h1", "chi", "spans")
    if q.kind == "family":
        rep = doc["report"]
        blocks = [_table(
            ("family", "degree", "h0", "h1", "edge_transitive", "vertex_single_orbit"),
            [[f"{doc['family']}({doc['size']})", *rep.values()]],
        )]
        if q.twists:
            blocks.append(_table(cohom, [c.values() for c in doc["cohomology"]]))
        if q.smoothing:
            sm = doc["smoothing"]
            blocks.append(_table(sm.keys(), [sm.values()]))
        return blocks
    if q.kind == "check-config":
        dim = doc["ambient_dim"]
        return [[["ok"]], _table(
            ("vertices", "edges", "generators", "embedded", "ambient_dim"),
            [[doc["vertices"], doc["edges"], doc["generators"], doc["embedded"],
              "-" if dim is None else dim]],
        )]
    if q.kind == "classify":
        p = doc["pgon_parameter"]
        return [_table(
            ("degree", "h0", "h1", "edge_transitive", "vertex_single_orbit", f"pgon(p={p})"),
            [[*doc["report"].values(), doc["is_pgon"]]],
        )]
    return [_table(cohom, [c.values() for c in doc["cohomology"]])]


_GAP = re.compile(r"  +")


def parse_tables(out: str) -> list:
    """Split table output into blocks of rows, dropping the dashed rule."""
    blocks = []
    for chunk in out.strip("\n").split("\n\n"):
        rows = [_GAP.split(line.strip()) for line in chunk.split("\n")]
        if len(rows) > 1 and all(set(c) == {"-"} for c in rows[1]):
            del rows[1]
        blocks.append(rows)
    return blocks


# --------------------------------------------------------------- profiles


PROFILE_HEADERS = [
    "narrative", "degree", "h0", "h1", "chi", "connected", "reduced", "irreducible", "points",
    "provenance",
]


def _points(cell: str) -> tuple:
    return () if cell == "-" else tuple(int(p) for p in cell.split("+"))


def _profiles_from_table(out: str, q):
    blocks = parse_tables(out)
    head = blocks[0][0][0]
    match = re.fullmatch(r"(\d+) admissible profile\(s\) for (\S+) at index (\d+)", head)
    if not match:
        return None, f"unexpected summary line {head!r}"
    count = int(match.group(1))
    if count == 0:
        return [], None
    if blocks[1][0] != PROFILE_HEADERS:
        return None, f"unexpected table header {blocks[1][0]!r}"
    rows = blocks[1][1:]
    profiles = []
    for row in rows:
        if len(row) != 10:
            return None, f"profile row has {len(row)} cells: {row!r}"
        narrative, degree, h0, h1, chi, conn, red, irr, points, prov = row
        profiles.append({
            "narrative": narrative,
            "curve_degree": int(degree),
            "h0": int(h0),
            "h1": int(h1),
            "chi": int(chi),
            "geom_connected": conn == "yes",
            "geom_reduced": red == "yes",
            "geom_irreducible": irr == "yes",
            "extra_point_degrees": list(_points(points)),
            "provenance": prov,
        })
    if count != len(profiles):
        return None, f"summary says {count} profiles, table has {len(profiles)}"
    poly = f"{min_curve_degree(q.n)}t" + (f"{q.s:+d}" if q.s else "")
    if match.group(2) != poly or int(match.group(3)) != q.n:
        return None, f"summary names {match.group(2)} at index {match.group(3)}"
    return profiles, None


def _profiles_from_json(out: str, q):
    doc = json.loads(out)
    header = {
        "schema_version": SCHEMA_VERSION,
        "command": "feasible",
        "algebra": {"degree": q.n, "index": q.n, "exponent": q.exponent, "division": True},
        "poly": {"r": min_curve_degree(q.n), "s": q.s},
        "profile_count": doc.get("profile_count"),
    }
    if list(doc) != list(header) + ["profiles"] or any(doc[k] != v for k, v in header.items()):
        return None, "feasible document header disagrees"
    if doc["profile_count"] != len(doc["profiles"]):
        return None, "profile_count disagrees with the profile list"
    return doc["profiles"], None


def check_profiles(q, profiles) -> str | None:
    n, s = q.n, q.s
    r = min_curve_degree(n)
    want = EXPECTED["profile_counts"][str(n)][str(s)]
    if len(profiles) != want:
        return f"{len(profiles)} profiles, pinned count is {want}"
    if (n, s) == (5, 0) and profiles != EXPECTED["paper_5t"]:
        return "5t profiles differ from the paper's four"
    keys = []
    for p in profiles:
        points = p["extra_point_degrees"]
        if p["narrative"] not in NARRATIVES or p["provenance"] not in PROVENANCES:
            return f"unknown narrative or provenance in {p!r}"
        if p["curve_degree"] != r:
            return f"curve degree {p['curve_degree']} is not f({n}) = {r}"
        if p["chi"] != s or p["h0"] - p["h1"] + sum(points) != s:
            return f"chi of {p!r} is not {s}"
        if any(deg <= 0 or deg % n for deg in points):
            return f"point degrees {points} are not positive multiples of {n}"
        if p["h1"] > (r * r - 3 * r) // 2 + p["h0"]:
            return f"h1 of {p!r} exceeds the Hartshorne bound"
        keys.append((NARRATIVES.index(p["narrative"]), p["h0"], p["h1"], tuple(points)))
    if keys != sorted(keys):
        return "profiles are not in canonical order"
    distinct = {tuple(tuple(v) if isinstance(v, list) else v for v in p.values()) for p in profiles}
    if len(distinct) != len(profiles):
        return "duplicate profiles"
    return None


# ------------------------------------------------------------------ check


def check(q, status: int, out: str) -> str | None:
    """None if the query's output agrees with the reference, else why not."""
    if status != 0:
        return f"exit status {status}"
    try:
        if q.kind == "feasible":
            parse = _profiles_from_json if q.fmt == "json" else _profiles_from_table
            profiles, why = parse(out, q)
            return why or check_profiles(q, profiles)
        if q.fmt == "json":
            want = json.dumps(expected_doc(q), indent=2) + "\n"
            return None if out == want else "JSON document disagrees with the reference"
        got = parse_tables(out)
        want = expected_tables(q)
        return None if got == want else f"table {got!r} disagrees with {want!r}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"


# ----------------------------------------------------- pinned profile counts


@lru_cache(maxsize=None)
def _partitions(k: int) -> int:
    """Number of partitions of k, by Euler's pentagonal number recurrence."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    total, j = 0, 1
    while True:
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g > k:
                return total
            total += (-1) ** (j + 1) * _partitions(k - g)
        j += 1


def _multisets(total: int, n: int) -> int:
    """Multisets of positive multiples of n summing to total."""
    if total < 0 or total % n:
        return 0
    return _partitions(total // n)


def profile_count(n: int, s: int) -> int:
    """How many profiles ``feasible`` lists for a division algebra of index n
    and the polynomial f(n)t + s, counted from the constraint rules.

    Integral curves: h0 = 1, 1 <= h1 <= ub(1) with h1 = 1 mod f(n) (h1 = 1
    only when f(n) = n), and only if the Castelnuovo bound allows genus 1.
    Reducible curves: the n-gon alone at odd prime n with s = 0, else every
    (h0, h1) with 1 <= h0 <= r, h1 <= ub(h0) and f(n) | h0 - h1.  Nonreduced
    curves: h0 above that of a reduced shape, h1 kept, f(n) | h0 - h1,
    distinct by (h0, h1, irreducible, connected).  Residual points make up
    the Euler characteristic in multiples of n.
    """
    r = divisor = min_curve_degree(n)
    if s % divisor:
        return 0

    def ub(h0):
        return (r * r - 3 * r) // 2 + h0

    settled = n % 2 == 1 and is_prime(n) and s == 0
    q, rem = divmod(r - 1, n - 2)
    genus_bound = (n - 2) * q * (q - 1) // 2 + q * rem
    integral = []
    if genus_bound >= 1:
        integral = [
            h1 for h1 in range(1, ub(1) + 1)
            if (1 - h1) % divisor == 0 and not (h1 == 1 and r != n)
        ]
    reducible = [
        (h0, h1) for h0 in range(1, r + 1) for h1 in range(ub(h0) + 1)
        if (h0 - h1) % divisor == 0
    ] if r >= 2 else []

    count = sum(_multisets(s + h1 - 1, n) for h1 in integral)
    if settled:
        count += 1
        shapes = [(1, h1, True) for h1 in integral] + [(1, 1, False)]
    else:
        count += sum(_multisets(s - h0 + h1, n) for h0, h1 in reducible)
        shapes = [(1, h1, True) for h1 in integral] + [(h0, h1, False) for h0, h1 in reducible]
    nonreduced = {
        (h0, h1, irreducible, h0_red == 1)
        for h0_red, h1, irreducible in shapes
        for h0 in range(h0_red + 1, s + h1 + 1)
        if (h0 - h1) % divisor == 0
    }
    return count + sum(_multisets(s - h0 + h1, n) for h0, h1, _, _ in nonreduced)
