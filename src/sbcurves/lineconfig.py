"""Abstract line configurations: graphs with a permutation action.

A configuration records a curve that is geometrically a union of lines:
edges are the lines, vertices are the marked points where lines meet (or
endpoints singled out by the construction), and the action is the image of
the Galois group as a permutation group on the vertices.  Degree, number of
connected components and arithmetic genus (cycle rank) are read off the
graph; stability and transitivity are orbit closures over the generators.

The group itself is never enumerated -- only generator images are stored,
and orbits are computed by breadth-first closure.  Since every generator
has finite order, closing under the generators alone already yields full
group orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, PreconditionError


@dataclass(frozen=True, eq=False)
class LineConfig:
    """Immutable configuration graph with a permutation action on the vertices.

    ``vertices`` is an ordered tuple of distinct hashable ids; ``edges`` a
    tuple of id pairs, each normalized so the endpoint earlier in the vertex
    order comes first; ``action`` a tuple of dicts mapping every vertex to
    its image.  Construction validates that edges have distinct known
    endpoints, that no vertex is isolated (vertices model points lying on
    the lines), and that every generator permutes the edge set.
    """

    vertices: tuple
    edges: tuple
    action: tuple = ()
    _position: dict = field(init=False, repr=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if len(set(vertices)) != len(vertices):
            raise InvariantError("vertex ids must be distinct")
        position = {v: i for i, v in enumerate(vertices)}

        normalized = []
        seen = set()
        for pair in self.edges:
            u, v = pair
            if u not in position or v not in position:
                raise InvariantError(f"edge {pair!r} uses an undeclared vertex")
            if u == v:
                raise InvariantError(f"edge {pair!r} is a loop; endpoints must differ")
            if position[u] > position[v]:
                u, v = v, u
            if (u, v) in seen:
                raise InvariantError(f"edge ({u!r}, {v!r}) is repeated")
            seen.add((u, v))
            normalized.append((u, v))
        if not normalized:
            raise InvariantError("configuration has no lines (empty edge set)")

        covered = {w for e in normalized for w in e}
        for v in vertices:
            if v not in covered:
                raise InvariantError(f"vertex {v!r} lies on no line")

        generators = []
        for k, gen in enumerate(self.action):
            gen = dict(gen)
            if set(gen) != set(vertices) or set(gen.values()) != set(vertices):
                raise InvariantError(f"generator #{k} is not a permutation of the vertices")
            for u, v in normalized:
                image = self._order_pair(position, gen[u], gen[v])
                if image not in seen:
                    raise InvariantError(
                        f"generator #{k} sends line ({u!r}, {v!r}) to {image!r}, "
                        "which is not a line of the configuration"
                    )
            generators.append(gen)

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "action", tuple(generators))
        object.__setattr__(self, "_position", position)

    @staticmethod
    def _order_pair(position, u, v):
        return (u, v) if position[u] < position[v] else (v, u)

    def map_edge(self, gen, edge):
        """Image of an edge under one generator, in normalized endpoint order."""
        u, v = edge
        return self._order_pair(self._position, gen[u], gen[v])

    def branch_counts(self):
        """Number of lines through each vertex, in vertex order."""
        counts = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            counts[u] += 1
            counts[v] += 1
        return counts


@dataclass(frozen=True)
class ConfigReport:
    """Numerical invariants of a configuration.

    degree = number of lines, h0 = number of connected components, h1 =
    cycle rank (edges - vertices + components), plus orbit transitivity
    flags for the action on lines and on vertices.
    """

    degree: int
    h0: int
    h1: int
    edge_transitive: bool
    vertex_single_orbit: bool


def ngon(p: int) -> LineConfig:
    """Cycle of p lines through p points, with the rotation as the action."""
    if isinstance(p, bool) or not isinstance(p, int) or p < 3:
        raise PreconditionError(f"an n-gon needs at least 3 lines, got {p!r}")
    vertices = range(p)
    edges = [(i, (i + 1) % p) for i in range(p)]
    rotation = {i: (i + 1) % p for i in range(p)}
    return LineConfig(vertices, edges, (rotation,))


def cube(r: int) -> LineConfig:
    """Lines replacing the edges of the r-dimensional cube.

    Vertices are the 2^r bitmasks; the action is generated by the r
    coordinate flips, i.e. the translations of (Z/2)^r on itself.
    """
    if isinstance(r, bool) or not isinstance(r, int) or r < 2:
        raise PreconditionError(f"cube dimension must be an integer >= 2, got {r!r}")
    size = 1 << r
    vertices = range(size)
    edges = [(v, v ^ (1 << i)) for v in range(size) for i in range(r) if v < v ^ (1 << i)]
    flips = tuple({v: v ^ (1 << i) for v in range(size)} for i in range(r))
    return LineConfig(vertices, edges, flips)


def complete(n: int) -> LineConfig:
    """A line through every pair of n points, with the full symmetric group.

    The action is given by the standard generators of S_n: the transposition
    of the first two points and the n-cycle.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise PreconditionError(f"a complete configuration needs >= 2 points, got {n!r}")
    vertices = range(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    swap = {i: i for i in range(n)}
    swap[0], swap[1] = 1, 0
    if n == 2:
        generators = (swap,)
    else:
        cycle = {i: (i + 1) % n for i in range(n)}
        generators = (swap, cycle)
    return LineConfig(vertices, edges, generators)


def disjoint_lines() -> LineConfig:
    """Two disjoint lines forming one orbit under a Klein four-group.

    Vertices 0,1 mark the first line and 2,3 the second; one generator swaps
    the two lines, the other swaps the endpoints on each line.
    """
    swap_lines = {0: 2, 1: 3, 2: 0, 3: 1}
    swap_points = {0: 1, 1: 0, 2: 3, 3: 2}
    return LineConfig(range(4), [(0, 1), (2, 3)], (swap_lines, swap_points))


def _orbit(seed, generators, act):
    orbit = {seed}
    frontier = [seed]
    while frontier:
        fresh = []
        for gen in generators:
            for x in frontier:
                y = act(gen, x)
                if y not in orbit:
                    orbit.add(y)
                    fresh.append(y)
        frontier = fresh
    return orbit


def _component_count(config: LineConfig) -> int:
    adjacency = {v: [] for v in config.vertices}
    for u, v in config.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    count = 0
    for v in config.vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def report(config: LineConfig) -> ConfigReport:
    """Degree, components, cycle-rank genus and transitivity flags of a configuration."""
    degree = len(config.edges)
    h0 = _component_count(config)
    h1 = degree - len(config.vertices) + h0
    edge_orbit = _orbit(config.edges[0], config.action, config.map_edge)
    vertex_orbit = _orbit(config.vertices[0], config.action, lambda g, v: g[v])
    return ConfigReport(
        degree=degree,
        h0=h0,
        h1=h1,
        edge_transitive=len(edge_orbit) == degree,
        vertex_single_orbit=len(vertex_orbit) == len(config.vertices),
    )


def is_pgon(config: LineConfig, p: int) -> bool:
    """Recognize the p-gon of lines for an odd prime p.

    True iff p is an odd prime and the configuration is connected, has
    exactly p vertices and p lines, every vertex lies on exactly two lines,
    and the action is transitive on the lines.  Non-prime or even p never
    qualifies: the p-gon shape is the minimal-degree reducible form only at
    odd prime index.
    """
    if isinstance(p, bool) or not isinstance(p, int):
        return False
    # the size test comes first: trial division on a huge p would not finish
    if len(config.vertices) != p or len(config.edges) != p:
        return False
    from .constraints import is_prime

    if p < 3 or not is_prime(p):
        return False
    if any(count != 2 for count in config.branch_counts().values()):
        return False
    rep = report(config)
    return rep.h0 == 1 and rep.edge_transitive
