"""Tests for configurations, their invariants, and the shape recognizer.

Independent oracles: a union-find structure for component counts (and hence
the cycle rank through h1 = E - V + c), and a BFS spanning forest for the
same rank as E minus the number of tree edges.
"""

import random

import pytest

from sbcurves import (
    ConfigReport,
    InvariantError,
    LineConfig,
    PreconditionError,
    complete,
    cube,
    disjoint_lines,
    is_pgon,
    ngon,
    report,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def component_count_oracle(config):
    uf = UnionFind(config.vertices)
    for u, v in config.edges:
        uf.union(u, v)
    return len({uf.find(v) for v in config.vertices})


def spanning_forest_rank_oracle(config):
    """Cycle rank as edges minus spanning-forest edges."""
    adjacency = {v: [] for v in config.vertices}
    for u, v in config.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    tree_edges = 0
    for root in config.vertices:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    tree_edges += 1
                    queue.append(y)
    return len(config.edges) - tree_edges


def standard_families(max_size=12):
    for p in range(3, max_size + 1):
        yield ngon(p)
    for r in range(2, 4):
        yield cube(r)
    for n in range(2, 6):
        yield complete(n)
    yield disjoint_lines()


class TestFamilies:
    def test_ngon_report(self):
        rep = report(ngon(5))
        assert rep == ConfigReport(5, 1, 1, True, True)

    def test_ngon_small(self):
        assert report(ngon(3)).degree == 3
        assert report(ngon(7)).h1 == 7 - 7 + component_count_oracle(ngon(7))

    def test_ngon_odd_primes(self):
        for p in ODD_PRIMES:
            rep = report(ngon(p))
            assert (rep.degree, rep.h0, rep.h1) == (p, 1, 1)

    def test_cube3(self):
        rep = report(cube(3))
        assert rep.degree == 12
        assert rep.h1 == 5  # faces of the 3-cube minus one
        assert rep.h0 == 1
        assert rep.vertex_single_orbit

    def test_cube2_matches_ngon4_as_a_graph(self):
        # the 2-cube is a 4-cycle; graph invariants agree with ngon(4),
        # though the Klein action preserves edge directions while the
        # rotation is edge-transitive
        square, four_gon = report(cube(2)), report(ngon(4))
        assert square.degree == four_gon.degree == 4
        assert square.h0 == four_gon.h0 == 1
        assert square.h1 == four_gon.h1 == 1
        assert square.vertex_single_orbit and four_gon.vertex_single_orbit
        assert not square.edge_transitive and four_gon.edge_transitive

    def test_cube_degree_formula(self):
        for r in range(2, 9):
            assert report(cube(r)).degree == r * 2 ** (r - 1)

    def test_complete_degrees(self):
        assert report(complete(4)).degree == 6
        assert report(complete(2)).degree == 1
        for n in range(2, 13):
            assert report(complete(n)).degree == n * (n - 1) // 2

    def test_complete5_genus(self):
        rep = report(complete(5))
        assert rep.h1 == 6
        assert spanning_forest_rank_oracle(complete(5)) == 6

    def test_disjoint_lines(self):
        rep = report(disjoint_lines())
        assert (rep.degree, rep.h0, rep.h1) == (2, 2, 0)
        assert rep.edge_transitive
        assert rep.vertex_single_orbit
        assert len(disjoint_lines().vertices) == 4

    def test_single_edge_trivial_action(self):
        config = LineConfig(["a", "b"], [("a", "b")])
        rep = report(config)
        assert (rep.degree, rep.h0, rep.h1) == (1, 1, 0)

    def test_family_domains(self):
        with pytest.raises(PreconditionError):
            ngon(2)
        with pytest.raises(PreconditionError):
            cube(1)
        with pytest.raises(PreconditionError):
            complete(1)


class TestInvariants:
    def test_handshake_and_genus_formulas_agree(self):
        for config in standard_families():
            counts = config.branch_counts()
            assert sum(counts.values()) == 2 * len(config.edges)
            rep = report(config)
            cycle_rank = len(config.edges) - len(config.vertices) + rep.h0
            branch_rank = rep.h0 - len(config.edges) + sum(b - 1 for b in counts.values())
            assert rep.h1 == cycle_rank == branch_rank

    def test_components_match_union_find_oracle(self):
        for config in standard_families():
            assert report(config).h0 == component_count_oracle(config)

    def test_genus_matches_spanning_forest_oracle(self):
        for config in standard_families():
            assert report(config).h1 == spanning_forest_rank_oracle(config)

    def test_random_generator_words_preserve_edges(self):
        rng = random.Random(31337)
        for config in standard_families(8):
            if not config.action:
                continue
            edge_set = set(config.edges)
            for _ in range(25):
                word = [rng.randrange(len(config.action)) for _ in range(rng.randint(1, 6))]
                for edge in config.edges:
                    image = edge
                    for index in word:
                        image = config.map_edge(config.action[index], image)
                    assert image in edge_set


class TestValidation:
    def test_rejects_loop(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2], [(1, 1)])

    def test_rejects_repeated_edge(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2], [(1, 2), (2, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2], [(1, 3)])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 1], [(1, 1)])

    def test_rejects_empty_edge_set(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2], [])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2, 3], [(1, 2)])

    def test_rejects_non_permutation(self):
        with pytest.raises(InvariantError):
            LineConfig([1, 2], [(1, 2)], ({1: 1, 2: 1},))

    def test_rejects_unstable_action(self):
        # the map exchanging the endpoints of one edge only is fine; a
        # 3-path flipped end-to-end about its middle is stable, but the
        # cyclic shift of a 3-path is not
        LineConfig([1, 2, 3], [(1, 2), (2, 3)], ({1: 3, 2: 2, 3: 1},))
        with pytest.raises(InvariantError):
            LineConfig([1, 2, 3], [(1, 2), (2, 3)], ({1: 2, 2: 3, 3: 1},))

    def test_immutability(self):
        config = ngon(3)
        with pytest.raises(AttributeError):
            config.vertices = ()

    def test_identity_equality(self):
        # equal graphs are distinct configurations, and each hashes by identity
        first, second = ngon(3), ngon(3)
        assert first == first and first != second
        assert len({first, second}) == 2


class TestPgonRecognition:
    def test_ngons_pass_for_odd_primes(self):
        for p in ODD_PRIMES:
            assert is_pgon(ngon(p), p)

    def test_cubes_and_complete_graphs_fail(self):
        for config in [cube(3), cube(4), complete(4), complete(5), complete(6)]:
            for p in ODD_PRIMES:
                assert not is_pgon(config, p)

    def test_complete5_fails_on_vertex_degree(self):
        # five vertices and p = 5, but each point lies on four lines
        assert not is_pgon(complete(5), 5)

    def test_square_fails_for_two(self):
        assert not is_pgon(cube(2), 2)

    def test_composite_and_even_parameters_fail(self):
        assert not is_pgon(ngon(9), 9)
        assert not is_pgon(ngon(4), 4)
        assert not is_pgon(ngon(15), 15)

    def test_wrong_size_fails(self):
        assert not is_pgon(ngon(5), 7)
        assert not is_pgon(ngon(5), 1000000000000000003)

    def test_disconnected_fails(self):
        two_triangles = LineConfig(
            range(6),
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        assert not is_pgon(two_triangles, 3)

    def test_edge_transitivity_required(self):
        # a 5-cycle whose action is trivial has the right shape but no
        # transitive action on the lines
        pentagon = LineConfig(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert not is_pgon(pentagon, 5)
