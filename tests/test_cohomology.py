"""Tests for the twist-cohomology computation.

``twist_cohomology`` reads h0 and h1 off the graph by the graph-curve closed
form.  The differential oracle below builds the agreement matrix that the
closed form describes -- per-line forms to the pairwise differences of their
branch values at each vertex -- and ranks it by exact elimination, so every
report is checked against the complex itself.  The chi identity h0 - h1 =
E(m+1) - sum(branches - 1) is an independent count of columns minus rows of
that complex, and the m = 0 values must reproduce the component count and
cycle rank computed from the graph alone.

``_rank`` is fraction-free elimination on integer rows; the Fraction
elimination it replaced is kept below as its differential oracle.
"""

import random
from fractions import Fraction

import pytest

from sbcurves import (
    EmbeddedConfig,
    InvariantError,
    LineConfig,
    PreconditionError,
    complete,
    cube,
    disjoint_lines,
    ngon,
    report,
    smoothing_hypotheses,
    standard_embedding,
    twist_cohomology,
)
from sbcurves.cohomology import CohomReport, _rank, _spans


def fraction_rank(rows, ncols):
    """Rank over the rationals by Fraction elimination, pivoting on the first
    nonzero entry per column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for i in range(rank + 1, nrows):
            factor = mat[i][col]
            if factor:
                ratio = factor / lead
                row_i, row_r = mat[i], mat[rank]
                for j in range(col, ncols):
                    row_i[j] -= ratio * row_r[j]
        rank += 1
        if rank == nrows:
            break
    return rank


def random_rational_matrix(rng, nrows, ncols):
    """Rows drawn at random, as rational combinations of other rows, or zero.

    Numerators and denominators reach 10^6; some independent rows are plain
    integers and some entries are zero.
    """
    bound = 10**6

    def entry():
        if rng.random() < 0.2:
            return 0
        if rng.random() < 0.3:
            return rng.randint(-bound, bound)
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    independent = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, nrows))]
    rows = list(independent)
    while len(rows) < nrows:
        if not independent or rng.random() < 0.2:
            rows.append([0] * ncols)
            continue
        combined = [Fraction(0)] * ncols
        for source in rng.sample(independent, rng.randint(1, len(independent))):
            coefficient = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            combined = [c + coefficient * x for c, x in zip(combined, source)]
        rows.append(combined)
    rng.shuffle(rows)
    return rows, len(independent)


def embeddable_families():
    for p in range(3, 11):
        yield standard_embedding(ngon(p), p)
    yield standard_embedding(cube(2), 4)
    yield standard_embedding(cube(3), 8)
    for n in range(2, 6):
        yield standard_embedding(complete(n), max(n, 3))
    yield standard_embedding(disjoint_lines(), 4)


def chi_identity(cfg, m):
    base = cfg.base
    branch_excess = sum(b - 1 for b in base.branch_counts().values())
    return len(base.edges) * (m + 1) - branch_excess


def agreement_rows(base, m):
    """Rows of the agreement map on the per-line forms of degree m."""
    width = m + 1
    ncols = len(base.edges) * width
    position = {edge: i for i, edge in enumerate(base.edges)}

    def value_column(edge, v):
        # evaluation at parameter (1,0) or (0,1) picks the x^m or y^m coefficient
        offset = 0 if edge[0] == v else m
        return position[edge] * width + offset

    rows = []
    for v in base.vertices:
        incident = [edge for edge in base.edges if v in edge]
        reference = incident[0]
        for other in incident[1:]:
            row = [0] * ncols
            row[value_column(reference, v)] = 1
            row[value_column(other, v)] = -1
            rows.append(row)
    return rows, ncols


def eliminated_cohomology(cfg, m):
    """The report as kernel and cokernel dimensions of the agreement matrix."""
    rows, ncols = agreement_rows(cfg.base, m)
    rank = _rank(rows, ncols)
    h0 = ncols - rank
    h1 = len(rows) - rank
    return CohomReport(m=m, h0=h0, h1=h1, chi=h0 - h1, spans=_spans(cfg))


def random_embedded_graphs(count, seed):
    """Seeded random graphs on at most 10 vertices, some not spanning.

    At most size + 3 lines keeps the elimination cheap; forests, several
    components and several cycles all occur.  Dense graphs are covered by
    the complete configurations.
    """
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(2, 10)
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        edges = rng.sample(pairs, rng.randint(1, min(len(pairs), size + 3)))
        vertices = sorted({v for edge in edges for v in edge})
        d = max(len(vertices), 3) + rng.randint(0, 1)
        yield standard_embedding(LineConfig(vertices, edges), d)


class TestClosedFormMatchesElimination:
    def test_families_up_to_cube5_complete10_ngon101(self):
        configs = list(embeddable_families()) + [
            standard_embedding(cube(5), 32),
            standard_embedding(complete(10), 10),
            standard_embedding(ngon(101), 101),
        ]
        for cfg in configs:
            for m in range(4):
                assert twist_cohomology(cfg, m) == eliminated_cohomology(cfg, m)

    def test_random_graphs(self):
        for cfg in random_embedded_graphs(200, seed=1991):
            for m in range(4):
                assert twist_cohomology(cfg, m) == eliminated_cohomology(cfg, m)


class TestNgonWitnesses:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_structure_sheaf(self, n):
        rep = twist_cohomology(standard_embedding(ngon(n), n), 0)
        assert (rep.h0, rep.h1) == (1, 1)
        assert rep.spans

    @pytest.mark.parametrize("n", range(3, 11))
    def test_first_twist_h1_vanishes(self, n):
        rep = twist_cohomology(standard_embedding(ngon(n), n), 1)
        assert rep.h1 == 0
        assert rep.h0 == n  # chi = n on a degree-n arithmetic-genus-1 curve


class TestChiConsistency:
    def test_identity_all_families_and_twists(self):
        for cfg in embeddable_families():
            for m in range(4):
                rep = twist_cohomology(cfg, m)
                assert rep.chi == rep.h0 - rep.h1 == chi_identity(cfg, m)

    def test_m0_agrees_with_graph_report(self):
        for cfg in embeddable_families():
            graph_rep = report(cfg.base)
            cohom_rep = twist_cohomology(cfg, 0)
            assert cohom_rep.h0 == graph_rep.h0
            assert cohom_rep.h1 == graph_rep.h1

    def test_monotone_vanishing(self):
        # checked empirically, not relied on elsewhere: once h1 = 0 it stays 0
        for cfg in embeddable_families():
            vanished = False
            for m in range(4):
                h1 = twist_cohomology(cfg, m).h1
                if vanished:
                    assert h1 == 0
                vanished = vanished or h1 == 0


class TestEmbeddings:
    def test_standard_embedding_spans_iff_exact_fit(self):
        assert twist_cohomology(standard_embedding(ngon(5), 5), 0).spans
        assert not twist_cohomology(standard_embedding(ngon(3), 4), 0).spans

    def test_single_edge_embeds(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        rep = twist_cohomology(standard_embedding(line, 3), 0)
        assert (rep.h0, rep.h1) == (1, 0)

    def test_too_many_vertices_rejected(self):
        with pytest.raises(PreconditionError):
            standard_embedding(cube(3), 5)

    def test_disjoint_lines_sections(self):
        rep = twist_cohomology(standard_embedding(disjoint_lines(), 4), 0)
        assert (rep.h0, rep.h1) == (2, 0)

    def test_scale_invariance(self):
        rng = random.Random(987)
        base = ngon(7)
        reference = [twist_cohomology(standard_embedding(base, 7), m) for m in range(3)]
        coords = dict(standard_embedding(base, 7).coords)
        for _ in range(5):
            scaled = {}
            for v, vec in coords.items():
                factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                if rng.random() < 0.5:
                    factor = -factor
                scaled[v] = tuple(factor * x for x in vec)
            cfg = EmbeddedConfig(base, 7, scaled)
            for m in range(3):
                assert twist_cohomology(cfg, m) == reference[m]

    def test_random_recoordinatization_gives_same_cohomology(self):
        # the outputs should not depend on which valid embedding is chosen
        rng = random.Random(2025)
        base = ngon(5)
        reference = [twist_cohomology(standard_embedding(base, 5), m) for m in range(3)]
        produced = 0
        while produced < 5:
            coords = {
                v: tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5))
                for v in base.vertices
            }
            try:
                cfg = EmbeddedConfig(base, 5, coords)
            except InvariantError:
                continue
            produced += 1
            for m in range(3):
                rep = twist_cohomology(cfg, m)
                assert (rep.h0, rep.h1, rep.chi) == (
                    reference[m].h0,
                    reference[m].h1,
                    reference[m].chi,
                )

    def test_rejects_proportional_vertices(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (1, 2, 0), "b": (2, 4, 0)})
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (1, 0, 0), "b": (-1, 0, 0)})

    def test_rejects_zero_vector_and_bad_lengths(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (0, 0, 0), "b": (0, 1, 0)})
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (1, 0), "b": (0, 1, 0)})
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (1, 0, 0)})

    def test_rejects_float_coordinates(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (1.0, 0, 0), "b": (0, 1, 0)})

    @pytest.mark.parametrize(
        "bad", [(True, 0, 0), (0, 0.5, 0), (Fraction(0), Fraction(0), Fraction(0))]
    )
    def test_rejects_bool_float_and_zero_entries_in_any_position(self, bad):
        line = LineConfig(["a", "b"], [("a", "b")])
        with pytest.raises(InvariantError):
            EmbeddedConfig(line, 3, {"a": (0, 1, 0), "b": bad})

    def test_rational_multiple_of_an_integer_row_is_proportional(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        coords = {"a": (Fraction(1, 2), Fraction(-1, 3), 0), "b": (-3, 2, 0)}
        with pytest.raises(InvariantError, match="'a' and 'b' have proportional"):
            EmbeddedConfig(line, 3, coords)

    def test_rows_are_primitive_and_coords_stay_fractions(self):
        line = LineConfig(["a", "b"], [("a", "b")])
        cfg = EmbeddedConfig(line, 3, {"a": (Fraction(1, 2), Fraction(-1, 3), 0), "b": (-1, 2, 0)})
        assert cfg.rows == ((3, -2, 0), (1, -2, 0))
        assert cfg.coords["a"] == (Fraction(1, 2), Fraction(-1, 3), Fraction(0))
        assert all(type(x) is Fraction for vec in cfg.coords.values() for x in vec)


class TestSmoothingHypotheses:
    def test_ngon5(self):
        sm = smoothing_hypotheses(standard_embedding(ngon(5), 5))
        assert (sm.h1_O_equals_1, sm.h1_O1_vanishes, sm.nodal) == (True, True, True)

    def test_ngons(self):
        for n in range(3, 11):
            sm = smoothing_hypotheses(standard_embedding(ngon(n), n))
            assert sm.h1_O_equals_1 and sm.h1_O1_vanishes and sm.nodal

    def test_cube3_is_not_nodal(self):
        # every cube vertex lies on three lines
        sm = smoothing_hypotheses(standard_embedding(cube(3), 8))
        assert not sm.nodal

    def test_disjoint_lines_fail_h1_condition(self):
        sm = smoothing_hypotheses(standard_embedding(disjoint_lines(), 4))
        assert not sm.h1_O_equals_1


def test_negative_twist_rejected():
    with pytest.raises(PreconditionError):
        twist_cohomology(standard_embedding(ngon(3), 3), -1)


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_rank_matches_fraction_elimination(shape):
    rng = random.Random(1968)
    for _ in range(60):
        size = rng.randint(1, 12)
        other = rng.randint(1, size - 1) if size > 1 else size
        shapes = {"tall": (size, other), "wide": (other, size), "square": (size, size)}
        nrows, ncols = shapes[shape]
        rows, independent = random_rational_matrix(rng, nrows, ncols)
        rank = _rank(rows, ncols)
        assert rank == fraction_rank(rows, ncols)
        assert rank <= min(independent, ncols)


def test_rank_helper_known_matrices():
    assert _rank([[1, 2], [2, 4]], 2) == 1
    assert _rank([[1, 0], [0, 1]], 2) == 2
    assert _rank([], 3) == 0
    assert _rank([[0, 0, 0]], 3) == 0
    assert (
        _rank([[Fraction(1, 2), 1], [1, 2], [0, 1]], 2) == 2
    )
