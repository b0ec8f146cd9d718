"""Tests for the profile enumeration rule engine.

Soundness is checked against the worked index-5 case, and every emitted
profile is re-validated independently against the constraint operations it
is supposed to satisfy.  The three-branch enumerator that
``enumerate_profiles`` replaced is kept here as a differential oracle.
"""

import pytest

from sbcurves import (
    CLASSIFICATION,
    EXTRAPOLATION,
    FILTERED,
    AlgebraInvariants,
    Narrative,
    NumPoly,
    PreconditionError,
    SubschemeProfile,
    degree_admissible,
    disjoint_lines,
    enumerate_profiles,
    euler_admissible,
    h1_upper_bound,
    hilb_nonempty,
    is_prime,
    min_curve_degree,
    ngon,
    point_degree_admissible,
    reducible_case,
    report,
    standard_embedding,
    twist_cohomology,
)
from sbcurves import classify
from sbcurves.classify import _integral_shapes, _point_multisets, _reducible_shapes


def division(n, exponent=None):
    return AlgebraInvariants(n, n, exponent if exponent is not None else n, is_division=True)


def profile_summary(profile):
    return (
        profile.narrative.value,
        profile.h0,
        profile.h1,
        profile.extra_point_degrees,
    )


class TestWorkedIndexFiveCase:
    def test_exactly_four_profiles(self):
        profiles = enumerate_profiles(division(5), NumPoly(5, 0))
        assert len(profiles) == 4
        assert {profile_summary(p) for p in profiles} == {
            ("SmoothGenusOne", 1, 1, ()),
            ("PGonOfLines", 1, 1, ()),
            ("SingularIntegral", 1, 6, (5,)),
            ("NonReducedCurve", 6, 6, ()),
        }

    def test_flags_and_degrees(self):
        by_tag = {p.narrative: p for p in enumerate_profiles(division(5), NumPoly(5, 0))}
        smooth = by_tag[Narrative.SMOOTH_GENUS_ONE]
        assert smooth.geom_connected and smooth.geom_reduced and smooth.geom_irreducible
        pgon = by_tag[Narrative.PGON_OF_LINES]
        assert pgon.geom_connected and pgon.geom_reduced and not pgon.geom_irreducible
        nonreduced = by_tag[Narrative.NON_REDUCED_CURVE]
        assert nonreduced.geom_connected and not nonreduced.geom_reduced
        assert all(p.curve_degree == 5 for p in by_tag.values())
        assert all(p.provenance == "classification" for p in by_tag.values())

    def test_output_is_sorted_and_deterministic(self):
        first = enumerate_profiles(division(5), NumPoly(5, 0))
        second = enumerate_profiles(division(5), NumPoly(5, 0))
        assert first == second
        assert first == sorted(first, key=SubschemeProfile.sort_key)


class TestOtherRegimes:
    def test_index_three(self):
        profiles = enumerate_profiles(division(3), NumPoly(3, 0))
        assert {profile_summary(p) for p in profiles} == {
            ("SmoothGenusOne", 1, 1, ()),
            ("PGonOfLines", 1, 1, ()),
        }

    def test_index_seven_contains_the_forced_shapes(self):
        profiles = enumerate_profiles(division(7), NumPoly(7, 0))
        summaries = {profile_summary(p) for p in profiles}
        assert ("SmoothGenusOne", 1, 1, ()) in summaries
        assert ("PGonOfLines", 1, 1, ()) in summaries
        assert ("SingularIntegral", 1, 8, (7,)) in summaries
        # nonreduced analogues are flagged as pattern extrapolation beyond index 5
        assert {
            p.provenance for p in profiles if p.narrative is Narrative.NON_REDUCED_CURVE
        } == {"paper-pattern extrapolation"}

    def test_incompatible_constant_term_gives_empty_list(self):
        # 5 does not divide chi = 1, so nothing survives; not an error
        assert enumerate_profiles(division(5), NumPoly(5, 1)) == []

    def test_chi_invariant_with_points(self):
        profiles = enumerate_profiles(division(5), NumPoly(5, 5))
        assert profiles, "s = 5 should admit smooth-plus-point candidates"
        assert all(p.chi() == 5 for p in profiles)
        assert ("WithResidualPoint", 1, 1, (5,)) in {profile_summary(p) for p in profiles}

    def test_biquaternion_minimal_degree(self):
        # index 4, minimal curve degree 2, polynomial 2t + 2: the two
        # disjoint lines of the Klein-orbit construction are the only
        # surviving candidate, and their invariants match the witness
        profiles = enumerate_profiles(division(4, 2), NumPoly(2, 2))
        assert [profile_summary(p) for p in profiles] == [("ReducibleCurve", 2, 0, ())]
        profile = profiles[0]
        assert not profile.geom_connected
        rep = report(disjoint_lines())
        assert (profile.curve_degree, profile.h0, profile.h1) == (
            rep.degree,
            rep.h0,
            rep.h1,
        )

    def test_every_profile_revalidates(self):
        cases = [
            (division(5), NumPoly(5, 0)),
            (division(5), NumPoly(5, 5)),
            (division(7), NumPoly(7, 0)),
            (division(3), NumPoly(3, 0)),
            (division(4, 2), NumPoly(2, 2)),
            (division(9), NumPoly(9, 0)),
            (division(6, 6), NumPoly(3, 0)),
        ]
        for alg, poly in cases:
            for p in enumerate_profiles(alg, poly):
                assert p.curve_degree == poly.r
                assert degree_admissible(p.curve_degree, alg.n)
                assert euler_admissible(p.h0 - p.h1, alg.n)
                assert p.h1 <= h1_upper_bound(p.curve_degree, p.h0)
                assert p.chi() == poly.s
                for deg in p.extra_point_degrees:
                    assert point_degree_admissible(deg, alg.n)
                assert hilb_nonempty(poly)


class TestPreconditions:
    def test_rejects_non_division(self):
        with pytest.raises(PreconditionError):
            enumerate_profiles(AlgebraInvariants(6, 3, 3), NumPoly(3, 0))

    def test_rejects_wrong_leading_coefficient(self):
        with pytest.raises(PreconditionError):
            enumerate_profiles(division(5), NumPoly(4, 0))
        with pytest.raises(PreconditionError):
            enumerate_profiles(division(4, 2), NumPoly(4, 0))

    def test_rejects_empty_hilbert_scheme(self):
        # 2t fails the nonemptiness criterion: decomposition (1, 2)
        assert min_curve_degree(4) == 2
        with pytest.raises(PreconditionError):
            enumerate_profiles(division(4, 2), NumPoly(2, 0))


class TestReducibleCase:
    def test_values_for_small_primes(self):
        for p in [3, 5, 7, 11, 13]:
            profile = reducible_case(p)
            assert profile.narrative is Narrative.PGON_OF_LINES
            assert (profile.curve_degree, profile.h0, profile.h1) == (p, 1, 1)
            assert profile.geom_reduced and profile.geom_connected
            assert not profile.geom_irreducible
            assert profile.extra_point_degrees == ()

    def test_rejects_two_and_composites(self):
        for bad in [2, 4, 9, 15, 1, 0]:
            with pytest.raises(PreconditionError):
                reducible_case(bad)

    def test_cross_module_agreement(self):
        for p in [3, 5, 7, 11, 13]:
            profile = reducible_case(p)
            graph_rep = report(ngon(p))
            cohom_rep = twist_cohomology(standard_embedding(ngon(p), p), 0)
            assert (profile.curve_degree, profile.h0, profile.h1) == (
                graph_rep.degree,
                graph_rep.h0,
                graph_rep.h1,
            )
            assert (profile.h0, profile.h1) == (cohom_rep.h0, cohom_rep.h1)


def _integral_branch(n, d, r, s, divisor, provenance):
    profiles = []
    for h1 in _integral_shapes(n, d, r, divisor):
        smooth = h1 == 1
        for points in _point_multisets(s - (1 - h1), n):
            if smooth:
                narrative = (
                    Narrative.WITH_RESIDUAL_POINT if points else Narrative.SMOOTH_GENUS_ONE
                )
            else:
                narrative = Narrative.SINGULAR_INTEGRAL
            profiles.append(
                SubschemeProfile(
                    curve_degree=r,
                    h0=1,
                    h1=h1,
                    geom_connected=True,
                    geom_reduced=True,
                    geom_irreducible=True,
                    extra_point_degrees=points,
                    narrative=narrative,
                    provenance=provenance,
                )
            )
    return profiles


def _reducible_branch(n, r, s, divisor, settled):
    if settled:
        return [reducible_case(n)]
    return [
        SubschemeProfile(
            curve_degree=r,
            h0=h0,
            h1=h1,
            geom_connected=h0 == 1,
            geom_reduced=True,
            geom_irreducible=False,
            extra_point_degrees=points,
            narrative=Narrative.REDUCIBLE_CURVE,
            provenance=FILTERED,
        )
        for (h0, h1) in _reducible_shapes(r, divisor)
        for points in _point_multisets(s - (h0 - h1), n)
    ]


def _nonreduced_branch(n, d, r, s, divisor, settled, provenance):
    shapes = [(1, h1, True) for h1 in _integral_shapes(n, d, r, divisor)]
    if settled:
        shapes.append((1, 1, False))
    else:
        shapes.extend(
            (h0_red, h1, False) for h0_red, h1 in _reducible_shapes(r, divisor)
        )

    profiles = {}
    for h0_red, h1, irreducible in shapes:
        for h0 in range(h0_red + 1, s + h1 + 1):
            if (h0 - h1) % divisor:
                continue
            for points in _point_multisets(s - (h0 - h1), n):
                profile = SubschemeProfile(
                    curve_degree=r,
                    h0=h0,
                    h1=h1,
                    geom_connected=h0_red == 1,
                    geom_reduced=False,
                    geom_irreducible=irreducible,
                    extra_point_degrees=points,
                    narrative=Narrative.NON_REDUCED_CURVE,
                    provenance=provenance,
                )
                profiles.setdefault(profile, None)
    return list(profiles)


def branch_enumerate(n, poly):
    """The per-branch enumerator: each branch builds its own profiles and
    partitions its own point totals, and nonreduced profiles are deduplicated
    by hashing.  Takes an index and a polynomial that pass the preconditions."""
    d, r, s = n, poly.r, poly.s
    divisor = min_curve_degree(n)
    if not euler_admissible(s, n):
        return []
    settled = n % 2 == 1 and is_prime(n) and s == 0
    reduced_provenance = CLASSIFICATION if settled else FILTERED
    if settled:
        nonreduced_provenance = CLASSIFICATION if n == 5 else EXTRAPOLATION
    else:
        nonreduced_provenance = FILTERED
    profiles = []
    profiles += _integral_branch(n, d, r, s, divisor, reduced_provenance)
    profiles += _reducible_branch(n, r, s, divisor, settled)
    profiles += _nonreduced_branch(n, d, r, s, divisor, settled, nonreduced_provenance)
    return sorted(profiles, key=SubschemeProfile.sort_key)


class TestAgainstBranchEnumerator:
    @staticmethod
    def grid():
        for n in range(3, 17):
            r = min_curve_degree(n)
            for s in range(-5, 61):
                if hilb_nonempty(NumPoly(r, s)):
                    yield n, NumPoly(r, s)
        yield 8, NumPoly(4, 156)

    def test_same_profiles_in_the_same_order(self):
        for n, poly in self.grid():
            # equal lists: same profiles, and ties in sort_key broken the same way
            assert enumerate_profiles(division(n), poly) == branch_enumerate(n, poly), (n, poly)

    def test_points_partitioned_once_per_total(self, monkeypatch):
        top_level_calls = 0
        partitions = classify._partitions

        def counting(k, cap=None):
            nonlocal top_level_calls
            if cap is None:
                top_level_calls += 1
            return partitions(k, cap)

        monkeypatch.setattr(classify, "_partitions", counting)
        profiles = enumerate_profiles(division(8), NumPoly(4, 156))
        totals = {sum(p.extra_point_degrees) for p in profiles if p.extra_point_degrees}
        assert 0 < top_level_calls <= len(totals)
