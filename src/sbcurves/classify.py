"""Rule engine enumerating admissible profiles of minimal-degree subschemes.

On the variety of a division algebra of index n, a subscheme with linear
polynomial r*t + s in the minimal-degree regime r = f(n) (f(n) = n for odd
n, n/2 for even n) contains a unique curve component, generically reduced
and of degree exactly r.  The engine first lists the curve shapes
(h0, h1 and the connected/reduced/irreducible flags) that the branches of
the case analysis allow under every divisibility and genus constraint:
integral, reduced and reducible, and nonreduced over each reduced shape.
It then pairs each shape with every multiset of residual-point degrees that
balances the Euler characteristic, taken from one table per query that
partitions each point total once, and emits the numerical profiles.

For odd prime index with s = 0 the branch analysis is complete and the
output is a classification; in other regimes the profiles are candidates
that the constraints do not exclude.  Each profile carries a ``provenance``
field recording which of the two it is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .constraints import (
    AlgebraInvariants,
    castelnuovo,
    euler_admissible,
    is_prime,
    min_curve_degree,
    point_degree_admissible,
)
from .errors import PreconditionError
from .numpoly import NumPoly, h1_upper_bound, hilb_nonempty


class Narrative(str, enum.Enum):
    """Prose label for the shape of a profile; declaration order is canonical."""

    SMOOTH_GENUS_ONE = "SmoothGenusOne"
    SINGULAR_INTEGRAL = "SingularIntegral"
    PGON_OF_LINES = "PGonOfLines"
    NON_REDUCED_CURVE = "NonReducedCurve"
    WITH_RESIDUAL_POINT = "WithResidualPoint"
    REDUCIBLE_CURVE = "ReducibleCurve"


_NARRATIVE_RANK = {tag: i for i, tag in enumerate(Narrative)}

CLASSIFICATION = "classification"
EXTRAPOLATION = "paper-pattern extrapolation"
FILTERED = "constraint-filtered"


@dataclass(frozen=True)
class SubschemeProfile:
    """Admissible numerical invariants of one candidate subscheme.

    The subscheme is the unique degree-``curve_degree`` curve together with
    the closed points listed in ``extra_point_degrees``; h0 and h1 refer to
    the curve part, so h0 - h1 + sum(extra_point_degrees) equals the
    constant term of the queried polynomial.
    """

    curve_degree: int
    h0: int
    h1: int
    geom_connected: bool
    geom_reduced: bool
    geom_irreducible: bool
    extra_point_degrees: tuple = ()
    narrative: Narrative = Narrative.SMOOTH_GENUS_ONE
    provenance: str = CLASSIFICATION

    def chi(self) -> int:
        """Euler characteristic of the whole subscheme, points included."""
        return self.h0 - self.h1 + sum(self.extra_point_degrees)

    def sort_key(self):
        return (
            _NARRATIVE_RANK[self.narrative],
            self.h0,
            self.h1,
            self.extra_point_degrees,
        )


def _require(condition: bool, message: str):
    if not condition:
        raise PreconditionError(message)


def _partitions(k, cap=None):
    """Nonincreasing partitions of k into positive parts of size <= cap."""
    if cap is None:
        cap = k
    if k == 0:
        yield ()
        return
    for first in range(min(cap, k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _point_multisets(total, n):
    """Residual-point degree multisets: multiples of n summing to ``total``.

    Point degrees on the variety of a division algebra are multiples of the
    index, which bounds the search: an empty result means the shape cannot
    balance its Euler characteristic.
    """
    if total < 0:
        return []
    if total == 0:
        return [()]
    if total % n:
        return []
    return [tuple(part * n for part in p) for p in _partitions(total // n)]


def reducible_case(n: int) -> SubschemeProfile:
    """The forced profile of a geometrically reducible minimal-degree curve, odd prime index.

    A cycle of n lines through n spanning points: reduced, connected,
    arithmetic genus 1, and the whole subscheme is the curve.  The values
    agree with the configuration-graph report and the twist cohomology of
    the n-gon, as tests/test_classify.py::TestReducibleCase::
    test_cross_module_agreement checks.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not is_prime(n) or n == 2:
        raise PreconditionError(f"the reducible case needs an odd prime index, got {n!r}")
    return SubschemeProfile(
        curve_degree=n,
        h0=1,
        h1=1,
        geom_connected=True,
        geom_reduced=True,
        geom_irreducible=False,
        extra_point_degrees=(),
        narrative=Narrative.PGON_OF_LINES,
        provenance=CLASSIFICATION,
    )


def _integral_shapes(n, d, r, divisor):
    """(h0=1, h1) shapes of a geometrically integral reduced curve.

    Such a curve has h0 = 1 and h1 = p_a >= 1: genus 0 would make the
    normalization a conic, whose degree <= 2 point cannot exist on a
    division variety with d > 2.  Castelnuovo's bound limits the arithmetic
    genus of an integral nondegenerate curve as well as its geometric genus,
    but it is applied here only as a gate: no shape is listed when the bound
    is below 1, and otherwise h1 runs up to the Hartshorne bound.
    Arithmetic genus 1 forces the curve to be smooth, which in turn forces
    degree n; larger h1, congruent to 1 modulo the Euler divisor and within
    the Hartshorne bound, belongs to singular curves.
    """
    if castelnuovo(r, d).g_max < 1:
        return []
    shapes = []
    for h1 in range(1, h1_upper_bound(r, 1) + 1):
        if (1 - h1) % divisor:
            continue
        if h1 == 1 and r != n:
            # a smooth geometrically connected curve of degree <= n has degree exactly n
            continue
        shapes.append(h1)
    return shapes


def _reducible_shapes(r, divisor):
    """(h0, h1) shapes of a reduced, geometrically reducible curve.

    At least two geometric components, so r >= 2; at most r connected
    components; h1 within the Hartshorne bound and the curve's Euler
    characteristic h0 - h1 divisible by the Euler divisor.
    """
    if r < 2:
        return []
    return [
        (h0, h1)
        for h0 in range(1, r + 1)
        for h1 in range(0, h1_upper_bound(r, h0) + 1)
        if (h0 - h1) % divisor == 0
    ]


def enumerate_profiles(alg: AlgebraInvariants, poly: NumPoly) -> list:
    """All subscheme profiles of the minimal-degree regime the constraints allow.

    Preconditions: the algebra is division, the leading coefficient equals
    the minimal curve degree f(n), and the polynomial has a nonempty Hilbert
    scheme.  Violations raise with a diagnostic naming the hypothesis;
    jointly unsatisfiable constraints yield an empty list instead.
    """
    _require(alg.is_division, "the algebra must be division (no twisted linear subvarieties)")
    n, d = alg.n, alg.d
    r, s = poly.r, poly.s
    f = min_curve_degree(n)
    _require(
        r == f,
        f"leading coefficient {r} is not the minimal curve degree f({n}) = {f}",
    )
    _require(
        hilb_nonempty(poly),
        f"no subscheme has Hilbert polynomial {poly} (empty Hilbert scheme)",
    )

    if not euler_admissible(s, n):
        return []

    settled = n % 2 == 1 and is_prime(n) and s == 0
    reduced_provenance = CLASSIFICATION if settled else FILTERED
    if settled:
        # the worked index-5 analysis pins the nonreduced branch; for other
        # odd primes the same chi-divisibility argument is an extrapolation
        nonreduced_provenance = CLASSIFICATION if n == 5 else EXTRAPOLATION
    else:
        nonreduced_provenance = FILTERED

    # curve shapes: (h0, h1, connected, reduced, irreducible, narrative, provenance);
    # their order (integral, then reducible) breaks ties between equal sort keys
    shapes = [
        (1, h1, True, True, True,
         Narrative.SMOOTH_GENUS_ONE if h1 == 1 else Narrative.SINGULAR_INTEGRAL,
         reduced_provenance)
        for h1 in _integral_shapes(n, d, r, f)
    ]
    if settled:
        # at odd prime index with s = 0 the reducible curve is the n-gon of lines
        pgon = reducible_case(n)
        shapes.append((pgon.h0, pgon.h1, pgon.geom_connected, pgon.geom_reduced,
                       pgon.geom_irreducible, pgon.narrative, pgon.provenance))
    else:
        shapes.extend(
            (h0, h1, h0 == 1, True, False, Narrative.REDUCIBLE_CURVE, FILTERED)
            for h0, h1 in _reducible_shapes(r, f)
        )

    # A nonreduced (but generically reduced) curve lies over one of the
    # reduced shapes: it keeps h1 and strictly raises h0, within the Euler
    # divisibility.  No two reduced shapes share h1 and flags (their h0 is 1,
    # or the one value in 1..r congruent to h1 mod r), so no profile repeats.
    # At odd prime index a reducible curve is automatically reduced, and the
    # n-gon shape never survives the h0 search.
    shapes += [
        (h0, h1, connected, False, irreducible, Narrative.NON_REDUCED_CURVE,
         nonreduced_provenance)
        for h0_red, h1, connected, _, irreducible, _, _ in shapes
        for h0 in range(h0_red + 1, s + h1 + 1)
        if (h0 - h1) % f == 0
    ]

    multisets = {}  # point total -> residual-point multisets, partitioned once per query
    profiles = []
    for h0, h1, connected, reduced, irreducible, narrative, provenance in shapes:
        total = s - (h0 - h1)
        if total not in multisets:
            multisets[total] = _point_multisets(total, n)
            assert all(point_degree_admissible(deg, n) for p in multisets[total] for deg in p)
        for points in multisets[total]:
            profile = SubschemeProfile(
                curve_degree=r,
                h0=h0,
                h1=h1,
                geom_connected=connected,
                geom_reduced=reduced,
                geom_irreducible=irreducible,
                extra_point_degrees=points,
                narrative=(
                    Narrative.WITH_RESIDUAL_POINT
                    if points and narrative is Narrative.SMOOTH_GENUS_ONE
                    else narrative
                ),
                provenance=provenance,
            )
            assert profile.chi() == s
            profiles.append(profile)

    return sorted(profiles, key=SubschemeProfile.sort_key)
