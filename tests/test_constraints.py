"""Tests for the divisibility and genus constraints.

Two independent oracles: a prime-by-prime p-adic valuation routine for the
divisibility checks, and Euler-characteristic bookkeeping through the two
exact sequences (ambient Euler sequence restricted to the curve, then the
normal bundle sequence) for the normal-bundle count.
"""

import pytest
from hypothesis import given, strategies as st

from sbcurves import (
    AlgebraInvariants,
    InvariantError,
    PreconditionError,
    castelnuovo,
    degree_admissible,
    euler_admissible,
    min_curve_degree,
    normal_bundle_euler,
    point_degree_admissible,
)


def valuation(x, p):
    """v_p(x) for x != 0."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def prime_factors(n):
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


def oracle_admissible(x, n):
    """Valuation-by-valuation form of the divisibility criterion.

    v_p(x) >= v_p(n) for every odd prime p, and v_2(x) >= v_2(n) - 1.
    x = 0 passes everything.
    """
    if x == 0:
        return True
    x = abs(x)
    for p in prime_factors(n):
        slack = 1 if p == 2 else 0
        if valuation(x, p) < valuation(n, p) - slack:
            return False
    return True


class TestAlgebraInvariants:
    def test_accepts_valid_triples(self):
        AlgebraInvariants(5, 5, 5, is_division=True)
        AlgebraInvariants(4, 4, 2, is_division=True)
        AlgebraInvariants(6, 3, 3)
        AlgebraInvariants(8, 4, 2)

    def test_rejects_index_not_dividing_degree(self):
        with pytest.raises(InvariantError):
            AlgebraInvariants(5, 3, 3)

    def test_rejects_exponent_not_dividing_index(self):
        with pytest.raises(InvariantError):
            AlgebraInvariants(6, 6, 4)

    @pytest.mark.parametrize("n,m", [(5, 1), (6, 2), (12, 2), (12, 3), (30, 15)])
    def test_rejects_exponent_missing_a_prime_of_the_index(self, n, m):
        with pytest.raises(InvariantError, match="same prime factors"):
            AlgebraInvariants(n, n, m, is_division=True)

    def test_accepts_exponent_with_every_prime_of_the_index(self):
        AlgebraInvariants(12, 12, 6, is_division=True)
        AlgebraInvariants(8, 8, 2, is_division=True)
        AlgebraInvariants(18, 9, 3)

    def test_exponent_rule_matches_prime_factors(self):
        for n in range(3, 80):
            for m in (k for k in range(1, n + 1) if n % k == 0):
                same = prime_factors(m) == prime_factors(n)
                try:
                    AlgebraInvariants(n, n, m, is_division=True)
                except InvariantError:
                    assert not same, (n, m)
                else:
                    assert same, (n, m)

    def test_rejects_small_degree(self):
        with pytest.raises(InvariantError):
            AlgebraInvariants(2, 2, 2, is_division=True)

    def test_rejects_division_with_proper_index(self):
        with pytest.raises(InvariantError):
            AlgebraInvariants(6, 3, 3, is_division=True)

    def test_rejects_index_equal_to_degree_without_division(self):
        # index = degree makes the algebra a division algebra
        for d, n, m in [(5, 5, 5), (4, 4, 2), (12, 12, 6)]:
            with pytest.raises(InvariantError, match="division algebra"):
                AlgebraInvariants(d, n, m)
            assert AlgebraInvariants(d, n, m, is_division=True).is_division

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(InvariantError):
            AlgebraInvariants(5, 5, 0, is_division=True)


@pytest.mark.parametrize("n,expected", [(5, 5), (4, 2), (1, 1), (2, 1), (12, 6), (9, 9)])
def test_min_curve_degree(n, expected):
    assert min_curve_degree(n) == expected


@pytest.mark.parametrize(
    "deg,n,expected",
    [
        (5, 5, True),
        (3, 5, False),
        (12, 8, True),
        (2, 2, True),
        (4, 8, True),
        (2, 8, False),
    ],
)
def test_degree_admissible_cases(deg, n, expected):
    assert degree_admissible(deg, n) is expected


@pytest.mark.parametrize(
    "chi,n,expected",
    [
        (-5, 5, True),
        (0, 7, True),
        (1, 5, False),
        (6, 4, True),
        (-3, 6, True),
        (2, 6, False),
    ],
)
def test_euler_admissible_cases(chi, n, expected):
    assert euler_admissible(chi, n) is expected


@pytest.mark.parametrize("deg,n,expected", [(5, 5, True), (3, 5, False), (10, 5, True)])
def test_point_degree_admissible_cases(deg, n, expected):
    assert point_degree_admissible(deg, n) is expected


def test_degree_admissible_matches_valuation_oracle():
    for n in range(1, 501):
        for deg in range(1, 501):
            assert degree_admissible(deg, n) == oracle_admissible(deg, n), (deg, n)


def test_euler_admissible_matches_valuation_oracle():
    for n in range(1, 501):
        for chi in range(-500, 501):
            assert euler_admissible(chi, n) == oracle_admissible(chi, n), (chi, n)


def test_min_curve_degree_is_least_admissible():
    for n in range(1, 1001):
        f = min_curve_degree(n)
        assert degree_admissible(f, n)
        assert all(not degree_admissible(k, n) for k in range(1, f))


@pytest.mark.parametrize(
    "deg,d,q,rem,g_max",
    [
        (5, 5, 1, 1, 1),
        (1, 5, 0, 0, 0),
        (7, 5, 2, 0, 3),
    ],
)
def test_castelnuovo_values(deg, d, q, rem, g_max):
    bound = castelnuovo(deg, d)
    assert (bound.q, bound.rem, bound.g_max) == (q, rem, g_max)
    # the division identity the quotient/remainder must satisfy
    assert deg - 1 == bound.q * (d - 2) + bound.rem
    assert 0 <= bound.rem < d - 2


def test_castelnuovo_degree_n_in_dimension_n():
    for n in range(4, 13):
        assert castelnuovo(n, n).g_max == 1


def test_castelnuovo_monotone_in_degree():
    for d in range(3, 21):
        previous = -1
        for deg in range(1, 101):
            g = castelnuovo(deg, d).g_max
            assert g >= previous
            previous = g


def test_castelnuovo_domain():
    with pytest.raises(PreconditionError):
        castelnuovo(5, 2)
    with pytest.raises(InvariantError):
        castelnuovo(0, 5)


def chi_sheaf(degree, rank, g):
    """Riemann-Roch on a genus-g curve: chi = degree + rank*(1 - g)."""
    return degree + rank * (1 - g)


def oracle_normal_euler(d, deg, g):
    """chi(N) from the two exact sequences.

    Restricted Euler sequence: chi(T_P|C) = chi(O_C(1)^d) - chi(O_C);
    normal bundle sequence: chi(N) = chi(T_P|C) - chi(T_C), with
    deg T_C = 2 - 2g.
    """
    chi_restricted_tangent = chi_sheaf(d * deg, d, g) - chi_sheaf(0, 1, g)
    chi_curve_tangent = chi_sheaf(2 - 2 * g, 1, g)
    return chi_restricted_tangent - chi_curve_tangent


@pytest.mark.parametrize(
    "d,deg,g,expected",
    [
        (5, 5, 1, 25),
        # oracle value: lines in the plane move in a 2-dimensional family,
        # chi(N) = chi(O_L(1)) = 2 = dim Gr(2,3)
        (3, 1, 0, 2),
    ],
)
def test_normal_bundle_euler_values(d, deg, g, expected):
    assert oracle_normal_euler(d, deg, g) == expected
    assert normal_bundle_euler(d, deg, g) == expected


def test_normal_bundle_euler_square_count():
    for n in range(3, 13):
        assert normal_bundle_euler(n, n, 1) == n * n


@given(st.integers(3, 60), st.integers(1, 60), st.integers(0, 30))
def test_normal_bundle_euler_matches_oracle(d, deg, g):
    assert normal_bundle_euler(d, deg, g) == oracle_normal_euler(d, deg, g)


def test_normal_bundle_euler_square_count_large():
    for n in range(3, 51):
        assert normal_bundle_euler(n, n, 1) == n * n


def test_normal_bundle_euler_domain():
    with pytest.raises(PreconditionError):
        normal_bundle_euler(2, 1, 0)
    with pytest.raises(PreconditionError):
        normal_bundle_euler(3, 1, -1)
