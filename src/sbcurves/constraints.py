"""Divisibility and genus constraints on subschemes of a Severi-Brauer variety.

For a variety with invariants (d, n, m) = (degree, index, exponent), the
degree of any curve and the Euler characteristic of any curves-and-points
subscheme are divisible by n (n odd) or n/2 (n even); closed points on the
variety of a division algebra have degree divisible by n; and a
geometrically integral nondegenerate curve obeys the classical genus bound
in terms of its degree and the ambient dimension.

Every check here is a necessary condition: values that pass are "not
excluded", values that fail cannot occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, PreconditionError


def _check_positive_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvariantError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class AlgebraInvariants:
    """Degree, index and exponent of a central simple algebra.

    Validates the standard relations at construction: n | d, m | n, m and
    n have the same prime factors (Brauer; Gille-Szamuely, "Central Simple
    Algebras and Galois Cohomology", 4.5), and d > 2 (the associated variety
    must not itself be a curve).  An algebra is a division algebra exactly
    when its index equals its degree, so ``is_division`` must say which.
    """

    d: int
    n: int
    m: int
    is_division: bool = False

    def __post_init__(self):
        _check_positive_int("degree d", self.d)
        _check_positive_int("index n", self.n)
        _check_positive_int("exponent m", self.m)
        if self.d <= 2:
            raise InvariantError(f"degree must be > 2, got d={self.d}")
        if self.d % self.n:
            raise InvariantError(f"index {self.n} does not divide degree {self.d}")
        if self.n % self.m:
            raise InvariantError(f"exponent {self.m} does not divide index {self.n}")
        # n | m**k for k >= every exponent in n, i.e. each prime of n divides m
        if pow(self.m, self.n.bit_length(), self.n):
            raise InvariantError(
                f"exponent {self.m} and index {self.n} must have the same prime factors"
            )
        if self.is_division and self.n != self.d:
            raise InvariantError(
                f"a division algebra has index equal to degree, got n={self.n}, d={self.d}"
            )
        if not self.is_division and self.n == self.d:
            raise InvariantError(
                f"index equal to degree (n = d = {self.n}) makes the algebra a division algebra"
            )


@dataclass(frozen=True)
class CastelnuovoBound:
    """Quotient/remainder data and the resulting genus bound."""

    q: int
    rem: int
    g_max: int


def is_prime(n: int) -> bool:
    """Primality by trial division; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def min_curve_degree(n: int) -> int:
    """Least degree a curve on a variety of index n can have: n if odd, n/2 if even."""
    _check_positive_int("n", n)
    return n if n % 2 else n // 2


def degree_admissible(deg: int, n: int) -> bool:
    """Whether a curve of the given degree is not excluded by the index.

    Equivalent to the prime-by-prime condition v_p(deg) >= v_p(n) for odd p
    and v_2(deg) >= v_2(n) - 1, i.e. divisibility by n (n odd) or n/2 (n even).
    """
    _check_positive_int("deg", deg)
    return deg % min_curve_degree(n) == 0


def euler_admissible(chi: int, n: int) -> bool:
    """Whether chi can be the Euler characteristic of a curves-and-points subscheme.

    n must divide chi when n is odd; n/2 must divide chi when n is even.
    """
    if isinstance(chi, bool) or not isinstance(chi, int):
        raise InvariantError(f"chi must be an exact integer, got {chi!r}")
    return chi % min_curve_degree(n) == 0


def point_degree_admissible(deg: int, n: int) -> bool:
    """Whether a closed point of the given degree can exist.

    Valid for division algebras only (the caller asserts that): every closed
    point degree is then a multiple of the index n.
    """
    _check_positive_int("deg", deg)
    _check_positive_int("n", n)
    return deg % n == 0


def castelnuovo(deg: int, d: int) -> CastelnuovoBound:
    """Genus bound for a geometrically integral nondegenerate curve of the given degree.

    With deg - 1 = q(d-2) + rem, 0 <= rem < d-2, the genus is at most
    (d-2)q(q-1)/2 + q*rem.  The bound limits the arithmetic genus of an
    integral nondegenerate curve too, not only its geometric genus: the proof
    bounds the growth of h^0(O_C(l)) by a general hyperplane section, and
    chi(O_C(l)) carries p_a (Harris, "Curves in projective space", Montreal
    1982, ch. 3).  The engine applies it only as a gate (see
    ``classify._integral_shapes``).  The ambient projective space has
    dimension d - 1, so d >= 3 is required.
    """
    _check_positive_int("deg", deg)
    if isinstance(d, bool) or not isinstance(d, int) or d < 3:
        raise PreconditionError(f"ambient degree d must be an integer >= 3, got {d!r}")
    q, rem = divmod(deg - 1, d - 2)
    g_max = (d - 2) * q * (q - 1) // 2 + q * rem
    return CastelnuovoBound(q=q, rem=rem, g_max=g_max)


def normal_bundle_euler(d: int, deg: int, g: int) -> int:
    """Euler characteristic of the normal bundle of a smooth curve in P^(d-1).

    chi(N) = d*deg + (2g - 2) + (d - 2)(1 - g), obtained from the Euler
    sequence of the ambient space restricted to the curve and the normal
    bundle sequence.  Only the Euler characteristic is computed; whether
    h^1(N) vanishes is not decided here.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 3:
        raise PreconditionError(f"ambient degree d must be an integer >= 3, got {d!r}")
    _check_positive_int("deg", deg)
    if isinstance(g, bool) or not isinstance(g, int) or g < 0:
        raise PreconditionError(f"genus must be a nonnegative integer, got {g!r}")
    return d * deg + (2 * g - 2) + (d - 2) * (1 - g)
