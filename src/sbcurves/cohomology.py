"""Cohomology of twists O(m) on a line configuration with explicit coordinates.

A section of O(m) on a union of lines is one binary form of degree m per
line, subject to agreement of the branch values at every intersection
point.  Gluing the structure sheaves of the lines along the vertices gives
a two-term complex

    (forms of degree m, one per line)  -->  (one value per extra branch at each vertex)

whose kernel is H^0 and whose cokernel is H^1; no higher terms enter for
m >= 0 because a line carries no higher cohomology in those twists.  With E
lines and V vertices the two terms have dimensions E(m+1) and 2E - V.

Both dimensions follow from the graph alone (Bayer-Eisenbud, "Graph
curves", J. Algebra 1991).  For m >= 1 a form of degree m takes independent
values at the two endpoints of its line, so every choice of branch values is
attained and the agreement map is onto: h1 = 0 and h0 = E(m-1) + V.  For
m = 0 a form is a constant, and the kernel is the functions constant on each
connected component: h0 = components and h1 = E - V + h0.

The vertex coordinates enter only ``spans``, whether the vertices span the
ambient space.  Each coordinate vector is stored once, at construction, as
its primitive integer row (denominators cleared, divided by the gcd, first
nonzero entry positive), so proportional vectors are equal rows.  ``spans``
is the rank of those rows by fraction-free integer elimination, computed at
most once per embedding; no floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .errors import InvariantError, PreconditionError
from .lineconfig import LineConfig, _component_count

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _integer_row(row):
    """The row scaled by the lcm of its denominators: integer entries, same span."""
    nums = list(map(_numerator, row))
    dens = list(map(_denominator, row))
    den = math.lcm(*set(dens))
    if den == 1:
        return nums
    return [x * (den // q) for x, q in zip(nums, dens)]


def _primitive(ints):
    """The nonzero integer row divided by its gcd, first nonzero entry positive.

    Two nonzero rational rows are proportional iff these agree.
    """
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    if g == 1:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _rank(rows, ncols):
    """Rank over the rationals by fraction-free elimination on integer rows.

    Each row is first cleared of denominators; a row update
    ``lead * row_i - factor * row_r`` keeps the entries integral and is
    divided by its gcd, so they stay small.
    """
    mat = [_integer_row(row) for row in rows]
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
        row_r = mat[rank]
        lead = row_r[col]
        for i in range(rank + 1, nrows):
            row_i = mat[i]
            factor = row_i[col]
            if factor:
                updated = [lead * a - factor * b for a, b in zip(row_i[col:], row_r[col:])]
                g = math.gcd(*updated)
                if g > 1:
                    updated = [x // g for x in updated]
                row_i[col:] = updated
        rank += 1
        if rank == nrows:
            break
    return rank


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InvariantError(
        f"coordinates must be exact rationals (int or Fraction), got {value!r}"
    )


@dataclass(frozen=True, eq=False)
class EmbeddedConfig:
    """A line configuration with exact rational coordinates for each vertex.

    ``ambient_dim`` is the number d of homogeneous coordinates (the ambient
    projective space has dimension d - 1, so d >= 3).  Coordinate vectors
    must be nonzero and pairwise non-proportional; in particular the two
    endpoints of every edge span an honest line.  ``rows`` holds each
    vertex's primitive integer row, in vertex order.
    """

    base: LineConfig
    ambient_dim: int
    coords: dict
    rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        base, ambient_dim, coords = self.base, self.ambient_dim, self.coords
        if isinstance(ambient_dim, bool) or not isinstance(ambient_dim, int) or ambient_dim < 3:
            raise InvariantError(
                f"ambient_dim must be an integer >= 3, got {ambient_dim!r}"
            )
        clean = {}
        rows = []
        for v in base.vertices:
            if v not in coords:
                raise InvariantError(f"vertex {v!r} has no coordinates")
            vec = tuple(coords[v])
            # anything but plain Fractions is checked and converted entry by entry
            if set(map(type, vec)) != {Fraction}:
                vec = tuple(_as_fraction(x) for x in vec)
            if len(vec) != ambient_dim:
                raise InvariantError(
                    f"vertex {v!r} has {len(vec)} coordinates, expected {ambient_dim}"
                )
            ints = _integer_row(vec)
            if not any(ints):
                raise InvariantError(f"vertex {v!r} has the zero vector as coordinates")
            clean[v] = vec
            rows.append(_primitive(ints))
        first = {}
        for v, row in zip(base.vertices, rows):
            if row in first:
                raise InvariantError(
                    f"vertices {first[row]!r} and {v!r} have proportional "
                    "coordinate vectors"
                )
            first[row] = v
        object.__setattr__(self, "coords", clean)
        object.__setattr__(self, "rows", tuple(rows))

    @cached_property
    def spans(self) -> bool:
        """Whether the vertices span the ambient space, ranked on first use only."""
        return _spans(self)


@dataclass(frozen=True)
class CohomReport:
    """Cohomology of one twist, plus whether the vertices span the ambient space."""

    m: int
    h0: int
    h1: int
    chi: int
    spans: bool


@dataclass(frozen=True)
class SmoothingReport:
    """The cohomological and nodality hypotheses of the smoothing argument.

    Certifies only the hypotheses (h^1(O) = 1, h^1(O(1)) = 0, every vertex a
    node), not smoothability itself.
    """

    h1_O_equals_1: bool
    h1_O1_vanishes: bool
    nodal: bool


def standard_embedding(config: LineConfig, d: int) -> EmbeddedConfig:
    """Place the i-th vertex at the i-th standard basis vector of length d.

    Requires at most d vertices; basis vectors are pairwise independent, so
    the result always satisfies the embedding invariants.  With more
    vertices than d there is no canonical choice and the caller must supply
    coordinates explicitly.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 3:
        raise PreconditionError(f"ambient dimension d must be an integer >= 3, got {d!r}")
    if len(config.vertices) > d:
        raise PreconditionError(
            f"{len(config.vertices)} vertices do not fit in {d} coordinates; "
            "supply explicit coordinates instead"
        )
    zero, one = Fraction(0), Fraction(1)
    coords = {
        v: (zero,) * i + (one,) + (zero,) * (d - i - 1)
        for i, v in enumerate(config.vertices)
    }
    return EmbeddedConfig(config, d, coords)


def _spans(cfg: EmbeddedConfig) -> bool:
    # V vectors span at most a V-dimensional space
    if len(cfg.rows) < cfg.ambient_dim:
        return False
    return _rank(cfg.rows, cfg.ambient_dim) == cfg.ambient_dim


def twist_cohomology(cfg: EmbeddedConfig, m: int) -> CohomReport:
    """h^0 and h^1 of O(m) on the configuration, for m >= 0.

    Reads the kernel and cokernel dimensions of the agreement map off the
    graph, as the module docstring derives.  Negative m is rejected: the
    two-term complex is only valid while the lines carry no h^1.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise PreconditionError(f"twist must be a nonnegative integer, got {m!r}")
    lines, points = len(cfg.base.edges), len(cfg.base.vertices)
    if m == 0:
        h0 = _component_count(cfg.base)
        h1 = lines - points + h0
    else:
        h0, h1 = lines * (m - 1) + points, 0
    return CohomReport(m=m, h0=h0, h1=h1, chi=h0 - h1, spans=cfg.spans)


def smoothing_hypotheses(cfg: EmbeddedConfig) -> SmoothingReport:
    """Check h^1(O) = 1, h^1(O(1)) = 0 and that every vertex joins exactly two lines."""
    at_zero = twist_cohomology(cfg, 0)
    at_one = twist_cohomology(cfg, 1)
    nodal = all(count == 2 for count in cfg.base.branch_counts().values())
    return SmoothingReport(
        h1_O_equals_1=at_zero.h1 == 1,
        h1_O1_vanishes=at_one.h1 == 0,
        nodal=nodal,
    )
