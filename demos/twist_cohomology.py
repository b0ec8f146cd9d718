"""Exact cohomology of twists on embedded line configurations.

Sections of O(m) on a union of lines are one binary form per line agreeing
at the intersection points.  For such graph curves h^0 and h^1 follow from
the graph: components and cycle rank at m = 0, and h^0 = E(m-1) + V with
h^1 = 0 for m >= 1.  The n-gon embedded at the standard basis vectors is the
witness configuration: h^1(O) = 1 while h^1(O(1)) vanishes, and every vertex
is a node.
"""

from fractions import Fraction

from sbcurves import (
    EmbeddedConfig,
    complete,
    cube,
    disjoint_lines,
    ngon,
    report,
    smoothing_hypotheses,
    standard_embedding,
    twist_cohomology,
)

print("twists of the standard 5-gon in 5 coordinates:")
pentagon = standard_embedding(ngon(5), 5)
for m in range(4):
    print(" ", twist_cohomology(pentagon, m))
print()

print("h0/h1 against the closed form (E lines, V vertices):")
for name, cfg in [
    ("ngon(7)", standard_embedding(ngon(7), 7)),
    ("cube(3)", standard_embedding(cube(3), 8)),
    ("complete(5)", standard_embedding(complete(5), 5)),
    ("disjoint lines", standard_embedding(disjoint_lines(), 4)),
]:
    lines, points = len(cfg.base.edges), len(cfg.base.vertices)
    graph = report(cfg.base)
    for m in range(3):
        rep = twist_cohomology(cfg, m)
        if m == 0:
            f0, f1 = graph.h0, graph.h1  # components, cycle rank
        else:
            f0, f1 = lines * (m - 1) + points, 0
        assert (rep.h0, rep.h1) == (f0, f1)
        print(f"  {name:15} m={m}: (h0,h1)=({rep.h0},{rep.h1})  formula=({f0},{f1})")
print()

print("smoothing hypotheses:")
print("  5-gon:          ", smoothing_hypotheses(pentagon))
print("  cube(3) in d=8: ", smoothing_hypotheses(standard_embedding(cube(3), 8)))
print("  disjoint lines: ", smoothing_hypotheses(standard_embedding(disjoint_lines(), 4)))
print()

# Coordinates enter only ``spans``: the triangle at three skew rational
# points of P^2 and at three basis vectors of P^3 has the same h0/h1, but
# only the first spans its ambient space.
triangle = ngon(3)
skew = EmbeddedConfig(
    triangle,
    3,
    {
        0: (Fraction(1), Fraction(1, 2), Fraction(0)),
        1: (Fraction(0), Fraction(2), Fraction(-1)),
        2: (Fraction(3), Fraction(0), Fraction(1, 3)),
    },
)
in_four = standard_embedding(triangle, 4)
print("triangle at skew points in d=3 vs basis vectors in d=4:")
for m in range(3):
    a = twist_cohomology(skew, m)
    b = twist_cohomology(in_four, m)
    print(
        f"  m={m}: d=3 (h0,h1)=({a.h0},{a.h1}) spans={a.spans}"
        f"  d=4 (h0,h1)=({b.h0},{b.h1}) spans={b.spans}"
    )
