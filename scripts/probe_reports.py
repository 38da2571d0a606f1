#!/usr/bin/env python3
"""Seeded Tor probe reports over plane cubics, one block each, for comparing two checkouts.

Draws 150 (cubic, point, M, field, j_max) cases with a fixed seed and
prints, per case, the window, the Tor table and the verdicts of
truncated_tor_over_quotient(Q, M, P, j_max), and the generator degree
tuples of free_resolution(M, j_max + 1, modulo=Q); then a tally of (cubic
kind, point kind, M kind, verdicts).  The cubic is the smooth
y^2 z = x^3 - x z^2, the nodal y^2 z = x^3 + x^2 z or the cuspidal
y^2 z = x^3, moved by a few seeded elementary shears.  P is the singular
point of a nodal or cuspidal cubic or a smooth rational point of the curve
(from its parametrization, or a 2-torsion or flex point of the smooth one).
M is P itself, the square of P, or a line and a seeded quadric through P.
The field is Q, GF(7) or GF(32003), and j_max runs from 1 to 8.  Run it on
two source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/probe_reports.py > reports.txt
"""

import random
from collections import Counter

from geomideal import (
    QQ,
    HomIdeal,
    PolyRing,
    PrimeField,
    RationalPoint,
    free_resolution,
    truncated_tor_over_quotient,
)
from geomideal.polykernel import Substitution

COUNT = 150
SEED = 1
CUBICS = {
    "smooth": "x1^2*x2 - x0^3 + x0*x2^2",
    "nodal": "x1^2*x2 - x0^3 - x0^2*x2",
    "cuspidal": "x1^2*x2 - x0^3",
}
M_KINDS = ["point", "square", "line+quadric"]


def curve_point(rng, field, kind):
    """(point kind, coordinates) of a rational point of the normal form."""
    if kind != "smooth" and rng.random() < 0.5:
        return "singular", [0, 0, 1]
    if kind == "smooth":
        return "smooth", rng.choice([[0, 1, 0], [0, 0, 1], [1, 0, 1], [-1, 0, 1]])
    t = rng.choice([2, 3, -2, 4])  # t^2 != 1, also mod 7: not the node
    if kind == "cuspidal":  # (t^2, t^3, 1)
        return "smooth", [t * t, t ** 3, 1]
    return "smooth", [t * t - 1, t * (t * t - 1), 1]  # node: (t^2 - 1, t(t^2 - 1), 1)


def moved(rng, ring, f, coords):
    """f(E x) and E^-1 p for a product E of seeded elementary shears
    x_i -> x_i + c*x_j, so the moved point lies on the moved cubic."""
    field = ring.field
    p = [field.from_int(c) for c in coords]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(3), 2)
        c = field.from_int(rng.choice([1, 2, -1, 3]))
        images = [ring.variable(k) for k in range(3)]
        images[i] = images[i] + ring.variable(j).scale(c)
        f = Substitution(images)(f)
        p[i] = field.sub(p[i], field.mul(c, p[j]))
    return f, RationalPoint.of(field, p)


def draw_m(rng, ring, P, kind):
    if kind == "point":
        return P
    a, b = P.gens
    if kind == "square":
        return HomIdeal(ring, [a * a, a * b, b * b])
    field = ring.field

    def linear():
        return sum((ring.variable(i).scale(field.from_int(rng.randint(-2, 2)))
                    for i in range(3)), ring.zero())

    line = a.scale(field.from_int(rng.choice([1, 2]))) + b.scale(field.from_int(rng.randint(-2, 2)))
    return HomIdeal(ring, [line, a * linear() + b * linear()])


def main():
    rng = random.Random(SEED)
    fields = [QQ, PrimeField(7), PrimeField(32003)]
    tally = Counter()
    for k in range(COUNT):
        field = rng.choice(fields)
        ring = PolyRing(field, 3)
        kind = rng.choice(sorted(CUBICS))
        point_kind, coords = curve_point(rng, field, kind)
        f, point = moved(rng, ring, ring.parse(CUBICS[kind]), coords)
        Q, P = HomIdeal(ring, [f]), point.ideal(ring)
        m_kind = rng.choice(M_KINDS)
        M = draw_m(rng, ring, P, m_kind)
        j_max = rng.randint(1, 8)
        print(" | ".join([str(k), repr(field), kind, Q.gens_text(), str(point),
                          point_kind, m_kind, M.gens_text(), f"j_max={j_max}"]))
        rep = truncated_tor_over_quotient(Q, M, P, j_max=j_max)
        res = free_resolution(M, j_max + 1, modulo=Q)
        print(f"  window {rep.window}")
        print("  resolution " + " ".join(str(m.degrees) for m in res.modules))
        for j in sorted(rep.table):
            alive = "nonzero" if rep.verdicts[j] else "dies"
            print(f"  Tor_{j}: {' '.join(map(str, rep.table[j]))}  [{alive}]")
        verdicts = "".join("1" if rep.verdicts[j] else "0" for j in sorted(rep.verdicts))
        tally[(kind, point_kind, m_kind, verdicts)] += 1
    for key, n in sorted(tally.items()):
        print("#", *key, n)


if __name__ == "__main__":
    main()
