#!/usr/bin/env python3
"""Seeded tor, transverse and bezout records, one line each, for comparing two checkouts.

Draws 200 (Z, Y) cases with a fixed seed and prints, for each, the `tor`,
`transverse` and `bezout` records of Z against Y, as the CLI emits them
(an improper intersection prints the verification failure `bezout` raises);
then a tally of (dimension, field, Z kind, Y kind, transverse verdict,
bezout total).  The ambient space is P^2 or P^3 over Q or GF(7).  Z is a
point (often with zero coordinates), a line, a conic, a twisted cubic
(P^3) or a fat point.  Y is a random linear or quadratic form, a product
of distinct variables, a union of coordinate subspaces, a union of two
points or the union of Z with a point, which Z meets improperly when Z is
a curve.  Run it on two source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/tor_reports.py > reports.txt
"""

import random
from collections import Counter

from geomideal import QQ, HomIdeal, PolyRing, PrimeField, RationalPoint, intersect
from geomideal.cli import emit_records, parse_scene, run_bezout, run_tor, run_transverse
from geomideal.errors import ImproperIntersectionError

COUNT = 200
SEED = 1
MAXDEG = 4
KINDS = ["point", "point", "line", "conic", "fat-point"]
TARGETS = ["form", "form", "product", "union", "points", "with-z"]


def draw_form(rng, ring, degree):
    f = ring.zero()
    while f.is_zero():
        for i in range(ring.nvars):
            f = f + ring.variable(i).scale(ring.field.from_int(rng.randint(-2, 2)))
        if degree == 2:
            f = f * draw_form(rng, ring, 1) + draw_form(rng, ring, 1) * draw_form(rng, ring, 1)
    return f


def draw_point(rng, ring):
    field = ring.field
    coords = [field.from_int(rng.choice([0, 0, 1, 1, 2, -3])) for _ in range(ring.nvars)]
    coords[rng.randrange(ring.nvars)] = field.one
    return RationalPoint.of(field, coords).ideal(ring)


def draw_z(rng, ring, kind):
    nv = ring.nvars
    x = [ring.variable(i) for i in range(nv)]
    if kind == "point":
        return draw_point(rng, ring)
    if kind == "line":
        return HomIdeal(ring, [draw_form(rng, ring, 1) for _ in range(nv - 2)])
    if kind == "conic":
        return HomIdeal(ring, [draw_form(rng, ring, 1) for _ in range(nv - 3)]
                        + [draw_form(rng, ring, 2)])
    if kind == "cubic":
        # 2x2 minors of [[l0, l1, l2], [l1, l2, l3]], l_i = x_i + c_i x_(i+1)
        lf = [x[i] + (x[i + 1].scale(ring.field.from_int(rng.choice([0, 0, 1, -2])))
                      if i < 3 else ring.zero()) for i in range(4)]
        return HomIdeal(ring, [lf[0] * lf[2] - lf[1] * lf[1], lf[0] * lf[3] - lf[1] * lf[2],
                               lf[1] * lf[3] - lf[2] * lf[2]])
    gens = draw_point(rng, ring).gens  # a fat point
    return HomIdeal(ring, [f * g for f in gens for g in gens])


def draw_target(rng, ring, kind, Z):
    nv = ring.nvars
    if kind == "with-z":
        return intersect(Z, draw_point(rng, ring))
    if kind == "form":
        return HomIdeal(ring, [draw_form(rng, ring, rng.randint(1, 2))])
    if kind == "product":
        f = ring.one()
        for i in rng.sample(range(nv), rng.randint(1, nv)):
            f = f * ring.variable(i)
        return HomIdeal(ring, [f])
    if kind == "union":
        parts = [HomIdeal(ring, [ring.variable(i)
                                 for i in rng.sample(range(nv), rng.randint(1, nv - 1))])
                 for _ in range(2)]
        return intersect(*parts)
    return intersect(draw_point(rng, ring), draw_point(rng, ring))


def block(ring, ideal):
    return "\n".join(ring.format_poly(g) for g in ideal.gens)


def main():
    rng = random.Random(SEED)
    tally = Counter()
    for k in range(COUNT):
        d = rng.choice([2, 3])
        field = PrimeField(7) if rng.random() < 0.3 else QQ
        ring = PolyRing(field, d + 1)
        kind = rng.choice(KINDS + ["cubic"] * (d == 3))
        target = rng.choice(TARGETS)
        Z = draw_z(rng, ring, kind)
        Y = draw_target(rng, ring, target, Z)
        sigma = "\n".join(" ".join("1" if i == j else "0" for j in range(d + 1))
                          for i in range(d + 1))
        text = (f"field {'rational' if field is QQ else 'prime 7'}\ndim {d}\nsigma\n{sigma}\n"
                f"ideal\n{block(ring, Z)}\nend\nagainst\n{block(ring, Y)}\nend\n"
                f"maxdeg {MAXDEG}\n")
        head = [k, repr(field), d, kind, Z.gens_text(), target, Y.gens_text()]
        scene = parse_scene(text)
        records = run_tor(scene) + run_transverse(scene)
        try:
            bezout = run_bezout(scene)
            total = bezout[0]["total"]
        except ImproperIntersectionError as exc:
            bezout, total = [], f"improper: {exc}"
        tally[(d, repr(field), kind, target, records[-1]["transverse"], total)] += 1
        print(*head, *emit_records(records + bezout).splitlines(), total, sep=" | ")
    for key, n in sorted(tally.items(), key=str):
        print("#", *key, n)


if __name__ == "__main__":
    main()
