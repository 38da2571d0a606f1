#!/usr/bin/env python3
"""Seeded ct-cert and transverse records, one line each, for comparing two checkouts.

Draws 300 (Z, sigma, Y) cases with a fixed seed and prints, for each, the
`ct-cert` record of Z and the `transverse` record of Z against Y, as the
CLI emits them; then a tally of (dimension, Z kind, ct-cert status,
transverse verdict).  The ambient space is P^2 or P^3, the field is Q (a
few cases use GF(7), which ct-cert leaves inconclusive).  sigma is diagonal,
usually with independent eigenvalue ratios and at times with dependent ones.
Z is a point (often with zero coordinates), a line, a conic, a twisted cubic
(P^3), a fat point, a monomial ideal or the union of a point with a
coordinate point.  Y is a union of coordinate subspaces, a product of
distinct variables or a random linear or quadratic form.  Run it on two
source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/ct_reports.py > reports.txt
"""

import random
from collections import Counter

from geomideal import QQ, HomIdeal, PolyRing, PrimeField, RationalPoint, intersect
from geomideal.cli import emit_records, parse_scene, run_ct_cert, run_transverse

COUNT = 300
SEED = 1
KINDS = ["point", "point", "line", "conic", "fat-point", "monomial", "union"]
TARGETS = ["union", "product", "form"]


def draw_sigma(rng, field, nv):
    if rng.random() < 0.15:
        return [1, 2, 4, 8][:nv]  # dependent ratios: outside the classified family
    return [1] + rng.sample([2, 3, 5, 7, 11, 13] if field is QQ else [2, 3, 4, 5, 6], nv - 1)


def draw_form(rng, ring, degree, lo=-2, hi=2):
    f = ring.zero()
    while f.is_zero():
        for i in range(ring.nvars):
            f = f + ring.variable(i).scale(ring.field.from_int(rng.randint(lo, hi)))
        if degree == 2:
            f = f * draw_form(rng, ring, 1) + draw_form(rng, ring, 1) * draw_form(rng, ring, 1)
    return f


def draw_point(rng, ring):
    field = ring.field
    coords = [field.from_int(rng.choice([0, 0, 1, 2, -3, 5])) for _ in range(ring.nvars)]
    coords[rng.randrange(ring.nvars)] = field.one
    return RationalPoint.of(field, coords).ideal(ring)


def coordinate_subspace(ring, s):
    return HomIdeal(ring, [ring.variable(i) for i in s])


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
    if kind == "monomial":
        monos = [tuple(rng.randint(0, 2) for _ in range(nv)) for _ in range(rng.randint(1, 3))]
        return HomIdeal(ring, [ring.monomial(m) for m in monos if any(m)] or [x[0]])
    if kind == "union":
        k = rng.randrange(nv)
        return intersect(draw_point(rng, ring),
                         coordinate_subspace(ring, [i for i in range(nv) if i != k]))
    gens = draw_point(rng, ring).gens  # a fat point
    return HomIdeal(ring, [f * g for f in gens for g in gens])


def draw_target(rng, ring):
    nv = ring.nvars
    kind = rng.choice(TARGETS)
    if kind == "union":
        parts = [coordinate_subspace(ring, rng.sample(range(nv), rng.randint(1, nv - 1)))
                 for _ in range(rng.randint(1, 2))]
        Y = parts[0] if len(parts) == 1 else intersect(*parts)
    elif kind == "product":
        f = ring.one()
        for i in rng.sample(range(nv), rng.randint(1, nv)):
            f = f * ring.variable(i)
        Y = HomIdeal(ring, [f])
    else:
        Y = HomIdeal(ring, [draw_form(rng, ring, rng.randint(1, 2))])
    return kind, Y


def block(ring, ideal):
    return "\n".join(ring.format_poly(g) for g in ideal.gens)


def main():
    rng = random.Random(SEED)
    tally = Counter()
    for k in range(COUNT):
        d = rng.choice([2, 3])
        field = PrimeField(7) if rng.random() < 0.05 else QQ
        ring = PolyRing(field, d + 1)
        entries = draw_sigma(rng, field, d + 1)
        kind = rng.choice(KINDS + ["cubic"] * (d == 3))
        Z = draw_z(rng, ring, kind)
        target, Y = draw_target(rng, ring)
        sigma = "\n".join(" ".join(str(entries[i]) if i == j else "0" for j in range(d + 1))
                          for i in range(d + 1))
        text = (f"field {'rational' if field is QQ else 'prime 7'}\ndim {d}\nsigma\n{sigma}\n"
                f"ideal\n{block(ring, Z)}\nend\nagainst\n{block(ring, Y)}\nend\n")
        head = [k, repr(field), d, entries, kind, Z.gens_text(), target, Y.gens_text()]
        scene = parse_scene(text)
        records = run_ct_cert(scene) + run_transverse(scene)
        ct, tr = records
        tally[(d, kind, ct["status"], tr["transverse"])] += 1
        print(*head, *emit_records(records).splitlines(), sep=" | ")
    for key, n in sorted(tally.items(), key=str):
        print("#", *key, n)


if __name__ == "__main__":
    main()
