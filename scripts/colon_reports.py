#!/usr/bin/env python3
"""Seeded saturation and colon reports, one line each, for comparing two checkouts.

Draws 400 (Z, sigma, field) cases with a fixed seed and prints the reduced
basis of saturate(Z), the colon statuses of stabilization_degree for
n <= 3, and for each n the reduced basis of (I : I^{sigma^n}) and dim R_n;
then a tally of (field, Z kind, statuses).  Z is a point, a line, a conic,
a fat point or the union of a point, line or conic with a coordinate point
(one that sigma fixes, when there is one), on P^2..P^4; some points lie
on the hyperplane x_d = 0, and some inputs are multiplied by (x0, ..., xd)
first, so saturation has work to do.  sigma is diagonal, a shear, a scaled
permutation or a random invertible matrix; the field is Q, GF(7) or
GF(101).  A second section, with its own seed and tally, draws 60 moving
points of P^4..P^6 over Q and GF(32003) under diagonal sigma, a quarter
of them on a coordinate hyperplane (x_d = 0 among them).  Run it on two
source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/colon_reports.py > reports.txt
"""

import random
from collections import Counter

from geomideal import (
    QQ,
    HomIdeal,
    PolyRing,
    PrimeField,
    ProjAutomorphism,
    RationalPoint,
    SceneVerificationError,
    dim_ideal_piece,
    intersect,
    saturate,
    stabilization_degree,
)
from geomideal.idealizer import IdealizerScene

COUNT = 400
SEED = 1
MOVING_COUNT = 60
MOVING_SEED = 2
EIGENVALUES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
HORIZON = 3
SHAPES = ["diag", "diag", "shear", "perm", "random"]
KINDS = ["point", "point", "line", "conic", "fat-point", "union"]


def draw_sigma(rng, ring):
    field, nv = ring.field, ring.nvars
    shape = rng.choice(SHAPES)
    while True:
        rows = [[field.zero] * nv for _ in range(nv)]
        if shape == "diag":
            for i in range(nv):
                rows[i][i] = field.from_int(rng.choice([1, 2, 3, 5, 7, 11, -2, -3]))
        elif shape == "shear":
            for i in range(nv):
                rows[i][i] = field.one
            i, j = rng.sample(range(nv), 2)
            rows[i][j] = field.from_int(rng.choice([1, 2, -1]))
        elif shape == "perm":
            perm = list(range(nv))
            rng.shuffle(perm)
            for i, j in enumerate(perm):
                rows[i][j] = field.from_int(rng.choice([1, 2, 3]))
        else:
            rows = [[field.from_int(rng.randint(-2, 2)) for _ in range(nv)] for _ in range(nv)]
        try:
            return shape, ProjAutomorphism(ring, rows)
        except ValueError:  # singular random matrix: draw again
            continue


def draw_point(rng, ring):
    field = ring.field
    coords = [field.from_int(rng.randint(-3, 3)) for _ in range(ring.nvars)]
    if rng.random() < 0.25:
        coords[-1] = field.zero  # on x_d = 0
    if all(field.is_zero(c) for c in coords):
        coords[0] = field.one
    return RationalPoint.of(field, coords).ideal(ring)


def draw_linear(rng, ring):
    f = ring.zero()
    while f.is_zero():
        for i in range(ring.nvars):
            f = f + ring.variable(i).scale(ring.field.from_int(rng.randint(-2, 2)))
    return f


def draw_z(rng, ring, sigma, kind):
    if kind == "point":
        return draw_point(rng, ring)
    if kind == "fat-point":
        gens = draw_point(rng, ring).gens
        return HomIdeal(ring, [f * g for f in gens for g in gens])
    if kind == "union":
        inner = draw_z(rng, ring, sigma, rng.choice(["point", "line", "conic"]))
        # e_i is fixed when column i of the matrix is zero off the diagonal
        fixed = [i for i in range(ring.nvars)
                 if all(ring.field.is_zero(row[i]) == (j != i)
                        for j, row in enumerate(sigma.matrix))]
        k = rng.choice(fixed or range(ring.nvars))
        e_k = HomIdeal(ring, [ring.variable(i) for i in range(ring.nvars) if i != k])
        return intersect(inner, e_k)
    # a line (d - 1 linear forms) or a conic in a plane (d - 2 forms and a quadric)
    forms = [draw_linear(rng, ring) for _ in range(ring.nvars - (2 if kind == "line" else 3))]
    if kind == "conic":
        forms.append(draw_linear(rng, ring) * draw_linear(rng, ring)
                     + draw_linear(rng, ring) * draw_linear(rng, ring))
    return HomIdeal(ring, forms)


def bases_text(ring, basis):
    return "[" + ", ".join(ring.format_poly(g) for g in basis) + "]"


def draw_moving_point(rng, ring):
    """A diagonal sigma with distinct eigenvalues and a point with
    coordinates in 1..5, one of them set to 0 a quarter of the time."""
    field, nv = ring.field, ring.nvars
    sigma = ProjAutomorphism.diagonal(
        ring, [field.one] + [field.from_int(v) for v in rng.sample(EIGENVALUES, nv - 1)])
    coords = [rng.randint(1, 5) for _ in range(nv)]
    kind = "point"
    if rng.random() < 0.25:
        coords[rng.choice([nv - 1, rng.randrange(nv)])] = 0
        kind = "hyperplane point"
    Z = RationalPoint.of(field, [field.from_int(c) for c in coords]).ideal(ring)
    return sigma, kind, Z


def report(k, ring, shape, sigma, kind, Z, tally):
    """Print one case's line and count its statuses in tally."""
    field = ring.field
    sat = saturate(Z)
    rows = "; ".join(" ".join(map(field.to_str, row)) for row in sigma.matrix)
    head = [k, repr(field), shape, rows, kind, Z.gens_text(),
            bases_text(ring, sat.groebner())]
    try:
        scene = IdealizerScene(ring, sigma, Z)
    except SceneVerificationError as exc:
        tally[(repr(field), kind, "error")] += 1
        print(*head, f"error: {exc}", sep=" | ")
        return
    rep = stabilization_degree(scene, HORIZON)
    tally[(repr(field), kind, rep.table)] += 1
    colons = []
    for n in range(1, HORIZON + 1):
        Q = scene.colon_ideal(n)
        colons.append(f"{bases_text(ring, Q.groebner())} dim_R={dim_ideal_piece(Q, n)}")
    print(*head, rep.table, rep.n0, rep.degenerate, *colons, sep=" | ")


def print_tally(tally):
    for key, n in sorted(tally.items(), key=str):
        print("#", *key, n)


def main():
    rng = random.Random(SEED)
    fields = [QQ, QQ, PrimeField(7), PrimeField(101)]
    tally = Counter()
    for k in range(COUNT):
        field = rng.choice(fields)
        ring = PolyRing(field, rng.randint(3, 5))
        shape, sigma = draw_sigma(rng, ring)
        kind = rng.choice(KINDS)
        Z = draw_z(rng, ring, sigma, kind)
        if rng.random() < 0.2:
            m = [ring.variable(i) for i in range(ring.nvars)]
            Z = HomIdeal(ring, [x * g for x in m for g in Z.gens])
        report(k, ring, shape, sigma, kind, Z, tally)
    print_tally(tally)
    print("## moving points of P^4..P^6")
    rng = random.Random(MOVING_SEED)
    fields = [QQ, PrimeField(32003)]
    tally = Counter()
    for k in range(MOVING_COUNT):
        ring = PolyRing(rng.choice(fields), rng.randint(5, 7))
        sigma, kind, Z = draw_moving_point(rng, ring)
        report(k, ring, "diag", sigma, kind, Z, tally)
    print_tally(tally)


if __name__ == "__main__":
    main()
