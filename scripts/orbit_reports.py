#!/usr/bin/env python3
"""Seeded forward-orbit reports, one line each, for comparing two checkouts.

Draws 1200 (point, sigma, Z, horizon) cases with a fixed seed and prints
every field of each OrbitReport, then a tally of (field, sigma shape,
verdict, justification).  sigma is diagonal (positive entries, some entries
negated, or entries +-a with a linear Z through a point with p_i = p_j, so
one parity class vanishes), a scaled Jordan matrix, a scaled unipotent
upper-triangular matrix, or triangular with mixed eigenvalues; the field is
Q or GF(7), GF(11), GF(103).  Then 120 long GF(101) and GF(1009) diagonal
cases: the point's period is longer than the horizon (up to 100 over
GF(101)), and over GF(1009) it can be 1008, past PERIOD_CAP, so both the
long periodic scan and the capped scan are printed.  Run it on two source
trees and compare:

    PYTHONPATH=<checkout>/src python scripts/orbit_reports.py > reports.txt
"""

import random
from collections import Counter
from fractions import Fraction

from geomideal import (
    QQ,
    HomIdeal,
    PolyRing,
    PrimeField,
    ProjAutomorphism,
    RationalPoint,
    forward_orbit_hits,
)

COUNT = 1200
LONG_COUNT = 120
SEED = 1
SHAPES = ["diag", "diag", "diag-neg", "diag-pm", "jordan", "jordan", "unipotent", "triangular"]


def draw_sigma(rng, field, nv):
    shape = rng.choice(SHAPES)
    rows = [[field.zero] * nv for _ in range(nv)]
    if shape.startswith("diag"):
        vals = [rng.randint(1, 5) for _ in range(nv)]
        if shape == "diag-neg":
            for i in rng.sample(range(nv), rng.randint(1, nv)):
                vals[i] = -vals[i]
        elif shape == "diag-pm":
            a = rng.randint(1, 3)
            b = rng.choice([a + 1, -a - 1, a + 2])
            vals = [a, -a] + [rng.choice([a, -a, b]) for _ in range(nv - 2)]
            rng.shuffle(vals)
        for i, v in enumerate(vals):
            rows[i][i] = field.from_int(v)
        return shape, ProjAutomorphism(PolyRing(field, nv), rows)
    c = field.from_fraction(Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2, 3])))
    if shape == "jordan":
        sizes, left = [], nv  # Jordan blocks, one of size >= 2
        while left:
            sizes.append(rng.randint(1, left))
            left -= sizes[-1]
        if max(sizes) < 2:
            sizes = [nv]
        start = 0
        for s in sizes:
            for k in range(start, start + s - 1):
                rows[k][k + 1] = c
            start += s
    for i in range(nv):
        if shape == "triangular":
            rows[i][i] = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        else:
            rows[i][i] = c
        if shape != "jordan":
            for j in range(i + 1, nv):
                rows[i][j] = field.mul(c, field.from_int(rng.randint(-2, 2)))
    return shape, ProjAutomorphism(PolyRing(field, nv), rows)


def draw_form(rng, ring, deg):
    f = ring.zero()
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(deg):
            mono[rng.randrange(ring.nvars)] += 1
        f = f + ring.monomial(mono, ring.field.from_int(rng.choice([-2, -1, 1, 1, 2, 3])))
    return f


def draw_case(rng, field):
    nv = rng.randint(2, 4)
    ring = PolyRing(field, nv)
    shape, sigma = draw_sigma(rng, field, nv)
    coords = [field.from_int(rng.randint(-3, 3)) for _ in range(nv)]
    if rng.random() < 0.3:
        coords[rng.randrange(nv)] = field.zero
    if all(field.is_zero(c) for c in coords):
        coords[0] = field.one
    p = RationalPoint.of(field, coords)
    if rng.random() < 0.3:
        # Z through a point of the orbit, so the report carries hits
        gens = list(p.apply(sigma, rng.randint(0, 6)).ideal(ring).gens)
        gens = gens[:rng.randint(1, len(gens))]
    else:
        gens = [draw_form(rng, ring, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()] or [ring.variable(0)]
    if shape == "diag-pm" and field.char == 0 and rng.random() < 0.6:
        lams = sigma.diagonal_entries()
        i = next(i for i, v in enumerate(lams) if -v in lams)
        j = lams.index(-lams[i])
        coords = list(p.coords)
        coords[i] = coords[j] = field.one
        p = RationalPoint.of(field, coords)
        gens = [ring.variable(i) - ring.variable(j)] + gens[:rng.randint(0, 1)]
    return shape, p, sigma, HomIdeal(ring, gens), rng.randint(3, 12)


def draw_long_case(rng):
    """Diagonal sigma = diag(1, g^a, ...) over GF(101) or GF(1009), g a
    primitive root; a = 1 gives the full period p - 1."""
    field, root = rng.choice([(PrimeField(101), 2), (PrimeField(1009), 11)])
    nv = rng.randint(2, 3)
    ring = PolyRing(field, nv)
    sigma = ProjAutomorphism.diagonal(ring, [field.one] + [
        pow(root, rng.choice([1, 1, rng.randrange(1, field.p - 1)]), field.p)
        for _ in range(nv - 1)])
    coords = [field.from_int(rng.randint(0, field.p - 1)) for _ in range(nv)]
    coords[0] = field.one
    p = RationalPoint.of(field, coords)
    if rng.random() < 0.6:
        # Z through a point of the orbit, possibly past the horizon or the cap
        gens = list(p.apply(sigma, rng.randint(0, 1100)).ideal(ring).gens)
        gens = gens[:rng.randint(1, len(gens))]
    else:
        form = draw_form(rng, ring, rng.randint(1, 2))
        gens = [ring.variable(1) if form.is_zero() else form]
    return "diag-long", p, sigma, HomIdeal(ring, gens), rng.randint(3, 12)


def draw_cases(rng):
    fields = [QQ, QQ, QQ, QQ, PrimeField(7), PrimeField(11), PrimeField(103)]
    for _ in range(COUNT):
        yield draw_case(rng, rng.choice(fields))
    for _ in range(LONG_COUNT):
        yield draw_long_case(rng)


def main():
    tally = Counter()
    for k, (shape, p, sigma, Z, horizon) in enumerate(draw_cases(random.Random(SEED))):
        field = sigma.ring.field
        r = forward_orbit_hits(p, sigma, Z, horizon)
        tally[(repr(field), shape, r.verdict, r.justification)] += 1
        matrix = "(" + ", ".join(
            "(" + ", ".join(field.to_str(e) for e in row) + ")" for row in sigma.matrix) + ")"
        print(k, repr(field), shape, matrix, Z.gens_text(), r.point,
              r.horizon, r.hits, r.verdict, r.n0, r.period, r.justification,
              r.notes, r.first_hit, sep=" | ")
    for key, n in sorted(tally.items(), key=str):
        print("#", *key, n)


if __name__ == "__main__":
    main()
