#!/usr/bin/env python3
"""Seeded classification reports, one block each, for comparing two checkouts.

Draws 1000 (Z, sigma, field, sample points) cases with a fixed seed and
prints the rendered classify table of each, then a tally of (branch, flags,
verdict and evidence of the right-noetherian, left-noetherian, fails-left-chi-1
and finite-cohomological-dimension rows) showing which branches of the
verdict table were reached.  The field is Q or GF(7), the ambient space P^1..P^3; sigma is
diagonal, a shear, a scaled permutation or the identity.  Z is a point, a
fixed coordinate point, a union of two points (one of them fat, at times)
with declared components, a fat point (declared with or without its prime, or undeclared), a monomial
ideal or a line.  Zero to two sample points are drawn (random points,
coordinate points, or points of Z), with a seeded horizon and order bound.
Run it on two source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/classify_reports.py > reports.txt
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
    classify,
    intersect,
)
from geomideal.cli import render_text, report_to_records
from geomideal.idealizer import IdealizerScene

COUNT = 1000
SEED = 1
SHAPES = ["diag", "diag", "shear", "perm", "perm", "identity"]
KINDS = ["point", "fixed-point", "two-points", "fat-point", "fat-point-prime",
         "fat-point-bare", "monomial", "line"]


def draw_sigma(rng, ring):
    field, nv = ring.field, ring.nvars
    shape = rng.choice(SHAPES)
    rows = [[field.zero] * nv for _ in range(nv)]
    if shape == "diag":
        for i in range(nv):
            rows[i][i] = field.from_int(rng.choice([1, 2, 3, 5, -1, -2]))
    elif shape == "perm":
        perm = list(range(nv))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] = field.from_int(rng.choice([1, 2, 3]))
    else:
        for i in range(nv):
            rows[i][i] = field.one
        if shape == "shear":
            i, j = rng.sample(range(nv), 2)
            rows[i][j] = field.from_int(rng.choice([1, 2, -1]))
    return shape, ProjAutomorphism(ring, rows)


def draw_point(rng, ring):
    field = ring.field
    coords = [field.from_int(rng.randint(-2, 3)) for _ in range(ring.nvars)]
    if all(field.is_zero(c) for c in coords):
        coords[0] = field.one
    return RationalPoint.of(field, coords)


def coordinate_point(rng, ring):
    k = rng.randrange(ring.nvars)
    return RationalPoint.of(ring.field, [ring.field.one if i == k else ring.field.zero
                                         for i in range(ring.nvars)])


def draw_linear(rng, ring):
    f = ring.zero()
    while f.is_zero():
        for i in range(ring.nvars):
            f = f + ring.variable(i).scale(ring.field.from_int(rng.randint(-2, 2)))
    return f


def fat_point(rng, ring, P):
    """A length-2 scheme supported at the rational point with ideal P."""
    g = list(P.gens)
    if len(g) == 1:
        return HomIdeal(ring, [g[0] * g[0]])
    c = ring.field.from_int(rng.randint(1, 2))
    return HomIdeal(ring, [g[0] + g[1].scale(c), g[1] * g[1]] + g[2:])


def draw_z(rng, ring, kind):
    """(Z, declared components, points on Z) for one kind."""
    if kind in ("point", "fixed-point"):
        p = draw_point(rng, ring) if kind == "point" else coordinate_point(rng, ring)
        return p.ideal(ring), (), [p]
    if kind == "two-points":
        p, q = draw_point(rng, ring), rng.choice([draw_point, coordinate_point])(rng, ring)
        P, Q = p.ideal(ring), q.ideal(ring)
        primes = (P, Q) if rng.random() < 0.5 else (None, None)
        if rng.random() < 0.5:
            Q = fat_point(rng, ring, Q)
        return intersect(P, Q), ((P, primes[0]), (Q, primes[1])), [p, q]
    if kind.startswith("fat-point"):
        p = rng.choice([draw_point, coordinate_point])(rng, ring)
        P = p.ideal(ring)
        fat = fat_point(rng, ring, P)
        if kind == "fat-point-bare":
            return fat, (), [p]
        return fat, ((fat, P if kind == "fat-point-prime" else None),), [p]
    if kind == "monomial":
        gens = []
        for _ in range(rng.randint(1, 2)):
            mono = [0] * ring.nvars
            for _ in range(rng.randint(1, 2)):
                mono[rng.randrange(ring.nvars)] += 1
            gens.append(ring.monomial(mono))
        return HomIdeal(ring, gens), (), []
    forms = [draw_linear(rng, ring) for _ in range(max(1, ring.nvars - 2))]
    return HomIdeal(ring, forms), (), []


def branch(rep):
    """Which branch of the verdict table produced a report."""
    if any(f.startswith("degenerate") for f in rep.flags):
        return "degenerate"
    if rep.row("fails-left-chi-1").evidence.kind != "not-applicable":
        return "stable"
    right = rep.row("right-noetherian")
    if "fixed-part present" in rep.flags:
        return "unstable: fixed and moving part"
    if not rep.flags:
        return "unstable: moving components only"
    if right.evidence.kind == "refuted":
        return "unstable: finite-order part never fixed"
    if "no component split" in right.detail:
        return "unstable: no component split"
    return "unstable: order bound exhausted"


def main():
    rng = random.Random(SEED)
    fields = [QQ, QQ, PrimeField(7)]
    tally = Counter()
    for k in range(COUNT):
        field = rng.choice(fields)
        ring = PolyRing(field, rng.randint(2, 4))
        shape, sigma = draw_sigma(rng, ring)
        kind = rng.choice(KINDS)
        Z, comps, on_z = draw_z(rng, ring, kind)
        pool = [draw_point, coordinate_point] + [lambda rng, ring, p=p: p for p in on_z]
        points = tuple(rng.choice(pool)(rng, ring) for _ in range(rng.randint(0, 2)))
        horizon, order_bound = rng.randint(3, 8), rng.choice([1, 1, 2, 3, 6])
        rows = "; ".join(" ".join(map(field.to_str, row)) for row in sigma.matrix)
        print(f"## {k} | {field!r} | {shape} | {rows} | {kind} | {Z.gens_text()} | "
              f"components {len(comps)} | points {' '.join(map(str, points)) or '-'} | "
              f"horizon {horizon} | order bound {order_bound}")
        try:
            scene = IdealizerScene(ring, sigma, Z, declared_components=comps)
        except SceneVerificationError as exc:
            tally[("error",)] += 1
            print(f"error: {exc}")
            continue
        try:
            rep = classify(scene, sample_points=points, horizon=horizon,
                           order_bound=order_bound)
        except Exception as exc:  # print the fault and go on to the next case
            tally[("crash", type(exc).__name__)] += 1
            print(f"crash: {type(exc).__name__}: {exc}")
            continue
        rows = tuple(f"{r.verdict} [{r.evidence.kind}]" for r in rep.rows[::2])
        tally[(branch(rep), rep.flags) + rows] += 1
        print(render_text(report_to_records(rep)), end="")
    for key, n in sorted(tally.items(), key=str):
        print("#", *key, n, sep=" | ")


if __name__ == "__main__":
    main()
