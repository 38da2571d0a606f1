#!/usr/bin/env python3
"""End-to-end walk of the moving-point scene on P^2.

sigma = diag(1,2,3) and Z = [1:1:1]: the twisted coordinates satisfy
x0*x1 = 2 x1*x0 etc., the section ring has dim R_n = C(n+2,2) - 1, every
sampled orbit leaves Z with a dominant-term certificate, transversality
against all invariant coordinate unions is certified, and the verdict
table follows.
"""

import argparse
import time

from geomideal import (
    IdealizerScene,
    PolyRing,
    ProjAutomorphism,
    QQ,
    RationalPoint,
    TwistedElement,
    classify,
    critical_transversality_certificate,
    forward_orbit_hits,
    idealizer_hilbert,
    oracle_agrees,
    twist_multiply,
)
from geomideal.cli import render_text, report_to_records


def flagship_scene():
    ring = PolyRing(QQ, 3)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "2", "3"])
    Z = RationalPoint.parse(QQ, "[1:1:1]").ideal(ring)
    return IdealizerScene(ring, sigma, Z, gorenstein_z=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--maxdeg", type=int, default=5)
    ap.add_argument("--horizon", type=int, default=12)
    ap.add_argument("--oracle", type=int, default=6)
    args = ap.parse_args()

    t0 = time.perf_counter()
    scene = flagship_scene()
    ring, sigma = scene.ring, scene.sigma

    print("== twisted commutation relations ==")
    for i in range(3):
        for j in range(i + 1, 3):
            a = twist_multiply(TwistedElement(1, ring.variable(i)),
                               TwistedElement(1, ring.variable(j)), sigma)
            b = twist_multiply(TwistedElement(1, ring.variable(j)),
                               TwistedElement(1, ring.variable(i)), sigma)
            scalar = QQ.mul(a.poly.lc(), QQ.inv(b.poly.lc()))
            print(f"  x{i}*x{j} = {QQ.to_str(scalar)} * x{j}*x{i}")

    print(f"\n== section-ring dimensions (oracle horizon {args.oracle}) ==")
    print("  n  dim_B  dim_I  dim_R  oracle")
    for row in idealizer_hilbert(scene, args.maxdeg):
        if row.n == 0:
            oracle = "-"
        else:
            agree = oracle_agrees(scene, row.n, args.oracle)
            oracle = "agree" if agree else "DISAGREE"
        print(f"  {row.n}  {row.dim_B:5d}  {row.dim_I:5d}  {row.dim_R:5d}  {oracle}")

    print(f"\n== forward orbits (horizon {args.horizon}) ==")
    for text in ("[1:1:1]", "[1:2:3]", "[0:0:1]"):
        p = RationalPoint.parse(QQ, text)
        rep = forward_orbit_hits(p, sigma, scene.ideal, args.horizon)
        hits = ", ".join(str(h) for h in rep.hits) or "none"
        print(f"  {p}: {rep.verdict} (hits: {hits})")

    print("\n== critical transversality ==")
    cert = critical_transversality_certificate(scene)
    print(f"  {cert.status} after checking {cert.checked} invariant subschemes")

    print("\n== classification ==")
    report = classify(scene,
                      sample_points=(RationalPoint.parse(QQ, "[1:1:1]"),
                                     RationalPoint.parse(QQ, "[1:2:3]")),
                      horizon=args.horizon)
    print(render_text(report_to_records(report)), end="")
    print(f"\ntotal time: {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
