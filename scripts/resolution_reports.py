#!/usr/bin/env python3
"""Graded Betti tables of minimal free resolutions, for comparing two checkouts.

Resolves, over Q, the rational normal curves of degree 3 to 6 (the 2x2
minors of [[x0 ... x(D-1)], [x1 ... xD]]), the (2,2) complete intersection
of the `scenes/curves/ci3.scene` probe curve and two skew lines in P^3 over
the polynomial ring, and the cusp point (x0, x1) over the cuspidal cubic
x1^2 x2 - x0^3 to length 8.  For each it prints the Betti numbers, one line
per homological degree i as "F_i: degree^count ...", and a sha256 of the
maps as the CLI would print their columns, so that a change of minimal
generators shows even when the numbers stay.  Run it on two source trees
and compare:

    PYTHONPATH=<checkout>/src python scripts/resolution_reports.py > reports.txt
"""

import hashlib
from collections import Counter

from geomideal import QQ, HomIdeal, PolyRing
from geomideal.homology import free_resolution


def minors(D):
    """The 2x2 minors of [[x0 ... x(D-1)], [x1 ... xD]]."""
    return [f"x{i}*x{j + 1} - x{i + 1}*x{j}" for i in range(D) for j in range(i + 1, D)]


def cases():
    for D in range(3, 7):
        ring = PolyRing(QQ, D + 1)
        yield f"rnc{D}", HomIdeal.from_strings(ring, minors(D)), None, None
    ring = PolyRing(QQ, 4)
    yield "ci3", HomIdeal.from_strings(ring, [
        "x0^2 + x1^2 - x2^2 - 2*x3^2 + x0*x1",
        "x0*x2 + x1*x3 - x2^2 - x3^2 + 3*x0^2"]), None, None
    yield "two skew lines", HomIdeal.from_strings(
        ring, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"]), None, None
    ring = PolyRing(QQ, 3)
    yield ("cusp over its quotient", HomIdeal.from_strings(ring, ["x0", "x1"]),
           HomIdeal.from_strings(ring, ["x1^2*x2 - x0^3"]), 8)


def main():
    for name, ideal, quotient, length in cases():
        res = free_resolution(ideal, length, modulo=quotient)
        ring = ideal.ring
        print(f"-- {name} (P^{ring.nvars - 1}) --")
        for i, module in enumerate(res.modules):
            betti = " ".join(f"{a}^{k}" for a, k in sorted(Counter(module.degrees).items()))
            print(f"  F_{i}: {betti}")
        text = "\n".join(" ".join(f"e{c}:{ring.format_poly(p)}" for c, p in sorted(col.comps.items()))
                         for d in res.maps for col in d.columns)
        print(f"  maps sha256 {hashlib.sha256(text.encode()).hexdigest()[:16]}")


if __name__ == "__main__":
    main()
