#!/usr/bin/env python3
"""Homological-dimension probe over the cuspidal cubic.

Over A = k[x0,x1,x2]/(x1^2 x2 - x0^3), the residue field at the cusp
[0:0:1] has Tor_j nonzero for every probed j (the singular point sees
infinite homological dimension), while a smooth point's Tor dies from
j = 2 on.  Tor is read off a free resolution over A lifted to S, so every
printed dimension is exact; the window printed with the table only chooses
which degrees are shown.
"""

import argparse
import time

from geomideal import HomIdeal, PolyRing, QQ, truncated_tor_over_quotient


def probe(quotient, point_ideal, j_max):
    rep = truncated_tor_over_quotient(quotient, point_ideal, point_ideal,
                                      j_max=j_max)
    return rep


def show(label, rep):
    print(f"-- {label} (window {rep.window}) --")
    for j in sorted(rep.table):
        dims = " ".join(str(x) for x in rep.table[j])
        alive = "nonzero" if rep.verdicts[j] else "dies"
        print(f"  Tor_{j}: {dims}  [{alive}]")
    tag = "infinite-hd evidence" if rep.infinite_hd_evidence else "finite hd in window"
    print(f"  verdict: {tag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j-max", type=int, default=6)
    args = ap.parse_args()

    ring = PolyRing(QQ, 3)
    cubic = HomIdeal.from_strings(ring, ["x1^2*x2 - x0^3"])
    cusp = HomIdeal.from_strings(ring, ["x0", "x1"])
    smooth = HomIdeal.from_strings(ring, ["x0 - x2", "x1 - x2"])

    t0 = time.perf_counter()
    show("cusp point [0:0:1]", probe(cubic, cusp, args.j_max))
    show("smooth point [1:1:1]", probe(cubic, smooth, args.j_max))
    print(f"total time: {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
