#!/usr/bin/env python3
"""Seeded reduced Groebner bases, one line each, for comparing two checkouts.

Prints, over Q, GF(7) and GF(32003):
- the reduced basis of ideals of one to four random forms of degree 1-3
  in P^1..P^3, some of them made of products so that the forms share
  factors;
- the reduced basis and Hilbert numerator of sums I + J, I of two or three
  forms of degree 2-3, and J a linear or quadratic form (half the time a
  factor of I's first form) with at times a second, linear one, so that
  J's leading monomials divide leading and tail terms of I's basis;
- the reduced module bases of small resolutions: for each map of the
  minimal free resolution of a random or fixed ideal, the syzygies of its
  columns, the preimage of a linear form times the target, and the module
  basis of the columns plus that form times the target.

Run it on two source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/groebner_reports.py > reports.txt
"""

import random
from fractions import Fraction

from geomideal import QQ, HomIdeal, PolyRing, PrimeField, ideal_sum
from geomideal.freemod import MVec, module_groebner, preimage_generators, syzygy_generators
from geomideal.homology import free_resolution
from geomideal.polykernel import monomials_of_degree

SEED = 1
FIELDS = (("Q", QQ), ("GF(7)", PrimeField(7)), ("GF(32003)", PrimeField(32003)))


def coefficient(rng, field):
    if field.char == 0 and rng.random() < 0.25:
        return field.from_fraction(Fraction(rng.choice((1, -1, 2, -3)), rng.choice((2, 3))))
    return field.from_int(rng.randint(-4, 4))


def form(rng, ring, deg):
    """A random nonzero form of degree deg with two to four terms."""
    field = ring.field
    monos = monomials_of_degree(ring, deg)
    while True:
        terms = {}
        for m in rng.sample(monos, min(len(monos), rng.randint(2, 4))):
            c = coefficient(rng, field)
            if not field.is_zero(c):
                terms[m] = c
        f = ring.zero()
        for m, c in terms.items():
            f = f + ring.monomial(m, c)
        if not f.is_zero():
            return f


def basis_text(ring, basis):
    return "; ".join(ring.format_poly(g) for g in basis) or "0"


def vec_text(ring, v):
    return " ".join(f"e{c}:{ring.format_poly(p)}" for c, p in sorted(v.comps.items()))


def ideals(rng):
    for name, field in FIELDS:
        for nvars in (2, 3, 4):
            ring = PolyRing(field, nvars)
            for k in range(8):
                gens = []
                for _ in range(rng.randint(1, 4)):
                    if rng.random() < 0.3:
                        gens.append(form(rng, ring, 1) * form(rng, ring, rng.randint(1, 2)))
                    else:
                        gens.append(form(rng, ring, rng.randint(1, 3)))
                I = HomIdeal(ring, gens)
                print(f"ideal {name} P^{nvars - 1} #{k}: {basis_text(ring, I.groebner())}")


def sums(rng):
    for name, field in FIELDS:
        for nvars in (3, 4):
            ring = PolyRing(field, nvars)
            for k in range(8):
                factors = [form(rng, ring, rng.randint(1, 2)) for _ in range(2)]
                I = HomIdeal(ring, [factors[0] * form(rng, ring, 1)]
                             + [form(rng, ring, rng.randint(2, 3))
                                for _ in range(rng.randint(1, 2))])
                J = HomIdeal(ring, [factors[rng.randint(0, 1)]]
                             + [form(rng, ring, 1)] * rng.randint(0, 1))
                K = ideal_sum(I, J)
                num = " ".join(f"{c:+d}u^{a}" for a, c in sorted(K.hilbert_numerator().items()))
                print(f"sum {name} P^{nvars - 1} #{k}: {basis_text(ring, K.groebner())}"
                      f" | N {num or '0'}")


def module_cases(rng):
    for name, field in FIELDS:
        ring = PolyRing(field, 4)
        yield name, "twisted cubic", HomIdeal.from_strings(
            ring, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"])
        yield name, "skew lines", HomIdeal.from_strings(ring, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"])
        ring = PolyRing(field, 3)
        for k in range(3):
            yield name, f"random #{k}", HomIdeal(ring, [form(rng, ring, 2) for _ in range(3)])


def modules(rng):
    for name, title, I in module_cases(rng):
        ring = I.ring
        res = free_resolution(I)
        h = form(rng, ring, 1)
        for j, d in enumerate(res.maps):
            cols = list(d.columns)
            target = [MVec(d.target, {c: h}) for c in range(d.target.rank)]
            for label, basis in (("syz", syzygy_generators(cols)),
                                 ("pre", preimage_generators(cols, target)),
                                 ("gb", module_groebner(cols + target))):
                text = " | ".join(vec_text(ring, v) for v in basis)
                print(f"module {name} {title} d{j + 1} {label}: {text}")


def main():
    rng = random.Random(SEED)
    ideals(rng)
    sums(rng)
    modules(rng)


if __name__ == "__main__":
    main()
