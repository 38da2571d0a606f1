"""Graded free modules over the polynomial ring: Groebner bases, syzygies,
minimal generators, and Hilbert data of graded submodules.

A vector lives in a FreeModule with a degree tuple (generator e_i has degree
degrees[i]); components are sparse Polys.  The module term order is
position-over-term: lower component index wins, ties broken by the ring's
monomial order.  Putting the ambient components first and syzygy tags last
makes the same order an elimination order for syzygy computations.

Module Buchberger is polykernel.buchberger run with the module normal form
below: pairs only within a component, the chain criterion always, and the
product (coprime) criterion when both vectors have a single nonzero
component, where S(f.e, g.e) = S(f, g).e makes it sound.
"""

from __future__ import annotations

from fractions import Fraction

from .polykernel import (
    HilbertPoly,
    Poly,
    PolyRing,
    _binomial_poly,
    _poly_n_add,
    _poly_n_mul,
    _poly_n_scale,
    buchberger,
    hilbert_polynomial_from_numerator,
    interreduce,
    mono_div,
    mono_divides,
    monomial_hilbert_numerator,
)
import math


class FreeModule:
    """Graded free module with a fixed generator degree tuple."""

    def __init__(self, ring: PolyRing, degrees):
        self.ring = ring
        self.degrees = tuple(degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def zero(self) -> "MVec":
        return MVec(self, {})

    def gen(self, i: int) -> "MVec":
        return MVec(self, {i: self.ring.one()})

    def vec(self, comps: dict) -> "MVec":
        return MVec(self, {i: p for i, p in comps.items() if not p.is_zero()})

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.degrees == other.degrees
        )

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, degrees={self.degrees})"


class MVec:
    """Sparse homogeneous vector: dict component -> nonzero Poly."""

    __slots__ = ("module", "comps", "_lead")

    def __init__(self, module: FreeModule, comps: dict):
        self.module = module
        self.comps = comps
        self._lead = None

    def is_zero(self) -> bool:
        return not self.comps

    @property
    def ring(self) -> PolyRing:
        return self.module.ring

    @property
    def ncomps(self) -> int:
        return len(self.comps)

    @property
    def degree(self):
        """Common degree deg(f_i) + degrees[i] when homogeneous, else None."""
        degs = set()
        for i, p in self.comps.items():
            d = p.degree
            if d is None:
                return None
            degs.add(d + self.module.degrees[i])
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def leading(self):
        """(component, monomial, coefficient) under position-over-term."""
        if self._lead is None:
            if not self.comps:
                raise ValueError("zero vector has no leading term")
            c = min(self.comps)
            m, coeff = self.comps[c].lt()
            self._lead = (c, m, coeff)
        return self._lead

    def monic(self) -> "MVec":
        if not self.comps:
            return self
        field = self.module.ring.field
        inv = field.inv(self.leading()[2])
        return MVec(self.module, {i: p.scale(inv) for i, p in self.comps.items()})

    def __add__(self, other: "MVec") -> "MVec":
        out = dict(self.comps)
        for i, p in other.comps.items():
            s = out.get(i)
            q = p if s is None else s + p
            if q.is_zero():
                out.pop(i, None)
            else:
                out[i] = q
        return MVec(self.module, out)

    def __sub__(self, other: "MVec") -> "MVec":
        return self + (-other)

    def __neg__(self) -> "MVec":
        return MVec(self.module, {i: -p for i, p in self.comps.items()})

    def scale(self, c) -> "MVec":
        if self.module.ring.field.is_zero(c):
            return self.module.zero()
        return MVec(self.module, {i: p.scale(c) for i, p in self.comps.items()})

    def term_mul(self, c, exps) -> "MVec":
        if self.module.ring.field.is_zero(c):
            return self.module.zero()
        return MVec(self.module, {i: p.term_mul(c, exps) for i, p in self.comps.items()})

    def poly_mul(self, f: Poly) -> "MVec":
        acc = self.module.zero()
        for m, c in f.terms.items():
            acc = acc + self.term_mul(c, m)
        return acc

    def sort_key(self):
        okey = self.module.ring.order.key
        fkey = self.module.ring.field.sort_key
        entries = []
        for i in sorted(self.comps):
            for m, c in sorted(self.comps[i].terms.items()):
                entries.append((i, okey(m), fkey(c)))
        return (self.degree if self.degree is not None else -1, tuple(entries))

    def __eq__(self, other):
        return (
            isinstance(other, MVec)
            and self.module == other.module
            and self.comps == other.comps
        )

    def __repr__(self):
        if not self.comps:
            return "MVec(0)"
        inside = ", ".join(f"e{i}*({p})" for i, p in sorted(self.comps.items()))
        return f"MVec({inside})"


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

def mod_normal_form(v: MVec, basis: list[MVec]) -> MVec:
    """Full remainder of v under division by basis (position-over-term)."""
    module = v.module
    ring = module.ring
    field = ring.field
    divisors = [(g.leading(), g) for g in basis if not g.is_zero()]
    rem: dict[int, dict] = {}
    p = v
    while not p.is_zero():
        c, m, coeff = p.leading()
        hit = None
        for (gc, gm, gco), g in divisors:
            if gc == c and mono_divides(gm, m):
                hit = (gm, gco, g)
                break
        if hit is None:
            rem.setdefault(c, {})[m] = coeff
            rest = {k: v_ for k, v_ in p.comps[c].terms.items() if k != m}
            comps = dict(p.comps)
            if rest:
                comps[c] = Poly(ring, rest)
            else:
                del comps[c]
            p = MVec(module, comps)
        else:
            gm, gco, g = hit
            p = p - g.term_mul(field.div(coeff, gco), mono_div(m, gm))
    return MVec(module, {i: Poly(ring, t) for i, t in rem.items()})


def module_groebner(vecs: list[MVec]) -> list[MVec]:
    """Reduced module Groebner basis (polykernel.buchberger, module normal form)."""
    return reduce_module_basis(buchberger(vecs, MVec.sort_key, mod_normal_form))


def reduce_module_basis(G: list[MVec]) -> list[MVec]:
    return sorted(interreduce(G, mod_normal_form), key=MVec.sort_key)


def submodule_contains(gb: list[MVec], v: MVec) -> bool:
    return mod_normal_form(v, gb).is_zero()


# ---------------------------------------------------------------------------
# syzygies and minimal generators
# ---------------------------------------------------------------------------

def syzygy_generators(vecs: list[MVec]) -> list[MVec]:
    """Generators of the syzygy module {(a_i) : sum a_i * vecs[i] = 0} in S^r.

    Augment each vector with a tag component placed after the ambient block,
    run the module Buchberger under position-over-term (an elimination order
    for the ambient block), and keep the basis elements with zero ambient
    part.
    """
    if not vecs:
        return []
    module = vecs[0].module
    ring = module.ring
    r = len(vecs)
    m = module.rank
    degs = []
    for v in vecs:
        d = v.degree
        if d is None:
            raise ValueError("syzygies require homogeneous vectors")
        degs.append(d)
    big = FreeModule(ring, module.degrees + tuple(degs))
    lifted = []
    for i, v in enumerate(vecs):
        comps = dict(v.comps)
        comps[m + i] = ring.one()
        lifted.append(MVec(big, comps))
    gb = module_groebner(lifted)
    tags = FreeModule(ring, tuple(degs))
    out = []
    for g in gb:
        if all(c >= m for c in g.comps):
            out.append(MVec(tags, {c - m: p for c, p in g.comps.items()}))
    return out


def preimage_generators(vecs: list[MVec], targets: list[MVec]) -> list[MVec]:
    """Generators of {(a_i) : sum a_i*vecs[i] lies in <targets>} in S^r.

    Computed as syzygies of vecs + targets, projected to the vecs block.
    """
    if not vecs:
        return []
    module = vecs[0].module
    ring = module.ring
    syz = syzygy_generators(list(vecs) + list(targets))
    r = len(vecs)
    degs = tuple(v.degree for v in vecs)
    out_mod = FreeModule(ring, degs)
    out = []
    for s in syz:
        head = {c: p for c, p in s.comps.items() if c < r}
        if head:
            out.append(MVec(out_mod, head))
    return out


def minimal_generators(vecs: list[MVec]) -> list[MVec]:
    """A minimal generating set of the graded submodule generated by vecs.

    Greedy in ascending degree: a vector already generated by the accepted
    ones is dropped (graded Nakayama makes this a minimal set).
    """
    vecs = [v for v in vecs if not v.is_zero()]
    for v in vecs:
        if v.degree is None:
            raise ValueError("minimal generators require homogeneous vectors")
    accepted: list[MVec] = []
    gb: list[MVec] = []
    for v in sorted(vecs, key=MVec.sort_key):
        if accepted and submodule_contains(gb, v):
            continue
        accepted.append(v.monic())
        gb = module_groebner(accepted)
    return accepted


# ---------------------------------------------------------------------------
# Hilbert data of graded submodules
# ---------------------------------------------------------------------------

def _leading_monomials_by_component(gb: list[MVec]):
    by_comp: dict[int, list] = {}
    for g in gb:
        c, m, _ = g.leading()
        by_comp.setdefault(c, []).append(m)
    return by_comp


def submodule_hilbert_function(gb: list[MVec], module: FreeModule, n: int) -> int:
    """dim of the degree-n piece of the submodule with module Groebner basis gb."""
    ring = module.ring
    nv = ring.nvars
    by_comp = _leading_monomials_by_component(gb)
    total = 0
    for c, monos in by_comp.items():
        m = n - module.degrees[c]
        if m < 0:
            continue
        full = math.comb(m + nv - 1, nv - 1)
        num = monomial_hilbert_numerator(monos)
        quot = sum(
            co * math.comb(m - a + nv - 1, nv - 1) for a, co in num.items() if m - a >= 0
        )
        total += full - quot
    return total


def _shift_poly_n(coeffs: tuple, a: int) -> tuple:
    """p(n) -> p(n - a) on tuple-of-Fraction coefficient vectors."""
    out: tuple = ()
    power = (Fraction(1),)  # (n - a)^i
    for c in coeffs:
        out = _poly_n_add(out, _poly_n_scale(power, c))
        power = _poly_n_mul(power, (Fraction(-a), Fraction(1)))
    return out


def submodule_hilbert_polynomial(gb: list[MVec], module: FreeModule) -> HilbertPoly:
    """Hilbert polynomial (in the ambient grading) of the submodule."""
    ring = module.ring
    nv = ring.nvars
    by_comp = _leading_monomials_by_component(gb)
    full = _binomial_poly(nv - 1, nv - 1)
    acc: tuple = ()
    for c, monos in by_comp.items():
        num = monomial_hilbert_numerator(monos)
        quot = hilbert_polynomial_from_numerator(num, nv)
        diff = _poly_n_add(full, _poly_n_scale(quot.coeffs, Fraction(-1)))
        acc = _poly_n_add(acc, _shift_poly_n(diff, module.degrees[c]))
    return HilbertPoly(acc)
