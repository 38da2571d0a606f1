"""Graded free modules over the polynomial ring: Groebner bases, syzygies,
minimal generators, and Hilbert series numerators of graded submodules.

A vector lives in a FreeModule with a degree tuple (generator e_i has degree
degrees[i]); components are sparse Polys.  The module term order is
position-over-term: lower component index wins, ties broken by degrevlex
(polykernel.mono_key).  Putting the ambient components first and syzygy
tags last makes the same order an elimination order for syzygy
computations.

Module Buchberger is polykernel.buchberger run with the module normal form
below: pairs only within a component, the chain criterion always, and the
product (coprime) criterion when both vectors have a single nonzero
component, where S(f.e, g.e) = S(f, g).e makes it sound.  The normal form
is polykernel.divide, the heap division kernel that polynomials share.

Syzygies and preimages tag only the vectors being combined, so their
output is already a reduced Groebner basis.  The Hilbert series of a
submodule is one integer numerator summed over components.
"""

from __future__ import annotations

from .polykernel import (
    Poly,
    PolyRing,
    buchberger,
    divide,
    interreduce,
    mono_key,
    monomial_hilbert_numerator,
)


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

    def comp_terms(self) -> list:
        """(component, monomial, coefficient) per term."""
        return [(c, m, x) for c, p in self.comps.items() for m, x in p.terms.items()]

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

    def sort_key(self):
        fkey = self.module.ring.field.sort_key
        entries = []
        for i in sorted(self.comps):
            for m, c in sorted(self.comps[i].terms.items()):
                entries.append((i, mono_key(m), fkey(c)))
        d = self.degree
        return (-1 if d is None else d, tuple(entries))

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
    """Full remainder of v under division by basis (position-over-term).

    divide returns each component's terms in decreasing order, so the first
    one is that component's leading term."""
    rem: dict[int, dict] = {}
    for (c, m), x in divide(v, basis).items():
        rem.setdefault(c, {})[m] = x
    return MVec(v.module, {c: Poly(v.ring, t, next(iter(t.items())))
                           for c, t in rem.items()})


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
    """Reduced Groebner basis of the syzygy module
    {(a_i) : sum a_i * vecs[i] = 0} in S^r."""
    return preimage_generators(vecs, [])


def preimage_generators(vecs: list[MVec], targets: list[MVec]) -> list[MVec]:
    """Reduced Groebner basis of {(a_i) : sum a_i*vecs[i] lies in
    <targets>} in S^r, sorted so that module_groebner returns it unchanged.

    Lift vecs[i] to (vecs[i], e_i) and each target t to (t, 0) in the
    ambient module plus a tag block S^r placed after it, and keep the basis
    elements that lie wholly in the tag block.  Position-over-term is an
    elimination order for the ambient block, so those elements are the
    reduced Groebner basis of the preimage, already in MVec.sort_key order.
    Only vecs are tagged: the targets enter untagged, so no syzygies among
    them are computed and then projected away.
    """
    if not vecs:
        return []
    module = vecs[0].module
    ring = module.ring
    m = module.rank
    degs = []
    for v in vecs:
        d = v.degree
        if d is None:
            raise ValueError("syzygies require homogeneous vectors")
        degs.append(d)
    big = FreeModule(ring, module.degrees + tuple(degs))
    lifted = [MVec(big, {**v.comps, m + i: ring.one()}) for i, v in enumerate(vecs)]
    lifted += [MVec(big, dict(t.comps)) for t in targets]
    tags = FreeModule(ring, tuple(degs))
    return [MVec(tags, {c - m: p for c, p in g.comps.items()})
            for g in module_groebner(lifted) if min(g.comps) >= m]


def minimal_generators(vecs: list[MVec], modulo=()) -> list[MVec]:
    """A minimal generating set of the graded submodule generated by vecs,
    modulo the submodule generated by the vectors in modulo.

    Greedy in ascending degree: a vector already generated by the accepted
    ones and modulo is dropped (graded Nakayama makes this a minimal set).
    The modulo vectors seed the Groebner basis and are never returned.
    """
    vecs = [v for v in vecs if not v.is_zero()]
    for v in vecs:
        if v.degree is None:
            raise ValueError("minimal generators require homogeneous vectors")
    modulo = list(modulo)
    accepted: list[MVec] = []
    gb = module_groebner(modulo) if modulo else []
    for v in sorted(vecs, key=MVec.sort_key):
        if gb and submodule_contains(gb, v):
            continue
        accepted.append(v.monic())
        gb = module_groebner(modulo + accepted)
    return accepted


# ---------------------------------------------------------------------------
# Hilbert series of graded submodules
# ---------------------------------------------------------------------------

def submodule_hilbert_numerator(gb: list[MVec], module: FreeModule) -> dict[int, int]:
    """Numerator N(u) of the Hilbert series N(u)/(1-u)^nvars of the
    submodule with module Groebner basis gb: the sum over components c of
    u^degrees[c] * (1 - N_c(u)), N_c the numerator of S/(leading monomials
    in component c).  Integer arithmetic only."""
    by_comp: dict[int, list] = {}
    for g in gb:
        c, m, _ = g.leading()
        by_comp.setdefault(c, []).append(m)
    out: dict[int, int] = {}
    for c, monos in by_comp.items():
        shift = module.degrees[c]
        out[shift] = out.get(shift, 0) + 1
        for a, x in monomial_hilbert_numerator(monos).items():
            out[a + shift] = out.get(a + shift, 0) - x
    return {a: x for a, x in out.items() if x}
