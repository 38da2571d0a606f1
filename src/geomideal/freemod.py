"""Graded free modules over the polynomial ring: Groebner bases, syzygies,
minimal generators, and Hilbert series numerators of graded submodules.

A vector lives in a FreeModule with a degree tuple (generator e_i has degree
degrees[i]); components are sparse Polys.  The module term order is
position-over-term: lower component index wins, ties broken by degrevlex
(polykernel.mono_key).  Putting the ambient components first and syzygy
tags last makes the same order an elimination order for syzygy
computations.

Module Groebner bases come from linalg.graded_groebner, the engine that
polynomial ideals use, on flat terms: the term x^m e_c is the exponent
tuple m + (degrees[c], -1 - c, 1 + c).  Its sum is the term's degree; one
flat term divides another only when their last two entries agree, that is
within a component; and within one degree the reversed tuples sort
position over term, as reversed monomials sort degrevlex.  Pairs within a
component, the chain criterion always, and the product criterion when both
vectors have a single nonzero component, where S(f.e, g.e) = S(f, g).e
makes it sound.  The normal form is polykernel.divide on the same flat
terms.

Syzygies and preimages tag only the vectors being combined, so their
output is already a reduced Groebner basis.  Minimal generators are graded
Nakayama on linear algebra, with no Groebner run: one `linalg.Echelon`
per degree, whose columns are (component, monomial) pairs, decides whether
a vector lies in the span of the ones accepted so far.  The Hilbert series
of a submodule is one integer numerator summed over components.
"""

from __future__ import annotations

from .linalg import Echelon, graded_groebner
from .polykernel import (
    Poly,
    PolyRing,
    dim_full_space,
    divide,
    mono_descending_key,
    mono_key,
    mono_mul,
    monomial_hilbert_numerator,
    monomials_of_degree,
    numerator_add,
)


class FreeModule:
    """Graded free module with a fixed generator degree tuple."""

    def __init__(self, ring: PolyRing, degrees):
        self.ring = ring
        self.degrees = tuple(degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

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
# division and Groebner bases
# ---------------------------------------------------------------------------

def _codes(module: FreeModule) -> list[tuple]:
    """Per component c, the entries (degrees[c], -1 - c, 1 + c) that its
    terms x^m e_c carry after m, as linalg.graded_groebner reads them."""
    return [(s, -1 - c, 1 + c) for c, s in enumerate(module.degrees)]


def _flat(v: MVec, codes) -> dict:
    """v's terms {m + codes[c]: coefficient}."""
    return {m + codes[c]: x for c, p in v.comps.items() for m, x in p.terms.items()}


def _vector(module: FreeModule, terms: dict) -> MVec:
    """The vector of flat terms given in decreasing order, so that the
    first term of each component is its leading one."""
    comps: dict[int, dict] = {}
    for t, x in terms.items():
        comps.setdefault(t[-1] - 1, {})[t[:-3]] = x
    return MVec(module, {c: Poly(module.ring, p, next(iter(p.items())))
                         for c, p in comps.items()})


def mod_normal_form(v: MVec, basis: list[MVec]) -> MVec:
    """Full remainder of the homogeneous v under division by basis, on the
    flat terms (polykernel.divide)."""
    codes = _codes(v.module)
    flats = [_flat(g, codes) for g in basis]
    divisors = [(min(t, key=mono_descending_key), t) for t in flats if t]
    _, rem = divide(v.ring.field, _flat(v, codes), divisors)
    return _vector(v.module, rem)


def module_groebner(vecs: list[MVec]) -> list[MVec]:
    """Reduced module Groebner basis, in MVec.sort_key order: one
    linalg.graded_groebner run on the flat terms."""
    if not vecs:
        return []
    module = vecs[0].module
    codes = _codes(module)
    return reduce_module_basis([_vector(module, terms) for _, terms in graded_groebner(
        module.ring.field, module.ring.nvars, [_flat(v, codes) for v in vecs])])


def reduce_module_basis(G: list[MVec]) -> list[MVec]:
    """A reduced module Groebner basis G in MVec.sort_key order."""
    return sorted(G, key=MVec.sort_key)


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
    degs = tuple(v.degree for v in vecs)
    if None in degs:
        raise ValueError("syzygies require homogeneous vectors")
    big = FreeModule(ring, module.degrees + degs)
    lifted = [MVec(big, {**v.comps, m + i: ring.one()}) for i, v in enumerate(vecs)]
    lifted += [MVec(big, dict(t.comps)) for t in targets]
    tags = FreeModule(ring, degs)
    return [MVec(tags, {c - m: p for c, p in g.comps.items()})
            for g in module_groebner(lifted) if min(g.comps) >= m]


def minimal_generators(vecs: list[MVec], modulo=()) -> list[MVec]:
    """A minimal generating set of the graded submodule generated by vecs,
    modulo the submodule generated by the vectors in modulo.

    Greedy in ascending degree: a vector already generated by the accepted
    ones and modulo is dropped (graded Nakayama makes this a minimal set).
    That test is linear algebra.  A vector v of degree d lies in the
    submodule generated by the vectors w so far exactly when its
    coefficients, indexed by (component, monomial), lie in the k-span of
    the x^a * w with |a| = d - deg w.  One `linalg.Echelon` per degree holds
    that span: it is built from every w when the first vector of its
    degree comes, and a vector it accepts joins it (and every later
    degree's span) as one more w.  Membership does not depend on how it is
    decided, so the accepted list is the one that a fresh module_groebner
    per accepted vector gives.  The modulo vectors are never returned.
    """
    vecs = [(v, v.degree) for v in vecs if not v.is_zero()]
    spanning = [(w, w.degree) for w in modulo if not w.is_zero()]
    if any(d is None for _, d in vecs + spanning):
        raise ValueError("minimal generators require homogeneous vectors")
    accepted: list[MVec] = []
    spans: dict[int, tuple[Echelon, dict]] = {}
    for v, d in sorted(vecs, key=lambda vd: MVec.sort_key(vd[0])):
        if d not in spans:
            spans[d] = _degree_span(v.module, d, spanning)
        ech, columns = spans[d]
        if ech.insert(_coefficients(v, (0,) * v.ring.nvars, columns)):
            accepted.append(v.monic())
            spanning.append((v, d))
    return accepted


def _degree_span(module: FreeModule, d: int, spanning) -> tuple[Echelon, dict]:
    """The echelon of the x^a * w over the (w, deg w) in spanning with
    deg w <= d and the monomials x^a of degree d - deg w, with the map from
    (component, monomial) to its column."""
    ring = module.ring
    ech = Echelon(ring.field, sum(dim_full_space(ring, d - e) for e in module.degrees))
    columns: dict = {}
    monos: dict[int, list[tuple]] = {}  # d - deg w -> its monomials
    for w, e in spanning:
        if d - e not in monos:
            monos[d - e] = monomials_of_degree(ring, d - e)
        for a in monos[d - e]:
            ech.insert(_coefficients(w, a, columns))
    return ech, columns


def _coefficients(w: MVec, a: tuple, columns: dict) -> dict:
    """The coefficients of x^a * w as a sparse row, columns numbered in
    order of first appearance."""
    row = {}
    for c, p in w.comps.items():
        for m, x in p.terms.items():
            row[columns.setdefault((c, mono_mul(m, a)), len(columns))] = x
    return row


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
        one_minus = numerator_add({0: 1}, monomial_hilbert_numerator(monos), -1)
        out = numerator_add(out, one_minus, 1, module.degrees[c])
    return out
