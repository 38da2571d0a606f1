"""Exact multivariate polynomial arithmetic and homogeneous ideal operations.

The commutative kernel everything else sits on: polynomials over Q or GF(p)
in variables x0..x9, reduced Groebner bases, colon ideals, intersections,
saturation, and Hilbert functions / polynomials of graded quotients.

One Buchberger driver (`GroebnerRun`, then `interreduce`) serves both
polynomial ideals and graded submodules of free modules (freemod): a Poly is
a vector with the single component 0.  The chain criterion always applies;
the product (coprime) criterion applies to a pair whose two elements each
have exactly one nonzero component, the same one, which every pair of
polynomials satisfies.

Quotients.  When I's reduced basis is empty or all linear, S/I is a
polynomial ring, a domain, so (I : J) is (1) when J ⊆ I and I otherwise.
Else the generators of J in I are dropped, and the others go to the
section rule: for a form h of degree e, multiplication by h makes
0 → ((I : h)/I)(−e) → (S/I)(−e) → S/I → S/(I + (h)) → 0 exact, so the
Hilbert numerators N over (1 − u)^nvars satisfy
N(I + (h)) − (1 − u^e)·N(I) = u^e·N((I : h)/I) (`section_numerator`, with
I + (h) from `ideal_sum`'s unreduced extension of I's basis by h), zero
exactly when (I : h) = I, that is, when h is a nonzerodivisor on S/I.  Once
some generator g passes, (I : J) ⊆ (I : g) = I, so (I : J) is I.  Otherwise
(I : J) is the meet of the (I : g), each read degree by degree off I's
normal forms until its leading monomials give N(I) − u^(−e)·s, the numerator
of S/(I : g) by the sequence above, s the section numerator (a Hilbert-driven
stop, `linalg.NormalForms.colon`; Traverso, J. Symbolic Comput. 1996).  `intersect` returns the smaller ideal's
reduced basis when one contains the other, and otherwise the preimage of
(1, 1) under I·e_1 + J·e_2.  Saturation: for a homogeneous K in degrevlex,
in(K : x_last^∞) = in(K) : x_last^∞ (Bayer & Stillman, Invent. Math. 1987;
Eisenbud, Commutative Algebra, Prop. 15.12), so dividing each Groebner
basis element of K by the largest power of x_last dividing it gives a
Groebner basis of (K : x_last^∞); (I : x_i^∞) is that with x_i and x_last
swapped.  When x_last divides no leading monomial of I's reduced basis,
the lemma gives (I : x_last^∞) = I, so x_last is a nonzerodivisor on S/I and
(I : m^∞) ⊆ (I : x_last^∞) = I.  Otherwise (I : m^∞) is the intersection
of the (I : x_i^∞), with no loop, and it is I itself when it lies in I.

Degree pieces.  The standard monomials, those no leading monomial of the
reduced basis divides, are a basis of S/I (Macaulay; Eisenbud, Commutative
Algebra, Thm 15.3).  So I_n has the basis m − nf(m) over the other degree-n
monomials m, and that basis is its reduced row echelon form: it is read off
the Groebner basis, with no matrix.

Representation notes.  Monomials are plain exponent tuples of length
nvars = d + 1; a Poly is a dict {exponent tuple: scalar} plus a cached
homogeneous-degree tag (None when the terms mix degrees).  The one monomial
order is degrevlex, given by the key function mono_key on exponent tuples:
bigger key = bigger monomial.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce as _fold
from itertools import combinations
from operator import add, le, neg, sub


# ---------------------------------------------------------------------------
# the monomial order (degrevlex) and the polynomial ring
# ---------------------------------------------------------------------------

def mono_key(exps):
    """Degrevlex key on an exponent tuple: bigger key = bigger monomial."""
    return (sum(exps), tuple(map(neg, exps[::-1])))


def mono_descending_key(exps):
    """Key that sorts larger monomials first (a heap pops the largest)."""
    return (-sum(exps), exps[::-1])


def unit_exponents(nvars: int) -> tuple:
    """The exponent tuples of x0, x1, ..., x(nvars−1)."""
    return tuple(tuple(int(i == j) for j in range(nvars)) for i in range(nvars))


class PolyRing:
    """Immutable context: field, nvars, and units[i] = the exponents of x_i."""

    def __init__(self, field, nvars: int):
        if not 1 <= nvars <= 10:
            raise ValueError("nvars out of the supported range 1..10 (d <= 9)")
        self.field = field
        self.nvars = nvars
        self.units = unit_exponents(nvars)

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def constant(self, c) -> "Poly":
        return self.monomial((0,) * self.nvars, c)

    def variable(self, i: int) -> "Poly":
        return Poly(self, {self.units[i]: self.field.one})

    def monomial(self, exps, c=None) -> "Poly":
        c = self.field.one if c is None else c
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, {tuple(exps): c})

    # -- parsing / printing -------------------------------------------------

    _TOKEN = re.compile(r"\s*(x\d+|\d+/\d+|\d+|\*\*|[-+*^()])")

    def parse(self, text: str) -> "Poly":
        """Parse the polynomial text grammar.

        Variables x0..x9, integer or rational coefficients "a" / "a/b",
        operators + - * ^ (also ** as a synonym), parentheses; whitespace
        insignificant.  Example: "x0^2 + 3/2*x0*x1 - x2^2".
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ValueError(f"bad token at position {pos}: {text[pos:pos + 10]!r}")
            tokens.append("^" if m.group(1) == "**" else m.group(1))
            pos = m.end()
        parser = _PolyParser(self, tokens)
        result = parser.parse_expr()
        if parser.pos != len(tokens):
            raise ValueError(f"trailing input after polynomial: {tokens[parser.pos:]}")
        return result

    def format_poly(self, f: "Poly") -> str:
        if not f.terms:
            return "0"
        return _signed_sum(
            (self.field.to_str(f.terms[exps]),
             "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e))
            for exps in sorted(f.terms, key=mono_key, reverse=True))

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and (self.field, self.nvars) == (other.field, other.nvars))

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"PolyRing({self.field!r}, nvars={self.nvars})"


def _signed_sum(terms) -> str:
    """Join (coefficient text, monomial text) pairs into "a*m - b*m' + c",
    leaving out a coefficient 1 before a monomial."""
    parts = []
    for cs, mono in terms:
        neg = cs.startswith("-")
        cs = cs[1:] if neg else cs
        body = mono if mono and cs == "1" else f"{cs}*{mono}" if mono else cs
        parts.append(("- " if neg else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


class _PolyParser:
    """Recursive descent for the additive/multiplicative/power grammar."""

    def __init__(self, ring: PolyRing, tokens: list[str]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            acc = acc - term if op == "-" else acc + term
        return acc

    def parse_term(self):
        acc = self.parse_power()
        while self.peek() == "*" or self._starts_factor(self.peek()):
            if self.peek() == "*":
                self.take()
            acc = acc * self.parse_power()
        return acc

    @staticmethod
    def _starts_factor(tok):
        return tok is not None and (tok == "(" or tok[0] == "x" or tok[0].isdigit())

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok is None or not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(exp_tok)
        return base

    def parse_atom(self):
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok == "-":
            return -self.parse_atom()
        if tok.startswith("x"):
            idx = int(tok[1:])
            if idx >= self.ring.nvars:
                raise ValueError(f"variable {tok} out of range for {self.ring.nvars} variables")
            return self.ring.variable(idx)
        if "/" in tok:
            num, den = tok.split("/")
            try:
                value = self.ring.field.from_fraction(Fraction(int(num), int(den)))
            except ZeroDivisionError:  # den = 0, or p | den over GF(p)
                raise ValueError(f"coefficient {tok} is not in the field") from None
            return self.ring.constant(value)
        if tok.isdigit():
            return self.ring.constant(self.ring.field.from_int(int(tok)))
        raise ValueError(f"unexpected token {tok!r}")


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


class Poly:
    """Sparse polynomial: dict of exponent tuple -> nonzero scalar."""

    __slots__ = ("ring", "terms", "_deg", "_lt")

    def __init__(self, ring: PolyRing, terms: dict, lt=None):
        self.ring = ring
        self.terms = terms
        self._deg = -2  # unset marker (-1 means inhomogeneous, None-like)
        self._lt = lt

    # degree tag: the common degree when homogeneous, else None
    @property
    def degree(self):
        if self._deg == -2:
            degs = {mono_deg(m) for m in self.terms} or {0}
            self._deg = degs.pop() if len(degs) == 1 else -1
        return None if self._deg == -1 else self._deg

    def is_homogeneous(self) -> bool:
        return not self.terms or self.degree is not None

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self):
        """Leading (monomial, coefficient) under degrevlex."""
        if self._lt is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = min(self.terms, key=mono_descending_key)
            self._lt = (m, self.terms[m])
        return self._lt

    def lm(self):
        return self.lt()[0]

    def lc(self):
        return self.lt()[1]

    def leading(self):
        """(component, monomial, coefficient): a Poly is component 0."""
        m, c = self.lt()
        return (0, m, c)

    @property
    def ncomps(self) -> int:
        """Number of nonzero components when read as a rank-1 vector."""
        return 1 if self.terms else 0

    def comp_terms(self) -> list:
        """(component, monomial, coefficient) per term, component always 0."""
        return [(0, m, c) for m, c in self.terms.items()]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, self.ring.field.add)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, self.ring.field.sub)

    def _combine(self, other: "Poly", op) -> "Poly":
        field = self.ring.field
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = op(res.get(m, field.zero), c)
            if field.is_zero(s):
                res.pop(m, None)
            else:
                res[m] = s
        return Poly(self.ring, res)

    def __neg__(self) -> "Poly":
        field = self.ring.field
        return Poly(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        field = self.ring.field
        res: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = field.add(res.get(m, field.zero), field.mul(c1, c2))
                if field.is_zero(s):
                    res.pop(m, None)
                else:
                    res[m] = s
        return Poly(self.ring, res)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _fold(Poly.__mul__, [self] * n, self.ring.one())

    def scale(self, c) -> "Poly":
        """c times self; a known leading term carries over, since scaling by
        a nonzero c keeps the leading monomial."""
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        lt = None if self._lt is None else (self._lt[0], field.mul(c, self._lt[1]))
        return Poly(self.ring, {m: field.mul(c, x) for m, x in self.terms.items()}, lt)

    def term_mul(self, c, exps) -> "Poly":
        """Multiply by the single term c * x^exps."""
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Poly(self.ring, {mono_mul(m, exps): field.mul(c, x) for m, x in self.terms.items()})

    def evaluate(self, point) -> object:
        """Evaluate at a tuple of field scalars."""
        field = self.ring.field
        total = field.zero
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                for _ in range(e):
                    v = field.mul(v, point[i])
            total = field.add(total, v)
        return total

    # -- misc ---------------------------------------------------------------

    def sort_key(self):
        """Deterministic total order on polynomials (for canonical listings)."""
        fkey = self.ring.field.sort_key
        return (max(map(mono_deg, self.terms), default=0), tuple(sorted(
            ((mono_key(m), fkey(c)) for m, c in self.terms.items()), reverse=True)))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return self.ring.format_poly(self)


class Substitution:
    """The ring map x_i -> images[i] into the images' ring.  The image of each
    monomial is cached, built as the image of one smaller monomial times one
    image, so a polynomial's image is the sum of c_t * image(t).  The table
    starts with 1 and the images, keyed by len(images) exponents: the source
    ring's, which may differ from the images' ring."""

    def __init__(self, images: list[Poly]):
        self.images = images
        self.ring = images[0].ring
        self._table = dict(zip(unit_exponents(len(images)), images))
        self._table[(0,) * len(images)] = self.ring.one()

    def image(self, m) -> Poly:
        img = self._table.get(m)
        if img is None:
            i = next(i for i, e in enumerate(m) if e)
            img = self.image(m[:i] + (m[i] - 1,) + m[i + 1:]) * self.images[i]
            self._table[m] = img
        return img

    def __call__(self, f: Poly) -> Poly:
        field = self.ring.field
        acc: dict = {}
        for m, c in f.terms.items():
            for t, x in self.image(m).terms.items():
                acc[t] = field.add(acc.get(t, field.zero), field.mul(c, x))
        return Poly(self.ring, {t: x for t, x in acc.items() if not field.is_zero(x)})


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

class _Basis(list):
    """A divisor list that keeps each element's leading() beside it, so a
    growing Buchberger basis gives divide its leading terms once, not per
    call.  Elements are nonzero."""

    def __init__(self, elems=()):
        super().__init__(elems)
        self.lead = [g.leading() for g in self]

    def append(self, g):
        super().append(g)
        self.lead.append(g.leading())


def divide(f, basis: list) -> dict:
    """Remainder of f under full division by basis, as {(component,
    monomial): coefficient} in decreasing position-over-term order.

    The one division kernel, for polynomials (component 0) and module
    vectors: undivided terms live in a mutable dict and their descending
    keys in a heap, where a cancelled term's key is skipped when popped
    (Monagan & Pearce, CASC 2007), so a step costs one divisor's size, not
    a copy of the remainder.  The first basis element whose leading term
    divides the leading term is used, as in schoolbook division.
    """
    field = f.ring.field
    if not isinstance(basis, _Basis):
        basis = _Basis(g for g in basis if not g.is_zero())
    tails: dict = {}
    acc = {(c, m): x for c, m, x in f.comp_terms()}
    heap = [(c, mono_descending_key(m), m) for c, m in acc]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        c, _, m = heapq.heappop(heap)
        x = acc.pop((c, m), None)
        if x is None:
            continue
        for k, (gc, gm, gx) in enumerate(basis.lead):
            if gc == c and mono_divides(gm, m):
                break
        else:
            rem[c, m] = x
            continue
        if k not in tails:
            tails[k] = [t for t in basis[k].comp_terms() if t[0] != gc or t[1] != gm]
        q = field.div(x, gx)
        shift = mono_div(m, gm)
        for tc, tm, tx in tails[k]:
            key = (tc, mono_mul(tm, shift))
            old = acc.get(key)
            if old is None:
                heapq.heappush(heap, (tc, mono_descending_key(key[1]), key[1]))
                old = field.zero
            old = field.sub(old, field.mul(q, tx))
            if field.is_zero(old):
                del acc[key]
            else:
                acc[key] = old
    return rem


def normal_form(f: Poly, basis: list[Poly]) -> Poly:
    """Remainder of f under full multivariate division by basis; divide
    returns it in decreasing order, so its first term is the leading one."""
    rem = {m: c for (_, m), c in divide(f, basis).items()}
    return Poly(f.ring, rem, next(iter(rem.items()), None))


class GroebnerRun:
    """An open Buchberger run: a basis, its pair heap and its pending set.

    The one Buchberger loop, for polynomials and module vectors alike:
    elements expose leading() -> (component, monomial, coefficient), a Poly
    being component 0, plus ncomps, monic, term_mul and subtraction; nf is
    their normal form.  The seed gens are made monic and sorted by sort_key,
    so every choice point is ordered.  Pairs within a component are keyed
    once, by (degree, component, mono_key) of the lcm with the index pair as
    tie-break, and a heap hands them out in key order; the pending set
    mirrors it for the chain criterion.

    complete() takes pairs until the heap is empty, so the basis is then a
    Groebner basis (not yet interreduced) of everything pushed.

    A run may start from a finished block, monic elements that already form
    a Groebner basis (I's reduced basis in ideal_sum).  They enter first,
    with no pairs among them: each such S-pair reduces to zero modulo the
    block (Buchberger's criterion; Cox, Little & O'Shea, Ideals, Varieties,
    and Algorithms, §2.6), hence modulo every larger basis, so the chain
    criterion may count it as already treated.

    Two criteria skip a pair.  Coprime leading monomials, when both elements
    have exactly one nonzero component (the same one, since pairs never
    cross components): S(f.e, g.e) = S(f, g).e, so the polynomial product
    criterion carries over; polynomials always qualify.  The chain
    criterion: a third element of the component whose leading monomial
    divides the lcm, with both linking pairs already handled.
    """

    __slots__ = ("nf", "basis", "heap", "pending")

    def __init__(self, gens: list, sort_key, nf, finished=()):
        self.nf = nf
        self.basis = _Basis(finished)
        self.heap: list = []
        self.pending: set[tuple[int, int]] = set()
        for g in sorted((g.monic() for g in gens if not g.is_zero()), key=sort_key):
            self._push(g)

    def _push(self, g) -> None:
        G, heap, pending = self.basis, self.heap, self.pending
        G.append(g)
        lead = G.lead
        j = len(G) - 1
        cj, mj, _ = lead[j]
        for i in range(j):
            if lead[i][0] == cj:
                lcm = mono_lcm(lead[i][1], mj)
                heapq.heappush(heap, ((mono_deg(lcm), cj, mono_key(lcm)), (i, j)))
                pending.add((i, j))

    def complete(self) -> list:
        """Reduce every pending pair; returns the basis."""
        G, heap, pending, nf = self.basis, self.heap, self.pending, self.nf
        if not G:
            return G
        field = G[0].ring.field
        lead = G.lead
        while heap:
            _, pair = heapq.heappop(heap)
            pending.discard(pair)
            i, j = pair
            ci, mi, ai = lead[i]
            _, mj, aj = lead[j]
            lcm = mono_lcm(mi, mj)
            if G[i].ncomps == 1 and G[j].ncomps == 1 and lcm == mono_mul(mi, mj):
                continue
            if any(k != i and k != j and ck == ci and mono_divides(mk, lcm)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, (ck, mk, _) in enumerate(lead)):
                continue
            s = (G[i].term_mul(field.inv(ai), mono_div(lcm, mi))
                 - G[j].term_mul(field.inv(aj), mono_div(lcm, mj)))
            r = nf(s, G)
            if not r.is_zero():
                self._push(r.monic())
        return G


def buchberger(gens: list, sort_key, nf) -> list:
    """A Groebner basis (not yet interreduced) of the nonzero gens: one
    GroebnerRun seeded with them and completed."""
    return GroebnerRun(gens, sort_key, nf).complete()


def interreduce(G: list, nf) -> list:
    """Minimalize and tail-reduce a Groebner basis with the normal form nf.

    Works for polynomials and module vectors (see buchberger); the result is
    monic, in increasing (component, leading monomial) order.
    """
    G = [g for g in G if not g.is_zero()]
    if not G:
        return []
    minimal: list = []
    heads: list = []
    for g in sorted(G, key=lambda g: (g.leading()[0], mono_key(g.leading()[1]))):
        c, m, _ = g.leading()
        if not any(hc == c and mono_divides(hm, m) for hc, hm in heads):
            minimal.append(g)
            heads.append((c, m))
    reduced = []
    for idx, g in enumerate(minimal):
        r = nf(g, minimal[:idx] + minimal[idx + 1:])
        if not r.is_zero():
            reduced.append(r.monic())
    return reduced


def groebner_basis(gens: list[Poly]) -> list[Poly]:
    """Reduced Groebner basis under degrevlex; of linear gens, one echelon."""
    from .linalg import linear_groebner_basis  # linalg imports this module
    return linear_groebner_basis(gens) or reduce_basis(buchberger(gens, Poly.sort_key, normal_form))


def reduce_basis(G: list[Poly]) -> list[Poly]:
    """Interreduce a Groebner basis to the unique reduced one, sorted by
    decreasing leading monomial."""
    return interreduce(G, normal_form)[::-1]


# ---------------------------------------------------------------------------
# homogeneous ideals
# ---------------------------------------------------------------------------

class HomIdeal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    The zero ideal is represented by an empty generator list, and gens are
    kept in Poly.sort_key order.  basis, when given, is a Groebner basis
    not yet reduced (from ideal_sum): the Hilbert numerator reads its
    leading monomials, which generate in(I) like those of any Groebner
    basis, and groebner() reduces it on its first call.
    """

    def __init__(self, ring: PolyRing, gens, *, basis=None, _gb=None):
        self.ring = ring
        clean = [g for g in gens if not g.is_zero()]
        for g in clean:
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
        self.gens = tuple(clean[::-1] if _gb else sorted(clean, key=Poly.sort_key))
        self._gb = _gb
        self._basis = basis
        self._hilbert_numerator = self._normal_forms = self._divisors = None

    @classmethod
    def from_strings(cls, ring: PolyRing, texts) -> "HomIdeal":
        return cls(ring, [ring.parse(t) for t in texts])

    @classmethod
    def from_basis(cls, ring: PolyRing, gb) -> "HomIdeal":
        """The ideal of a known reduced basis gb, by decreasing leading monomial
        (reduce_basis).  Monic with distinct leading monomials, gb sorts by
        them alone under Poly.sort_key, so gb reversed is the sorted gens."""
        return cls(ring, gb, _gb=tuple(gb))

    def groebner(self) -> tuple[Poly, ...]:
        if self._gb is None:
            self._gb = tuple(groebner_basis(list(self.gens)) if self._basis is None
                             else reduce_basis(self._basis))
        return self._gb

    def hilbert_numerator(self) -> dict[int, int]:
        """N(u) of the Hilbert series N(u)/(1−u)^nvars of S/I, built once."""
        if self._hilbert_numerator is None:
            basis = self.groebner() if self._basis is None else self._basis
            self._hilbert_numerator = monomial_hilbert_numerator([g.lm() for g in basis])
        return self._hilbert_numerator

    def normal_forms(self):
        """The linalg.NormalForms table of the reduced basis, built once."""
        if self._normal_forms is None:
            from .linalg import NormalForms  # linalg imports this module
            self._normal_forms = NormalForms(self.ring, list(self.groebner()))
        return self._normal_forms

    def contains(self, f: Poly) -> bool:
        """Whether f reduces to 0 by the reduced basis, one _Basis for all f."""
        if self._divisors is None:
            self._divisors = _Basis(self.groebner())
        return not divide(f, self._divisors)

    def is_unit(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].degree == 0

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def __eq__(self, other):
        return (isinstance(other, HomIdeal) and self.ring == other.ring
                and self.groebner() == other.groebner())

    def gens_text(self) -> str:
        """The generators, comma-separated, in the ring's print format."""
        return ", ".join(self.ring.format_poly(g) for g in self.gens)

    def __repr__(self):
        return f"HomIdeal({self.gens_text() or '0'})"


def ideal_equal(I: HomIdeal, J: HomIdeal) -> bool:
    return I == J


def ideal_sum(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """I + J from one Groebner run that starts from I's reduced basis as a
    finished block (GroebnerRun) and adds the nonzero normal forms of J's
    generators; the completed basis is kept unreduced (HomIdeal)."""
    gb = list(I.groebner())
    run = GroebnerRun([normal_form(g, gb) for g in J.gens], Poly.sort_key, normal_form, gb)
    return HomIdeal(I.ring, I.gens + J.gens, basis=run.complete())


def unit_ideal(ring: PolyRing) -> HomIdeal:
    return HomIdeal(ring, [ring.one()])


def _preimage(I: HomIdeal, J: HomIdeal) -> list[Poly]:
    """Reduced Groebner basis of I ∩ J, by decreasing leading monomial: the
    preimage of (1, 1) under I·e_1 + J·e_2, one freemod.preimage_generators
    run in F = S ⊕ S (Greuel & Pfister, A Singular Introduction to
    Commutative Algebra, ch. 2)."""
    from . import freemod  # local import: freemod imports this module

    F, one = freemod.FreeModule(I.ring, [0, 0]), I.ring.one()
    targets = [freemod.MVec(F, {k: f}) for k, part in enumerate((I, J)) for f in part.gens]
    pre = freemod.preimage_generators([freemod.MVec(F, {0: one, 1: one})], targets)
    return sorted((a.comps[0] for a in pre), key=lambda f: mono_key(f.lm()), reverse=True)


def intersect(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """I ∩ J: the smaller ideal's reduced basis when one contains the other
    (normal forms against the cached bases), else `_preimage`."""
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return HomIdeal(ring, [])
    for small, big in ((I, J), (J, I)):
        if all(big.contains(f) for f in small.gens):
            return HomIdeal.from_basis(ring, small.groebner())
    return HomIdeal.from_basis(ring, _preimage(I, J))


def _section(I: HomIdeal, g: Poly) -> dict[int, int]:
    """g's section numerator on S/I, zero exactly when g is a nonzerodivisor."""
    return section_numerator(I, ideal_sum(I, HomIdeal(I.ring, [g])), g.degree)


def ideal_quotient(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """(I : J) = {f : f·J ⊆ I}.  When I's reduced basis is empty or all
    linear, S/I is a domain: (I : J) is (1) when J ⊆ I and I otherwise, and
    the first generator of J outside I decides.  Else I at the first zero
    section, or the meet of the Hilbert-driven (I : g) (module docstring)."""
    ring, basis = I.ring, I.groebner()
    if all(f.degree == 1 for f in basis):  # S/I is a domain
        inside = all(map(I.contains, J.gens))  # stops at the first g outside I
        return unit_ideal(ring) if inside else HomIdeal.from_basis(ring, basis)
    gens = [g for g in J.gens if not I.contains(g)]
    if not gens:
        return unit_ideal(ring)
    sections = []
    for g in gens:
        if not (s := _section(I, g)):
            return HomIdeal.from_basis(ring, basis)
        sections.append(s)
    return _fold(intersect, map(I.normal_forms().colon, gens, sections))


def _saturate_variable(I: HomIdeal, i: int) -> HomIdeal:
    """(I : x_i^∞), with x_i and x_last swapped so that the largest power of
    x_last dividing each element of a Groebner basis is divided out (module
    docstring); I itself when all of it lies in I."""
    ring = I.ring
    xs = [ring.variable(j) for j in range(ring.nvars)]
    xs[i], xs[-1] = xs[-1], xs[i]
    swap = Substitution(xs)
    basis = I.groebner() if i == ring.nvars - 1 else groebner_basis(list(map(swap, I.gens)))
    quot = [swap(Poly(ring, {m[:-1] + (m[-1] - f.lm()[-1],): c for m, c in f.terms.items()}))
            for f in basis]
    if all(map(I.contains, quot)):
        return I
    return HomIdeal.from_basis(ring, groebner_basis(quot))


def saturate(I: HomIdeal) -> HomIdeal:
    """(I : m^∞) for the irrelevant ideal m = (x0..xd).  I itself at once
    when x_last divides no leading monomial of I's reduced basis, since
    x_last is then a nonzerodivisor on S/I (Bayer & Stillman; module
    docstring).  Otherwise one pass: the intersection of the (I : x_i^∞),
    and I itself when that lies in I, so a saturated ideal keeps its
    generators."""
    if not any(g.lm()[-1] for g in I.groebner()):  # x_last is a nonzerodivisor
        return I
    sat = _fold(intersect, [_saturate_variable(I, i) for i in range(I.ring.nvars)])
    return I if all(map(I.contains, sat.gens)) else sat


# ---------------------------------------------------------------------------
# Hilbert machinery
# ---------------------------------------------------------------------------

def _minimalize_monos(monos):
    monos = sorted(set(monos), key=lambda m: (mono_deg(m), m))
    out = []
    for m in monos:
        if not any(mono_divides(n, m) for n in out):
            out.append(m)
    return out


def numerator_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a·b, zero coefficients dropped."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def numerator_add(a: dict, b: dict, sign: int = 1, shift: int = 0) -> dict[int, int]:
    """a + sign·u^shift·b, zero coefficients dropped."""
    out = dict(a)
    for k, x in b.items():
        out[k + shift] = out.get(k + shift, 0) + sign * x
    return {k: x for k, x in out.items() if x}


def section_numerator(I: HomIdeal, total: HomIdeal, e: int) -> dict[int, int]:
    """N(I + (f)) − (1 − u^e)·N(I), total = I + (f), f of degree e (module docstring)."""
    num = numerator_add(total.hilbert_numerator(), I.hilbert_numerator(), -1)
    return numerator_add(num, I.hilbert_numerator(), 1, e)


def monomial_hilbert_numerator(monos) -> dict[int, int]:
    """Numerator N(u) of the Hilbert series N(u)/(1−u)^nvars of S/(monos).

    Splitting recursion: N(I' + (m)) = N(I') − u^{deg m} · N(I' : m), with a
    pure-power product base case.
    """
    monos = _minimalize_monos(monos)
    if not monos:
        return {0: 1}
    if any(mono_deg(m) == 0 for m in monos):
        return {}
    # base: pairwise coprime generators (includes pure powers)
    if all(not any(map(min, a, b)) for a, b in combinations(monos, 2)):
        acc = {0: 1}
        for m in monos:
            acc = numerator_mul(acc, {0: 1, mono_deg(m): -1})
        return acc
    # split on the last (largest) generator; the recursion minimalizes the colon
    m, rest = monos[-1], monos[:-1]
    colon = [tuple(max(e - f, 0) for e, f in zip(n, m)) for n in rest]
    return numerator_add(monomial_hilbert_numerator(rest),
                         monomial_hilbert_numerator(colon), -1, mono_deg(m))


def series_coefficient(num: dict[int, int], nvars: int, n: int) -> int:
    """The u^n coefficient of the Hilbert series N(u)/(1−u)^nvars."""
    return sum(c * math.comb(n - a + nvars - 1, nvars - 1) for a, c in num.items() if n >= a)


def hilbert_function(I: HomIdeal, n: int) -> int:
    """dim_k (S/I)_n."""
    return series_coefficient(I.hilbert_numerator(), I.ring.nvars, n)


@dataclass(frozen=True)
class HilbertPoly:
    """Polynomial in n with exact rational coefficients (index = power of n)."""

    coeffs: tuple[Fraction, ...]

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, n: int) -> Fraction:
        return _fold(lambda acc, c: acc * n + c, reversed(self.coeffs), Fraction(0))

    def constant_value(self) -> Fraction:
        """The value when the polynomial is constant (degree <= 0)."""
        if self.degree() > 0:
            raise ValueError("Hilbert polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        return _signed_sum((str(c), "" if p == 0 else "n" if p == 1 else f"n^{p}")
                           for p, c in reversed(list(enumerate(self.coeffs))) if c != 0)

    def __repr__(self):
        return f"HilbertPoly({self.pretty()})"


def hilbert_polynomial_from_numerator(num: dict[int, int], nvars: int) -> HilbertPoly:
    """Σ c_a·C(n − a + nvars − 1, nvars − 1) over the terms c_a·u^a of N: the
    u^n coefficient of N(u)/(1−u)^nvars for every n ≥ deg N.  With
    r = nvars − 1, r!·C(n − a + r, r) = (n − a + 1)···(n − a + r) has integer
    coefficients, so the sum is taken over Z and divided by r! once."""
    r = nvars - 1
    total = [0] * (r + 1)
    for a, c in num.items():
        term = [c]
        for i in range(1, r + 1):  # times (n + i − a)
            term = [x * (i - a) + y for x, y in zip(term + [0], [0] + term)]
        total = [x + y for x, y in zip(total, term)]
    while total and total[-1] == 0:
        total.pop()
    return HilbertPoly(tuple(Fraction(x, math.factorial(r)) for x in total))


def hilbert_polynomial(I: HomIdeal) -> HilbertPoly:
    """The eventual polynomial n -> dim (S/I)_n."""
    return hilbert_polynomial_from_numerator(I.hilbert_numerator(), I.ring.nvars)


def codimension(I: HomIdeal) -> int:
    """codim of V(I) in P^d, computed as d − deg(Hilbert polynomial); the
    empty subscheme (Hilbert polynomial 0, of degree −1) reports d + 1."""
    return I.ring.nvars - 1 - hilbert_polynomial(I).degree()


def dim_full_space(ring: PolyRing, n: int) -> int:
    return math.comb(n + ring.nvars - 1, ring.nvars - 1) if n >= 0 else 0


def dim_ideal_piece(I: HomIdeal, n: int) -> int:
    """dim_k I_n."""
    return dim_full_space(I.ring, n) - hilbert_function(I, n)


def degree_piece_basis(I: HomIdeal, n: int) -> list[Poly]:
    """Row-reduced canonical basis of the degree-n piece of I, with the
    degree-n monomials as columns in decreasing order: m − nf(m) for each
    such m that a leading monomial of the reduced basis divides, largest m
    first.  Every tail term is a standard monomial, so these rows are the
    unique reduced echelon form (module docstring).  The nf(m) come from
    I's one table of monomial normal forms (HomIdeal.normal_forms)."""
    return I.normal_forms().piece(n)


def monomials_of_degree(ring: PolyRing, n: int) -> list[tuple]:
    """All exponent tuples of total degree n, descending in degrevlex, with
    no sort: the larger of two has the smaller last exponent, or on a tie the
    larger rest; so the last exponent e ascends, and each e runs through the
    other exponents' descending list in degree n − e, built variable by variable."""
    if n < 0:
        return []
    heads = [[(k,)] for k in range(n + 1)]  # heads[k]: degree k in x0
    for _ in range(ring.nvars - 1):
        heads = [[h + (e,) for e in range(k + 1) for h in heads[k - e]] for k in range(n + 1)]
    return heads[n]


# ---------------------------------------------------------------------------
# monomial ideal utilities (native primary decomposition)
# ---------------------------------------------------------------------------

def is_monomial_ideal(I: HomIdeal) -> bool:
    return all(len(g.terms) == 1 for g in I.gens)


def monomial_radical(I: HomIdeal) -> HomIdeal:
    """Radical of a monomial ideal: strip exponents to 1."""
    return HomIdeal(I.ring, groebner_basis(
        [I.ring.monomial(tuple(min(e, 1) for e in g.lm())) for g in I.gens]))


def monomial_primary_decomposition(I: HomIdeal) -> list[tuple[HomIdeal, HomIdeal]]:
    """Primary decomposition of a monomial ideal.

    Returns (component, associated prime) pairs; components are irreducible
    monomial ideals merged per prime, redundant components dropped.  Splitting
    rule: a generator with two coprime factors u·v splits I into
    (I + (u)) ∩ (I + (v)).
    """
    ring = I.ring
    if not is_monomial_ideal(I):
        raise ValueError("native decomposition requires a monomial ideal")
    if I.is_zero_ideal():
        return []

    def split(monos) -> list[tuple]:
        monos = _minimalize_monos(monos)
        for m in monos:
            support = [i for i, e in enumerate(m) if e]
            if len(support) > 1:
                i = support[0]
                u = tuple(e if k == i else 0 for k, e in enumerate(m))
                v = tuple(0 if k == i else e for k, e in enumerate(m))
                rest = [n for n in monos if n != m]
                return split(rest + [u]) + split(rest + [v])
        return [tuple(monos)]

    irreducible = {tuple(sorted(c)) for c in split([g.lm() for g in I.gens])}
    # group by associated prime (the support variables)
    by_prime: dict[tuple, list] = {}
    for comp in irreducible:
        supp = tuple(sorted({i for m in comp for i, e in enumerate(m) if e}))
        by_prime.setdefault(supp, []).append(comp)
    out = []
    for supp in sorted(by_prime):
        comps = [HomIdeal(ring, [ring.monomial(m) for m in comp]) for comp in by_prime[supp]]
        merged = _fold(intersect, comps)
        prime = HomIdeal(ring, [ring.variable(i) for i in supp])
        out.append((merged, prime))
    # drop redundant components (those containing the intersection of the others)
    kept, i = out, 0
    while len(kept) > 1 and i < len(kept):
        others = kept[:i] + kept[i + 1:]
        meet = _fold(intersect, [c for c, _ in others])
        if all(kept[i][0].contains(f) for f in meet.gens):
            kept, i = others, 0
        else:
            i += 1
    return kept
