"""Exact multivariate polynomial arithmetic and homogeneous ideal operations.

The commutative kernel everything else sits on: polynomials over Q or GF(p)
in variables x0..x9, reduced Groebner bases, colon ideals, intersections,
saturation, and the Hilbert data of graded quotients.

Reduced Groebner bases come from one graded engine,
`linalg.graded_groebner`, degree by degree on the fraction-free
`linalg.Echelon`; it serves polynomial ideals here and, in the layer above
this one, graded submodules of free modules.  A polynomial's terms enter as
they are, exponent tuples; `graded_basis` is its adapter, which
`groebner_basis` calls on generators and `ideal_sum` on the normal forms
of J's generators, with I's reduced basis as a finished block.
`divide`, the heap division kernel, returns the quotients with the
remainder; it serves `normal_form`, `freemod.mod_normal_form` and
`linalg.exact_quotient`.  Membership in I, and the monic normal forms
below, are read from I's table of monomial normal forms
(`linalg.NormalForms`).

The memo.  A form g outside I reaches the sum I + (g), the section
numerator of g and the colon (I : g) only through h, its monic normal form
modulo I's reduced basis: g − c·h lies in I for some c ≠ 0, so
I + (g) = I + (h) and (I : g) = (I : h).  So each `HomIdeal` keeps, for
its own life and never process-wide, I + (h, …) per set of such h
(`ideal_sum`) and the section numerator and (I : h) per h
(`ideal_quotient`); one helper, `_reduced`, derives the distinct h of a
list of forms, and drops the forms in I (h = 0).  Forms that reduce alike
share one run: for a point with last nonzero coordinate p_j, every
hyperplane x_i with p_i ≠ 0 reduces to x_j, and for a binomial I under a
diagonal σ the generators of I^{σ^n} reduce to the same h for every n, so
the colons of the idealizer share one test.  Where the normal forms differ
with n, as for a complete intersection of two quadrics that are not
binomials, nothing is shared.

Sums.  I + J is I itself when every generator of J lies in I, and
otherwise one graded run on the h of J's generators with I's reduced
basis as a finished block.  V(K) is empty exactly when K is (1) or each
variable has a pure power among the leading monomials of K's reduced
basis (the finiteness theorem; Cox, Little & O'Shea, Ideals, Varieties,
and Algorithms, §5.3), so whether two subschemes meet is read off their
sum's basis with no Hilbert numerator (`empty_zero_set`).

Quotients.  When I's reduced basis is empty or all linear, S/I is a
polynomial ring, a domain, so (I : J) is (1) when J ⊆ I and I otherwise.
Else (I : J) is (1) when every generator of J lies in I, and otherwise
each distinct h goes once to the section rule and, when it fails, once to
the colon below.  The section rule: for a form h of degree e,
multiplication by h makes
0 → ((I : h)/I)(−e) → (S/I)(−e) → S/I → S/(I + (h)) → 0 exact, so the
Hilbert numerators N over (1 − u)^nvars satisfy
N(I + (h)) − (1 − u^e)·N(I) = u^e·N((I : h)/I) (`section_numerator`, with
I + (h) from `ideal_sum`), zero exactly when (I : h) = I, that is, when h
is a nonzerodivisor on S/I.  Once some h passes, (I : J) ⊆ (I : h) = I,
so (I : J) is I.  Otherwise (I : J) is the meet of the (I : h).  Each is
a kernel ideal read degree by degree off normal forms until its leading
monomials give a known Hilbert numerator (a Hilbert-driven stop,
`linalg.NormalForms.kernel_ideal`; Traverso, J. Symbolic Comput. 1996):
(I : h) is the kernel of x ↦ nf_I(x·h) (`NormalForms.colon`, solved on
the standard monomials of S/I with I's reduced basis as I's new rows),
with numerator N(I) − u^(−e)·s by the sequence above, s the section
numerator.  `intersect` returns the smaller ideal's reduced basis when
one contains the other, and otherwise I ∩ J, the x of I that J's table
reduces to zero (`NormalForms.meet`), with numerator N(I) + N(J) −
N(I + J) from 0 → S/(I ∩ J) → S/I ⊕ S/J → S/(I + J) → 0 (I + J by
`ideal_sum`).
Saturation: a linear I is prime, so (I : m^∞) is I, or (1) when I is m,
with no run.  Otherwise, for a homogeneous K in degrevlex,
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

Hilbert data.  S/I is read through the integer numerator N(u) of its
Hilbert series N(u)/(1 − u)^nvars, which the leading monomials of the
reduced basis give (`monomial_hilbert_numerator`); no Hilbert polynomial
is built.  Write N = (1 − u)^c·Q with Q(1) ≠ 0.  The Hilbert polynomial
then has degree nvars − 1 − c and leading coefficient Q(1)/(nvars − 1 − c)!,
so V(I) has dimension nvars − 1 − c and degree Q(1) (Bruns & Herzog,
Cohen–Macaulay Rings, §4.1), and it is zero, V(I) empty, exactly when
(1 − u)^nvars divides N.  `hilbert_dimension` reads both, dividing by
1 − u with prefix sums while N(1) = 0; it serves any numerator over
(1 − u)^nvars, a Tor module's or an Euler characteristic's (homology)
as well as S/I's (`codimension`).

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
from fractions import Fraction
from functools import reduce as _fold
from itertools import accumulate, combinations
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
    """The exponent tuples of x0, x1, ..., x(nvars−1), sliced from one
    tuple of zeros."""
    zeros = (0,) * nvars
    return tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(nvars))


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

    _TOKEN = re.compile(r"\s*(?:(x\d+|\d+/\d+|\d+|\*\*|[-+*^()])|(\S))")

    def parse(self, text: str) -> "Poly":
        """Parse the polynomial text grammar.

        Variables x0..x9, integer or rational coefficients "a" / "a/b",
        operators + - * ^ (also ** as a synonym), parentheses; whitespace
        insignificant.  Example: "x0^2 + 3/2*x0*x1 - x2^2".  A minus after
        an operator negates the atom after it, before ^; the signs that open
        a sum negate its first term.  One pass of the token pattern reads
        the text, its last group catching any character no token starts
        with.  Each term goes straight into the {exponents: scalar} dict,
        with no Poly; only a parenthesised factor is one (_product).  The
        degrees of the terms give the degree tag, unless a term cancelled
        or came from parentheses.
        """
        tokens = []
        for m in self._TOKEN.finditer(text):
            tok, bad = m.groups()
            if bad is not None:
                pos = m.start()
                raise ValueError(f"bad token at position {pos}: {text[pos:pos + 10]!r}")
            tokens.append("^" if tok == "**" else tok)
        tokens.append(None)  # the end
        terms, degs, pos = self._sum(tokens, 0)
        if tokens[pos] is not None:
            raise ValueError(f"trailing input after polynomial: {tokens[pos:-1]}")
        f = Poly(self, terms)
        if degs is not None:
            f._deg = degs.pop() if len(degs) == 1 else -1 if degs else 0
        return f

    def _sum(self, tokens: list, pos: int):
        """(terms, the set of the terms' degrees or None, position after)
        for the sum at tokens[pos]."""
        field = self.field
        add, is_zero, zero = field.add, field.is_zero, field.zero
        acc: dict = {}
        degs: set | None = set()
        neg = False
        while tokens[pos] in ("+", "-"):
            neg ^= tokens[pos] == "-"
            pos += 1
        while True:
            c, exps, poly, pos = self._product(tokens, pos)
            if neg:
                c = field.neg(c)
            if poly is None:
                items = [(tuple(exps), c)]
                if degs is not None and not is_zero(c):
                    degs.add(sum(exps))
            else:
                items = [(mono_mul(exps, m), field.mul(c, x)) for m, x in poly.terms.items()]
                degs = None
            for m, x in items:
                s = add(acc.get(m, zero), x)
                if not is_zero(s):
                    acc[m] = s
                elif acc.pop(m, None) is not None:
                    degs = None
            if tokens[pos] not in ("+", "-"):
                return acc, degs, pos
            neg = tokens[pos] == "-"
            pos += 1

    def _product(self, tokens: list, pos: int):
        """(scalar, exponent list, Poly or None, position after) for the
        product of powers at tokens[pos]: the scalar and exponents gather
        the coefficients and variables, the Poly (__mul__, __pow__) the
        parenthesised factors."""
        field = self.field
        c, exps, poly = field.one, [0] * self.nvars, None
        while True:
            neg, tok = False, tokens[pos]
            while tok == "-":
                neg, pos = not neg, pos + 1
                tok = tokens[pos]
            pos += 1
            if tok is None:
                raise ValueError("unexpected end of polynomial")
            if tok == "(":
                inner, _, pos = self._sum(tokens, pos)
                if tokens[pos] != ")":
                    raise ValueError("unbalanced parenthesis")
                pos += 1
                x = Poly(self, inner)
            elif tok[0] == "x":
                x = int(tok[1:])
                if x >= self.nvars:
                    raise ValueError(f"variable {tok} out of range for {self.nvars} variables")
            elif "/" in tok:
                num, den = tok.split("/")
                try:
                    x = field.from_fraction(Fraction(int(num), int(den)))
                except ZeroDivisionError:  # den = 0, or p | den over GF(p)
                    raise ValueError(f"coefficient {tok} is not in the field") from None
            elif tok.isdigit():
                x = field.from_int(int(tok))
            else:
                raise ValueError(f"unexpected token {tok!r}")
            k = 1
            if tokens[pos] == "^":
                e = tokens[pos + 1]
                if e is None or not e.isdigit():
                    raise ValueError("exponent must be a nonnegative integer")
                k, pos = int(e), pos + 2
            if neg and k & 1:  # (-a)^k = -(a^k) for odd k
                c = field.neg(c)
            if tok == "(":
                x = x ** k
                poly = x if poly is None else poly * x
            elif tok[0] == "x":
                exps[x] += k
            else:
                while k:  # c times x^k, by square-and-multiply
                    if k & 1:
                        c = field.mul(c, x)
                    k >>= 1
                    x = field.mul(x, x) if k else x
            tok = tokens[pos]
            if tok == "*":
                pos += 1
            elif tok is None or not (tok == "(" or tok[0] == "x" or tok[0].isdigit()):
                return c, exps, poly, pos

    def format_poly(self, f: "Poly") -> str:
        """"a*m - b*m' + c", largest monomial first, with no coefficient 1
        before a monomial."""
        if not f.terms:
            return "0"
        parts = []
        for exps in sorted(f.terms, key=mono_key, reverse=True):
            cs = self.field.to_str(f.terms[exps])
            mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)
            minus = cs.startswith("-")
            cs = cs[1:] if minus else cs
            body = mono if mono and cs == "1" else f"{cs}*{mono}" if mono else cs
            parts.append(("- " if minus else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and (self.field, self.nvars) == (other.field, other.nvars))

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"PolyRing({self.field!r}, nvars={self.nvars})"


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])  # map(max) is slower


class Poly:
    """Sparse polynomial: dict of exponent tuple -> nonzero scalar.  The
    terms are not changed after construction, so the degree, the leading
    term and the hash are computed once, on first use."""

    __slots__ = ("ring", "terms", "_deg", "_lt", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, lt=None):
        self.ring = ring
        self.terms = terms
        self._deg = -2  # unset marker (-1 means inhomogeneous, None-like)
        self._lt = lt
        self._hash = None

    # degree tag: the common degree when homogeneous, else None
    @property
    def degree(self):
        if self._deg == -2:
            degs = {sum(m) for m in self.terms} or {0}
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
        """self^n by square-and-multiply: O(log n) products and no list of
        n factors."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = self.ring.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c) -> "Poly":
        """c times self; a known leading term carries over, since scaling by
        a nonzero c keeps the leading monomial."""
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        lt = None if self._lt is None else (self._lt[0], field.mul(c, self._lt[1]))
        return Poly(self.ring, {m: field.mul(c, x) for m, x in self.terms.items()}, lt)

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
        return (max(map(sum, self.terms), default=0), tuple(sorted(
            ((mono_key(m), fkey(c)) for m, c in self.terms.items()), reverse=True)))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.terms.items()))))
        return self._hash

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
# division and Groebner bases
# ---------------------------------------------------------------------------

def divide(field, terms: dict, basis: list) -> tuple[list, dict]:
    """Full division of terms {term: coefficient} by the basis, (leading
    term, terms) pairs: the quotients, one {monomial: coefficient} dict per
    basis element, and the remainder in decreasing order, with
    terms = sum q_k * g_k + remainder and no remainder term divisible by a
    leading term.

    The one division kernel, for normal forms of polynomials and of module
    vectors, whose terms carry their component as in
    linalg.graded_groebner (a term's degree is its sum, and within one
    degree the reversed tuples order position over term), and for exact
    division (linalg.exact_quotient).  Undivided terms live in a mutable
    dict and their descending keys in a heap, where a cancelled term's key
    is skipped when popped (Monagan & Pearce, CASC 2007), so a step costs
    one divisor's size, not a copy of the remainder.  The first basis
    element whose leading term divides the leading term is used, as in
    schoolbook division.
    """
    tails: dict = {}
    quotients: list = [{} for _ in basis]
    acc = dict(terms)
    heap = [(mono_descending_key(t), t) for t in acc]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        _, t = heapq.heappop(heap)
        x = acc.pop(t, None)
        if x is None:
            continue
        for k, (lead, _) in enumerate(basis):
            if mono_divides(lead, t):
                break
        else:
            rem[t] = x
            continue
        if k not in tails:
            g = basis[k][1]
            tails[k] = g[lead], [(s, y) for s, y in g.items() if s != lead]
        lc, tail = tails[k]
        q = field.div(x, lc)
        shift = mono_div(t, lead)
        quotients[k][shift] = q
        for s, y in tail:
            key = mono_mul(s, shift)
            old = acc.get(key)
            if old is None:
                heapq.heappush(heap, (mono_descending_key(key), key))
                old = field.zero
            old = field.sub(old, field.mul(q, y))
            if field.is_zero(old):
                del acc[key]
            else:
                acc[key] = old
    return quotients, rem


def normal_form(f: Poly, basis: list[Poly]) -> Poly:
    """Remainder of f under full multivariate division by basis; divide
    returns it in decreasing order, so its first term is the leading one."""
    _, rem = divide(f.ring.field, f.terms, [(g.lm(), g.terms) for g in basis if g.terms])
    return Poly(f.ring, rem, next(iter(rem.items()), None))


def groebner_basis(gens: list[Poly]) -> list[Poly]:
    """Reduced Groebner basis under degrevlex, by decreasing leading monomial."""
    return graded_basis(gens[0].ring, [f.terms for f in gens]) if gens else []


def graded_basis(ring: PolyRing, rows, finished=()) -> list[Poly]:
    """The reduced basis, by decreasing leading monomial, of the forms
    whose terms are the dicts rows and of finished, a reduced basis that
    enters as a finished block (ideal_sum): one linalg.graded_groebner
    run."""
    from .linalg import graded_groebner  # linalg imports this module
    one = ring.field.one
    basis = graded_groebner(ring.field, ring.nvars, rows, [(g.lm(), g.terms) for g in finished])
    return [Poly(ring, terms, (lead, one))
            for lead, terms in sorted(basis, key=lambda e: mono_descending_key(e[0]))]


def reduce_basis(G: list[Poly]) -> list[Poly]:
    """The reduced basis of the ideal of a Groebner basis G."""
    return groebner_basis(G)


# ---------------------------------------------------------------------------
# homogeneous ideals
# ---------------------------------------------------------------------------

class HomIdeal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    The zero ideal is represented by an empty generator list.  Generators
    that come from outside are sorted by Poly.sort_key, so that their order
    cannot matter; an ideal derived generator by generator from another
    (from_ordered) inherits that one's order.  The only basis an ideal
    holds is the reduced one: groebner() runs groebner_basis on the gens
    once, unless the ideal was built from_basis (sums, colons,
    intersections).  The Hilbert numerator and the normal-form table are
    read off it, and membership (contains) reads the table.  It also keeps
    its sums, section numerators and colons by monic normal form (module
    docstring).
    """

    def __init__(self, ring: PolyRing, gens):
        gens = [g for g in gens if g.terms]
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
        if len(gens) > 1:
            gens.sort(key=Poly.sort_key)
        self.ring = ring
        self.gens = tuple(gens)
        self._gb = None
        self._hilbert_numerator = self._normal_forms = None

    @classmethod
    def from_strings(cls, ring: PolyRing, texts) -> "HomIdeal":
        return cls(ring, [ring.parse(t) for t in texts])

    @classmethod
    def from_ordered(cls, ring: PolyRing, gens, gb=None) -> "HomIdeal":
        """The ideal of gens, nonzero homogeneous forms already in a
        deterministic order, kept as they are with no check or sort; gb is
        its reduced basis, when known."""
        I = cls.__new__(cls)
        I.ring, I.gens, I._gb = ring, tuple(gens), gb
        I._hilbert_numerator = I._normal_forms = None
        return I

    @classmethod
    def from_basis(cls, ring: PolyRing, gb) -> "HomIdeal":
        """The ideal of a known reduced basis gb, by decreasing leading
        monomial (groebner_basis), with no checks: it is homogeneous and
        nonzero, and monic with distinct leading monomials, it sorts by them
        alone under Poly.sort_key, so gb reversed is the sorted gens."""
        return cls.from_ordered(ring, gb[::-1], tuple(gb))

    def groebner(self) -> tuple[Poly, ...]:
        if self._gb is None:
            self._gb = tuple(groebner_basis(list(self.gens)))
        return self._gb

    def hilbert_numerator(self) -> dict[int, int]:
        """N(u) of the Hilbert series N(u)/(1−u)^nvars of S/I, built once."""
        if self._hilbert_numerator is None:
            self._hilbert_numerator = monomial_hilbert_numerator([g.lm() for g in self.groebner()])
        return self._hilbert_numerator

    def normal_forms(self):
        """The linalg.NormalForms table of the reduced basis, built once,
        and with it the memo keyed by its monic normal forms (module
        docstring), so an ideal that builds no table holds no memo."""
        if self._normal_forms is None:
            from .linalg import NormalForms  # linalg imports this module
            self._normal_forms = NormalForms(self.ring, list(self.groebner()))
            # set of monic normal forms -> I + (those forms); monic normal
            # form h -> its section numerator, and -> (I : h)
            self._sums, self._sections, self._colons = {}, {}, {}
        return self._normal_forms

    def contains(self, f: Poly) -> bool:
        """Whether the form f lies in I: its normal form from I's table
        (linalg.NormalForms.residue) is zero."""
        return not self.normal_forms().residue(f)

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


def _reduced(I: HomIdeal, gens) -> dict[Poly, None]:
    """The distinct monic normal forms modulo I of the forms gens outside I,
    in order, as dict keys: the keys of I's memo, read from I's table,
    which brings the memo with it (HomIdeal.normal_forms)."""
    return dict.fromkeys(filter(None, map(I.normal_forms().remainder, gens)))


def ideal_sum(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """I + J: I itself when J lies in I, else the ideal of the reduced basis
    of one linalg.graded_groebner run on the monic normal forms h of J's
    generators outside I, with I's reduced basis as a finished block: no
    pairs among it, and each of its elements a row of its degree's
    echelon.  I keeps the sum per set of h (module docstring)."""
    hs = _reduced(I, J.gens)
    if not hs:
        return I
    key = frozenset(hs)
    K = I._sums.get(key)
    if K is None:
        basis = graded_basis(I.ring, [h.terms for h in hs], I.groebner())
        K = I._sums[key] = HomIdeal.from_basis(I.ring, basis)
    return K


def unit_ideal(ring: PolyRing) -> HomIdeal:
    return HomIdeal(ring, [ring.one()])


def intersect(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """I ∩ J: the smaller ideal's reduced basis when one contains the other
    (normal forms against the cached bases), else the forms that both
    tables reduce to zero, stopped by N(I) + N(J) − N(I + J) (module
    docstring)."""
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return HomIdeal(ring, [])
    for small, big in ((I, J), (J, I)):
        if all(big.contains(f) for f in small.gens):
            return HomIdeal.from_basis(ring, small.groebner())
    target = numerator_add(numerator_add(I.hilbert_numerator(), J.hilbert_numerator()),
                           ideal_sum(I, J).hilbert_numerator(), -1)
    return I.normal_forms().meet(J.normal_forms(), target)


def _section(I: HomIdeal, g: Poly) -> dict[int, int]:
    """g's section numerator on S/I (section_numerator), zero exactly when
    g is a nonzerodivisor, on the sum I + (g) that I keeps (ideal_sum)."""
    return section_numerator(I, ideal_sum(I, HomIdeal(I.ring, [g])), g.degree)


def ideal_quotient(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """(I : J) = {f : f·J ⊆ I}.  When I's reduced basis is empty or all
    linear, S/I is a domain: (I : J) is (1) when J ⊆ I and I otherwise, and
    the first generator of J outside I decides.  Else I at the first zero
    section, or the meet of the Hilbert-driven (I : h), over the monic
    normal forms h of J's generators outside I; I keeps each section and
    colon per h (module docstring)."""
    ring, basis = I.ring, I.groebner()
    if all(f.degree == 1 for f in basis):  # S/I is a domain
        inside = all(map(I.contains, J.gens))  # stops at the first g outside I
        return unit_ideal(ring) if inside else HomIdeal.from_basis(ring, basis)
    hs = _reduced(I, J.gens)
    if not hs:
        return unit_ideal(ring)
    nf, sections, colons = I.normal_forms(), I._sections, I._colons
    for h in hs:  # one lookup of h per table: a Poly hashes its terms
        s = sections.get(h)
        if s is None:
            s = sections[h] = _section(I, h)
        if not s:
            return HomIdeal.from_basis(ring, basis)
    quotients = []
    for h in hs:
        Q = colons.get(h)
        if Q is None:
            target = numerator_add(I.hilbert_numerator(), sections[h], -1, -h.degree)
            Q = colons[h] = nf.colon(h, target)
        quotients.append(Q)
    return _fold(intersect, quotients)


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
    """(I : m^∞) for the irrelevant ideal m = (x0..xd).  When I's reduced
    basis is empty or all linear, I is prime (S/I is a polynomial ring), so
    it is its own saturation unless it is m, whose saturation is (1).  Else
    I itself at once when x_last divides no leading monomial of I's reduced
    basis, since x_last is then a nonzerodivisor on S/I (Bayer & Stillman;
    module docstring).  Otherwise one pass: the intersection of the
    (I : x_i^∞), and I itself when that lies in I, so a saturated ideal
    keeps its generators."""
    basis = I.groebner()
    if all(g.degree == 1 for g in basis):  # a linear subspace: I is prime
        return unit_ideal(I.ring) if len(basis) == I.ring.nvars else I
    if not any(g.lm()[-1] for g in basis):  # x_last is a nonzerodivisor
        return I
    sat = _fold(intersect, [_saturate_variable(I, i) for i in range(I.ring.nvars)])
    return I if all(map(I.contains, sat.gens)) else sat


# ---------------------------------------------------------------------------
# Hilbert machinery
# ---------------------------------------------------------------------------

def _minimalize_monos(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
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
    if any(sum(m) == 0 for m in monos):
        return {}
    # base: pairwise coprime generators (includes pure powers)
    if all(not any(map(min, a, b)) for a, b in combinations(monos, 2)):
        acc = {0: 1}
        for m in monos:
            acc = numerator_mul(acc, {0: 1, sum(m): -1})
        return acc
    # split on the last (largest) generator; the recursion minimalizes the colon
    m, rest = monos[-1], monos[:-1]
    colon = [tuple(max(e - f, 0) for e, f in zip(n, m)) for n in rest]
    return numerator_add(monomial_hilbert_numerator(rest),
                         monomial_hilbert_numerator(colon), -1, sum(m))


def empty_zero_set(K: HomIdeal) -> bool:
    """Whether V(K) in P^d is empty, that is, S/K has finite length and the
    zero Hilbert polynomial: exactly when K is (1) or every variable has a
    pure power among the leading monomials of K's reduced basis (the
    finiteness theorem; Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, §5.3, applied to the affine cone)."""
    pure = set()
    for g in K.groebner():
        support = [i for i, e in enumerate(g.lm()) if e]
        if not support:
            return True
        if len(support) == 1:
            pure.add(support[0])
    return len(pure) == K.ring.nvars


def series_coefficient(num: dict[int, int], nvars: int, n: int) -> int:
    """The u^n coefficient of the Hilbert series N(u)/(1−u)^nvars."""
    return sum(c * math.comb(n - a + nvars - 1, nvars - 1) for a, c in num.items() if n >= a)


def hilbert_function(I: HomIdeal, n: int) -> int:
    """dim_k (S/I)_n."""
    return series_coefficient(I.hilbert_numerator(), I.ring.nvars, n)


def hilbert_dimension(num: dict[int, int], nvars: int) -> tuple[int, int]:
    """(dim, deg) of the Hilbert polynomial of the series num/(1 − u)^nvars
    (module docstring, "Hilbert data"): num = (1 − u)^c·Q with Q(1) ≠ 0
    gives (nvars − 1 − c, Q(1)), and c ≥ nvars, the zero polynomial, gives
    (−1, 0).  Each division by 1 − u takes prefix sums."""
    coeffs = [num.get(a, 0) for a in range(min(num, default=0), max(num, default=0) + 1)]
    for c in range(nvars):
        if value := sum(coeffs):
            return nvars - 1 - c, value
        coeffs = list(accumulate(coeffs))
    return -1, 0


def codimension(I: HomIdeal) -> int:
    """codim of V(I) in P^d, d − dim V(I): the c of N(S/I) = (1 − u)^c·Q,
    Q(1) ≠ 0 (hilbert_dimension), and d + 1 for the empty subscheme, of
    dimension −1."""
    return I.ring.nvars - 1 - hilbert_dimension(I.hilbert_numerator(), I.ring.nvars)[0]


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


def monomial_meet(a, b) -> list[tuple]:
    """The minimal generators of (a) ∩ (b) for two lists of monomials: the
    minimal lcms of one monomial from each."""
    return _minimalize_monos(mono_lcm(m, n) for m in a for n in b)


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
    kept = [(_fold(monomial_meet, by_prime[supp]), supp) for supp in sorted(by_prime)]
    # drop redundant components (those containing the intersection of the others)
    i = 0
    while len(kept) > 1 and i < len(kept):
        others = kept[:i] + kept[i + 1:]
        meet = _fold(monomial_meet, [c for c, _ in others])
        if all(any(mono_divides(g, m) for g in kept[i][0]) for m in meet):
            kept, i = others, 0
        else:
            i += 1
    return [(HomIdeal(ring, [ring.monomial(m) for m in comp]),
             HomIdeal(ring, [ring.variable(i) for i in supp])) for comp, supp in kept]
