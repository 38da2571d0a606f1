"""Independent brute-force reference implementations used by the test suite.

Everything here deliberately avoids the library's algorithms: division and
Buchberger are reimplemented naively (all S-pairs, no elimination criteria),
membership / Hilbert counts go through bare linear algebra on degree pieces.
Derived constants frozen into tests were produced by these.  The
exceptions replay a former library loop over the library's own kernels:
greedy_minimal_generators (minimal generators, one fresh module Groebner
basis per accepted vector), stepwise_resolution (a resolution over a
quotient, one preimage per map), transverse_from_resolution (every
Tor_j sheaf from a resolution, before transversality read Tor_1 alone),
rref_oracle_piece (the idealizer oracle's conditions in monomial order,
then a separate rref),
monomial_annihilator (the annihilator solved over every degree-n
monomial, before it read I_n off I's table),
token_parse (the former tokenizer, which matches one token at a time,
feeding the recursive descent the library parsed with before it read
each term straight into a term dict)
and loop_saturate (the former saturation: every (I : x_i^∞), intersected,
with no exit for a linear I); antichains is the level-by-level enumeration
of the unions of coordinate subspaces that ct-cert walked before it checked
single subspaces, kept as the fast reference beside brute_coordinate_unions;
argparse_argv reads a command line with the
argparse parser the CLI used before it read argv by hand.
HilbertPoly and hilbert_polynomial_from_numerator build the whole Hilbert
polynomial of a numerator with Fraction coefficients, as the library did
before it read dimension and degree off the numerator alone.
leibniz_det_adjugate works over any commutative ring whose elements have
+, - and *, the library's polynomials among them; dense_power and
dense_pullback form M^n as n dense products and expand f o M^n with the
library polynomials' + and *, not with its substitution tables.
"""

import re
from functools import lru_cache, reduce
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial
from typing import NamedTuple


# -- tiny standalone linear algebra (Fraction or GF(p) ints) ----------------

def _inv(field, a):
    if field == 0:
        return 1 / a if isinstance(a, Fraction) else Fraction(1, 1) / a
    return pow(a, field - 2, field)


def rref_rank(rows, char=0):
    """Row-reduce in place over Q (char 0) or GF(char); return (rows, rank)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = _inv(char, rows[rank][col])
        if char:
            rows[rank] = [(v * inv) % char for v in rows[rank]]
        else:
            rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                if char:
                    rows[r] = [(a - factor * b) % char for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rows, rank


def gauss_jordan(rows, ncols, char=0):
    """(reduced rows, pivot columns, kernel) of a dense matrix by plain
    Gauss-Jordan elimination on Fractions (char 0) or residues mod char.
    The kernel of {v : A v = 0} has one vector per free column, in
    increasing order, with 1 there, 0 at the other free columns and minus
    the reduced rows' entries in that column at the pivots."""
    reduced, rank = rref_rank(rows, char)
    reduced = reduced[:rank]
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in reduced]
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, p in zip(reduced, pivots):
            v[p] = -row[free] % char if char else -row[free]
        kernel.append(v)
    return reduced, pivots, kernel


def in_span(rows, vec, char=0):
    _, r0 = rref_rank(rows, char)
    _, r1 = rref_rank(list(rows) + [vec], char)
    return r0 == r1


# -- monomial bookkeeping ----------------------------------------------------

def monomials(nvars, deg):
    if deg < 0:
        return []
    if nvars == 1:
        return [(deg,)]
    out = []
    for e in range(deg + 1):
        out.extend((e,) + rest for rest in monomials(nvars - 1, deg - e))
    return sorted(out)


def sorted_monomials_of_degree(nvars, deg):
    """The degree-deg exponent tuples as the library once listed them: each
    multiset of deg variables counted out, then sorted descending in
    degrevlex (_drl_key)."""
    if deg < 0:
        return []
    monos = [tuple(c.count(i) for i in range(nvars))
             for c in combinations_with_replacement(range(nvars), deg)]
    return sorted(monos, key=_drl_key, reverse=True)


def poly_to_vec(terms, nvars, deg):
    basis = monomials(nvars, deg)
    idx = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in terms.items():
        vec[idx[m]] = c
    return vec


def degree_piece_rows(gens_terms, nvars, deg, char=0):
    """Spanning rows for the degree-deg piece of the ideal (gens as term dicts)."""
    rows = []
    for terms in gens_terms:
        gdeg = max(sum(m) for m in terms)
        if gdeg > deg:
            continue
        for mu in monomials(nvars, deg - gdeg):
            prod = {}
            for m, c in terms.items():
                mm = tuple(a + b for a, b in zip(m, mu))
                prod[mm] = prod.get(mm, 0) + c
            if char:
                prod = {m: c % char for m, c in prod.items()}
            rows.append(poly_to_vec(prod, nvars, deg))
    return rows


def brute_membership(gens_terms, f_terms, nvars, char=0):
    """Degree-piece membership for a homogeneous f (dict of terms)."""
    deg = max(sum(m) for m in f_terms)
    rows = degree_piece_rows(gens_terms, nvars, deg, char)
    return in_span(rows, poly_to_vec(f_terms, nvars, deg), char)


def brute_hilbert_function(gens_terms, nvars, deg, char=0):
    """dim (S/I)_deg by counting: total monomials minus rank of the piece."""
    total = comb(deg + nvars - 1, nvars - 1) if deg >= 0 else 0
    rows = degree_piece_rows(gens_terms, nvars, deg, char)
    _, rank = rref_rank(rows, char)
    return total - rank


def brute_submodule_dim(vecs, degrees, nvars, deg, char=0):
    """dim of the degree-deg piece of the submodule of the graded free module
    with generator degrees `degrees` generated by homogeneous vecs (each a
    dict component -> term dict): rank of all degree-deg monomial multiples,
    written on the basis of pairs (component, monomial)."""
    cols = {(i, m): k for k, (i, m) in enumerate(
        (i, m) for i, a in enumerate(degrees) for m in monomials(nvars, deg - a))}
    rows = []
    for v in vecs:
        i, terms = next(iter(v.items()))
        vdeg = sum(next(iter(terms))) + degrees[i]
        for mu in monomials(nvars, deg - vdeg):
            row = [0] * len(cols)
            for i, terms in v.items():
                for m, c in terms.items():
                    row[cols[i, tuple(a + b for a, b in zip(m, mu))]] = c
            rows.append(row)
    return rref_rank(rows, char)[1]


def brute_colon_piece_dim(i_gens, g_terms, nvars, deg, char=0):
    """dim {h in S_deg : h * g in I} by solving the linear condition directly."""
    gdeg = max(sum(m) for m in g_terms)
    hi = monomials(nvars, deg)
    target = monomials(nvars, deg + gdeg)
    tidx = {m: i for i, m in enumerate(target)}
    ideal_rows = degree_piece_rows(i_gens, nvars, deg + gdeg, char)
    reduced, rank = rref_rank(ideal_rows, char)
    pivots = []
    for row in reduced[:rank]:
        for i, v in enumerate(row):
            if v != 0:
                pivots.append(i)
                break
    # project h*g to the complement of the ideal piece, then take the kernel rank
    rows = []
    for m in hi:
        prod = {}
        for gm, gc in g_terms.items():
            mm = tuple(a + b for a, b in zip(m, gm))
            prod[mm] = prod.get(mm, 0) + gc
        vec = [0] * len(target)
        for mm, c in prod.items():
            vec[tidx[mm]] = c % char if char else c
        # reduce against the ideal piece
        for prow, pcol in zip(reduced[:rank], pivots):
            if vec[pcol] != 0:
                f = vec[pcol]
                if char:
                    vec = [(a - f * b) % char for a, b in zip(vec, prow)]
                else:
                    vec = [a - f * b for a, b in zip(vec, prow)]
        rows.append(vec)
    # h is in the colon piece iff its row reduced to zero modulo the ideal,
    # i.e. kernel of the residual map
    _, r = rref_rank(rows, char)
    return len(hi) - r


# -- naive Buchberger (no criteria, FIFO pairs, own division) ----------------

def _lt(terms, keyf):
    m = max(terms, key=keyf)
    return m, terms[m]


@lru_cache(maxsize=None)
def _drl_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


@lru_cache(maxsize=None)
def elim_key(m):
    """Elimination order for a trailing auxiliary variable t: the power of t
    first, then degrevlex on the rest.  A Groebner basis under it meets the
    t-free polynomials in a Groebner basis of the elimination ideal."""
    return (m[-1], _drl_key(m[:-1]))


def _sub_scaled(a, b, coeff, shift, char):
    out = dict(a)
    for m, c in b.items():
        mm = tuple(x + y for x, y in zip(m, shift))
        v = out.get(mm, 0) - coeff * c
        if char:
            v %= char
        if v == 0:
            out.pop(mm, None)
        else:
            out[mm] = v
    return out


def naive_normal_form(f, basis, char=0, key=_drl_key):
    p = dict(f)
    rem = {}
    while p:
        m, c = _lt(p, key)
        done = False
        for g in basis:
            gm, gc = _lt(g, key)
            if all(a <= b for a, b in zip(gm, m)):
                shift = tuple(b - a for a, b in zip(gm, m))
                coeff = c * _inv(char, gc)
                if char:
                    coeff %= char
                p = _sub_scaled(p, g, coeff, shift, char)
                done = True
                break
        if not done:
            rem[m] = c
            del p[m]
    return rem


def naive_groebner(gens, char=0, key=_drl_key):
    """All-pairs Buchberger with FIFO selection under the monomial order
    key; returns the reduced basis as a set of frozensets of (monomial,
    coefficient) pairs (order-free)."""
    G = [dict(g) for g in gens if g]

    def monic(t):
        _, c = _lt(t, key)
        inv = _inv(char, c)
        if char:
            return {m: (v * inv) % char for m, v in t.items()}
        return {m: v * inv for m, v in t.items()}

    G = [monic(g) for g in G]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        fm, _ = _lt(G[i], key)
        gm, _ = _lt(G[j], key)
        lcm = tuple(max(a, b) for a, b in zip(fm, gm))
        s = _sub_scaled(
            _mul_mono(G[i], tuple(l - a for l, a in zip(lcm, fm)), char),
            G[j],
            1,
            tuple(l - b for l, b in zip(lcm, gm)),
            char,
        )
        r = naive_normal_form(s, G, char, key)
        if r:
            G.append(monic(r))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    # reduce: minimal, tail-reduced, monic
    minimal = []
    for idx, g in enumerate(G):
        gm = _lt(g, key)[0]
        dominated = False
        for k, h in enumerate(G):
            if k == idx:
                continue
            hm = _lt(h, key)[0]
            if all(a <= b for a, b in zip(hm, gm)) and (hm != gm or k < idx):
                dominated = True
                break
        if not dominated:
            minimal.append(g)
    final = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = naive_normal_form(g, others, char, key)
        if r:
            final.append(monic(r))
    return {frozenset(t.items()) for t in final}


def _mul_mono(terms, shift, char):
    out = {tuple(a + b for a, b in zip(m, shift)): c for m, c in terms.items()}
    return out


def elim_meet(I, J):
    """Reduced basis of the ideal intersection I ∩ J by eliminating t from
    t·I + (1−t)·J, with naive_groebner under elim_key, as library
    polynomials sorted by decreasing leading monomial."""
    from geomideal.polykernel import Poly, mono_key

    field = I.ring.field
    gens = ([{m + (1,): c for m, c in f.terms.items()} for f in I.gens]
            + [{**{m + (0,): c for m, c in g.terms.items()},
                **{m + (1,): field.neg(c) for m, c in g.terms.items()}} for g in J.gens])
    basis = naive_groebner(gens, field.char, key=elim_key)
    meet = [Poly(I.ring, {m[:-1]: c for m, c in f}) for f in basis
            if all(m[-1] == 0 for m, _ in f)]
    return sorted(meet, key=lambda f: mono_key(f.lm()), reverse=True)


# -- minimal generators, one fresh module Groebner basis per accepted vector -

def greedy_minimal_generators(vecs, modulo=()):
    """The greedy minimal generating set, as freemod.minimal_generators
    computed it before its Buchberger run stayed open: ascending sort_key
    order, and a from-scratch module_groebner of modulo plus the accepted
    vectors after each acceptance.  It reuses the library's module Groebner
    basis, so it checks the open run's bookkeeping, not the module engine."""
    from geomideal.freemod import MVec, mod_normal_form, module_groebner

    modulo = list(modulo)
    accepted = []
    gb = module_groebner(modulo) if modulo else []
    for v in sorted((v for v in vecs if not v.is_zero()), key=MVec.sort_key):
        if gb and mod_normal_form(v, gb).is_zero():
            continue
        accepted.append(v.monic())
        gb = module_groebner(modulo + accepted)
    return accepted


# -- a resolution over a quotient, one preimage run per map ------------------

def stepwise_resolution(I, length, *, modulo):
    """free_resolution(I, length, modulo=modulo) step by step: every map is
    the minimal generators, modulo Q times the source, of the preimage of Q
    times the target, with no periodic tail over a hypersurface."""
    from geomideal.freemod import FreeModule, MVec, minimal_generators, preimage_generators
    from geomideal.homology import FreeResolution, GradedMap

    def q_times(module):
        return [MVec(module, {k: g}) for g in modulo.gens for k in range(module.rank)]

    modules = [FreeModule(I.ring, (0,))]
    maps = []
    cols = minimal_generators([MVec(modules[0], {0: g}) for g in I.gens],
                              q_times(modules[0]))
    while cols and len(maps) < length:
        src = FreeModule(I.ring, tuple(v.degree for v in cols))
        maps.append(GradedMap(src, modules[-1], tuple(cols)))
        modules.append(src)
        if len(maps) == length:
            break
        kernel = preimage_generators(cols, q_times(modules[-2]))
        cols = minimal_generators(kernel, q_times(src))
    return FreeResolution(I, tuple(modules), tuple(maps))


# -- Tor as a subquotient of the resolution step -----------------------------

def subquotient_tor_numerator(res, J, j):
    """Hilbert series numerator of Tor_j(S/I, S/J) over (1 - u)^nvars from
    the resolution res of S/I, as the subquotient K'/B' of F_j:
    K' = {v in F_j : d_j(v) in J*F_(j-1)} (all of F_0 for j = 0) from
    freemod.preimage_generators, B' = im d_(j+1) + J*F_j (J*F_j past the
    last map) from module_groebner, and the numerator of K' minus that of
    B'; 0 past the resolution.  It replays the library's module kernels, so
    it checks the cokernel identity, not the module engine."""
    from geomideal.freemod import (
        MVec,
        module_groebner,
        preimage_generators,
        submodule_hilbert_numerator,
    )

    def j_times(module):
        return [MVec(module, {k: g}) for g in J.gens for k in range(module.rank)]

    if j > res.length:
        return {}
    Fj = res.modules[j]
    if j == 0:
        cycles = [MVec(Fj, {k: Fj.ring.one()}) for k in range(Fj.rank)]
    else:
        cycles = preimage_generators(list(res.maps[j - 1].columns), j_times(res.modules[j - 1]))
    bounds = list(res.maps[j].columns) if j < res.length else []
    num = submodule_hilbert_numerator(cycles, Fj)
    for a, x in submodule_hilbert_numerator(module_groebner(bounds + j_times(Fj)), Fj).items():
        num[a] = num.get(a, 0) - x
    return {a: x for a, x in num.items() if x}


def transverse_from_resolution(res, J):
    """homologically_transverse(res.ideal, J) from the resolution res of
    S/I, as the library decided it before it read Tor_1 alone: (False, j)
    at the least j = 1..nvars whose Tor_j sheaf is nonzero, read from
    tor_from_resolution, else (True, None)."""
    from geomideal.homology import tor_from_resolution

    for j in range(1, res.ideal.ring.nvars + 1):
        if not tor_from_resolution(res, J, j).is_sheaf_trivial():
            return False, j
    return True, None


# -- the Hilbert polynomial with rational coefficients ------------------------

class HilbertPoly(NamedTuple):
    """Polynomial in n with exact rational coefficients (index = power of n)."""

    coeffs: tuple

    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __call__(self, n):
        return reduce(lambda acc, c: acc * n + c, reversed(self.coeffs), Fraction(0))

    def constant_value(self):
        """The value when the polynomial is constant (degree <= 0)."""
        if self.degree() > 0:
            raise ValueError("Hilbert polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)


def hilbert_polynomial_from_numerator(num, nvars):
    """The Hilbert polynomial of the series num/(1 - u)^nvars, as the library
    built it before it read dimension and degree off the numerator:
    sum c_a*C(n - a + nvars - 1, nvars - 1) over the terms c_a*u^a of num,
    the u^n coefficient for every n >= deg num.  With r = nvars - 1,
    r!*C(n - a + r, r) = (n - a + 1)...(n - a + r) has integer coefficients,
    so the sum is taken over Z and divided by r! once."""
    r = nvars - 1
    total = [0] * (r + 1)
    for a, c in num.items():
        term = [c]
        for i in range(1, r + 1):  # times (n + i - a)
            term = [x * (i - a) + y for x, y in zip(term + [0], [0] + term)]
        total = [x + y for x, y in zip(total, term)]
    while total and total[-1] == 0:
        total.pop()
    return HilbertPoly(tuple(Fraction(x, factorial(r)) for x in total))


# -- the idealizer oracle with the conditions in monomial order ---------------

def rref_oracle_piece(scene, n, forms):
    """Row-reduced basis of {x in B_n : x . (b o sigma^n) in I for b in
    forms}, as exhaustive_oracle_piece computed it before its columns were
    reversed: one condition row per (form, monomial of a residue), columns
    in monomial order, then linalg.rref of the echelon's kernel."""
    from geomideal import linalg
    from geomideal.polykernel import Poly, monomials_of_degree

    ring = scene.ring
    field = ring.field
    monos = monomials_of_degree(ring, n)
    nf = linalg.NormalForms(ring, list(scene.ideal.groebner()))
    conditions = linalg.Echelon(field, len(monos))

    def terms(terms, shift=None):
        (nums, den), = nf.shifted(terms, [shift or (0,) * ring.nvars])
        return {t: field.div(x, den) for t, x in nums.items() if not field.is_zero(x)}

    for b in forms:
        reduced = terms(scene.sigma.pullback(b, n).terms)
        residues = [terms(reduced, mu) for mu in monos]
        for t in {t for r in residues for t in r}:
            conditions.insert({j: r[t] for j, r in enumerate(residues) if t in r})
    kernel = [[v.get(i, field.zero) for i in range(len(monos))]
              for v in conditions.sparse_kernel()]
    rows, _ = linalg.rref(field, kernel)
    return [Poly(ring, {monos[i]: c for i, c in enumerate(v) if not field.is_zero(c)})
            for v in rows]


# -- the annihilator solved over every monomial of its degree ----------------

def monomial_annihilator(table, conditions, n):
    """The reduced echelon basis of {x in S_n : nf_T(x . f) = 0 for every
    condition (T, f)}, as linalg.NormalForms.annihilator solved it before
    it split the conditions by table: one echelon whose columns are all the
    degree-n monomials, reversed, with one row per (condition, monomial of
    a residue); read back last kernel vector first, the kernel is the
    reduced echelon form.  Conditions with a zero or proportional normal
    form on the same table are skipped."""
    from math import lcm as _lcm

    from geomideal import linalg
    from geomideal.polykernel import Poly

    ring = table.ring
    field = ring.field
    monos = table.monomials(n)
    last = len(monos) - 1
    echelon = linalg.Echelon(field, len(monos))
    seen = set()
    for other, form in conditions:
        nums = other.residue(form)
        if not nums:
            continue
        nums, _ = field.reduce_row(nums, nums[max(nums)])
        key = (other, frozenset(nums.items()))
        if key in seen:
            continue
        seen.add(key)
        residues = other.shifted(nums, reversed(monos))
        common = _lcm(*[d for _, d in residues])
        rows = {}
        for col, (nums, d) in enumerate(residues):
            for t, x in nums.items():
                if x:
                    rows.setdefault(t, {})[col] = common // d * x
        for row in rows.values():
            echelon.insert(row)
    out = []
    for v in reversed(echelon.sparse_kernel()):
        terms = {monos[last - c]: v[c] for c in sorted(v, reverse=True)}
        out.append(Poly(ring, terms, next(iter(terms.items()))))
    return out


# -- determinant and adjugate by the Leibniz formula -------------------------

def leibniz_det_adjugate(rows, zero, one):
    """(det D, adj D) of a square matrix D over a commutative ring: det D is
    the sum over permutations s of sign(s) * D[0][s(0)] * ... , and
    adj D[i][j] = (-1)^(i+j) times the determinant of D without row j and
    column i.  r! terms per determinant, so small matrices only."""
    def det(m):
        total = zero
        for perm in permutations(range(len(m))):
            term = one
            for i, j in enumerate(perm):
                term = term * m[i][j]
            odd = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:]) % 2
            total = total - term if odd else total + term
        return total

    r = len(rows)
    adj = []
    for i in range(r):
        adj.append([])
        for j in range(r):
            minor = det([[rows[a][b] for b in range(r) if b != i]
                         for a in range(r) if a != j])
            adj[i].append(zero - minor if (i + j) % 2 else minor)
    return det(rows), adj


# -- powers of a matrix and the pullback by them ------------------------------

def dense_mul(field, A, B):
    """A·B with every product formed, zero or not, in the library field's
    arithmetic."""
    n = len(A)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = field.add(out[i][j], field.mul(A[i][k], B[k][j]))
    return tuple(map(tuple, out))


def dense_power(field, M, n):
    """M^n for n >= 0 as n dense products, starting from the identity."""
    power = tuple(tuple(field.one if i == j else field.zero for j in range(len(M)))
                  for i in range(len(M)))
    for _ in range(n):
        power = dense_mul(field, power, M)
    return power


def dense_pullback(f, M, n):
    """f o M^n for a library polynomial f: each x_i replaced by the linear
    form of row i of M^n, every monomial expanded as a product of those
    forms."""
    ring = f.ring
    images = [sum((ring.variable(j).scale(c) for j, c in enumerate(row)), ring.zero())
              for row in dense_power(ring.field, M, n)]
    out = ring.zero()
    for mono, c in f.terms.items():
        term = ring.constant(c)
        for image, e in zip(images, mono):
            term = term * image ** e
        out = out + term
    return out


# -- forward orbits on normalized points -------------------------------------

def _normalized(vec, char):
    """vec scaled to first nonzero entry 1, over Q (Fractions) or GF(char)."""
    vec = [v % char if char else Fraction(v) for v in vec]
    inv = _inv(char, next(v for v in vec if v != 0))
    return tuple(v * inv % char if char else v * inv for v in vec)


def _evaluate(terms, point, char):
    total = 0
    for mono, c in terms.items():
        for x, e in zip(point, mono):
            c = c * x ** e
        total += c
    return total % char if char else total


def _dominant_bound(terms, lams, point, parity):
    """Least n >= 0 with |C_top| * top^n > sum |C_r| * r^n, where the
    evaluation along the orbit of the diagonal matrix diag(lams) is
    sum C_b * b^n, grouped by |b| with sign(b)^parity; None when it is 0."""
    by_base = {}
    for mono, c in terms.items():
        val, base = Fraction(c), Fraction(1)
        for x, lam, e in zip(point, lams, mono):
            val, base = val * x ** e, base * lam ** e
        by_base[base] = by_base.get(base, 0) + val
    by_abs = {}
    for b, v in by_base.items():
        by_abs[abs(b)] = by_abs.get(abs(b), 0) + (-v if b < 0 and parity else v)
    by_abs = {r: v for r, v in by_abs.items() if v != 0}
    if not by_abs:
        return None
    top = max(by_abs)
    n = 0
    while abs(by_abs[top]) * top ** n <= sum(abs(v) * r ** n for r, v in by_abs.items()
                                             if r != top):
        n += 1
    return n


def _unipotent_bound(terms, U, point):
    """Cauchy bound int(1 + max |a_i / a_top|) + 1 on the integer roots of
    q(n) = g(U^n p), U unipotent; q is interpolated from its values at
    n = 0..D by forward differences, D = deg(g) * (nvars - 1) >= deg q.
    None when q is 0."""
    nv = len(U)
    D = max(sum(m) for m in terms) * (nv - 1)
    values, w = [], list(point)
    for _ in range(D + 1):
        values.append(_evaluate(terms, w, 0))
        w = [sum(a * b for a, b in zip(row, w)) for row in U]
    coeffs = [Fraction(0)] * (D + 1)
    binom = [Fraction(1)]  # C(n, k) as coefficients of 1, n, n^2, ...
    for k in range(D + 1):
        diff = sum((-1) ** (k - j) * comb(k, j) * values[j] for j in range(k + 1))
        for i, b in enumerate(binom):
            coeffs[i] += diff * b
        binom = [(binom[i - 1] if i else 0) - k * (binom[i] if i < len(binom) else 0)
                 for i in range(len(binom) + 1)]
        binom = [b / (k + 1) for b in binom]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return None
    lower = max((abs(a / coeffs[-1]) for a in coeffs[:-1]), default=0)
    return int(1 + lower) + 1


def _class_bounds(matrix, point, gens_terms):
    """Per generator, a bound per residue class of n (two for diagonal
    matrices, one for c times a unipotent matrix), or None for any other."""
    nv = len(matrix)
    if all(matrix[i][j] == 0 for i in range(nv) for j in range(nv) if i != j):
        lams = [matrix[i][i] for i in range(nv)]
        return [[_dominant_bound(t, lams, point, parity) for parity in (0, 1)]
                for t in gens_terms]
    c = sum(matrix[i][i] for i in range(nv)) / Fraction(nv)
    if c == 0:
        return None
    U = [[a / c for a in row] for row in matrix]
    N = [[U[i][j] - (i == j) for j in range(nv)] for i in range(nv)]
    power = N
    for _ in range(nv - 1):
        power = [[sum(power[i][k] * N[k][j] for k in range(nv)) for j in range(nv)]
                 for i in range(nv)]
    if any(x != 0 for row in power for x in row):
        return None
    return [[_unipotent_bound(t, U, point)] for t in gens_terms]


def brute_orbit(matrix, point, gens_terms, horizon, char=0, cap=1000):
    """(hits, period, first_hit, n0, verdict) of the forward orbit of point
    under matrix against the forms gens_terms ({exponents: coefficient}),
    walked on normalized tuples: periodic when the orbit returns to point
    within the scan (horizon over Q, max(horizon, cap) over GF(char));
    otherwise, over Q, certified by the class bounds when matrix is
    diagonal or unipotent up to a scalar."""
    mat = [[x % char if char else Fraction(x) for x in row] for row in matrix]
    p = _normalized(point, char)

    def step(q):
        return _normalized([sum(a * b for a, b in zip(row, q)) for row in mat], char)

    def hit(q):
        return all(_evaluate(t, q, char) == 0 for t in gens_terms)

    orbit = [p]
    while len(orbit) <= (max(horizon, cap) if char else horizon):
        q = step(orbit[-1])
        if q == p:
            period = len(orbit)
            cycle = [n for n, q in enumerate(orbit) if hit(q)]
            if not cycle:
                return (), period, None, period, "certified-finite"
            hits = tuple(n for n in range(horizon + 1) if n % period in cycle)
            return hits, period, None if hits else cycle[0], None, "infinite"
        orbit.append(q)
    hits = tuple(n for n in range(horizon + 1) if hit(orbit[n]))
    bounds = None if char else _class_bounds(mat, p, gens_terms)
    if bounds is None:
        verdict = "inconclusive" if hits and hits[-1] >= horizon - 1 else "finite-within-horizon"
        return hits, None, None, None, verdict
    classes = [min((b for b in col if b is not None), default=None) for col in zip(*bounds)]
    if all(b is None for b in classes):
        return tuple(range(horizon + 1)), None, None, None, "infinite"
    if None in classes:
        return hits, None, None, None, "infinite"
    n0 = max(classes)
    while len(orbit) <= n0:
        orbit.append(step(orbit[-1]))
    hits = tuple(n for n in range(max(horizon, n0) + 1) if hit(orbit[n]))
    return hits, None, None, n0, "certified-finite"


# -- the former polynomial tokenizer and saturation loop ------------------------

_TOKEN = re.compile(r"\s*(x\d+|\d+/\d+|\d+|\*\*|[-+*^()])")


class _PolyParser:
    """The former recursive descent for the additive/multiplicative/power
    grammar, every factor a library polynomial."""

    def __init__(self, ring, tokens):
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


def token_parse(ring, text):
    """ring.parse(text) as the former tokenizer read it, with the same
    ValueError texts."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad token at position {pos}: {text[pos:pos + 10]!r}")
        tokens.append("^" if m.group(1) == "**" else m.group(1))
        pos = m.end()
    parser = _PolyParser(ring, tokens)
    result = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ValueError(f"trailing input after polynomial: {tokens[parser.pos:]}")
    return result


def loop_saturate(I):
    """(I : m^∞) as polykernel.saturate computed it before its linear exit:
    I when x_last divides no leading monomial of the reduced basis, else the
    intersection of the (I : x_i^∞), and I itself when that lies in I."""
    from geomideal.polykernel import _saturate_variable, intersect
    if not any(g.lm()[-1] for g in I.groebner()):
        return I
    sat = reduce(intersect, [_saturate_variable(I, i) for i in range(I.ring.nvars)])
    return I if all(map(I.contains, sat.gens)) else sat


# -- unions of coordinate subspaces -------------------------------------------

def brute_coordinate_unions(d):
    """Every antichain of proper nonempty subsets of {0..d}, the subsets
    ordered larger first, then lexicographically; the antichains by
    (size, positions), from a filter over every set of subsets."""
    subsets = sorted((tuple(i for i in range(d + 1) if mask >> i & 1)
                      for mask in range(1, (1 << (d + 1)) - 1)),
                     key=lambda s: (-len(s), s))
    found = []
    for mask in range(1, 1 << len(subsets)):
        picked = [i for i in range(len(subsets)) if mask >> i & 1]
        if all(not (set(subsets[i]) <= set(subsets[j]) or set(subsets[j]) <= set(subsets[i]))
               for i, j in combinations(picked, 2)):
            found.append(picked)
    found.sort(key=lambda picked: (len(picked), picked))
    return [tuple(subsets[i] for i in picked) for picked in found]


def antichains(subsets):
    """The nonempty antichains of the distinct sets `subsets`, in report
    order: fewer members first, then lexicographically by position.  Level
    k + 1 extends each antichain of level k by the later subsets
    incomparable with all its members, kept as a bitmask."""
    sets = [set(s) for s in subsets]
    later = [sum(1 << j for j, t in enumerate(sets) if j > i and not (s <= t or t <= s))
             for i, s in enumerate(sets)]
    level = [((s,), later[i]) for i, s in enumerate(subsets)]
    found = []
    while level:
        found += [fam for fam, _ in level]
        nxt = []
        for fam, free in level:
            rest = free
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nxt.append((fam + (subsets[j],), free & later[j]))
        level = nxt
    return found


# -- the command line, read by argparse ---------------------------------------

OVERRIDE_FLAGS = ("--max-degree", "--oracle-horizon", "--horizon")


@lru_cache(maxsize=None)
def _argparse_parser():
    import argparse
    from geomideal.cli import COMMANDS
    parser = argparse.ArgumentParser(prog="geomideal")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scene", help="path to a scene file, or - for stdin")
    parser.add_argument("--format", choices=("text", "records"), default="text")
    for flag in OVERRIDE_FLAGS:
        parser.add_argument(flag, type=int, default=None)
    return parser


def argparse_argv(argv):
    """(command, scene, format, overrides) as the former argparse parser read
    argv, overrides mapping each count flag given to its value; help and
    usage errors raise SystemExit(0) and SystemExit(2) as argparse does."""
    args = _argparse_parser().parse_args(argv)
    given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in OVERRIDE_FLAGS}
    return (args.command, args.scene, args.format,
            {flag: value for flag, value in given.items() if value is not None})
