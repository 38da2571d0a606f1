"""Exact linear algebra over the coefficient fields: one incremental echelon,
the graded Groebner engine on it, and normal forms modulo a Groebner basis
as a linear map.

Every elimination in the engine goes through `Echelon`, a row space grown
one row at a time.  Its one entry point takes sparse rows
(``{column: nonzero scalar}``; over GF(p) any integers standing for the
residues) and hands back sparse rows and kernel vectors; `rref`, `rank`,
`kernel_basis` and `in_row_space` are thin dense wrappers over it for
callers that hold a whole matrix (lists of rows).

Rows are stored fraction-free, keyed by pivot column.  On insert a row's
denominators are cleared (`field.split`), the stored rows are eliminated
from it by integer cross-multiplication, and what is left is put in the
field's canonical integral form (`field.reduce_row` with the pivot entry
as denominator): over Q the primitive integer row with a positive pivot,
over GF(p) the monic row of residues, whose cross factor is 1 and is
skipped.  Stored rows are zero on each other's pivot columns, so a row is
reduced by one pass over the pivots it meets and nothing already reduced
is reduced again.  A row is divided by its pivot only when the rows or a
kernel are read.  No floating point: that division goes through
`field.div`, since ``int / int`` would be a float.

The reduced row echelon form of a matrix is unique, and so is its
canonical integral form, so the stored rows, the reduced rows and the
kernels do not depend on the order in which rows were inserted: every caller sees the
same numbers as from a from-scratch elimination.

`graded_groebner` is the one Groebner engine, for polynomial ideals
(`polykernel.groebner_basis`, `polykernel.ideal_sum`) and graded submodules
of free modules (`freemod.module_groebner`): every ideal and module here is
homogeneous, so it runs degree by degree, one echelon per degree whose rows
are that degree's pairs, inputs and reducers (Lazard, EUROCAL 1983; the
normal strategy of Faugère's F4, J. Pure Appl. Algebra 1999), and reads
the reduced basis straight off the reduced rows.  Linear input is its one
degree-1 echelon.  A module term carries its component as three entries
after the monomial, so the engine sees exponent tuples only.

`NormalForms` tabulates the normal-form map on monomials: a normal form
modulo a Groebner basis is unique, hence linear, so the normal form of any
polynomial is the combination of its monomials' cached normal forms.  An
entry is filled when it is first asked for, with only the entries it
needs.  The entries are integral too, one integer denominator over integer
numerators.  Each kernel question on the table's ideal I is one solve
per degree:

- forms f on I's own table: the x of degree n with nf(x.f) = 0.  Such a
  condition sees x only through nf(x), so the solve (`quotient_kernel`)
  runs on the standard monomials, a basis of (S/I)_n that `standard`
  reads with no entry of degree n filled, and gives a subspace K; the
  answer is I_n ⊕ K (`direct_sum`).  The conditions are kept once per
  normal form up to a scalar, since proportional normal forms give
  proportional rows (`canonical_conditions`).  This is the idealizer
  oracle's subspace, and with the one form h the zero-divisor colon's;
- another ideal J's table: the x of I_n with nf_J(x) = 0, solved on the
  basis of I_n (`piece`, `_restrict`), for the intersection.

One loop, `kernel_ideal`, builds an ideal K from those solves, degree by
degree from 0, until the leading monomials found give the Hilbert
numerator of S/K, known in advance; each new leading monomial m extends
that numerator by N(K + (m)) = N(K) - u^(deg m) * N(K : m).  It has two
users, each with the exact sequence that gives its target:

- the zero-divisor colon (I : h) (`colon`), for h of degree e with
  section numerator s: from 0 -> S/(I : h)(-e) -> S/I -> S/(I + (h)) -> 0,
  N(S/(I : h)) = N(I) - u^(-e)*s.  Its new rows in degree d are I's
  reduced basis elements of that degree and K's vectors, so it fills no
  whole degree of the table;
- the intersection I ∩ J (`meet`): from
  0 -> S/(I ∩ J) -> S/I ⊕ S/J -> S/(I + J) -> 0,
  N(S/(I ∩ J)) = N(I) + N(J) - N(I + J).

The sums, section numerators and colons keyed by monic normal forms are
kept on the ideal, not here (`polykernel` module docstring).

Over the polynomial ring itself, `exact_quotient` divides one polynomial by
another when the division is exact: it is the division by the one-element
list [q] (`polykernel.divide`), since {q} is a Groebner basis of (q)
(Cox, Little & O'Shea, §2.3), whose remainder is zero exactly when q
divides p.  `det_adjugate` gives the
determinant and adjugate of a square polynomial matrix by fraction-free
elimination, whose every division is exact.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .polykernel import (
    HomIdeal,
    Poly,
    PolyRing,
    dim_full_space,
    divide,
    mono_descending_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomial_hilbert_numerator,
    monomials_of_degree,
    numerator_add,
    series_coefficient,
    unit_exponents,
)


def _scalars(field, nums: dict, den: int) -> dict:
    """The field scalars x/den of a canonical integral row over den, or
    their negatives over -den, as a new dict."""
    div = field.div
    return {k: div(x, den) for k, x in nums.items()}


class Echelon:
    """The row space of the rows inserted so far, in canonical integral form."""

    __slots__ = ("field", "ncols", "_rows")

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: dict[int, dict] = {}  # pivot column -> canonical integral row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def residue(self, row: dict) -> dict:
        """A nonzero integral multiple of what is left of a sparse row once
        every pivot column is cleared: empty exactly when the row lies in
        the row space.

        Stored rows are zero on each other's pivots, so the row's entry at
        a pivot p is never changed by clearing another, and the row minus
        sum (v_p / a_p) * r_p, over the stored rows r_p it meets with pivot
        entries a_p, is the remainder.  It is scaled by the lcm of the
        reduced denominators a_p / gcd(a_p, v_p) up front, so every
        multiplier is an integer; over GF(p) every a_p is 1."""
        field = self.field
        rows = self._rows
        v, _ = field.split(row)
        hits = [(p, rows[p]) for p in v if p in rows]
        if not hits:
            return field.reduce_row(v, 1)[0]
        scale = lcm(*[a // gcd(a, v[p]) for p, r in hits if (a := r[p]) != 1])
        if scale != 1:
            v = {c: scale * x for c, x in v.items()}
        from_int = field.from_int
        for p, r in hits:
            f = from_int(v.pop(p)) // r[p]
            if not f:
                continue
            for c, y in r.items():
                if c != p:
                    x = v.get(c, 0) - f * y
                    if x:
                        v[c] = x
                    else:
                        del v[c]
        return field.reduce_row(v, 1)[0]

    def insert(self, row: dict) -> bool:
        """Add a sparse row; True iff it was not already in the row space."""
        v = self.residue(row)
        if not v:
            return False
        reduce_row = self.field.reduce_row
        p = min(v)
        v = reduce_row(v, v[p])[0]
        a = v[p]
        rows = self._rows
        for q, r in rows.items():
            f = r.get(p)
            if f is None:
                continue
            b = a
            if b != 1:
                g = gcd(b, f)
                b, f = b // g, f // g
                r = {c: b * x for c, x in r.items()}
            del r[p]
            for c, y in v.items():
                if c != p:
                    x = r.get(c, 0) - f * y
                    if x:
                        r[c] = x
                    else:
                        del r[c]
            rows[q] = reduce_row(r, r[q])[0]
        rows[p] = v
        return True

    def row(self, p: int) -> dict:
        """The reduced row {column: scalar} with pivot p, pivot entry 1."""
        r = self._rows[p]
        return _scalars(self.field, r, r[p])

    def sparse_rows(self) -> list[dict]:
        """The reduced rows, in increasing pivot order."""
        return [self.row(p) for p in self.pivots]

    def sparse_kernel(self) -> list[dict]:
        """Basis of {v : A v = 0} as sparse vectors, one per free column (in
        increasing order) with 1 there, 0 at every other free column, and
        minus the reduced rows' entries in that column at the pivots."""
        field = self.field
        out = {fc: {fc: field.one} for fc in range(self.ncols) if fc not in self._rows}
        for p, r in sorted(self._rows.items()):
            for c, x in _scalars(field, r, -r[p]).items():
                if c != p:
                    out[c][p] = x
        return list(out.values())


def graded_groebner(field, nvars, gens, finished=()) -> list[tuple]:
    """The reduced Groebner basis of the homogeneous gens and of finished,
    a reduced Groebner basis itself (a finished block), as (leading term,
    terms) pairs with leading coefficient 1; gens are {term: scalar} dicts
    and finished are (leading term, terms) pairs.

    A term is an exponent tuple whose first nvars entries are its monomial,
    and its degree is its sum, so the engine serves polynomials as they
    are.  A module vector's term (c, m) is the tuple m + (s, -1 - c, 1 + c),
    s the degree of the generator e_c (freemod): its sum is the true degree
    deg m + s; one term divides another only within a component, since the
    last two entries must match; and within one degree the reversed tuples
    sort position over term (the lower component, then the larger
    monomial), as reversed monomials sort degrevlex.

    Degree by degree (Lazard, EUROCAL 1983), with the normal strategy of
    F4 (Faugère, J. Pure Appl. Algebra 1999): the rows of degree d are the
    inputs of that degree, both halves (lcm/lm_i)*g_i of every pair whose
    lcm has degree d, and, for every column that a leading term of the
    basis divides, one multiple of that basis element with that leading
    term (symbolic preprocessing).  One `Echelon` on the columns, largest
    first, puts them in reduced echelon form, and a pivot no earlier
    leading term divides starts a new basis element.  Every column a
    leading term divides is a pivot, so the new rows are reduced against
    every leading term up to degree d, and nothing of higher degree divides
    their terms: the reduced basis is read off the rows, with no
    interreduction.

    The rows of an echelon are combinations of the basis multiples and the
    new rows, one per pivot, so each S-element has a representation below
    its lcm.  A pair is skipped when that holds already: by the product
    criterion, when the two leading monomials are coprime and each element
    lies in one component, S(f.e, g.e) = S(f, g).e; by the chain criterion,
    when a third
    leading term divides the lcm and the lcms of its two pairs with them
    divide it properly (Buchberger, EUROSAM 1979); and between two elements
    of the finished block, whose S-element reduces to zero modulo the block
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, §2.6).  A
    block element is otherwise an input: a row of its degree's one
    echelon, whose reducers re-reduce it.

    Raises ValueError on an inhomogeneous element.
    """
    todo: dict[int, list] = {}  # degree -> terms
    for g in gens:
        if g:
            degs = set(map(sum, g))
            if len(degs) > 1:
                raise ValueError("a graded Groebner basis needs homogeneous elements")
            todo.setdefault(degs.pop(), []).append(g)
    for lead, g in finished:
        todo.setdefault(sum(lead), []).append(g)
    block_leads = {lead for lead, _ in finished}
    basis: list[tuple] = []  # (leading term, terms, from the block)
    lone: list[bool] = []  # whether all of basis[i] lies in one component
    pairs: dict[int, list] = {}  # degree -> (i, j, lcm)
    while todo or pairs:
        d = min([*todo, *pairs])
        start = len(basis)
        multiples = set()
        for i, j, lcm in pairs.pop(d, ()):
            mi, mj = basis[i][0], basis[j][0]
            if not any(mono_divides(m, lcm) and mono_lcm(mi, m) != lcm
                       and mono_lcm(mj, m) != lcm for m, _, _ in basis):
                multiples |= {(i, mono_div(lcm, mi)), (j, mono_div(lcm, mj))}
        new = _degree_rows(field, basis, todo.pop(d, ()), multiples)
        basis += [(lead, t, lead in block_leads) for lead, t in new]
        for j in range(start, len(basis)):
            m, terms, blocked = basis[j]
            c = m[nvars:]
            lone.append(not c or all(t[nvars:] == c for t in terms))
            for i in range(j):
                mi = basis[i][0]
                if mi[nvars:] == c and not (blocked and basis[i][2]) and not (
                        lone[i] and lone[j] and not sum(map(mul, mi[:nvars], m))):
                    lcm = mono_lcm(mi, m)
                    pairs.setdefault(sum(lcm), []).append((i, j, lcm))
    return [(lead, terms) for lead, terms, _ in basis]


def _degree_rows(field, basis, rows, multiples) -> list[tuple]:
    """The new elements of one degree of `graded_groebner`, as (leading
    term, terms) with the terms in decreasing order: the rows given, the
    basis multiples (index, monomial) and a reducer for every column that
    a leading term of the basis divides, in one echelon."""
    def multiple(terms, mu):
        return {mono_mul(t, mu): x for t, x in terms.items()}

    matrix = list(rows)
    reduced = set()
    for i, mu in multiples:
        m, terms, _ = basis[i]
        matrix.append(multiple(terms, mu))
        reduced.add(mono_mul(m, mu))
    seen = set(reduced)
    for row in matrix:  # grows by the reducers
        for t in row:
            if t not in seen:
                seen.add(t)
                for m, terms, _ in basis:
                    if mono_divides(m, t):
                        matrix.append(multiple(terms, mono_div(t, m)))
                        reduced.add(t)
                        break
    cols = [t[::-1] for t in sorted(t[::-1] for t in seen)]  # largest first
    index = {t: k for k, t in enumerate(cols)}
    ech = Echelon(field, len(cols))
    for row in sorted(({index[t]: x for t, x in row.items()} for row in matrix),
                      key=min, reverse=True):
        ech.insert(row)
    return [(cols[p], {cols[k]: x for k, x in sorted(ech.row(p).items())})
            for p in ech.pivots if cols[p] not in reduced]


def _echelon(field, rows, ncols=None) -> Echelon:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech = Echelon(field, ncols)
    for r in rows:
        ech.insert(_sparse(field, r))
    return ech


def _sparse(field, row) -> dict:
    is_zero = field.is_zero
    return {c: x for c, x in enumerate(row) if not is_zero(x)}


def _dense(field, ncols: int, v: dict) -> list:
    dense = [field.zero] * ncols
    for c, x in v.items():
        dense[c] = x
    return dense


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Zero rows are dropped; pivot entries are 1 with zeros above and below.
    """
    ech = _echelon(field, rows)
    return [_dense(field, ech.ncols, r) for r in ech.sparse_rows()], ech.pivots


def rank(field, rows) -> int:
    return _echelon(field, rows).rank


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel {v : A v = 0} of the ncols-column matrix A."""
    return [_dense(field, ncols, v) for v in _echelon(field, rows, ncols).sparse_kernel()]


def in_row_space(field, rows, vector) -> bool:
    """True iff vector is a linear combination of the given rows."""
    return not _echelon(field, rows, len(vector)).residue(_sparse(field, vector))


def _accumulate(pairs) -> tuple[dict, int]:
    """sum a * nums/d over the (a, (nums, d)) pairs, as integral numerators
    (zeros possible) over the lcm of the d."""
    common = lcm(*[d for _, (_, d) in pairs])
    acc: dict = {}
    for a, (nums, d) in pairs:
        f = a * (common // d)
        for s, x in nums.items():
            acc[s] = acc.get(s, 0) + f * x
    return acc, common


def _insert_rows(echelon: Echelon, residues: list[tuple[dict, int]]) -> None:
    """Insert one row per monomial t of the residues (nums, den), the i-th
    residue's entry at t in column i.  The rows are taken over the lcm of
    the denominators, so they are integral; scaling every row of one
    condition alike changes no solution."""
    common = lcm(*[d for _, d in residues])
    rows: dict[tuple, dict] = {}
    for col, (nums, d) in enumerate(residues):
        f = common // d
        for t, x in nums.items():
            if x:
                rows.setdefault(t, {})[col] = f * x
    for row in rows.values():
        echelon.insert(row)


class NormalForms:
    """Normal forms modulo one fixed homogeneous Groebner basis, tabulated
    on monomials as they are asked for.

    The basis must be a Groebner basis, so that nf(sum c_t t) =
    sum c_t nf(t) and each monomial is reduced once per table.  A monomial
    m that the leading monomial lm of some basis element g divides (the
    first such g) reduces to the combination of the monomials m/lm * t over
    the tail terms t of g.  Those are smaller than m and of its degree.
    `_fill` is the one fill rule: on an explicit stack it fills those
    first, then m, and nothing else.  A single monomial (`_entry`, which
    `residue` and `shifted` call) fills only the entries it reaches; a
    whole degree (`monomials`) goes on the stack smallest on top, so
    there the stack never grows.

    Each entry is integral: (nums, den) with nf(m) = sum nums[s]/den * s,
    in the field's canonical form (`field.reduce_row`), so over Q the
    table holds no `Fraction` and a combination is integer arithmetic over
    one common denominator.  The table keeps each filled degree's monomial
    list and each degree's standard monomials.
    """

    def __init__(self, ring: PolyRing, basis: list[Poly]):
        field = ring.field
        self.ring = ring
        self._basis = [g for g in basis if not g.is_zero()]
        self._divisors = []
        for g in self._basis:
            lm = g.lm()
            nums, _ = field.split(g.terms)
            self._divisors.append(
                (lm, nums[lm], [(t, -x) for t, x in nums.items() if t != lm]))
        self._table: dict[tuple, tuple[dict, int]] = {}
        self._monos: dict[int, list[tuple]] = {}
        # n -> standard monomials: 1 in degree 0, unless the ideal is the unit ideal
        self._standard = {0: [] if any(not sum(lm) for lm, _, _ in self._divisors)
                          else [(0,) * ring.nvars]}

    def monomials(self, n: int) -> list[tuple]:
        """The degree-n monomials in decreasing order, their normal forms
        filled (do not mutate)."""
        monos = self._monos.get(n)
        if monos is None:
            monos = self._monos[n] = monomials_of_degree(self.ring, n)
            self._fill(list(monos))  # the smallest on top
        return monos

    def _entry(self, m: tuple) -> tuple[dict, int]:
        """The table entry of m, filled with the entries it needs and no
        others."""
        entry = self._table.get(m)
        if entry is None:
            self._fill([m])
            entry = self._table[m]
        return entry

    def _fill(self, stack: list[tuple]) -> None:
        """Fill the entries of the monomials on the stack, top first, the
        one fill rule.  A monomial whose tail entries are missing stays on
        the stack under them; each of those is smaller than it, so the
        stack empties.  No recursion: a chain of tails can be long."""
        table = self._table
        get, reduce_row = table.get, self.ring.field.reduce_row
        while stack:
            u = stack[-1]
            if u in table:  # pushed twice, or filled already
                stack.pop()
                continue
            for lm, lc, tail in self._divisors:
                if mono_divides(lm, u):
                    q = mono_div(u, lm)
                    pairs, missing = [], []
                    for t, a in tail:
                        v = mono_mul(t, q)
                        entry = get(v)
                        if entry is None:
                            missing.append(v)
                        else:
                            pairs.append((a, entry))
                    if missing:
                        stack += missing
                    else:
                        acc, d = _accumulate(pairs)
                        table[u] = reduce_row({s: x for s, x in acc.items() if x}, lc * d)
                    break
            else:
                table[u] = ({u: 1}, 1)

    def shifted(self, terms: dict, shifts) -> list[tuple[dict, int]]:
        """nf(x^mu * sum c_t x^t) for terms = {t: c_t} and each mu of
        shifts, as integral numerators (zeros possible) over one positive
        denominator each, not reduced."""
        nums, den = self.ring.field.split(terms)
        get, entry = self._table.get, self._entry
        terms = list(nums.items())
        out = []
        for mu in shifts:
            acc, d = _accumulate([(c, get(m) or entry(m))
                                  for t, c in terms for m in (mono_mul(t, mu),)])
            out.append((acc, den * d))
        return out

    def residue(self, f: Poly) -> dict:
        """The normal form of the form f as canonical integral numerators
        (`field.reduce_row`), zeros dropped: empty exactly when f lies in
        the ideal."""
        (nums, den), = self.shifted(f.terms, [(0,) * self.ring.nvars])
        return self.ring.field.reduce_row({t: x for t, x in nums.items() if x}, den)[0]

    def remainder(self, f: Poly) -> Poly | None:
        """The monic normal form of the form f, None when f lies in the ideal."""
        nums = self.residue(f)
        if not nums:
            return None
        field = self.ring.field
        lead = min(nums, key=mono_descending_key)
        return Poly(self.ring, _scalars(field, nums, nums[lead]), (lead, field.one))

    def piece(self, n: int) -> list[Poly]:
        """The rows m - nf(m), in decreasing order, for the degree-n
        monomials m that a leading monomial of the basis divides: m is one
        exactly when m is not a term of nf(m).  Each row's pivot m is not
        standard and its tail lies on standard monomials, so these are the
        reduced echelon basis of the degree-n piece of the ideal
        (polykernel.degree_piece_basis), read off the table with no
        matrix; the whole degree is filled."""
        ring, table = self.ring, self._table
        field = ring.field
        one = field.one
        out = []
        for m in self.monomials(n):
            nums, den = table[m]
            if m not in nums:
                row = {m: one}
                row.update(_scalars(field, nums, -den))
                out.append(Poly(ring, row, (m, one)))
        return out

    def standard(self, n: int) -> list[tuple]:
        """The standard monomials of degree n, those that no leading
        monomial of the basis divides, in decreasing order, kept; no entry
        of the table is filled.  Every divisor of a standard monomial is
        standard, so those of degree n are grown from those of degree
        n - 1: the products s*x_i, x_i the first variable of s or an
        earlier one (each monomial once), that no leading monomial
        divides."""
        if n < 0:
            return []
        cache = self._standard
        k = max(k for k in cache if k <= n)
        leads = [lm for lm, _, _ in self._divisors]
        xs = unit_exponents(self.ring.nvars)
        for k in range(k + 1, n + 1):
            grown = []
            for s in cache[k - 1]:
                first = next((i for i, e in enumerate(s) if e), len(s) - 1)
                for x in xs[:first + 1]:
                    m = mono_mul(s, x)
                    if not any(mono_divides(lm, m) for lm in leads):
                        grown.append(m)
            cache[k] = sorted(grown, key=mono_descending_key)
        return cache[n]

    def quotient_kernel(self, conditions: list[dict], n: int) -> list[dict]:
        """The reduced echelon basis of the subspace K of (S/I)_n, I this
        table's ideal, of the x with nf(x . f) = 0 for every condition f,
        given as the canonical numerators of nf(f) (`canonical_conditions`):
        each vector {monomial: scalar}, leading monomial first with
        coefficient 1, the largest lead first.

        x - nf(x) lies in I, so a condition sees x only through nf(x), and
        the unknowns are the standard monomials of degree n (`standard`), a
        basis of (S/I)_n (Macaulay; Eisenbud, Commutative Algebra,
        Thm 15.3).  The rows nf(s . nf(f)), for standard s, enter one
        echelon whose columns are those monomials, reversed, so its pivots
        are the last monomials, and each kernel vector has 1 at its free
        column, 0 at the other free columns, and otherwise entries only at
        later monomials: read back last vector first, the kernel is the
        reduced echelon form of K, which is unique.  With no condition K
        is all of (S/I)_n."""
        standard = self.standard(n)
        last = len(standard) - 1
        echelon = Echelon(self.ring.field, len(standard))  # columns: standard, last first
        for nums in conditions:
            _insert_rows(echelon, self.shifted(nums, reversed(standard)))
        return [{standard[last - c]: v[c] for c in sorted(v, reverse=True)}
                for v in reversed(echelon.sparse_kernel())]

    def kernel_ideal(self, solve, target: dict[int, int]) -> HomIdeal:
        """The ideal K from its reduced Groebner basis, given the Hilbert
        numerator target of S/K; solve(d) is (dim (S/K)_d, rows), the rows
        in reduced echelon form inside K_d, largest leading monomial first,
        among them every row of K_d's reduced echelon form whose leading
        monomial no leading monomial of a lower degree divides.  Its two
        users, `colon` and `meet`, know the target from an exact sequence
        (module docstring).

        Every term of such a row other than its lead is a standard
        monomial of K, so a row whose leading monomial no earlier one
        divides is m - nf_K(m) for a minimal generator m of in(K), an
        element of the reduced basis.  Degree by degree from 0, the rows
        kept generate a monomial ideal inside in(K), equal to it in every
        degree seen; once its Hilbert numerator is the target the two are
        equal, and the rows kept are the reduced basis (a Hilbert-driven
        stop: Traverso, J. Symbolic Comput. 1996).

        Each degree's dim (S/K)_d must be the target series' coefficient.
        Two different numerators differ in some coefficient, so a wrong
        target fails that check in some degree and the loop cannot run
        forever; the failure is an internal error.
        """
        ring = self.ring
        basis: list[Poly] = []
        leads: list[tuple] = []  # in the order found
        found, d = {0: 1}, -1
        while found != target:
            d += 1
            quotient, rows = solve(d)
            want = series_coefficient(target, ring.nvars, d)
            if quotient != want:
                raise AssertionError(f"the quotient has dimension {quotient} in degree {d}, "
                                     f"its Hilbert series {want}")
            new = []
            for f in rows:
                m = f.lm()
                if not any(mono_divides(k, m) for k in leads):
                    # N(K + (m)) = N(K) - u^deg m * N(K : m), K : m generated
                    # by the earlier leads k, each over gcd(k, m)
                    colon = [tuple(max(a - b, 0) for a, b in zip(k, m)) for k in leads]
                    found = numerator_add(found, monomial_hilbert_numerator(colon), -1, sum(m))
                    leads.append(m)
                    new.append(f)
            basis = new + basis
        return HomIdeal.from_basis(ring, basis)  # by decreasing leading monomial

    def colon(self, h: Poly, target: dict[int, int]) -> HomIdeal:
        """(I : h) for a form h, I this table's ideal and its basis reduced,
        given the Hilbert numerator target of S/(I : h) (`kernel_ideal`).

        In degree d, (I : h)_d is I_d ⊕ K, K the subspace of (S/I)_d that
        the one condition nf(x . h) = 0 cuts (`quotient_kernel`), so
        S/(I : h) has dimension dim (S/I)_d - dim K there.  A leading
        monomial of I_d that none of a lower degree divides leads an
        element of I's reduced basis, which is its row m - nf(m); so the
        rows offered are those elements of degree d, K's leads cleared
        (`direct_sum`), and K's vectors, and no whole degree of the table
        is filled."""
        conditions = [self.residue(h)]

        def solve(d):
            kernel = self.quotient_kernel(conditions, d)
            rows = direct_sum(self.ring, [g for g in self._basis if g.degree == d], kernel)
            return len(self.standard(d)) - len(kernel), rows
        return self.kernel_ideal(solve, target)

    def meet(self, other: NormalForms, target: dict[int, int]) -> HomIdeal:
        """I ∩ J, I this table's ideal and other J's table, given the
        Hilbert numerator target of S/(I ∩ J) (`kernel_ideal`): in degree
        d the x of I_d (`piece`) with nf_J(x) = 0 (`_restrict`)."""
        def solve(d):
            rows = _restrict(self.piece(d), other)
            return dim_full_space(self.ring, d) - len(rows), rows
        return self.kernel_ideal(solve, target)


def canonical_conditions(table: NormalForms, forms) -> list[dict]:
    """The canonical numerators of nf(f) on the table for the forms f, in
    order.  A normal form modulo a Groebner basis is unique, hence linear,
    so nf(x . f) = nf(x . nf(f)).  A form with nf(f) = 0 is dropped, and so
    is one whose nf(f) is proportional to an earlier one's, since it gives
    proportional rows: the numerators are scaled over their entry at their
    largest monomial, which scales every row alike, and keyed by their
    entries."""
    reduce_row, out = table.ring.field.reduce_row, {}
    for form in forms:
        nums = table.residue(form)
        if nums:
            nums, _ = reduce_row(nums, nums[max(nums)])
            out.setdefault(frozenset(nums.items()), nums)
    return list(out.values())


def direct_sum(ring: PolyRing, piece: list[Poly], kernel: list[dict]) -> list[Poly]:
    """The reduced echelon basis, largest leading monomial first, of the
    span of some rows of I_n's reduced echelon basis (`NormalForms.piece`)
    and of K, a subspace of the standard monomials' span given by its
    reduced basis ({monomial: scalar}, each with leading coefficient 1):
    I_n ⊕ K for the whole piece.  K's vectors are zero at the pivots of
    I_n, and are zero at each other's leads, so one pass clears their
    leads from each row of I_n."""
    field = ring.field
    sub, mul, one = field.sub, field.mul, field.one
    leads = {next(iter(k)): k for k in kernel}
    out = [Poly(ring, k, (s, one)) for s, k in leads.items()]
    for row in piece:
        hits = [(s, c) for s, c in row.terms.items() if s in leads]
        if hits:
            terms = dict(row.terms)
            for s, c in hits:
                for t, y in leads[s].items():
                    x = sub(terms.get(t, field.zero), mul(c, y))
                    if x:
                        terms[t] = x
                    else:
                        del terms[t]
            row = Poly(ring, terms, row.lt())
        out.append(row)
    out.sort(key=lambda f: mono_descending_key(f.lm()))
    return out


def _restrict(basis: list[Poly], table: NormalForms) -> list[Poly]:
    """The reduced echelon basis, largest leading monomial first, of the x
    in the span of basis (reduced echelon, largest lead first) with
    nf_T(x) = 0, T another ideal's table (`NormalForms.meet`).

    One echelon has the basis vectors as its columns, reversed, and one
    row per monomial of their normal forms nf_T(v).  Each kernel vector is
    1 at its free column and otherwise has entries only at basis vectors
    of smaller lead; each basis vector is reduced, with its terms at or
    below its lead, so the kernel read back as combinations of the basis
    is again reduced echelon."""
    ring = table.ring
    field = ring.field
    add, mul, one = field.add, field.mul, field.one
    last, unit = len(basis) - 1, [(0,) * ring.nvars]
    echelon = Echelon(field, len(basis))
    _insert_rows(echelon, [table.shifted(v.terms, unit)[0] for v in reversed(basis)])
    # x = sum a_c v_c is a_c at the lead of v_c, since each v_c is 1 there
    # and every other basis vector 0; only the other terms take arithmetic
    leads = [v.lm() for v in reversed(basis)]
    out = []
    for v in reversed(echelon.sparse_kernel()):
        terms = {leads[c]: v[c] for c in sorted(v, reverse=True)}
        tails: dict = {}
        for c, a in v.items():
            for t, y in basis[last - c].terms.items():
                if t not in terms:
                    tails[t] = add(tails.get(t, field.zero), mul(a, y))
        terms.update((t, x) for t, x in tails.items() if x)
        out.append(Poly(ring, terms, (leads[max(v)], one)))
    return out


def exact_quotient(p: Poly, q: Poly) -> Poly | None:
    """p/q when the nonzero q divides p, else None: the division of p by
    [q] (polykernel.divide), since {q} is a Groebner basis of (q) and so
    the remainder is zero exactly when q divides p."""
    (quot,), rem = divide(p.ring.field, p.terms, [(q.lm(), q.terms)])
    return None if rem else Poly(q.ring, quot)


def det_adjugate(rows: list[list[Poly]]) -> tuple[Poly, list[list[Poly]] | None]:
    """(det D, adj D) for a nonempty square matrix D of polynomials, given
    by rows; (0, None) when det D = 0.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) on
    [D | 1]: step k replaces every row i != k by
    (p_k*row_i - a_ik*row_k)/p_(k-1), with a_ik the row's current entry in
    column k, p_k the k-th pivot and p_(-1) = 1.  Each entry is then a
    minor of [D | 1] (Sylvester's identity), so every division is exact,
    and the r steps make r - 1 row updates of 2r entries each: O(r^3)
    polynomial products, where the Leibniz formula has r! terms.  With
    the rows permuted by P the end is [det(PD)*1 | X] with
    X = det(PD)*D^-1, so det D = sign(P)*det(PD) and adj D = sign(P)*X."""
    r = len(rows)
    ring = rows[0][0].ring
    zero, one = ring.zero(), ring.one()
    m = [list(row) + [one if c == i else zero for c in range(r)]
         for i, row in enumerate(rows)]
    prev, sign = one, 1
    for k in range(r):
        p = next((i for i in range(k, r) if not m[i][k].is_zero()), None)
        if p is None:
            return zero, None
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(r):
            if i != k:
                a = m[i][k]
                row = [pivot * x - a * y for x, y in zip(m[i], row_k)]
                m[i] = row if k == 0 else [exact_quotient(x, prev) for x in row]
        prev = pivot
    if sign < 0:
        return -prev, [[-x for x in row[r:]] for row in m]
    return prev, [row[r:] for row in m]
