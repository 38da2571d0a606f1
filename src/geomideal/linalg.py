"""Exact linear algebra over the coefficient fields: one incremental echelon,
the reduced bases of linear ideals, and normal forms modulo a Groebner
basis as a linear map.

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
same numbers as from a from-scratch elimination.  `linear_groebner_basis`
reads the reduced Groebner basis of linear forms off one echelon: in
degree 1 degrevlex orders x0 > ... > xd, so that basis is the reduced row
echelon form with x_i as column i.

`NormalForms` tabulates the normal-form map on monomials: a normal form
modulo a Groebner basis is unique, hence linear, so the normal form of any
polynomial is the combination of its monomials' cached normal forms.  Its
entries are integral too, one integer denominator over integer numerators.
Its annihilator, the forms x of one degree with nf_T(x.f) = 0 for a list
of conditions (T, f), each T a table of the ring, is the idealizer
oracle's subspace and the one step of one loop, `kernel_ideal`: degree by
degree from 0 it builds the ideal K of those x until the leading monomials
found give the Hilbert numerator of S/K, known in advance.  That loop has
two users, each with the exact sequence that gives its target:

- the zero-divisor colon (I : h), one condition (I's table, h), for h of
  degree e with section numerator s: from
  0 -> S/(I : h)(-e) -> S/I -> S/(I + (h)) -> 0,
  N(S/(I : h)) = N(I) - u^(-e)*s;
- the intersection I ∩ J, two conditions (I's table, 1) and (J's table, 1):
  from 0 -> S/(I ∩ J) -> S/I ⊕ S/J -> S/(I + J) -> 0,
  N(S/(I ∩ J)) = N(I) + N(J) - N(I + J).

The table also keeps, per monic normal form h, h's section numerator and
(I : h): a form g reaches both only through its h, so the colons of one
ideal by forms with equal h share one run.

Over the polynomial ring itself, `exact_quotient` divides one polynomial by
another when the division is exact, and `det_adjugate` gives the
determinant and adjugate of a square polynomial matrix by fraction-free
elimination, whose every division is exact.
"""

from __future__ import annotations

from math import gcd, lcm

from .polykernel import (
    HomIdeal,
    Poly,
    PolyRing,
    dim_full_space,
    ideal_sum,
    mono_descending_key,
    mono_div,
    mono_divides,
    mono_key,
    mono_mul,
    monomial_hilbert_numerator,
    monomials_of_degree,
    numerator_add,
    section_numerator,
    series_coefficient,
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

    def sparse_rows(self) -> list[dict]:
        """The reduced rows {column: scalar}, pivot entry 1, in increasing
        pivot order."""
        field = self.field
        return [_scalars(field, r, r[p]) for p, r in sorted(self._rows.items())]

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


def linear_groebner_basis(forms) -> list[Poly] | None:
    """Reduced Groebner basis of the ideal the forms generate when every
    nonzero one is linear, else None; [] when none is nonzero.

    In degree 1 degrevlex orders the variables x0 > x1 > ... > xd, so with
    x_i as column i a monic form's leading monomial is its pivot column and
    the reduced basis is the reduced row echelon form of the coefficient
    matrix: one row per pivot, pivot entry 1, no other pivot column among
    its terms.  Rows come out in increasing pivot order, that is by
    decreasing leading monomial, as `polykernel.reduce_basis` sorts them;
    each row's terms are in decreasing order, leading term first."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return []
    if any(f.degree != 1 for f in forms):
        return None
    ring = forms[0].ring
    field, xs = ring.field, ring.units
    ech = Echelon(field, ring.nvars)
    for f in forms:
        ech.insert({m.index(1): c for m, c in f.terms.items()})
    return [Poly(ring, {xs[c]: r[c] for c in sorted(r)}, (xs[p], field.one))
            for p, r in zip(ech.pivots, ech.sparse_rows())]


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


def _section(I: HomIdeal, g: Poly) -> dict[int, int]:
    """g's section numerator on S/I (polykernel.section_numerator), zero
    exactly when g is a nonzerodivisor: one Groebner run of I + (g) that
    extends I's reduced basis (polykernel.ideal_sum)."""
    return section_numerator(I, ideal_sum(I, HomIdeal(I.ring, [g])), g.degree)


class NormalForms:
    """Normal forms modulo one fixed homogeneous Groebner basis, tabulated
    on monomials a whole degree at a time.

    The basis must be a Groebner basis, so that nf(sum c_t t) =
    sum c_t nf(t) and each monomial is reduced once per table.  A monomial
    m that the leading monomial lm of some basis element g divides (the
    first such g) reduces to the combination of the monomials m/lm * t over
    the tail terms t of g.  Those are smaller than m and of its degree, so
    a degree filled in increasing monomial order finds every one of them
    already filled: no stack and no second visit.

    Each entry is integral: (nums, den) with nf(m) = sum nums[s]/den * s,
    in the field's canonical form (`field.reduce_row`), so over Q the
    table holds no `Fraction` and a combination is integer arithmetic over
    one common denominator.  The table keeps each filled degree's monomial
    list, which the degree pieces and the kernel loop read, and the
    section numerator and colon of each monic normal form asked of it
    (polykernel.ideal_quotient).
    """

    def __init__(self, ring: PolyRing, basis: list[Poly]):
        field = ring.field
        self.ring = ring
        self._divisors = []
        for g in basis:
            if g.is_zero():
                continue
            lm = g.lm()
            nums, _ = field.split(g.terms)
            self._divisors.append(
                (lm, nums[lm], [(t, -x) for t, x in nums.items() if t != lm]))
        self._table: dict[tuple, tuple[dict, int]] = {}
        self._monos: dict[int, list[tuple]] = {}
        # monic normal form h -> its section numerator, and -> (I : h)
        self._sections: dict[Poly, dict[int, int]] = {}
        self._quotients: dict[Poly, HomIdeal] = {}

    def monomials(self, n: int) -> list[tuple]:
        """The degree-n monomials in decreasing order, their normal forms
        filled (do not mutate)."""
        monos = self._monos.get(n)
        if monos is None:
            monos = self._monos[n] = monomials_of_degree(self.ring, n)
            table, reduce_row = self._table, self.ring.field.reduce_row
            for m in reversed(monos):
                for lm, lc, tail in self._divisors:
                    if mono_divides(lm, m):
                        q = mono_div(m, lm)
                        acc, d = _accumulate([(a, table[mono_mul(t, q)]) for t, a in tail])
                        table[m] = reduce_row({s: x for s, x in acc.items() if x}, lc * d)
                        break
                else:
                    table[m] = ({m: 1}, 1)
        return monos

    def _entry(self, m: tuple) -> tuple[dict, int]:
        """The table entry of m, its degree filled first when it is new."""
        entry = self._table.get(m)
        if entry is None:
            self.monomials(sum(m))
            entry = self._table[m]
        return entry

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

    def remainder(self, f: Poly) -> Poly | None:
        """The monic normal form of the form f, None when f lies in the ideal."""
        field = self.ring.field
        (nums, den), = self.shifted(f.terms, [(0,) * self.ring.nvars])
        nums, _ = field.reduce_row({t: x for t, x in nums.items() if x}, den)
        if not nums:
            return None
        lead = min(nums, key=mono_descending_key)
        return Poly(self.ring, _scalars(field, nums, nums[lead]), (lead, field.one))

    def section(self, ideal: HomIdeal, h: Poly) -> dict[int, int]:
        """The section numerator of h on S/I (`_section`), computed once per
        h: ideal is I, the ideal of this table's basis, and h a monic
        normal form outside it (`remainder`)."""
        s = self._sections.get(h)
        if s is None:
            s = self._sections[h] = _section(ideal, h)
        return s

    def quotient(self, ideal: HomIdeal, h: Poly) -> HomIdeal:
        """(I : h) for h as in `section`, once per h: the `kernel_ideal` of
        the one condition (this table, h), whose target N(I) - u^(-e)*s
        follows from the section numerator s of h, of degree e."""
        Q = self._quotients.get(h)
        if Q is None:
            target = numerator_add(ideal.hilbert_numerator(), self.section(ideal, h),
                                   -1, -h.degree)
            Q = self._quotients[h] = self.kernel_ideal([(self, h)], target)
        return Q

    def piece(self, n: int) -> list[Poly]:
        """The rows m - nf(m), in decreasing order, for the degree-n
        monomials m that a leading monomial of the basis divides: m is one
        exactly when m is not a term of nf(m).  These are the reduced
        echelon basis of the degree-n piece of the ideal
        (polykernel.degree_piece_basis)."""
        field = self.ring.field
        one = field.one
        out = []
        for m in self.monomials(n):
            nums, den = self._table[m]
            if m not in nums:
                row = {m: one}
                row.update(_scalars(field, nums, -den))
                out.append(Poly(self.ring, row, (m, one)))
        return out

    def annihilator(self, conditions, n: int) -> list[Poly]:
        """The reduced echelon basis of {x in S_n : nf_T(x . f) = 0 for every
        condition (T, f)}, T a table of this ring (this one or another),
        each element monic, largest leading monomial first.

        A normal form modulo a Groebner basis is unique, hence linear, so
        each product is reduced as a combination of the normal forms of its
        monomials, read from T.  The residues come out integral, each over
        one denominator; over the lcm L of a condition's residue
        denominators its rows are integral, and scaling a row changes no
        solution.

        The condition rows enter one echelon whose columns are this table's
        degree-n monomials, reversed, so its pivots are the last monomials,
        and each kernel vector has 1 at its free column, 0 at the other free
        columns, and otherwise entries only at later monomials.  Read back
        in monomial order, last vector first, the kernel vectors are its
        reduced echelon form, which is unique: the row-reduced basis, with
        no second elimination.
        """
        ring = self.ring
        monos = self.monomials(n)
        last = len(monos) - 1
        # columns = monos, last first; one row per (condition, monomial of a residue)
        echelon = Echelon(ring.field, len(monos))
        # the echelon does not depend on the order of its rows
        for table, form in conditions:
            # nf(x . f) = nf(x . nf(f)), and nf(f) is short; its denominator
            # scales every row of the condition alike
            (reduced, _), = table.shifted(form.terms, [(0,) * ring.nvars])
            residues = table.shifted(reduced, reversed(monos))
            L = lcm(*[d for _, d in residues])
            rows: dict[tuple, dict] = {}
            for col, (nums, d) in enumerate(residues):
                f = L // d
                for t, x in nums.items():
                    if x:
                        rows.setdefault(t, {})[col] = f * x
            for row in rows.values():
                echelon.insert(row)
        out = []
        for v in reversed(echelon.sparse_kernel()):
            terms = {monos[last - c]: v[c] for c in sorted(v, reverse=True)}
            out.append(Poly(ring, terms, next(iter(terms.items()))))
        return out

    def kernel_ideal(self, conditions, target: dict[int, int]) -> HomIdeal:
        """The ideal K = {x : nf_T(x . f) = 0 for every condition (T, f)},
        from its reduced Groebner basis, given the Hilbert numerator target
        of S/K.  Its two users (module docstring) know that numerator from
        an exact sequence: the colon (I : h) is the one condition (I's
        table, h), the intersection I ∩ J the two (I's table, 1) and (J's
        table, 1).

        Degree by degree from 0, K_d is the `annihilator` of the
        conditions, given in reduced echelon form.  Its leading monomials
        are those of in(K)_d, and every other term of a row is a standard
        monomial of K; so a row whose leading monomial no earlier one
        divides is m - nf_K(m) for a minimal generator m of in(K), an
        element of the reduced basis.  The rows kept generate a monomial
        ideal inside in(K), equal to it in every degree seen; once its
        Hilbert numerator is the target the two are equal, and the rows
        kept are the reduced basis (a Hilbert-driven stop: Traverso, J.
        Symbolic Comput. 1996).

        Each degree's kernel must have dimension dim S_d minus the target
        series' coefficient.  Two different numerators differ in some
        coefficient, so a wrong target fails that check in some degree and
        the loop cannot run forever; the failure is an internal error.
        """
        ring = self.ring
        basis: list[Poly] = []
        found, d = {0: 1}, -1
        while found != target:
            d += 1
            rows = self.annihilator(conditions, d)
            want = dim_full_space(ring, d) - series_coefficient(target, ring.nvars, d)
            if len(rows) != want:
                raise AssertionError(f"the kernel has dimension {len(rows)} in degree {d}, "
                                     f"its Hilbert series {want}")
            new = [f for f in rows if not any(mono_divides(h.lm(), f.lm()) for h in basis)]
            if new:
                basis = new + basis
                found = monomial_hilbert_numerator([h.lm() for h in basis])
        return HomIdeal.from_basis(ring, basis)  # by decreasing leading monomial


def exact_quotient(p: Poly, q: Poly) -> Poly | None:
    """p/q when the nonzero q divides p, else None.

    S is a domain, so when p = q*h the leading monomial of p is lm(q)
    times that of h: each step divides the leading term of what is left by
    lt(q), and a leading monomial that lm(q) does not divide means no h."""
    field = p.ring.field
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero
    lm, inv = q.lm(), field.inv(q.lc())
    tail = [(s, c) for s, c in q.terms.items() if s != lm]
    rest, quot = dict(p.terms), {}
    while rest:
        m = max(rest, key=mono_key)
        if not mono_divides(lm, m):
            return None
        t, a = mono_div(m, lm), mul(rest.pop(m), inv)
        quot[t] = a
        for s, c in tail:
            u = mono_mul(s, t)
            x = sub(rest.get(u, zero), mul(a, c))
            if is_zero(x):
                rest.pop(u, None)
            else:
                rest[u] = x
    return Poly(q.ring, quot)


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
