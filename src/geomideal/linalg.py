"""Exact linear algebra over the coefficient fields: one incremental echelon,
the reduced bases of linear ideals, and normal forms modulo a Groebner
basis as a linear map.

Every elimination in the engine goes through `Echelon`, a row space grown
one row at a time.  Its rows are sparse (``{column: scalar}``), fully
reduced (pivot entry 1, zeros above and below every pivot) and keyed by
pivot column, so inserting a row costs one pass over the pivots it meets
and nothing already reduced is reduced again.  Scalars are the field's own
values: over Q an int when integral and a `Fraction` otherwise, ints in
[0, p) over GF(p).  No floating point: every division goes through
`field.div`/`field.inv`, since ``int / int`` would be a float.

The reduced row echelon form of a matrix is unique, so `Echelon.rows()` and
`Echelon.kernel()` do not depend on the order in which rows were inserted,
and every caller sees the same numbers as from a from-scratch elimination.
`rref`, `rank`, `kernel_basis` and `in_row_space` are thin wrappers over it
for callers that hold a whole dense matrix (lists of rows).
`linear_groebner_basis` reads the reduced Groebner basis of linear forms
off one echelon: in degree 1 degrevlex orders x0 > ... > xd, so that basis
is the reduced row echelon form with x_i as column i.

`NormalForms` tabulates the normal-form map on monomials: a normal form
modulo a Groebner basis is unique, hence linear, so the normal form of any
polynomial is the combination of its monomials' cached normal forms.

Over the polynomial ring itself, `exact_quotient` divides one polynomial by
another when the division is exact, and `det_adjugate` gives the
determinant and adjugate of a square polynomial matrix by fraction-free
elimination, whose every division is exact.
"""

from __future__ import annotations

from .polykernel import Poly, PolyRing, mono_div, mono_divides, mono_key, mono_mul


class Echelon:
    """The reduced row echelon form of the rows inserted so far."""

    __slots__ = ("field", "ncols", "_rows")

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: dict[int, dict] = {}  # pivot column -> sparse reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def residue(self, row) -> dict:
        """Sparse remainder of a dense row after clearing every pivot column.

        Stored rows are zero on each other's pivots, so clearing one pivot
        never disturbs another, and one pass over the pivots the row meets
        suffices."""
        field = self.field
        is_zero, sub, mul, zero = field.is_zero, field.sub, field.mul, field.zero
        v = {c: x for c, x in enumerate(row) if not is_zero(x)}
        for p in [c for c in v if c in self._rows]:
            f = v.pop(p)
            for c, y in self._rows[p].items():
                if c != p:
                    x = sub(v.get(c, zero), mul(f, y))
                    if is_zero(x):
                        del v[c]
                    else:
                        v[c] = x
        return v

    def insert(self, row) -> bool:
        """Add a dense row; True iff it was not already in the row space."""
        v = self.residue(row)
        if not v:
            return False
        field = self.field
        is_zero, sub, mul, zero = field.is_zero, field.sub, field.mul, field.zero
        p = min(v)
        inv = field.inv(v.pop(p))
        v = {c: mul(inv, x) for c, x in v.items()}
        for r in self._rows.values():
            f = r.pop(p, None)
            if f is None:
                continue
            for c, y in v.items():
                x = sub(r.get(c, zero), mul(f, y))
                if is_zero(x):
                    del r[c]
                else:
                    r[c] = x
        v[p] = field.one
        self._rows[p] = v
        return True

    def rows(self) -> list[list]:
        """The reduced rows as dense lists, in increasing pivot order."""
        zero = self.field.zero
        out = []
        for p in self.pivots:
            dense = [zero] * self.ncols
            for c, x in self._rows[p].items():
                dense[c] = x
            out.append(dense)
        return out

    def kernel(self) -> list[list]:
        """Basis of {v : A v = 0}, one vector per free column (in increasing
        order) with 1 there and 0 at every other free column."""
        field = self.field
        zero, neg = field.zero, field.neg
        out = []
        for fc in range(self.ncols):
            if fc in self._rows:
                continue
            v = [zero] * self.ncols
            v[fc] = field.one
            for p, r in self._rows.items():
                v[p] = neg(r.get(fc, zero))
            out.append(v)
        return out


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
    field, n = ring.field, ring.nvars
    xs = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    ech = Echelon(field, n)
    for f in forms:
        row = [field.zero] * n
        for m, c in f.terms.items():
            row[m.index(1)] = c
        ech.insert(row)
    out = []
    for p in ech.pivots:
        r = ech._rows[p]
        out.append(Poly(ring, {xs[c]: r[c] for c in sorted(r)}, (xs[p], field.one)))
    return out


def _echelon(field, rows, ncols=None) -> Echelon:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech = Echelon(field, ncols)
    for r in rows:
        ech.insert(r)
    return ech


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Zero rows are dropped; pivot entries are 1 with zeros above and below.
    """
    ech = _echelon(field, rows)
    return ech.rows(), ech.pivots


def rank(field, rows) -> int:
    return _echelon(field, rows).rank


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel {v : A v = 0} of the ncols-column matrix A."""
    return _echelon(field, rows, ncols).kernel()


def in_row_space(field, rows, vector) -> bool:
    """True iff vector is a linear combination of the given rows."""
    return not _echelon(field, rows, len(vector)).residue(vector)


class NormalForms:
    """Normal forms modulo one fixed Groebner basis, from cached monomials.

    The basis must be a Groebner basis, so that nf(sum c_t t) =
    sum c_t nf(t) and each monomial is reduced once per table.  A monomial
    divisible by the leading monomial lm of the first basis element g that
    divides it reduces to the combination of the (smaller) monomials of its
    quotient times the tail of g; those are looked up or reduced first,
    with an explicit stack instead of recursion.
    """

    def __init__(self, ring: PolyRing, basis: list[Poly]):
        field = ring.field
        self.ring = ring
        self._divisors = [
            (g.lm(), [(t, field.neg(field.div(c, g.lc())))
                      for t, c in g.terms.items() if t != g.lm()])
            for g in basis if not g.is_zero()
        ]
        self._cache: dict[tuple, dict] = {}

    def monomial(self, mono: tuple) -> dict:
        """nf(x^mono) as a dict monomial -> nonzero scalar (do not mutate)."""
        cache = self._cache
        if mono in cache:
            return cache[mono]
        field = self.ring.field
        add, mul, is_zero, zero = field.add, field.mul, field.is_zero, field.zero
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in cache:
                stack.pop()
                continue
            hit = next(((lm, tail) for lm, tail in self._divisors
                        if mono_divides(lm, m)), None)
            if hit is None:
                cache[m] = {m: field.one}
                stack.pop()
                continue
            lm, tail = hit
            q = mono_div(m, lm)
            deps = [(mono_mul(t, q), a) for t, a in tail]
            missing = [d for d, _ in deps if d not in cache]
            if missing:
                stack.extend(missing)
                continue
            res: dict = {}
            for d, a in deps:
                for s, e in cache[d].items():
                    res[s] = add(res.get(s, zero), mul(a, e))
            cache[m] = {s: x for s, x in res.items() if not is_zero(x)}
            stack.pop()
        return cache[mono]

    def terms(self, terms: dict, shift: tuple | None = None) -> dict:
        """nf(x^shift * sum c_t x^t) for terms = {t: c_t}, as a dict
        monomial -> scalar (zero entries possible)."""
        field = self.ring.field
        add, mul, zero = field.add, field.mul, field.zero
        res: dict = {}
        for t, c in terms.items():
            for s, e in self.monomial(t if shift is None else mono_mul(t, shift)).items():
                res[s] = add(res.get(s, zero), mul(c, e))
        return res

    def piece(self, monos) -> list[Poly]:
        """The rows m - nf(m), in the given order, for the monomials m of
        monos that a leading monomial of the basis divides: m is one
        exactly when m is not a term of nf(m).  Over the degree-n
        monomials in decreasing order these are the reduced echelon basis
        of the degree-n piece of the ideal (polykernel.degree_piece_basis)."""
        field = self.ring.field
        one, neg = field.one, field.neg
        out = []
        for m in monos:
            tail = self.monomial(m)
            if m not in tail:
                row = {m: one}
                for t, c in tail.items():
                    row[t] = neg(c)
                out.append(Poly(self.ring, row, (m, one)))
        return out


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
