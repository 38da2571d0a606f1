"""The incremental echelon kernel, checked against the reference elimination.

`oracles.rref_rank` and `oracles.gauss_jordan` are from-scratch dense
Gauss-Jordan passes that share no code with `geomideal.linalg`; the
properties below are over Q, GF(7) and GF(32003), on small matrices with
many zeros, non-integral entries, zero rows and repeated rows, so that
rank drops are common.  The table of monomial normal forms is checked against
`polykernel.normal_form`, and its annihilator against
`oracles.monomial_annihilator`, the solve over every monomial of the
degree.  The polynomial-matrix helpers are checked
against the Leibniz formula and the oracle's naive division.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import linalg
from geomideal.fields import QQ, PrimeField
from geomideal.polykernel import HomIdeal, Poly, PolyRing, monomials_of_degree, normal_form

FIELDS = (QQ, PrimeField(7), PrimeField(32003))


@st.composite
def field_and_matrix(draw, max_rows=6, max_cols=6):
    """(field, ncols, dense rows): entries with denominators 2, 3 and 4
    among the integers, often a zero row and a repeated row."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_cols))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 7,
                             Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return field, ncols, [[field.from_fraction(Fraction(x)) for x in r] for r in rows]


def reference(field, rows):
    """(reduced rows, rank) from the oracle."""
    reduced, r = oracles.rref_rank(rows, field.char)
    return reduced[:r], r


def sparse(field, row):
    """A dense row as the echelon's sparse input."""
    return {c: x for c, x in enumerate(row) if not field.is_zero(x)}


def dense(field, ncols, v):
    """A sparse row of the echelon as a dense list."""
    return [v.get(c, field.zero) for c in range(ncols)]


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_insert_is_true_exactly_when_the_rank_grows(case):
    field, ncols, rows = case
    ech = linalg.Echelon(field, ncols)
    for i, row in enumerate(rows):
        before = ech.rank
        grew = ech.insert(sparse(field, row))
        assert grew == (ech.rank == before + 1)
        assert grew or ech.rank == before
        assert ech.rank == reference(field, rows[:i + 1])[1]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dense_listing_is_the_reference_rref_in_every_insertion_order(data):
    """The reduced rows, pivots, rank and kernel equal the plain
    Gauss-Jordan pass, whatever the order of insertion; over Q every stored
    row is a primitive integer row with a positive pivot, and over GF(p) a
    monic row of residues."""
    field, ncols, rows = data.draw(field_and_matrix())
    order = data.draw(st.permutations(range(len(rows))))
    ech = linalg.Echelon(field, ncols)
    for i in order:
        ech.insert(sparse(field, rows[i]))
    expected, pivots, kernel = oracles.gauss_jordan(rows, ncols, field.char)
    assert [dense(field, ncols, r) for r in ech.sparse_rows()] == expected
    assert ech.pivots == pivots and ech.rank == len(pivots)
    assert ech.sparse_kernel() == [sparse(field, v) for v in kernel]
    assert linalg.rref(field, rows) == (expected, pivots)
    assert linalg.rank(field, rows) == len(pivots)
    assert linalg.kernel_basis(field, rows, ncols) == kernel
    for p, row in ech._rows.items():
        assert all(type(x) is int and x != 0 for x in row.values())
        if field.char:
            assert row[p] == 1 and all(0 < x < field.char for x in row.values())
        else:
            assert row[p] > 0 and math.gcd(*row.values()) == 1


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_kernel_vectors_are_annihilated_and_count_ncols_minus_rank(case):
    field, ncols, rows = case
    ech = linalg.Echelon(field, ncols)
    for row in rows:
        ech.insert(sparse(field, row))
    kernel = [dense(field, ncols, v) for v in ech.sparse_kernel()]
    assert len(kernel) == ncols - ech.rank
    for v in kernel:
        for row in rows:
            acc = field.zero
            for a, b in zip(row, v):
                acc = field.add(acc, field.mul(a, b))
            assert field.is_zero(acc)
    # the kernel vectors are independent: they have 1 on distinct free columns
    if kernel:
        assert reference(field, kernel)[1] == len(kernel)
    assert linalg.kernel_basis(field, rows, ncols) == kernel


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_in_row_space_matches_the_reference_span_test(data):
    field, ncols, rows = data.draw(field_and_matrix())
    entry = st.sampled_from([0, 1, -1, 2])
    vec = [field.from_int(x) for x in
           data.draw(st.lists(entry, min_size=ncols, max_size=ncols))]
    if rows and data.draw(st.booleans()):
        # a combination of the rows, which must be found in the span
        coeffs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        vec = [field.zero] * ncols
        for c, row in zip(coeffs, rows):
            vec = [field.add(x, field.mul(field.from_int(c), y))
                   for x, y in zip(vec, row)]
    assert linalg.in_row_space(field, rows, vec) == oracles.in_span(rows, vec, field.char)


def _polynomial(draw, ring):
    """A small polynomial, often zero, not always homogeneous."""
    field = ring.field
    out = ring.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(ring.nvars))
        out = out + ring.monomial(exps, field.from_int(draw(st.sampled_from([1, -1, 2, 3, -5]))))
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_det_adjugate_matches_the_leibniz_formula(data):
    ring = PolyRing(data.draw(st.sampled_from(FIELDS)), 2)
    r = data.draw(st.integers(1, 4))
    rows = [[_polynomial(data.draw, ring) for _ in range(r)] for _ in range(r)]
    det, adj = linalg.det_adjugate(rows)
    want_det, want_adj = oracles.leibniz_det_adjugate(rows, ring.zero(), ring.one())
    assert det == want_det
    assert adj == (None if want_det.is_zero() else want_adj)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_quotient_divides_exactly_or_declines(data):
    """(p*q)/q = p, and p/q is None exactly when p has a nonzero remainder
    on division by q (the oracle's naive normal form)."""
    ring = PolyRing(data.draw(st.sampled_from(FIELDS)), 3)
    p, q = _polynomial(data.draw, ring), _polynomial(data.draw, ring)
    assume(not q.is_zero())
    assert linalg.exact_quotient(p * q, q) == p
    h = linalg.exact_quotient(p, q)
    rem = oracles.naive_normal_form(p.terms, [q.terms], ring.field.char)
    assert (h is None) == bool(rem)
    assert h is None or h * q == p


# the point [1/2 : 2/3 : 1], the fat point of scenes/fat_point.scene, a conic
NF_IDEALS = {
    "non-integral point": ["2*x0 - x2", "3*x1 - 2*x2"],
    "fat point": ["x0 + x1", "x0^2"],
    "conic": ["x0^2 + 3*x1*x2 - 2*x2^2"],
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@pytest.mark.parametrize("name", sorted(NF_IDEALS))
def test_normal_form_table_entries_are_the_normal_forms(field, name):
    """Every entry of the table up to degree 6 is one integer denominator
    over integer numerators, and it is the normal form of its monomial."""
    ring = PolyRing(field, 3)
    gb = list(HomIdeal.from_strings(ring, NF_IDEALS[name]).groebner())
    table = linalg.NormalForms(ring, gb)
    for n in range(7):
        for m in table.monomials(n):
            nums, den = table._table[m]
            assert type(den) is int and den > 0
            assert all(type(x) is int and x != 0 for x in nums.values())
            value = {t: field.div(x, den) for t, x in nums.items()}
            assert value == normal_form(ring.monomial(m), gb).terms


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@pytest.mark.parametrize("name", sorted(NF_IDEALS))
def test_annihilator_keeps_one_condition_per_normal_form(field, name, monkeypatch):
    """Conditions whose normal forms on one table are proportional give
    proportional rows, so the annihilator keeps one of them: adding to f
    its rescaled copies, a copy shifted by an element of I, and forms in
    the ideal of either table leaves the annihilator and the echelon rows
    inserted as they were for f alone.  Over GF(7) the normal form of
    (x0 - x2)*x1 modulo (x0 - x2) accumulates 1 + 6 = 7 before it is
    reduced to zero."""
    ring = PolyRing(field, 3)
    I = HomIdeal.from_strings(ring, NF_IDEALS[name])
    table = I.normal_forms()
    other = HomIdeal.from_strings(ring, ["x0 - x2"]).normal_forms()
    f, h = ring.parse("x0*x1 + 2*x1^2 - x2^2"), I.groebner()[-1]
    in_i = h * ring.variable(1) if h.degree == 1 else h
    extra = [(table, f.scale(field.from_int(3))), (table, f + in_i), (table, in_i),
             (table, ring.parse("8*x0*x1 + 16*x1^2 - 8*x2^2")),
             (other, ring.parse("(x0 - x2)*x1"))]
    inserts = []
    real_insert = linalg.Echelon.insert

    def counted(self, row):
        inserts.append(dict(row))
        return real_insert(self, row)

    monkeypatch.setattr(linalg.Echelon, "insert", counted)
    for n in range(4):
        for conditions in ([(table, f)], [(table, f), (other, f)]):
            inserts.clear()
            want = table.annihilator(conditions, n)
            rows = list(inserts)
            inserts.clear()
            assert table.annihilator(conditions + extra, n) == want
            assert inserts == rows


def _form(draw, ring, deg):
    """A form of degree deg with one to three terms, non-integral
    coefficients among them."""
    field = ring.field
    monos = monomials_of_degree(ring, deg)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    coeffs = [1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3)]
    terms = {m: field.from_fraction(Fraction(draw(st.sampled_from(coeffs)))) for m in picked}
    return Poly(ring, terms)


def _point_gens(ring, point):
    k = max(i for i, c in enumerate(point) if c)
    return [ring.variable(i).scale(point[k]) - ring.variable(k).scale(point[i])
            for i in range(ring.nvars) if i != k]


def _family_ideal(draw, ring, family) -> tuple[HomIdeal, list]:
    """(I, zero divisors): a point, the square of a point's ideal (a fat
    point), the twisted cubic, one to three random forms, or the squares
    of every variable with at most one random form (S/I Artinian).  The
    zero divisors on S/I are the point's linear forms for a fat point and
    the variables for the Artinian family: as conditions they cut a
    nonzero K that is not all of (S/I)_n."""
    field = ring.field
    if family in ("point", "fat point"):
        point = [field.from_int(draw(st.integers(0, 3))) for _ in range(ring.nvars - 1)]
        point.append(field.from_int(draw(st.integers(1, 3))))
        gens = _point_gens(ring, point)
        if family == "point":
            return HomIdeal(ring, gens), []
        return HomIdeal(ring, [f * g for f in gens for g in gens]), gens
    if family == "twisted cubic":
        return HomIdeal.from_strings(
            ring, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]), []
    if family == "forms":
        return HomIdeal(ring, [_form(draw, ring, draw(st.integers(1, 2)))
                               for _ in range(draw(st.integers(1, 3)))]), []
    xs = [ring.variable(i) for i in range(ring.nvars)]
    gens = [x * x for x in xs]
    gens += [_form(draw, ring, 2) for _ in range(draw(st.integers(0, 1)))]
    return HomIdeal(ring, gens), xs


@st.composite
def annihilator_case(draw):
    """(table, conditions, n): conditions on I's own table only, on it and
    on another ideal's table, or on the other table only, with zero,
    rescaled and shifted copies.  On I's table a zero divisor of its
    family, when it has one, cuts a nonzero K, and a standard monomial t
    with t*S_n inside I, when there is one, makes K all of (S/I)_n, so
    that stage 1 has rank 0."""
    field = draw(st.sampled_from(FIELDS))
    family = draw(st.sampled_from(["point", "fat point", "twisted cubic", "forms", "artinian"]))
    ring = PolyRing(field, 4 if family == "twisted cubic" else draw(st.integers(2, 4)))
    I, zero_divisors = _family_ideal(draw, ring, family)
    J, _ = _family_ideal(draw, ring, draw(st.sampled_from(["point", "forms"])))
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["own", "own and other", "other"]))
    conditions = []
    for ideal, wanted in ((I, kind != "other"), (J, kind != "own")):
        if not wanted:
            continue
        table, gb = ideal.normal_forms(), ideal.groebner()
        forms = [_form(draw, ring, draw(st.integers(0, 2)))
                 for _ in range(draw(st.integers(1, 2)))]
        conditions += [(table, f) for f in forms]
        f = forms[0]
        if draw(st.booleans()):
            conditions.append((table, ring.zero()))
        if gb and draw(st.booleans()):
            conditions.append((table, gb[-1]))
        if draw(st.booleans()):
            conditions.append((table, f.scale(field.from_int(draw(st.sampled_from([2, -3]))))))
        if gb and draw(st.booleans()):
            shift = gb[0] * ring.monomial(draw(st.sampled_from(monomials_of_degree(ring, 1))))
            conditions.append((table, f + shift))
    table, gb = I.normal_forms(), list(I.groebner())
    own = draw(st.sampled_from(["random", "zero divisor", "all of (S/I)_n"]))
    if kind != "other" and own != "random":
        # in place of the random forms, which mostly leave K = 0
        standard = [m for m in table.monomials(n) if m in table._table[m][0]]
        chosen = zero_divisors if own == "zero divisor" else [
            ring.monomial(t) for e in (1, 2, 3) for t in table.monomials(e)
            if t in table._table[t][0]
            and all(normal_form(ring.monomial(t) * ring.monomial(s), gb).is_zero()
                    for s in standard)]
        if chosen:
            conditions = [c for c in conditions if c[0] is not table]
            conditions.append((table, draw(st.sampled_from(chosen))))
    order = draw(st.permutations(range(len(conditions))))
    return table, [conditions[i] for i in order], n


@settings(max_examples=400, deadline=None)
@given(annihilator_case())
def test_annihilator_matches_the_solve_over_every_monomial(case):
    """I_n plus the subspace K of (S/I)_n that the conditions on I's table
    cut, then the conditions on other tables solved on that basis, are
    the rows of the solve over every degree-n monomial: the same terms,
    leading terms and order."""
    table, conditions, n = case
    got = table.annihilator(conditions, n)
    want = oracles.monomial_annihilator(table, conditions, n)
    assert [f.terms for f in got] == [f.terms for f in want]
    assert [f.lt() for f in got] == [f.lt() for f in want]


def test_annihilator_of_a_socle_condition_is_everything():
    """Modulo (x0^2, x1^2) the form x0*x1 is outside I, yet x0*x1*S_1 is
    inside it: its one condition has rank 0 on the standard monomials of
    degree 1, so K is all of (S/I)_1 and the annihilator is all of S_1."""
    ring = PolyRing(QQ, 2)
    table = HomIdeal.from_strings(ring, ["x0^2", "x1^2"]).normal_forms()
    got = table.annihilator([(table, ring.parse("x0*x1"))], 1)
    assert [f.terms for f in got] == [{(1, 0): 1}, {(0, 1): 1}]
