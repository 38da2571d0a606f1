"""The incremental echelon kernel, checked against the reference elimination.

`oracles.rref_rank` is a from-scratch dense Gauss-Jordan pass that shares no
code with `geomideal.linalg`; every property below is over Q, GF(7) and
GF(32003), on small matrices with many zeros so that rank drops are common.
The polynomial-matrix helpers are checked against the Leibniz formula and
the oracle's naive division.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import linalg
from geomideal.fields import QQ, PrimeField
from geomideal.polykernel import PolyRing

FIELDS = (QQ, PrimeField(7), PrimeField(32003))


@st.composite
def field_and_matrix(draw, max_rows=6, max_cols=6):
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_cols))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 7])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    return field, ncols, [[field.from_int(x) for x in r] for r in rows]


def reference(field, rows):
    """(reduced rows, rank) from the oracle."""
    reduced, r = oracles.rref_rank(rows, field.char)
    return reduced[:r], r


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_insert_is_true_exactly_when_the_rank_grows(case):
    field, ncols, rows = case
    ech = linalg.Echelon(field, ncols)
    for i, row in enumerate(rows):
        before = ech.rank
        grew = ech.insert(row)
        assert grew == (ech.rank == before + 1)
        assert grew or ech.rank == before
        assert ech.rank == reference(field, rows[:i + 1])[1]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_listing_is_the_reference_rref_in_every_insertion_order(data):
    field, ncols, rows = data.draw(field_and_matrix())
    order = data.draw(st.permutations(range(len(rows))))
    ech = linalg.Echelon(field, ncols)
    for i in order:
        ech.insert(rows[i])
    expected, r = reference(field, rows)
    assert ech.rows() == expected
    assert ech.rank == r
    assert ech.pivots == [next(c for c, x in enumerate(row) if x != 0)
                          for row in expected]
    assert linalg.rref(field, rows) == (expected, ech.pivots)
    assert linalg.rank(field, rows) == r


@settings(max_examples=150, deadline=None)
@given(field_and_matrix())
def test_kernel_vectors_are_annihilated_and_count_ncols_minus_rank(case):
    field, ncols, rows = case
    ech = linalg.Echelon(field, ncols)
    for row in rows:
        ech.insert(row)
    kernel = ech.kernel()
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
