"""Resolution, Tor, transversality, multiplicity, and quotient-probe tests.

Frozen dimension tables were cross-checked against hand Koszul-complex
computations and the brute-force Hilbert data in oracles.py; the verdict
tests for the quotient probe encode the regular-local / non-regular-local
dichotomy at smooth and singular curve points, and Tor_1 over a cubic
quotient is checked against (I cap J)/IJ computed by bare linear algebra.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal.errors import SceneVerificationError, UsageError
from geomideal.fields import QQ, PrimeField
from geomideal import homology
from geomideal.freemod import MVec, module_groebner, submodule_contains
from geomideal.homology import (
    ImproperIntersectionError,
    disjoint,
    free_resolution,
    graded_tor,
    homologically_transverse,
    serre_multiplicity_total,
    transverse_from_resolution,
    truncated_tor_over_quotient,
)
from geomideal.polykernel import (
    HomIdeal,
    PolyRing,
    hilbert_function,
    ideal_sum,
    intersect,
    monomials_of_degree,
    saturate,
)

RQ = PolyRing(QQ, 3)
R7 = PolyRing(PrimeField(7), 3)


def ideal(ring, *gens):
    return HomIdeal.from_strings(ring, list(gens))


# ---------------------------------------------------------------------------
# strategies: monomial ideals keep the homological computations small
# ---------------------------------------------------------------------------

@st.composite
def monomial_ideal(draw, ring, max_deg=3, max_gens=3):
    monos = [
        m
        for d in range(1, max_deg + 1)
        for m in monomials_of_degree(ring, d)
    ]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_gens))
    return HomIdeal(ring, tuple(ring.monomial(m) for m in chosen))


# ---------------------------------------------------------------------------
# free resolutions: frozen shapes
# ---------------------------------------------------------------------------

def test_resolution_of_principal_ideal():
    res = free_resolution(ideal(RQ, "x0"))
    assert res.length == 1
    assert [m.rank for m in res.modules] == [1, 1]
    assert res.modules[1].degrees == (1,)


def test_resolution_koszul_two_variables():
    res = free_resolution(ideal(RQ, "x0", "x1"))
    assert [m.rank for m in res.modules] == [1, 2, 1]
    assert res.modules[1].degrees == (1, 1)
    assert res.modules[2].degrees == (2,)


def test_resolution_square_free_products():
    # x0x1, x0x2, x1x2: three quadrics with two independent linear syzygies
    res = free_resolution(ideal(RQ, "x0*x1", "x0*x2", "x1*x2"))
    assert [m.rank for m in res.modules] == [1, 3, 2]
    assert res.modules[1].degrees == (2, 2, 2)
    assert res.modules[2].degrees == (3, 3)


def test_resolution_length_clamped_to_ambient():
    I = ideal(RQ, "x0", "x1", "x2")
    res = free_resolution(I, length=10)
    assert res.length <= 3
    assert res.modules == free_resolution(I).modules


def test_resolution_exactness_via_hilbert():
    # alternating sum of the free-module Hilbert functions recovers HF(S/I)
    I = ideal(RQ, "x0^2", "x0*x1", "x1^3")
    res = free_resolution(I)
    for n in range(0, 8):
        total = 0
        sign = 1
        for mod in res.modules:
            total += sign * sum(comb(n - a + 2, 2) for a in mod.degrees if n >= a)
            sign = -sign
        assert total == hilbert_function(I, n)


# ---------------------------------------------------------------------------
# graded Tor: frozen values
# ---------------------------------------------------------------------------

def test_koszul_tor_of_residue_field():
    # Tor_j(k, k) is the j-th exterior power, concentrated in degree j
    m = HomIdeal.from_strings(RQ, ["x0", "x1", "x2"])
    for j in range(0, 5):
        T = graded_tor(m, m, j)
        for n in range(0, 6):
            assert T.dimension(n) == (comb(3, j) if n == j else 0)


def test_vanishing_ceiling():
    I = ideal(RQ, "x0^2", "x1*x2")
    J = ideal(RQ, "x0*x1^2")
    T = graded_tor(I, J, 4)
    assert T.is_sheaf_trivial()
    assert T.dims(0, 6) == [0] * 7


# ---------------------------------------------------------------------------
# homological transversality
# ---------------------------------------------------------------------------

def test_transverse_lines():
    assert homologically_transverse(ideal(RQ, "x0"), ideal(RQ, "x1")) == (True, None)


def test_tangent_line_is_still_transverse():
    # tangency is a length phenomenon, not a Tor_1 phenomenon
    conic = ideal(RQ, "x0^2 - x1*x2")
    tangent = ideal(RQ, "x1")
    assert homologically_transverse(conic, tangent) == (True, None)


def test_nested_pair_fails_at_j_one():
    V = ideal(RQ, "x0")
    W = ideal(RQ, "x0", "x1")
    assert homologically_transverse(V, W) == (False, 1)


def test_common_component_fails():
    A = ideal(RQ, "x0*x1")
    B = ideal(RQ, "x0*x2")
    ok, j = homologically_transverse(A, B)
    assert not ok and j == 1


def test_koszul_regular_sequence_transverse():
    # (x0, x1) is regular on S/(x2); expected-dimension intersection
    point = ideal(RQ, "x0", "x1")
    line = ideal(RQ, "x2")
    assert homologically_transverse(point, line) == (True, None)


def test_transversality_insensitive_to_saturation():
    # the inputs differ from their saturations by irrelevant-supported junk
    I = ideal(RQ, "x0*x2", "x0*x1", "x0^2")  # saturates to (x0)
    J = ideal(RQ, "x1")
    assert homologically_transverse(I, J) == (True, None)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_nested_law_on_random_monomial_pairs(data):
    """Strict containment of subschemes forces a Tor_1 witness."""
    I = data.draw(monomial_ideal(RQ))
    K = data.draw(monomial_ideal(RQ))
    J = ideal_sum(I, K)
    Isat, Jsat = saturate(I), saturate(J)
    from geomideal.polykernel import ideal_equal

    if Isat.is_unit() or Jsat.is_unit():
        return  # empty subscheme: containment is not strict in the scheme sense
    if ideal_equal(Isat, Jsat):
        return
    assert homologically_transverse(I, J) == (False, 1)


@st.composite
def linear_ideal(draw, ring):
    """Ideal of up to three random linear forms over Q with small
    coefficients: a point, a line, the plane or the empty scheme of P^2."""
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ring.nvars,
                                  max_size=ring.nvars), min_size=1, max_size=3))
    return HomIdeal(ring, [
        sum((ring.variable(i).scale(QQ.from_int(c)) for i, c in enumerate(row)),
            ring.zero())
        for row in rows
    ])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_disjointness_pre_check_matches_the_plain_loop(data):
    """The shortcut for disjoint pairs never changes a verdict or a witness j."""
    pick = st.one_of(linear_ideal(RQ), monomial_ideal(RQ))
    I, J = data.draw(pick), data.draw(pick)
    plain = transverse_from_resolution(free_resolution(I), J)
    assert homologically_transverse(I, J) == plain


def test_disjoint_pair_is_transverse_without_a_resolution(monkeypatch):
    def no_resolution(*args, **kwargs):
        raise AssertionError("a disjoint pair needs no resolution")

    monkeypatch.setattr(homology, "free_resolution", no_resolution)
    P = ideal(RQ, "x0 - x2", "x1 - x2")
    Q = ideal(RQ, "x0", "x1 - 2*x2")
    assert disjoint(P, Q)
    assert homologically_transverse(P, Q) == (True, None)


# ---------------------------------------------------------------------------
# Serre intersection numbers
# ---------------------------------------------------------------------------

def test_distinct_lines_meet_once():
    assert serre_multiplicity_total(ideal(RQ, "x0"), ideal(RQ, "x1")) == 1


def test_two_conics_give_four():
    c1 = ideal(RQ, "x0^2 + x1^2 - 2*x2^2")
    c2 = ideal(RQ, "x0*x1 - x2^2")
    assert serre_multiplicity_total(c1, c2) == 4


def test_tangent_line_gives_two():
    conic = ideal(RQ, "x0^2 - x1*x2")
    tangent = ideal(RQ, "x1")
    assert serre_multiplicity_total(conic, tangent) == 2
    # ... and all of it comes from Tor_0
    assert graded_tor(conic, tangent, 1).is_sheaf_trivial()


def test_improper_intersection_raises():
    with pytest.raises(ImproperIntersectionError) as exc:
        serre_multiplicity_total(ideal(RQ, "x0"), ideal(RQ, "x0"))
    assert str(exc.value) == "improper intersection; multiplicity undefined by this operation"


# ---------------------------------------------------------------------------
# symmetry and Euler identities
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tor_symmetry(data):
    I = data.draw(monomial_ideal(RQ, max_deg=2))
    J = data.draw(monomial_ideal(RQ, max_deg=2))
    for j in range(0, 4):
        A = graded_tor(I, J, j)
        B = graded_tor(J, I, j)
        assert A.dims(0, 6) == B.dims(0, 6)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_euler_alternating_sum(data):
    """Alternating Tor dimensions agree with the Hilbert-series product
    (1-t)^3 * H_{S/I}(t) * H_{S/J}(t), degree by degree."""
    I = data.draw(monomial_ideal(RQ, max_deg=2))
    J = data.draw(monomial_ideal(RQ, max_deg=2))
    bound = 6
    hI = [hilbert_function(I, n) for n in range(bound + 1)]
    hJ = [hilbert_function(J, n) for n in range(bound + 1)]

    def conv(m):
        return sum(hI[a] * hJ[m - a] for a in range(m + 1)) if m >= 0 else 0

    for n in range(bound + 1):
        chi = sum(
            (-1) ** j * graded_tor(I, J, j).dimension(n) for j in range(0, 4)
        )
        rhs = sum((-1) ** k * comb(3, k) * conv(n - k) for k in range(0, 4))
        assert chi == rhs


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_meet_join_hilbert_identity(data):
    # 0 -> S/(I cap J) -> S/I + S/J -> S/(I+J) -> 0 is exact
    I = data.draw(monomial_ideal(RQ))
    J = data.draw(monomial_ideal(RQ))
    for n in range(0, 7):
        lhs = hilbert_function(intersect(I, J), n) + hilbert_function(ideal_sum(I, J), n)
        rhs = hilbert_function(I, n) + hilbert_function(J, n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# truncated Tor over a quotient coordinate ring
# ---------------------------------------------------------------------------

CUBIC = ideal(RQ, "x1^2*x2 - x0^3")
CUSP = ideal(RQ, "x0", "x1")
SMOOTH_PT = ideal(RQ, "x0 - x2", "x1 - x2")


def test_cusp_point_has_persistent_tor():
    rep = truncated_tor_over_quotient(CUBIC, CUSP, CUSP, j_max=4)
    assert rep.verdicts == {1: True, 2: True, 3: True, 4: True}
    assert rep.infinite_hd_evidence


def test_smooth_point_tor_stops_at_one():
    rep = truncated_tor_over_quotient(CUBIC, SMOOTH_PT, SMOOTH_PT, j_max=4)
    assert rep.verdicts == {1: True, 2: False, 3: False, 4: False}
    assert not rep.infinite_hd_evidence


def test_probe_verdicts_read_the_hilbert_polynomial_of_each_tor():
    # the smooth point's finite-length Tor_j sits at the top of the default
    # window for large j (it climbs 3 degrees per 2 steps over the cubic);
    # a Tor sheaf at the point is zero exactly when its Hilbert polynomial is
    smooth = truncated_tor_over_quotient(CUBIC, SMOOTH_PT, SMOOTH_PT, j_max=12)
    cusp = truncated_tor_over_quotient(CUBIC, CUSP, CUSP, j_max=12)
    assert all(smooth.verdicts[j] is False for j in range(2, 13))
    assert all(cusp.verdicts[j] is True for j in range(1, 13))


def test_probe_point_must_lie_on_quotient_locus():
    off = ideal(RQ, "x0 - x2", "x1 - 2*x2")
    with pytest.raises(ValueError, match="point not on"):
        truncated_tor_over_quotient(CUBIC, off, off, j_max=2)


def test_probe_rejects_non_point_ideal():
    with pytest.raises(ValueError, match="rational point"):
        truncated_tor_over_quotient(CUBIC, CUSP, ideal(RQ, "x0"), j_max=2)


def test_probe_errors_carry_the_documented_classes():
    off = ideal(RQ, "x0 - x2", "x1 - 2*x2")
    with pytest.raises(SceneVerificationError):
        truncated_tor_over_quotient(CUBIC, off, off, j_max=2)
    with pytest.raises(UsageError):
        truncated_tor_over_quotient(CUBIC, CUSP, ideal(RQ, "x0"), j_max=2)


def test_zero_quotient_matches_polynomial_ring():
    # over the full ring the resolution is finite: Tor_j = 0 beyond step 3
    rep = truncated_tor_over_quotient(HomIdeal(RQ, ()), CUSP, CUSP, j_max=4)
    assert rep.verdicts[3] is False and rep.verdicts[4] is False
    assert rep.verdicts[1] is True and rep.verdicts[2] is True
    assert all(v == 0 for v in rep.table[4])


def test_probe_window_overridable():
    rep = truncated_tor_over_quotient(CUBIC, CUSP, CUSP, j_max=2, deg_bound=7)
    assert rep.window == 7
    assert len(rep.table[1]) == 8


# captured from the earlier degree-by-degree linear-algebra probe (exact up
# to the window) with j_max = 6 and the default window 12; the node's table
# equals the cusp's
PINNED_TABLES = {
    "cusp": {
        1: [0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        2: [0, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        3: [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        4: [0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2],
        5: [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2],
        6: [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2],
    },
    "smooth": {
        1: [0, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        2: [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        3: [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        4: [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        5: [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        6: [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    },
}
PINNED_TABLES["node"] = PINNED_TABLES["cusp"]

R32003 = PolyRing(PrimeField(32003), 3)
PINNED_CASES = {
    "cusp": (CUBIC, CUSP),
    "smooth": (CUBIC, SMOOTH_PT),
    "node": (ideal(R32003, "x1^2*x2 - x0^3 - x0^2*x2"), ideal(R32003, "x0", "x1")),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_probe_tables_match_the_pinned_tables(case):
    quotient, point = PINNED_CASES[case]
    rep = truncated_tor_over_quotient(quotient, point, point, j_max=6)
    assert rep.window == 12
    assert rep.table == PINNED_TABLES[case]


def _times(a, b, char):
    """Product of two term dicts, reduced mod char when char > 0."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: (c % char if char else c) for m, c in out.items()
            if (c % char if char else c)}


def _piece_rank(gens_terms, n, char):
    return oracles.rref_rank(oracles.degree_piece_rows(gens_terms, 3, n, char), char)[1]


def _brute_tor1(Q, M, P, n, char):
    """dim Tor_1 over A = S/Q of A/MA and A/P in degree n, Q inside P:
    (MA cap PA)/(MA * PA) = ((M + Q) cap P)/(MP + Q), and
    dim (U cap V) = dim U + dim V - dim (U + V) on degree-n pieces."""
    q = [dict(g.terms) for g in Q.gens]
    m = [dict(g.terms) for g in M.gens] + q
    p = [dict(g.terms) for g in P.gens]
    meet = _piece_rank(m, n, char) + _piece_rank(p, n, char) - _piece_rank(m + p, n, char)
    prods = [_times(a, b, char) for a in m[:len(M.gens)] for b in p]
    return meet - _piece_rank([t for t in prods if t] + q, n, char)


@st.composite
def cubic_through_a_point(draw):
    """(ring, Q, P): a random cubic Q through the rational point P = [a:b:1]
    of P^2, over Q or GF(7)."""
    ring = draw(st.sampled_from((RQ, R7)))
    F = ring.field
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    x0, x1, x2 = (ring.variable(i) for i in range(3))
    P = HomIdeal(ring, (x0 - x2.scale(F.from_int(a)), x1 - x2.scale(F.from_int(b))))
    coeffs = {m: draw(st.integers(-3, 3)) for m in monomials_of_degree(ring, 3)}
    coeffs[0, 0, 3] -= sum(c * a ** m[0] * b ** m[1] for m, c in coeffs.items())
    f = sum((ring.monomial(m, F.from_int(c)) for m, c in coeffs.items() if c),
            ring.zero())
    assume(not f.is_zero())
    return ring, HomIdeal(ring, (f,)), P


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_probe_tor1_matches_the_intersection_formula(data):
    ring, Q, P = data.draw(cubic_through_a_point())
    F = ring.field
    if data.draw(st.booleans()):
        M = P
    else:
        c0, c1 = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
        line = P.gens[0].scale(F.from_int(c0)) + P.gens[1].scale(F.from_int(c1))
        quad = ring.zero()
        for mono in monomials_of_degree(ring, 2):
            quad = quad + ring.monomial(mono, F.from_int(data.draw(st.integers(-2, 2))))
        M = HomIdeal(ring, (line, quad))
    rep = truncated_tor_over_quotient(Q, M, P, j_max=1, deg_bound=5)
    assert rep.table[1] == [_brute_tor1(Q, M, P, n, F.char) for n in range(6)]


def _compose(outer, v):
    """outer applied to v: sum over components k of v_k * (column k)."""
    out = outer.target.zero()
    for k, p in v.comps.items():
        for mono, c in p.terms.items():
            out = out + outer.columns[k].term_mul(c, mono)
    return out


@pytest.mark.parametrize("ring", [RQ, R7], ids=["Q", "GF7"])
def test_quotient_resolution_composes_into_q_times_the_target(ring):
    # over the nodal cubic both resolutions turn 2-periodic up to a shift by
    # the cubic's degree (a matrix factorization); minimal, so no rank grows
    Q = ideal(ring, "x1^2*x2 - x0^3 - x0^2*x2")
    shapes = {
        ("x0", "x1"): [(0,), (1, 1), (2, 3), (4, 4), (5, 6), (7, 7)],
        ("x0 + x1", "x1^2 - x0*x2"): [(0,), (1, 2), (3, 4), (5, 5), (6, 7), (8, 8)],
    }
    for gens, degrees in shapes.items():
        res = free_resolution(ideal(ring, *gens), 5, modulo=Q)
        assert [m.degrees for m in res.modules] == degrees
        for j in range(1, res.length):
            target = res.maps[j - 1].target
            QF = module_groebner([MVec(target, {k: g}) for g in Q.gens
                                  for k in range(target.rank)])
            for v in res.maps[j].columns:
                assert submodule_contains(QF, _compose(res.maps[j - 1], v))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_zero_modulo_resolves_over_the_polynomial_ring(data):
    I = data.draw(monomial_ideal(RQ))
    plain = free_resolution(I)
    zero = free_resolution(I, modulo=HomIdeal(RQ, ()))
    assert zero.modules == plain.modules
    assert [m.columns for m in zero.maps] == [m.columns for m in plain.maps]


def test_nonzero_modulo_needs_a_length():
    with pytest.raises(ValueError, match="length"):
        free_resolution(CUSP, modulo=CUBIC)
