"""Kernel tests: term orders, parsing, Buchberger, ideal calculus, Hilbert data.

Derived constants in the frozen-value tests were produced by the naive
reference implementations in oracles.py; the property tests re-check the
real implementations against those references on random inputs.
"""

from fractions import Fraction
from functools import reduce as _fold
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import cli, freemod, polykernel
from geomideal.fields import QQ, PrimeField
from geomideal.idealizer import IdealizerScene
from geomideal.linalg import NormalForms
from geomideal.polykernel import (
    HomIdeal,
    Poly,
    PolyRing,
    TermOrder,
    buchberger,
    codimension,
    degree_piece_basis,
    degrevlex,
    dim_ideal_piece,
    groebner_basis,
    hilbert_function,
    hilbert_polynomial,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    intersect,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    monomial_primary_decomposition,
    monomial_radical,
    monomials_of_degree,
    normal_form,
    saturate,
    unit_ideal,
)
from geomideal.twist import ProjAutomorphism

ROOT = Path(__file__).resolve().parents[1]
RQ = PolyRing(QQ, 3)
R7 = PolyRing(PrimeField(7), 3)
RINGS = [RQ, R7]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def homogeneous_poly(draw, ring, max_deg=3):
    deg = draw(st.integers(1, max_deg))
    monos = monomials_of_degree(ring, deg)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = [
        draw(st.integers(-4, 4).filter(lambda v: v != 0)) for _ in chosen
    ]
    p = ring.zero()
    for m, c in zip(chosen, coeffs):
        p = p + ring.monomial(m, ring.field.from_int(c))
    return p


@st.composite
def ring_and_ideal(draw, max_gens=3, max_deg=3):
    ring = draw(st.sampled_from(RINGS))
    gens = draw(
        st.lists(homogeneous_poly(ring, max_deg), min_size=1, max_size=max_gens)
    )
    return ring, HomIdeal(ring, gens)


def _char(ring):
    return ring.field.char


def _terms_list(ideal):
    return [dict(g.terms) for g in ideal.gens]


# ---------------------------------------------------------------------------
# orders and parsing
# ---------------------------------------------------------------------------

def test_degrevlex_classic_comparison():
    # x1^2 beats x0*x2 under degrevlex
    drl = degrevlex(3)
    a, b = (1, 0, 1), (0, 2, 0)  # x0*x2, x1^2
    assert drl.key(b) > drl.key(a)


def test_order_validation():
    with pytest.raises(ValueError):
        PolyRing(QQ, 3, degrevlex(4))
    with pytest.raises(ValueError):
        from geomideal.polykernel import TermOrder

        TermOrder("weird", 3)
    with pytest.raises(ValueError):
        TermOrder("lex", 3)


def test_parse_spec_shapes():
    f = RQ.parse("x0^2 + 3/2*x0*x1 - x2^2")
    assert RQ.format_poly(f) == "x0^2 + 3/2*x0*x1 - x2^2"
    g = RQ.parse("-x0 + 2*x1")
    assert g.terms[(1, 0, 0)] == Fraction(-1)
    assert RQ.parse("(x0 + x1)^2") == RQ.parse("x0^2 + 2*x0*x1 + x1^2")
    assert RQ.parse("x0**2") == RQ.parse("x0^2")
    assert RQ.parse("0").is_zero()


@pytest.mark.parametrize("bad", ["x0 +", "x9^2 + x0", "x0 ^ x1", "2 // 3", "(x0", "x0 x$"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        PolyRing(QQ, 2).parse(bad)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(data):
    ring = data.draw(st.sampled_from(RINGS))
    f = data.draw(homogeneous_poly(ring))
    assert ring.parse(ring.format_poly(f)) == f


# ---------------------------------------------------------------------------
# Groebner bases vs the naive oracle
# ---------------------------------------------------------------------------

@given(ring_and_ideal(max_deg=2))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_groebner_matches_naive_oracle(ri):
    ring, I = ri
    got = {frozenset(g.terms.items()) for g in I.groebner()}
    want = oracles.naive_groebner(_terms_list(I), _char(ring))
    assert got == want


@given(ring_and_ideal())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_groebner_insensitive_to_generator_order(ri):
    ring, I = ri
    rev = HomIdeal(ring, list(reversed(list(I.gens))))
    assert I.groebner() == rev.groebner()


# ---------------------------------------------------------------------------
# Buchberger pair order, pinned by normal-form call counts recorded with the
# earlier min-over-all-pending-pairs selection
# ---------------------------------------------------------------------------

def _nf_calls(gens):
    """How many S-elements buchberger hands to normal_form for gens."""
    calls = []

    def nf(f, G):
        calls.append(f)
        return normal_form(f, G)

    buchberger(gens, Poly.sort_key, nf)
    return len(calls)


def _elim_gens(ring, I, J):
    """The elimination-ring gens t*I + (1-t)*J that intersect(I, J) builds
    when neither ideal contains the other."""
    ering = ring.with_elim_var()
    t = ering.variable(ring.nvars)

    def lift(f):
        return Poly(ering, {m + (0,): c for m, c in f.terms.items()})

    return [t * lift(f) for f in I] + [(ering.one() - t) * lift(g) for g in J]


def _moving_point_nf_calls(ring, Z, moved):
    """nf calls for the meets of Z = V(point) with V(g), one per generator
    g of Z^sigma (the elimination route of (Z : Z^sigma) divides Z by each
    g), and then with the moved point V(Z^sigma) itself."""
    Z, moved = [ring.parse(f) for f in Z], [ring.parse(f) for f in moved]
    meets = [[g] for g in moved] + [moved]
    return [_nf_calls(_elim_gens(ring, Z, J)) for J in meets]


def test_pair_order_pinned_on_moving_point_colon():
    # Z = [1:1:1] in P^2 and its pullback under diag(1, 2, 3)
    assert _moving_point_nf_calls(
        RQ, ["x0 - x2", "x1 - x2"], ["x0 - 3*x2", "2*x1 - 3*x2"]
    ) == [7, 7, 7]


def test_pair_order_pinned_on_p5_point_colon():
    # Z = [1:2:3:4:5:2] in P^5 and its pullback under diag(1, 2, 3, 5, 7, 11)
    coords, lams = [2, 3, 4, 5, 2], [2, 3, 5, 7, 11]
    Z = [f"x{i} - {c}*x0" for i, c in enumerate(coords, start=1)]
    moved = [f"{lam}*x{i} - {c}*x0"
             for i, (lam, c) in enumerate(zip(lams, coords), start=1)]
    assert _moving_point_nf_calls(PolyRing(QQ, 6), Z, moved) == [35, 35, 35, 35, 35, 29]


def test_pair_order_takes_late_pairs_with_smaller_keys_first():
    """Inhomogeneous elim input: reductions create pairs whose lcm's have
    lower degree than pairs already taken, and those are taken next."""
    ering = PolyRing(QQ, 4, TermOrder("elim", 4))  # x3 is eliminated first
    gens = [ering.parse(f) for f in
            ["2*x0*x1*x2^2*x3^2 + x3", "2*x0^2*x1^2*x2 - x0*x1", "2 - x2*x3^2"]]
    taken = []

    def nf(f, G):
        # the lcm degree of the pair whose S-element f is
        for j in range(len(G)):
            for i in range(j):
                (mi, _), (mj, _) = G[i].lt(), G[j].lt()
                lcm = mono_lcm(mi, mj)
                if f == G[i].term_mul(1, mono_div(lcm, mi)) - G[j].term_mul(1, mono_div(lcm, mj)):
                    taken.append(mono_deg(lcm))
                    return normal_form(f, G)
        raise AssertionError("not an S-element of the basis")

    buchberger(gens, Poly.sort_key, nf)
    assert taken == [6, 3, 6, 4, 3, 3, 5]


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_normal_form_matches_naive_division(data):
    """The heap division takes the first divisor that fits, like schoolbook
    division, so it matches the oracle term for term on any divisor list,
    Groebner basis or not."""
    ring, I = data.draw(ring_and_ideal())
    f = data.draw(homogeneous_poly(ring, max_deg=4))
    for basis in (list(I.gens), list(I.groebner())):
        want = oracles.naive_normal_form(dict(f.terms), [dict(g.terms) for g in basis],
                                         _char(ring))
        assert dict(normal_form(f, basis).terms) == want


@pytest.mark.parametrize("kind", ["degrevlex", "elim"])
def test_descending_key_reverses_the_order(kind):
    order = TermOrder(kind, 3)
    monos = [m for n in range(4) for m in monomials_of_degree(PolyRing(QQ, 3), n)]
    assert (sorted(monos, key=order.descending_key)
            == sorted(monos, key=order.key, reverse=True))


@given(st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_membership_matches_linear_oracle(data):
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    f = data.draw(homogeneous_poly(ring, max_deg=3))
    got = I.contains(f)
    want = oracles.brute_membership(_terms_list(I), dict(f.terms), ring.nvars, _char(ring))
    assert got == want


@given(st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_constructed_combinations_are_members(data):
    ring, I = data.draw(ring_and_ideal())
    f = ring.zero()
    for g in I.gens:
        mu = data.draw(homogeneous_poly(ring, max_deg=2))
        f = f + mu * g
    assert normal_form(f, list(I.groebner())).is_zero()


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_summed_monomial_normal_forms_equal_the_normal_form_of_the_product(data):
    ring, I = data.draw(ring_and_ideal())
    gb = list(I.groebner())
    table = NormalForms(ring, gb)

    def nf(terms, shift=None):
        return {t: c for t, c in table.terms(terms, shift).items()
                if not ring.field.is_zero(c)}

    for _ in range(3):
        f = data.draw(homogeneous_poly(ring))
        mu = data.draw(st.sampled_from(monomials_of_degree(ring, data.draw(st.integers(0, 3)))))
        assert nf(f.terms, mu) == normal_form(f.term_mul(ring.field.one, mu), gb).terms
        assert nf(f.terms) == normal_form(f, gb).terms


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_degree_pieces_ignore_generator_order_and_scale(data):
    ring, I = data.draw(ring_and_ideal())
    gens = data.draw(st.permutations(I.gens))
    scales = data.draw(st.lists(st.sampled_from([2, -1, 3, -5]),
                                min_size=len(gens), max_size=len(gens)))
    J = HomIdeal(ring, [g.scale(ring.field.from_int(c)) for g, c in zip(gens, scales)])
    for m in range(5):
        assert ([p.terms for p in degree_piece_basis(J, m)]
                == [p.terms for p in degree_piece_basis(I, m)])


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scaling_carries_the_leading_term(data):
    """scale hands over a known leading term and monic goes through scale;
    the term handed over must be the one a fresh scan finds."""
    ring, _ = data.draw(ring_and_ideal())
    f = data.draw(homogeneous_poly(ring, max_deg=4))
    c = ring.field.from_int(data.draw(st.sampled_from([2, -1, 3, -5])))
    f.lt()
    for g in (f.scale(c), f.monic()):
        assert g.lt() == Poly(ring, dict(g.terms)).lt()
    assert f.monic().lc() == ring.field.one


# ---------------------------------------------------------------------------
# ideal calculus
# ---------------------------------------------------------------------------

def test_colon_frozen_family():
    # ((x0+x1, x0^2) : (x0 + 2^n x1, x0^2)) = (x0, x1) for n = 1..5
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    target = HomIdeal.from_strings(RQ, ["x0", "x1"])
    for n in range(1, 6):
        J = HomIdeal.from_strings(RQ, [f"x0 + {2 ** n}*x1", "x0^2"])
        assert ideal_equal(ideal_quotient(I, J), target), f"n={n}"


def test_colon_by_itself_is_unit():
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    assert ideal_quotient(I, I).is_unit()


def test_saturate_strips_embedded_vertex():
    I = HomIdeal.from_strings(RQ, ["x0^2", "x0*x1", "x0*x2"])
    S = saturate(I)
    assert ideal_equal(S, HomIdeal.from_strings(RQ, ["x0"]))


def test_saturate_fixed_point_flagged():
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    S = saturate(I)
    assert ideal_equal(S, I)


def test_intersect_two_points():
    A = HomIdeal.from_strings(RQ, ["x0", "x1"])
    B = HomIdeal.from_strings(RQ, ["x0", "x2"])
    assert ideal_equal(intersect(A, B), HomIdeal.from_strings(RQ, ["x0", "x1*x2"]))


def test_unit_and_irrelevant_edges():
    assert hilbert_polynomial(unit_ideal(RQ)).is_zero()
    assert hilbert_polynomial(HomIdeal.from_strings(RQ, ["x0", "x1", "x2"])).is_zero()
    assert codimension(unit_ideal(RQ)) == 3
    assert ideal_quotient(HomIdeal.from_strings(RQ, ["x0"]), unit_ideal(RQ)).groebner() == \
        HomIdeal.from_strings(RQ, ["x0"]).groebner()


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError):
        HomIdeal.from_strings(RQ, ["x0^2 + x1"])


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_colon_adjunction(data):
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    _, J = data.draw(ring_and_ideal(max_deg=2))
    if J.ring != ring:
        return
    Q = ideal_quotient(I, J)
    # I <= (I : J) and J * (I : J) <= I
    for g in I.gens:
        assert Q.contains(g)
    for g in J.gens:
        for q in Q.gens:
            assert I.contains(g * q)


@given(st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_colon_piece_dimension_matches_oracle(data):
    ring, I = data.draw(ring_and_ideal(max_deg=2, max_gens=2))
    g = data.draw(homogeneous_poly(ring, max_deg=2))
    Q = ideal_quotient(I, HomIdeal(ring, [g]))
    for n in range(0, 4):
        want = oracles.brute_colon_piece_dim(
            _terms_list(I), dict(g.terms), ring.nvars, n, _char(ring)
        )
        assert dim_ideal_piece(Q, n) == want


@given(ring_and_ideal(max_deg=2))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_saturation_idempotent(ri):
    _, I = ri
    S = saturate(I)
    assert ideal_equal(saturate(S), S)


@given(st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_quotient_preserves_saturation(data):
    ring, I0 = data.draw(ring_and_ideal(max_deg=2, max_gens=2))
    _, J = data.draw(ring_and_ideal(max_deg=2, max_gens=2))
    if J.ring != ring:
        return
    I = saturate(I0)
    Q = ideal_quotient(I, J)
    assert ideal_equal(saturate(Q), Q)


def _colon_fixpoint(I):
    """(I : m^∞) as the first repeat of I, (I : m), ((I : m) : m), ..."""
    m = HomIdeal(I.ring, [I.ring.variable(i) for i in range(I.ring.nvars)])
    cur, nxt = I, ideal_quotient(I, m)
    while not ideal_equal(nxt, cur):
        cur, nxt = nxt, ideal_quotient(nxt, m)
    return cur


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_saturate_matches_the_colon_fixpoint(data):
    """One pass over the (I : x_i^∞) against the iterated colon by m, on
    drawn ideals, on I·x_i^k, and on I meeting the coordinate point where
    only x_i is nonzero (an associated prime that contains the other x_j)."""
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    shape = data.draw(st.sampled_from(["as drawn", "times a power", "meet a point"]))
    i = data.draw(st.integers(0, ring.nvars - 1))
    if shape == "times a power":
        xi_k = ring.variable(i) ** data.draw(st.integers(1, 3))
        I = HomIdeal(ring, [f * xi_k for f in I.gens])
    elif shape == "meet a point":
        I = intersect(I, HomIdeal(ring, [ring.variable(j) for j in range(ring.nvars) if j != i]))
    assert ideal_equal(saturate(I), _colon_fixpoint(I))


@pytest.mark.parametrize("ring, texts", [
    (RQ, ["2*x0 - 4*x2", "x1 + 3*x0 - x2"]),  # generators not reduced
    (RQ, ["x0 + x1", "x0^2"]),
    (RQ, ["x0*x2 - x1^2"]),
    (R7, ["3*x1 - x2", "x0 - 5*x2"]),
], ids=["point", "double point", "conic", "GF(7) point"])
def test_saturate_keeps_the_generators_of_a_saturated_ideal(ring, texts):
    I = HomIdeal.from_strings(ring, texts)
    assert saturate(I).gens == I.gens


@given(st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hilbert_inclusion_exclusion(data):
    ring, I = data.draw(ring_and_ideal(max_deg=2, max_gens=2))
    _, J = data.draw(ring_and_ideal(max_deg=2, max_gens=2))
    if J.ring != ring:
        return
    meet, add = intersect(I, J), ideal_sum(I, J)
    for n in range(5):
        lhs = hilbert_function(meet, n) + hilbert_function(add, n)
        rhs = hilbert_function(I, n) + hilbert_function(J, n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the revlex quotient route and the containment shortcut against elimination
# ---------------------------------------------------------------------------

def _elim_meet(I, J):
    """Reduced basis of I ∩ J by eliminating t from t·I + (1−t)·J."""
    return [Poly(I.ring, {m[:-1]: c for m, c in f.terms.items()})
            for f in groebner_basis(_elim_gens(I.ring, I.gens, J.gens))
            if all(m[-1] == 0 for m in f.terms)]


def _divide_exact(f, g):
    """f / g, for an f that g divides."""
    field = f.ring.field
    q: dict = {}
    p = f
    glm, glc = g.lt()
    while p.terms:
        m, c = p.lt()
        assert mono_divides(glm, m), "intersection element not divisible by the divisor"
        qm = mono_div(m, glm)
        q[qm] = field.div(c, glc)
        p = p - g.term_mul(q[qm], qm)
    return Poly(f.ring, q)


def _elim_quotient(I, g):
    """(I : g) as (1/g)·(I ∩ (g)), with the meet by elimination."""
    meet = _elim_meet(I, HomIdeal(I.ring, [g]))
    return HomIdeal(I.ring, [_divide_exact(f, g) for f in meet])


@st.composite
def linear_divisor(draw, ring):
    """A linear form: random, a multiple of the last variable, a multiple of
    another single variable, or one with no last-variable term."""
    kind = draw(st.sampled_from(["random", "last", "other", "no-last"]))
    last = ring.nvars - 1
    coeff = st.integers(-3, 3)
    if kind == "last":
        coeffs = [0] * last + [draw(coeff.filter(bool))]
    elif kind == "other":
        coeffs = [0] * ring.nvars
        coeffs[draw(st.integers(0, last - 1))] = draw(coeff.filter(bool))
    else:
        coeffs = draw(st.lists(coeff, min_size=ring.nvars, max_size=ring.nvars).filter(any))
        if kind == "no-last":
            coeffs[last] = 0
            if not any(coeffs):
                coeffs[0] = 1
    return sum((ring.variable(i).scale(ring.field.from_int(c)) for i, c in enumerate(coeffs)),
               ring.zero())


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_linear_quotient_matches_elimination(data):
    """The revlex route's cached basis is the reduced basis that the
    elimination route finds."""
    ring, I = data.draw(ring_and_ideal())
    g = data.draw(linear_divisor(ring))
    shape = data.draw(st.sampled_from(["as drawn", "times g", "contains g", "times h"]))
    if shape == "times g":  # non-prime, and (I·g : g) = I
        I = HomIdeal(ring, [f * g for f in I.gens])
    elif shape == "contains g":  # the unit colon
        I = HomIdeal(ring, list(I.gens) + [g])
    elif shape == "times h":  # non-prime
        h = data.draw(linear_divisor(ring))
        I = HomIdeal(ring, [f * h for f in I.gens])
    got = ideal_quotient(I, HomIdeal(ring, [g]))
    want = _elim_quotient(I, g)
    assert got.groebner() == want.groebner()
    if shape == "contains g":
        assert got.is_unit()


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_intersect_of_nested_ideals_matches_elimination(data):
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    _, J = data.draw(ring_and_ideal(max_deg=2))
    if J.ring != ring:
        return
    K = ideal_sum(I, J)
    want = HomIdeal(ring, _elim_meet(I, K))
    for meet in (intersect(I, K), intersect(K, I)):
        assert meet.gens == want.gens
        assert meet.groebner() == want.groebner()


@st.composite
def quotient_case(draw):
    """(ring, I, J) with J not all linear: one nonlinear generator, several
    mixed-degree generators, those and a constant, or one and a member of
    I; I drawn, zero, or drawn so that neither of I and J contains the
    other."""
    ring, I = draw(ring_and_ideal(max_deg=2))
    shape = draw(st.sampled_from(["nonlinear", "mixed", "constant", "member of I"]))
    linear = homogeneous_poly(ring, max_deg=1)
    gens = [draw(homogeneous_poly(ring, max_deg=3).filter(lambda g: g.degree > 1))]
    if shape in ("mixed", "constant"):
        gens += [draw(linear)] + draw(st.lists(homogeneous_poly(ring, max_deg=3), max_size=1))
    if shape == "constant":
        gens.append(ring.constant(ring.field.from_int(draw(st.integers(1, 6)))))
    elif shape == "member of I":
        gens.append(I.gens[0] * draw(linear))
    J = HomIdeal(ring, gens)
    kind = draw(st.sampled_from(["as drawn", "zero", "not nested"]))
    if kind == "zero":
        I = HomIdeal(ring, [])
    elif kind == "not nested":
        assume(not all(map(J.contains, I.gens)) and not all(map(I.contains, J.gens)))
    return ring, I, J


@given(quotient_case())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_quotient_and_intersect_match_elimination(case):
    """The module preimage against the elimination route kept here as the
    reference: (I : J) as the meet of the (I : g), g in J, and I ∩ J."""
    ring, I, J = case
    want = _fold(intersect, [_elim_quotient(I, g) for g in J.gens])
    assert ideal_quotient(I, J).groebner() == want.groebner()
    assert intersect(I, J).groebner() == tuple(_elim_meet(I, J))


@pytest.fixture
def buchberger_orders(monkeypatch):
    """The term order kind of every Buchberger run, polynomial or module."""
    orders = []
    real = polykernel.buchberger

    def counting(gens, sort_key, nf):
        orders.extend(g.ring.order.kind for g in gens[:1])
        return real(gens, sort_key, nf)

    monkeypatch.setattr(polykernel, "buchberger", counting)
    monkeypatch.setattr(freemod, "buchberger", counting)
    return orders


def test_p5_point_colon_runs_no_elimination(buchberger_orders):
    """Set-up (saturation) and colon_ideal(1) on the P^5 point of
    test_pair_order_pinned_on_p5_point_colon divide only by linear forms, so
    no Groebner basis is computed in an elimination ring."""
    ring = PolyRing(QQ, 6)
    coords = [2, 3, 4, 5, 2]
    Z = HomIdeal.from_strings(ring, [f"x{i} - {c}*x0" for i, c in enumerate(coords, start=1)])
    sigma = ProjAutomorphism.diagonal(ring, ["1", "2", "3", "5", "7", "11"])
    scene = IdealizerScene(ring, sigma, Z)
    assert not scene.colon_ideal(1).is_unit()
    assert buchberger_orders and "elim" not in buchberger_orders


TWISTED_CUBIC = """\
field rational
dim 3
sigma
1 0 0 0
0 2 0 0
0 0 3 0
0 0 0 5
ideal
x0*x2 - x1^2
x0*x3 - x1*x2
x1*x3 - x2^2
end
"""


@pytest.mark.parametrize("command", ["colon", "classify", "idealizer"])
@pytest.mark.parametrize("scene", ["conic_pair", "fat_point", "twisted_cubic"])
def test_cli_on_curves_and_fat_points_runs_no_elimination(scene, command, tmp_path,
                                                          buchberger_orders):
    """A Z that is not a linear point takes the module preimage for its
    colons and intersections, so no command builds an elimination ring."""
    if scene == "twisted_cubic":
        path = tmp_path / "twisted_cubic.scene"
        path.write_text(TWISTED_CUBIC)
    else:
        path = ROOT / "scenes" / f"{scene}.scene"
    assert cli.main([command, str(path)]) == 0
    assert buchberger_orders and "elim" not in buchberger_orders


# ---------------------------------------------------------------------------
# Hilbert data
# ---------------------------------------------------------------------------

def test_conic_hilbert_polynomial():
    C = HomIdeal.from_strings(RQ, ["x0*x2 - x1^2"])
    hp = hilbert_polynomial(C)
    assert hp.coeffs == (Fraction(1), Fraction(2))
    assert hp.pretty() == "2*n + 1"
    assert codimension(C) == 1
    assert [hilbert_function(C, n) for n in range(5)] == [1, 3, 5, 7, 9]


def test_fat_point_hilbert_data():
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    assert [hilbert_function(I, n) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    hp = hilbert_polynomial(I)
    assert hp.coeffs == (Fraction(2),)
    assert codimension(I) == 2


@given(ring_and_ideal())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hilbert_function_matches_brute_count(ri):
    ring, I = ri
    for n in range(5):
        want = oracles.brute_hilbert_function(_terms_list(I), ring.nvars, n, _char(ring))
        assert hilbert_function(I, n) == want


@given(ring_and_ideal(max_deg=2))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hilbert_polynomial_agrees_eventually(ri):
    ring, I = ri
    hp = hilbert_polynomial(I)
    bound = sum(g.degree for g in I.groebner()) + 1 if I.groebner() else 1
    for n in range(bound, bound + 3):
        assert hp(n) == hilbert_function(I, n)


@given(ring_and_ideal(max_deg=2, max_gens=2))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_degree_piece_basis_dimension(ri):
    ring, I = ri
    for n in range(4):
        basis = degree_piece_basis(I, n)
        assert len(basis) == dim_ideal_piece(I, n)
        for b in basis:
            assert I.contains(b)


def _oracle_piece_rref(ring, I, n):
    """The reduced row echelon form of I_n from the oracle's spanning rows,
    with the columns reordered to monomials_of_degree (decreasing)."""
    monos = monomials_of_degree(ring, n)
    col = {m: i for i, m in enumerate(oracles.monomials(ring.nvars, n))}
    rows = [[row[col[m]] for m in monos]
            for row in oracles.degree_piece_rows(_terms_list(I), ring.nvars, n, _char(ring))]
    reduced, rank = oracles.rref_rank(rows, _char(ring))
    return reduced[:rank]


def _piece_rows(ring, basis, n):
    monos = monomials_of_degree(ring, n)
    return [[b.terms.get(m, 0) for m in monos] for b in basis]


@given(ring_and_ideal(max_deg=2))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_degree_piece_basis_is_the_oracle_rref(ri):
    ring, I = ri
    for n in range(5):
        assert _piece_rows(ring, degree_piece_basis(I, n), n) == _oracle_piece_rref(ring, I, n)


@pytest.mark.parametrize("ring", RINGS, ids=["QQ", "GF7"])
def test_degree_piece_basis_of_zero_and_unit_ideals(ring):
    for I in (HomIdeal(ring, []), unit_ideal(ring)):
        for n in range(4):
            basis = degree_piece_basis(I, n)
            assert _piece_rows(ring, basis, n) == _oracle_piece_rref(ring, I, n)
        assert len(degree_piece_basis(I, 2)) == (0 if I.is_zero_ideal() else 6)


# ---------------------------------------------------------------------------
# monomial primary decomposition
# ---------------------------------------------------------------------------

def test_decomposition_of_line_with_embedded_point():
    I = HomIdeal.from_strings(RQ, ["x0^2", "x0*x1"])
    comps = monomial_primary_decomposition(I)
    shown = {(str(c), str(p)) for c, p in comps}
    assert shown == {
        ("HomIdeal(x0)", "HomIdeal(x0)"),
        ("HomIdeal(x1, x0^2)", "HomIdeal(x1, x0)"),
    }


@st.composite
def monomial_ideal(draw, ring, max_deg=3):
    monos = [m for d in range(1, max_deg + 1) for m in monomials_of_degree(ring, d)]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return HomIdeal(ring, [ring.monomial(m) for m in chosen])


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_monomial_decomposition_reassembles(data):
    I = data.draw(monomial_ideal(RQ))
    comps = monomial_primary_decomposition(I)
    meet = comps[0][0]
    for c, _ in comps[1:]:
        meet = intersect(meet, c)
    assert ideal_equal(meet, I)
    for c, p in comps:
        assert ideal_equal(monomial_radical(c), p)


def test_radical_of_powers():
    I = HomIdeal.from_strings(RQ, ["x0^3", "x1^2*x2^4"])
    assert ideal_equal(monomial_radical(I), HomIdeal.from_strings(RQ, ["x0", "x1*x2"]))
