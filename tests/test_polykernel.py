"""Kernel tests: the monomial order, parsing, Buchberger, ideal calculus, Hilbert data.

Derived constants in the frozen-value tests were produced by the naive
reference implementations in oracles.py; the property tests re-check the
real implementations against those references on random inputs.
"""

import math
from fractions import Fraction
from functools import reduce as _fold
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import cli, freemod, polykernel
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import RationalPoint
from geomideal.linalg import NormalForms
from geomideal.polykernel import (
    HomIdeal,
    Poly,
    PolyRing,
    buchberger,
    codimension,
    degree_piece_basis,
    dim_ideal_piece,
    hilbert_function,
    hilbert_polynomial,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    intersect,
    mono_deg,
    mono_div,
    mono_descending_key,
    mono_divides,
    mono_key,
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
# the order and parsing
# ---------------------------------------------------------------------------

def test_degrevlex_classic_comparison():
    # x1^2 beats x0*x2 under degrevlex
    a, b = (1, 0, 1), (0, 2, 0)  # x0*x2, x1^2
    assert mono_key(b) > mono_key(a)


def test_nvars_outside_the_grammar_is_rejected():
    # nvars = d + 1, and the scene grammar allows d <= 9
    for nvars in (0, 11):
        with pytest.raises(ValueError):
            PolyRing(QQ, nvars)


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
# Buchberger pair order, pinned by the normal-form call counts of the module
# preimage runs that intersect makes
# ---------------------------------------------------------------------------

def _moving_point_nf_calls(monkeypatch, ring, Z, moved):
    """nf calls that the module Buchberger makes inside intersect(Z, V(g)),
    one per generator g of Z^sigma, and then inside intersect(Z, Z^sigma)."""
    calls = []
    real = freemod.buchberger

    def counting(gens, sort_key, nf):
        def counted(f, G):
            calls.append(f)
            return nf(f, G)

        return real(gens, sort_key, counted)

    monkeypatch.setattr(freemod, "buchberger", counting)
    Z, moved = HomIdeal.from_strings(ring, Z), [ring.parse(f) for f in moved]
    out = []
    for J in [[g] for g in moved] + [moved]:
        calls.clear()
        intersect(Z, HomIdeal(ring, J))
        out.append(len(calls))
    return out


def test_pair_order_pinned_on_moving_point_colon(monkeypatch):
    # Z = [1:1:1] in P^2 and its pullback under diag(1, 2, 3)
    assert _moving_point_nf_calls(
        monkeypatch, RQ, ["x0 - x2", "x1 - x2"], ["x0 - 3*x2", "2*x1 - 3*x2"]
    ) == [6, 6, 4]


def test_pair_order_pinned_on_p5_point_colon(monkeypatch):
    # Z = [1:2:3:4:5:2] in P^5 and its pullback under diag(1, 2, 3, 5, 7, 11)
    coords, lams = [2, 3, 4, 5, 2], [2, 3, 5, 7, 11]
    Z = [f"x{i} - {c}*x0" for i, c in enumerate(coords, start=1)]
    moved = [f"{lam}*x{i} - {c}*x0"
             for i, (lam, c) in enumerate(zip(lams, coords), start=1)]
    assert (_moving_point_nf_calls(monkeypatch, PolyRing(QQ, 6), Z, moved)
            == [30, 30, 30, 30, 30, 24])


P5_MOVING_POINT = """\
field rational
dim 5
sigma
1 0 0 0 0 0
0 2 0 0 0 0
0 0 3 0 0 0
0 0 0 5 0 0
0 0 0 0 7 0
0 0 0 0 0 11
ideal
x1 - 2*x0
x2 - 3*x0
x3 - 4*x0
x4 - 5*x0
x5 - 2*x0
end
horizon 6
"""


def test_p5_moving_point_colon_takes_one_linear_quotient_per_degree(tmp_path, monkeypatch):
    """On the point of test_pair_order_pinned_on_p5_point_colon, saturation
    stops at its nonzerodivisor test (x5 divides no leading monomial), and
    each colon n stops at its first linear quotient, which is already I."""
    powers = []
    real = polykernel._linear_quotient_basis

    def counting(I, g, power):
        powers.append(power)
        return real(I, g, power)

    monkeypatch.setattr(polykernel, "_linear_quotient_basis", counting)
    path = tmp_path / "p5_point.scene"
    path.write_text(P5_MOVING_POINT)
    assert cli.main(["colon", str(path)]) == 0
    assert powers == [1] * 6


def test_pair_order_takes_late_pairs_with_smaller_keys_first():
    """Inhomogeneous input: reductions create pairs whose lcm's have lower
    degree than pairs already taken, and those are taken next."""
    gens = [RQ.parse(f) for f in ["x0^2*x1^2*x2^2 - x0^2*x1^2 + 3*x0", "3*x1 + 3*x2 + x0",
                                  "-x0^2*x1^2*x2 - x0^2 + 1"]]
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
    assert taken == [5, 6, 5, 6, 5, 5, 6, 6]


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


def test_descending_key_reverses_the_order():
    monos = [m for n in range(4) for m in monomials_of_degree(RQ, n)]
    assert sorted(monos, key=mono_descending_key) == sorted(monos, key=mono_key, reverse=True)


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
    """Reduced basis of I ∩ J by eliminating t from t·I + (1−t)·J, with the
    oracle's Buchberger under its elimination order, sorted by decreasing
    leading monomial."""
    field = I.ring.field
    gens = ([{m + (1,): c for m, c in f.terms.items()} for f in I.gens]
            + [{**{m + (0,): c for m, c in g.terms.items()},
                **{m + (1,): field.neg(c) for m, c in g.terms.items()}} for g in J.gens])
    basis = oracles.naive_groebner(gens, _char(I.ring), key=oracles.elim_key)
    meet = [Poly(I.ring, {m[:-1]: c for m, c in f}) for f in basis
            if all(m[-1] == 0 for m, _ in f)]
    return sorted(meet, key=lambda f: mono_key(f.lm()), reverse=True)


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


# ---------------------------------------------------------------------------
# the nonzerodivisor exits of saturate and the linear colon against the
# full routes (every (I : x_i^∞), every (I : g), intersected)
# ---------------------------------------------------------------------------

SCENE_RINGS = [PolyRing(field, n) for field in (QQ, PrimeField(7)) for n in (3, 4, 5)]


def _full_saturate(I):
    ring = I.ring
    parts = [polykernel._linear_quotient_basis(I, ring.variable(i), math.inf)
             for i in range(ring.nvars)]
    sat = _fold(intersect, [HomIdeal(ring, H, gb=H) for H in parts])
    return I if all(map(I.contains, sat.gens)) else sat


def _full_linear_colon(I, J):
    gens = [g for g in J.gens if not I.contains(g)]
    if not gens:
        return unit_ideal(I.ring)
    parts = [polykernel._linear_quotient_basis(I, g, 1) for g in gens]
    return _fold(intersect, [HomIdeal(I.ring, H, gb=H) for H in parts])


@st.composite
def moving_scene(draw):
    """(ring, sigma, Z, e_k): sigma diagonal, so it fixes every coordinate
    point e_k (and more when eigenvalues repeat); Z a point (on x_d = 0 at
    times), a line, a conic in a plane, a fat point, or one of the first
    three together with e_k."""
    ring = draw(st.sampled_from(SCENE_RINGS))
    field, nv = ring.field, ring.nvars
    sigma = ProjAutomorphism.diagonal(
        ring, [field.from_int(draw(st.sampled_from([1, 2, 3, 5, -1, -2]))) for _ in range(nv)])
    k = draw(st.integers(0, nv - 1))
    e_k = HomIdeal(ring, [ring.variable(i) for i in range(nv) if i != k])

    def point():
        coords = draw(st.lists(st.integers(-3, 3), min_size=nv, max_size=nv)
                      .filter(lambda c: any(field.from_int(v) for v in c)))
        return RationalPoint.of(field, [field.from_int(v) for v in coords]).ideal(ring)

    def plane_section(codim):
        return [draw(linear_divisor(ring)) for _ in range(codim)]

    kind = draw(st.sampled_from(["point", "line", "conic", "fat point", "union"]))
    inner = draw(st.sampled_from(["point", "line", "conic"])) if kind == "union" else kind
    if inner == "point":
        Z = point()
    elif inner == "line":
        Z = HomIdeal(ring, plane_section(nv - 2))
    elif inner == "conic":
        l1, l2, l3, l4 = plane_section(4)
        Z = HomIdeal(ring, plane_section(nv - 3) + [l1 * l2 + l3 * l4])
    else:
        gens = point().gens
        Z = HomIdeal(ring, [f * g for f in gens for g in gens])
    if kind == "union":
        Z = intersect(Z, e_k)
    return ring, sigma, Z, e_k


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_saturate_exit_matches_the_full_route(data):
    """saturate returns I when x_last divides no leading monomial.  On I·x_last
    and on I·m (not saturated) x_last divides one, so the loop over the
    (I : x_i^∞) still runs.  Z is a drawn scene or the fixed point e_k."""
    ring, _, Z, e_k = data.draw(moving_scene())
    Z = data.draw(st.sampled_from([Z, e_k]))
    shape = data.draw(st.sampled_from(["as drawn", "times x_last", "times m"]))
    factors = {"as drawn": [ring.one()], "times x_last": [ring.variable(ring.nvars - 1)],
               "times m": [ring.variable(i) for i in range(ring.nvars)]}[shape]
    I = HomIdeal(ring, [x * g for x in factors for g in Z.gens])
    got, want = saturate(I), _full_saturate(I)
    assert got.gens == want.gens
    assert got.groebner() == want.groebner()


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_linear_colon_exit_matches_the_full_route(data):
    """(I : J) for J the pullback under sigma^n of a linear ideal: Z's own
    linear forms (the colon of the idealizer), the fixed point e_k (larger
    than I on a union), or random forms; n = 0 gives unit colons."""
    ring, sigma, Z, e_k = data.draw(moving_scene())
    I = saturate(Z)
    source = data.draw(st.sampled_from(["own", "fixed point", "random"]))
    if source == "own":
        L = HomIdeal(ring, [g for g in I.gens if g.degree == 1] or e_k.gens)
    elif source == "fixed point":
        L = e_k
    else:
        L = HomIdeal(ring, [data.draw(linear_divisor(ring))
                            for _ in range(data.draw(st.integers(1, ring.nvars - 1)))])
    J = sigma.pullback_ideal(L, data.draw(st.integers(0, 2)))
    got, want = ideal_quotient(I, J), _full_linear_colon(I, J)
    assert got.gens == want.gens
    assert got.groebner() == want.groebner()


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


PREIMAGE_RUNS = {"colon": 12, "classify": 12, "idealizer": 6}


@pytest.mark.parametrize("command", ["colon", "classify", "idealizer"])
@pytest.mark.parametrize("scene", ["conic_pair", "fat_point", "twisted_cubic"])
def test_cli_on_curves_and_fat_points_runs_no_elimination(scene, command, tmp_path,
                                                          monkeypatch):
    """Each command exits 0.  The curves take the module preimage for their
    nonlinear colons (12 preimage runs for colon and classify, 6 for
    idealizer); the fat point takes none, since the generator x0^2 of its J
    lies in I and the rest of J is linear."""
    runs = []
    real = freemod.preimage_generators

    def counting(vecs, targets):
        runs.append(len(vecs))
        return real(vecs, targets)

    monkeypatch.setattr(freemod, "preimage_generators", counting)
    if scene == "twisted_cubic":
        path = tmp_path / "twisted_cubic.scene"
        path.write_text(TWISTED_CUBIC)
    else:
        path = ROOT / "scenes" / f"{scene}.scene"
    assert cli.main([command, str(path)]) == 0
    assert len(runs) == (0 if scene == "fat_point" else PREIMAGE_RUNS[command])


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
