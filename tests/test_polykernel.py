"""Kernel tests: the monomial order, parsing, Groebner bases, ideal calculus, Hilbert data.

Derived constants in the frozen-value tests were produced by the naive
reference implementations in oracles.py; the property tests re-check the
real implementations against those references on random inputs.
"""

import sys
import tracemalloc
from fractions import Fraction
from functools import reduce as _fold
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import cli, freemod, idealizer, linalg, polykernel
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import RationalPoint
from geomideal.homology import free_resolution, tor_from_resolution
from geomideal.linalg import NormalForms
from geomideal.polykernel import (
    HomIdeal,
    Poly,
    PolyRing,
    codimension,
    degree_piece_basis,
    dim_ideal_piece,
    groebner_basis,
    hilbert_dimension,
    hilbert_function,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    intersect,
    mono_div,
    mono_descending_key,
    mono_divides,
    mono_key,
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
def homogeneous_poly(draw, ring, max_deg=3, min_deg=1):
    deg = draw(st.integers(min_deg, max_deg))
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


def _hilbert_dimension(I):
    return hilbert_dimension(I.hilbert_numerator(), I.ring.nvars)


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


def test_poly_hash_ignores_term_order_and_is_kept():
    """Equal polynomials hash alike whatever order their terms were built
    in, and the hash a Poly keeps is the one it had before keying a memo."""
    terms = list(RQ.parse("x0^2 - 3*x1*x2 + x2^2").terms.items())
    p, q = Poly(RQ, dict(terms)), Poly(RQ, dict(reversed(terms)))
    assert list(p.terms) != list(q.terms)
    before = hash(p)
    assert hash(q) == before
    memo = {p: "kept"}
    assert hash(p) == before == hash(Poly(RQ, dict(terms)))
    assert memo[q] == "kept"


@pytest.mark.parametrize("bad", ["x0 +", "x9^2 + x0", "x0 ^ x1", "2 // 3", "(x0", "x0 x$"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        PolyRing(QQ, 2).parse(bad)


def test_parsing_a_large_power_allocates_no_list_of_factors():
    """x0^N squares its way up: parsing x0^1000000 peaks under 1 MB, where
    a fold over N factors would hold N references before any cap is read."""
    tracemalloc.start()
    try:
        f = RQ.parse("x0^1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f == RQ.monomial((1000000, 0, 0))
    assert peak < 1 << 20


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF7"])
def test_power_is_the_repeated_product(ring):
    f = ring.parse("x0 + x1 - 2*x2")
    for n in range(13):
        assert f ** n == _fold(Poly.__mul__, [f] * n, ring.one())


@st.composite
def poly_text(draw, depth=0):
    """Text in the polynomial grammar, with x3 out of range of three
    variables, coefficients a/0 and 7 (zero over GF(7)), unary minus inside
    products, powers by ^ and **, juxtaposed factors and nested
    parentheses."""
    def atom():
        kinds = ["var", "int", "frac", "neg"] + (["paren"] if depth < 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "var":
            return f"x{draw(st.integers(0, 3))}"
        if kind == "int":
            return str(draw(st.sampled_from([0, 1, 2, 3, 7, 14])))
        if kind == "frac":
            return f"{draw(st.integers(0, 9))}/{draw(st.sampled_from([0, 1, 2, 7]))}"
        if kind == "neg":
            return "-" + atom()
        return "(" + draw(poly_text(depth + 1)) + ")"

    def term():
        factors = [atom() + draw(st.sampled_from(["", "", "^2", "**3", " ^ 0", "^1"]))
                   for _ in range(draw(st.integers(1, 3)))]
        return "".join(f + draw(st.sampled_from(["*", " ", " * "])) for f in factors[:-1]) \
            + factors[-1]

    text = draw(st.sampled_from(["", "-", "+", "- -"])) + term()
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from([" + ", "-", " - "])) + term()
    return text


PARSE_PIECES = ["x0", "x1", "x3", "x", "x01", "0", "2", "7", "3/2", "5/0", "1/2/3", "*", "**",
                "^", "+", "-", "(", ")", " ", "\t", "$", "/", "2^3", "x1^0", "0^0"]


def _parsed(parse, text):
    try:
        return "value", parse(text)
    except ValueError as err:
        return "error", str(err)


@given(st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_matches_the_former_parser(data):
    """The one-pass tokenizer gives the polynomial, or the ValueError text
    byte for byte, of the former one (oracles.token_parse) over Q and
    GF(7): on text of the grammar and on strings of tokens and stray
    characters, which reach every error (bad token and its offset,
    unexpected end or token, unbalanced parenthesis, exponent, variable
    range, coefficient not in the field, trailing input)."""
    ring = data.draw(st.sampled_from(RINGS))
    text = data.draw(st.one_of(poly_text(),
                               st.lists(st.sampled_from(PARSE_PIECES), max_size=10).map("".join)))
    assert _parsed(ring.parse, text) == _parsed(lambda t: oracles.token_parse(ring, t), text)


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


def test_graded_engine_rejects_inhomogeneous_input():
    """groebner_basis and ideal_sum reach the graded engine, which takes
    homogeneous elements only; ideal_sum is handed an ideal built with no
    checks (from_basis), so the engine's own check is the one that fires."""
    f, g = RQ.parse("x0^2 + x1"), RQ.parse("x0 - x2")
    with pytest.raises(ValueError, match="homogeneous"):
        groebner_basis([g, f])
    with pytest.raises(ValueError, match="homogeneous"):
        ideal_sum(HomIdeal(RQ, [g]), HomIdeal.from_basis(RQ, [f]))


@st.composite
def block_sum_case(draw):
    """(I, J) over Q or GF(7) in P^2 or P^3: I has two or three forms of
    degree 2 or 3, the first a multiple l·h of a form l of lower degree, and
    J is l, a variable or a random form of lower degree, with at times one
    more.  J's leading monomials then divide leading monomials and tail
    terms of I's reduced basis, which the finished block must re-reduce or
    drop."""
    ring = draw(st.sampled_from([PolyRing(field, n) for field in (QQ, PrimeField(7))
                                 for n in (3, 4)]))
    d = draw(st.integers(2, 3))
    e = draw(st.integers(1, d - 1))
    l = draw(homogeneous_poly(ring, e, e))
    I = [l * draw(homogeneous_poly(ring, d - e, d - e))]
    I += [draw(homogeneous_poly(ring, d, 2)) for _ in range(draw(st.integers(1, 2)))]
    J = [draw(st.one_of(st.just(l), st.sampled_from([ring.variable(i) for i in range(ring.nvars)]),
                        homogeneous_poly(ring, d - 1)))
         for _ in range(draw(st.integers(1, 2)))]
    return HomIdeal(ring, I), HomIdeal(ring, J)


@given(block_sum_case())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sum_with_a_finished_block_matches_naive_oracle(case):
    """ideal_sum(I, J) passes I's reduced basis to the graded engine as a
    finished block: an element enters unchanged unless a leading monomial
    from J divides one of its terms, and no pair among the block is
    reduced.  The reduced basis is still the oracle's, by decreasing
    leading monomial."""
    I, J = case
    got = ideal_sum(I, J).groebner()
    want = oracles.naive_groebner([dict(f.terms) for f in I.gens + J.gens], _char(I.ring))
    assert {frozenset(g.terms.items()) for g in got} == want
    assert [g.lm() for g in got] == sorted((g.lm() for g in got), key=mono_descending_key)


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF7"])
def test_sum_re_reduces_a_block_element_untouched_by_j(ring):
    """I = (x0^2 + x0*x2, x0^2 + x0*x1) has the reduced basis
    x0^2 + x0*x2, x0*x1 - x0*x2.  In I + (x1), x1 touches only the second,
    which reduces to the new element x0*x2 of degree 2, a term of the first:
    every block element of a degree that J reaches goes to that degree's
    echelon, so the first leaves as x0^2."""
    I = HomIdeal.from_strings(ring, ["x0^2 + x0*x2", "x0^2 + x0*x1"])
    assert I.groebner() == tuple(map(ring.parse, ["x0^2 + x0*x2", "x0*x1 - x0*x2"]))
    K = ideal_sum(I, HomIdeal.from_strings(ring, ["x1"]))
    assert K.groebner() == tuple(map(ring.parse, ["x0^2", "x0*x2", "x1"]))


def test_sum_inserts_no_row_in_a_degree_of_block_elements_alone(monkeypatch):
    """I + (x0 + x2) for I = (x0^2, x1^3): x0 touches x0^2, so degree 2 is
    an echelon, which reduces it to x2^2; x1^3 meets no new leading
    monomial and no pair, so degree 3 passes it unchanged and inserts no
    Echelon row."""
    inserted, rows = {}, []
    real_insert, real_rows = linalg.Echelon.insert, linalg._degree_rows

    def counting_insert(self, row):
        rows.append(row)
        return real_insert(self, row)

    def counting_rows(field, basis, inputs, multiples):
        before = len(rows)
        new = real_rows(field, basis, inputs, multiples)
        degree, = {sum(t) for f in inputs for t in f} | {
            sum(basis[i][0]) + sum(mu) for i, mu in multiples}
        inserted[degree] = len(rows) - before
        return new

    I = HomIdeal.from_strings(RQ, ["x0^2", "x1^3"])
    I.groebner()
    monkeypatch.setattr(linalg.Echelon, "insert", counting_insert)
    monkeypatch.setattr(linalg, "_degree_rows", counting_rows)
    K = ideal_sum(I, HomIdeal.from_strings(RQ, ["x0 + x2"]))
    assert K.groebner() == tuple(map(RQ.parse, ["x1^3", "x2^2", "x0 + x2"]))
    assert sorted(inserted) == [1, 2] and all(inserted.values())


def _mod_p(ring_p, f):
    """The integral-or-p-integral form f over Q read in GF(p)."""
    field = ring_p.field
    return Poly(ring_p, {m: y for m, c in f.terms.items()
                         if (y := field.from_fraction(Fraction(c)))})


def _cross_check_mod_p(F, p, top):
    """The reduction-mod-p cross-check for integral forms F over Q and their
    reduced basis G (Winkler, J. Symbolic Comput. 1988; Arnold, J. Symbolic
    Comput. 2003).  A rank can only drop mod p, so the GF(p) Hilbert
    function of F mod p is never below the Q one.  When G is p-integral,
    each f in F divides by G with p-integral quotients, so F mod p lies in
    the ideal of G mod p; if moreover G mod p reduces to zero modulo the
    GF(p) basis, the two ideals agree, G mod p has the leading monomials of
    G, the two Hilbert functions are equal, and the GF(p) reduced basis is
    G mod p.  Returns whether that last case held."""
    ring = F[0].ring
    ring_p = PolyRing(PrimeField(p), ring.nvars)
    Fp = [_mod_p(ring_p, f) for f in F]
    I, Ip = HomIdeal(ring, F), HomIdeal(ring_p, Fp)
    assert all(hilbert_function(Ip, n) >= hilbert_function(I, n) for n in range(top))
    G = groebner_basis(F)
    if any(Fraction(c).denominator % p == 0 for g in G for c in g.terms.values()):
        return False
    Gp = [_mod_p(ring_p, g) for g in G]
    if not all(normal_form(g, list(Ip.groebner())).is_zero() for g in Gp):
        return False
    assert Ip.groebner() == tuple(Gp)
    assert all(hilbert_function(Ip, n) == hilbert_function(I, n) for n in range(top))
    return True


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reduction_mod_p_cross_checks_the_rational_basis(data):
    """The cross-check on integral forms of degree 1-3 in P^1..P^3, mod 2, 3,
    5 and 7: the Q and GF(p) row forms of the engine tested against each
    other."""
    ring = data.draw(st.sampled_from([PolyRing(QQ, n) for n in (2, 3, 4)]))
    F = [data.draw(homogeneous_poly(ring)) for _ in range(data.draw(st.integers(1, 4)))]
    _cross_check_mod_p(F, data.draw(st.sampled_from([2, 3, 5, 7])), 7)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_p_integral_basis_of_an_unlucky_prime_is_not_the_mod_p_basis(p):
    """F = {x0 + x1, x0 + (1 + p)*x1} has the p-integral reduced basis
    G = {x0, x1} over Q, yet F mod p generates only (x0 + x1): x1 does not
    reduce to zero modulo it, so p-integrality alone decides nothing, and
    the GF(p) Hilbert function is above the Q one in degree 1."""
    ring = PolyRing(QQ, 2)
    F = [ring.parse("x0 + x1"), ring.parse(f"x0 + {1 + p}*x1")]
    assert groebner_basis(F) == [ring.parse("x0"), ring.parse("x1")]
    assert not _cross_check_mod_p(F, p, 4)
    ring_p = PolyRing(PrimeField(p), 2)
    Ip = HomIdeal(ring_p, [_mod_p(ring_p, f) for f in F])
    assert Ip.groebner() == (ring_p.parse("x0 + x1"),)
    assert hilbert_function(Ip, 1) == 1 > hilbert_function(HomIdeal(ring, F), 1) == 0


# ---------------------------------------------------------------------------
# the graded engine's work, pinned by the echelon rows of module preimage
# runs: I ∩ J as the preimage of (1, 1) under I·e_1 + J·e_2
# ---------------------------------------------------------------------------

def _moving_point_rows(monkeypatch, ring, Z, moved):
    """Rows the graded engine inserts into its echelons (inputs, both halves
    of each pair left by the criteria, and reducers) in the preimage of
    (1, 1) under Z·e_1 + J·e_2 in S ⊕ S (Greuel & Pfister, A Singular
    Introduction to Commutative Algebra, ch. 2), for J = (g), one per
    generator g of Z^sigma, and then for J = Z^sigma."""
    rows = []
    real = linalg.Echelon.insert

    def counting(self, row):
        rows.append(row)
        return real(self, row)

    monkeypatch.setattr(linalg.Echelon, "insert", counting)
    Z, moved = HomIdeal.from_strings(ring, Z), [ring.parse(f) for f in moved]
    F = freemod.FreeModule(ring, [0, 0])
    ones = [freemod.MVec(F, {0: ring.one(), 1: ring.one()})]
    out = []
    for J in [[g] for g in moved] + [moved]:
        rows.clear()
        targets = [freemod.MVec(F, {k: f}) for k, gens in enumerate((Z.gens, J)) for f in gens]
        pre = freemod.preimage_generators(ones, targets)
        out.append(len(rows))
        assert HomIdeal(ring, [a.comps[0] for a in pre]) == intersect(Z, HomIdeal(ring, J))
    return out


def test_pair_order_pinned_on_moving_point_colon(monkeypatch):
    # Z = [1:1:1] in P^2 and its pullback under diag(1, 2, 3)
    assert _moving_point_rows(
        monkeypatch, RQ, ["x0 - x2", "x1 - x2"], ["x0 - 3*x2", "2*x1 - 3*x2"]
    ) == [17, 17, 16]


def test_pair_order_pinned_on_p5_point_colon(monkeypatch):
    # Z = [1:2:3:4:5:2] in P^5 and its pullback under diag(1, 2, 3, 5, 7, 11)
    coords, lams = [2, 3, 4, 5, 2], [2, 3, 5, 7, 11]
    Z = [f"x{i} - {c}*x0" for i, c in enumerate(coords, start=1)]
    moved = [f"{lam}*x{i} - {c}*x0"
             for i, (lam, c) in enumerate(zip(lams, coords), start=1)]
    assert (_moving_point_rows(monkeypatch, PolyRing(QQ, 6), Z, moved)
            == [69, 69, 69, 69, 68, 55])


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


def _count_colon_work(monkeypatch):
    """Record the verdict of each Hilbert nonzerodivisor test (a zero section
    numerator), the size of each module Groebner run, each groebner_basis
    call made inside a colon of the idealizer, and the degrees of the
    condition forms of each Hilbert-driven kernel run
    (NormalForms.kernel_ideal): [e] for a zero-divisor colon by a form of
    degree e, [0, 0] for an intersection."""
    work = {"tests": [], "runs": [], "gb_inside": [], "kernels": []}
    inside = []
    real_test, real_module_gb = polykernel._section, freemod.module_groebner
    real_gb, real_quotient = polykernel.groebner_basis, idealizer.ideal_quotient
    real_kernel = NormalForms.kernel_ideal

    def counting_test(I, g):
        section = real_test(I, g)
        work["tests"].append(not section)
        return section

    def counting_module_gb(vecs):
        work["runs"].append(len(vecs))
        return real_module_gb(vecs)

    def counting_gb(gens):
        if inside:
            work["gb_inside"].append(len(gens))
        return real_gb(gens)

    def counting_quotient(I, J):
        inside.append(J)
        try:
            return real_quotient(I, J)
        finally:
            inside.pop()

    def counting_kernel(table, conditions, target):
        work["kernels"].append([f.degree for _, f in conditions])
        return real_kernel(table, conditions, target)

    monkeypatch.setattr(polykernel, "_section", counting_test)
    monkeypatch.setattr(NormalForms, "kernel_ideal", counting_kernel)
    monkeypatch.setattr(freemod, "module_groebner", counting_module_gb)
    monkeypatch.setattr(polykernel, "groebner_basis", counting_gb)
    monkeypatch.setattr(idealizer, "ideal_quotient", counting_quotient)
    return work


def test_p5_moving_point_colon_takes_the_domain_exit(tmp_path, monkeypatch):
    """On the point of test_pair_order_pinned_on_p5_point_colon, saturation
    stops at its nonzerodivisor test (x5 divides no leading monomial), and
    each colon n stops at the domain exit: I's reduced basis is linear, so
    S/I is a domain and every generator outside I is a nonzerodivisor.  No
    Hilbert test, module or kernel run, or Groebner run happens in a colon."""
    work = _count_colon_work(monkeypatch)
    path = tmp_path / "p5_point.scene"
    path.write_text(P5_MOVING_POINT)
    assert cli.main(["colon", str(path)]) == 0
    assert work == {"tests": [], "runs": [], "gb_inside": [], "kernels": []}


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


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_divide_returns_quotients_and_a_reduced_remainder(data):
    """f = sum q_k*g_k + r for the quotients q_k and remainder r of divide,
    and no term of r is divisible by a leading term, on any divisor list;
    on the reduced basis r = 0 exactly when f is in I (HomIdeal.contains
    reads I's normal-form table)."""
    ring, I = data.draw(ring_and_ideal())
    f = data.draw(homogeneous_poly(ring, max_deg=4))
    for basis in (list(I.gens), list(I.groebner())):
        quotients, rem = polykernel.divide(ring.field, f.terms,
                                           [(g.lm(), g.terms) for g in basis])
        total = Poly(ring, rem)
        for q, g in zip(quotients, basis):
            total = total + Poly(ring, q) * g
        assert total == f
        assert not any(mono_divides(g.lm(), t) for t in rem for g in basis)
    assert I.contains(f) == normal_form(f, list(I.groebner())).is_zero()


def test_descending_key_reverses_the_order():
    monos = [m for n in range(4) for m in monomials_of_degree(RQ, n)]
    assert sorted(monos, key=mono_descending_key) == sorted(monos, key=mono_key, reverse=True)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_monomials_of_degree_is_the_sorted_enumeration(field):
    for nvars in range(1, 11):
        ring = PolyRing(field, nvars)
        for n in range(9):
            assert monomials_of_degree(ring, n) == oracles.sorted_monomials_of_degree(nvars, n)


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_known_basis_gens_are_the_sorted_basis(data):
    """HomIdeal.from_basis reverses a reduced basis instead of sorting it:
    the reversal is Poly.sort_key order on the bases of groebner_basis,
    intersect, ideal_quotient and saturate, and the ideals these return
    list their generators in that order."""
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    J = HomIdeal(ring, data.draw(st.lists(homogeneous_poly(ring, 2), min_size=1, max_size=3)))
    bases = [groebner_basis(list(I.gens))]
    for K in (intersect(I, J), ideal_quotient(I, J), saturate(I), saturate(J)):
        assert list(K.gens) == sorted(K.gens, key=Poly.sort_key)
        bases.append(list(K.groebner()))
    for gb in bases:
        assert list(HomIdeal.from_basis(ring, gb).gens) == sorted(gb, key=Poly.sort_key)


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
        (nums, den), = table.shifted(terms, [shift or (0,) * ring.nvars])
        return {t: ring.field.div(x, den) for t, x in nums.items()
                if not ring.field.is_zero(x)}

    for _ in range(3):
        f = data.draw(homogeneous_poly(ring))
        mu = data.draw(st.sampled_from(monomials_of_degree(ring, data.draw(st.integers(0, 3)))))
        assert nf(f.terms, mu) == normal_form(f * ring.monomial(mu), gb).terms
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
    assert _hilbert_dimension(unit_ideal(RQ)) == (-1, 0)
    assert _hilbert_dimension(HomIdeal.from_strings(RQ, ["x0", "x1", "x2"])) == (-1, 0)
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
        p = p - g * f.ring.monomial(qm, q[qm])
    return Poly(f.ring, q)


def _elim_quotient(I, g):
    """(I : g) as (1/g)·(I ∩ (g)), with the meet by elimination."""
    meet = oracles.elim_meet(I, HomIdeal(I.ring, [g]))
    return HomIdeal(I.ring, [_divide_exact(f, g) for f in meet])


def _elim_colon(I, J):
    """(I : J) as the meet of the (I : g) over the generators g of J, with I
    given by the oracle's reduced basis (the elimination is much faster on
    it than on a redundant generator list)."""
    I = HomIdeal(I.ring, [Poly(I.ring, dict(f))
                          for f in oracles.naive_groebner(_terms_list(I), _char(I.ring))])
    return _fold(intersect, [_elim_quotient(I, g) for g in J.gens])


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
    """(I : g) for a linear form g, by either route, has the reduced basis
    that the elimination route finds."""
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
    want = HomIdeal(ring, oracles.elim_meet(I, K))
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
    """The colon and the intersection against the elimination route kept
    here as the reference: (I : J) as the meet of the (I : g), g in J, and
    I ∩ J."""
    ring, I, J = case
    assert ideal_quotient(I, J).groebner() == _elim_colon(I, J).groebner()
    assert intersect(I, J).groebner() == tuple(oracles.elim_meet(I, J))


# ---------------------------------------------------------------------------
# the nonzerodivisor exits of saturate and of the colon against the full
# saturation (every (I : x_i^∞), intersected) and against elimination
# ---------------------------------------------------------------------------

SCENE_RINGS = [PolyRing(field, n) for field in (QQ, PrimeField(7)) for n in (3, 4, 5)]


def _full_saturate(I):
    sat = _fold(intersect, [polykernel._saturate_variable(I, i) for i in range(I.ring.nvars)])
    return I if all(map(I.contains, sat.gens)) else sat


@st.composite
def moving_scene(draw, rings=SCENE_RINGS):
    """(ring, sigma, Z, e_k): sigma diagonal, so it fixes every coordinate
    point e_k (and more when eigenvalues repeat); Z a point (on x_d = 0 at
    times), a line, a conic in a plane, a fat point, or one of the first
    three together with e_k."""
    ring = draw(st.sampled_from(rings))
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
def test_extended_sum_matches_a_fresh_groebner_run(data):
    """ideal_sum(I, J) starts its run from I's reduced basis as a finished
    block.  Its reduced basis is that of a fresh run on all the generators,
    and its Hilbert numerator is read off it.  I is a drawn scene; J is
    random linear forms, products of two, or a coordinate family
    (x_i : i in s)."""
    ring, _, Z, _ = data.draw(moving_scene())
    kind = data.draw(st.sampled_from(["linear", "products", "coordinates"]))
    if kind == "coordinates":
        gens = [ring.variable(i) for i in data.draw(
            st.lists(st.integers(0, ring.nvars - 1), min_size=1, unique=True))]
    else:
        gens = [data.draw(linear_divisor(ring))
                for _ in range(data.draw(st.integers(1, ring.nvars - 1)))]
        if kind == "products":
            gens = [f * data.draw(linear_divisor(ring)) for f in gens]
    K = ideal_sum(Z, HomIdeal(ring, gens))
    before = K.hilbert_numerator()
    assert K.groebner() == tuple(polykernel.groebner_basis(list(Z.gens) + gens))
    assert before == polykernel.monomial_hilbert_numerator([f.lm() for f in K.groebner()])


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ideal_sum_depends_only_on_the_normal_forms_of_j(data):
    """ideal_sum(I, J) has the reduced basis of all the generators.  It
    stays put when J's generators are rescaled, permuted, duplicated or
    shifted by elements of I, which keeps their set of monic normal forms
    modulo I: I keeps the sum per set, so the second sum is the
    first one and runs no graded_groebner."""
    ring, I = data.draw(ring_and_ideal(max_deg=2))
    field = ring.field
    J = data.draw(st.lists(homogeneous_poly(ring, 2), min_size=1, max_size=3))
    moved = []
    for g in J:
        f = g.scale(field.from_int(data.draw(st.sampled_from([1, 2, -3, 5]))))
        for h in I.gens:
            if h.degree <= g.degree:
                mono = data.draw(st.sampled_from(monomials_of_degree(ring, g.degree - h.degree)))
                f = f + h * ring.monomial(mono, field.from_int(data.draw(st.integers(-2, 2))))
        moved.append(f)
    moved += data.draw(st.lists(st.sampled_from(moved), max_size=2))
    moved = data.draw(st.permutations(moved))
    K = ideal_sum(I, HomIdeal(ring, J))
    assert K.groebner() == tuple(groebner_basis(list(I.gens) + J))
    with mock.patch.object(linalg, "graded_groebner", side_effect=AssertionError):
        assert ideal_sum(I, HomIdeal(ring, moved)) is K


@given(st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_empty_zero_set_is_the_zero_hilbert_polynomial(data):
    """V(K) is empty exactly when K is (1) or every variable has a pure
    power among K's leading monomials: empty_zero_set agrees with the
    zero Hilbert polynomial, dimension -1, on drawn K, on drawn K plus powers of some
    variables (m-primary when all are there), and on (1), m, m^2 and the
    zero ideal."""
    ring, K = data.draw(ring_and_ideal())
    xs = [ring.variable(i) for i in range(ring.nvars)]
    kind = data.draw(st.sampled_from(["drawn", "plus powers", "unit", "m", "m^2", "zero"]))
    if kind == "plus powers":
        chosen = data.draw(st.lists(st.sampled_from(xs), min_size=1, unique=True))
        K = HomIdeal(ring, list(K.gens) + [x ** data.draw(st.integers(1, 3)) for x in chosen])
    elif kind != "drawn":
        K = HomIdeal(ring, {"unit": [ring.one()], "m": xs, "zero": [],
                            "m^2": [x * y for x in xs for y in xs]}[kind])
    assert polykernel.empty_zero_set(K) == (_hilbert_dimension(K)[0] < 0)


LINEAR_RINGS = [PolyRing(field, n) for field in (QQ, PrimeField(7)) for n in (2, 4, 7)]


@st.composite
def linear_generators(draw, ring, rank=None):
    """Linear forms with coefficients a/b (|a| <= 3, b <= 4), together with
    repeats, scaled copies and sums of them, and zero forms.  rank=ring.nvars
    adds every variable, so the forms span the irrelevant ideal."""
    field, nv = ring.field, ring.nvars
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(field.from_fraction)
    xs = monomials_of_degree(ring, 1)

    def form():
        cs = draw(st.lists(coeff, min_size=nv, max_size=nv))
        return Poly(ring, {x: c for x, c in zip(xs, cs) if not field.is_zero(c)})

    base = [form() for _ in range(draw(st.integers(1, nv)))]
    gens = list(base)
    for _ in range(draw(st.integers(0, 3))):
        f, g = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        gens.append(draw(st.sampled_from([f, f.scale(draw(coeff)), f + g, f - f])))
    if rank == nv:
        gens += [ring.variable(i).scale(draw(coeff.filter(bool))) for i in range(nv)]
    return draw(st.permutations(gens))


@given(st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_linear_groebner_basis_is_the_buchberger_basis(data):
    """Linear forms are one degree-1 echelon of the graded engine, whose
    reduced rows are the reduced basis of the oracle's all-pairs Buchberger
    run, by decreasing leading monomial, each element's terms in decreasing
    order with its cached leading term first; of the irrelevant ideal it is
    x0, ..., xd.  Zero forms are skipped, and no form at all has the empty
    basis."""
    ring = data.draw(st.sampled_from(LINEAR_RINGS))
    full = data.draw(st.booleans())
    gens = data.draw(linear_generators(ring, ring.nvars if full else None))
    got = groebner_basis(gens)
    assert ({frozenset(g.terms.items()) for g in got}
            == oracles.naive_groebner([dict(f.terms) for f in gens], _char(ring)))
    assert [g.lm() for g in got] == sorted((g.lm() for g in got), key=mono_descending_key)
    assert [list(g.terms) for g in got] == [sorted(g.terms, key=mono_descending_key)
                                            for g in got]
    assert [g.lt() for g in got] == [Poly(ring, dict(g.terms)).lt() for g in got]
    if full:
        assert got == [ring.variable(i) for i in range(ring.nvars)]
    assert groebner_basis([]) == groebner_basis([ring.zero()]) == []


def test_linear_groebner_basis_declines_nonlinear_forms():
    """Linear forms stop at the degree-1 echelon; a nonlinear form of
    degree d takes the engine on to an echelon of degree d (the constant 1
    to degree 0), and its basis is still the oracle's.  An inhomogeneous
    form is declined with ValueError."""
    ring = PolyRing(QQ, 3)
    x0, x1, x2 = (ring.variable(i) for i in range(3))
    echelons = []

    class Counting(linalg.Echelon):
        def __init__(self, field, ncols):
            echelons.append(ncols)
            super().__init__(field, ncols)

    with mock.patch.object(linalg, "Echelon", Counting):
        assert groebner_basis([]) == groebner_basis([x0 - x0]) == []
        assert groebner_basis([x0, x1]) == [x0, x1]
        assert len(echelons) == 1
        for extra in (x0 * x1, x2 * x2, ring.one()):
            echelons.clear()
            gens = [x0, x1, extra]
            got = groebner_basis(gens)
            assert ({frozenset(g.terms.items()) for g in got}
                    == oracles.naive_groebner([dict(f.terms) for f in gens], _char(ring)))
            assert len(echelons) == 2
        with pytest.raises(ValueError, match="homogeneous"):
            groebner_basis([x0, x1, x0 * x1 + x2])

@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_saturate_of_a_linear_subspace_is_the_former_loop(data):
    """A linear I is prime, so saturate returns I itself, or (1) for the
    irrelevant ideal, with no (I : x_i^∞) run: the ideal, with the same
    generators, that the former loop (oracles.loop_saturate) reaches with
    its swapped Groebner runs and intersections."""
    ring = data.draw(st.sampled_from(LINEAR_RINGS))
    full = data.draw(st.booleans())
    I = HomIdeal(ring, data.draw(linear_generators(ring, ring.nvars if full else None)))
    want = oracles.loop_saturate(I)
    with mock.patch.object(polykernel, "_saturate_variable", side_effect=AssertionError):
        got = saturate(I)
    assert got.gens == want.gens
    assert got.groebner() == want.groebner()
    assert (got is I) == (len(I.groebner()) < ring.nvars)


@given(st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_linear_ideal_sum_has_the_echelon_basis(data):
    """The sum of linear I and J is at most one degree-1 echelon of the
    graded engine: the rows of J's normal forms modulo I's reduced basis,
    which enters as a finished block and is re-reduced by the new pivots;
    linear leading monomials are coprime, so no pair is reduced.  Its
    reduced basis is that of all the linear generators.  I may carry a
    redundant nonlinear generator, and its reduced basis is still linear."""
    ring = data.draw(st.sampled_from(LINEAR_RINGS))
    lin = data.draw(linear_generators(ring))
    nonzero = [f for f in lin if not f.is_zero()]
    extra = []
    if nonzero and data.draw(st.booleans()):
        x = ring.variable(data.draw(st.integers(0, ring.nvars - 1)))
        extra = [data.draw(st.sampled_from(nonzero)) * x]
    I = HomIdeal(ring, lin + extra)
    J = HomIdeal(ring, data.draw(linear_generators(ring)))
    I.groebner()
    echelons = []

    class Counting(linalg.Echelon):
        def __init__(self, field, ncols):
            echelons.append(ncols)
            super().__init__(field, ncols)

    with mock.patch.object(linalg, "Echelon", Counting):
        K = ideal_sum(I, J)
    assert len(echelons) <= 1
    want = groebner_basis(lin + list(J.gens))
    assert all(f.degree == 1 for f in want)
    assert K.groebner() == tuple(want)
    assert (K.hilbert_numerator()
            == polykernel.monomial_hilbert_numerator([f.lm() for f in want]))


@pytest.mark.parametrize("field", ["rational", "prime 7"])
def test_irrelevant_ideal_saturates_to_the_unit_ideal(field, tmp_path, capsys):
    # three independent linear forms in P^2, over Q and over GF(7)
    path = tmp_path / "irrelevant.scene"
    path.write_text(f"field {field}\ndim 2\nsigma\n1 0 0\n0 2 0\n0 0 3\nideal\n"
                    "x0 + 1/2*x1\nx1 - x2\nx0 + x1 + x2\nend\n")
    assert cli.main(["colon", str(path)]) == 3
    assert "saturates to the unit ideal" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["rational", "prime 32003"])
def test_p6_moving_point_colon_runs_no_groebner_machinery(field, tmp_path, monkeypatch):
    """Building a P^6 moving-point scene and its colons reads every reduced
    basis off a degree-1 echelon of the graded engine and takes the domain
    exit: the engine reduces no pair and no form above degree 1, and no
    Hilbert test or module Groebner run is ever called."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on a point scene")
        return call

    real_rows = linalg._degree_rows

    def degree_one(field, basis, rows, multiples):
        if multiples or any(sum(t) != 1 for row in rows for t in row):
            raise AssertionError("the engine went past degree 1 on a point scene")
        return real_rows(field, basis, rows, multiples)

    monkeypatch.setattr(linalg, "_degree_rows", degree_one)
    monkeypatch.setattr(polykernel, "_section", forbidden("_section"))
    monkeypatch.setattr(freemod, "module_groebner", forbidden("module_groebner"))
    coords, lams = [2, 3, 4, 5, 2, 3], [2, 3, 5, 7, 11, 13]
    sigma = "\n".join(" ".join(str(lam if i == j else 0) for j in range(7))
                      for i, lam in enumerate([1] + lams))
    ideal = "\n".join(f"x{i} - {c}*x0" for i, c in enumerate(coords, start=1))
    path = tmp_path / "p6_point.scene"
    path.write_text(f"field {field}\ndim 6\nsigma\n{sigma}\nideal\n{ideal}\nend\n"
                    "horizon 4\n")
    assert cli.main(["colon", str(path)]) == 0


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_nonzerodivisor_colon_matches_elimination(data):
    """(I : J) against the elimination reference, for J the pullback under
    sigma^n of Z's own linear forms (the colon of the idealizer) or of the
    fixed point e_k (larger than I on a union), a random linear ideal, or
    products of two linear forms; n = 0 gives unit colons.  Both routes
    run: the nonzerodivisor exit and the Hilbert-driven kernel.  The
    Hilbert test's verdict on J's first generator g outside I is checked on
    its own against (I : g) = I, since the domain exit skips it on linear I.
    P^2 and P^3 only: the reference's elimination takes seconds on a P^4
    fat point."""
    ring, sigma, Z, e_k = data.draw(moving_scene([r for r in SCENE_RINGS if r.nvars < 5]))
    I = saturate(Z)
    source = data.draw(st.sampled_from(["own", "fixed point", "random linear", "nonlinear"]))
    n = data.draw(st.integers(0, 2))
    if source == "own":
        J = sigma.pullback_ideal(HomIdeal(ring, [g for g in I.gens if g.degree == 1] or e_k.gens), n)
    elif source == "fixed point":
        J = sigma.pullback_ideal(e_k, n)
    else:
        forms = [data.draw(linear_divisor(ring))
                 for _ in range(data.draw(st.integers(1, ring.nvars - 1)))]
        if source == "nonlinear":
            forms = [f * data.draw(linear_divisor(ring)) for f in forms]
        J = HomIdeal(ring, forms)
    got, want = ideal_quotient(I, J), _elim_colon(I, J)
    assert got.groebner() == want.groebner()
    assert got.gens == HomIdeal(ring, want.groebner()).gens
    g = next((g for g in J.gens if not I.contains(g)), None)
    if g is not None:
        by_g = want if len(J.gens) == 1 else _elim_colon(I, HomIdeal(ring, [g]))
        assert (not polykernel._section(I, g)) == (by_g == I)


@st.composite
def zero_divisor_case(draw):
    """(I, gens) in P^2 or P^3 over Q or GF(7): I a fat point (l, m^2) with
    l a linear form through the point, three points, the embedded point
    (x0^2, x0*x1), or a line and a point off it; gens one or two forms
    outside I, each in a drawn associated prime of I (all are linear), so
    each is a zero divisor on S/I.  A g through one of three points has
    the other two as (I : g), with generators in degrees 1 and 2."""
    ring = draw(st.sampled_from([r for r in SCENE_RINGS if r.nvars < 5]))
    field, nv = ring.field, ring.nvars
    x = [ring.variable(i) for i in range(nv)]
    coeff = st.integers(-3, 3).map(field.from_int)

    def point():
        coords = draw(st.lists(coeff, min_size=nv, max_size=nv).filter(any))
        return RationalPoint.of(field, coords).ideal(ring)

    def member(P, deg):
        """A nonzero form of P of degree deg: its generators times constants
        (deg 1) or linear forms (deg 2)."""
        g = sum((f * (ring.constant(draw(coeff)) if deg == 1 else draw(linear_divisor(ring)))
                 for f in P.gens), ring.zero())
        assume(not g.is_zero())
        return g

    kind = draw(st.sampled_from(["fat point", "three points", "embedded point",
                                 "line and point"]))
    if kind == "fat point":
        m = point()
        ell = member(m, 1)
        I, primes = HomIdeal(ring, [ell] + [f * g for f in m.gens for g in m.gens]), [m]
    elif kind == "three points":
        primes = [point(), point(), point()]
        assume(len({P.gens for P in primes}) == 3)
        I = _fold(intersect, primes)
    elif kind == "embedded point":
        I = HomIdeal(ring, [x[0] ** 2, x[0] * x[1]])
        primes = [HomIdeal(ring, [x[0]]), HomIdeal(ring, [x[0], x[1]])]
    else:
        line, p = HomIdeal(ring, x[:nv - 2]), point()
        assume(not all(map(p.contains, line.gens)))
        I, primes = intersect(line, p), [line, p]
    gens = [member(draw(st.sampled_from(primes)), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(1, 2)))]
    assume(not any(map(I.contains, gens)))
    return I, gens


@given(zero_divisor_case())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_zero_divisor_colon_matches_elimination(case):
    """(I : J) for J of one or two zero divisors against the elimination
    reference; two generators fold intersect over the (I : g).  Neither the
    colons nor that intersection runs a module Groebner basis.  Each (I : g)
    has the Hilbert numerator N(I) − u^(−e)·s of its section s, and in
    every degree d <= 5 its piece has the dimension of the annihilator of g
    in S_d."""
    I, gens = case
    ring = I.ring
    J = HomIdeal(ring, gens)
    with mock.patch.object(freemod, "module_groebner", side_effect=AssertionError):
        got = ideal_quotient(I, J)
        quotients = [ideal_quotient(I, HomIdeal(ring, [g])) for g in gens]
    assert got.groebner() == _elim_colon(I, J).groebner()
    assert got.gens == HomIdeal(ring, got.groebner()).gens
    nf = I.normal_forms()
    for g, Q in zip(gens, quotients):
        section = polykernel._section(I, g)
        assert section, "a zero divisor has a nonzero section numerator"
        assert Q.hilbert_numerator() == polykernel.numerator_add(
            I.hilbert_numerator(), section, -1, -g.degree)
        for d in range(6):
            assert len(nf.annihilator([(nf, g)], d)) == dim_ideal_piece(Q, d)


@st.composite
def meet_case(draw):
    """(I, J) in P^2 or P^3 over Q or GF(7), neither containing the other,
    each the ideal of two or three points, a fat point (l, m^2) with l a
    linear form through the point, a line, or a point and a line."""
    ring = draw(st.sampled_from([r for r in SCENE_RINGS if r.nvars < 5]))
    field, nv = ring.field, ring.nvars
    coeff = st.integers(-3, 3).map(field.from_int)

    def point():
        coords = draw(st.lists(coeff, min_size=nv, max_size=nv).filter(any))
        return RationalPoint.of(field, coords).ideal(ring)

    def line():
        forms = [draw(linear_divisor(ring)) for _ in range(nv - 2)]
        L = HomIdeal(ring, forms)
        assume(len(L.groebner()) == nv - 2)
        return L

    def scheme():
        kind = draw(st.sampled_from(["points", "fat point", "line", "point and line"]))
        if kind == "points":
            primes = [point() for _ in range(draw(st.integers(2, 3)))]
            assume(len({P.gens for P in primes}) == len(primes))
            return _fold(intersect, primes)
        if kind == "fat point":
            m = point()
            ell = sum((f * ring.constant(draw(coeff)) for f in m.gens), ring.zero())
            assume(not ell.is_zero())
            return HomIdeal(ring, [ell] + [f * g for f in m.gens for g in m.gens])
        if kind == "line":
            return line()
        return intersect(line(), point())

    I, J = scheme(), scheme()
    assume(not all(map(J.contains, I.gens)) and not all(map(I.contains, J.gens)))
    return I, J


@given(meet_case())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_intersect_matches_elimination(case):
    """I ∩ J of two schemes, neither inside the other, is the kernel of
    x ↦ (nf_I(x), nf_J(x)) stopped at N(I) + N(J) − N(I + J): the reduced
    basis the elimination reference finds, with no module Groebner run."""
    I, J = case
    with mock.patch.object(freemod, "module_groebner", side_effect=AssertionError):
        got = intersect(I, J)
    assert got.groebner() == tuple(oracles.elim_meet(I, J))
    assert got.hilbert_numerator() == polykernel.numerator_add(
        polykernel.numerator_add(I.hilbert_numerator(), J.hilbert_numerator()),
        ideal_sum(I, J).hilbert_numerator(), -1)


@st.composite
def keyed_colon_case(draw):
    """(I, g, h, c) in P^2 or P^3 over Q or GF(7): I saturated with a
    nonlinear reduced basis (a fat point (l, m^2), two or three points, or
    a rational normal curve with rescaled coordinates, whose generators are
    binomials), g a form of degree 1 or 2 outside I, h a form of I of g's
    degree (zero at times) and c a nonzero scalar."""
    ring = draw(st.sampled_from([r for r in SCENE_RINGS if r.nvars < 5]))
    field, nv = ring.field, ring.nvars
    coeff = st.integers(-3, 3).map(field.from_int)

    def point():
        coords = draw(st.lists(coeff, min_size=nv, max_size=nv).filter(any))
        return RationalPoint.of(field, coords).ideal(ring)

    kind = draw(st.sampled_from(["fat point", "points", "binomial curve"]))
    if kind == "fat point":
        m = point()
        ell = sum((f * ring.constant(draw(coeff)) for f in m.gens), ring.zero())
        assume(not ell.is_zero())
        I = HomIdeal(ring, [ell] + [f * g for f in m.gens for g in m.gens])
    elif kind == "points":
        primes = [point() for _ in range(draw(st.integers(2, 3)))]
        assume(len({P.gens for P in primes}) == len(primes))
        I = _fold(intersect, primes)
    else:
        units = st.sampled_from([1, 2, 3, -1, -2]).map(field.from_int)
        x = [ring.variable(i) * ring.constant(draw(units)) for i in range(nv)]
        I = HomIdeal(ring, [x[i] * x[j + 1] - x[i + 1] * x[j]
                            for i in range(nv - 1) for j in range(i + 1, nv - 1)])
    g = draw(homogeneous_poly(ring, max_deg=2))
    assume(not I.contains(g))
    h = sum((f * draw(homogeneous_poly(ring, max_deg=g.degree - f.degree))
             if f.degree < g.degree else f * ring.constant(draw(coeff))
             for f in I.gens if f.degree <= g.degree), ring.zero())
    c = draw(st.sampled_from([1, 2, -3, 5]).map(field.from_int))
    return I, g, h, c


@given(keyed_colon_case())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_colon_keyed_by_the_monic_normal_form(case):
    """(I : g) and g's section depend on g only through its monic normal
    form, since g - nf(g) lies in I.  So (I : c*g + h), for h in I and c
    nonzero, asked of an I that already answered (I : g), is read
    from I's memo with no second section test or kernel run, and
    equals the same colon asked cold of a fresh copy of I.  Its pieces in
    degrees d <= 3 have the dimensions of the brute-force colon by g."""
    I, g, h, c = case
    ring = I.ring
    f = g * ring.constant(c) + h
    warm = HomIdeal(ring, I.gens)
    ideal_quotient(warm, HomIdeal(ring, [g]))
    with mock.patch.object(polykernel, "_section", side_effect=AssertionError), \
            mock.patch.object(NormalForms, "kernel_ideal", side_effect=AssertionError):
        got = ideal_quotient(warm, HomIdeal(ring, [f]))
    want = ideal_quotient(HomIdeal(ring, I.gens), HomIdeal(ring, [f]))
    assert got.groebner() == want.groebner()
    assert got.gens == want.gens
    for d in range(4):
        assert dim_ideal_piece(got, d) == oracles.brute_colon_piece_dim(
            _terms_list(I), dict(g.terms), ring.nvars, d, _char(ring))


def test_hilbert_driven_colon_rejects_a_wrong_section():
    """A target that is not the Hilbert numerator of the kernel ideal fails
    the per-degree dimension check, an internal error, where the two series
    first differ.  The colon (I : g): in degree 1 for the zero section
    (target N(I)), in degree 4 for the true section s = u^2 − 2u^3 + u^4
    minus u^5 − u^6 (target (1 − u)^2 + u^4 − u^5).  The intersection of
    the points (x0, x1) and (x1, x2), whose true target is
    1 − u − u^2 + u^3: in degree 0 for 2 − 4u + 2u^2 (N(I + J) left out),
    in degree 3 for the true target plus u^3 − u^4, and in degree 1 when
    intersect is handed I for I + J (target N(I))."""
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    g = RQ.parse("x0 + 2*x1")
    section = polykernel._section(I, g)
    assert section == {2: 1, 3: -2, 4: 1}
    nf = I.normal_forms()

    def colon_target(s):
        return polykernel.numerator_add(I.hilbert_numerator(), s, -1, -g.degree)

    assert (nf.kernel_ideal([(nf, g)], colon_target(section)).groebner()
            == (RQ.parse("x0"), RQ.parse("x1")))
    for wrong, degree in (({}, 1), ({**section, 5: -1, 6: 1}, 4)):
        with pytest.raises(AssertionError, match=f"in degree {degree},"):
            nf.kernel_ideal([(nf, g)], colon_target(wrong))
    P, Q = HomIdeal.from_strings(RQ, ["x0", "x1"]), HomIdeal.from_strings(RQ, ["x1", "x2"])
    tables, one = [P.normal_forms(), Q.normal_forms()], RQ.one()
    conditions = [(table, one) for table in tables]
    meet = {0: 1, 1: -1, 2: -1, 3: 1}
    assert (tables[0].kernel_ideal(conditions, meet).groebner()
            == intersect(P, Q).groebner() == (RQ.parse("x0*x2"), RQ.parse("x1")))
    for wrong, degree in (({0: 2, 1: -4, 2: 2}, 0), ({**meet, 3: 2, 4: -1}, 3)):
        with pytest.raises(AssertionError, match=f"in degree {degree},"):
            tables[0].kernel_ideal(conditions, wrong)
    with mock.patch.object(polykernel, "ideal_sum", return_value=P), \
            pytest.raises(AssertionError, match="in degree 1,"):
        intersect(HomIdeal(RQ, P.gens), HomIdeal(RQ, Q.gens))


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


def test_twisted_cubic_colon_extends_the_basis_of_i(tmp_path, monkeypatch):
    """The twisted cubic's I is not linear, so each colon n (the default
    horizon 12) asks for the Hilbert test of its first generator outside I,
    which passes since I is prime.  The test extends I's reduced basis
    (ideal_sum), so no groebner_basis call happens inside a colon.  I is
    binomial and sigma diagonal, so that generator pulled back by sigma^n
    has one monic normal form for every n: the 12 colons share one test."""
    work = _count_colon_work(monkeypatch)
    path = tmp_path / "twisted_cubic.scene"
    path.write_text(TWISTED_CUBIC)
    assert cli.main(["colon", str(path)]) == 0
    assert work == {"tests": [True], "runs": [], "gb_inside": [], "kernels": []}


@pytest.mark.parametrize("scene, tests, colons", [
    ("curves/rnc4", [True], []),
    ("fat_point", [False], [[1]]),
    ("curves/ci3", [True] * 8, []),
])
def test_colon_command_runs_one_test_per_monic_normal_form(scene, tests, colons, monkeypatch):
    """The section test and the zero-divisor colon are made once per monic
    normal form h of a generator, and kept on I.  The binomial curve rnc4
    under a diagonal sigma has one h for all 8 colons.  The fat point
    (x0 + x1, x0^2) pulls back to (x0 + 2^n*x1, x0^2), whose linear
    generator, a zero divisor, reduces to (2^n - 1)*x1 for every n, so one
    test and one (I : h), a kernel run on one condition of degree 1, serve
    8 colons.  The
    complete intersection ci3 is not binomial: its h differs per n, and
    nothing is shared.  A second run of the same scene counts the same."""
    work = _count_colon_work(monkeypatch)
    for _ in range(2):  # the memo lives on the scene's ideal, not the process
        assert cli.main(["colon", str(ROOT / "scenes" / f"{scene}.scene")]) == 0
        assert work == {"tests": tests, "runs": [], "gb_inside": [], "kernels": colons}
        for counts in work.values():
            counts.clear()


@pytest.mark.parametrize("command", ["colon", "classify", "idealizer"])
@pytest.mark.parametrize("scene", ["conic_pair", "fat_point", "twisted_cubic"])
def test_cli_on_curves_and_fat_points_runs_no_elimination(scene, command, tmp_path,
                                                          monkeypatch):
    """Each command exits 0 and runs no module Groebner basis inside a colon
    or an intersection.  The curves (a conic, the twisted cubic) have prime
    ideals, so the first generator of each J outside I is a nonzerodivisor.
    The fat point's J is x0^2, which lies in I, and a linear form through
    the support point, a zero divisor: its colon is read degree by degree
    off I's normal forms, stopped by the Hilbert series.  Intersections
    take the same kernel loop.  (`classify` resolves the conic pair's
    critical subschemes for Tor, a module Groebner run outside both.)"""
    runs = []
    real = freemod.module_groebner
    scopes = {polykernel.intersect.__code__, polykernel.ideal_quotient.__code__}

    def counting(vecs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in scopes:
            frame = frame.f_back
        if frame is not None:
            runs.append(len(vecs))
        return real(vecs)

    monkeypatch.setattr(freemod, "module_groebner", counting)
    if scene == "twisted_cubic":
        path = tmp_path / "twisted_cubic.scene"
        path.write_text(TWISTED_CUBIC)
    else:
        path = ROOT / "scenes" / f"{scene}.scene"
    assert cli.main([command, str(path)]) == 0
    assert runs == []


# ---------------------------------------------------------------------------
# Hilbert data
# ---------------------------------------------------------------------------

def test_conic_hilbert_polynomial():
    C = HomIdeal.from_strings(RQ, ["x0*x2 - x1^2"])
    assert oracles.hilbert_polynomial_from_numerator(C.hilbert_numerator(), 3).coeffs == (1, 2)
    assert _hilbert_dimension(C) == (1, 2)
    assert codimension(C) == 1
    assert [hilbert_function(C, n) for n in range(5)] == [1, 3, 5, 7, 9]


def test_fat_point_hilbert_data():
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    assert [hilbert_function(I, n) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    assert _hilbert_dimension(I) == (0, 2)
    assert codimension(I) == 2


@pytest.mark.parametrize("nvars, gens, want", [
    (3, [], (2, 1)),  # P^2
    (3, ["x0*x2 - x1^2"], (1, 2)),  # a conic
    (4, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], (1, 3)),  # twisted cubic
    (3, ["x0 + x1", "x0^2"], (0, 2)),  # a double point
    (3, ["1"], (-1, 0)),
    (3, ["x0", "x1", "x2"], (-1, 0)),  # m
    (3, None, (-1, 0)),  # the numerator {}
])
def test_hilbert_dimension_of_pinned_schemes(nvars, gens, want):
    if gens is None:
        assert hilbert_dimension({}, nvars) == want
    else:
        assert _hilbert_dimension(HomIdeal.from_strings(PolyRing(QQ, nvars), gens)) == want


@st.composite
def hilbert_numerators(draw):
    """(numerator, nvars) over (1 - u)^nvars: N(S/I) of a ring_and_ideal
    draw, the Tor_j(S/I, S/J) numerator from tor_from_resolution, the Euler
    product N(S/I)*N(S/J), or (1 - u)^c*Q built by hand, c up to nvars + 2."""
    kind = draw(st.sampled_from(["ideal", "tor", "euler", "built"]))
    if kind == "built":
        nvars = draw(st.integers(1, 5))
        q = {a: x for a, x in enumerate(draw(st.lists(st.integers(-3, 3), min_size=1,
                                                          max_size=4))) if x}
        c = draw(st.integers(0, nvars + 2))
        return _fold(polykernel.numerator_mul, [{0: 1, 1: -1}] * c, q), nvars
    ring, I = draw(ring_and_ideal(max_deg=2, max_gens=2))
    if kind == "ideal":
        return I.hilbert_numerator(), ring.nvars
    J = HomIdeal(ring, draw(st.lists(homogeneous_poly(ring, 2), min_size=1, max_size=2)))
    if kind == "euler":
        return polykernel.numerator_mul(I.hilbert_numerator(), J.hilbert_numerator()), ring.nvars
    res = free_resolution(I)
    return tor_from_resolution(res, J, draw(st.integers(0, res.length + 1))).numerator, ring.nvars


@given(hilbert_numerators())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hilbert_dimension_matches_the_oracle_polynomial(drawn):
    """(dim, deg) read off the numerator is the oracle polynomial's degree
    and its leading coefficient times dim!, and (-1, 0) exactly when the
    oracle polynomial is zero."""
    num, nvars = drawn
    dim, deg = hilbert_dimension(num, nvars)
    hp = oracles.hilbert_polynomial_from_numerator(num, nvars)
    assert dim == hp.degree()
    assert ((dim, deg) == (-1, 0)) == hp.is_zero()
    if dim >= 0:
        assert deg == hp.coeffs[-1] * factorial(dim)


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
    hp = oracles.hilbert_polynomial_from_numerator(I.hilbert_numerator(), ring.nvars)
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


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_monomial_meet_is_the_intersection(data):
    """The minimal lcms of one monomial from each list generate the
    intersection of the two monomial ideals: the same generators as
    intersect's reduced basis."""
    ring = data.draw(st.sampled_from(RINGS))
    I, J = data.draw(monomial_ideal(ring)), data.draw(monomial_ideal(ring))
    meet = polykernel.monomial_meet([g.lm() for g in I.gens], [g.lm() for g in J.gens])
    assert HomIdeal(ring, [ring.monomial(m) for m in meet]).gens == intersect(I, J).gens


def test_radical_of_powers():
    I = HomIdeal.from_strings(RQ, ["x0^3", "x1^2*x2^4"])
    assert ideal_equal(monomial_radical(I), HomIdeal.from_strings(RQ, ["x0", "x1*x2"]))
