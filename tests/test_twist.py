"""Twisted multiplication and pullback-action tests.

The multiplication rule is a * b = a . (b o sigma^m) for a of degree m; the
frozen commutation constants below are forced by that rule for the diagonal
automorphism diag(1, 2, 3) and were checked by hand.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geomideal import linalg
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import RationalPoint
from geomideal.idealizer import IdealizerScene, idealizer_piece
from geomideal.polykernel import HomIdeal, PolyRing, dim_full_space, monomials_of_degree
from geomideal.twist import (
    DegreePiece,
    ProjAutomorphism,
    TwistedElement,
    _mat_pow,
    is_scalar_matrix,
    twist_multiply,
)

RQ = PolyRing(QQ, 3)
SIGMA = ProjAutomorphism.diagonal(RQ, ["1", "2", "3"])


def elem(text):
    p = RQ.parse(text)
    return TwistedElement(p.degree, p)


def star(a, b, sigma=SIGMA):
    return twist_multiply(elem(a) if isinstance(a, str) else a,
                          elem(b) if isinstance(b, str) else b, sigma)


# ---------------------------------------------------------------------------
# frozen commutation relations for diag(1, 2, 3)
# ---------------------------------------------------------------------------

def test_variable_commutation_constants():
    assert star("x0", "x1").poly == star("x1", "x0").poly.scale(Fraction(2))
    assert star("x0", "x2").poly == star("x2", "x0").poly.scale(Fraction(3))
    assert star("x1", "x2").poly == star("x2", "x1").poly.scale(Fraction(3, 2))


def test_general_diagonal_commutation():
    # for diag(1, p, q): x0*x1 = p x1*x0, x0*x2 = q x2*x0, x1*x2 = (q/p) x2*x1
    for p, q in [(Fraction(5), Fraction(7)), (Fraction(2, 3), Fraction(11, 4))]:
        sig = ProjAutomorphism.diagonal(RQ, [Fraction(1), p, q])
        assert star("x0", "x1", sig).poly == star("x1", "x0", sig).poly.scale(p)
        assert star("x0", "x2", sig).poly == star("x2", "x0", sig).poly.scale(q)
        assert star("x1", "x2", sig).poly == star("x2", "x1", sig).poly.scale(q / p)


def test_degrees_add():
    prod = star("x0^2*x1", "x1*x2")
    assert prod.degree == 5
    assert prod.poly.degree == 5


def test_identity_sigma_recovers_commutative_product():
    ident = ProjAutomorphism.identity(RQ)
    a, b = RQ.parse("x0^2 - x1*x2"), RQ.parse("x0 + 3*x2")
    prod = twist_multiply(TwistedElement(2, a), TwistedElement(1, b), ident)
    assert prod.poly == a * b


# ---------------------------------------------------------------------------
# associativity and the pullback action
# ---------------------------------------------------------------------------

def _random_sigma(draw):
    kind = draw(st.sampled_from(["diag", "shear", "mixed"]))
    if kind == "diag":
        entries = [Fraction(draw(st.integers(1, 5))) for _ in range(3)]
        return ProjAutomorphism.diagonal(RQ, entries)
    if kind == "shear":
        return ProjAutomorphism.from_strings(
            RQ, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        )
    return ProjAutomorphism.from_strings(
        RQ, [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "2"]]
    )


@st.composite
def twisted_element(draw, max_deg=2):
    deg = draw(st.integers(0, max_deg))
    monos = monomials_of_degree(RQ, deg)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    p = RQ.zero()
    for m in chosen:
        c = draw(st.integers(-3, 3).filter(lambda v: v != 0))
        p = p + RQ.monomial(m, QQ.from_int(c))
    return TwistedElement(deg, p)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_twist_associativity(data):
    sigma = _random_sigma(data.draw)
    a = data.draw(twisted_element())
    b = data.draw(twisted_element())
    c = data.draw(twisted_element())
    left = twist_multiply(twist_multiply(a, b, sigma), c, sigma)
    right = twist_multiply(a, twist_multiply(b, c, sigma), sigma)
    assert left.degree == right.degree
    assert left.poly == right.poly


@settings(max_examples=50, deadline=None)
@given(data=st.data(), m=st.integers(0, 3), n=st.integers(0, 3))
def test_pullback_group_action(data, m, n):
    sigma = _random_sigma(data.draw)
    f = data.draw(twisted_element()).poly
    assert sigma.pullback(sigma.pullback(f, m), n) == sigma.pullback(f, m + n)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pullback_is_ring_homomorphism(data):
    sigma = _random_sigma(data.draw)
    f = data.draw(twisted_element()).poly
    g = data.draw(twisted_element()).poly
    n = data.draw(st.integers(0, 3))
    assert sigma.pullback(f * g, n) == sigma.pullback(f, n) * sigma.pullback(g, n)
    assert sigma.pullback(f + g, n) == sigma.pullback(f, n) + sigma.pullback(g, n)


def test_pullback_point_adjunction():
    # (f o sigma^n)(p) = f(sigma^n p)
    f = RQ.parse("x0^2*x1 - 3*x2^3 + x0*x1*x2")
    p = (Fraction(1), Fraction(-2), Fraction(1, 3))
    for n in (0, 1, 2, 3):
        assert SIGMA.pullback(f, n).evaluate(p) == f.evaluate(SIGMA.act_point(p, n))


def test_pullback_ideal_membership_commutes():
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    g = RQ.parse("x0*x1 + x1^2")  # = (x0+x1)*x1, in I
    h = RQ.parse("x2^2")
    for n in (1, 2, 3):
        In = SIGMA.pullback_ideal(I, n)
        assert In.contains(SIGMA.pullback(g, n))
        assert not In.contains(SIGMA.pullback(h, n))


def test_projective_rescaling_gives_same_action():
    lam = Fraction(5)
    scaled = ProjAutomorphism.diagonal(RQ, [lam, 2 * lam, 3 * lam])
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    from geomideal.polykernel import ideal_equal

    for n in (1, 2):
        assert ideal_equal(SIGMA.pullback_ideal(I, n), scaled.pullback_ideal(I, n))


def test_sigma_acts_by_nonnegative_powers_only():
    """sigma^n acts for n >= 0 only; every entry point refuses n < 0."""
    I = HomIdeal.from_strings(RQ, ["x0 + x1", "x0^2"])
    scene = IdealizerScene(RQ, SIGMA, I)
    refusals = [
        lambda: SIGMA.pullback(RQ.parse("x0"), -1),
        lambda: SIGMA.pullback_ideal(I, -1),
        lambda: SIGMA.act_point((Fraction(1), Fraction(1), Fraction(1)), -1),
        lambda: RationalPoint.parse(QQ, "[1:1:1]").apply(SIGMA, -2),
        lambda: scene.pulled_ideal(-1),
    ]
    for call in refusals:
        with pytest.raises(ValueError, match="n >= 0"):
            call()


@st.composite
def sigma_matrix(draw):
    """(ring, rows): diagonal, a shear, a scaled permutation or a random
    invertible matrix over Q or GF(101), on P^2..P^4."""
    ring = PolyRing(draw(st.sampled_from([QQ, PrimeField(101)])), draw(st.integers(3, 5)))
    field, nv = ring.field, ring.nvars
    entry = st.integers(-4, 4).map(field.from_int)
    unit = entry.filter(bool)
    kind = draw(st.sampled_from(["diagonal", "shear", "permutation", "random"]))
    rows = [[field.one if i == j else field.zero for j in range(nv)] for i in range(nv)]
    if kind == "diagonal":
        for i in range(nv):
            rows[i][i] = draw(unit)
    elif kind == "shear":
        i, j = draw(st.lists(st.integers(0, nv - 1), min_size=2, max_size=2, unique=True))
        rows[i][j] = draw(unit)
    elif kind == "permutation":
        perm = draw(st.permutations(range(nv)))
        rows = [[draw(unit) if j == perm[i] else field.zero for j in range(nv)]
                for i in range(nv)]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=nv, max_size=nv),
                             min_size=nv, max_size=nv)
                    .filter(lambda r: linalg.rank(field, [list(x) for x in r]) == nv))
    return ring, rows


@settings(max_examples=60, deadline=None)
@given(case=sigma_matrix(), data=st.data())
def test_powers_match_dense_products(case, data):
    """The columns of sigma^n(e_j) for n in 0..6 and _mat_pow(M, n) for n
    in 1..6 are the dense product of n copies of M, and the pullback of a
    form by sigma^n is its substitution by that product."""
    ring, rows = case
    field = ring.field
    sigma = ProjAutomorphism(ring, rows)
    M = sigma.matrix
    basis = oracles.dense_power(field, M, 0)
    monos = monomials_of_degree(ring, 2)
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    f = sum((ring.monomial(m, field.from_int(data.draw(st.integers(1, 5)))) for m in chosen),
            ring.zero())
    for n in range(7):
        want = oracles.dense_power(field, M, n)
        assert tuple(zip(*(sigma.act_point(e, n) for e in basis))) == want
        assert n == 0 or _mat_pow(field, M, n) == want
        assert sigma.pullback(f, n) == oracles.dense_pullback(f, M, n)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        ProjAutomorphism.from_strings(
            RQ, [["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]]
        )


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="3x3"):
        ProjAutomorphism.from_strings(RQ, [["1", "0"], ["0", "1"]])


def test_diagonal_detection():
    assert SIGMA.is_diagonal()
    assert SIGMA.diagonal_entries() == (Fraction(1), Fraction(2), Fraction(3))
    shear = ProjAutomorphism.from_strings(
        RQ, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    )
    assert not shear.is_diagonal()


def test_identity_detection_up_to_scalar():
    five = ProjAutomorphism.diagonal(RQ, ["5", "5", "5"])
    assert is_scalar_matrix(RQ.field, five.matrix)
    assert not is_scalar_matrix(RQ.field, SIGMA.matrix)


def test_twisted_element_validates_degree():
    with pytest.raises(ValueError):
        TwistedElement(3, RQ.parse("x0^2"))
    with pytest.raises(ValueError):
        TwistedElement(1, RQ.parse("x0 + x1^2"))


def test_twisted_addition_requires_equal_degree():
    a = elem("x0^2")
    b = elem("x1*x2")
    assert (a + b).poly == RQ.parse("x0^2 + x1*x2")
    with pytest.raises(ValueError):
        a + elem("x0")


def test_graded_piece_dimensions():
    assert [dim_full_space(RQ, n) for n in range(5)] == [1, 3, 6, 10, 15]
    # R_n = (I : I^{sigma^n})_n is all of B_n when Z is sigma-fixed
    scene = IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x1", "x2"]))
    piece = idealizer_piece(scene, 2)
    assert isinstance(piece, DegreePiece)
    assert piece.dimension == 6
    assert all(p.degree == 2 for p in piece.basis)


def test_prime_field_twist():
    R7 = PolyRing(PrimeField(7), 3)
    sig = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    x0, x1 = R7.variable(0), R7.variable(1)
    lhs = twist_multiply(TwistedElement(1, x0), TwistedElement(1, x1), sig)
    rhs = twist_multiply(TwistedElement(1, x1), TwistedElement(1, x0), sig)
    assert lhs.poly == rhs.poly.scale(R7.field.from_int(2))
