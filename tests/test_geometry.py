"""Orbit, independence, and critical-transversality tests.

Soundness of the analytic orbit certificates is re-checked exhaustively out
to twice the issued bound; the transversality certificates are re-verified
against independent Tor computations for every enumerated union.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import cli, geometry, homology, linalg, polykernel
from geomideal.classify import sigma_ideal_order
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import (
    PERIOD_CAP,
    CTCertificate,
    RationalPoint,
    _DEDEKIND,
    _coordinate_subsets,
    _meets_z,
    _ratio_gate,
    _subspace_ideal,
    _unipotent_part,
    critical_transversality_certificate,
    forward_orbit_hits,
    multiplicative_independence,
    projective_order,
)
from geomideal.homology import (
    Transversality,
    free_resolution,
    homologically_transverse,
)
from geomideal.idealizer import IdealizerScene
from geomideal.polykernel import (
    HomIdeal,
    PolyRing,
    hilbert_dimension,
    ideal_equal,
    ideal_sum,
    intersect,
    monomials_of_degree,
)
from geomideal.twist import ProjAutomorphism, is_scalar_matrix

RQ = PolyRing(QQ, 3)
R1 = PolyRing(QQ, 2)
SIGMA = ProjAutomorphism.diagonal(RQ, ["1", "2", "3"])
SHEAR = ProjAutomorphism.from_strings(R1, [["1", "1"], ["0", "1"]])


def pt(text, field=QQ):
    return RationalPoint.parse(field, text)


def _dim(I):
    """dim V(I), -1 when V(I) is empty."""
    return hilbert_dimension(I.hilbert_numerator(), I.ring.nvars)[0]


# ---------------------------------------------------------------------------
# rational points
# ---------------------------------------------------------------------------

def test_point_normalization():
    assert pt("[2 : 4 : 6]") == pt("[1 : 2 : 3]")
    assert pt("[0 : 5 : 10]").coords == (Fraction(0), Fraction(1), Fraction(2))


def test_point_rejects_zero_vector():
    with pytest.raises(ValueError):
        RationalPoint.of(QQ, ["0", "0", "0"])


def test_point_parse_fractions():
    p = pt("[1/2 : 1 : -3/4]")
    assert p.coords == (Fraction(1), Fraction(2), Fraction(-3, 2))


def test_point_ideal_is_its_vanishing_locus():
    p = pt("[1 : 1 : 1]")
    I = p.ideal(RQ)
    assert p.on_subscheme(I)
    assert not pt("[1 : 2 : 1]").on_subscheme(I)
    # the ideal of a point is a codimension-d linear ideal
    assert len(I.gens) == 2


def test_point_apply_matches_matrix_action():
    p = pt("[1 : 1 : 1]")
    assert p.apply(SIGMA, 2) == pt("[1 : 4 : 9]")
    assert p.apply(SIGMA, 0) == p


# ---------------------------------------------------------------------------
# point order: the period forward_orbit_hits reports
# ---------------------------------------------------------------------------

def point_period(p, sigma, horizon):
    Z = HomIdeal(sigma.ring, [sigma.ring.variable(0)])
    return forward_orbit_hits(p, sigma, Z, horizon).period


def test_identity_has_order_one():
    ident = ProjAutomorphism.identity(RQ)
    assert point_period(pt("[1 : 2 : 3]"), ident, 10) == 1


def test_sign_flip_has_order_two():
    neg = ProjAutomorphism.diagonal(R1, ["1", "-1"])
    assert point_period(pt("[1:1]"), neg, 10) == 2
    # but the fixed points have order 1
    assert point_period(pt("[1:0]"), neg, 10) == 1


def test_shear_orbit_never_returns():
    assert point_period(pt("[0:1]"), SHEAR, 100) is None


def test_scalar_action_is_projectively_trivial():
    five = ProjAutomorphism.diagonal(RQ, ["5", "5", "5"])
    assert point_period(pt("[1 : 2 : 3]"), five, 10) == 1


# ---------------------------------------------------------------------------
# forward orbits
# ---------------------------------------------------------------------------

def test_diagonal_orbit_certified_finite():
    Z = HomIdeal.from_strings(RQ, ["x0 - x1"])
    rep = forward_orbit_hits(pt("[1:1:1]"), SIGMA, Z, 20)
    assert rep.verdict == "certified-finite"
    assert rep.hits == (0,)
    assert rep.n0 == 1
    assert rep.justification == "dominant-term"


def test_fixed_point_inside_z_is_infinite():
    Z = HomIdeal.from_strings(RQ, ["x1"])
    rep = forward_orbit_hits(pt("[1:0:0]"), SIGMA, Z, 8)
    assert rep.verdict == "infinite"
    assert rep.period == 1
    assert rep.hits == tuple(range(9))


def test_shear_orbit_certified_by_polynomial_growth():
    Z = HomIdeal.from_strings(R1, ["x0"])
    rep = forward_orbit_hits(pt("[0:1]"), SHEAR, Z, 10)
    assert rep.verdict == "certified-finite"
    assert rep.hits == (0,)
    assert rep.justification == "polynomial-growth"


def test_negative_eigenvalues_certified_by_parity_split():
    sig = ProjAutomorphism.diagonal(R1, ["1", "-2"])
    Z = HomIdeal.from_strings(R1, ["x0 - x1"])
    rep = forward_orbit_hits(pt("[1:1]"), sig, Z, 10)
    assert rep.verdict == "certified-finite"
    assert rep.hits == (0,)


def test_orbit_inside_z_forever():
    sig = ProjAutomorphism.diagonal(RQ, ["1", "1", "2"])
    Z = HomIdeal.from_strings(RQ, ["x0 - x1"])
    rep = forward_orbit_hits(pt("[1:1:1]"), sig, Z, 6)
    assert rep.verdict == "infinite"
    assert rep.hits == tuple(range(7))
    assert rep.justification == "identically-zero-evaluation"


def test_one_parity_class_inside_z_forever():
    # sigma^n [1:1:1] = [1:(-1)^n:2^n] lies on x0 = x1 exactly for even n:
    # the even class vanishes identically, the odd class never does
    sig = ProjAutomorphism.diagonal(RQ, ["1", "-1", "2"])
    Z = HomIdeal.from_strings(RQ, ["x0 - x1"])
    rep = forward_orbit_hits(pt("[1:1:1]"), sig, Z, 6)
    assert rep.verdict == "infinite"
    assert rep.hits == (0, 2, 4, 6)
    assert rep.justification == "identically-zero-evaluation"
    assert rep.notes == ("one parity class vanishes identically",)


def test_polynomial_growth_with_a_generator_vanishing_along_the_orbit():
    # the shear sends [0:1:1] to [n:1:1], on x1 = x2 for every n; x0 = n
    # vanishes only at n = 0 and bounds the hits
    shear = ProjAutomorphism.from_strings(RQ, [["1", "1", "0"], ["0", "1", "0"],
                                               ["0", "0", "1"]])
    Z = HomIdeal.from_strings(RQ, ["x1 - x2", "x0"])
    rep = forward_orbit_hits(pt("[0:1:1]"), shear, Z, 6)
    assert rep.verdict == "certified-finite"
    assert rep.hits == (0,)
    assert rep.n0 == 2
    assert rep.justification == "polynomial-growth"


def test_orbit_without_a_route_hitting_at_the_horizon_is_inconclusive():
    # a shear times diag(1, 1, 2) is neither diagonal nor unipotent up to a
    # scalar; sigma^n [0:1:1] = [n:1:2^n] meets x0 = 6*x1 at n = 6, the horizon
    sig = ProjAutomorphism.from_strings(RQ, [["1", "1", "0"], ["0", "1", "0"],
                                             ["0", "0", "2"]])
    Z = HomIdeal.from_strings(RQ, ["x0 - 6*x1"])
    rep = forward_orbit_hits(pt("[0:1:1]"), sig, Z, 6)
    assert rep.verdict == "inconclusive"
    assert rep.hits == (6,)
    assert rep.notes == ("no certificate route for this sigma",)


def test_periodic_orbit_missing_z_certified():
    neg = ProjAutomorphism.diagonal(R1, ["1", "-1"])
    Z = HomIdeal.from_strings(R1, ["x0 - 3*x1"])
    rep = forward_orbit_hits(pt("[1:1]"), neg, Z, 10)
    assert rep.verdict == "certified-finite"
    assert rep.hits == ()
    assert rep.justification == "periodicity"
    assert rep.n0 == 2


def test_no_certificate_route_is_labeled():
    mixed = ProjAutomorphism.from_strings(
        RQ, [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    )
    Z = HomIdeal.from_strings(RQ, ["x0 - x2"])
    rep = forward_orbit_hits(pt("[1:1:1]"), mixed, Z, 12)
    assert rep.verdict in ("finite-within-horizon", "inconclusive")
    assert rep.n0 is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_certified_finite_soundness_to_twice_the_bound(data):
    """Exhaustive re-checking up to 2*n0 finds nothing past the hit list,
    for diagonal sigma with positive entries, with a negative entry (the
    parity split) and for a scaled 2x2 or 3x3 Jordan block (the unipotent
    route)."""
    shape = data.draw(st.sampled_from(["positive", "negative", "jordan2", "jordan3"]))
    if shape.startswith("jordan"):
        # c times a Jordan block of size k, padded by c on the diagonal
        c = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]))
        k = int(shape[-1])
        sigma = ProjAutomorphism(RQ, [
            [c if j == i or j == i + 1 < k else Fraction(0) for j in range(3)]
            for i in range(3)])
    else:
        entries = data.draw(
            st.lists(st.integers(1, 5), min_size=3, max_size=3).filter(
                lambda e: len(set(e)) >= 2
            )
        )
        if shape == "negative":
            # minus a neighbour's entry: bases r and -r split by parity
            i = data.draw(st.integers(0, 2))
            entries[i] = -entries[(i + 1) % 3]
        sigma = ProjAutomorphism.diagonal(RQ, [Fraction(e) for e in entries])
    coords = data.draw(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(
            lambda c: any(c)
        )
    )
    p = RationalPoint.of(QQ, [Fraction(c) for c in coords])
    Z = HomIdeal.from_strings(
        RQ, [data.draw(st.sampled_from(
            ["x0 - x1", "x0 + x1 - 2*x2", "x1*x2 - x0^2", "x2"]
        ))]
    )
    rep = forward_orbit_hits(p, sigma, Z, 10)
    if rep.verdict != "certified-finite":
        return
    recheck = [
        n for n in range(2 * rep.n0 + 1) if p.apply(sigma, n).on_subscheme(Z)
    ]
    assert recheck == [n for n in rep.hits if n <= 2 * rep.n0]
    assert all(n < rep.n0 for n in rep.hits)


@settings(max_examples=10, deadline=None)
@given(v=st.integers(2, 3))
def test_orbit_functoriality_under_powers(v):
    """Hits of sigma^v at horizon H are the v-step subsequence for sigma."""
    Z = HomIdeal.from_strings(RQ, ["x0^2 - x1*x2"])
    p = pt("[1:1:1]")
    H = 6
    base = forward_orbit_hits(p, SIGMA, Z, v * H)
    power = forward_orbit_hits(
        p, ProjAutomorphism(RQ, oracles.dense_power(QQ, SIGMA.matrix, v)), Z, H
    )
    expected = tuple(n // v for n in base.hits if n % v == 0 and n <= v * H)
    assert tuple(n for n in power.hits if n <= H) == tuple(
        n for n in expected if n <= H
    )


def test_rescaled_shear_keeps_the_shear_verdicts():
    """2 * [[1,1],[0,1]] is the shear up to a scalar, so every verdict
    matches the shear's (it used to be horizon-bounded only)."""
    double = ProjAutomorphism.from_strings(R1, [["2", "2"], ["0", "2"]])
    Z = HomIdeal.from_strings(R1, ["x0"])
    rep = forward_orbit_hits(pt("[0:1]"), double, Z, 10)
    assert rep == forward_orbit_hits(pt("[0:1]"), SHEAR, Z, 10)
    assert (rep.verdict, rep.justification) == ("certified-finite", "polynomial-growth")
    order = sigma_ideal_order(Z, double, 5)
    assert order == sigma_ideal_order(Z, SHEAR, 5)
    assert order.justification == "unipotent-rigidity"
    assert _unipotent_part(double)[0] == Fraction(2)
    assert not is_scalar_matrix(QQ, double.matrix)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rescaling_sigma_changes_no_orbit_or_order_verdict(data):
    field = data.draw(st.sampled_from([QQ, QQ, PrimeField(7), PrimeField(11)]))
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(field, nv)
    shape = data.draw(st.sampled_from(["diagonal", "unipotent", "triangular"]))
    entry = st.integers(-3, 3)
    rows = [[data.draw(entry) if j > i else 0 for j in range(nv)] for i in range(nv)]
    for i in range(nv):
        rows[i][i] = 1 if shape == "unipotent" else data.draw(entry.filter(bool))
        if shape == "diagonal":
            rows[i][i + 1:] = [0] * (nv - i - 1)
    try:
        sigma = ProjAutomorphism(ring, [[field.from_int(x) for x in r] for r in rows])
    except ValueError:  # singular over GF(p)
        return
    c = field.from_fraction(data.draw(st.sampled_from(
        [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 5)])))
    scaled = ProjAutomorphism(ring, [[field.mul(c, x) for x in r] for r in sigma.matrix])
    coords = data.draw(st.lists(entry, min_size=nv, max_size=nv).filter(any))
    p = RationalPoint.of(field, [field.from_int(x) for x in coords])
    Z = HomIdeal.from_strings(ring, [data.draw(st.sampled_from(
        ["x0 - x1", "x0 + 2*x1", "x1^2 - x0^2", "x0*x1 - 3*x1^2"]))])
    assert forward_orbit_hits(p, scaled, Z, 8) == forward_orbit_hits(p, sigma, Z, 8)
    for ideal in (Z, p.ideal(ring)):
        assert sigma_ideal_order(ideal, scaled, 3) == sigma_ideal_order(ideal, sigma, 3)


def _permuted(perm, ring, sigma, Z, p):
    """sigma, Z and p under the coordinate change x_i -> x_perm[i]."""
    field = ring.field
    inv = [perm.index(a) for a in range(ring.nvars)]
    rows = [[sigma.matrix[inv[a]][inv[b]] for b in range(ring.nvars)]
            for a in range(ring.nvars)]
    gens = [sum((ring.monomial(tuple(m[i] for i in inv), c) for m, c in g.terms.items()),
                ring.zero())
            for g in Z.gens]
    return (ProjAutomorphism(ring, rows), HomIdeal(ring, gens),
            RationalPoint.of(field, [p.coords[i] for i in inv]))


def _orbit_verdict(rep):
    return (rep.verdict, rep.hits, rep.n0, rep.period, rep.justification, rep.first_hit)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permuting_coordinates_changes_no_orbit_or_order_verdict(data):
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(field, nv)
    shape = data.draw(st.sampled_from(["diagonal", "unipotent", "triangular", "any"]))
    entry = st.integers(-3, 3)
    rows = [[data.draw(entry) if shape == "any" or j > i else 0 for j in range(nv)]
            for i in range(nv)]
    for i in range(nv):
        if shape != "any":
            rows[i][i] = 1 if shape == "unipotent" else data.draw(entry.filter(bool))
        if shape == "diagonal":
            rows[i][i + 1:] = [0] * (nv - i - 1)
    try:
        sigma = ProjAutomorphism(ring, [[field.from_int(x) for x in r] for r in rows])
    except ValueError:  # singular
        return
    p = RationalPoint.of(field, [field.from_int(x) for x in data.draw(
        st.lists(entry, min_size=nv, max_size=nv).filter(any))])
    monos = monomials_of_degree(ring, data.draw(st.integers(1, 2)))
    form = sum((ring.monomial(m, field.from_int(data.draw(entry))) for m in monos),
               ring.zero())
    if form.is_zero():
        return
    Z = HomIdeal(ring, [form])
    perm = data.draw(st.permutations(range(nv)))
    sigma2, Z2, p2 = _permuted(perm, ring, sigma, Z, p)
    assert (_orbit_verdict(forward_orbit_hits(p2, sigma2, Z2, 8))
            == _orbit_verdict(forward_orbit_hits(p, sigma, Z, 8)))
    for ideal, ideal2 in ((Z, Z2), (p.ideal(ring), p2.ideal(ring))):
        assert sigma_ideal_order(ideal2, sigma2, 3) == sigma_ideal_order(ideal, sigma, 3)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_permuting_coordinates_changes_no_ct_cert_verdict(data):
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    ring = PolyRing(field, 3)
    # 1, 2, 4 has dependent ratios (4 = 2^2): inconclusive on every permutation
    sigma = ProjAutomorphism.diagonal(ring, data.draw(st.sampled_from(
        [["1", "2", "3"], ["2", "3", "5"], ["1", "2", "4"]])))
    p = RationalPoint.of(field, [field.from_int(x) for x in data.draw(
        st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any))])
    Z = p.ideal(ring)
    perm = data.draw(st.sampled_from(list(permutations(range(3)))[1:]))
    sigma2, Z2, _ = _permuted(perm, ring, sigma, Z, p)
    assert (critical_transversality_certificate(IdealizerScene(ring, sigma2, Z2)).status
            == critical_transversality_certificate(IdealizerScene(ring, sigma, Z)).status)


def test_gf103_periodic_orbit_names_a_first_hit_past_the_horizon():
    ring = PolyRing(PrimeField(103), 2)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "5"])
    Z = HomIdeal.from_strings(ring, ["x1 - 7*x0"])
    rep = forward_orbit_hits(pt("[1:1]", ring.field), sigma, Z, 3)
    assert (rep.verdict, rep.hits, rep.period, rep.first_hit) == ("infinite", (), 102, 4)
    rep = forward_orbit_hits(pt("[1:1]", ring.field), sigma, Z, 4)
    assert (rep.hits, rep.first_hit) == ((4,), None)


def test_prime_field_shear_orbit_is_periodic_not_polynomial():
    """Over GF(101) the shear orbit of [0:1] returns to Z at n = 101."""
    ring = PolyRing(PrimeField(101), 2)
    shear = ProjAutomorphism.from_strings(ring, [["1", "1"], ["0", "1"]])
    Z = HomIdeal.from_strings(ring, ["x0"])
    rep = forward_orbit_hits(pt("[0:1]", ring.field), shear, Z, 10)
    assert rep.verdict == "infinite"
    assert rep.justification == "periodicity"
    assert rep.period == 101
    assert rep.hits == (0,)


def _orbit_rescan(sigma, p, Z):
    """Brute force: (period, hit residues) of the orbit of p."""
    q, n, hits = p, 0, set()
    while True:
        if q.on_subscheme(Z):
            hits.add(n)
        n += 1
        q = q.apply(sigma)
        if q == p:
            return n, hits


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prime_field_orbit_verdicts_match_a_rescan(data):
    field = PrimeField(data.draw(st.sampled_from([5, 7, 11])))
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(field, nv)
    entry = st.integers(0, field.p - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=nv, max_size=nv),
                              min_size=nv, max_size=nv))
    if data.draw(st.booleans()):  # unipotent: the route that went unsound
        rows = [[1 if i == j else c if j > i else 0 for j, c in enumerate(row)]
                for i, row in enumerate(rows)]
    try:
        sigma = ProjAutomorphism(ring, rows)
    except ValueError:  # singular
        return
    coords = data.draw(st.lists(entry, min_size=nv, max_size=nv).filter(any))
    p = RationalPoint.of(field, coords)
    form = data.draw(st.lists(entry, min_size=nv, max_size=nv).filter(any))
    Z = HomIdeal(ring, [sum((ring.variable(i).scale(c) for i, c in enumerate(form)),
                            ring.zero())])
    horizon = data.draw(st.integers(1, 15))
    rep = forward_orbit_hits(p, sigma, Z, horizon)
    period, hits = _orbit_rescan(sigma, p, Z)
    assert rep.hits == tuple(n for n in range(horizon + 1) if n % period in hits)
    if rep.verdict == "certified-finite":
        assert not hits
    if rep.verdict == "infinite":
        assert hits
    if rep.period is not None:
        assert rep.period == period


@pytest.mark.parametrize("p, diag, order, Z, period", [
    # projective order 100 <= the scan cap: the period divides it
    (101, ["1", "2", "3"], 100, "x1 - 8*x0", 100),
    # projective order 3000 > the cap, but [1:1:0] has period 50 (1454 has
    # order 50 mod 3001, 14 is a primitive root, 1454^3 = 364)
    (3001, ["1", "1454", "14"], None, "x1 - 364*x0", 50),
])
def test_prime_field_orbit_scans_the_point_orbit_to_the_cap(p, diag, order, Z, period):
    ring = PolyRing(PrimeField(p), 3)
    sigma = ProjAutomorphism.diagonal(ring, diag)
    assert projective_order(sigma) == order
    rep = forward_orbit_hits(pt("[1:1:0]", ring.field), sigma,
                             HomIdeal.from_strings(ring, [Z]), 10)
    assert (rep.verdict, rep.justification) == ("infinite", "periodicity")
    assert rep.period == period
    assert rep.hits == (3,)


def test_prime_field_orbit_past_the_cap_lists_hits_to_the_horizon_only():
    # [1:1:1] under diag(1, 1454, 14) over GF(3001) has period 3000 > 1000;
    # the scan meets V(x1 - 364 x0) at n = 3, 53, 103, ... but reports n <= 10
    ring = PolyRing(PrimeField(3001), 3)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "1454", "14"])
    rep = forward_orbit_hits(pt("[1:1:1]", ring.field), sigma,
                             HomIdeal.from_strings(ring, ["x1 - 364*x0"]), 10)
    assert rep.verdict == "finite-within-horizon"
    assert rep.period is None
    assert rep.hits == (3,)


def _oracle_orbit(p, sigma, Z, horizon):
    return oracles.brute_orbit(sigma.matrix, p.coords, [dict(g.terms) for g in Z.gens],
                               horizon, sigma.ring.field.char, PERIOD_CAP)


def _report_fields(rep):
    return (rep.hits, rep.period, rep.first_hit, rep.n0, rep.verdict)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_orbit_reports_match_the_normalized_point_oracle(data):
    """hits, period, first_hit, n0 and verdict equal a brute-force walk on
    normalized points, for diagonal, scaled Jordan, shear and triangular
    sigma over Q and GF(5), GF(7), GF(11), GF(103)."""
    field = data.draw(st.sampled_from(
        [QQ, QQ, PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(103)]))
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(field, nv)
    shape = data.draw(st.sampled_from(["diagonal", "jordan", "shear", "triangular"]))
    entry = st.integers(-3, 3)
    nonzero = entry.filter(bool)
    c = data.draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(2, 3)]))
    rows = [[Fraction(0)] * nv for _ in range(nv)]
    for i in range(nv):
        if shape == "diagonal":
            rows[i][i] = data.draw(nonzero)
        elif shape == "jordan":  # c times one Jordan block
            rows[i][i] = c
            if i + 1 < nv:
                rows[i][i + 1] = c
        elif shape == "shear":
            rows[i][i] = 1
            rows[i][i + 1:] = [data.draw(entry) for _ in range(nv - i - 1)]
        else:
            rows[i][i] = data.draw(nonzero)
            rows[i][i + 1:] = [data.draw(entry) for _ in range(nv - i - 1)]
    sigma = ProjAutomorphism(ring, [[field.from_fraction(Fraction(x)) for x in r]
                                    for r in rows])
    coords = data.draw(st.lists(entry, min_size=nv, max_size=nv).filter(any))
    p = RationalPoint.of(field, [field.from_int(x) for x in coords])
    forms = ["x0 - x1", "x1", "x0*x1 - x1^2", f"x0^2 + x1*x{nv - 1} - 2*x{nv - 1}^2"]
    choice = data.draw(st.integers(0, len(forms)))
    if choice == len(forms):  # through an orbit point, maybe past the horizon
        Z = p.apply(sigma, data.draw(st.integers(0, 20))).ideal(ring)
    else:
        Z = HomIdeal.from_strings(ring, [forms[choice]])
    horizon = data.draw(st.integers(1, 12))
    rep = forward_orbit_hits(p, sigma, Z, horizon)
    assert _report_fields(rep) == _oracle_orbit(p, sigma, Z, horizon)


@pytest.mark.parametrize("rows, point, form, hits, n0, justification", [
    # 64 - 2^n: zero at n = 6, dominant from 2^7 > 64 * 1^7 on
    ([["1", "0"], ["0", "2"]], "[1:1]", "64*x0 - x1", (6,), 7, "dominant-term"),
    # -1/3 times the shear: [0:1] -> [n:1], Cauchy bound 11 on n - 9
    ([["-1/3", "-1/3"], ["0", "-1/3"]], "[0:1]", "x0 - 9*x1", (9,), 11,
     "polynomial-growth"),
])
def test_certified_rational_orbit_past_the_horizon(rows, point, form, hits, n0,
                                                   justification):
    """The walk goes on to n0 > horizon."""
    sigma = ProjAutomorphism.from_strings(R1, rows)
    Z = HomIdeal.from_strings(R1, [form])
    rep = forward_orbit_hits(pt(point), sigma, Z, 3)
    assert (rep.verdict, rep.hits, rep.n0, rep.justification) == (
        "certified-finite", hits, n0, justification)
    assert _report_fields(rep) == _oracle_orbit(pt(point), sigma, Z, 3)


def test_prime_field_orbit_builds_no_point_and_no_matrix_power(monkeypatch):
    """Period 100 over GF(101) (2 is a primitive root): the scan normalizes
    no point."""
    ring = PolyRing(PrimeField(101), 3)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "2", "4"])
    p = pt("[1:1:1]", ring.field)
    Z = HomIdeal.from_strings(ring, ["x1 - 8*x0"])
    calls = []
    of = RationalPoint.of.__func__

    def counted_of(cls, field, values):
        calls.append("of")
        return of(cls, field, values)

    monkeypatch.setattr(RationalPoint, "of", classmethod(counted_of))
    rep = forward_orbit_hits(p, sigma, Z, 12)
    assert (rep.verdict, rep.hits, rep.period) == ("infinite", (3,), 100)
    assert calls == []


# ---------------------------------------------------------------------------
# multiplicative independence
# ---------------------------------------------------------------------------

def test_distinct_primes_independent():
    mi = multiplicative_independence([2, 3])
    assert mi.independent and mi.rank == 2 and mi.witness is None


def test_power_relation_found():
    mi = multiplicative_independence([2, 4])
    assert not mi.independent
    e = mi.witness
    assert Fraction(2) ** e[0] * Fraction(4) ** e[1] == 1
    assert any(e)


def test_three_pairwise_products_independent():
    mi = multiplicative_independence([6, 10, 15])
    assert mi.independent and mi.rank == 3


def test_sign_relation_requires_doubling():
    mi = multiplicative_independence([Fraction(-2), Fraction(2)])
    assert not mi.independent
    e = mi.witness
    assert Fraction(-2) ** e[0] * Fraction(2) ** e[1] == 1


def test_minus_one_alone_is_dependent():
    mi = multiplicative_independence([Fraction(-1)])
    assert not mi.independent
    assert Fraction(-1) ** mi.witness[0] == 1


def test_zero_entry_rejected():
    with pytest.raises(ValueError, match="zero"):
        multiplicative_independence([2, 0])


def test_rational_entries():
    mi = multiplicative_independence([Fraction(2, 3), Fraction(3, 2)])
    assert not mi.independent
    e = mi.witness
    assert Fraction(2, 3) ** e[0] * Fraction(3, 2) ** e[1] == 1


# ---------------------------------------------------------------------------
# eigen data and invariant subschemes
# ---------------------------------------------------------------------------

def test_eigen_data_flagship():
    assert SIGMA.diagonal_entries() == (Fraction(1), Fraction(2), Fraction(3))
    assert _ratio_gate(SIGMA)


def test_eigen_data_dependent_ratios():
    sig = ProjAutomorphism.diagonal(RQ, ["1", "2", "4"])
    assert not _ratio_gate(sig)


def test_eigen_data_unipotent():
    assert _unipotent_part(SHEAR)[0] == Fraction(1)
    assert not is_scalar_matrix(QQ, SHEAR.matrix)
    assert _unipotent_part(SIGMA) is None


@pytest.mark.parametrize("nv, c", [(2, "1"), (3, "-2"), (4, "3/5")])
def test_unipotent_scalar_of_a_scaled_jordan_block(nv, c):
    ring = PolyRing(QQ, nv)
    rows = [[c if j in (i, i + 1) else "0" for j in range(nv)] for i in range(nv)]
    assert _unipotent_part(ProjAutomorphism.from_strings(ring, rows))[0] == QQ.from_str(c)


def coordinate_families(d):
    """Every proper union of coordinate subspaces of P^d, in report order."""
    return tuple(oracles.antichains(_coordinate_subsets(d)))


@lru_cache(maxsize=None)
def union_ideal(ring, family):
    """Ideal of a union of coordinate subspaces: the intersect fold of its
    members' ideals."""
    return reduce(intersect, [_subspace_ideal(ring, s) for s in family])


def test_six_proper_subschemes_on_the_plane():
    assert sum(len(fam) == 1 for fam in coordinate_families(2)) == 6


def test_union_of_two_coordinate_points():
    subs = [union_ideal(RQ, fam) for fam in coordinate_families(2)]
    p1 = HomIdeal.from_strings(RQ, ["x1", "x2"])
    p2 = HomIdeal.from_strings(RQ, ["x0", "x2"])
    expected = intersect(p1, p2)
    assert any(ideal_equal(Y, expected) for Y in subs)


def test_line_dimension_enumeration():
    alls = coordinate_families(1)
    assert alls[:2] == (((0,),), ((1,),))  # the two coordinate points of the line
    assert alls[2:] == (((0,), (1,)),)  # plus their union


@pytest.mark.parametrize("d", [1, 2, 3])
def test_antichains_match_the_brute_force_reference(d):
    assert list(coordinate_families(d)) == oracles.brute_coordinate_unions(d)


@pytest.mark.parametrize("d, count", [(1, 3), (2, 17), (3, 165), (4, 7578)])
def test_union_count_is_the_dedekind_number_less_three(d, count):
    assert len(coordinate_families(d)) == _DEDEKIND[d + 1] - 3 == count


def test_gate_rejects_dependent_ratios():
    sig = ProjAutomorphism.diagonal(RQ, ["1", "2", "4"])
    assert not _ratio_gate(sig)


def test_gate_rejects_dependent_ratios_below_one():
    # the ratios 1/3 and 3 are dependent; 1/3 must stay exact, not a float
    sig = ProjAutomorphism.diagonal(RQ, ["3", "1", "9"])
    assert not _ratio_gate(sig)


def test_gate_rejects_non_diagonal():
    assert not _ratio_gate(SHEAR)


# ---------------------------------------------------------------------------
# critical transversality certificates
# ---------------------------------------------------------------------------

def general_point_scene():
    return IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x0-x2", "x1-x2"]))


def test_general_point_certified():
    cert = critical_transversality_certificate(general_point_scene())
    assert cert.status == "certified"
    assert cert.checked == 17  # all antichain unions on the plane
    assert any("substitute" in n for n in cert.notes)


def test_coordinate_point_refuted_with_expected_witness():
    sc = IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x1", "x2"]))
    cert = critical_transversality_certificate(sc)
    assert cert.status == "refuted"
    assert cert.witness_family == ((1, 2),)
    assert cert.witness_j == 1


def test_dependent_ratios_inconclusive():
    sig = ProjAutomorphism.diagonal(RQ, ["1", "2", "4"])
    sc = IdealizerScene(RQ, sig, HomIdeal.from_strings(RQ, ["x0-x2", "x1-x2"]))
    cert = critical_transversality_certificate(sc)
    assert cert.status == "inconclusive"
    assert cert.reason == "invariant family not classified"


def test_positive_characteristic_inconclusive():
    R7 = PolyRing(PrimeField(7), 3)
    sig = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    sc = IdealizerScene(R7, sig, HomIdeal.from_strings(R7, ["x0-x2", "x1-x2"]))
    cert = critical_transversality_certificate(sc)
    assert cert.status == "inconclusive"
    assert cert.reason == "characteristic-0 theorem assumed"


def test_certificate_witness_reverified():
    sc = IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x1", "x2"]))
    cert = critical_transversality_certificate(sc)
    ok, j = homologically_transverse(sc.ideal, cert.witness_ideal)
    assert not ok and j == cert.witness_j


def test_certified_scene_transverse_to_every_enumerated_union():
    sc = general_point_scene()
    cert = critical_transversality_certificate(sc)
    assert cert.status == "certified"
    for fam in coordinate_families(2):
        ok, _ = homologically_transverse(sc.ideal, union_ideal(RQ, fam))
        assert ok


@pytest.mark.parametrize("d", [1, 2, 3])
def test_family_ideal_matches_the_intersect_fold(d):
    """The intersect fold that builds a union's ideal in these tests is
    generated by the minimal lcm's of one variable from each member."""
    ring = PolyRing(QQ, d + 1)
    for fam in coordinate_families(d):
        monos = reduce(polykernel.monomial_meet, [[ring.units[i] for i in s] for s in fam])
        want = HomIdeal(ring, [ring.monomial(m) for m in monos])
        assert union_ideal(ring, fam).gens == want.gens, fam


# ---------------------------------------------------------------------------
# the certificate runs Tor only where a subspace meets Z
# ---------------------------------------------------------------------------

R3 = PolyRing(QQ, 4)
SIGMA3 = ProjAutomorphism.diagonal(R3, ["1", "2", "3", "5"])


def plain_certificate(scene):
    """Oracle: Tor against every union in report order, with no localization."""
    ring = scene.ring
    res = free_resolution(scene.ideal)
    families = coordinate_families(scene.d)
    for checked, fam in enumerate(families, 1):
        Y = union_ideal(ring, fam)
        ok, j = oracles.transverse_from_resolution(res, Y)
        if not ok:
            return ("refuted", checked, fam, Y.gens_text(), j)
    return ("certified", len(families), None, None, None)


def certificate_summary(cert):
    witness = None if cert.witness_ideal is None else cert.witness_ideal.gens_text()
    return (cert.status, cert.checked, cert.witness_family, witness, cert.witness_j)


@st.composite
def point_scenes(draw):
    """A point of P^2 or P^3; a P^3 point has a zero coordinate, because
    off every coordinate hyperplane the plain loop costs seconds (that case
    is pinned in test_p3_point_off_the_hyperplanes_needs_no_tor)."""
    d = draw(st.sampled_from([2, 3]))
    coords = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    if d == 3:
        coords[draw(st.integers(0, d))] = 0
    if not any(coords):
        coords[0] = 1
    ring, sigma = (RQ, SIGMA) if d == 2 else (R3, SIGMA3)
    Z = RationalPoint.of(QQ, [QQ.from_int(c) for c in coords]).ideal(ring)
    return IdealizerScene(ring, sigma, Z)


@st.composite
def line_scenes(draw):
    """A line of P^2 or P^3 over Q, cut out by d - 1 independent linear forms."""
    d = draw(st.sampled_from([2, 3]))
    ring, sigma = (RQ, SIGMA) if d == 2 else (R3, SIGMA3)
    rows = [draw(st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1))
            for _ in range(d - 1)]
    forms = [sum((ring.variable(i).scale(QQ.from_int(c)) for i, c in enumerate(row)),
                 ring.zero()) for row in rows]
    Z = HomIdeal(ring, forms)
    assume(len(Z.groebner()) == d - 1)
    return IdealizerScene(ring, sigma, Z)


@settings(max_examples=20, deadline=None)
@given(scene=st.one_of(point_scenes(), line_scenes()))
def test_localized_certificate_matches_the_plain_loop(scene):
    cert = critical_transversality_certificate(scene)
    assert certificate_summary(cert) == plain_certificate(scene)


@st.composite
def plane_scenes(draw):
    """A conic, or a union of two points, of P^2, often through coordinate
    points or tangent to coordinate lines."""
    monos = monomials_of_degree(RQ, 2)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                               min_size=len(monos), max_size=len(monos)))
        assume(any(coeffs))
        Z = HomIdeal(RQ, [sum((RQ.monomial(m).scale(QQ.from_int(c))
                               for m, c in zip(monos, coeffs)), RQ.zero())])
    else:
        points = []
        for _ in range(2):
            coords = draw(st.lists(st.sampled_from([0, 0, 1, 2, -3]), min_size=3, max_size=3))
            coords[draw(st.integers(0, 2))] = 1
            points.append(RationalPoint.of(QQ, [QQ.from_int(c) for c in coords]).ideal(RQ))
        Z = intersect(*points)
    return IdealizerScene(RQ, SIGMA, Z)


@settings(max_examples=30, deadline=None)
@given(scene=st.one_of(plane_scenes(), line_scenes(), point_scenes()))
def test_first_failing_union_is_made_of_subspaces_that_meet_z(scene):
    """The walk over the unions of subspaces that meet Z finds the plain
    loop's witness, and every member of that witness meets Z."""
    cert = critical_transversality_certificate(scene)
    assert certificate_summary(cert) == plain_certificate(scene)
    for s in cert.witness_family or ():
        L = _subspace_ideal(scene.ring, s)
        assert _dim(ideal_sum(scene.ideal, L)) >= 0, s


def count_asked(monkeypatch):
    """(s, whether L_s meets Z) for each subset the certificate asks of
    _meets_z, in the order asked."""
    asked = []
    meets_z = geometry._meets_z

    def counted(transversality, dim_z):
        meets = meets_z(transversality, dim_z)

        def ask(s):
            asked.append((s, meets(s)))
            return asked[-1][1]

        return ask

    monkeypatch.setattr(geometry, "_meets_z", counted)
    return asked


@pytest.mark.parametrize("point, summary, walks", [
    ("[1:2:3:4]", ("certified", 165, None, None, None), []),
    ("[3:3:2:0]", ("refuted", 14, ((3,),), "x3", 1), [(3,)]),
])
def test_ct_cert_walks_no_union_that_misses_z(point, summary, walks, monkeypatch):
    """The certificate asks whether each of the 14 coordinate subspaces of
    P^3 meets Z once, in report order, and goes on only with those that do
    (`walks`).  A point off every hyperplane meets none; a point on V(x3)
    meets only V(x3), the last subspace, and fails there."""
    asked = count_asked(monkeypatch)
    Z = RationalPoint.parse(QQ, point).ideal(R3)
    cert = critical_transversality_certificate(IdealizerScene(R3, SIGMA3, Z))
    assert certificate_summary(cert) == summary
    assert [s for s, _ in asked] == _coordinate_subsets(3)
    assert [s for s, meets in asked if meets] == walks


def count_certificate_work(monkeypatch):
    """Count what the certificate asks of homology: disjointness tests
    (Transversality.meets), the Groebner runs of the sums I + J behind them
    and behind the Tor_1 checks (one per set of monic normal forms of J's
    generators modulo I, none when J lies in I), resolutions of Z, the J
    whose product I·J a Tor_1 check forms (homology._product, one Groebner
    run each), and the subspaces it checks for transversality
    (Transversality.meeting)."""
    work = {"tests": 0, "runs": 0, "resolutions": 0, "tor": [], "checked": []}
    meets, graded_basis, check = Transversality.meets, polykernel.graded_basis, Transversality.meeting
    product = homology._product

    def counted_meets(self, J):
        work["tests"] += 1
        return meets(self, J)

    def counted_run(ring, rows, finished=()):
        work["runs"] += bool(finished)  # a sum run: I's reduced basis is the finished block
        return graded_basis(ring, rows, finished)

    def counted_resolution(I, *args, **kwargs):
        work["resolutions"] += 1
        return free_resolution(I, *args, **kwargs)

    def counted_product(I, J):
        work["tor"].append(J.gens_text())
        return product(I, J)

    def counted_check(self, J):
        work["checked"].append(J.gens_text())
        return check(self, J)

    monkeypatch.setattr(Transversality, "meets", counted_meets)
    monkeypatch.setattr(polykernel, "graded_basis", counted_run)
    monkeypatch.setattr(homology, "free_resolution", counted_resolution)
    monkeypatch.setattr(homology, "_product", counted_product)
    monkeypatch.setattr(Transversality, "meeting", counted_check)
    return work


def test_p3_point_off_the_hyperplanes_needs_no_tor(monkeypatch):
    work = count_certificate_work(monkeypatch)
    Z = RationalPoint.parse(QQ, "[1:2:3:4]").ideal(R3)
    cert = critical_transversality_certificate(IdealizerScene(R3, SIGMA3, Z))
    assert (cert.status, cert.checked) == ("certified", 165)
    # the four hyperplanes miss Z, and every other coordinate subspace lies
    # in one of them: 4 disjointness tests for the 14 subspaces, and x0..x3
    # all reduce to x3 modulo Z, so the 4 tests share one Groebner run
    assert work == {"tests": 4, "runs": 1, "resolutions": 0, "tor": [], "checked": []}


def test_p3_line_checks_each_meeting_sub_union_once(monkeypatch):
    work = count_certificate_work(monkeypatch)
    Z = HomIdeal.from_strings(R3, ["x0+x1-2*x2-x3", "x1+x2-3*x3"])
    cert = critical_transversality_certificate(IdealizerScene(R3, SIGMA3, Z))
    assert (cert.status, cert.checked) == ("certified", 165)
    # the line meets the four coordinate planes (by dimension, untested) and
    # no smaller coordinate subspace (10 tests), so the subspaces it checks
    # are the 4 planes: hypersurfaces, known to meet it, so not tested
    # again, with one sum each, no resolution and no product I·J
    assert (work["resolutions"], work["tor"]) == (0, [])
    assert (work["tests"], work["runs"]) == (10, 10 + 4)
    assert work["checked"] == ["x0", "x1", "x2", "x3"]


def test_p3_surface_checks_the_coordinate_lines_without_a_resolution(monkeypatch):
    work = count_certificate_work(monkeypatch)
    Z = HomIdeal.from_strings(R3, ["x0^3 + x1^3 + x2^3 + x3^3"])
    cert = critical_transversality_certificate(IdealizerScene(R3, SIGMA3, Z))
    assert (cert.status, cert.checked) == ("certified", 165)
    # the Fermat cubic misses the 4 coordinate points (4 tests, 4 sums) and
    # meets every line and plane by dimension; each of the 6 lines takes one
    # sum and one product I·J, and each of the 4 planes one sum
    lines = ["x1, x0", "x2, x0", "x3, x0", "x2, x1", "x3, x1", "x3, x2"]
    assert (work["resolutions"], work["tor"]) == (0, lines)
    assert (work["tests"], work["runs"]) == (4, 4 + 6 + 4)
    assert work["checked"] == lines + ["x0", "x1", "x2", "x3"]


def test_p3_point_on_one_hyperplane_refuted_after_one_tor(monkeypatch):
    work = count_certificate_work(monkeypatch)
    Z = HomIdeal.from_strings(R3, ["x0", "x1-2*x3", "x2-3*x3"])
    cert = critical_transversality_certificate(IdealizerScene(R3, SIGMA3, Z))
    assert certificate_summary(cert) == ("refuted", 11, ((0,),), "x0", 1)
    # the 4 hyperplane tests decide which subspaces meet the point: x0 lies
    # in I, and x1, x2, x3 all reduce to x3 modulo I, so they share one
    # Groebner run; V(x0) meets the point and has codimension 1 > dim Z = 0,
    # so the depth rule refutes it with j = 1 and it is never checked
    assert work == {"tests": 4, "runs": 1, "resolutions": 0, "tor": [], "checked": []}


@pytest.mark.parametrize("ideal, status", [
    (["x1 - 2*x0", "x2 - 3*x0", "x3 - 4*x0"], "certified"),  # [1:2:3:4]
    (["x0 - x1", "2*x0 - 3*x2", "x3"], "refuted"),  # [3:3:2:0]
])
def test_ct_cert_on_a_p3_point_makes_at_most_two_groebner_runs(ideal, status, tmp_path,
                                                                capsys, monkeypatch):
    """The whole ct-cert command on a P^3 point: one graded Groebner run for
    the point's reduced basis and one for the hyperplane sums I + (x_i) with
    p_i != 0, which share the normal form x_j, p_j the last nonzero
    coordinate.  Saturation reads the linear basis (a linear ideal is its
    own saturation), and a hyperplane through the point adds no run."""
    runs = []
    engine = linalg.graded_groebner

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(linalg, "graded_groebner", counted)
    path = tmp_path / "point.scene"
    path.write_text("\n".join(["field rational", "dim 3", "sigma", "1 0 0 0", "0 2 0 0",
                               "0 0 3 0", "0 0 0 5", "ideal", *ideal, "end", "horizon 8", ""]))
    assert cli.main(["ct-cert", str(path)]) == 0
    assert f"critical transversality: {status}" in capsys.readouterr().out
    assert len(runs) <= 2


@st.composite
def lattice_subschemes(draw):
    """Z on P^2 or P^3: a point, a line, a conic, a fat point, a union of a
    line and a point, or a monomial ideal, often through coordinate points."""
    d = draw(st.sampled_from([2, 3]))
    ring = RQ if d == 2 else R3

    def form(degree):
        monos = monomials_of_degree(ring, degree)
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                               min_size=len(monos), max_size=len(monos)))
        return sum((ring.monomial(m).scale(QQ.from_int(c))
                    for m, c in zip(monos, coeffs)), ring.zero())

    def point():
        coords = draw(st.lists(st.sampled_from([0, 0, 1, 2, -3]),
                               min_size=d + 1, max_size=d + 1))
        coords[draw(st.integers(0, d))] = 1
        return RationalPoint.of(QQ, [QQ.from_int(c) for c in coords]).ideal(ring)

    def line():
        return HomIdeal(ring, [form(1) for _ in range(d - 1)])

    kind = draw(st.sampled_from(["point", "line", "conic", "fat", "union", "monomial"]))
    if kind == "point":
        Z = point()
    elif kind == "line":
        Z = line()
    elif kind == "conic":
        Z = HomIdeal(ring, [form(1) for _ in range(d - 2)] + [form(2)])
    elif kind == "fat":
        P = point()
        Z = HomIdeal(ring, [f * g for f in P.gens for g in P.gens])
    elif kind == "union":
        Z = intersect(line(), point())
    else:
        exps = draw(st.lists(st.lists(st.integers(0, 2), min_size=d + 1, max_size=d + 1),
                             min_size=1, max_size=3))
        Z = HomIdeal(ring, [ring.monomial(tuple(e)) for e in exps if any(e)]
                     or [ring.variable(0)])
    assume(_dim(Z) >= 0)
    return Z


@settings(max_examples=40, deadline=None)
@given(Z=lattice_subschemes(), data=st.data())
def test_lattice_decision_matches_a_direct_disjointness_test(Z, data):
    """Rules (a) and (b) decide "L_s meets Z" as a direct test would, in any
    order of asking."""
    d = Z.ring.nvars - 1
    subsets = [s for fam in coordinate_families(d) if len(fam) == 1 for s in fam]
    meets = _meets_z(Transversality(Z), _dim(Z))
    for s in data.draw(st.permutations(subsets)):
        L = _subspace_ideal(Z.ring, s)
        assert meets(s) == (_dim(ideal_sum(Z, L)) >= 0), s


@settings(max_examples=25, deadline=None)
@given(Z=lattice_subschemes())
def test_refuted_walk_asks_about_no_subset_after_the_witness(Z):
    """The walk stops at its witness: it asks _meets_z about the subsets up
    to the witness's position, in report order, and about no later one."""
    assume(not Z.is_zero_ideal())  # a scene's Z is a proper subscheme
    sigma = SIGMA if Z.ring == RQ else SIGMA3
    with pytest.MonkeyPatch.context() as patch:
        asked = count_asked(patch)
        cert = critical_transversality_certificate(IdealizerScene(Z.ring, sigma, Z))
    subsets = _coordinate_subsets(Z.ring.nvars - 1)
    if cert.status == "refuted":
        assert subsets[cert.checked - 1] == cert.witness_family[0]
        subsets = subsets[:cert.checked]
    assert [s for s, _ in asked] == subsets


# ---------------------------------------------------------------------------
# the theorems that let the certificate check each subspace once
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SCENE_FILES = {p.stem: p for p in sorted((ROOT / "scenes").glob("*.scene"))
               + sorted((ROOT / "scenes" / "curves").glob("*.scene"))}
GF7 = PrimeField(7)
RINGS = {(QQ, 2): RQ, (QQ, 3): R3, (GF7, 2): PolyRing(GF7, 3), (GF7, 3): PolyRing(GF7, 4)}


@st.composite
def tor_subschemes(draw):
    """Z in P^2 or P^3 over Q or GF(7): a point, a line, a conic, a fat
    point, a hyperplane V(x_a) with an embedded component V(x_a, x_B), or a
    union of two or three points, often through coordinate points."""
    field = draw(st.sampled_from([QQ, GF7]))
    d = draw(st.sampled_from([2, 3]))
    ring = RINGS[field, d]

    def form(degree):
        monos = monomials_of_degree(ring, degree)
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                               min_size=len(monos), max_size=len(monos)))
        return sum((ring.monomial(m).scale(field.from_int(c))
                    for m, c in zip(monos, coeffs)), ring.zero())

    def point():
        coords = draw(st.lists(st.sampled_from([0, 0, 1, 2, -3]),
                               min_size=d + 1, max_size=d + 1))
        coords[draw(st.integers(0, d))] = 1
        return RationalPoint.of(field, [field.from_int(c) for c in coords]).ideal(ring)

    kind = draw(st.sampled_from(["point", "line", "conic", "fat", "embedded", "points"]))
    if kind == "point":
        Z = point()
    elif kind == "line":
        Z = HomIdeal(ring, [form(1) for _ in range(d - 1)])
    elif kind == "conic":
        Z = HomIdeal(ring, [form(1) for _ in range(d - 2)] + [form(2)])
    elif kind == "fat":
        P = point()
        Z = HomIdeal(ring, [f * g for f in P.gens for g in P.gens])
    elif kind == "embedded":
        a, *others = draw(st.permutations(range(d + 1)))
        B = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        x = ring.variable
        Z = HomIdeal(ring, [x(a) * x(a)] + [x(a) * x(b) for b in B])
    else:
        Z = reduce(intersect, [point() for _ in range(draw(st.integers(2, 3)))])
    assume(not Z.is_zero_ideal() and _dim(Z) >= 0)
    return Z


@settings(max_examples=40, deadline=None)
@given(Z=tor_subschemes())
def test_tor_against_a_subspace_first_fails_at_j1_and_does_past_dim_z(Z):
    """Rigidity: Tor against a coordinate subspace L_s never first fails at
    j >= 2.  Depth formula: when L_s meets Z and |s| > dim Z, it fails at
    j = 1.  The certificate refutes such an L_s with no Tor."""
    res = free_resolution(Z)
    dim_z = _dim(Z)
    for s in _coordinate_subsets(Z.ring.nvars - 1):
        L = _subspace_ideal(Z.ring, s)
        ok, j = oracles.transverse_from_resolution(res, L)
        assert ok or j == 1, s
        if len(s) > dim_z and _dim(ideal_sum(Z, L)) >= 0:
            assert not ok, s


@settings(max_examples=60, deadline=None)
@given(Z=tor_subschemes(), data=st.data())
def test_transverse_to_two_unions_and_their_meet_is_transverse_to_their_union(Z, data):
    """The Mayer–Vietoris lemma: Z transverse to unions Y1, Y2 of coordinate
    subspaces and to Y1 ∩ Y2 (the ideal sum) is transverse to Y1 ∪ Y2."""
    families = coordinate_families(Z.ring.nvars - 1)
    A, B = (union_ideal(Z.ring, data.draw(st.sampled_from(families))) for _ in range(2))
    res = free_resolution(Z)
    meet = HomIdeal(Z.ring, A.gens + B.gens)
    if all(oracles.transverse_from_resolution(res, Y)[0] for Y in (A, B, meet)):
        assert oracles.transverse_from_resolution(res, intersect(A, B))[0]


@pytest.mark.parametrize("name, status, tests, runs", [
    ("tc3", "refuted", 1, 1),
    ("cusp_probe", "refuted", 3, 0),
    ("fat_point", "refuted", 3, 1),
    ("conic_pair", "refuted", 2, 2),
    ("ci3", "certified", 10, 10 + 4),
])
def test_shipped_scenes_check_no_subspace_past_their_dimension(name, status, tests, runs,
                                                               monkeypatch):
    """Each refuted shipped scene fails at its first coordinate subspace that
    meets it, of codimension above dim Z, so the depth rule refutes it with
    no resolution and no transversality check; the tests and sum runs are
    only those that decide which subspaces meet Z.  The curve ci3 meets no
    coordinate point or line (10 tests) and checks the 4 planes, which meet
    it by dimension, with no test and one sum each: 14 runs, not the 25 of
    a walk over the 15 unions of planes."""
    scene = cli.parse_scene(SCENE_FILES[name].read_text()).scene()
    work = count_certificate_work(monkeypatch)
    cert = critical_transversality_certificate(scene)
    assert cert.status == status
    assert (work["tests"], work["runs"], work["resolutions"]) == (tests, runs, 0)
    assert work["checked"] == ([] if status == "refuted" else ["x0", "x1", "x2", "x3"])
