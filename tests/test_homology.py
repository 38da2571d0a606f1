"""Resolution, Tor, transversality, multiplicity, and quotient-probe tests.

Frozen dimension tables were cross-checked against hand Koszul-complex
computations and the brute-force Hilbert data in oracles.py; the verdict
tests for the quotient probe encode the regular-local / non-regular-local
dichotomy at smooth and singular curve points, and Tor_1 over a cubic
quotient is checked against (I cap J)/IJ computed by bare linear algebra.
"""

from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal.errors import SceneVerificationError, UsageError
from geomideal.fields import QQ, PrimeField
from geomideal import cli, freemod, homology
from geomideal.freemod import MVec, mod_normal_form, module_groebner
from geomideal.homology import (
    ImproperIntersectionError,
    Transversality,
    free_resolution,
    graded_tor,
    homologically_transverse,
    serre_multiplicity_total,
    tor_from_resolution,
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


@pytest.mark.parametrize("D", [3, 4, 5, 6])
def test_rational_normal_curve_has_the_eagon_northcott_betti_numbers(D):
    """The rational normal curve in P^D, cut out by the 2x2 minors of
    [[x0 ... x(D-1)], [x1 ... xD]], has beta_i = i*C(D, i+1) syzygies, all
    in degree i + 1 (Eagon-Northcott; Eisenbud, The Geometry of Syzygies,
    2005, ch. 6): expected numbers from the formula alone."""
    ring = PolyRing(QQ, D + 1)
    I = HomIdeal.from_strings(ring, [f"x{i}*x{j + 1} - x{i + 1}*x{j}"
                                     for i in range(D) for j in range(i + 1, D)])
    res = free_resolution(I)
    want = [(0,)] + [(i + 1,) * (i * comb(D, i + 1)) for i in range(1, D)]
    assert [F.degrees for F in res.modules] == want


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


def test_embedded_point_fails_at_j_one():
    # a dimension count calls V(x2) proper to Z, but the embedded point at
    # [0:1:0] makes Tor_1 nonzero
    assert homologically_transverse(ideal(RQ, "x0^2", "x0*x2"), ideal(RQ, "x2")) == (False, 1)


@pytest.mark.parametrize("line, verdict", [
    (("x0", "x2"), (False, 1)),  # a line on the quadric
    (("x0", "x1"), (True, None)),  # meets it in two points
])
def test_quadric_surface_against_a_coordinate_line(line, verdict):
    quadric = ideal(PolyRing(QQ, 4), "x0*x1 - x2*x3")
    assert homologically_transverse(quadric, ideal(quadric.ring, *line)) == verdict


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
    plain = oracles.transverse_from_resolution(free_resolution(I), J)
    assert homologically_transverse(I, J) == plain


def test_disjoint_pair_is_transverse_without_a_resolution(monkeypatch):
    def no_resolution(*args, **kwargs):
        raise AssertionError("a disjoint pair needs no resolution")

    monkeypatch.setattr(homology, "free_resolution", no_resolution)
    P = ideal(RQ, "x0 - x2", "x1 - x2")
    Q = ideal(RQ, "x0", "x1 - 2*x2")
    assert not Transversality(P).meets(Q)
    assert homologically_transverse(P, Q) == (True, None)


@st.composite
def curve_or_point(draw, field):
    """Z on P^2 or P^3 over field: a point, a line, a conic, a twisted cubic
    or a fat point.  Zero coordinates and unshifted coordinates are common,
    so Z often passes through coordinate points."""
    ring = PolyRing(field, draw(st.sampled_from([3, 4])))
    n = ring.nvars
    x = [ring.variable(i) for i in range(n)]
    small = st.sampled_from([0, 0, 1, -1, 2, 3])

    def const(c):
        return field.from_int(c)

    def form(degree):
        monos = monomials_of_degree(ring, degree)
        cs = draw(st.lists(small, min_size=len(monos), max_size=len(monos)))
        return sum((ring.monomial(m).scale(const(c)) for m, c in zip(monos, cs)),
                   ring.zero())

    def point_gens():
        k = draw(st.integers(0, n - 1))
        return [x[i] - x[k].scale(const(draw(small))) for i in range(n) if i != k]

    kind = draw(st.sampled_from(["point", "line", "conic", "cubic", "fat"]))
    if kind == "point":
        gens = point_gens()
    elif kind == "line":
        gens = [form(1) for _ in range(n - 2)]
    elif kind == "conic":
        gens = [form(1) for _ in range(n - 3)] + [form(2)]
    elif kind == "cubic" and n == 4:
        # 2x2 minors of [[l0, l1, l2], [l1, l2, l3]], l_i = x_i + c_i*x_(i+1)
        l = [x[i] + (x[i + 1].scale(const(draw(small))) if i < 3 else ring.zero())
             for i in range(4)]
        gens = [l[0] * l[2] - l[1] * l[1], l[0] * l[3] - l[1] * l[2],
                l[1] * l[3] - l[2] * l[2]]
    else:
        P = point_gens()
        gens = [f * g for f in P for g in P]
    return HomIdeal(ring, gens)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, PrimeField(7)]))
def test_principal_route_matches_tor_from_a_resolution(data, field):
    """For J = (f), f a product of distinct variables or a random form, the
    Hilbert-numerator route gives the verdict and witness j of Tor modules."""
    I = data.draw(curve_or_point(field))
    ring = I.ring
    if data.draw(st.booleans()):
        f = ring.one()
        for i in data.draw(st.sets(st.integers(0, ring.nvars - 1), min_size=1)):
            f = f * ring.variable(i)
    else:
        monos = monomials_of_degree(ring, data.draw(st.integers(1, 2)))
        cs = data.draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                                max_size=len(monos)))
        f = sum((ring.monomial(m).scale(field.from_int(c)) for m, c in zip(monos, cs)),
                ring.zero())
        assume(not f.is_zero())
    J = HomIdeal(ring, [f])
    want = oracles.transverse_from_resolution(free_resolution(I), J)
    assert homologically_transverse(I, J) == want


@st.composite
def against(draw, ring):
    """J on ring: a coordinate line, a union of coordinate subspaces (the
    ideal of squarefree monomials), or two random forms of degree 1 or 2."""
    n = ring.nvars
    kind = draw(st.sampled_from(["line", "union", "forms"]))
    if kind == "line":
        s = draw(st.sets(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        return HomIdeal(ring, [ring.variable(i) for i in s])
    if kind == "union":
        supports = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
                                 min_size=2, max_size=3))
        return HomIdeal(ring, [ring.monomial(tuple(int(i in s) for i in range(n)))
                               for s in supports])
    forms = []
    for _ in range(2):
        monos = monomials_of_degree(ring, draw(st.integers(1, 2)))
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos)))
        forms.append(sum((ring.monomial(m).scale(ring.field.from_int(c))
                          for m, c in zip(monos, cs)), ring.zero()))
    return HomIdeal(ring, forms)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), field=st.sampled_from([QQ, PrimeField(7)]))
def test_tor1_route_matches_tor_from_a_resolution(data, field):
    """For J of several generators the Tor_1 numerator gives the verdict and
    witness j of Tor modules from a resolution, and makes no resolution."""
    I = data.draw(curve_or_point(field))
    J = data.draw(against(I.ring))
    want = oracles.transverse_from_resolution(free_resolution(I), J)

    def no_resolution(*args, **kwargs):
        raise AssertionError("transversality needs no resolution")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "free_resolution", no_resolution)
        assert homologically_transverse(I, J) == want


def test_hypersurface_is_checked_without_a_resolution(monkeypatch):
    def no_resolution(*args, **kwargs):
        raise AssertionError("a principal J needs no resolution")

    monkeypatch.setattr(homology, "free_resolution", no_resolution)
    point = ideal(RQ, "x0", "x1 - x2")
    assert homologically_transverse(point, ideal(RQ, "x0*x1")) == (False, 1)
    assert homologically_transverse(ideal(RQ, "x0"), ideal(RQ, "x1*x2")) == (True, None)
    # a principal ideal given by redundant generators takes the same route
    assert homologically_transverse(point, ideal(RQ, "x0*x1", "x0^2*x1")) == (False, 1)


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
# Tor from two cokernels against the subquotient oracle
# ---------------------------------------------------------------------------

@st.composite
def tor_pair(draw, field):
    """(I, J, Q) in one ring over field: I from curve_or_point; J one or two
    random forms of degree 1 or 2, a monomial ideal, or I times a linear
    form (so V(J) contains Z); Q = (g*h) for a generator g of J and a
    random linear form h, so that Q lies in J."""
    I = draw(curve_or_point(field))
    ring = I.ring

    def form(degree):
        monos = monomials_of_degree(ring, degree)
        cs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=len(monos),
                           max_size=len(monos)))
        f = sum((ring.monomial(m).scale(field.from_int(c)) for m, c in zip(monos, cs)),
                ring.zero())
        assume(not f.is_zero())
        return f

    kind = draw(st.sampled_from(["form", "form", "forms", "monomial", "through-z"]))
    if kind.startswith("form"):
        J = HomIdeal(ring, [form(draw(st.integers(1, 2)))
                            for _ in range(1 if kind == "form" else 2)])
    elif kind == "monomial":
        J = draw(monomial_ideal(ring, max_deg=2))
    else:
        assume(I.gens)  # a zero linear form leaves I = (0), and then J = (0)
        h = form(1)
        J = HomIdeal(ring, [g * h for g in I.gens])
    Q = HomIdeal(ring, [draw(st.sampled_from(J.gens)) * form(1)])
    return I, J, Q


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), field=st.sampled_from([QQ, PrimeField(7)]))
def test_tor_numerators_match_the_subquotient_oracle(data, field):
    """Over S and over a principal Q inside J, every Tor_j numerator read
    from the two cokernels equals the cycle-minus-boundary numerator of the
    subquotient, for j = 0..length + 1."""
    I, J, Q = data.draw(tor_pair(field))
    over_q = data.draw(st.booleans())
    res = free_resolution(I, 3, modulo=Q) if over_q else free_resolution(I)
    for j in range(res.length + 2):
        want = oracles.subquotient_tor_numerator(res, J, j)
        assert tor_from_resolution(res, J, j).numerator == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), field=st.sampled_from([QQ, PrimeField(7)]))
def test_serre_total_is_the_alternating_sum_of_the_oracle_tors(data, field):
    """The Euler-characteristic total equals the alternating sum of the
    constant Hilbert polynomials of the subquotient Tor_j, and it raises
    exactly when HP(S/(I + J)), the Hilbert polynomial of Tor_0, has
    positive degree."""
    I, J, _ = data.draw(tor_pair(field))
    res = free_resolution(I)
    nvars = I.ring.nvars
    hps = [oracles.hilbert_polynomial_from_numerator(
               oracles.subquotient_tor_numerator(res, J, j), nvars)
           for j in range(res.length + 1)]
    improper = oracles.hilbert_polynomial_from_numerator(
        ideal_sum(I, J).hilbert_numerator(), nvars).degree() > 0
    assert improper == any(hp.degree() > 0 for hp in hps)
    if improper:
        with pytest.raises(ImproperIntersectionError):
            serre_multiplicity_total(I, J)
    else:
        assert serre_multiplicity_total(I, J) == sum(
            (-1) ** j * hp.constant_value() for j, hp in enumerate(hps))


def test_tor_runs_one_module_groebner_per_cokernel_and_no_preimage(monkeypatch):
    """Tor_0..Tor_(length + 1) make one module Groebner run per step F_j,
    each cokernel shared by Tor_j and Tor_(j+1), and no preimage."""
    I, J = ideal(RQ, "x0", "x1"), ideal(RQ, "x0 + x2", "x1^2")
    res = free_resolution(I)
    want = [oracles.subquotient_tor_numerator(res, J, j) for j in range(res.length + 2)]
    calls = []
    real = freemod.module_groebner

    def counting(vecs):
        calls.append(len(vecs))
        return real(vecs)

    def no_preimage(*args):
        raise AssertionError("Tor reads two cokernels, not a cycle preimage")

    monkeypatch.setattr(homology, "module_groebner", counting)
    monkeypatch.setattr(homology, "preimage_generators", no_preimage)
    monkeypatch.setattr(freemod, "preimage_generators", no_preimage)
    got = [tor_from_resolution(res, J, j).numerator for j in range(res.length + 2)]
    assert got == want
    assert len(calls) == res.length + 1


def test_bezout_makes_no_resolution(monkeypatch):
    def forbid(*args, **kwargs):
        raise AssertionError("the Serre total is read from the Euler characteristic")

    monkeypatch.setattr(homology, "free_resolution", forbid)
    monkeypatch.setattr(homology, "module_groebner", forbid)
    monkeypatch.setattr(freemod, "module_groebner", forbid)
    path = Path(__file__).resolve().parents[1] / "scenes" / "conic_pair.scene"
    assert cli.run_bezout(cli.parse_scene(path.read_text())) == [
        {"record": "bezout", "total": "4"}]


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
    rep = truncated_tor_over_quotient(Q, M, P, j_max=1)
    assert rep.table[1][:6] == [_brute_tor1(Q, M, P, n, F.char) for n in range(6)]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_probe_scalar_ranks_match_the_module_tor(data):
    """The probe's table and verdicts, read from the ranks of d_j(p) over
    S/P = k[t], equal the dimensions and Hilbert polynomials of the module
    Tor_j that tor_from_resolution computes from the same resolution."""
    ring, Q, P = data.draw(cubic_through_a_point())
    F = ring.field
    if data.draw(st.booleans()):
        M = P
    else:
        line = P.gens[0] + P.gens[1].scale(F.from_int(data.draw(st.integers(-2, 2))))
        quad = ring.zero()
        for mono in monomials_of_degree(ring, 2):
            quad = quad + ring.monomial(mono, F.from_int(data.draw(st.integers(-2, 2))))
        M = HomIdeal(ring, (line, quad))
    j_max = data.draw(st.integers(1, 8))
    rep = truncated_tor_over_quotient(Q, M, P, j_max=j_max)
    res = free_resolution(M, j_max + 1, modulo=Q)
    tors = {j: tor_from_resolution(res, P, j) for j in range(1, j_max + 1)}
    assert rep.table == {j: t.dims(0, rep.window) for j, t in tors.items()}
    assert rep.verdicts == {j: not t.is_sheaf_trivial() for j, t in tors.items()}


def _count_module_groebner(monkeypatch):
    """The sizes of the module_groebner runs made from here on."""
    calls = []
    real = freemod.module_groebner

    def counting(vecs):
        calls.append(len(vecs))
        return real(vecs)

    def no_tor(*args):
        raise AssertionError("the probe reads Tor from scalar ranks")

    monkeypatch.setattr(freemod, "module_groebner", counting)
    monkeypatch.setattr(homology, "module_groebner", counting)
    monkeypatch.setattr(homology, "tor_from_resolution", no_tor)
    return calls


def test_probe_reads_tor_without_a_module_tor(monkeypatch):
    """The probe's only module Groebner run is the resolution's preimage
    behind d_2.  d_2 is square and psi = f*d_2^-1 is polynomial with no
    constant entry, so d_3 = psi and d_4..d_7 repeat the pair (d_2, psi)."""
    calls = _count_module_groebner(monkeypatch)
    rep = truncated_tor_over_quotient(CUBIC, CUSP, CUSP, j_max=6)
    assert rep.table == PINNED_TABLES["cusp"]
    assert len(calls) == 1


def test_probe_over_two_generators_runs_one_preimage_per_map(monkeypatch):
    """A quotient with two reduced generators has no periodic tail: one
    preimage run per map after the first."""
    calls = _count_module_groebner(monkeypatch)
    Q = ideal(RQ, "x1^2*x2 - x0^3", "x0*x1*x2")
    rep = truncated_tor_over_quotient(Q, CUSP, CUSP, j_max=6)
    assert all(rep.verdicts.values())
    assert len(calls) == 6


def _compose(outer, v):
    """outer applied to v: sum over components k of v_k * (column k)."""
    comps = {}
    for k, p in v.comps.items():
        for i, q in outer.columns[k].comps.items():
            comps[i] = comps.get(i, p.ring.zero()) + q * p
    return MVec(outer.target, {i: q for i, q in comps.items() if not q.is_zero()})


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
                assert mod_normal_form(_compose(res.maps[j - 1], v), QF).is_zero()


R32003 = PolyRing(PrimeField(32003), 3)


@st.composite
def hypersurface_probe(draw):
    """(ring, f, M, P): f a plane cubic smooth, nodal or cuspidal at the
    rational point P = [a:b:1], or one of the conics x0*x1, x0^2 through P
    (then a = 0); M is P, P^2, or a line and a quadric through P."""
    ring = draw(st.sampled_from((RQ, R7, R32003)))
    F = ring.field
    kind = draw(st.sampled_from(["smooth", "node", "cusp", "x0*x1", "x0^2"]))
    a = 0 if kind.startswith("x0") else draw(st.integers(-2, 2))
    b = draw(st.integers(-2, 2))
    x0, x1, x2 = (ring.variable(i) for i in range(3))
    u, v = x0 - x2.scale(F.from_int(a)), x1 - x2.scale(F.from_int(b))

    def combination(forms, nonzero=False):
        out = sum((p.scale(F.from_int(draw(st.integers(-3, 3)))) for p in forms),
                  ring.zero())
        assume(not nonzero or not out.is_zero())
        return out

    cubic = combination([u * u * v, u * v * v, v ** 3])
    cubic = cubic + (u ** 3).scale(F.from_int(draw(st.sampled_from([-2, -1, 1, 3]))))
    f = {
        "smooth": combination([u, v], nonzero=True) * x2 * x2
        + combination([u * u, u * v, v * v]) * x2 + cubic,
        "node": u * v * x2 + cubic,
        "cusp": v * v * x2 + cubic,
        "x0*x1": x0 * x1,
        "x0^2": x0 * x0,
    }[kind]
    P = HomIdeal(ring, (u, v))
    M = draw(st.sampled_from([
        P,
        HomIdeal(ring, (u * u, u * v, v * v)),
        HomIdeal(ring, (combination([u, v], nonzero=True),
                        combination([g * x for g in (u, v) for x in (x0, x1, x2)]))),
    ]))
    return ring, f, M, P


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_periodic_tail_matches_the_stepwise_resolution(data):
    """Over a hypersurface the resolution with its periodic tail has the
    generator degrees, probe tables and verdicts of the step-by-step one;
    every composite d_k*d_(k+1) lies in (f); and the tail does not depend on
    how Q's generators are given."""
    ring, f, M, P = data.draw(hypersurface_probe())
    F = ring.field
    j_max = data.draw(st.integers(1, 9))
    Q = HomIdeal(ring, (f,))
    res = free_resolution(M, j_max + 1, modulo=Q)
    ref = oracles.stepwise_resolution(M, j_max + 1, modulo=Q)
    assert [m.degrees for m in res.modules] == [m.degrees for m in ref.modules]
    for k in range(1, res.length):
        for v in res.maps[k].columns:
            for p in _compose(res.maps[k - 1], v).comps.values():
                assert not oracles.naive_normal_form(p.terms, [f.terms], F.char)
    rep = truncated_tor_over_quotient(Q, M, P, j_max=j_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "free_resolution", oracles.stepwise_resolution)
        want = truncated_tor_over_quotient(Q, M, P, j_max=j_max)
    assert (rep.table, rep.verdicts) == (want.table, want.verdicts)
    c = F.from_int(data.draw(st.sampled_from([-2, 3, 5])))
    for gens in ((f.scale(c),), (f, ring.variable(0) * f)):
        other = free_resolution(M, j_max + 1, modulo=HomIdeal(ring, gens))
        assert other.modules == res.modules
        assert [m.columns for m in other.maps] == [m.columns for m in res.maps]


def _factors(f, d):
    """Whether the square map d has f*d^-1 polynomial with no nonzero
    constant entry, by the Leibniz formula and the oracle's naive division."""
    ring, r = f.ring, d.source.rank
    rows = [[d.columns[c].comps.get(i, ring.zero()) for c in range(r)] for i in range(r)]
    det, adj = oracles.leibniz_det_adjugate(rows, ring.zero(), ring.one())
    products = [f * a for row in adj for a in row if not a.is_zero()]
    return not det.is_zero() and all(
        p.degree > det.degree
        and not oracles.naive_normal_form(p.terms, [det.terms], ring.field.char)
        for p in products)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tail_is_a_matrix_factorization_from_the_first_square_map_that_factors_f(data):
    """The tail starts at the first square map d_j (j >= 1, F_j and F_(j-1)
    of one rank) with f*d_j^-1 polynomial and no constant entry: from there
    on every composite d_k*d_(k+1) is f*1 over S, not just a matrix with
    entries in (f).  A square map whose f*d_j^-1 is not polynomial (d_2 for
    f = x1*x2^2 - 2*x0^3 and M = (x0, x1^2), say) is resolved past by a
    preimage."""
    ring, f, M, P = data.draw(hypersurface_probe())
    res = free_resolution(M, 8, modulo=HomIdeal(ring, (f,)))
    f = f.monic()
    first = next((k for k in range(1, res.length)
                  if res.modules[k].rank == res.modules[k - 1].rank
                  and _factors(f, res.maps[k - 1])), res.length)
    for k in range(first, res.length):
        for c, v in enumerate(res.maps[k].columns):
            assert _compose(res.maps[k - 1], v) == MVec(res.maps[k - 1].target, {c: f})


@pytest.mark.parametrize("ring", [RQ, R7], ids=["Q", "GF7"])
def test_principal_ideal_over_a_reducible_quadric_runs_no_preimage(ring, monkeypatch):
    """I = (x0) over Q = (x0*x1): d_1 = x0 is square and f/x0 = x1, so the
    maps alternate x0 and x1 with no module Groebner run at all."""
    calls = _count_module_groebner(monkeypatch)
    res = free_resolution(ideal(ring, "x0"), 6, modulo=ideal(ring, "x0*x1"))
    assert [m.degrees for m in res.modules] == [(k,) for k in range(7)]
    assert calls == []


@pytest.mark.parametrize("ring", [RQ, R7], ids=["Q", "GF7"])
def test_square_maps_that_do_not_factor_f_open_no_tail(ring):
    """Over Q = (x1^2*x2), d_1 = x0 is square but f/x0 is not polynomial,
    and the unit ideal's d_1 = 1 is a constant: neither starts a periodic
    tail, and both resolutions are the step-by-step ones."""
    Q = ideal(ring, "x1^2*x2")
    for gens, degrees in ((("x0",), [(0,), (1,)]), (("1",), [(0,), (0,)])):
        I = ideal(ring, *gens)
        res = free_resolution(I, 6, modulo=Q)
        ref = oracles.stepwise_resolution(I, 6, modulo=Q)
        assert [m.degrees for m in res.modules] == degrees
        assert [m.columns for m in res.maps] == [m.columns for m in ref.maps]


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
