"""Component split and classification-table tests.

The sigma-order engine is checked against hand-derived orders on both
certificate routes (the split-spectrum rule, under its eigenclass, unipotent
and split-spectrum tags, and the finite matrix group), and the split rule
against a Groebner scan of random split sigma; the verdict
table is pinned row-for-row on the moving-point, fat-point, degenerate, and
quotient-probe scenes, and as rendered text on the unstable and stable
regimes that no shipped scene reaches.  The hypotheses record of each
shipped and curve scene is pinned, and every rule is checked against the
weakest-link rule over records whose fields are certified, heuristic at
some horizon, or absent.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from geomideal import geometry
from geomideal.classify import (
    CITATIONS,
    EVIDENCE_KINDS,
    PREDICATES,
    PROBE_J_MAX,
    ClassificationRow,
    Evidence,
    _hypotheses,
    _PowerScan,
    _row,
    _RULES,
    classify,
    component_analysis,
    reduced_point_of,
    sigma_ideal_order,
)
from geomideal.cli import parse_scene, render_text, report_to_records
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import RationalPoint
from geomideal.idealizer import IdealizerScene, idealizer_hilbert, stabilization_degree
from geomideal.polykernel import (
    HomIdeal,
    PolyRing,
    Substitution,
    ideal_equal,
    intersect,
    monomials_of_degree,
)
from geomideal.twist import ProjAutomorphism

RQ = PolyRing(QQ, 3)
SIGMA = ProjAutomorphism.diagonal(RQ, ["1", "2", "3"])
SWAP12 = ProjAutomorphism.from_strings(
    RQ, [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
)


def ideal(*texts, ring=RQ):
    return HomIdeal.from_strings(ring, texts)


def pt(text, field=QQ):
    return RationalPoint.parse(field, text)


def moving_point_scene(**kw):
    return IdealizerScene(RQ, SIGMA, pt("[1:1:1]").ideal(RQ), **kw)


FAT_GENS = ("x0 + x1", "x0^2")


def fat_point_scene():
    return IdealizerScene(
        RQ,
        SIGMA,
        ideal(*FAT_GENS),
        declared_components=((ideal(*FAT_GENS), ideal("x0", "x1")),),
    )


# ---------------------------------------------------------------------------
# sigma-orders of ideals
# ---------------------------------------------------------------------------

def test_order_fixed_coordinate_line():
    r = sigma_ideal_order(ideal("x0"), SIGMA, 6)
    assert (r.order, r.justification) == (1, "direct-power-match")


def test_order_monomial_ideals_always_fixed_under_diagonal():
    r = sigma_ideal_order(ideal("x0^2", "x0*x1", "x1^2"), SIGMA, 6)
    assert r.order == 1


def test_order_period_two_under_coordinate_swap():
    r = sigma_ideal_order(ideal("x0 - x1"), SWAP12, 6)
    assert r.order == 2


def test_order_certified_infinite_for_moving_point():
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), SIGMA, 5)
    assert r.order is None
    assert r.certified_infinite
    assert r.justification == "eigenclass-obstruction"


def test_order_fat_point_scheme_never_fixed_but_radical_is():
    assert sigma_ideal_order(ideal("x0", "x1"), SIGMA, 4).order == 1
    r = sigma_ideal_order(ideal(*FAT_GENS), SIGMA, 4)
    assert r.certified_infinite and r.justification == "eigenclass-obstruction"


def test_order_sign_classes_give_period_two():
    neg = ProjAutomorphism.diagonal(RQ, ["1", "-1", "2"])
    r = sigma_ideal_order(ideal("x0 + x1"), neg, 6)
    assert (r.order, r.justification) == (2, "direct-power-match")


def test_order_sign_split_at_bound_one_is_not_certified():
    # sigma^2 fixes (x0 + x1), so bound 1 leaves the order open
    neg = ProjAutomorphism.diagonal(RQ, ["1", "-1", "2"])
    r = sigma_ideal_order(ideal("x0 + x1"), neg, 1)
    assert (r.order, r.certified_infinite, r.justification) == (
        None, False, "order-bound-exhausted")


def test_order_moving_point_certified_at_bound_one():
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), SIGMA, 1)
    assert (r.order, r.certified_infinite, r.justification) == (
        None, True, "eigenclass-obstruction")


def _splits_by_abs_eigenvalue(I, entries):
    """Reference rank test: every piece I_m up to the top generator degree
    is the direct sum of its intersections with the spans of the monomial
    classes of equal |eigenvalue| (oracle linear algebra over Q)."""
    nv = I.ring.nvars
    gens = [dict(g.terms) for g in I.gens]
    for m in range(1, I.max_gen_degree() + 1):
        monos = oracles.monomials(nv, m)
        rows = oracles.degree_piece_rows(gens, nv, m)
        total = oracles.rref_rank(rows)[1]
        classes: dict = {}
        for j, mono in enumerate(monos):
            value = 1
            for e, x in zip(mono, entries):
                value *= x ** e
            classes.setdefault(abs(value), set()).add(j)
        inside = 0
        for cls in classes.values():
            rest = [[r[j] for j in range(len(monos)) if j not in cls] for r in rows]
            inside += total - oracles.rref_rank(rest)[1]
        if inside != total:
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eigenclass_certificate_matches_the_rank_test(data):
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(QQ, nv)
    entries = data.draw(st.lists(st.sampled_from([1, -1, 2, -2, 3]), min_size=nv, max_size=nv))
    sigma = ProjAutomorphism.diagonal(ring, [str(x) for x in entries])
    gens = []
    for _ in range(data.draw(st.integers(1, 2))):
        monos = monomials_of_degree(ring, data.draw(st.integers(1, 2)))
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        gens.append(sum((ring.monomial(m, QQ.from_int(data.draw(st.sampled_from([-2, -1, 1, 3]))))
                         for m in chosen), ring.zero()))
    I = HomIdeal(ring, gens)
    splits = _splits_by_abs_eigenvalue(I, [QQ.from_int(x) for x in entries])
    for bound in (1, 2, 3):
        r = sigma_ideal_order(I, sigma, bound)
        if r.order is None:
            assert r.certified_infinite == (not splits)
        else:
            assert not r.certified_infinite


def test_order_unipotent_rigidity():
    R1 = PolyRing(QQ, 2)
    shear = ProjAutomorphism.from_strings(R1, [["1", "1"], ["0", "1"]])
    r = sigma_ideal_order(HomIdeal.from_strings(R1, ["x0"]), shear, 5)
    assert r.order is None
    assert r.certified_infinite and r.justification == "unipotent-rigidity"


def test_order_scan_stops_where_the_certificates_decide(monkeypatch):
    """At bound 12 a split sigma pulls back sigma^n for n up to c, the
    component count of its closure: sigma alone when the eigenvalues share
    a sign (diag(1, 2, 3) and the shear), sigma and sigma^2 when they do
    not (diag(1, -1, 2)).  Each power is tried generator by generator and
    stops at the first pullback outside I, and sigma^2 steps that
    generator's pullback by sigma, so each power shows up once here, as
    one step."""
    powers = []
    pullback = ProjAutomorphism.pullback

    def counted(self, f, n=1):
        powers.append(n)
        return pullback(self, f, n)

    monkeypatch.setattr(ProjAutomorphism, "pullback", counted)
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), SIGMA, 12)
    assert r.justification == "eigenclass-obstruction" and powers == [1]
    neg = ProjAutomorphism.diagonal(RQ, ["1", "-1", "2"])
    powers.clear()
    assert sigma_ideal_order(ideal("x0 + x1"), neg, 12).order == 2
    assert powers == [1, 1]
    R1 = PolyRing(QQ, 2)
    shear = ProjAutomorphism.from_strings(R1, [["1", "1"], ["0", "1"]])
    powers.clear()
    r = sigma_ideal_order(HomIdeal.from_strings(R1, ["x0"]), shear, 12)
    assert r.justification == "unipotent-rigidity" and powers == [1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_by_power_agrees_with_ideal_equality(data):
    """The containment test behind sigma_ideal_order against the Groebner
    equality of I^(sigma^n) and I, over Q and GF(7), for diagonal sigma
    (entries of finite order among them), a permutation times a diagonal,
    and upper triangular sigma."""
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    nv = data.draw(st.integers(2, 3))
    ring = PolyRing(field, nv)
    entries = data.draw(st.lists(st.sampled_from([1, -1, 2, 3]), min_size=nv, max_size=nv))
    kind = data.draw(st.sampled_from(["diagonal", "permutation", "triangular"]))
    perm = data.draw(st.permutations(range(nv))) if kind == "permutation" else range(nv)
    rows = [[entries[i] if j == perm[i] else
             data.draw(st.integers(-2, 2)) if kind == "triangular" and j > i else 0
             for j in range(nv)] for i in range(nv)]
    sigma = ProjAutomorphism(ring, [[field.from_int(x) for x in row] for row in rows])
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        monos = monomials_of_degree(ring, data.draw(st.integers(1, 2)))
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        gens.append(sum((ring.monomial(m, field.from_int(data.draw(st.sampled_from([-2, -1, 1, 3]))))
                         for m in chosen), ring.zero()))
    I = HomIdeal(ring, gens)
    n = data.draw(st.integers(1, 6))
    assert _PowerScan(I, sigma).fixes(n) == ideal_equal(sigma.pullback_ideal(I, n), I)


def test_order_prime_field_beyond_bound_uses_group_order():
    # over F_7 the entry ratio 2 has multiplicative order 3, past the bound 2
    R7 = PolyRing(PrimeField(7), 3)
    sig7 = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    r = sigma_ideal_order(HomIdeal.from_strings(R7, list(FAT_GENS)), sig7, 2)
    assert (r.order, r.justification) == (3, "finite-matrix-group")


def test_projective_order_scan_caches_no_power_past_the_bound():
    # 11 has order 1008 mod 1009, past PERIOD_CAP, so the projective-order
    # scan runs to the cap and finds no order
    F = PrimeField(1009)
    R = PolyRing(F, 3)
    sigma = ProjAutomorphism.diagonal(R, ["1", "11", "121"])
    r = sigma_ideal_order(pt("[1:2:3]", F).ideal(R), sigma, 12)
    assert (r.order, r.justification) == (None, "order-bound-exhausted")


def test_order_scan_steps_each_generator_from_its_last_pullback(monkeypatch):
    """At bound 12 the scan of a GF(1009) point under diag(1, 11, 121) stops
    at the first generator for each n, stepped from its pullback at n - 1:
    12 applications of sigma's table, where pulling back by sigma^n from
    scratch would make 1 + 2 + ... + 12 = 78."""
    calls = []
    real = Substitution.__call__

    def counted(self, f):
        calls.append(f)
        return real(self, f)

    monkeypatch.setattr(Substitution, "__call__", counted)
    F = PrimeField(1009)
    R = PolyRing(F, 3)
    sigma = ProjAutomorphism.diagonal(R, ["1", "11", "121"])
    r = sigma_ideal_order(pt("[1:2:3]", F).ideal(R), sigma, 12)
    assert (r.order, r.justification) == (None, "order-bound-exhausted")
    assert len(calls) == 12


def test_projective_order_is_scanned_once_per_sigma(monkeypatch):
    """The PERIOD_CAP scan runs on the first call only: a second call, and a
    second order search on the same sigma, make no matrix product."""
    products = []
    real = geometry._mat_mul

    def counted(field, A, B):
        products.append(1)
        return real(field, A, B)

    monkeypatch.setattr(geometry, "_mat_mul", counted)
    F = PrimeField(1009)
    R = PolyRing(F, 3)
    sigma = ProjAutomorphism.diagonal(R, ["1", "11", "121"])
    assert geometry.projective_order(sigma) is None
    assert len(products) == geometry.PERIOD_CAP
    products.clear()
    assert geometry.projective_order(sigma) is None
    r = sigma_ideal_order(pt("[1:2:3]", F).ideal(R), sigma, 12)
    assert (r.order, r.justification) == (None, "order-bound-exhausted")
    assert products == []
    fresh = ProjAutomorphism.diagonal(R, ["1", "11", "121"])
    assert geometry.projective_order(fresh) is None and len(products) == geometry.PERIOD_CAP


def test_group_order_route_caches_no_power_past_the_bound():
    # 7 has order 996 mod 997, so sigma^996 is scalar and fixes the point;
    # the powers past the bound 12 (the divisors 83 ... 996 of 996) are
    # taken by squaring
    F = PrimeField(997)
    R = PolyRing(F, 3)
    sigma = ProjAutomorphism.diagonal(R, ["1", "7", "49"])
    r = sigma_ideal_order(pt("[1:2:3]", F).ideal(R), sigma, 12)
    assert (r.order, r.justification) == (996, "finite-matrix-group")


def test_order_bound_validation():
    with pytest.raises(ValueError):
        sigma_ideal_order(ideal("x0"), SIGMA, 0)


# a sigma that does not split over Q: 2x2 block [[2, 1], [1, 1]] with the
# irrational eigenvalues (3 ± sqrt 5)/2, and the eigenvalue 1
NON_SPLIT = ProjAutomorphism.from_strings(
    RQ, [["2", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]
)
# upper triangular with the eigenvalues 1, 2, 1: split over Q, neither
# diagonal nor one eigenvalue
TRIANGULAR = ProjAutomorphism.from_strings(
    RQ, [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "1"]]
)


def test_order_non_split_sigma_exhausts_bound():
    # no certificate route: the scan runs to the bound and decides nothing
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), NON_SPLIT, 3)
    assert r == (None, False, "order-bound-exhausted")
    assert geometry.rational_spectrum(NON_SPLIT) is None


def test_order_triangular_sigma_is_certified_by_its_spectrum():
    # sigma^n [1:1:1] = [2^n : 2^n : 1]; the eigenvalues share a sign, so
    # sigma's miss rules out every power
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), TRIANGULAR, 3)
    assert r == (None, True, "split-spectrum")
    assert sorted(geometry.rational_spectrum(TRIANGULAR)) == [1, 1, 2]


def _split_sigma(data, nv):
    """(P J P^-1, J's diagonal): J a Jordan form with eigenvalues in
    {±1, ±2, 3}, P a product of up to three elementary integer matrices
    I + t e_ij, so P^-1 is integral too."""
    J = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        J[i][i] = data.draw(st.sampled_from([1, -1, 2, -2, 3]))
        if i and J[i - 1][i - 1] == J[i][i]:
            J[i - 1][i] = data.draw(st.sampled_from([0, 1]))
    P = [[int(i == j) for j in range(nv)] for i in range(nv)]
    P_inv = [row[:] for row in P]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.permutations(range(nv)))[:2]
        t = data.draw(st.sampled_from([-1, 1, 2]))
        for row in P:  # P (I + t e_ij): column j += t column i
            row[j] += t * row[i]
        P_inv[i] = [a - t * b for a, b in zip(P_inv[i], P_inv[j])]  # (I - t e_ij) P^-1
    rows = oracles.dense_mul(QQ, oracles.dense_mul(QQ, P, J), P_inv)
    return ProjAutomorphism(PolyRing(QQ, nv), rows), [J[i][i] for i in range(nv)]


def _random_subscheme(data, ring):
    """A point, a pair of points, a fat point (a point's ideal with one
    generator squared) or a line (P^2, P^3), with small integer data."""
    nv = ring.nvars
    coords = st.lists(st.integers(-2, 2), min_size=nv, max_size=nv).filter(any)
    point = RationalPoint.of(QQ, data.draw(coords)).ideal(ring)
    kinds = ["point", "pair", "fat"] + (["line"] if nv > 2 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "pair":
        return intersect(point, RationalPoint.of(QQ, data.draw(coords)).ideal(ring))
    if kind == "fat":
        return HomIdeal(ring, point.gens[:-1] + (point.gens[-1] * point.gens[-1],))
    if kind == "line":
        forms = [sum((ring.variable(i).scale(c) for i, c in enumerate(data.draw(coords))),
                     ring.zero()) for _ in range(nv - 2)]
        return HomIdeal(ring, forms)
    return point


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_split_sigma_fixes_z_with_some_power_exactly_when_its_closure_says(data):
    """For sigma split over Q, some power of sigma fixes Z exactly when
    sigma^c does, c = 1 when the eigenvalues share a sign and c <= 2
    otherwise: against the least n <= 12 with I^(sigma^n) = I by Groebner
    equality, sigma_ideal_order at bound 12 certifies that no power fixes Z
    exactly when there is none, and otherwise reports that least n.  The
    spectrum is J's diagonal."""
    sigma, diagonal = _split_sigma(data, data.draw(st.integers(2, 4)))
    assert sorted(geometry.rational_spectrum(sigma)) == sorted(diagonal)
    Z = _random_subscheme(data, sigma.ring)
    least = next((n for n in range(1, 13) if ideal_equal(sigma.pullback_ideal(Z, n), Z)),
                 None)
    r = sigma_ideal_order(Z, sigma, 12)
    assert r.certified_infinite == (least is None)
    assert r.order == least


# ---------------------------------------------------------------------------
# reduced points
# ---------------------------------------------------------------------------

def test_reduced_point_roundtrip():
    for text in ("[1:1:1]", "[0:0:1]", "[1:1/2:-3]"):
        p = pt(text)
        assert reduced_point_of(p.ideal(RQ)) == p


def test_reduced_point_rejects_non_points():
    assert reduced_point_of(ideal("x0")) is None
    assert reduced_point_of(ideal(*FAT_GENS)) is None
    assert reduced_point_of(ideal("x0*x1")) is None


@pytest.mark.parametrize("d", [1, 3])
def test_reduced_point_over_gf7_and_with_extra_generators(d):
    ring = PolyRing(PrimeField(7), d + 1)
    square = HomIdeal(ring, [ring.monomial(m) for m in monomials_of_degree(ring, 2)])
    texts = ["[1:3]", "[0:1]"] if d == 1 else ["[1:3:5:6]", "[0:0:2:1]", "[0:0:0:1]"]
    for text in texts:
        p = pt(text, PrimeField(7))
        P = p.ideal(ring)
        assert reduced_point_of(P) == p
        quadric = P.gens[0] * ring.variable(d) + P.gens[-1] * ring.variable(0)
        assert reduced_point_of(HomIdeal(ring, list(P.gens) + [quadric])) == p
        assert reduced_point_of(intersect(P, square)) is None


# ---------------------------------------------------------------------------
# component analysis
# ---------------------------------------------------------------------------

def test_two_fixed_lines_split():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0*x1"))
    ca = component_analysis(scene, 8)
    assert ca.source == "monomial"
    assert len(ca.components) == 2
    assert all(c.codimension == 1 for c in ca.components)
    assert all(c.radical_order.order == 1 for c in ca.components)
    assert all(c.scheme_order.order == 1 for c in ca.components)
    assert ca.W_ideal is None
    assert ideal_equal(ca.J_ideal, scene.ideal)
    assert ca.J_fixed.order == 1


def test_moving_point_split():
    ca = component_analysis(moving_point_scene(), 8)
    assert ca.source == "point"
    (c,) = ca.components
    assert c.codimension == 2
    assert c.radical_order.order is None and c.radical_order.certified_infinite
    assert ca.J_ideal is None and ca.J_fixed is None
    assert ideal_equal(ca.W_ideal, ca.components[0].component)


def test_declared_period_two_component():
    line = ideal("x0 - x1")
    scene = IdealizerScene(RQ, SWAP12, line,
                           declared_components=((line, line),))
    ca = component_analysis(scene, 8)
    assert ca.source == "declared"
    assert ca.components[0].radical_order.order == 2
    assert ca.J_fixed.order == 2


def test_fat_point_split_radical_fixed_scheme_never():
    ca = component_analysis(fat_point_scene(), 6)
    (c,) = ca.components
    assert c.radical_order.order == 1
    assert c.scheme_order.certified_infinite
    assert ideal_equal(ca.J_ideal, ideal(*FAT_GENS))
    assert ca.J_fixed.certified_infinite


def test_mixed_split_assigns_parts():
    moving = pt("[1:1:1]").ideal(RQ)
    fixed = ideal("x0")
    scene = IdealizerScene(RQ, SIGMA, intersect(fixed, moving),
                           declared_components=((fixed, None), (moving, None)))
    ca = component_analysis(scene, 6)
    assert ideal_equal(ca.J_ideal, fixed)
    assert ideal_equal(ca.W_ideal, moving)
    assert ca.J_fixed.order == 1


def test_no_decomposition_available():
    # two non-monomial components, nothing declared
    scene = IdealizerScene(RQ, SIGMA,
                           intersect(pt("[1:1:1]").ideal(RQ),
                                     pt("[1:2:3]").ideal(RQ)))
    with pytest.raises(ValueError, match="no decomposition available"):
        component_analysis(scene, 4)


def test_component_analysis_bound_validation():
    with pytest.raises(ValueError):
        component_analysis(moving_point_scene(), 0)


# ---------------------------------------------------------------------------
# evidence plumbing
# ---------------------------------------------------------------------------

def test_evidence_kind_closed():
    with pytest.raises(ValueError):
        Evidence("guessed", "anything")
    assert EVIDENCE_KINDS == ("certified", "heuristic", "refuted", "not-applicable")


def test_heuristic_requires_horizon_and_refuted_requires_witness():
    with pytest.raises(ValueError):
        Evidence("heuristic", "tag")
    with pytest.raises(ValueError):
        Evidence("refuted", "tag")
    assert Evidence("heuristic", "tag", horizon=9).horizon == 9
    assert Evidence("refuted", "tag", witness="w").witness == "w"


def test_row_validation():
    ev = Evidence("certified", "tag")
    with pytest.raises(ValueError):
        ClassificationRow("made-up-predicate", "yes", "", ev)
    with pytest.raises(ValueError):
        ClassificationRow("right-noetherian", "maybe", "", ev)


def test_every_predicate_has_a_citation():
    assert set(CITATIONS) == set(PREDICATES)
    assert len(PREDICATES) == 8


# ---------------------------------------------------------------------------
# classification: moving point (the flagship shape)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flagship_report():
    scene = moving_point_scene(gorenstein_z=True)
    return classify(scene, sample_points=(pt("[1:1:1]"), pt("[1:2:3]")),
                    horizon=12, order_bound=8)


def test_flagship_row_kinds(flagship_report):
    expected = {
        "right-noetherian": ("yes", "heuristic"),
        "strongly-right-noetherian": ("yes", "heuristic"),
        "left-noetherian": ("yes", "certified"),
        "strongly-left-noetherian": ("no", "refuted"),
        "fails-left-chi-1": ("yes", "certified"),
        "right-chi-levels": ("yes", "certified"),
        "finite-cohomological-dimension": ("yes", "certified"),
        "tensor-square-not-left-noetherian": ("yes", "certified"),
    }
    assert tuple(r.predicate for r in flagship_report.rows) == PREDICATES
    for row in flagship_report.rows:
        assert (row.verdict, row.evidence.kind) == expected[row.predicate]


def test_flagship_details(flagship_report):
    assert "codimension 2" in flagship_report.row("strongly-left-noetherian").evidence.witness
    chi = flagship_report.row("right-chi-levels").detail
    assert "chi_1" in chi and "chi_2" in chi
    assert flagship_report.flags == ()


def test_flagship_heuristic_rows_show_horizon_and_never_say_certified(flagship_report):
    for row in flagship_report.rows:
        if row.evidence.kind == "heuristic":
            assert row.evidence.horizon == 12
            text = " ".join([row.verdict, row.detail, row.evidence.kind])
            assert "certified" not in text


def test_classify_deterministic():
    scene = moving_point_scene(gorenstein_z=True)
    points = (pt("[1:1:1]"), pt("[1:2:3]"))
    a = classify(scene, sample_points=points, horizon=10, order_bound=6)
    b = classify(moving_point_scene(gorenstein_z=True), sample_points=points,
                 horizon=10, order_bound=6)
    assert a == b


def test_moving_point_without_gorenstein_still_gets_chi_by_dimension():
    # a zero-dimensional Z supplies the chi hypotheses on its own
    rep = classify(moving_point_scene(), sample_points=(pt("[1:2:3]"),),
                   horizon=8, order_bound=6)
    row = rep.row("right-chi-levels")
    assert row.verdict == "yes"
    assert "zero-dimensional" in row.detail


def test_no_sample_points_leaves_orbit_rows_inconclusive():
    rep = classify(moving_point_scene(), horizon=8, order_bound=6)
    assert rep.row("right-noetherian").verdict == "inconclusive"
    assert rep.row("right-noetherian").evidence.kind == "heuristic"
    assert rep.row("left-noetherian").verdict == "yes"


def test_orbit_scan_ending_at_the_horizon_leaves_right_noetherian_inconclusive():
    # no orbit route for this sigma, and the one sampled orbit hits Z at
    # the horizon (test_geometry's inconclusive orbit)
    sig = ProjAutomorphism.from_strings(RQ, [["1", "1", "0"], ["0", "1", "0"],
                                             ["0", "0", "2"]])
    scene = IdealizerScene(RQ, sig, ideal("x0 - 6*x1"))
    rep = classify(scene, sample_points=(pt("[0:1:1]"),), horizon=6)
    row = rep.row("right-noetherian")
    assert (row.verdict, row.evidence.kind, row.evidence.horizon) == (
        "inconclusive", "heuristic", 6)
    assert "at least one scan ends at the horizon without a completeness bound" in row.detail


def test_periodic_point_on_moving_line_refutes_right_noetherian():
    # V(x0 - x2) moves under diag(1,1,2) but contains the fixed point [0:1:0]
    sig = ProjAutomorphism.diagonal(RQ, ["1", "1", "2"])
    line = ideal("x0 - x2")
    scene = IdealizerScene(RQ, sig, line, declared_components=((line, line),))
    rep = classify(scene, sample_points=(pt("[0:1:0]"),), horizon=10, order_bound=6)
    row = rep.row("right-noetherian")
    assert (row.verdict, row.evidence.kind) == ("no", "refuted")
    assert "period 1" in row.evidence.witness
    assert rep.row("strongly-right-noetherian").verdict == "no"


# ---------------------------------------------------------------------------
# classification: fat point (never stabilizes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fat_report():
    return classify(fat_point_scene(), horizon=8, order_bound=6)


def test_fat_point_flag_and_refutations(fat_report):
    assert "not a finitely generated idealizer; noetherian rows refuted" in fat_report.flags
    for name in ("right-noetherian", "strongly-right-noetherian"):
        row = fat_report.row(name)
        assert (row.verdict, row.evidence.kind) == ("no", "refuted")
        assert "no power of sigma fixes" in row.evidence.witness
    for name in ("left-noetherian", "strongly-left-noetherian"):
        row = fat_report.row(name)
        assert (row.verdict, row.evidence.kind) == ("no", "heuristic")


def test_fat_point_assumption_dependent_rows_not_applicable(fat_report):
    for name in ("fails-left-chi-1", "right-chi-levels",
                 "finite-cohomological-dimension",
                 "tensor-square-not-left-noetherian"):
        assert fat_report.row(name).evidence.kind == "not-applicable"
        assert fat_report.row(name).verdict == "inconclusive"


# ---------------------------------------------------------------------------
# classification: degenerate scenes
# ---------------------------------------------------------------------------

def test_identity_scene_degenerates_with_flags():
    scene = IdealizerScene(RQ, ProjAutomorphism.identity(RQ), ideal("x0"))
    rep = classify(scene, horizon=5)
    assert "fixed-part present" in rep.flags
    assert any("W = X" in f for f in rep.flags)
    for name in PREDICATES[:4]:
        assert (rep.row(name).verdict, rep.row(name).evidence.kind) == ("yes", "certified")
    assert rep.row("fails-left-chi-1").evidence.kind == "not-applicable"
    assert rep.row("finite-cohomological-dimension").verdict == "yes"


def test_degenerate_first_unit_colon_past_one_is_not_certified_text():
    # sigma^2 fixes Z = [1:1:1], sigma does not: R_n = B_n only for even n
    sigma = ProjAutomorphism.diagonal(RQ, ["1", "-1", "1"])
    scene = IdealizerScene(RQ, sigma, ideal("x0 - x2", "x1 - x2"))
    assert [(r.dim_B - r.dim_R) for r in idealizer_hilbert(scene, 6)] == [0, 1, 0, 1, 0, 1, 0]
    agrees = ("    Z is fixed by sigma^2: the section ring agrees with the full "
              "twisted coordinate ring in every degree divisible by 2, and is a "
              "finite module over that subring\n")
    strong = ("    finite extensions of the strongly noetherian twisted coordinate "
              "ring of projective space remain strongly noetherian\n")
    na = ("    the scene degenerates to the twisted coordinate ring in large "
          "degree; idealizer-specific predicates are not evaluated\n")
    assert rendered(scene, horizon=6) == (
        "# classification\n"
        "flag: fixed-part present\n"
        "flag: degenerate: W = X behavior (the colon is the unit ideal at degree 2)\n"
        "right-noetherian: yes  [certified]  (finite-forward-orbit-criterion)\n"
        + agrees +
        "strongly-right-noetherian: yes  [certified]  (strong-right-equals-right-for-idealizers)\n"
        + strong +
        "left-noetherian: yes  [certified]  (critical-transversality-left-noetherian)\n"
        + agrees +
        "strongly-left-noetherian: yes  [certified]  (pure-codimension-one-and-transversality)\n"
        + strong +
        "fails-left-chi-1: inconclusive  [not-applicable]  (idealizer-ext1-growth)\n"
        + na +
        "right-chi-levels: inconclusive  [not-applicable]  (codimension-chi-threshold)\n"
        + na +
        "finite-cohomological-dimension: inconclusive  [not-applicable]  "
        "(subscheme-homological-dimension-criterion)\n"
        "    R_n is a proper subspace of B_n whenever 2 does not divide n, so the "
        "ring has infinite codimension in the twisted coordinate ring; whether "
        "finite cohomological dimension passes to it from the subring in degrees "
        "divisible by 2 is not checked\n"
        "tensor-square-not-left-noetherian: inconclusive  [not-applicable]  "
        "(segre-product-obstruction)\n"
        + na
    )


@st.composite
def finite_order_scenes(draw):
    """sigma of finite order (a +-1 diagonal or a permutation over Q, or a
    diagonal over GF(p)) and Z a point, a line or a conic of the plane."""
    kind = draw(st.sampled_from(["signs", "permutation", "prime"]))
    field = PrimeField(draw(st.sampled_from([3, 5, 7]))) if kind == "prime" else QQ
    ring = PolyRing(field, 3)
    if kind == "signs":
        sigma = ProjAutomorphism.diagonal(
            ring, draw(st.lists(st.sampled_from(["1", "-1"]), min_size=3, max_size=3)))
    elif kind == "permutation":
        perm = draw(st.permutations(range(3)))
        sigma = ProjAutomorphism.from_strings(
            ring, [["1" if j == perm[i] else "0" for j in range(3)] for i in range(3)])
    else:
        sigma = ProjAutomorphism.diagonal(
            ring, [str(draw(st.integers(1, field.char - 1))) for _ in range(3)])
    small = st.integers(-2, 2)

    def form(degree):
        monos = monomials_of_degree(ring, degree)
        cs = draw(st.lists(small, min_size=len(monos), max_size=len(monos)))
        return sum((ring.monomial(m).scale(field.from_int(c)) for m, c in zip(monos, cs)),
                   ring.zero())

    shape = draw(st.sampled_from(["point", "line", "conic"]))
    if shape == "point":
        coords = draw(st.lists(small, min_size=3, max_size=3))
        assume(any(c % field.char for c in coords) if field.char else any(coords))
        Z = RationalPoint.of(field, [field.from_int(c) for c in coords]).ideal(ring)
    else:
        f = form(1 if shape == "line" else 2)
        assume(not f.is_zero())
        Z = HomIdeal(ring, [f])
    return IdealizerScene(ring, sigma, Z)


@settings(max_examples=30, deadline=None)
@given(scene=finite_order_scenes())
def test_finite_codimension_claims_hold_to_the_horizon(scene):
    """A row that claims finite codimension in the twisted coordinate ring
    has dim B_n = dim R_n for every n through the horizon; a degenerate
    scene whose first unit colon is at k > 1 claims none, and there R_n
    differs from B_n exactly when k does not divide n."""
    horizon = 6
    rep = classify(scene, horizon=horizon)
    table = idealizer_hilbert(scene, horizon)[1:]
    if any(r.verdict == "yes" and "finite codimension" in r.detail for r in rep.rows):
        assert all(r.dim_B == r.dim_R for r in table)
    stab = stabilization_degree(scene, horizon)
    if stab.degenerate and (k := stab.table.index("unit") + 1) > 1:
        assert rep.row("finite-cohomological-dimension").evidence.kind != "certified"
        assert all((r.dim_B == r.dim_R) == (r.n % k == 0) for r in table)


def test_prime_field_torsion_degenerates_at_the_entry_order():
    R7 = PolyRing(PrimeField(7), 3)
    sig7 = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    scene = IdealizerScene(R7, sig7, HomIdeal.from_strings(R7, list(FAT_GENS)))
    rep = classify(scene, horizon=6)
    assert any("degree 3" in f for f in rep.flags)
    assert rep.row("right-noetherian").verdict == "yes"


def test_mixed_scene_flags_fixed_part():
    moving = pt("[1:1:1]").ideal(RQ)
    fixed = ideal("x0")
    scene = IdealizerScene(RQ, SIGMA, intersect(fixed, moving),
                           declared_components=((fixed, None), (moving, None)))
    rep = classify(scene, sample_points=(pt("[1:2:3]"),), horizon=8, order_bound=6)
    assert rep.flags == ("fixed-part present",)
    assert rep.row("right-noetherian").verdict == "yes"
    assert rep.row("right-noetherian").evidence.kind == "heuristic"
    assert rep.row("left-noetherian").evidence.kind == "not-applicable"


def orbit_chain_scene():
    # Z = five consecutive orbit points of [1:1:1]: the colon keeps dropping
    # the leading point until the chain separates past the horizon
    pts = [pt("[1:1:1]")]
    for _ in range(4):
        pts.append(pts[-1].apply(SIGMA))
    acc = None
    comps = []
    for p in pts:
        ip = p.ideal(RQ)
        comps.append((ip, ip))
        acc = ip if acc is None else intersect(acc, ip)
    return IdealizerScene(RQ, SIGMA, acc, declared_components=tuple(comps))


def test_orbit_chain_merely_needs_a_larger_horizon():
    rep = classify(orbit_chain_scene(), horizon=3, order_bound=4)
    assert rep.flags == ()
    assert rep.row("right-noetherian").verdict == "inconclusive"
    assert any("larger horizon" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# classification: pinned text of the regimes no shipped scene reaches
# ---------------------------------------------------------------------------

def rendered(scene, **kw):
    return render_text(report_to_records(classify(scene, **kw)))


UNSTABLE_NA_ROWS = """\
fails-left-chi-1: inconclusive  [not-applicable]  (idealizer-ext1-growth)
    the colon does not stabilize; predicates assuming a stabilized idealizer are not evaluated
right-chi-levels: inconclusive  [not-applicable]  (codimension-chi-threshold)
    the colon does not stabilize; predicates assuming a stabilized idealizer are not evaluated
finite-cohomological-dimension: inconclusive  [not-applicable]  (subscheme-homological-dimension-criterion)
    the colon does not stabilize; predicates assuming a stabilized idealizer are not evaluated
tensor-square-not-left-noetherian: inconclusive  [not-applicable]  (segre-product-obstruction)
    the colon does not stabilize; predicates assuming a stabilized idealizer are not evaluated
"""


def test_unstable_without_component_split_text():
    # the fat point with no declared component: no split, colon never settles
    scene = IdealizerScene(RQ, SIGMA, ideal(*FAT_GENS))
    detail = ("    the colon strictly exceeds the ideal of Z at every computed "
              "degree and no component split is available\n")
    assert rendered(scene, horizon=8, order_bound=6) == (
        "# classification\n"
        "flag: not a finitely generated idealizer; noetherian rows refuted\n"
        "right-noetherian: no  [heuristic(horizon=8)]  (finite-forward-orbit-criterion)\n"
        + detail +
        "strongly-right-noetherian: no  [heuristic(horizon=8)]  (strong-right-equals-right-for-idealizers)\n"
        + detail +
        "left-noetherian: no  [heuristic(horizon=8)]  (critical-transversality-left-noetherian)\n"
        + detail +
        "strongly-left-noetherian: no  [heuristic(horizon=8)]  (pure-codimension-one-and-transversality)\n"
        + detail + UNSTABLE_NA_ROWS +
        "note: component analysis unavailable: no decomposition available: "
        "supply component blocks for a subscheme that is neither monomial nor "
        "a single rational point\n"
    )


def test_unstable_moving_components_only_text():
    scene = orbit_chain_scene()
    detail = "    colon still exceeds the ideal at degree 3\n"
    assert rendered(scene, horizon=3, order_bound=4) == (
        "# classification\n"
        "right-noetherian: inconclusive  [heuristic(horizon=3)]  (finite-forward-orbit-criterion)\n"
        + detail +
        "strongly-right-noetherian: inconclusive  [heuristic(horizon=3)]  (strong-right-equals-right-for-idealizers)\n"
        + detail +
        "left-noetherian: inconclusive  [heuristic(horizon=3)]  (critical-transversality-left-noetherian)\n"
        + detail +
        "strongly-left-noetherian: inconclusive  [heuristic(horizon=3)]  (pure-codimension-one-and-transversality)\n"
        + detail + UNSTABLE_NA_ROWS +
        "note: colon not yet stabilized at horizon 3; every component has "
        "moving support, so a larger horizon may settle the table\n"
    )


def test_unstable_order_bound_exhausted_text():
    # a fat point at a fixed point of a sigma that does not split over Q (no
    # certificate route): the support is fixed, the scheme is not within the
    # bound
    fat = ideal("x0", "x1^2")
    scene = IdealizerScene(RQ, NON_SPLIT, fat, declared_components=((fat, None),))
    detail = ("    the colon strictly exceeds the ideal of Z at every degree "
              "through 6, and no power of sigma up to 3 fixes the finite-order "
              "part\n")
    assert rendered(scene, horizon=6, order_bound=3) == (
        "# classification\n"
        "flag: not a finitely generated idealizer; noetherian rows refuted\n"
        "right-noetherian: no  [heuristic(horizon=6)]  (finite-forward-orbit-criterion)\n"
        + detail +
        "strongly-right-noetherian: no  [heuristic(horizon=6)]  (strong-right-equals-right-for-idealizers)\n"
        + detail +
        "left-noetherian: no  [heuristic(horizon=6)]  (critical-transversality-left-noetherian)\n"
        + detail +
        "strongly-left-noetherian: no  [heuristic(horizon=6)]  (pure-codimension-one-and-transversality)\n"
        + detail + UNSTABLE_NA_ROWS
    )


def test_unstable_split_spectrum_refutes_the_right_rows_text():
    # the same fat point under the triangular sigma, which splits over Q:
    # sigma fixes the support but not the scheme, so no power does, and the
    # right rows are refuted from the components alone
    fat = ideal("x0", "x1^2")
    scene = IdealizerScene(RQ, TRIANGULAR, fat, declared_components=((fat, None),))
    detail = ("    the colon strictly exceeds the ideal of Z at every degree "
              "through 6: the section ring needs a fresh generator in each such "
              "degree, while a left noetherian connected graded algebra is "
              "finitely generated\n")
    refuted = ("    a noetherian section ring forces some power of sigma to fix the "
               "finite-order part of Z as a scheme\n"
               "    witness: component V(x0, x1^2) has finite-order support (order 1) "
               "but no power of sigma fixes the component scheme (split-spectrum)\n")
    assert rendered(scene, horizon=6, order_bound=3) == (
        "# classification\n"
        "flag: not a finitely generated idealizer; noetherian rows refuted\n"
        "right-noetherian: no  [refuted]  (finite-forward-orbit-criterion)\n"
        + refuted +
        "strongly-right-noetherian: no  [refuted]  (strong-right-equals-right-for-idealizers)\n"
        + refuted +
        "left-noetherian: no  [heuristic(horizon=6)]  (critical-transversality-left-noetherian)\n"
        + detail +
        "strongly-left-noetherian: no  [heuristic(horizon=6)]  (pure-codimension-one-and-transversality)\n"
        "    follows from the left-noetherian failure\n"
        + UNSTABLE_NA_ROWS
    )


FIXED_MOVING_RIGHT_ROWS = {
    "infinite": (
        "right-noetherian: no  [refuted]  (finite-forward-orbit-criterion)\n"
        "    a sampled point returns to the moving part along a cycle\n"
        "    witness: forward orbit of [0 : 1 : 0] meets the moving part "
        "infinitely often (period 1)\n"
        "strongly-right-noetherian: no  [refuted]  (strong-right-equals-right-for-idealizers)\n"
        "    refuted through the same orbit\n"
        "    witness: forward orbit of [0 : 1 : 0] meets the moving part "
        "infinitely often (period 1)\n"
    ),
    "finite": (
        "right-noetherian: yes  [heuristic(horizon=8)]  (finite-forward-orbit-criterion)\n"
        "    1 sampled orbit(s) meet the moving part finitely often; the "
        "predicate is sampled only\n"
        "strongly-right-noetherian: yes  [heuristic(horizon=8)]  (strong-right-equals-right-for-idealizers)\n"
        "    1 sampled orbit(s) meet the moving part finitely often; the "
        "predicate is sampled only\n"
    ),
    "unsampled": (
        "right-noetherian: inconclusive  [heuristic(horizon=8)]  (finite-forward-orbit-criterion)\n"
        "    no sample points declared for the moving part\n"
        "strongly-right-noetherian: inconclusive  [heuristic(horizon=8)]  (strong-right-equals-right-for-idealizers)\n"
        "    no sample points declared for the moving part\n"
    ),
}


@pytest.mark.parametrize("samples,case", [
    (("[1:2:3]", "[0:1:0]"), "infinite"),
    (("[1:2:3]",), "finite"),
    ((), "unsampled"),
])
def test_unstable_fixed_and_moving_part_text(samples, case):
    # the fixed line V(x1) and the moving line V(x0 - x2) under diag(1, 1, 2);
    # the moving line carries the fixed point [0:1:0]
    sig = ProjAutomorphism.diagonal(RQ, ["1", "1", "2"])
    fixed, moving = ideal("x1"), ideal("x0 - x2")
    scene = IdealizerScene(RQ, sig, intersect(fixed, moving),
                           declared_components=((fixed, None), (moving, None)))
    points = tuple(pt(s) for s in samples)
    assert rendered(scene, sample_points=points, horizon=8, order_bound=6) == (
        "# classification\n"
        "flag: fixed-part present\n"
        + FIXED_MOVING_RIGHT_ROWS[case] +
        "left-noetherian: inconclusive  [not-applicable]  (critical-transversality-left-noetherian)\n"
        "    the reduction to the moving part is not re-run\n"
        "strongly-left-noetherian: inconclusive  [not-applicable]  (pure-codimension-one-and-transversality)\n"
        "    the reduction to the moving part is not re-run\n"
        + UNSTABLE_NA_ROWS +
        "note: sigma^1 fixes the finite-order part J; the section ring is a "
        "finite module over an idealizer at the moving part W\n"
    )


def test_unstable_fixed_part_without_moving_part_text():
    # both supports V(x0) and V(x1) have finite order under the shear
    # x2 -> x2 + 6*x1 over GF(7), and sigma^7 fixes Z, yet the colon moves
    # ((I : I^(sigma^7)) is the unit ideal): no moving part, no orbit sampled
    r7 = PolyRing(PrimeField(7), 3)
    shear = ProjAutomorphism.from_strings(
        r7, [["1", "0", "0"], ["0", "1", "6"], ["0", "0", "1"]]
    )
    scene = IdealizerScene(r7, shear, ideal("x0*x1", ring=r7))
    detail = "    Z has no moving part: every component has finite-order support\n"
    not_rerun = ("    Z has no moving part to reduce to, and the degrees where the "
                 "colon is the unit ideal lie past the horizon\n")
    expected = (
        "# classification\n"
        "flag: fixed-part present\n"
        "right-noetherian: inconclusive  [heuristic(horizon=5)]  (finite-forward-orbit-criterion)\n"
        + detail +
        "strongly-right-noetherian: inconclusive  [heuristic(horizon=5)]  (strong-right-equals-right-for-idealizers)\n"
        + detail +
        "left-noetherian: inconclusive  [not-applicable]  (critical-transversality-left-noetherian)\n"
        + not_rerun +
        "strongly-left-noetherian: inconclusive  [not-applicable]  (pure-codimension-one-and-transversality)\n"
        + not_rerun
        + UNSTABLE_NA_ROWS +
        "note: sigma^7 fixes the finite-order part J, which is all of Z: there "
        "is no moving part W, and the colon is the unit ideal in every degree "
        "divisible by 7\n"
    )
    # with or without sample points: there is no moving part to sample
    for points in ((pt("[0:1:0]", PrimeField(7)),), ()):
        assert rendered(scene, sample_points=points, horizon=5, order_bound=1) == expected


def test_stable_refuted_ct_cert_with_codimension_two_component_text():
    # two declared points, one on the invariant line V(x2): the colon settles,
    # ct-cert is refuted, and stabilization is only horizon-tested
    on_line, off = pt("[1:1:0]").ideal(RQ), pt("[1:2:3]").ideal(RQ)
    scene = IdealizerScene(RQ, SIGMA, intersect(on_line, off),
                           declared_components=((on_line, None), (off, None)))
    assert rendered(scene, sample_points=(pt("[1:1:1]"),), horizon=8,
                    order_bound=6) == (
        "# classification\n"
        "right-noetherian: yes  [heuristic(horizon=8)]  (finite-forward-orbit-criterion)\n"
        "    1 sampled forward orbit(s) meet Z finitely often (1 with "
        "completeness bounds); the predicate quantifies over all points and "
        "is sampled only\n"
        "strongly-right-noetherian: yes  [heuristic(horizon=8)]  (strong-right-equals-right-for-idealizers)\n"
        "    1 sampled forward orbit(s) meet Z finitely often (1 with "
        "completeness bounds); the predicate quantifies over all points and "
        "is sampled only; the two right-noetherian properties coincide for "
        "stabilized idealizers\n"
        "left-noetherian: no  [heuristic(horizon=8)]  (critical-transversality-left-noetherian)\n"
        "    an invariant subscheme obstructs transversality (invariant "
        "subscheme V(x2) is not homologically transverse to Z (Tor_1 survives "
        "in high degree)); colon stabilization itself is horizon-tested\n"
        "strongly-left-noetherian: no  [heuristic(horizon=8)]  (pure-codimension-one-and-transversality)\n"
        "    component V(x2, -x0 + x1) has codimension 2 > 1; colon "
        "stabilization itself is horizon-tested\n"
        "fails-left-chi-1: yes  [heuristic(horizon=8)]  (idealizer-ext1-growth)\n"
        "    the coordinate ring modulo the idealizer is infinite-dimensional "
        "and embeds into a first Ext group against the scalars\n"
        "right-chi-levels: inconclusive  [not-applicable]  (codimension-chi-threshold)\n"
        "    transversality undecided (refuted); chi levels not evaluated\n"
        "finite-cohomological-dimension: yes  [heuristic(horizon=8)]  (subscheme-homological-dimension-criterion)\n"
        "    finite on both sides: the ambient space is regular, so the "
        "subscheme sheaf has a finite resolution; the left side equals the "
        "ambient dimension\n"
        "tensor-square-not-left-noetherian: yes  [heuristic(horizon=8)]  (segre-product-obstruction)\n"
        "    Z has a component of codimension 2 >= 2, so the Segre square "
        "idealizes a subscheme with the same defect\n"
        "note: colon equals the ideal of Z from degree 1 through 8; degrees "
        "beyond the bound are unverified\n"
    )


def test_stable_certified_hyperplane_component_rows():
    # a declared hyperplane has pure codimension 1 and a certified ct-cert,
    # but Z is neither zero-dimensional nor declared Gorenstein
    plane = ideal("x0 + x1 + x2")
    scene = IdealizerScene(RQ, SIGMA, plane, declared_components=((plane, None),))
    rep = classify(scene, horizon=12)
    strong = rep.row("strongly-left-noetherian")
    assert (strong.verdict, strong.evidence.kind, strong.evidence.horizon) == ("yes", "heuristic", 12)
    assert strong.detail == "Z has pure codimension 1 and the transversality certificate holds"
    chi = rep.row("right-chi-levels")
    assert (chi.verdict, chi.evidence.kind) == ("inconclusive", "not-applicable")
    assert chi.detail == ("fails right chi_1 (codimension 1, smooth ambient space); the "
                          "lower level needs a declared Gorenstein structure on Z")


# ---------------------------------------------------------------------------
# classification: ambient quotient probe
# ---------------------------------------------------------------------------

CUBIC = "x1^2*x2 - x0^3"


def test_quotient_probe_flags_infinite_on_the_cusp():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0", "x1"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC))
    row = rep.row("finite-cohomological-dimension")
    assert (row.verdict, row.evidence.kind) == ("no", "heuristic")
    assert row.evidence.horizon == 6
    for r in rep.rows:
        if r.predicate != "finite-cohomological-dimension":
            assert r.evidence.kind == "not-applicable"


def test_quotient_probe_passes_smooth_point():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - x2"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC))
    row = rep.row("finite-cohomological-dimension")
    assert row.verdict == "yes"
    assert "homological degree 2" in row.detail


def test_quotient_probe_uses_the_declared_point_when_z_is_not_a_point():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0"))
    rep = classify(scene, sample_points=(pt("[0:0:1]"),), ambient_quotient=ideal(CUBIC))
    row = rep.row("finite-cohomological-dimension")
    assert (row.verdict, row.evidence.kind, row.evidence.horizon) == ("yes", "heuristic", 6)
    assert row.detail.startswith("Tor against the probe point dies at homological degree 2")


def test_quotient_probe_without_a_point_is_not_applicable():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0"))
    row = classify(scene, ambient_quotient=ideal(CUBIC)).row("finite-cohomological-dimension")
    assert (row.verdict, row.evidence.kind) == ("inconclusive", "not-applicable")
    assert row.detail == ("no probe point available: Z is not a single point and no "
                          "sample point was declared")


def test_quotient_probe_rejects_off_curve_point():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - 2*x2"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC))
    row = rep.row("finite-cohomological-dimension")
    assert row.evidence.kind == "not-applicable"
    assert "probe rejected" in row.detail


# ---------------------------------------------------------------------------
# the hypotheses record and the weakest-link rule
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

SCENE_FILES = {p.stem: p for p in sorted((ROOT / "scenes").glob("*.scene"))
               + sorted((ROOT / "scenes" / "curves").glob("*.scene"))}

FIELDS = ("stabilization", "ct", "orbits", "components", "probe")


def made_scenes():
    """(scene, sample points, horizon, order bound, ambient quotient) of
    every regime the classify tests above reach beside the shipped and
    curve scenes: each W/J case of an unstable scene, a stable scene whose
    transversality is refuted, a transverse hyperplane, a sampled cycle
    with and without a component split, a degenerate scene with its first
    unit colon at 2, and each outcome of the quotient probe."""
    tri = ProjAutomorphism.from_strings(RQ, [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "1"]])
    diag112 = ProjAutomorphism.diagonal(RQ, ["1", "1", "2"])
    fixed, moving, fat = ideal("x1"), ideal("x0 - x2"), ideal("x0", "x1^2")
    r7 = PolyRing(PrimeField(7), 3)
    shear = ProjAutomorphism.from_strings(r7, [["1", "0", "0"], ["0", "1", "6"], ["0", "0", "1"]])
    on_line, off = pt("[1:1:0]").ideal(RQ), pt("[1:2:3]").ideal(RQ)
    plane = ideal("x0 + x1 + x2")

    def fixed_and_moving(*samples):
        return (IdealizerScene(RQ, diag112, intersect(fixed, moving),
                               declared_components=((fixed, None), (moving, None))),
                tuple(pt(s) for s in samples), 8, 6, None)

    return {
        "no-split": (IdealizerScene(RQ, SIGMA, ideal(*FAT_GENS)), (), 8, 6, None),
        "moving-only": (orbit_chain_scene(), (), 3, 4, None),
        "bound-exhausted": (IdealizerScene(RQ, tri, fat, declared_components=((fat, None),)),
                            (), 6, 3, None),
        "no-moving-part": (IdealizerScene(r7, shear, ideal("x0*x1", ring=r7)), (), 5, 1, None),
        "cycle-to-w": fixed_and_moving("[1:2:3]", "[0:1:0]"),
        "finite-to-w": fixed_and_moving("[1:2:3]"),
        "unsampled-w": fixed_and_moving(),
        "hyperplane": (IdealizerScene(RQ, SIGMA, plane, declared_components=((plane, None),)),
                       (), 12, 12, None),
        "two-points": (IdealizerScene(RQ, SIGMA, intersect(on_line, off),
                                      declared_components=((on_line, None), (off, None))),
                       (pt("[1:1:1]"),), 8, 6, None),
        "cycle-to-z": (IdealizerScene(RQ, diag112, moving, declared_components=((moving, moving),)),
                       (pt("[0:1:0]"),), 10, 6, None),
        "cycle-unsplit": (IdealizerScene(RQ, SIGMA, ideal("x0*x1 - x2^2 + x1*x2")),
                          (pt("[1:0:0]"),), 6, 6, None),
        "degenerate-2": (IdealizerScene(RQ, ProjAutomorphism.diagonal(RQ, ["1", "-1", "1"]),
                                        ideal("x0 - x2", "x1 - x2")), (), 6, 6, None),
        "probe-smooth": (IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - x2")), (), 6, 6,
                         ideal(CUBIC)),
        "probe-no-point": (IdealizerScene(RQ, SIGMA, ideal("x0")), (), 6, 6, ideal(CUBIC)),
        "probe-rejected": (IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - 2*x2")), (), 6, 6,
                           ideal(CUBIC)),
    }


def hypotheses_of(name):
    if name in SCENE_FILES:
        sf = parse_scene(SCENE_FILES[name].read_text())
        return _hypotheses(sf.scene(), sf.points, sf.horizon, sf.order_bound, sf.quotient)
    return _hypotheses(*made_scenes()[name])


def strengths(h):
    """Every assignment of a strength to the fields the record holds:
    certified (no horizon) or heuristic at horizon 4 or 9; absent fields
    stay absent.  The producer certifies only a degenerate or stable
    stabilization, the transversality certificate and the component
    analysis, and a refutation resting on the other fields has no witness
    to show yet, so those fields vary over horizons only."""
    present = [f for f in FIELDS if getattr(h, f) is not None]
    certifiable = {"ct", "components"}
    if h.stabilization != "unstable":
        certifiable.add("stabilization")
    choices = [(None, 4, 9) if f in certifiable else (4, 9) for f in present]
    for picked in itertools.product(*choices):
        yield h._replace(horizons=tuple((f, s) for f, s in zip(present, picked) if s is not None))


def weakest_link(h, verdict, reads):
    """(evidence kind, horizon) of a ruling that reads the given fields."""
    if reads is None:
        return "not-applicable", None
    links = [h.strength(f) for f in reads if h.strength(f) is not None]
    if links:
        return "heuristic", min(links)
    return ("refuted" if verdict == "no" else "certified"), None


@pytest.mark.parametrize("name,predicate,horizons,expected", [
    # strong left reads the stabilization and the components
    ("moving_point", "strongly-left-noetherian", {}, ("refuted", None)),
    ("moving_point", "strongly-left-noetherian", {"stabilization": 9}, ("heuristic", 9)),
    ("moving_point", "strongly-left-noetherian", {"stabilization": 9, "components": 4},
     ("heuristic", 4)),
    ("moving_point", "strongly-left-noetherian", {"orbits": 4}, ("refuted", None)),
    # left reads the stabilization and the certificate
    ("moving_point", "left-noetherian", {"ct": 4}, ("heuristic", 4)),
    ("tc3", "left-noetherian", {"stabilization": 8}, ("heuristic", 8)),
    ("tc3", "left-noetherian", {}, ("refuted", None)),
    ("p1_shear", "left-noetherian", {"stabilization": 10}, ("not-applicable", None)),
    # the sampled orbits bound the right rows below any stabilization
    ("moving_point", "right-noetherian", {"orbits": 12}, ("heuristic", 12)),
    ("moving_point", "strongly-right-noetherian", {"orbits": 12, "stabilization": 4},
     ("heuristic", 4)),
    ("moving_point", "fails-left-chi-1", {"orbits": 12}, ("certified", None)),
    ("moving_point", "right-chi-levels", {"ct": 4, "stabilization": 9}, ("heuristic", 4)),
    # the degenerate rows read the stabilization alone
    ("identity_line", "strongly-right-noetherian", {}, ("certified", None)),
    ("identity_line", "left-noetherian", {"stabilization": 9, "components": 4},
     ("heuristic", 9)),
    # the two refutations that do not read the stabilization
    ("cycle-to-z", "right-noetherian", {"stabilization": 9, "orbits": 9}, ("refuted", None)),
    ("cycle-to-z", "right-noetherian", {"components": 4}, ("heuristic", 4)),
    ("cycle-to-w", "strongly-right-noetherian", {"stabilization": 8, "orbits": 8},
     ("refuted", None)),
    ("fat_point", "right-noetherian", {"stabilization": 8}, ("refuted", None)),
    ("fat_point", "right-noetherian", {"components": 4}, ("heuristic", 4)),
    ("fat_point", "left-noetherian", {"stabilization": 8, "components": 4}, ("heuristic", 8)),
    # a cycle without a component split stays below the sample's horizon
    ("cycle-unsplit", "right-noetherian", {"orbits": 6}, ("heuristic", 6)),
    # the probe is known to the homological degree it reached
    ("cusp_probe", "finite-cohomological-dimension", {"probe": PROBE_J_MAX},
     ("heuristic", PROBE_J_MAX)),
    ("probe-smooth", "finite-cohomological-dimension", {"probe": 4}, ("heuristic", 4)),
    ("probe-rejected", "finite-cohomological-dimension", {"probe": 4},
     ("not-applicable", None)),
])
def test_weakest_link_table(name, predicate, horizons, expected):
    """A row is certified or refuted only when every field its rule reads is
    certified, and heuristic at the least horizon among them otherwise; a
    field the rule does not read moves nothing."""
    h = hypotheses_of(name)._replace(horizons=tuple(horizons.items()))
    row = _row(predicate, _RULES[predicate](h), h)
    assert (row.evidence.kind, row.evidence.horizon) == expected


STAB, SO, SC = ("stabilization",), ("stabilization", "orbits"), ("stabilization", "ct")

# the fields each rule reads, over the records below (None: not applicable)
READS = {
    "right-noetherian": {None, STAB, SO, ("orbits",), ("components",),
                         ("components", "orbits")},
    "left-noetherian": {None, STAB, SC},
    "strongly-left-noetherian": {None, STAB, SC, ("stabilization", "components"),
                                 ("stabilization", "components", "ct")},
    "fails-left-chi-1": {None, STAB},
    "right-chi-levels": {None, SC},
    "finite-cohomological-dimension": {None, STAB, ("probe",)},
    "tensor-square-not-left-noetherian": {None, ("stabilization", "components")},
}
READS["strongly-right-noetherian"] = READS["right-noetherian"]


def test_every_rule_follows_the_weakest_link_over_the_fields_it_reads():
    """Over the records of the 11 shipped and curve scenes and of every
    regime above, with each field certified, heuristic at horizon 4 or 9,
    or absent: each rule reads only fields the record holds and only the
    fields READS lists for it, its ruling does not depend on the strengths,
    and its row's evidence is the weakest link over the fields it reads.  The strongly-right row takes the right row's
    verdict and evidence."""
    kinds, reads = set(), {p: set() for p in PREDICATES}
    for name in [*SCENE_FILES, *made_scenes()]:
        base = hypotheses_of(name)
        rulings = {p: rule(base) for p, rule in _RULES.items()}
        for p, ruling in rulings.items():
            reads[p].add(ruling.reads)
        for h in strengths(base):
            rows = {}
            for p, rule in _RULES.items():
                ruling = rule(h)
                assert ruling == rulings[p]
                assert all(getattr(h, f) is not None for f in ruling.reads or ())
                rows[p] = _row(p, ruling, h)
                ev = rows[p].evidence
                assert (ev.kind, ev.horizon) == weakest_link(h, ruling.verdict, ruling.reads)
                kinds.add((p, ev.kind))
            right, strong = rows["right-noetherian"], rows["strongly-right-noetherian"]
            assert (right.verdict, right.evidence.kind, right.evidence.horizon,
                    right.evidence.witness) == (strong.verdict, strong.evidence.kind,
                                                strong.evidence.horizon, strong.evidence.witness)
    assert reads == READS
    assert {k for _, k in kinds} == set(EVIDENCE_KINDS)
    assert {p for p, k in kinds if k == "refuted"} == set(PREDICATES[:4])


SCENE_RECORDS = {
    # scene: (stabilization, its horizon, ct status, component source,
    #         a sampled orbit infinite, probe horizon)
    "conic_pair": ("stable", 12, "refuted", None, False, None),
    "cusp_probe": (None, None, None, None, None, PROBE_J_MAX),
    "fat_point": ("unstable", 8, None, "declared", None, None),
    "identity_line": ("degenerate", None, None, "monomial", None, None),
    "moving_point": ("stable", None, "certified", "point", False, None),
    "p1_shear": ("stable", 10, "inconclusive", "monomial", False, None),
    "ci3": ("stable", 8, "certified", None, False, None),
    "rnc4": ("stable", 8, "inconclusive", None, False, None),
    "rnc5": ("stable", 8, "inconclusive", None, False, None),
    "rnc6": ("stable", 8, "inconclusive", None, False, None),
    "tc3": ("stable", 8, "refuted", None, False, None),
}


@pytest.mark.parametrize("name", sorted(SCENE_RECORDS))
def test_scene_hypotheses_are_pinned(name):
    """The record of each shipped and curve scene: only moving_point's
    stabilization is certified (a single point whose support never
    returns), identity_line degenerates, fat_point never stabilizes, and
    cusp_probe runs the probe alone."""
    assert set(SCENE_FILES) == set(SCENE_RECORDS)
    h = hypotheses_of(name)
    got = (h.stabilization, h.strength("stabilization"), h.ct and h.ct.status,
           h.components and h.components.source,
           None if h.orbits is None else h.cycle is not None,
           h.strength("probe"))
    assert got == SCENE_RECORDS[name]
