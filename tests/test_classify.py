"""Component split and classification-table tests.

The sigma-order engine is checked against hand-derived orders on all three
certificate routes (eigenclass, unipotent, finite matrix group); the verdict
table is pinned row-for-row on the moving-point, fat-point, degenerate, and
quotient-probe scenes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geomideal.classify import (
    CITATIONS,
    EVIDENCE_KINDS,
    PREDICATES,
    ClassificationRow,
    Evidence,
    classify,
    component_analysis,
    reduced_point_of,
    sigma_ideal_order,
)
from geomideal.fields import QQ, PrimeField
from geomideal.geometry import RationalPoint
from geomideal.idealizer import IdealizerScene
from geomideal.polykernel import (
    HomIdeal,
    PolyRing,
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
    assert (r.order, r.label, r.justification) == (1, "fixed", "direct-power-match")


def test_order_monomial_ideals_always_fixed_under_diagonal():
    r = sigma_ideal_order(ideal("x0^2", "x0*x1", "x1^2"), SIGMA, 6)
    assert r.order == 1


def test_order_period_two_under_coordinate_swap():
    r = sigma_ideal_order(ideal("x0 - x1"), SWAP12, 6)
    assert (r.order, r.label) == (2, "period 2")


def test_order_certified_infinite_for_moving_point():
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), SIGMA, 5)
    assert r.order is None
    assert r.certified_infinite
    assert r.justification == "eigenclass-obstruction"
    assert r.label == "infinite"


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


def test_order_prime_field_beyond_bound_uses_group_order():
    # over F_7 the entry ratio 2 has multiplicative order 3, past the bound 2
    R7 = PolyRing(PrimeField(7), 3)
    sig7 = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    r = sigma_ideal_order(HomIdeal.from_strings(R7, list(FAT_GENS)), sig7, 2)
    assert (r.order, r.justification) == (3, "finite-matrix-group")


def test_order_bound_validation():
    with pytest.raises(ValueError):
        sigma_ideal_order(ideal("x0"), SIGMA, 0)


def test_order_triangular_sigma_exhausts_bound():
    # neither diagonal nor unipotent: no certificate route
    tri = ProjAutomorphism.from_strings(
        RQ, [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    )
    r = sigma_ideal_order(pt("[1:1:1]").ideal(RQ), tri, 3)
    assert r.order is None
    assert not r.certified_infinite
    assert r.label == "exceeds-bound"


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
    assert ca.components[0].radical_order.label == "period 2"
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


def test_orbit_chain_merely_needs_a_larger_horizon():
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
    scene = IdealizerScene(RQ, SIGMA, acc, declared_components=tuple(comps))
    rep = classify(scene, horizon=3, order_bound=4)
    assert rep.flags == ()
    assert rep.row("right-noetherian").verdict == "inconclusive"
    assert any("larger horizon" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# classification: ambient quotient probe
# ---------------------------------------------------------------------------

CUBIC = "x1^2*x2 - x0^3"


def test_quotient_probe_flags_infinite_on_the_cusp():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0", "x1"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC), probe_j_max=4)
    row = rep.row("finite-cohomological-dimension")
    assert (row.verdict, row.evidence.kind) == ("no", "heuristic")
    assert row.evidence.horizon == 4
    for r in rep.rows:
        if r.predicate != "finite-cohomological-dimension":
            assert r.evidence.kind == "not-applicable"


def test_quotient_probe_passes_smooth_point():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - x2"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC), probe_j_max=4)
    row = rep.row("finite-cohomological-dimension")
    assert row.verdict == "yes"
    assert "homological degree 2" in row.detail


def test_quotient_probe_rejects_off_curve_point():
    scene = IdealizerScene(RQ, SIGMA, ideal("x0 - x2", "x1 - 2*x2"))
    rep = classify(scene, ambient_quotient=ideal(CUBIC), probe_j_max=3)
    row = rep.row("finite-cohomological-dimension")
    assert row.evidence.kind == "not-applicable"
    assert "probe rejected" in row.detail
