"""Idealizer construction tests: colon pieces, oracles, stabilization.

The fat-point family is the worked infinite-order case: I = (x0+x1, x0^2)
under diag(1, 2, 3) has colon ideal exactly the point ideal (x0, x1) in every
positive degree, so dim R_n = C(n+2, 2) - 1 and the colon never returns to I.
The shear-on-a-line family stabilizes immediately and gives dim R_n = n.
"""

from pathlib import Path

import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomideal import cli, linalg, twist
from geomideal.fields import QQ, PrimeField
from geomideal.idealizer import (
    IdealizerScene,
    SceneVerificationError,
    exhaustive_oracle_piece,
    idealizer_hilbert,
    idealizer_piece,
    membership_oracle,
    oracle_agrees,
    pieces_agree,
    stabilization_degree,
)
from geomideal.polykernel import (
    HomIdeal,
    PolyRing,
    degree_piece_basis,
    dim_ideal_piece,
    ideal_equal,
    intersect,
    monomials_of_degree,
    unit_ideal,
)
from geomideal.twist import DegreePiece, ProjAutomorphism, TwistedElement, twist_multiply

RQ = PolyRing(QQ, 3)
SIGMA = ProjAutomorphism.diagonal(RQ, ["1", "2", "3"])


def fat_point_scene():
    return IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x0+x1", "x0^2"]))


def moving_point_scene():
    return IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x0-x2", "x1-x2"]))


# ---------------------------------------------------------------------------
# frozen dimension tables
# ---------------------------------------------------------------------------

def test_fat_point_hilbert_table():
    rows = idealizer_hilbert(fat_point_scene(), 6)
    assert [r.dim_R for r in rows] == [1, 2, 5, 9, 14, 20, 27]
    assert [r.dim_B for r in rows] == [1, 3, 6, 10, 15, 21, 28]
    assert [r.dim_I for r in rows] == [0, 1, 4, 8, 13, 19, 26]
    assert not any(r.colon_stabilized for r in rows[1:])


def test_fat_point_colon_is_the_point_ideal():
    sc = fat_point_scene()
    point = HomIdeal.from_strings(RQ, ["x0", "x1"])
    for n in range(1, 6):
        assert ideal_equal(sc.colon_ideal(n), point)


def test_fat_point_never_stabilizes():
    rep = stabilization_degree(fat_point_scene(), 5)
    assert rep.table == ("larger",) * 5
    assert rep.n0 is None
    assert not rep.stabilized
    assert not rep.degenerate


def test_shear_line_scene():
    R1 = PolyRing(QQ, 2)
    tau = ProjAutomorphism.from_strings(R1, [["1", "1"], ["0", "1"]])
    sc = IdealizerScene(R1, tau, HomIdeal.from_strings(R1, ["x0"]))
    assert [r.dim_R for r in idealizer_hilbert(sc, 4)] == [1, 1, 2, 3, 4]
    rep = stabilization_degree(sc, 4)
    assert rep.n0 == 1 and rep.table == ("equal",) * 4


def test_moving_point_stabilizes_immediately():
    rep = stabilization_degree(moving_point_scene(), 4)
    assert rep.n0 == 1
    assert [r.dim_R for r in idealizer_hilbert(moving_point_scene(), 3)] == [1, 2, 5, 9]


def test_invariant_point_is_degenerate():
    sc = IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x1", "x2"]))
    rep = stabilization_degree(sc, 3)
    assert rep.degenerate
    assert rep.table == ("unit",) * 3
    # colon = (1) means R_n fills all of B_n
    assert [r.dim_R for r in idealizer_hilbert(sc, 3)] == [1, 3, 6, 10]


def test_finite_multiplicative_order_in_positive_characteristic():
    # 2 has order 3 mod 7, so sigma^3 fixes the fat point ideal over F_7
    R7 = PolyRing(PrimeField(7), 3)
    sig = ProjAutomorphism.diagonal(R7, ["1", "2", "3"])
    sc = IdealizerScene(R7, sig, HomIdeal.from_strings(R7, ["x0+x1", "x0^2"]))
    rep = stabilization_degree(sc, 3)
    assert rep.table == ("larger", "larger", "unit")
    assert rep.degenerate


# ---------------------------------------------------------------------------
# pieces and oracles
# ---------------------------------------------------------------------------

def test_degree_zero_piece_is_scalars():
    piece = idealizer_piece(fat_point_scene(), 0)
    assert piece.dimension == 1
    assert piece.basis[0] == RQ.one()


def test_negative_degree_piece_is_empty():
    assert idealizer_piece(fat_point_scene(), -1).dimension == 0


def test_oracle_at_a_negative_degree_is_the_zero_piece():
    """B_n = 0 for n < 0, so the oracle's piece is zero there, as the colon
    route's is, and oracle_agrees answers True for every n <= 0."""
    sc = moving_point_scene()
    for n in (-1, -2, 0):
        for M in (0, 1, 6):
            piece = exhaustive_oracle_piece(sc, n, M)
            assert piece.n == n and piece.dimension == (n == 0)
            assert pieces_agree(idealizer_piece(sc, n), piece)
            assert oracle_agrees(sc, n, M)


def test_exhaustive_oracle_matches_colon_piece():
    sc = fat_point_scene()
    M = sc.ideal.max_gen_degree()
    for n in range(1, 4):
        assert pieces_agree(idealizer_piece(sc, n), exhaustive_oracle_piece(sc, n, M))


def test_exhaustive_oracle_on_moving_point():
    sc = moving_point_scene()
    for n in range(1, 4):
        assert pieces_agree(idealizer_piece(sc, n), exhaustive_oracle_piece(sc, n, 1))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_exhaustive_oracle_matches_colon_on_moving_point_over_each_field(field):
    ring = PolyRing(field, 3)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "2", "3"])
    sc = IdealizerScene(ring, sigma, HomIdeal.from_strings(ring, ["x0-x2", "x1-x2"]))
    for n in range(1, 5):
        assert pieces_agree(idealizer_piece(sc, n), exhaustive_oracle_piece(sc, n, 2))


def test_membership_oracle_accepts_and_rejects():
    sc = fat_point_scene()
    assert membership_oracle(TwistedElement(1, RQ.parse("x0")), sc, 4)
    assert membership_oracle(TwistedElement(1, RQ.parse("x1")), sc, 4)
    assert not membership_oracle(TwistedElement(1, RQ.parse("x2")), sc, 4)
    # [0:0:1] has period two under the swap of x1 and x2, so I^{sigma^n} is
    # I for even n only: x2 fails in degree 1, and x2^2 passes in degree 2
    swap = ProjAutomorphism.from_strings(RQ, [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    sc = IdealizerScene(RQ, swap, HomIdeal.from_strings(RQ, ["x0", "x1"]))
    assert not membership_oracle(TwistedElement(1, RQ.parse("x2")), sc, 1)
    assert membership_oracle(TwistedElement(2, RQ.parse("x2^2")), sc, 1)


def test_membership_oracle_is_one_sided_below_horizon():
    # with horizon 0 no generator is tested, so everything passes
    sc = fat_point_scene()
    assert membership_oracle(TwistedElement(1, RQ.parse("x2")), sc, 0)


def test_degree_zero_and_zero_element_trivially_members():
    sc = fat_point_scene()
    assert membership_oracle(TwistedElement(0, RQ.parse("7")), sc, 3)
    assert membership_oracle(TwistedElement(2, RQ.zero()), sc, 3)


def test_pieces_agree_detects_difference():
    sc = fat_point_scene()
    a = idealizer_piece(sc, 1)
    assert not pieces_agree(a, DegreePiece(1, (RQ.parse("x2"),)))
    assert not pieces_agree(a, DegreePiece(2, a.basis))


# ---------------------------------------------------------------------------
# the generator-wise oracle against the piece-by-piece reference
# ---------------------------------------------------------------------------

def _passing(sc, n, forms):
    """Row-reduced basis of {x in B_n : x . (b o sigma^n) in I for b in forms},
    one condition per (form, monomial of a residue)."""
    return DegreePiece(n, tuple(oracles.rref_oracle_piece(sc, n, forms)))


def _piecewise_oracle_piece(sc, n, M):
    """The oracle piece from every basis form of I_0..I_M: the loop the
    generator-wise oracle replaced, kept as its reference."""
    return _passing(sc, n, [b for m in range(M + 1) for b in degree_piece_basis(sc.ideal, m)])


FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


@st.composite
def oracle_scenes(draw):
    """A point or a fat point (the square of a point ideal) in P^2, or a
    twisted cubic in P^3, under a random invertible sigma = P·D·U (P a
    permutation, D diagonal, U upper unitriangular)."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["point", "fat point", "curve"]))
    ring = PolyRing(field, 4 if kind == "curve" else 3)
    k = ring.nvars
    diag = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    shear = draw(st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k))
    perm = draw(st.permutations(range(k)))
    upper = [[diag[i] * (1 if i == j else shear[i * k + j] if j > i else 0)
              for j in range(k)] for i in range(k)]
    sigma = ProjAutomorphism(ring, [[field.from_int(c) for c in upper[perm[i]]]
                                    for i in range(k)])
    if kind == "curve":
        ideal = HomIdeal.from_strings(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    else:
        a, b = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
        x0, x1, x2 = (ring.variable(i) for i in range(3))
        lines = [x0 - x2.scale(field.from_int(a)), x1 - x2.scale(field.from_int(b))]
        gens = lines if kind == "point" else [f * g for i, f in enumerate(lines) for g in lines[i:]]
        ideal = HomIdeal(ring, gens)
    return IdealizerScene(ring, sigma, ideal)


@given(st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exhaustive_oracle_matches_the_piecewise_reference(data):
    """Generators of degree <= M impose the same conditions as every form of
    I_0..I_M, below, at and above the maximal generator degree."""
    sc = data.draw(oracle_scenes())
    for n in range(1, 4):
        for M in range(sc.ideal.max_gen_degree() + 2):
            want = _piecewise_oracle_piece(sc, n, M)
            got = exhaustive_oracle_piece(sc, n, M)
            assert [p.terms for p in got.basis] == [p.terms for p in want.basis]


@st.composite
def moving_scenes(draw):
    """oracle_scenes, or a line or a conic in P^2 under its sigma."""
    sc = draw(oracle_scenes())
    ring = sc.ring
    kind = draw(st.sampled_from(["as drawn", "line", "conic"]))
    if ring.nvars == 4 or kind == "as drawn":
        return sc
    F = ring.field
    x0, x1, x2 = (ring.variable(i) for i in range(3))
    a, b = (F.from_int(c) for c in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
    form = (x0 + x1.scale(a) + x2.scale(b) if kind == "line"
            else x0 * x2 - x1 * x1 + (x0 * x1).scale(a) + (x1 * x2).scale(b))
    return IdealizerScene(ring, sc.sigma, HomIdeal(ring, (form,)))


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exhaustive_oracle_is_the_rref_of_its_kernel(data):
    """The kernel read off the column-reversed echelon is the reduced
    echelon form that a separate rref of the kernel gives."""
    sc = data.draw(moving_scenes())
    n, M = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    want = oracles.rref_oracle_piece(sc, n, [g for g in sc.ideal.gens if g.degree <= M])
    got = exhaustive_oracle_piece(sc, n, M)
    assert [p.terms for p in got.basis] == [p.terms for p in want]


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_membership_oracle_is_membership_in_the_exhaustive_piece(data):
    """x is drawn from the forms passing a random subset of the tested
    generators, plus at times a monomial, so that it fails some generators
    and passes others."""
    sc = data.draw(oracle_scenes())
    ring, char = sc.ring, sc.ring.field.char
    n = data.draw(st.integers(1, 3))
    M = data.draw(st.integers(0, sc.ideal.max_gen_degree() + 1))
    tested = [g for g in sc.ideal.gens if g.degree <= M]
    subset = [g for g in tested if data.draw(st.booleans())]
    x = ring.zero()
    for b in _passing(sc, n, subset).basis:
        x = x + b.scale(ring.field.from_int(data.draw(st.integers(-3, 3))))
    if data.draw(st.booleans()):
        x = x + ring.monomial(data.draw(st.sampled_from(monomials_of_degree(ring, n))))
    piece = exhaustive_oracle_piece(sc, n, M)
    rows = [oracles.poly_to_vec(b.terms, ring.nvars, n) for b in piece.basis]
    want = oracles.in_span(rows, oracles.poly_to_vec(x.terms, ring.nvars, n), char)
    assert membership_oracle(TwistedElement(n, x), sc, M) == want


# ---------------------------------------------------------------------------
# ring axioms of the graded pieces
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pieces_multiply_into_pieces(data):
    """R_n * R_m lands in R_(n+m) under the twisted product."""
    sc = data.draw(st.sampled_from([fat_point_scene(), moving_point_scene()]))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    pn, pm = idealizer_piece(sc, n), idealizer_piece(sc, m)
    x = data.draw(st.sampled_from(pn.basis))
    y = data.draw(st.sampled_from(pm.basis))
    z = twist_multiply(TwistedElement(n, x), TwistedElement(m, y), sc.sigma)
    assert z.is_zero() or sc.colon_ideal(n + m).contains(z.poly)


def test_ideal_pieces_lie_in_idealizer_pieces():
    for sc in (fat_point_scene(), moving_point_scene()):
        for n in range(1, 5):
            Q = sc.colon_ideal(n)
            for b in degree_piece_basis(sc.ideal, n):
                assert Q.contains(b)


def test_veronese_colon_compatibility():
    # (sigma^v)-scene colon at n equals the original colon at v*n
    sc = fat_point_scene()
    sv = IdealizerScene(RQ, ProjAutomorphism(RQ, oracles.dense_power(QQ, SIGMA.matrix, 2)),
                        sc.ideal)
    for n in (1, 2):
        assert ideal_equal(sv.colon_ideal(n), sc.colon_ideal(2 * n))


# ---------------------------------------------------------------------------
# scene validation
# ---------------------------------------------------------------------------

def test_scene_saturates_its_ideal():
    # (x0*x2, x0*x1, x0^2) saturates to (x0)
    sc = IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x0*x2", "x0*x1", "x0^2"]))
    assert ideal_equal(sc.ideal, HomIdeal.from_strings(RQ, ["x0"]))


def test_scene_rejects_zero_ideal():
    with pytest.raises(SceneVerificationError):
        IdealizerScene(RQ, SIGMA, HomIdeal(RQ, ()))


def test_scene_rejects_empty_subscheme():
    with pytest.raises(SceneVerificationError, match="empty"):
        IdealizerScene(RQ, SIGMA, HomIdeal.from_strings(RQ, ["x0", "x1", "x2"]))


def test_declared_components_verified():
    p1 = HomIdeal.from_strings(RQ, ["x1", "x2"])
    p2 = HomIdeal.from_strings(RQ, ["x0", "x2"])
    two_points = intersect(p1, p2)
    sc = IdealizerScene(
        RQ, SIGMA, two_points, declared_components=((p1, p1), (p2, None))
    )
    assert ideal_equal(sc.ideal, two_points)


def test_declared_components_must_intersect_to_ideal():
    p1 = HomIdeal.from_strings(RQ, ["x1", "x2"])
    p2 = HomIdeal.from_strings(RQ, ["x0", "x2"])
    with pytest.raises(SceneVerificationError, match="diverge at degree"):
        IdealizerScene(
            RQ, SIGMA, intersect(p1, p2), declared_components=((p1, None),)
        )


def test_declared_prime_must_contain_component():
    p1 = HomIdeal.from_strings(RQ, ["x1", "x2"])
    wrong_prime = HomIdeal.from_strings(RQ, ["x0"])
    with pytest.raises(SceneVerificationError, match="prime"):
        IdealizerScene(RQ, SIGMA, p1, declared_components=((p1, wrong_prime),))


SIGMA_ROWS = {
    "diagonal": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
    "shear": [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]],
    "dense": [["2", "1", "1"], ["1", "3", "1"], ["1", "1", "5"]],  # det 22, a unit mod 7
}
PULLED_IDEALS = [["x0+x1", "x0^2"], ["x0*x2 - x1^2 + x0*x1"], ["x0-2*x2", "x1+x2"]]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("kind", sorted(SIGMA_ROWS))
def test_stepped_pullback_is_the_direct_pullback(field, kind):
    """pulled_ideal steps I^{sigma^n} from the largest cached degree below n;
    in any order of requests it has the generators of the dense pullback
    by M^n (oracles.dense_pullback), in the order of I's generators."""
    ring = PolyRing(field, 3)
    for texts in PULLED_IDEALS:
        sc = IdealizerScene(ring, ProjAutomorphism.from_strings(ring, SIGMA_ROWS[kind]),
                            HomIdeal.from_strings(ring, texts))
        M = sc.sigma.matrix
        for n in (3, 1, 8, 5, 2, 7, 4, 6, 0):
            want = tuple(oracles.dense_pullback(g, M, n) for g in sc.ideal.gens)
            assert sc.pulled_ideal(n).gens == want


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("kind", sorted(SIGMA_ROWS))
def test_stabilization_takes_no_power_of_sigma(field, kind, monkeypatch):
    """stabilization_degree to 8 walks every colon by single steps of
    sigma: each generator is pulled back once per degree, by sigma itself.
    sigma holds its matrix and one pullback table, and no other state."""
    steps = []
    pullback = ProjAutomorphism.pullback

    def counted(self, f, n=1):
        steps.append(n)
        return pullback(self, f, n)

    monkeypatch.setattr(ProjAutomorphism, "pullback", counted)
    ring = PolyRing(field, 3)
    for texts in PULLED_IDEALS:
        sigma = ProjAutomorphism.from_strings(ring, SIGMA_ROWS[kind])
        sc = IdealizerScene(ring, sigma, HomIdeal.from_strings(ring, texts))
        steps.clear()
        stabilization_degree(sc, 8)
        assert steps == [1] * (8 * len(sc.ideal.gens))
        assert not hasattr(sigma, "__dict__")


def test_idealizer_command_reduces_each_monomial_in_one_table(monkeypatch):
    """`idealizer` on moving_point: every colon equals I, so the colon
    pieces and the exhaustive oracle read I's one table of monomial normal
    forms, and each generator is pulled back once per degree."""
    counts = {"tables": 0, "pullbacks": 0}
    init, pullback = linalg.NormalForms.__init__, twist.ProjAutomorphism.pullback

    def counting_init(self, *args):
        counts["tables"] += 1
        init(self, *args)

    def counting_pullback(self, *args):
        counts["pullbacks"] += 1
        return pullback(self, *args)

    monkeypatch.setattr(linalg.NormalForms, "__init__", counting_init)
    monkeypatch.setattr(twist.ProjAutomorphism, "pullback", counting_pullback)
    path = Path(__file__).resolve().parents[1] / "scenes" / "moving_point.scene"
    sf = cli.parse_scene(path.read_text())
    rows = [r for r in cli.run_idealizer(sf) if r["record"] == "idealizer-row"]
    assert [r.get("oracle") for r in rows] == [None] + ["agree"] * sf.maxdeg
    assert counts == {"tables": 1, "pullbacks": len(sf.ideal.gens) * sf.maxdeg}


def test_equal_colons_share_one_table(monkeypatch):
    """`idealizer --oracle-horizon 3` on fat_point: every colon is (x0, x1),
    not I, so the five colon pieces share one table and the oracle reads
    I's; the check of the declared components reads the prime (x0, x1)
    through its own table (`HomIdeal.contains`): three tables in all."""
    tables = []
    init = linalg.NormalForms.__init__

    def counting_init(self, *args):
        tables.append(self)
        init(self, *args)

    monkeypatch.setattr(linalg.NormalForms, "__init__", counting_init)
    path = Path(__file__).resolve().parents[1] / "scenes" / "fat_point.scene"
    sf = cli.parse_scene(path.read_text())._replace(oracle=3)
    rows = [r for r in cli.run_idealizer(sf) if r["record"] == "idealizer-row"]
    assert [r.get("oracle") for r in rows] == [None] + ["agree"] * sf.maxdeg
    assert len(tables) == 3


def _scene_file(name):
    return cli.parse_scene((Path(__file__).resolve().parents[1] / "scenes" / name).read_text())


def test_oracle_fills_one_entry_of_the_next_degree(monkeypatch):
    """On moving_point at n = 5 the oracle's conditions reduce to one
    multiple of x2, so its one stage-1 column is the one standard monomial
    x2^5 of degree 5, and it reads the one entry x2^6 of degree 6, not all
    28 monomials of that degree."""
    scene = _scene_file("moving_point.scene").scene()
    idealizer_piece(scene, 5)
    table = scene.ideal.normal_forms()
    columns = []
    init = linalg.Echelon.__init__

    def counting_init(self, field, ncols):
        columns.append(ncols)
        init(self, field, ncols)

    monkeypatch.setattr(linalg.Echelon, "__init__", counting_init)
    before = {m for m in table._table if sum(m) == 6}
    piece = exhaustive_oracle_piece(scene, 5, 6)
    assert pieces_agree(piece, idealizer_piece(scene, 5))
    assert len({m for m in table._table if sum(m) == 6} - before) == 1
    assert columns == [1]


# the colon op on a moving point of P^6, as the colon-highdim workload of
# bench/workloads.py draws it at seed 1
P6_POINT = """field rational
dim 6
sigma
1 0 0 0 0 0 0
0 7 0 0 0 0 0
0 0 19 0 0 0 0
0 0 0 23 0 0 0
0 0 0 0 13 0 0
0 0 0 0 0 5 0
0 0 0 0 0 0 11
ideal
2*x0 - 1*x6
2*x1 - 4*x6
2*x2 - 4*x6
2*x3 - 4*x6
2*x4 - 2*x6
2*x5 - 5*x6
end
horizon 2
"""


def test_colon_domain_exit_reads_two_entries(monkeypatch):
    """The point's ideal is linear, so S/I is a domain and each colon asks
    `contains` of one pulled-back generator x_i - c*x6: its two entries
    are all that I's one table fills, not the 7 monomials of degree 1."""
    tables = []
    init = linalg.NormalForms.__init__

    def counting_init(self, *args):
        tables.append(self)
        init(self, *args)

    monkeypatch.setattr(linalg.NormalForms, "__init__", counting_init)
    recs = cli.run_colon(cli.parse_scene(P6_POINT))
    assert [r["status"] for r in recs if r["record"] == "colon"] == ["equal", "equal"]
    assert len(tables) == 1 and len(tables[0]._table) == 2


def test_oracle_rejects_a_colon_that_answers_i(monkeypatch):
    """fat_point's colon (x0, x1) is larger than I in every degree, so with
    the colon route forced to answer I the oracle at horizon 2 (the largest
    generator degree, where it is exact) must disagree: it finds
    dim I_n + 1 forms.  An oracle that echoed I's piece, or the colon's,
    would agree."""
    sf = _scene_file("fat_point.scene")
    scene = sf.scene()
    monkeypatch.setattr(IdealizerScene, "colon_ideal", lambda self, n: self.ideal)
    for n in range(1, sf.maxdeg + 1):
        colon, oracle = idealizer_piece(scene, n), exhaustive_oracle_piece(scene, n, 2)
        assert oracle.dimension == colon.dimension + 1
        assert not pieces_agree(colon, oracle)
        assert not oracle_agrees(scene, n, 2)


def _forced_colon(monkeypatch, scene, colon):
    monkeypatch.setattr(IdealizerScene, "colon_ideal", lambda self, n: colon)
    return colon


def test_oracle_rejects_a_colon_of_the_right_dimension_that_misses_k(monkeypatch):
    """fat_point in degree 1: K is spanned by x1 modulo I, and the colon
    forced to I + (x2), which contains I and has the dimension of the true
    colon (x0, x1) in degree 1, does not contain x1.  The dimensions agree,
    so only the membership test of K in the colon rejects it."""
    scene = _scene_file("fat_point.scene").scene()
    colon = _forced_colon(monkeypatch, scene,
                          HomIdeal(RQ, [*scene.ideal.gens, RQ.parse("x2")]))
    oracle = exhaustive_oracle_piece(scene, 1, 2)
    assert dim_ideal_piece(colon, 1) == oracle.dimension == 2
    assert not pieces_agree(idealizer_piece(scene, 1), oracle)
    assert not oracle_agrees(scene, 1, 2)


def test_oracle_rejects_a_colon_larger_than_its_piece(monkeypatch):
    """With the colon forced to the unit ideal, K lies in it, but the
    colon piece is all of B_n and the oracle's is not: only the dimension
    test rejects it."""
    scene = _scene_file("fat_point.scene").scene()
    _forced_colon(monkeypatch, scene, unit_ideal(RQ))
    for n in range(1, 4):
        assert not pieces_agree(idealizer_piece(scene, n), exhaustive_oracle_piece(scene, n, 2))
        assert not oracle_agrees(scene, n, 2)


def _point_lines(ring, point):
    """The linear forms p_k*x_i - p_i*x_k, i != k, k the last nonzero
    coordinate of the point p: its ideal."""
    k = max(i for i, c in enumerate(point) if c)
    F = ring.field
    return [ring.variable(i).scale(F.from_int(point[k])) - ring.variable(k).scale(F.from_int(c))
            for i, c in enumerate(point) if i != k]


@st.composite
def agreement_cases(draw):
    """(scene, forced colon or None): a scene of P^2 over Q or GF(7) under
    a diagonal or a non-diagonal sigma, its Z a point, a double point
    (l1, l2^2), a fat point (l1, l2)^2, a line with an embedded point
    (l1^2, l1*l2) or two points.  The point is often a coordinate point,
    which a diagonal sigma fixes, so that a non-reduced Z has a colon
    larger than I.  At times the colon is forced to another ideal that
    contains I: I itself, the unit ideal, or I plus a random form."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    ring = PolyRing(field, 3)
    diag = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    if draw(st.booleans()):
        rows = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
    else:
        shear = draw(st.lists(st.integers(-2, 2), min_size=9, max_size=9))
        perm = draw(st.permutations(range(3)))
        upper = [[diag[i] * (1 if i == j else shear[3 * i + j] if j > i else 0)
                  for j in range(3)] for i in range(3)]
        rows = [upper[perm[i]] for i in range(3)]
    sigma = ProjAutomorphism(ring, [[field.from_int(c) for c in row] for row in rows])

    def point():
        if draw(st.booleans()):
            return draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        return (*draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)),
                draw(st.integers(1, 2)))

    l1, l2 = _point_lines(ring, point())
    kind = draw(st.sampled_from(["point", "double point", "fat point", "embedded point",
                                 "two points"]))
    gens = {"point": [l1, l2], "double point": [l1, l2 * l2],
            "fat point": [l1 * l1, l1 * l2, l2 * l2], "embedded point": [l1 * l1, l1 * l2]}
    if kind == "two points":
        ideal = intersect(HomIdeal(ring, [l1, l2]), HomIdeal(ring, _point_lines(ring, point())))
    else:
        ideal = HomIdeal(ring, gens[kind])
    scene = IdealizerScene(ring, sigma, ideal)
    forced = draw(st.sampled_from(["none", "none", "I", "unit", "I + form"]))
    if forced == "none":
        return scene, None
    if forced == "I":
        return scene, scene.ideal
    if forced == "unit":
        return scene, unit_ideal(ring)
    monos = monomials_of_degree(ring, draw(st.integers(1, 2)))
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
    form = sum((ring.monomial(m).scale(field.from_int(draw(st.integers(1, 3)))) for m in picked),
               ring.zero())
    return scene, HomIdeal(ring, [*scene.ideal.gens, form])


@given(agreement_cases())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_agrees_is_the_comparison_of_the_two_pieces(case):
    """oracle_agrees decides in (S/I)_n what pieces_agree decides on the
    two pieces, for n = 1..4 and every horizon M from 1 to one past the
    largest generator degree, below which the oracle is one-sided; also
    for a colon forced to another ideal containing I, which the oracle
    must reject unless the two pieces agree."""
    scene, forced = case
    if forced is not None:
        scene._colon_cache.update(dict.fromkeys(range(1, 5), forced))
    for n in range(1, 5):
        for M in range(1, scene.ideal.max_gen_degree() + 2):
            got = oracle_agrees(scene, n, M)
            want = pieces_agree(idealizer_piece(scene, n), exhaustive_oracle_piece(scene, n, M))
            assert got == want, (n, M)


def test_idealizer_command_builds_no_whole_degree(monkeypatch):
    """`idealizer --oracle-horizon 6` on moving_point decides each oracle
    row in (S/I)_n: no whole degree of I's table is filled or read as a
    piece, and the table ends with 8 entries (3 of degree 1 read by the
    colons, one x2^(n+1) per oracle degree n), where comparing the two
    pieces filled every monomial of degrees 1 to 5 and more.  A point of
    P^6 at maxdeg 12 and horizon 1 ends with 19 entries, not 50388."""
    calls = []
    for name in ("piece", "monomials"):
        monkeypatch.setattr(linalg.NormalForms, name,
                            lambda self, n, name=name: calls.append(name))
    tables = []
    init = linalg.NormalForms.__init__

    def counting_init(self, *args):
        tables.append(self)
        init(self, *args)

    monkeypatch.setattr(linalg.NormalForms, "__init__", counting_init)
    for sf, size in ((_scene_file("moving_point.scene")._replace(oracle=6), 8),
                     (cli.parse_scene(P6_POINT)._replace(maxdeg=12, oracle=1), 19)):
        tables.clear()
        rows = [r for r in cli.run_idealizer(sf) if r["record"] == "idealizer-row"]
        assert [r.get("oracle") for r in rows] == [None] + ["agree"] * sf.maxdeg
        assert calls == []
        assert [len(t._table) for t in tables] == [size]
