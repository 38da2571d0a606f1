"""Acceptance gate: the seven headline behaviors, each with a time budget.

Every test prints exactly one PASS/FAIL line carrying the measured values
and the elapsed time; the line is written past pytest's capture so the gate
is visible in any run.  A FAIL line is followed by the usual assertion
error.
"""

import math
import random
import time
from fractions import Fraction

import oracles
import pytest
from geomideal import (
    HomIdeal,
    IdealizerScene,
    PolyRing,
    ProjAutomorphism,
    QQ,
    RationalPoint,
    TwistedElement,
    classify,
    critical_transversality_certificate,
    dim_ideal_piece,
    exhaustive_oracle_piece,
    forward_orbit_hits,
    graded_tor,
    homologically_transverse,
    ideal_equal,
    ideal_quotient,
    idealizer_piece,
    pieces_agree,
    saturate,
    serre_multiplicity_total,
    truncated_tor_over_quotient,
    twist_multiply,
)

SEED = 20260823


@pytest.fixture(autouse=True)
def _terminal(capfd):
    # the gate line must reach the terminal even under fd-level capture
    _gate.capfd = capfd
    yield


def _gate(tag, budget, ok, detail):
    elapsed = time.perf_counter() - _gate.t0
    line = f"{tag} {'PASS' if ok and elapsed < budget else 'FAIL'} " \
           f"[{elapsed:.2f}s / {budget:.0f}s] {detail}"
    with _gate.capfd.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def _start():
    _gate.t0 = time.perf_counter()


def _p2():
    ring = PolyRing(QQ, 3)
    sigma = ProjAutomorphism.diagonal(ring, ["1", "2", "3"])
    return ring, sigma


def _moving_point_scene():
    ring, sigma = _p2()
    return IdealizerScene(ring, sigma,
                          RationalPoint.parse(QQ, "[1:1:1]").ideal(ring),
                          gorenstein_z=True)


# ---------------------------------------------------------------------------

def test_ac1_twisted_relations_and_fat_point_colon():
    _start()
    ring, sigma = _p2()
    X = [TwistedElement(1, ring.variable(i)) for i in range(3)]

    def rel(i, j, scalar):
        a = twist_multiply(X[i], X[j], sigma)
        b = twist_multiply(X[j], X[i], sigma)
        return a.poly == b.poly.scale(QQ.from_str(scalar))

    relations_ok = rel(0, 1, "2") and rel(0, 2, "3") and rel(1, 2, "3/2")

    scene = IdealizerScene(ring, sigma,
                           HomIdeal.from_strings(ring, ["x0 + x1", "x0^2"]))
    M = HomIdeal.from_strings(ring, ["x0", "x1"])
    colon_ok = all(ideal_equal(scene.colon_ideal(n), M) for n in range(1, 6))
    dims = [dim_ideal_piece(scene.colon_ideal(n), n) for n in range(1, 6)]
    expected = [math.comb(n + 2, 2) - 1 for n in range(1, 6)]

    _gate("AC1", 10,
          relations_ok and colon_ok and dims == expected,
          f"relations exact={relations_ok}; colon=(x0,x1) for n=1..5: "
          f"{colon_ok}; dim R_n {dims} vs C(n+2,2)-1 {expected}")


def test_ac2_transversality_laws():
    _start()
    rng = random.Random(SEED)
    nested_hits = 0
    for _ in range(10):
        d = rng.choice((2, 3))
        ring = PolyRing(QQ, d + 1)
        free = rng.randrange(d + 1)          # a variable kept out of every ideal
        others = [i for i in range(d + 1) if i != free]
        k = rng.randrange(1, len(others))
        S = sorted(rng.sample(others, k))
        extra = rng.choice([i for i in others if i not in S])
        V = HomIdeal(ring, tuple(ring.variable(i) for i in S))
        W = HomIdeal(ring, tuple(ring.variable(i) for i in S + [extra]))
        if homologically_transverse(V, W) == (False, 1):
            nested_hits += 1

    ring, _ = _p2()
    conics = serre_multiplicity_total(
        HomIdeal.from_strings(ring, ["x0*x1 - x2^2"]),
        HomIdeal.from_strings(ring, ["x0^2 + x1^2 - 2*x2^2"]))
    conic = HomIdeal.from_strings(ring, ["x0*x2 - x1^2"])
    line = HomIdeal.from_strings(ring, ["x0"])
    tangent = serre_multiplicity_total(conic, line)
    higher_trivial = all(graded_tor(conic, line, j).is_sheaf_trivial()
                         for j in range(1, 4))

    _gate("AC2", 30,
          nested_hits == 10 and conics == 4 and tangent == 2 and higher_trivial,
          f"nested pairs with Tor_1 sheaf nonzero: {nested_hits}/10; "
          f"generic conics total={conics}; tangent line-conic total={tangent} "
          f"with Tor_1..3 sheaf-trivial={higher_trivial}")


def test_ac3_colon_matches_exhaustive_oracle():
    _start()
    ring1 = PolyRing(QQ, 2)
    tau = ProjAutomorphism.from_strings(ring1, [["1", "1"], ["0", "1"]])
    shear_scene = IdealizerScene(ring1, tau,
                                 HomIdeal.from_strings(ring1, ["x0"]))
    point_scene = _moving_point_scene()
    agree = {}
    for label, scene in (("p1-shear", shear_scene), ("p2-point", point_scene)):
        agree[label] = all(
            pieces_agree(idealizer_piece(scene, n),
                         exhaustive_oracle_piece(scene, n, 6))
            for n in range(1, 5)
        )
    _gate("AC3", 60, all(agree.values()),
          "colon piece == exhaustive membership piece for n=1..4, M=6: "
          + ", ".join(f"{k}={v}" for k, v in agree.items()))


def test_ac4_transversality_certificates():
    _start()
    ring, sigma = _p2()
    cert_yes = critical_transversality_certificate(_moving_point_scene())
    coord_scene = IdealizerScene(
        ring, sigma, RationalPoint.parse(QQ, "[1:0:0]").ideal(ring))
    cert_no = critical_transversality_certificate(coord_scene)
    witness_ok = (
        cert_no.status == "refuted"
        and cert_no.witness_ideal is not None
        and homologically_transverse(coord_scene.ideal,
                                     cert_no.witness_ideal) == (False, 1)
    )
    _gate("AC4", 30,
          cert_yes.status == "certified" and witness_ok,
          f"[1:1:1] -> {cert_yes.status} ({cert_yes.checked} unions checked); "
          f"[1:0:0] -> {cert_no.status}, nested witness family "
          f"{cert_no.witness_family} fails at j={cert_no.witness_j}")


def test_ac5_infinite_hd_probe_on_the_cusp():
    _start()
    ring, _ = _p2()
    cubic = HomIdeal.from_strings(ring, ["x1^2*x2 - x0^3"])
    cusp = HomIdeal.from_strings(ring, ["x0", "x1"])
    smooth = HomIdeal.from_strings(ring, ["x0 - x2", "x1 - x2"])
    rc = truncated_tor_over_quotient(cubic, cusp, cusp, j_max=6)
    rs = truncated_tor_over_quotient(cubic, smooth, smooth, j_max=6)
    cusp_ok = all(rc.verdicts[j] for j in range(1, 7))
    smooth_ok = all(not rs.verdicts[j] for j in range(2, 7))
    _gate("AC5", 60, cusp_ok and smooth_ok,
          f"cusp Tor_j nonzero for j=1..6: {cusp_ok} (window {rc.window}); "
          f"smooth point Tor_j=0 for j=2..6: {smooth_ok}")


# ---------------------------------------------------------------------------
# AC6: the property suites at their stated sizes, re-run standalone
# ---------------------------------------------------------------------------

def _random_homog(ring, rng, deg):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = [0] * ring.nvars
        for _ in range(deg):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.choice((1, -1, 2, -2))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    terms = {m: Fraction(c) for m, c in terms.items() if c}
    if not terms:
        return ring.variable(0) ** deg
    return sum((ring.monomial(m, c) for m, c in terms.items()), ring.zero())


def _canon(basis):
    return {frozenset(g.terms.items()) for g in basis}


def _groebner_and_membership_leg(rng, rounds):
    good = 0
    for _ in range(rounds):
        nvars = rng.choice((3, 4))
        ring = PolyRing(QQ, nvars)
        gens = [_random_homog(ring, rng, rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 4))]
        I = HomIdeal(ring, tuple(gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        if _canon(I.groebner()) != _canon(HomIdeal(ring, tuple(shuffled)).groebner()):
            continue
        D = max(g.degree for g in gens) + 1
        combo = ring.zero()
        for g in gens:
            exps = [0] * nvars
            for _ in range(D - g.degree):
                exps[rng.randrange(nvars)] += 1
            combo = combo + g * ring.monomial(exps)
        gt = [dict(g.terms) for g in gens]
        ok = True
        if not combo.is_zero():
            ok &= I.contains(combo)
            ok &= oracles.brute_membership(gt, dict(combo.terms), nvars)
        probe = ring.variable(nvars - 1) ** D
        ok &= (I.contains(probe)
               == oracles.brute_membership(gt, dict(probe.terms), nvars))
        good += ok
    return good


def _saturation_leg(rng, rounds):
    good = 0
    ring = PolyRing(QQ, 3)
    for _ in range(rounds):
        gens = [_random_homog(ring, rng, rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 3))]
        J_gens = [_random_homog(ring, rng, rng.randrange(1, 3))]
        Q = ideal_quotient(saturate(HomIdeal(ring, tuple(gens))),
                           HomIdeal(ring, tuple(J_gens)))
        good += ideal_equal(saturate(Q), Q)
    return good


TOR_PAIRS = (
    (["x0"], ["x1"]),
    (["x0"], ["x0 + x1"]),
    (["x0"], ["x1^2 - x0*x2"]),
    (["x1"], ["x0*x1 - x2^2"]),
    (["x0*x1 - x2^2"], ["x0^2 + x1^2 - 2*x2^2"]),
    (["x0*x2 - x1^2"], ["x0"]),
    (["x0", "x1"], ["x2"]),
    (["x0 - x2", "x1 - x2"], ["x0"]),
    (["x0", "x1"], ["x0 - x2"]),
    (["x0 + x1 + x2"], ["x0^3 - x1^2*x2"]),
)


def _tor_symmetry_leg():
    ring = PolyRing(QQ, 3)
    good = 0
    for a, b in TOR_PAIRS:
        I = HomIdeal.from_strings(ring, a)
        J = HomIdeal.from_strings(ring, b)
        dims_ok = all(
            graded_tor(I, J, j).dims(0, 4) == graded_tor(J, I, j).dims(0, 4)
            for j in range(4)
        )
        euler_ok = serre_multiplicity_total(I, J) == serre_multiplicity_total(J, I)
        good += dims_ok and euler_ok
    return good


def _associativity_leg(rng, rounds):
    ring = PolyRing(QQ, 3)
    sigmas = (ProjAutomorphism.diagonal(ring, ["1", "2", "3"]),
              ProjAutomorphism.from_strings(
                  ring, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    good = 0
    for i in range(rounds):
        sigma = sigmas[i % 2]
        a, b, c = (TwistedElement(deg, _random_homog(ring, rng, deg))
                   for deg in (rng.randrange(1, 3) for _ in range(3)))
        left = twist_multiply(twist_multiply(a, b, sigma), c, sigma)
        right = twist_multiply(a, twist_multiply(b, c, sigma), sigma)
        good += left.poly == right.poly
    return good


def _orbit_soundness_leg():
    ring, sigma = _p2()
    ring1 = PolyRing(QQ, 2)
    tau = ProjAutomorphism.from_strings(ring1, [["1", "1"], ["0", "1"]])
    cases = (
        (RationalPoint.parse(QQ, "[1:1:1]"), sigma,
         HomIdeal.from_strings(ring, ["x0 - x1"]), 10),
        (RationalPoint.parse(QQ, "[1:2:3]"), sigma,
         RationalPoint.parse(QQ, "[1:1:1]").ideal(ring), 12),
        (RationalPoint.parse(QQ, "[0:1]"), tau,
         HomIdeal.from_strings(ring1, ["x0"]), 10),
    )
    good = 0
    for p, sg, Z, horizon in cases:
        rep = forward_orbit_hits(p, sg, Z, horizon)
        if rep.verdict != "certified-finite":
            continue
        upto = max(2 * (rep.n0 or 0), horizon)
        rescanned = tuple(n for n in range(upto + 1)
                          if p.apply(sg, n).on_subscheme(Z))
        good += rescanned == rep.hits
    return good


def test_ac6_property_suites_standalone():
    _start()
    rng = random.Random(SEED)
    gb = _groebner_and_membership_leg(rng, 200)
    sat = _saturation_leg(rng, 30)
    tor = _tor_symmetry_leg()
    assoc = _associativity_leg(rng, 100)
    orbit = _orbit_soundness_leg()
    ok = (gb == 200 and sat == 30 and tor == len(TOR_PAIRS)
          and assoc == 100 and orbit == 3)
    _gate("AC6", 300, ok,
          f"groebner determinism + membership oracle {gb}/200; "
          f"quotient-preserves-saturation {sat}/30; "
          f"tor symmetry + euler {tor}/{len(TOR_PAIRS)}; "
          f"twist associativity {assoc}/100; orbit rescan to 2*n0 {orbit}/3")


def test_ac7_flagship_classification_row_for_row():
    _start()
    report = classify(_moving_point_scene(),
                      sample_points=(RationalPoint.parse(QQ, "[1:1:1]"),
                                     RationalPoint.parse(QQ, "[1:2:3]")),
                      horizon=12, order_bound=8)
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
    mismatches = [
        r.predicate for r in report.rows
        if (r.verdict, r.evidence.kind) != expected[r.predicate]
    ]
    chi = report.row("right-chi-levels").detail
    chi_ok = "chi_1" in chi and "chi_2" in chi
    witness = report.row("strongly-left-noetherian").evidence.witness
    witness_ok = witness is not None and "codimension 2" in witness
    _gate("AC7", 60,
          not mismatches and chi_ok and witness_ok,
          f"8 rows, mismatches={mismatches or 'none'}; chi row cites "
          f"chi_1/chi_2 for d=2: {chi_ok}; strong-left witness carries "
          f"codimension 2: {witness_ok}")
