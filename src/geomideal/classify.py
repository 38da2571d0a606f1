"""Component analysis and the classification verdict table.

Splits Z into primary components sorted by the sigma-order of their supports
(the W/J split: J collects the finite-order supports, W the rest), decides
the order questions exactly where a certificate route exists, and assembles
the eight-row report on the section ring R: noetherian properties on both
sides, the strong variants, the chi conditions, cohomological dimension, and
the Segre square.

Evidence discipline: a row is "certified" or "refuted" only when the verdict
follows from a re-checkable computation through one of the implemented
criteria; horizon-limited observations stay "heuristic" and display their
horizon; rows whose hypotheses are not met are "not-applicable".

Shared rules, each decided once: the right-noetherian row and its strong
twin share verdict and evidence (_right_rows); in the stable branch a row
is only as strong as the stabilization behind it, certified or refuted when
stabilization is certified and heuristic at the horizon otherwise
(grounded, obstructed); and an unstable scene reports the rows that assume
a stabilized idealizer as not applicable, while in three of its cases the
four noetherian rows share one verdict and detail (uniform).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import SceneVerificationError, UsageError
from .geometry import (
    RationalPoint,
    critical_transversality_certificate,
    forward_orbit_hits,
    projective_order,
    _unipotent_part,
)
from .homology import point_coordinates, truncated_tor_over_quotient
from .idealizer import IdealizerScene, stabilization_degree
from .polykernel import (
    HomIdeal,
    codimension,
    ideal_equal,
    intersect,
    is_monomial_ideal,
    monomial_primary_decomposition,
    monomial_radical,
    saturate,
)
from .twist import ProjAutomorphism, _mat_pow


# ---------------------------------------------------------------------------
# sigma-orders of ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderResult:
    """Least n >= 1 with I^{sigma^n} = I, when one can be pinned down.

    order is None when no such n was found; certified_infinite marks the
    cases where a structural argument rules out every n, as opposed to the
    search bound simply running out.
    """

    order: int | None
    certified_infinite: bool
    justification: str


def _divisors(n: int) -> list[int]:
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


class _PowerScan:
    """I's generators pulled back by sigma^n for a nondecreasing n, each kept
    at its latest pullback and stepped from there, (f o sigma^k) o
    sigma^(n-k) = f o sigma^n, only when it is examined; so a scan to n = B
    applies sigma's table at most B times per generator examined."""

    def __init__(self, ideal: HomIdeal, sigma: ProjAutomorphism):
        self.ideal, self.sigma = ideal, sigma
        self.latest = [(0, g) for g in ideal.gens]  # (k, g o sigma^k)

    def fixes(self, n: int) -> bool:
        """Whether I^{sigma^n} = I.  The pullback has I's Hilbert function,
        so it is I once every pulled-back generator lies in I: normal forms
        against I's cached basis, with no Groebner run of the pullback."""
        for i, (k, f) in enumerate(self.latest):
            f = self.sigma.pullback(f, n - k)
            self.latest[i] = (n, f)
            if not self.ideal.contains(f):
                return False
        return True


def _fixed_by_power(ideal: HomIdeal, sigma: ProjAutomorphism, n: int) -> bool:
    """Whether I^{sigma^n} = I (_PowerScan.fixes)."""
    return _PowerScan(ideal, sigma).fixes(n)


def sigma_ideal_order(ideal: HomIdeal, sigma: ProjAutomorphism,
                      bound: int) -> OrderResult:
    """sigma-order of an ideal under pullback, searched to bound and then
    extended by a certificate when the automorphism admits one.

    Certificates: the eigenclass obstruction for diagonal sigma over Q,
    rigidity for unipotent sigma (a subspace fixed by some power is fixed
    by sigma itself), and the finite matrix group over a prime field.

    Eigenclass obstruction.  A diagonal sigma^n fixes I exactly when every
    graded piece I_m is the sum of its pieces in the sigma^n-eigenspaces,
    which are spanned by monomials.  Over Q, monomials with equal
    eigenvalue under sigma^n have equal |eigenvalue| under sigma, and
    sigma^2 groups monomials by exactly that |eigenvalue|; so if sigma^n
    fixes I, so does sigma^2, and when sigma^2 does not fix I no power
    does.  The direct scan has already tried n = 2 when bound >= 2.

    Both certificates also bound the scan: a diagonal sigma over Q fixes I
    with some power only if sigma or sigma^2 does, and a unipotent one only
    if sigma does, so no later power is pulled back.
    """
    if bound < 1:
        raise ValueError("order bound must be >= 1")
    field = sigma.ring.field
    diagonal = field.char == 0 and sigma.is_diagonal()
    unipotent = field.char == 0 and not diagonal and _unipotent_part(sigma) is not None
    last = 2 if diagonal else 1 if unipotent else bound
    scan = _PowerScan(ideal, sigma)
    for n in range(1, min(bound, last) + 1):
        if scan.fixes(n):
            return OrderResult(n, False, "direct-power-match")
    if diagonal:
        if bound >= 2 or not scan.fixes(2):
            return OrderResult(None, True, "eigenclass-obstruction")
    elif unipotent:
        return OrderResult(None, True, "unipotent-rigidity")
    elif field.char != 0:
        k = projective_order(sigma)
        if k is not None:
            for div in _divisors(k):
                if div > bound:
                    # div can reach k - 1 (996 over GF(997)): sigma^div by
                    # squaring, not div steps of sigma
                    power = ProjAutomorphism(sigma.ring, _mat_pow(field, sigma.matrix, div))
                    if _fixed_by_power(ideal, power, 1):
                        return OrderResult(div, False, "finite-matrix-group")
    return OrderResult(None, False, "order-bound-exhausted")


# ---------------------------------------------------------------------------
# reduced rational points
# ---------------------------------------------------------------------------

def reduced_point_of(ideal: HomIdeal) -> RationalPoint | None:
    """The rational point cut out by an ideal (homology.point_coordinates),
    or None."""
    coords = point_coordinates(ideal)
    return None if coords is None else RationalPoint.of(ideal.ring.field, coords)


# ---------------------------------------------------------------------------
# component analysis (the W/J split)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    component: HomIdeal
    prime: HomIdeal
    codimension: int
    radical_order: OrderResult
    scheme_order: OrderResult


@dataclass(frozen=True)
class ComponentAnalysis:
    """Primary components of Z sorted into the finite-order part J (supports
    returning to themselves under some power of sigma) and the moving part W.

    J_fixed reports whether some power of sigma fixes J as a scheme -- the
    gate for the right-noetherian branch; None when J is empty (vacuous)."""

    components: tuple[ComponentReport, ...]
    W_ideal: HomIdeal | None
    J_ideal: HomIdeal | None
    J_fixed: OrderResult | None
    order_bound: int
    source: str  # "monomial" | "point" | "declared"


def component_analysis(scene: IdealizerScene, order_bound: int = 12) -> ComponentAnalysis:
    """Decompose Z and report each component's codimension and sigma-orders.

    The decomposition is computed natively for monomial ideals and for a
    single rational point; otherwise the scene must declare components
    (verified against the ideal when the scene was built).
    """
    if order_bound < 1:
        raise ValueError("order bound must be >= 1")
    sigma, ideal = scene.sigma, scene.ideal
    if scene.declared_components:
        pairs = []
        for comp, prime in scene.declared_components:
            comp = saturate(comp)
            if prime is None:
                prime = monomial_radical(comp) if is_monomial_ideal(comp) else comp
            pairs.append((comp, prime))
        source = "declared"
    elif is_monomial_ideal(ideal):
        pairs = list(monomial_primary_decomposition(ideal))
        source = "monomial"
    else:
        point = reduced_point_of(ideal)
        if point is None:
            raise UsageError(
                "no decomposition available: supply component blocks for a "
                "subscheme that is neither monomial nor a single rational point"
            )
        pairs = [(ideal, ideal)]
        source = "point"

    reports = []
    for comp, prime in pairs:
        rad = sigma_ideal_order(prime, sigma, order_bound)
        if ideal_equal(comp, prime):
            sch = rad
        else:
            sch = sigma_ideal_order(comp, sigma, order_bound)
        reports.append(ComponentReport(comp, prime, codimension(comp), rad, sch))

    # a support whose order is undetermined up to the bound counts as moving
    finite = [r.component for r in reports if r.radical_order.order is not None]
    moving = [r.component for r in reports if r.radical_order.order is None]
    J_ideal = reduce(intersect, finite) if finite else None
    W_ideal = reduce(intersect, moving) if moving else None
    J_fixed = sigma_ideal_order(J_ideal, sigma, order_bound) if J_ideal is not None else None
    return ComponentAnalysis(tuple(reports), W_ideal, J_ideal, J_fixed,
                             order_bound, source)


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

EVIDENCE_KINDS = ("certified", "heuristic", "refuted", "not-applicable")

PREDICATES = (
    "right-noetherian",
    "strongly-right-noetherian",
    "left-noetherian",
    "strongly-left-noetherian",
    "fails-left-chi-1",
    "right-chi-levels",
    "finite-cohomological-dimension",
    "tensor-square-not-left-noetherian",
)

CITATIONS = {
    "right-noetherian": "finite-forward-orbit-criterion",
    "strongly-right-noetherian": "strong-right-equals-right-for-idealizers",
    "left-noetherian": "critical-transversality-left-noetherian",
    "strongly-left-noetherian": "pure-codimension-one-and-transversality",
    "fails-left-chi-1": "idealizer-ext1-growth",
    "right-chi-levels": "codimension-chi-threshold",
    "finite-cohomological-dimension": "subscheme-homological-dimension-criterion",
    "tensor-square-not-left-noetherian": "segre-product-obstruction",
}

VERDICTS = ("yes", "no", "inconclusive")

PROBE_J_MAX = 6  # homological degrees probed over an ambient quotient

NOT_FINITELY_GENERATED = "not a finitely generated idealizer; noetherian rows refuted"


@dataclass(frozen=True)
class Evidence:
    kind: str
    citation: str
    horizon: int | None = None
    witness: str | None = None

    def __post_init__(self):
        if self.kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind: {self.kind!r}")
        if self.kind == "heuristic" and self.horizon is None:
            raise ValueError("heuristic evidence must carry its horizon")
        if self.kind == "refuted" and self.witness is None:
            raise ValueError("a refutation must carry a witness")


@dataclass(frozen=True)
class ClassificationRow:
    predicate: str
    verdict: str
    detail: str
    evidence: Evidence

    def __post_init__(self):
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate: {self.predicate!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {self.verdict!r}")


@dataclass(frozen=True)
class ClassificationReport:
    rows: tuple[ClassificationRow, ...]
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def row(self, predicate: str) -> ClassificationRow:
        for r in self.rows:
            if r.predicate == predicate:
                return r
        raise KeyError(predicate)


def _row(predicate, verdict, detail, kind, *, horizon=None, witness=None):
    return ClassificationRow(predicate, verdict, detail,
                             Evidence(kind, CITATIONS[predicate],
                                      horizon=horizon, witness=witness))


def _right_rows(verdict, detail, kind, strong_detail, *, horizon=None,
                witness=None):
    """The right-noetherian row and its strong twin.  For an idealizer the
    two properties coincide, so both rows share verdict and evidence."""
    return (_row("right-noetherian", verdict, detail, kind,
                 horizon=horizon, witness=witness),
            _row("strongly-right-noetherian", verdict, strong_detail, kind,
                 horizon=horizon, witness=witness))


def _sample_orbits(sigma, Z, points, horizon):
    """Forward-orbit reports of the sample points against Z, and the first
    one that meets Z infinitely often (None if there is none)."""
    reports = [forward_orbit_hits(p, sigma, Z, horizon) for p in points]
    return reports, next((r for r in reports if r.verdict == "infinite"), None)


def classify(scene: IdealizerScene, *, sample_points: tuple = (),
             horizon: int = 20, order_bound: int = 12,
             ambient_quotient: HomIdeal | None = None) -> ClassificationReport:
    """Assemble the eight-row verdict table for a scene.

    Declared sample points feed the forward-orbit sampling of the
    right-noetherian predicate.  When an ambient quotient is supplied the
    engine only probes the cohomological-dimension row at a declared point;
    the remaining rows are reported not-applicable rather than evaluated
    over the wrong coordinate ring.
    """
    if ambient_quotient is not None and not ambient_quotient.is_zero_ideal():
        return _classify_over_quotient(scene, ambient_quotient, sample_points)

    notes: list[str] = []
    stab = stabilization_degree(scene, horizon)
    try:
        comp = component_analysis(scene, order_bound)
    except UsageError as exc:
        comp = None
        notes.append(f"component analysis unavailable: {exc}")

    if stab.degenerate:
        return _classify_degenerate(scene, stab, notes)
    if stab.stabilized:
        return _classify_stable(scene, stab, comp, sample_points, horizon, notes)
    return _classify_unstable(scene, stab, comp, sample_points, horizon, notes)


# -- degenerate branch: some colon is the unit ideal ------------------------

def _classify_degenerate(scene, stab, notes) -> ClassificationReport:
    n_unit = stab.table.index("unit") + 1
    flags = (
        "fixed-part present",
        f"degenerate: W = X behavior (the colon is the unit ideal at degree {n_unit})",
    )
    agrees = (f"Z is fixed by sigma^{n_unit}: the section ring agrees with the "
              "full twisted coordinate ring in every degree divisible by "
              f"{n_unit}, and is a finite module over that subring")
    strong = ("finite extensions of the strongly noetherian twisted coordinate "
              "ring of projective space remain strongly noetherian")
    na = ("the scene degenerates to the twisted coordinate ring in large "
          "degree; idealizer-specific predicates are not evaluated")
    if n_unit == 1:
        cohdim = _row("finite-cohomological-dimension", "yes",
                      "finite on both sides: the ring has finite codimension in "
                      "the twisted coordinate ring of a regular ambient space",
                      "certified")
    else:
        # the colon is the unit ideal exactly where sigma^n fixes Z; at every
        # other n it is a proper saturated ideal, whose degree-n piece is proper
        cohdim = _row("finite-cohomological-dimension", "inconclusive",
                      f"R_n is a proper subspace of B_n whenever {n_unit} does not "
                      "divide n, so the ring has infinite codimension in the "
                      "twisted coordinate ring; whether finite cohomological "
                      "dimension passes to it from the subring in degrees "
                      f"divisible by {n_unit} is not checked", "not-applicable")
    rows = (
        _row("right-noetherian", "yes", agrees, "certified"),
        _row("strongly-right-noetherian", "yes", strong, "certified"),
        _row("left-noetherian", "yes", agrees, "certified"),
        _row("strongly-left-noetherian", "yes", strong, "certified"),
        _row("fails-left-chi-1", "inconclusive", na, "not-applicable"),
        _row("right-chi-levels", "inconclusive", na, "not-applicable"),
        cohdim,
        _row("tensor-square-not-left-noetherian", "inconclusive", na,
             "not-applicable"),
    )
    return ClassificationReport(rows, flags, tuple(notes))


# -- stable branch: the colon equals the ideal from some degree on ----------

def _classify_stable(scene, stab, comp, sample_points, horizon, notes) -> ClassificationReport:
    ct = critical_transversality_certificate(scene)
    reports, infinite_rep = _sample_orbits(scene.sigma, scene.ideal,
                                           sample_points, horizon)

    single_point = (comp is not None and len(comp.components) == 1
                    and comp.source in ("point", "declared")
                    and reduced_point_of(comp.components[0].component) is not None)
    assnot_certified = (single_point
                        and comp.components[0].radical_order.certified_infinite)
    if assnot_certified:
        notes.append(
            "colon stabilization holds in every positive degree: Z is a single "
            "rational point whose support never returns "
            f"({comp.components[0].radical_order.justification})"
        )
    else:
        notes.append(
            f"colon equals the ideal of Z from degree {stab.n0} through {stab.bound}; "
            "degrees beyond the bound are unverified"
        )

    def grounded(pred, verdict, detail):
        if assnot_certified:
            return _row(pred, verdict, detail, "certified")
        return _row(pred, verdict, detail, "heuristic", horizon=horizon)

    def obstructed(pred, detail, witness, heuristic_detail):
        if assnot_certified:
            return _row(pred, "no", detail, "refuted", witness=witness)
        return _row(pred, "no", heuristic_detail, "heuristic", horizon=horizon)

    # right-noetherian (and its strong twin)
    if infinite_rep is not None and comp is not None and comp.J_ideal is None:
        witness = (f"forward orbit of {infinite_rep.point} meets Z infinitely "
                   f"often (period {infinite_rep.period})")
        right = _right_rows("no", "a sampled point returns to Z along a cycle",
                            "refuted", "refuted through the same orbit; the "
                            "strong property implies the plain one",
                            witness=witness)
    else:
        if infinite_rep is not None:
            verdict = "no"
            detail = (f"forward orbit of {infinite_rep.point} meets Z infinitely "
                      "often, but without a component split the hit component "
                      "cannot be identified")
        elif not reports:
            verdict = "inconclusive"
            detail = "no sample points declared; the forward-orbit predicate was not sampled"
        elif any(r.verdict == "inconclusive" for r in reports):
            verdict = "inconclusive"
            detail = (f"{len(reports)} sampled orbit(s); at least one scan ends "
                      "at the horizon without a completeness bound")
        else:
            complete = sum(r.verdict == "certified-finite" for r in reports)
            verdict = "yes"
            detail = (f"{len(reports)} sampled forward orbit(s) meet Z finitely "
                      f"often ({complete} with completeness bounds); the "
                      "predicate quantifies over all points and is sampled only")
        right = _right_rows(verdict, detail, "heuristic",
                            detail + "; the two right-noetherian properties "
                            "coincide for stabilized idealizers", horizon=horizon)

    # left-noetherian
    if ct.status == "certified":
        left = grounded("left-noetherian", "yes",
                        f"Z is homologically transverse to all {ct.checked} "
                        "invariant coordinate-subspace families")
    elif ct.status == "refuted":
        witness = (f"invariant subscheme V({ct.witness_ideal.gens_text()}) is not "
                   f"homologically transverse to Z (Tor_{ct.witness_j} survives "
                   "in high degree)")
        left = obstructed("left-noetherian",
                          "an invariant subscheme obstructs transversality", witness,
                          f"an invariant subscheme obstructs transversality ({witness}); "
                          "colon stabilization itself is horizon-tested")
    else:
        left = _row("left-noetherian", "inconclusive",
                    f"no transversality certificate: {ct.reason}",
                    "not-applicable")

    # strongly-left-noetherian
    offending = None
    if comp is not None:
        offending = next((r for r in comp.components if r.codimension >= 2), None)
    if offending is not None:
        witness = (f"component V({offending.prime.gens_text()}) has codimension "
                   f"{offending.codimension} > 1")
        strong_left = obstructed("strongly-left-noetherian",
                                 "strong left noetherian needs Z of pure "
                                 "codimension 1", witness,
                                 f"{witness}; colon stabilization itself is "
                                 "horizon-tested")
    elif ct.status == "refuted":
        witness = (f"not left noetherian: invariant subscheme "
                   f"V({ct.witness_ideal.gens_text()}) obstructs transversality")
        detail = "refuted through the left-noetherian obstruction"
        strong_left = obstructed("strongly-left-noetherian", detail, witness, detail)
    elif comp is not None and ct.status == "certified":
        strong_left = grounded("strongly-left-noetherian", "yes",
                               "Z has pure codimension 1 and the transversality "
                               "certificate holds")
    else:
        strong_left = _row("strongly-left-noetherian", "inconclusive",
                           "needs both a component split and a transversality "
                           "certificate", "not-applicable")

    # fails left chi_1
    chi1 = grounded("fails-left-chi-1", "yes",
                    "the coordinate ring modulo the idealizer is infinite-"
                    "dimensional and embeds into a first Ext group against the "
                    "scalars")

    # right chi levels
    c = codimension(scene.ideal)
    zero_dim = c == scene.d
    if ct.status == "certified" and (scene.gorenstein_z or zero_dim):
        basis = "zero-dimensional Z" if zero_dim else "declared Gorenstein Z"
        chi_r = grounded("right-chi-levels", "yes",
                         f"satisfies right chi_{c - 1}, fails right chi_{c} "
                         f"(codimension {c}, {basis})")
    elif ct.status == "certified":
        chi_r = _row("right-chi-levels", "inconclusive",
                     f"fails right chi_{c} (codimension {c}, smooth ambient "
                     "space); the lower level needs a declared Gorenstein "
                     "structure on Z", "not-applicable")
    else:
        chi_r = _row("right-chi-levels", "inconclusive",
                     f"transversality undecided ({ct.status}); chi levels not "
                     "evaluated", "not-applicable")

    # cohomological dimension
    cohdim = grounded("finite-cohomological-dimension", "yes",
                      "finite on both sides: the ambient space is regular, so the "
                      "subscheme sheaf has a finite resolution; the left side "
                      "equals the ambient dimension")

    # tensor square
    if offending is not None:
        tensor = grounded("tensor-square-not-left-noetherian", "yes",
                          f"Z has a component of codimension {offending.codimension} "
                          ">= 2, so the Segre square idealizes a subscheme with the "
                          "same defect")
    elif comp is not None:
        tensor = _row("tensor-square-not-left-noetherian", "inconclusive",
                      "the Segre-square criterion applies only when Z is not of "
                      "pure codimension 1", "not-applicable")
    else:
        tensor = _row("tensor-square-not-left-noetherian", "inconclusive",
                      "no component split available", "not-applicable")

    rows = right + (left, strong_left, chi1, chi_r, cohdim, tensor)
    return ClassificationReport(rows, (), tuple(notes))


# -- unstable branch: the colon keeps exceeding the ideal -------------------

def _classify_unstable(scene, stab, comp, sample_points, horizon, notes) -> ClassificationReport:
    def uniform(verdict, detail):
        return tuple(_row(p, verdict, detail, "heuristic", horizon=horizon)
                     for p in PREDICATES[:4])

    extra = ()
    if comp is None:
        flags = (NOT_FINITELY_GENERATED,)
        rows = uniform("no", "the colon strictly exceeds the ideal of Z at every "
                       "computed degree and no component split is available")
    elif comp.J_ideal is None:
        # moving components only, yet the colon has not settled: the horizon
        # is simply too small to see the stable range
        flags = ()
        extra = (f"colon not yet stabilized at horizon {horizon}; every component "
                 "has moving support, so a larger horizon may settle the table",)
        rows = uniform("inconclusive",
                       f"colon still exceeds the ideal at degree {horizon}")
    elif comp.J_fixed.certified_infinite:
        # the finite-order part is never fixed as a scheme
        offender = next(r for r in comp.components
                        if r.radical_order.order is not None
                        and r.scheme_order.order is None)
        witness = (f"component V({offender.component.gens_text()}) has "
                   f"finite-order support (order {offender.radical_order.order}) "
                   "but no power of sigma fixes the component scheme "
                   f"({offender.scheme_order.justification})")
        flags = (NOT_FINITELY_GENERATED,)
        detail_r = ("a noetherian section ring forces some power of sigma "
                    "to fix the finite-order part of Z as a scheme")
        rows = _right_rows("no", detail_r, "refuted", detail_r, witness=witness) + (
            _row("left-noetherian", "no",
                 "the colon strictly exceeds the ideal of Z at every degree "
                 f"through {horizon}: the section ring needs a fresh "
                 "generator in each such degree, while a left noetherian "
                 "connected graded algebra is finitely generated",
                 "heuristic", horizon=horizon),
            _row("strongly-left-noetherian", "no",
                 "follows from the left-noetherian failure", "heuristic",
                 horizon=horizon),
        )
    elif comp.J_fixed.order is None:
        # order bound exhausted without a certificate
        flags = (NOT_FINITELY_GENERATED,)
        rows = uniform("no", "the colon strictly exceeds the ideal of Z at every "
                       f"degree through {horizon}, and no power of sigma up to "
                       f"{comp.order_bound} fixes the finite-order part")
    else:
        # fixed part plus moving part: the ring reduces to an idealizer at
        # the moving part, which this engine does not re-run
        flags = ("fixed-part present",)
        k = comp.J_fixed.order
        # every support may have finite order while the colon still moves
        # ((I : I^(sigma^n)) is the unit ideal when sigma^n fixes Z): then
        # there is no moving part to sample orbits against or reduce to
        no_w = comp.W_ideal is None
        extra = ((f"sigma^{k} fixes the finite-order part J, which is all of Z: "
                  "there is no moving part W, and the colon is the unit ideal "
                  f"in every degree divisible by {k}",) if no_w else
                 (f"sigma^{k} fixes the finite-order part J; the section ring is "
                  "a finite module over an idealizer at the moving part W",))
        reports, infinite_rep = (
            ([], None) if no_w
            else _sample_orbits(scene.sigma, comp.W_ideal, sample_points, horizon))
        if infinite_rep is not None:
            witness = (f"forward orbit of {infinite_rep.point} meets the "
                       f"moving part infinitely often (period {infinite_rep.period})")
            rows = _right_rows("no", "a sampled point returns to the moving part "
                               "along a cycle", "refuted",
                               "refuted through the same orbit", witness=witness)
        elif reports:
            det = (f"{len(reports)} sampled orbit(s) meet the moving part "
                   "finitely often; the predicate is sampled only")
            rows = _right_rows("yes", det, "heuristic", det, horizon=horizon)
        else:
            det = ("Z has no moving part: every component has finite-order support"
                   if no_w else "no sample points declared for the moving part")
            rows = _right_rows("inconclusive", det, "heuristic", det,
                               horizon=horizon)
        not_rerun = ("Z has no moving part to reduce to, and the degrees where "
                     "the colon is the unit ideal lie past the horizon" if no_w
                     else "the reduction to the moving part is not re-run")
        rows += (_row("left-noetherian", "inconclusive", not_rerun, "not-applicable"),
                 _row("strongly-left-noetherian", "inconclusive", not_rerun,
                      "not-applicable"))

    na_detail = ("the colon does not stabilize; predicates assuming a "
                 "stabilized idealizer are not evaluated")
    rows += tuple(_row(p, "inconclusive", na_detail, "not-applicable")
                  for p in PREDICATES[4:])
    return ClassificationReport(rows, flags, tuple(notes) + extra)


# -- ambient quotient branch: only the cohdim probe runs --------------------

def _classify_over_quotient(scene, quotient, sample_points) -> ClassificationReport:
    notes = ["an ambient quotient was supplied: rows other than the "
             "cohomological-dimension probe are not evaluated over a proper "
             "quotient"]

    point = reduced_point_of(scene.ideal)
    if point is not None:
        p_ideal = scene.ideal
    elif sample_points:
        p_ideal = sample_points[0].ideal(scene.ring)
    else:
        p_ideal = None

    if p_ideal is None:
        probe = _row("finite-cohomological-dimension", "inconclusive",
                     "no probe point available: Z is not a single point and no "
                     "sample point was declared", "not-applicable")
    else:
        try:
            rep = truncated_tor_over_quotient(quotient, scene.ideal, p_ideal,
                                              j_max=PROBE_J_MAX)
        except (UsageError, SceneVerificationError) as exc:
            probe = _row("finite-cohomological-dimension", "inconclusive",
                         f"probe rejected: {exc}", "not-applicable")
        else:
            if rep.infinite_hd_evidence:
                probe = _row(
                    "finite-cohomological-dimension", "no",
                    "Tor against the probe point survives through homological "
                    f"degree {PROBE_J_MAX}: evidence that the subscheme sheaf "
                    "has infinite homological dimension over the quotient, so "
                    "the right side has infinite cohomological dimension; the "
                    "left side stays finite", "heuristic", horizon=PROBE_J_MAX)
            else:
                first_zero = next((j for j in sorted(rep.verdicts)
                                   if not rep.verdicts[j]), None)
                probe = _row(
                    "finite-cohomological-dimension", "yes",
                    "Tor against the probe point dies at homological degree "
                    f"{first_zero}: the subscheme sheaf shows finite "
                    "homological dimension over the quotient", "heuristic",
                    horizon=PROBE_J_MAX)

    na = ("classification rows are evaluated over the full polynomial "
          "coordinate ring only")
    rows = tuple(probe if p == "finite-cohomological-dimension"
                 else _row(p, "inconclusive", na, "not-applicable")
                 for p in PREDICATES)
    return ClassificationReport(rows, (), tuple(notes))
