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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SceneVerificationError, UsageError
from .geometry import (
    RationalPoint,
    critical_transversality_certificate,
    forward_orbit_hits,
    projective_order,
    _unipotent_scalar,
)
from .homology import truncated_tor_over_quotient
from .idealizer import IdealizerScene, stabilization_degree
from .polykernel import (
    HomIdeal,
    codimension,
    hilbert_polynomial,
    ideal_equal,
    intersect,
    is_monomial_ideal,
    monomial_primary_decomposition,
    monomial_radical,
    saturate,
)
from .twist import ProjAutomorphism


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

    @property
    def label(self) -> str:
        if self.order == 1:
            return "fixed"
        if self.order is not None:
            return f"period {self.order}"
        if self.certified_infinite:
            return "infinite"
        return "exceeds-bound"


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
    """
    if bound < 1:
        raise ValueError("order bound must be >= 1")
    for n in range(1, bound + 1):
        if ideal_equal(sigma.pullback_ideal(ideal, n), ideal):
            return OrderResult(n, False, "direct-power-match")
    field = sigma.ring.field
    if field.char == 0:
        if sigma.is_diagonal():
            if bound >= 2 or not ideal_equal(sigma.pullback_ideal(ideal, 2), ideal):
                return OrderResult(None, True, "eigenclass-obstruction")
        elif _unipotent_scalar(sigma) is not None:
            return OrderResult(None, True, "unipotent-rigidity")
    else:
        k = projective_order(sigma)
        if k is not None:
            for div in _divisors(k):
                if div > bound and ideal_equal(sigma.pullback_ideal(ideal, div), ideal):
                    return OrderResult(div, False, "finite-matrix-group")
    return OrderResult(None, False, "order-bound-exhausted")


# ---------------------------------------------------------------------------
# reduced rational points
# ---------------------------------------------------------------------------

def reduced_point_of(ideal: HomIdeal) -> RationalPoint | None:
    """The rational point cut out by an ideal, or None.

    An ideal is the ideal of a rational point exactly when its reduced
    Groebner basis is d linear forms x_i − c_i·x_k, where x_k is the one
    variable that leads none of them; the point is then x_k = 1, x_i = c_i.
    """
    ring = ideal.ring
    field = ring.field
    gb = ideal.groebner()
    if len(gb) != ring.nvars - 1 or any(g.degree != 1 for g in gb):
        return None
    lead = {g.lm().index(1): g for g in gb}
    k = next(i for i in range(ring.nvars) if i not in lead)
    xk = ring.variable(k).lm()
    coords = [field.one] * ring.nvars
    for i, g in lead.items():
        coords[i] = field.neg(g.terms.get(xk, field.zero))
    return RationalPoint.of(field, coords)


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
    notes: tuple[str, ...] = ()


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
    notes: tuple[str, ...] = ()


def _component_radical(comp: HomIdeal, notes: list) -> HomIdeal:
    if is_monomial_ideal(comp):
        return monomial_radical(comp)
    if reduced_point_of(comp) is not None:
        return comp
    notes.append(
        "declared component without a declared radical; "
        "the component itself is used as the order proxy"
    )
    return comp


def component_analysis(scene: IdealizerScene, order_bound: int = 12) -> ComponentAnalysis:
    """Decompose Z and report each component's codimension and sigma-orders.

    The decomposition is computed natively for monomial ideals and for a
    single rational point; otherwise the scene must declare components
    (verified against the ideal when the scene was built).
    """
    if order_bound < 1:
        raise ValueError("order bound must be >= 1")
    sigma, ideal = scene.sigma, scene.ideal
    notes: list[str] = []
    if scene.declared_components:
        pairs = []
        for comp, prime in scene.declared_components:
            comp = saturate(comp)
            if prime is None:
                prime = _component_radical(comp, notes)
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
    for i, (comp, prime) in enumerate(pairs):
        comp_notes: list[str] = []
        rad = sigma_ideal_order(prime, sigma, order_bound)
        if ideal_equal(comp, prime):
            sch = rad
        else:
            sch = sigma_ideal_order(comp, sigma, order_bound)
        if rad.order is None and not rad.certified_infinite:
            comp_notes.append(
                f"support order undetermined up to {order_bound}; "
                "treated as infinite-order for the split"
            )
        reports.append(ComponentReport(comp, prime, codimension(comp),
                                       rad, sch, tuple(comp_notes)))

    finite = [r for r in reports if r.radical_order.order is not None]
    moving = [r for r in reports if r.radical_order.order is None]

    def _meet_all(rs):
        acc = None
        for r in rs:
            acc = r.component if acc is None else intersect(acc, r.component)
        return acc

    J_ideal = _meet_all(finite)
    W_ideal = _meet_all(moving)
    J_fixed = sigma_ideal_order(J_ideal, sigma, order_bound) if J_ideal is not None else None
    return ComponentAnalysis(tuple(reports), W_ideal, J_ideal, J_fixed,
                             order_bound, source, tuple(notes))


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


def classify(scene: IdealizerScene, *, sample_points: tuple = (),
             horizon: int = 20, order_bound: int = 12,
             ambient_quotient: HomIdeal | None = None,
             probe_j_max: int = 6) -> ClassificationReport:
    """Assemble the eight-row verdict table for a scene.

    Declared sample points feed the forward-orbit sampling of the
    right-noetherian predicate.  When an ambient quotient is supplied the
    engine only probes the cohomological-dimension row at a declared point;
    the remaining rows are reported not-applicable rather than evaluated
    over the wrong coordinate ring.
    """
    if ambient_quotient is not None and not ambient_quotient.is_zero_ideal():
        return _classify_over_quotient(scene, ambient_quotient, sample_points,
                                       probe_j_max)

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
    na = ("the scene degenerates to the twisted coordinate ring in large "
          "degree; idealizer-specific predicates are not evaluated")
    rows = (
        _row("right-noetherian", "yes", agrees, "certified"),
        _row("strongly-right-noetherian", "yes",
             "finite extensions of the strongly noetherian twisted coordinate "
             "ring of projective space remain strongly noetherian", "certified"),
        _row("left-noetherian", "yes", agrees, "certified"),
        _row("strongly-left-noetherian", "yes",
             "finite extensions of the strongly noetherian twisted coordinate "
             "ring of projective space remain strongly noetherian", "certified"),
        _row("fails-left-chi-1", "inconclusive", na, "not-applicable"),
        _row("right-chi-levels", "inconclusive", na, "not-applicable"),
        _row("finite-cohomological-dimension", "yes",
             "finite on both sides: the ring has finite codimension in the "
             "twisted coordinate ring of a regular ambient space", "certified"),
        _row("tensor-square-not-left-noetherian", "inconclusive", na,
             "not-applicable"),
    )
    return ClassificationReport(rows, flags, tuple(notes))


# -- stable branch: the colon equals the ideal from some degree on ----------

def _orbit_rows(scene, sample_points, horizon):
    reports = [forward_orbit_hits(p, scene.sigma, scene.ideal, horizon)
               for p in sample_points]
    infinite = next((r for r in reports if r.verdict == "infinite"), None)
    inconclusive = any(r.verdict == "inconclusive" for r in reports)
    complete = sum(1 for r in reports if r.verdict == "certified-finite")
    return reports, infinite, inconclusive, complete


def _classify_stable(scene, stab, comp, sample_points, horizon, notes) -> ClassificationReport:
    ct = critical_transversality_certificate(scene)
    reports, infinite_rep, orbit_inconclusive, complete = _orbit_rows(
        scene, sample_points, horizon)

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
    grounded = "certified" if assnot_certified else "heuristic"
    grounded_h = None if assnot_certified else horizon

    # right-noetherian (and its strong twin)
    if infinite_rep is not None and comp is not None and comp.J_ideal is None:
        witness = (f"forward orbit of {infinite_rep.point} meets Z infinitely "
                   f"often (period {infinite_rep.period})")
        right = _row("right-noetherian", "no",
                     "a sampled point returns to Z along a cycle", "refuted",
                     witness=witness)
        strong_right = _row("strongly-right-noetherian", "no",
                            "refuted through the same orbit; the strong "
                            "property implies the plain one", "refuted",
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
        elif orbit_inconclusive:
            verdict = "inconclusive"
            detail = (f"{len(reports)} sampled orbit(s); at least one scan ends "
                      "at the horizon without a completeness bound")
        else:
            verdict = "yes"
            detail = (f"{len(reports)} sampled forward orbit(s) meet Z finitely "
                      f"often ({complete} with completeness bounds); the "
                      "predicate quantifies over all points and is sampled only")
        right = _row("right-noetherian", verdict, detail, "heuristic",
                     horizon=horizon)
        strong_right = _row("strongly-right-noetherian", verdict,
                            detail + "; the two right-noetherian properties "
                            "coincide for stabilized idealizers", "heuristic",
                            horizon=horizon)

    # left-noetherian
    if ct.status == "certified":
        left = _row("left-noetherian", "yes",
                    f"Z is homologically transverse to all {ct.checked} "
                    "invariant coordinate-subspace families", grounded,
                    horizon=grounded_h)
    elif ct.status == "refuted":
        witness = (f"invariant subscheme V({ct.witness_ideal.gens_text()}) is not "
                   f"homologically transverse to Z (Tor_{ct.witness_j} survives "
                   "in high degree)")
        if assnot_certified:
            left = _row("left-noetherian", "no",
                        "an invariant subscheme obstructs transversality",
                        "refuted", witness=witness)
        else:
            left = _row("left-noetherian", "no",
                        f"an invariant subscheme obstructs transversality ({witness}); "
                        "colon stabilization itself is horizon-tested",
                        "heuristic", horizon=horizon)
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
        if assnot_certified:
            strong_left = _row("strongly-left-noetherian", "no",
                               "strong left noetherian needs Z of pure "
                               "codimension 1", "refuted", witness=witness)
        else:
            strong_left = _row("strongly-left-noetherian", "no",
                               f"{witness}; colon stabilization itself is "
                               "horizon-tested", "heuristic", horizon=horizon)
    elif ct.status == "refuted":
        witness = (f"not left noetherian: invariant subscheme "
                   f"V({ct.witness_ideal.gens_text()}) obstructs transversality")
        strong_left = _row("strongly-left-noetherian", "no",
                           "refuted through the left-noetherian obstruction",
                           "refuted" if assnot_certified else "heuristic",
                           witness=witness if assnot_certified else None,
                           horizon=None if assnot_certified else horizon)
    elif comp is not None and ct.status == "certified":
        strong_left = _row("strongly-left-noetherian", "yes",
                           "Z has pure codimension 1 and the transversality "
                           "certificate holds", grounded, horizon=grounded_h)
    else:
        strong_left = _row("strongly-left-noetherian", "inconclusive",
                           "needs both a component split and a transversality "
                           "certificate", "not-applicable")

    # fails left chi_1
    chi1 = _row("fails-left-chi-1", "yes",
                "the coordinate ring modulo the idealizer is infinite-"
                "dimensional and embeds into a first Ext group against the "
                "scalars", grounded, horizon=grounded_h)

    # right chi levels
    c = codimension(scene.ideal)
    zero_dim = hilbert_polynomial(scene.ideal).degree() == 0
    if ct.status == "certified" and (scene.gorenstein_z or zero_dim):
        basis = "zero-dimensional Z" if zero_dim else "declared Gorenstein Z"
        chi_r = _row("right-chi-levels", "yes",
                     f"satisfies right chi_{c - 1}, fails right chi_{c} "
                     f"(codimension {c}, {basis})", grounded, horizon=grounded_h)
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
    cohdim = _row("finite-cohomological-dimension", "yes",
                  "finite on both sides: the ambient space is regular, so the "
                  "subscheme sheaf has a finite resolution; the left side "
                  "equals the ambient dimension", grounded, horizon=grounded_h)

    # tensor square
    if offending is not None:
        tensor = _row("tensor-square-not-left-noetherian", "yes",
                      f"Z has a component of codimension {offending.codimension} "
                      ">= 2, so the Segre square idealizes a subscheme with the "
                      "same defect", grounded, horizon=grounded_h)
    elif comp is not None:
        tensor = _row("tensor-square-not-left-noetherian", "inconclusive",
                      "the Segre-square criterion applies only when Z is not of "
                      "pure codimension 1", "not-applicable")
    else:
        tensor = _row("tensor-square-not-left-noetherian", "inconclusive",
                      "no component split available", "not-applicable")

    rows = (right, strong_right, left, strong_left, chi1, chi_r, cohdim, tensor)
    return ClassificationReport(rows, (), tuple(notes))


# -- unstable branch: the colon keeps exceeding the ideal -------------------

def _classify_unstable(scene, stab, comp, sample_points, horizon, notes) -> ClassificationReport:
    na_detail = ("the colon does not stabilize; predicates assuming a "
                 "stabilized idealizer are not evaluated")
    na_rows = (
        _row("fails-left-chi-1", "inconclusive", na_detail, "not-applicable"),
        _row("right-chi-levels", "inconclusive", na_detail, "not-applicable"),
        _row("finite-cohomological-dimension", "inconclusive", na_detail,
             "not-applicable"),
        _row("tensor-square-not-left-noetherian", "inconclusive", na_detail,
             "not-applicable"),
    )

    if comp is not None and comp.J_ideal is not None:
        jf = comp.J_fixed
        if jf.certified_infinite:
            # the finite-order part is never fixed as a scheme
            offender = next(r for r in comp.components
                            if r.radical_order.order is not None
                            and r.scheme_order.order is None)
            witness = (f"component V({offender.component.gens_text()}) has "
                       f"finite-order support (order {offender.radical_order.order}) "
                       "but no power of sigma fixes the component scheme "
                       f"({offender.scheme_order.justification})")
            flags = ("not a finitely generated idealizer; noetherian rows refuted",)
            detail_r = ("a noetherian section ring forces some power of sigma "
                        "to fix the finite-order part of Z as a scheme")
            rows = (
                _row("right-noetherian", "no", detail_r, "refuted", witness=witness),
                _row("strongly-right-noetherian", "no", detail_r, "refuted",
                     witness=witness),
                _row("left-noetherian", "no",
                     "the colon strictly exceeds the ideal of Z at every degree "
                     f"through {horizon}: the section ring needs a fresh "
                     "generator in each such degree, while a left noetherian "
                     "connected graded algebra is finitely generated",
                     "heuristic", horizon=horizon),
                _row("strongly-left-noetherian", "no",
                     "follows from the left-noetherian failure", "heuristic",
                     horizon=horizon),
            ) + na_rows
            return ClassificationReport(rows, flags, tuple(notes))
        if jf.order is not None:
            # fixed part plus moving part: the ring reduces to an idealizer
            # at the moving part, which this engine does not re-run
            flags = ("fixed-part present",)
            notes = list(notes) + [
                f"sigma^{jf.order} fixes the finite-order part J; the section "
                "ring is a finite module over an idealizer at the moving part W"
            ]
            reports = [forward_orbit_hits(p, scene.sigma, comp.W_ideal, horizon)
                       for p in sample_points]
            infinite_rep = next((r for r in reports if r.verdict == "infinite"), None)
            if infinite_rep is not None:
                witness = (f"forward orbit of {infinite_rep.point} meets the "
                           f"moving part infinitely often (period {infinite_rep.period})")
                rn = _row("right-noetherian", "no",
                          "a sampled point returns to the moving part along a "
                          "cycle", "refuted", witness=witness)
                srn = _row("strongly-right-noetherian", "no",
                           "refuted through the same orbit", "refuted",
                           witness=witness)
            elif reports:
                det = (f"{len(reports)} sampled orbit(s) meet the moving part "
                       "finitely often; the predicate is sampled only")
                rn = _row("right-noetherian", "yes", det, "heuristic", horizon=horizon)
                srn = _row("strongly-right-noetherian", "yes", det, "heuristic",
                           horizon=horizon)
            else:
                det = "no sample points declared for the moving part"
                rn = _row("right-noetherian", "inconclusive", det, "heuristic",
                          horizon=horizon)
                srn = _row("strongly-right-noetherian", "inconclusive", det,
                           "heuristic", horizon=horizon)
            rows = (rn, srn,
                    _row("left-noetherian", "inconclusive",
                         "the reduction to the moving part is not re-run",
                         "not-applicable"),
                    _row("strongly-left-noetherian", "inconclusive",
                         "the reduction to the moving part is not re-run",
                         "not-applicable"),
                    ) + na_rows
            return ClassificationReport(rows, flags, tuple(notes))
        # order bound exhausted without a certificate
        flags = ("not a finitely generated idealizer; noetherian rows refuted",)
        detail = ("the colon strictly exceeds the ideal of Z at every degree "
                  f"through {horizon}, and no power of sigma up to "
                  f"{comp.order_bound} fixes the finite-order part")
        rows = tuple(_row(p, "no", detail, "heuristic", horizon=horizon)
                     for p in PREDICATES[:4]) + na_rows
        return ClassificationReport(rows, flags, tuple(notes))

    if comp is not None:
        # moving components only, yet the colon has not settled: the horizon
        # is simply too small to see the stable range
        notes = list(notes) + [
            f"colon not yet stabilized at horizon {horizon}; every component "
            "has moving support, so a larger horizon may settle the table"
        ]
        rows = tuple(_row(p, "inconclusive",
                          f"colon still exceeds the ideal at degree {horizon}",
                          "heuristic", horizon=horizon)
                     for p in PREDICATES[:4]) + na_rows
        return ClassificationReport(rows, (), tuple(notes))

    flags = ("not a finitely generated idealizer; noetherian rows refuted",)
    detail = ("the colon strictly exceeds the ideal of Z at every computed "
              "degree and no component split is available")
    rows = tuple(_row(p, "no", detail, "heuristic", horizon=horizon)
                 for p in PREDICATES[:4]) + na_rows
    return ClassificationReport(rows, flags, tuple(notes))


# -- ambient quotient branch: only the cohdim probe runs --------------------

def _classify_over_quotient(scene, quotient, sample_points,
                            probe_j_max) -> ClassificationReport:
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
                                              j_max=probe_j_max)
        except (UsageError, SceneVerificationError) as exc:
            probe = _row("finite-cohomological-dimension", "inconclusive",
                         f"probe rejected: {exc}", "not-applicable")
        else:
            if rep.infinite_hd_evidence:
                probe = _row(
                    "finite-cohomological-dimension", "no",
                    "Tor against the probe point survives through homological "
                    f"degree {probe_j_max}: evidence that the subscheme sheaf "
                    "has infinite homological dimension over the quotient, so "
                    "the right side has infinite cohomological dimension; the "
                    "left side stays finite", "heuristic", horizon=probe_j_max)
            else:
                first_zero = next((j for j in sorted(rep.verdicts)
                                   if not rep.verdicts[j]), None)
                probe = _row(
                    "finite-cohomological-dimension", "yes",
                    "Tor against the probe point dies at homological degree "
                    f"{first_zero}: the subscheme sheaf shows finite "
                    "homological dimension over the quotient", "heuristic",
                    horizon=probe_j_max)

    na = ("classification rows are evaluated over the full polynomial "
          "coordinate ring only")
    rows = tuple(probe if p == "finite-cohomological-dimension"
                 else _row(p, "inconclusive", na, "not-applicable")
                 for p in PREDICATES)
    return ClassificationReport(rows, (), tuple(notes))
