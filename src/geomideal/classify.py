"""Component analysis and the classification verdict table.

Splits Z into primary components sorted by the sigma-order of their supports
(the W/J split: J collects the finite-order supports, W the rest), decides
the order questions exactly where a certificate route exists, and assembles
the eight-row report on the section ring R: noetherian properties on both
sides, the strong variants, the chi conditions, cohomological dimension, and
the Segre square.

The table has the shape of the paper's theorem: hypotheses on (Z, sigma)
imply ring properties.  `_hypotheses` computes the hypotheses once per scene
into one frozen `Hypotheses` record: the stabilization of the colon
(I : I^(sigma^n)) with its evidence, the critical-transversality
certificate, the sampled forward orbits, the component analysis, and the
Tor probe over an ambient quotient.  Each predicate is then one rule, a pure
function of the record that returns a verdict, its detail and the fields it
reads; the strongly-right row takes the right rule's verdict and evidence.

Evidence discipline, the weakest-link rule (`_row`, where every row is
built): a row is "certified", or "refuted" with a re-checkable witness, only
when every field it reads is certified, and "heuristic" at the least horizon
among them otherwise; a row whose hypotheses are not met is
"not-applicable".  The component analysis and the certificate are exact;
the stabilization is certified when it holds in every degree (degenerate,
or a single rational point whose support never returns) and known to the
horizon otherwise; a sample of orbits and the probe are known to their
horizons only.

Two refutations do not read the stabilization, and keep their strength
whatever the colon does: a sampled orbit that returns along a cycle to Z
when J is empty (or to the moving part W when a power of sigma fixes J),
and an unstable scene whose finite-order part no power of sigma fixes.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import NamedTuple

from .errors import SceneVerificationError, UsageError
from .geometry import (
    CTCertificate,
    OrbitReport,
    RationalPoint,
    critical_transversality_certificate,
    forward_orbit_hits,
    projective_order,
    rational_spectrum,
)
from .homology import QuotientTorReport, point_coordinates, truncated_tor_over_quotient
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

class OrderResult(NamedTuple):
    """Least n >= 1 with I^{sigma^n} = I, when one can be pinned down.

    order is None when no such n was found; certified_infinite marks the
    cases where a structural argument rules out every n, as opposed to the
    search bound simply running out.
    """

    order: int | None
    certified_infinite: bool
    justification: str


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


def sigma_ideal_order(ideal: HomIdeal, sigma: ProjAutomorphism,
                      bound: int) -> OrderResult:
    """sigma-order of an ideal under pullback, searched to bound and then
    extended by a certificate when the automorphism admits one: the
    component group of sigma's closure when sigma splits over Q, and the
    finite matrix group over a prime field.

    Split spectrum.  Let H be the Zariski closure of <sigma> in PGL_(d+1)
    and G the stabilizer of I, a closed subgroup.  If sigma^m fixes I, the
    closure of <sigma^m> has finite index in H, so it contains the identity
    component H°, and so does G; and sigma^c lies in H° for c = [H : H°].
    So some power of sigma fixes I exactly when sigma^c does.  With sigma =
    su its Jordan decomposition, the closure of <u> is connected, and c is
    the order of the torsion of the group the eigenvalue ratios of s
    generate (Borel, Linear Algebraic Groups, §4.7 and §8; Humphreys,
    Linear Algebraic Groups, §15-16).  When every eigenvalue is rational
    (geometry.rational_spectrum) that torsion lies in {±1}: c = 1 when the
    eigenvalues share a sign, and c divides 2 otherwise.  So the scan stops
    at n = c, and a miss there rules out every power.  The tag names the
    case: "eigenclass-obstruction" for a diagonal sigma (its eigenspaces
    are spanned by monomials), "unipotent-rigidity" for one eigenvalue
    (sigma = c * (I + N)), "split-spectrum" for every other split sigma.
    With bound < c, sigma^c is still tried, and fixing I it leaves the
    order open.
    """
    if bound < 1:
        raise ValueError("order bound must be >= 1")
    field = sigma.ring.field
    spectrum = rational_spectrum(sigma)
    last = bound if spectrum is None else 1 + (min(spectrum) < 0 < max(spectrum))
    scan = _PowerScan(ideal, sigma)
    for n in range(1, min(bound, last) + 1):
        if scan.fixes(n):
            return OrderResult(n, False, "direct-power-match")
    if spectrum is not None:
        if bound >= last or not scan.fixes(last):
            return OrderResult(None, True, "eigenclass-obstruction" if sigma.is_diagonal()
                               else "unipotent-rigidity" if len(set(spectrum)) == 1
                               else "split-spectrum")
    elif field.char != 0:
        k = projective_order(sigma)
        if k is not None:
            for div in range(bound + 1, k + 1):
                if k % div == 0:
                    # div can reach k - 1 (996 over GF(997)): sigma^div by
                    # squaring, not div steps of sigma
                    power = ProjAutomorphism(sigma.ring, _mat_pow(field, sigma.matrix, div))
                    if _PowerScan(ideal, power).fixes(1):
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

class ComponentReport(NamedTuple):
    component: HomIdeal
    prime: HomIdeal
    codimension: int
    radical_order: OrderResult
    scheme_order: OrderResult


class ComponentAnalysis(NamedTuple):
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


class _Evidence(NamedTuple):
    kind: str
    citation: str
    horizon: int | None = None
    witness: str | None = None


class Evidence(_Evidence):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind: {self.kind!r}")
        if self.kind == "heuristic" and self.horizon is None:
            raise ValueError("heuristic evidence must carry its horizon")
        if self.kind == "refuted" and self.witness is None:
            raise ValueError("a refutation must carry a witness")
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)


class _ClassificationRow(NamedTuple):
    predicate: str
    verdict: str
    detail: str
    evidence: Evidence


class ClassificationRow(_ClassificationRow):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate: {self.predicate!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)


class ClassificationReport(NamedTuple):
    rows: tuple[ClassificationRow, ...]
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def row(self, predicate: str) -> ClassificationRow:
        for r in self.rows:
            if r.predicate == predicate:
                return r
        raise KeyError(predicate)


# ---------------------------------------------------------------------------
# the hypotheses of the theorem, computed once per scene
# ---------------------------------------------------------------------------

class Hypotheses(NamedTuple):
    """The hypotheses of the paper's theorem on (Z, sigma), computed once
    per scene by `_hypotheses`.  horizon is the degree through which the
    colon and the orbits are scanned; a field is None where nothing
    computed it:

    - stabilization: how the colon (I : I^(sigma^n)) behaves in large degree
      n: "degenerate" (it is the unit ideal at `degree`, so sigma^degree
      fixes Z), "stable" (it equals I from `degree` on) or "unstable" (it
      still exceeds I at the horizon); None over an ambient quotient;
    - ct: the critical-transversality certificate, on a stable scene;
    - orbits and cycle: the forward orbits of the sample points and the
      first that meets its target infinitely often; the target is Z on a
      stable scene, and the moving part W on an unstable one whose
      finite-order part J some power of sigma fixes;
    - components: the W/J split (a note says why when there is none);
    - codim and chi_basis: Z's codimension and, if it has one, the
      structure behind the chi levels (zero-dimensional or declared
      Gorenstein), on a stable scene;
    - probe: over an ambient quotient, the Tor report or why it did not run.

    horizons names the fields known only to a horizon, with that horizon;
    every other field is certified.  The stabilization is certified when it
    holds in every degree; a sample of orbits and the probe never are.
    flags and notes state what the fields say, for the report.
    """

    horizon: int
    stabilization: str | None = None
    degree: int | None = None
    ct: CTCertificate | None = None
    orbits: tuple[OrbitReport, ...] | None = None
    cycle: OrbitReport | None = None
    components: ComponentAnalysis | None = None
    codim: int | None = None
    chi_basis: str | None = None
    probe: QuotientTorReport | str | None = None
    horizons: tuple[tuple[str, int], ...] = ()
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def strength(self, name: str) -> int | None:
        """None when the field is certified, else the horizon it is known to."""
        return dict(self.horizons).get(name)


def _sample_orbits(sigma, ideal, points, horizon):
    """The forward-orbit reports of the sample points against an ideal, and
    the first that meets it infinitely often (None if there is none)."""
    reports = tuple(forward_orbit_hits(p, sigma, ideal, horizon) for p in points)
    return reports, next((r for r in reports if r.verdict == "infinite"), None)


def _probe(scene, quotient, sample_points):
    """Tor over the quotient at Z when Z is a rational point, else at the
    first sample point; or the reason the probe did not run."""
    if reduced_point_of(scene.ideal) is not None:
        p_ideal = scene.ideal
    elif sample_points:
        p_ideal = sample_points[0].ideal(scene.ring)
    else:
        return ("no probe point available: Z is not a single point and no "
                "sample point was declared")
    try:
        return truncated_tor_over_quotient(quotient, scene.ideal, p_ideal,
                                           j_max=PROBE_J_MAX)
    except (UsageError, SceneVerificationError) as exc:
        return f"probe rejected: {exc}"


def _fixed_part(comp):
    """What the W/J split says of the finite-order part J: "none" (no split),
    "empty", "fixed" (by some power of sigma), "never" (by no power,
    certified) or "unknown" (by no power up to the order bound)."""
    if comp is None:
        return "none"
    if comp.J_fixed is None:
        return "empty"
    if comp.J_fixed.order is not None:
        return "fixed"
    return "never" if comp.J_fixed.certified_infinite else "unknown"


def _hypotheses(scene, sample_points, horizon, order_bound,
                ambient_quotient) -> Hypotheses:
    """Compute each hypothesis where a rule reads it, and nothing more: over
    a proper ambient quotient only the probe; otherwise the stabilization
    and the component analysis, then on a stable scene the certificate, the
    orbits against Z and Z's codimension, and on an unstable scene the
    orbits against W when some power of sigma fixes J and W is not empty.

    The stabilization is certified in every degree when it is degenerate,
    or when Z is a single rational point whose support never returns: then
    each I^(sigma^n), n >= 1, is the ideal of another point, and the colon
    of one point's ideal by another's is the first."""
    if ambient_quotient is not None and not ambient_quotient.is_zero_ideal():
        return Hypotheses(horizon, probe=_probe(scene, ambient_quotient, sample_points),
                          horizons=(("probe", PROBE_J_MAX),), notes=(
            "an ambient quotient was supplied: rows other than the "
            "cohomological-dimension probe are not evaluated over a proper quotient",))
    stab = stabilization_degree(scene, horizon)
    comp, notes = None, ()
    try:
        comp = component_analysis(scene, order_bound)
    except UsageError as exc:
        notes = (f"component analysis unavailable: {exc}",)
    if stab.degenerate:
        n = stab.table.index("unit") + 1
        return Hypotheses(horizon, "degenerate", n, components=comp, notes=notes,
                          flags=("fixed-part present", "degenerate: W = X behavior "
                                 f"(the colon is the unit ideal at degree {n})"))
    # the orbits are a sample, and the colon is checked through the horizon
    to_horizon = (("orbits", horizon), ("stabilization", horizon))
    if not stab.stabilized:
        part, orbits, cycle, flags = _fixed_part(comp), None, None, (NOT_FINITELY_GENERATED,)
        if part == "empty":
            flags, notes = (), notes + (
                f"colon not yet stabilized at horizon {horizon}; every component has "
                "moving support, so a larger horizon may settle the table",)
        elif part == "fixed":
            k, flags = comp.J_fixed.order, ("fixed-part present",)
            if comp.W_ideal is None:
                notes += (f"sigma^{k} fixes the finite-order part J, which is all of Z: "
                          "there is no moving part W, and the colon is the unit ideal "
                          f"in every degree divisible by {k}",)
            else:
                notes += (f"sigma^{k} fixes the finite-order part J; the section ring "
                          "is a finite module over an idealizer at the moving part W",)
                orbits, cycle = _sample_orbits(scene.sigma, comp.W_ideal, sample_points,
                                               horizon)
        return Hypotheses(horizon, "unstable", orbits=orbits, cycle=cycle,
                          components=comp, horizons=to_horizon, flags=flags, notes=notes)
    ct = critical_transversality_certificate(scene)
    orbits, cycle = _sample_orbits(scene.sigma, scene.ideal, sample_points, horizon)
    single_point = (comp is not None and len(comp.components) == 1
                    and comp.source in ("point", "declared")
                    and reduced_point_of(comp.components[0].component) is not None)
    if single_point and comp.components[0].radical_order.certified_infinite:
        to_horizon = (("orbits", horizon),)
        notes += ("colon stabilization holds in every positive degree: Z is a single "
                  "rational point whose support never returns "
                  f"({comp.components[0].radical_order.justification})",)
    else:
        notes += (f"colon equals the ideal of Z from degree {stab.n0} through "
                  f"{stab.bound}; degrees beyond the bound are unverified",)
    c = codimension(scene.ideal)
    basis = ("zero-dimensional Z" if c == scene.d
             else "declared Gorenstein Z" if scene.gorenstein_z else None)
    return Hypotheses(horizon, "stable", stab.n0, ct, orbits, cycle, comp, codim=c,
                      chi_basis=basis, horizons=to_horizon, notes=notes)


# ---------------------------------------------------------------------------
# one rule per predicate, and the weakest-link rule
# ---------------------------------------------------------------------------

class _Ruling(NamedTuple):
    """A rule's outcome: the verdict, its detail, and the fields of the
    record it reads (None: the rule's hypotheses are not met).  witness
    backs a refutation; unproven replaces the detail when the row comes out
    heuristic."""

    verdict: str
    detail: str
    reads: tuple[str, ...] | None = None
    witness: str | None = None
    unproven: str | None = None


def _row(predicate, ruling, h) -> ClassificationRow:
    """The weakest-link rule, the one place a row is built.  A ruling that
    reads fields is certified (refuted, for a "no", with its witness) when
    every field it reads is certified, and heuristic at the least horizon
    among them otherwise; one that reads none is not applicable."""
    horizons = [s for s in map(h.strength, ruling.reads or ()) if s is not None]
    kind = ("not-applicable" if ruling.reads is None else "heuristic" if horizons
            else "refuted" if ruling.verdict == "no" else "certified")
    detail = (ruling.unproven or ruling.detail) if kind == "heuristic" else ruling.detail
    return ClassificationRow(predicate, ruling.verdict, detail, Evidence(
        kind, CITATIONS[predicate], min(horizons, default=None),
        ruling.witness if kind == "refuted" else None))


STAB = ("stabilization",)

NOT_STABLE = {
    None: "classification rows are evaluated over the full polynomial coordinate "
          "ring only",
    "degenerate": "the scene degenerates to the twisted coordinate ring in large "
                  "degree; idealizer-specific predicates are not evaluated",
    "unstable": "the colon does not stabilize; predicates assuming a stabilized "
                "idealizer are not evaluated",
}

STRONG_FINITE = ("finite extensions of the strongly noetherian twisted coordinate "
                 "ring of projective space remain strongly noetherian")

HORIZON_TESTED = "colon stabilization itself is horizon-tested"


def _not_stable(h):
    """The not-applicable ruling of a rule that assumes a stabilized
    idealizer, or None on a stable scene."""
    if h.stabilization != "stable":
        return _Ruling("inconclusive", NOT_STABLE[h.stabilization])
    return None


def _premise(h, strong=False):
    """The ruling a noetherian row takes before its own criterion, or None.

    Over an ambient quotient the row is not evaluated.  A degenerate scene
    has Z fixed by sigma^n, so R is a finite module over the twisted
    coordinate ring's subring in degrees divisible by n: "yes", the strong
    rows because finite extensions of a strongly noetherian ring stay
    strongly noetherian.  These rows keep the citation keys of the stable
    criteria, though they argue by that finiteness.  On an unstable scene
    all four rows share one ruling when the W/J split cannot tell them
    apart: no split, only moving components (the horizon is too small to
    see the stable range), or no power of sigma up to the order bound
    fixing J."""
    if h.stabilization is None:
        return _Ruling("inconclusive", NOT_STABLE[None])
    if h.stabilization == "degenerate":
        return _Ruling("yes", STRONG_FINITE if strong else (
            f"Z is fixed by sigma^{h.degree}: the section ring agrees with the full "
            f"twisted coordinate ring in every degree divisible by {h.degree}, and "
            "is a finite module over that subring"), STAB)
    if h.stabilization != "unstable":
        return None
    part, n = _fixed_part(h.components), h.horizon
    if part == "empty":
        return _Ruling("inconclusive", f"colon still exceeds the ideal at degree {n}", STAB)
    if part in ("none", "unknown"):
        return _Ruling("no", "the colon strictly exceeds the ideal of Z at every " + (
            "computed degree and no component split is available" if part == "none"
            else f"degree through {n}, and no power of sigma up to "
            f"{h.components.order_bound} fixes the finite-order part"), STAB)
    return None


def _left_of_unstable(h, detail):
    """A left row of an unstable scene past its premise: "no" when no power
    of sigma fixes J, and not evaluated when one does (the reduction to the
    moving part W is not re-run)."""
    if _fixed_part(h.components) == "never":
        return _Ruling("no", detail, STAB)
    return _Ruling("inconclusive", "the reduction to the moving part is not re-run"
                   if h.components.W_ideal is not None else "Z has no moving part "
                   "to reduce to, and the degrees where the colon is the unit ideal "
                   "lie past the horizon")


def _offending(h):
    """A component of codimension >= 2, when the split shows one."""
    if h.components is None:
        return None
    return next((r for r in h.components.components if r.codimension >= 2), None)


def _right_noetherian(h, strong=False):
    """finite-forward-orbit-criterion.  A stabilized idealizer R is right
    noetherian exactly when every forward sigma-orbit meets Z finitely
    often (Rogalski's point case, J. Algebra 2004).  Finite sampled orbits
    are known to the horizon only.  A sampled orbit that returns along a
    cycle refutes the row without reading the stabilization: to Z when J is
    empty, or to the moving part W when a power of sigma fixes J, since R is
    then a finite module over an idealizer at W.  So does an unstable scene
    whose J no power of sigma fixes, from the components alone: a noetherian
    section ring forces some power to fix J as a scheme.  A degenerate scene
    reads "yes" under this key, though it argues by finiteness over a
    subring (`_premise`).

    With strong, the strongly-right row (strong-right-equals-right-for-
    idealizers): for an idealizer the two properties coincide, so it takes
    this verdict and evidence, with its own detail."""
    if premise := _premise(h, strong):
        return premise
    unstable, comp, cycle = h.stabilization == "unstable", h.components, h.cycle
    if unstable and _fixed_part(comp) == "never":
        offender = next(r for r in comp.components
                        if r.radical_order.order is not None
                        and r.scheme_order.order is None)
        return _Ruling(
            "no", "a noetherian section ring forces some power of sigma to fix the "
            "finite-order part of Z as a scheme", ("components",),
            f"component V({offender.component.gens_text()}) has finite-order "
            f"support (order {offender.radical_order.order}) but no power of sigma "
            f"fixes the component scheme ({offender.scheme_order.justification})")
    if unstable and h.orbits is None:
        return _Ruling("inconclusive", "Z has no moving part: every component has "
                       "finite-order support", STAB)
    target = "the moving part" if unstable else "Z"
    if cycle is not None and (unstable or _fixed_part(comp) == "empty"):
        same = "refuted through the same orbit" + (
            "" if unstable else "; the strong property implies the plain one")
        return _Ruling(
            "no", same if strong else f"a sampled point returns to {target} along a cycle",
            ("components",), f"forward orbit of {cycle.point} meets {target} "
            f"infinitely often (period {cycle.period})")
    n = len(h.orbits)
    if unstable and n:
        return _Ruling("yes", f"{n} sampled orbit(s) meet the moving part finitely "
                       "often; the predicate is sampled only", ("components", "orbits"))
    if unstable:
        return _Ruling("inconclusive", "no sample points declared for the moving part",
                       ("orbits",))
    if cycle is not None:
        verdict, detail = "no", (f"forward orbit of {cycle.point} meets Z infinitely "
                                 "often, but without a component split the hit "
                                 "component cannot be identified")
    elif not n:
        verdict, detail = "inconclusive", ("no sample points declared; the "
                                           "forward-orbit predicate was not sampled")
    elif any(r.verdict == "inconclusive" for r in h.orbits):
        verdict, detail = "inconclusive", (f"{n} sampled orbit(s); at least one scan "
                                           "ends at the horizon without a "
                                           "completeness bound")
    else:
        complete = sum(r.verdict == "certified-finite" for r in h.orbits)
        verdict, detail = "yes", (f"{n} sampled forward orbit(s) meet Z finitely "
                                  f"often ({complete} with completeness bounds); the "
                                  "predicate quantifies over all points and is "
                                  "sampled only")
    if strong:
        detail += "; the two right-noetherian properties coincide for stabilized idealizers"
    return _Ruling(verdict, detail, ("stabilization", "orbits"))


def _left_noetherian(h):
    """critical-transversality-left-noetherian.  A stabilized idealizer R is
    left noetherian exactly when Z is homologically transverse to every
    reduced sigma-invariant subscheme (the `ct-cert` certificate).  On an
    unstable scene whose J no power of sigma fixes, the colon exceeds I in
    every degree checked, so R needs a fresh generator in each, while a left
    noetherian connected graded algebra is finitely generated.  A degenerate
    scene reads "yes" under this key, though it argues by finiteness over a
    subring (`_premise`)."""
    if premise := _premise(h):
        return premise
    if h.stabilization == "unstable":
        return _left_of_unstable(
            h, "the colon strictly exceeds the ideal of Z at every degree through "
            f"{h.horizon}: the section ring needs a fresh generator in each such "
            "degree, while a left noetherian connected graded algebra is finitely "
            "generated")
    ct = h.ct
    if ct.status == "certified":
        return _Ruling("yes", f"Z is homologically transverse to all {ct.checked} "
                       "invariant coordinate-subspace families", ("stabilization", "ct"))
    if ct.status == "refuted":
        witness = (f"invariant subscheme V({ct.witness_ideal.gens_text()}) is not "
                   f"homologically transverse to Z (Tor_{ct.witness_j} survives "
                   "in high degree)")
        detail = "an invariant subscheme obstructs transversality"
        return _Ruling("no", detail, ("stabilization", "ct"), witness,
                       f"{detail} ({witness}); {HORIZON_TESTED}")
    return _Ruling("inconclusive", f"no transversality certificate: {ct.reason}")


def _strongly_left_noetherian(h):
    """pure-codimension-one-and-transversality.  R is strongly left
    noetherian only when it is left noetherian and Z has pure codimension
    1, and the two together suffice.  A degenerate scene reads "yes" under
    this key, though it argues that finite extensions of the strongly
    noetherian twisted coordinate ring stay strongly noetherian
    (`_premise`)."""
    if premise := _premise(h, strong=True):
        return premise
    if h.stabilization == "unstable":
        return _left_of_unstable(h, "follows from the left-noetherian failure")
    ct, offending = h.ct, _offending(h)
    if offending is not None:
        witness = (f"component V({offending.prime.gens_text()}) has codimension "
                   f"{offending.codimension} > 1")
        return _Ruling("no", "strong left noetherian needs Z of pure codimension 1",
                       ("stabilization", "components"), witness,
                       f"{witness}; {HORIZON_TESTED}")
    if ct.status == "refuted":
        return _Ruling("no", "refuted through the left-noetherian obstruction",
                       ("stabilization", "ct"), "not left noetherian: invariant "
                       f"subscheme V({ct.witness_ideal.gens_text()}) obstructs "
                       "transversality")
    if h.components is not None and ct.status == "certified":
        return _Ruling("yes", "Z has pure codimension 1 and the transversality "
                       "certificate holds", ("stabilization", "components", "ct"))
    return _Ruling("inconclusive", "needs both a component split and a "
                   "transversality certificate")


def _fails_left_chi_1(h):
    """idealizer-ext1-growth.  For a stabilized idealizer, B/R is
    infinite-dimensional and embeds into a first Ext group of the scalars
    on the left, so R fails left chi_1."""
    return _not_stable(h) or _Ruling(
        "yes", "the coordinate ring modulo the idealizer is infinite-dimensional "
        "and embeds into a first Ext group against the scalars", STAB)


def _right_chi_levels(h):
    """codimension-chi-threshold.  For a transverse Z of codimension c that
    is zero-dimensional or declared Gorenstein, the row reads "satisfies
    right chi_(c-1), fails right chi_c".  The paper's abstract states
    "satisfies right chi_d (d = codim Z)": which statement the row
    implements, Rogalski's point case or a chi_(d-1) reading, is an open
    mismatch, and the row stays as it is until that is settled."""
    if na := _not_stable(h):
        return na
    ct, c = h.ct, h.codim
    if ct.status != "certified":
        return _Ruling("inconclusive", f"transversality undecided ({ct.status}); "
                       "chi levels not evaluated")
    if h.chi_basis is None:
        return _Ruling("inconclusive", f"fails right chi_{c} (codimension {c}, smooth "
                       "ambient space); the lower level needs a declared Gorenstein "
                       "structure on Z")
    return _Ruling("yes", f"satisfies right chi_{c - 1}, fails right chi_{c} "
                   f"(codimension {c}, {h.chi_basis})", ("stabilization", "ct"))


def _finite_cohomological_dimension(h):
    """subscheme-homological-dimension-criterion.  R has finite right
    cohomological dimension when the subscheme sheaf of Z has finite
    homological dimension, as it does over a regular ambient space, and
    finite left cohomological dimension always.  Over an ambient quotient
    the Tor probe at one point samples the homological dimension through
    PROBE_J_MAX.  A degenerate scene with R = B from degree 1 has finite
    codimension in the twisted coordinate ring, and reads "yes" under this
    key by that finiteness; with its first unit colon at n > 1 the
    codimension is infinite, and the row is not evaluated."""
    probe, n = h.probe, h.degree
    if isinstance(probe, str):
        return _Ruling("inconclusive", probe)
    if probe is not None and probe.infinite_hd_evidence:
        return _Ruling(
            "no", "Tor against the probe point survives through homological degree "
            f"{PROBE_J_MAX}: evidence that the subscheme sheaf has infinite "
            "homological dimension over the quotient, so the right side has "
            "infinite cohomological dimension; the left side stays finite", ("probe",))
    if probe is not None:
        first_zero = next((j for j in sorted(probe.verdicts) if not probe.verdicts[j]), None)
        return _Ruling("yes", "Tor against the probe point dies at homological degree "
                       f"{first_zero}: the subscheme sheaf shows finite homological "
                       "dimension over the quotient", ("probe",))
    if h.stabilization == "degenerate" and n == 1:
        return _Ruling("yes", "finite on both sides: the ring has finite codimension "
                       "in the twisted coordinate ring of a regular ambient space", STAB)
    if h.stabilization == "degenerate":
        # the colon is the unit ideal exactly where sigma^n fixes Z; at every
        # other n it is a proper saturated ideal, whose degree-n piece is proper
        return _Ruling("inconclusive", f"R_n is a proper subspace of B_n whenever {n} "
                       "does not divide n, so the ring has infinite codimension in the "
                       "twisted coordinate ring; whether finite cohomological "
                       "dimension passes to it from the subring in degrees divisible "
                       f"by {n} is not checked")
    return _not_stable(h) or _Ruling(
        "yes", "finite on both sides: the ambient space is regular, so the subscheme "
        "sheaf has a finite resolution; the left side equals the ambient dimension",
        STAB)


def _tensor_square_not_left_noetherian(h):
    """segre-product-obstruction.  When Z has a component of codimension
    >= 2, the Segre square of R idealizes a subscheme with the same defect,
    so it is not left noetherian."""
    if na := _not_stable(h):
        return na
    offending = _offending(h)
    if offending is not None:
        return _Ruling("yes", f"Z has a component of codimension {offending.codimension} "
                       ">= 2, so the Segre square idealizes a subscheme with the same "
                       "defect", ("stabilization", "components"))
    return _Ruling("inconclusive", "no component split available" if h.components is None
                   else "the Segre-square criterion applies only when Z is not of "
                   "pure codimension 1")


_RULES = dict(zip(PREDICATES, (
    _right_noetherian, partial(_right_noetherian, strong=True), _left_noetherian,
    _strongly_left_noetherian, _fails_left_chi_1, _right_chi_levels,
    _finite_cohomological_dimension, _tensor_square_not_left_noetherian,
)))


def classify(scene: IdealizerScene, *, sample_points: tuple = (),
             horizon: int = 20, order_bound: int = 12,
             ambient_quotient: HomIdeal | None = None) -> ClassificationReport:
    """Assemble the eight-row verdict table for a scene: its hypotheses,
    computed once, then one rule per predicate.

    Declared sample points feed the forward-orbit sampling of the
    right-noetherian predicate.  When an ambient quotient is supplied the
    engine only probes the cohomological-dimension row at a declared point;
    the remaining rows are reported not-applicable rather than evaluated
    over the wrong coordinate ring.
    """
    h = _hypotheses(scene, sample_points, horizon, order_bound, ambient_quotient)
    rows = tuple(_row(p, rule(h), h) for p, rule in _RULES.items())
    return ClassificationReport(rows, h.flags, h.notes)
