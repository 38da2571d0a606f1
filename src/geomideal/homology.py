"""Graded Tor machinery over the polynomial ring and over its quotients.

Free resolutions are computed by iterated minimal syzygies, to at most
nvars steps.  For ideals I, J the graded module Tor_j(S/I, S/J) is the
subquotient K'/B' of the j-th resolution step F_j, with

    K' = { v in F_j : d_j(v) in J*F_(j-1) }   (preimage, by elimination)
    B' = im d_(j+1) + J*F_j,

held as the reduced module Groebner bases of K' and B'; the preimage step
returns the basis of K' directly.  A module and its leading-term module
share a Hilbert function (Macaulay), so the Hilbert series of Tor_j is one
integer numerator, the cycle numerator minus the boundary numerator over
(1 - u)^nvars.  Both the graded dimensions (its coefficients) and the
Hilbert polynomial are read from that numerator.  Sheafifying is exact, so the
sheaf Tor of the two subscheme structure sheaves vanishes exactly when the
Hilbert polynomial of the graded Tor is identically zero; that is the
transversality criterion used here (insensitive to saturating the inputs).

Over a quotient coordinate ring A = S/Q resolutions are generally infinite.
free_resolution(I, length, modulo=Q) resolves A/IA to the given length with
the same kernel: each map is lifted to S, and its kernel over A is the
preimage of Q times the target.  For Q inside J the Tor formula above then
gives Tor over A unchanged.  truncated_tor_over_quotient tabulates it at a
rational point P on a degree window and reports which Tor_j are nonzero as
sheaves: the sheaf Tor_j(O_Z, k(P)) is supported at P, so it vanishes
exactly when the Hilbert polynomial of the graded Tor_j is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ImproperIntersectionError, SceneVerificationError, UsageError
from .freemod import (
    FreeModule,
    MVec,
    minimal_generators,
    module_groebner,
    preimage_generators,
    submodule_hilbert_numerator,
)
from .polykernel import (
    HilbertPoly,
    HomIdeal,
    hilbert_polynomial,
    hilbert_polynomial_from_numerator,
    ideal_sum,
    saturate,
    series_coefficient,
)


@dataclass(frozen=True)
class GradedMap:
    """Map of graded free modules, stored column-wise (column i = image of
    the i-th source generator, an element of the target)."""

    source: FreeModule
    target: FreeModule
    columns: tuple[MVec, ...]

    def __post_init__(self):
        for i, col in enumerate(self.columns):
            if col.is_zero():
                continue
            if col.module != self.target:
                raise ValueError("column lives in the wrong module")
            if col.degree != self.source.degrees[i]:
                raise ValueError(
                    f"column {i} has degree {col.degree}, "
                    f"expected {self.source.degrees[i]}"
                )


@dataclass
class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 -> S/I -> 0 with maps[i] = d_(i+1)."""

    ideal: HomIdeal
    modules: tuple[FreeModule, ...]
    maps: tuple[GradedMap, ...]

    @property
    def length(self) -> int:
        return len(self.modules) - 1


def _ideal_times_free(J: HomIdeal, module: FreeModule) -> list[MVec]:
    return [MVec(module, {k: g}) for g in J.gens for k in range(module.rank)]


def free_resolution(I: HomIdeal, length: int | None = None, *,
                    modulo: HomIdeal | None = None) -> FreeResolution:
    """Minimal graded free resolution of A/IA over A = S/Q, Q = modulo
    (A = S when modulo is None or zero), exact, to the requested length.

    Every map is held lifted to S (Eisenbud, Homological algebra on a
    complete intersection, Trans. AMS 1980): over A the kernel of columns
    c_i into F is {a : sum a_i*c_i in Q*F}, a preimage, and the next columns
    are its minimal generators modulo Q times the source.  For Q = 0 the
    preimage is the syzygy module.  Over S the projective dimension is at
    most nvars (Hilbert's syzygy theorem), so no length or a longer one
    resolves to nvars steps; over a nonzero Q the resolution need not end,
    and a length is required.
    """
    ring = I.ring
    Q = HomIdeal(ring, ()) if modulo is None else modulo
    if Q.is_zero_ideal():
        length = ring.nvars if length is None else min(length, ring.nvars)
    elif length is None:
        raise ValueError("a resolution over a nonzero quotient needs a length")
    modules = [FreeModule(ring, (0,))]
    maps: list[GradedMap] = []
    cols = minimal_generators([MVec(modules[0], {0: g}) for g in I.gens],
                              _ideal_times_free(Q, modules[0]))
    while cols and len(maps) < length:
        src = FreeModule(ring, tuple(v.degree for v in cols))
        maps.append(GradedMap(src, modules[-1], tuple(cols)))
        modules.append(src)
        if len(maps) == length:
            break
        kernel = preimage_generators(cols, _ideal_times_free(Q, modules[-2]))
        cols = minimal_generators(kernel, _ideal_times_free(Q, src))
    return FreeResolution(I, tuple(modules), tuple(maps))


# ---------------------------------------------------------------------------
# graded Tor
# ---------------------------------------------------------------------------

@dataclass
class TorModule:
    """Tor_j(S/I, S/J) as the subquotient K'/B' of the ambient step F_j,
    given by the reduced Groebner bases of K' and B'."""

    j: int
    ambient: FreeModule
    _gb_cycles: list = field(repr=False)
    _gb_bounds: list = field(repr=False)
    _num: dict[int, int] | None = field(default=None, repr=False)

    def _numerator(self) -> dict[int, int]:
        """Hilbert series numerator over (1 - u)^nvars: the cycle numerator
        minus the boundary numerator, computed once."""
        if self._num is None:
            num = submodule_hilbert_numerator(self._gb_cycles, self.ambient)
            for a, x in submodule_hilbert_numerator(self._gb_bounds, self.ambient).items():
                num[a] = num.get(a, 0) - x
            self._num = {a: x for a, x in num.items() if x}
        return self._num

    def dimension(self, n: int) -> int:
        return series_coefficient(self._numerator(), self.ambient.ring.nvars, n)

    def dims(self, lo: int, hi: int) -> list[int]:
        return [self.dimension(n) for n in range(lo, hi + 1)]

    def hilbert_polynomial(self) -> HilbertPoly:
        return hilbert_polynomial_from_numerator(self._numerator(), self.ambient.ring.nvars)

    def is_sheaf_trivial(self) -> bool:
        """True when the associated sheaf vanishes (Hilbert polynomial 0)."""
        return self.hilbert_polynomial().is_zero()


def tor_from_resolution(res: FreeResolution, J: HomIdeal, j: int) -> TorModule:
    """Tor_j(S/I, S/J) from an already-computed resolution of S/I.

    For a resolution over A = S/Q (free_resolution(..., modulo=Q)) this is
    Tor_j over A of A/IA and A/JA, provided Q lies in J: then
    F tensor_A A/J = F tensor_S S/J, so the cycles and boundaries below are
    already the ones over A.
    """
    if j < 0:
        raise ValueError("negative homological degree")
    if j == 0:
        F0 = res.modules[0]
        both = list(res.ideal.gens) + list(J.gens)
        return TorModule(0, F0, module_groebner([F0.gen(0)]),
                         module_groebner([MVec(F0, {0: g}) for g in both]))
    if j > res.length:
        return TorModule(j, FreeModule(res.ideal.ring, ()), [], [])
    Fj = res.modules[j]
    dj = res.maps[j - 1]
    # already the reduced Groebner basis of K'
    cycles = preimage_generators(
        list(dj.columns), _ideal_times_free(J, res.modules[j - 1])
    )
    bounds = list(res.maps[j].columns) if len(res.maps) > j else []
    bounds += _ideal_times_free(J, Fj)
    return TorModule(j, Fj, cycles, module_groebner(bounds))


def graded_tor(I: HomIdeal, J: HomIdeal, j: int) -> TorModule:
    """The graded module Tor_j(S/I, S/J), presented exactly."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    res = free_resolution(I, length=j + 1)
    return tor_from_resolution(res, J, j)


def disjoint(I: HomIdeal, J: HomIdeal) -> bool:
    """Whether the subschemes cut out by I and J do not meet, that is,
    whether I + J has the zero Hilbert polynomial."""
    return hilbert_polynomial(ideal_sum(I, J)).is_zero()


def homologically_transverse(I: HomIdeal, J: HomIdeal) -> tuple[bool, int | None]:
    """Whether the subschemes cut out by I and J are homologically transverse.

    Checks that every sheaf Tor_j for j = 1..nvars vanishes, via Hilbert
    polynomials of the graded Tor modules; on failure returns the least
    failing j.  The verdict depends only on the subschemes, not on the
    chosen (possibly unsaturated) defining ideals.

    A Tor sheaf is supported on the intersection: Supp Tor_j(O_Z, O_Y) ⊆
    Z ∩ Y (Serre, Algèbre locale, multiplicités; Hartshorne, Algebraic
    Geometry III.6).  So disjoint subschemes are transverse, and that is
    answered without resolving I.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    if disjoint(I, J):
        return True, None
    return transverse_from_resolution(free_resolution(I), J)


def transverse_from_resolution(res: FreeResolution,
                               J: HomIdeal) -> tuple[bool, int | None]:
    """homologically_transverse(res.ideal, J) from an already-computed
    resolution, so one resolution can be checked against many J."""
    for j in range(1, res.ideal.ring.nvars + 1):
        if not tor_from_resolution(res, J, j).is_sheaf_trivial():
            return False, j
    return True, None


def serre_multiplicity_total(I: HomIdeal, J: HomIdeal) -> Fraction:
    """Total intersection multiplicity: alternating sum over j of the
    (constant) Hilbert polynomials of the Tor_j sheaves.

    Only defined when the intersection is finite; otherwise raises
    ImproperIntersectionError.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    both = ideal_sum(I, J)
    hp0 = hilbert_polynomial(both)
    if hp0.degree() > 0:
        raise ImproperIntersectionError(
            "improper intersection; multiplicity undefined by this operation"
        )
    res = free_resolution(I)
    total = Fraction(0)
    sign = 1
    for j in range(0, I.ring.nvars + 1):
        hp = tor_from_resolution(res, J, j).hilbert_polynomial()
        if hp.degree() > 0:
            raise ImproperIntersectionError(
                "improper intersection; multiplicity undefined by this operation"
            )
        total += sign * hp.constant_value()
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# truncated Tor over a hypersurface quotient
# ---------------------------------------------------------------------------

@dataclass
class QuotientTorReport:
    """Degreewise Tor table over A = S/Q in degrees 0..window.

    Every dimension is exact; the window only selects which degrees are
    tabulated.  verdicts[j] is True when the Hilbert polynomial of Tor_j is
    nonzero, that is, when the Tor_j sheaf at the probed point is nonzero.
    """

    quotient: HomIdeal
    point: HomIdeal
    window: int
    table: dict[int, list[int]]
    verdicts: dict[int, bool]
    notes: tuple[str, ...] = ()

    @property
    def infinite_hd_evidence(self) -> bool:
        """All probed Tor_j nonzero: evidence of infinite homological dimension."""
        return bool(self.verdicts) and all(self.verdicts.values())


def truncated_tor_over_quotient(
    ambient_quotient: HomIdeal,
    M_ideal: HomIdeal,
    P_ideal: HomIdeal,
    j_max: int = 6,
    deg_bound: int | None = None,
) -> QuotientTorReport:
    """Tor_j(A/M, k(P)) over the quotient ring A = S/Q, j = 1..j_max,
    tabulated in degrees 0..window.

    Q = ambient_quotient cuts out the ambient subscheme X inside projective
    space (Q = 0 means X is projective space itself); P_ideal must define a
    rational point lying on X, so Q lies in P and tor_from_resolution reads
    Tor over A off the free_resolution of A/MA over A.  Every dimension is
    exact, and each verdict reads the Hilbert polynomial of the same Tor_j,
    so the window only chooses the degrees shown.  The default window is
    j_max + (max generator degree of Q) + (max generator degree of M) + 2.
    """
    Q = ambient_quotient
    P = saturate(P_ideal)
    hp = hilbert_polynomial(P)
    if hp.degree() != 0 or hp(0) != 1:
        raise UsageError("P_ideal does not define a single rational point")
    for g in Q.gens:
        if not P.contains(g):
            raise SceneVerificationError(
                "point not on the subscheme cut out by the ambient quotient"
            )

    if deg_bound is None:
        q_deg = max((g.degree for g in Q.gens), default=0)
        m_deg = max((g.degree for g in M_ideal.gens), default=1)
        deg_bound = j_max + q_deg + m_deg + 2
    res = free_resolution(M_ideal, j_max + 1, modulo=Q)
    tors = {j: tor_from_resolution(res, P, j) for j in range(1, j_max + 1)}
    table = {j: tor.dims(0, deg_bound) for j, tor in tors.items()}
    verdicts = {j: not tor.is_sheaf_trivial() for j, tor in tors.items()}
    notes = (
        "dimensions exact in every degree; the window selects the degrees "
        "tabulated; verdict True = Tor_j has a nonzero Hilbert polynomial "
        "(nonzero Tor sheaf at the point)",
    )
    return QuotientTorReport(
        quotient=Q,
        point=P,
        window=deg_bound,
        table=table,
        verdicts=verdicts,
        notes=notes,
    )
