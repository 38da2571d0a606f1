"""Graded Tor machinery over the polynomial ring and over its quotients.

Free resolutions are computed by iterated minimal syzygies, to at most
nvars steps.  For ideals I, J and the resolution F of S/I, Tor_j(S/I, S/J)
is the homology of F tensor S/J, whose maps d_j-bar are graded of degree 0.
Let B_j = im d_(j+1) + J*F_j in F_j (B_j = J*F_j past the last map, and
F_(-1) = 0).  The image of d_j-bar is F_(j-1)-bar minus the cokernel
F_(j-1)/B_(j-1), and its kernel is F_j-bar minus that image, so

    HS(Tor_j) = HS(F_j/B_j) + HS(F_(j-1)/B_(j-1)) - HS(F_(j-1)-bar),

where HS(F_(j-1)-bar) is N(S/J)/(1 - u)^nvars times u^a summed over the
generator degrees a of F_(j-1).  A module and its leading-term module share
a Hilbert function (Macaulay), so each cokernel numerator comes from one
reduced module Groebner basis of B_j; the resolution keeps it per J, and
Tor_j and Tor_(j+1) share it.  The Hilbert series of Tor_j is thus one
integer numerator over (1 - u)^nvars, and both the graded dimensions (its
coefficients) and the Hilbert polynomial are read from it.  Summed with
signs, the F_j-bar give the Euler characteristic
sum (-1)^j HS(Tor_j) = N(S/I)*N(S/J)/(1 - u)^nvars, so the Serre total
needs no resolution at all.  Sheafifying is exact, so the sheaf Tor of
the two subscheme structure sheaves vanishes exactly when the Hilbert
polynomial of the graded Tor is identically zero; that is the
transversality criterion used here (insensitive to saturating the inputs).
Transversality asks for Tor modules only when neither of two exact rules
decides: subschemes that do not meet are transverse, and against a
principal J = (f), f of degree e, the one Tor that can survive is
Tor_1 = ((I : f)/I)(-e), the kernel of f on (S/I)(-e), whose series
numerator is the section numerator N(I + f) - (1 - u^e)*N(I) (polykernel).

Over a quotient coordinate ring A = S/Q resolutions are generally infinite.
free_resolution(I, length, modulo=Q) resolves A/IA to the given length with
the same kernel: each map is lifted to S, and its kernel over A is the
preimage of Q times the target.  For Q inside J, F tensor_A A/J is
F tensor_S S/J, so the Tor formula above gives Tor over A unchanged;
tor_from_resolution serves any such J.
When Q = (f) is principal of degree e >= 1, a minimal resolution over A
turns 2-periodic at a matrix factorization of f (Eisenbud, Homological
algebra on a complete intersection, Trans. AMS 1980): at the first square
map d_j with psi = f*d_j^-1 polynomial and no constant entry in d_j or
psi, the next map is psi, the maps d_j and psi then repeat, shifted by e,
and no further preimage is computed.
truncated_tor_over_quotient probes at a rational point P = p on a degree
window and reports which Tor_j are nonzero as sheaves: the sheaf
Tor_j(O_Z, k(P)) is supported at P, so it vanishes exactly when the Hilbert
polynomial of the graded Tor_j is zero.  There S/P is k[t] (x_i -> p_i*t),
so F tensor S/P is a complex of graded free k[t]-modules whose maps are the
scalar matrices d_j(p); Tor at P is read from their ranks, degree by degree,
with no module Groebner run.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import ImproperIntersectionError, SceneVerificationError, UsageError
from .freemod import (
    FreeModule,
    MVec,
    minimal_generators,
    module_groebner,
    preimage_generators,
    submodule_hilbert_numerator,
)
from .linalg import Echelon, det_adjugate, exact_quotient
from .polykernel import (
    HilbertPoly,
    HomIdeal,
    Poly,
    empty_zero_set,
    hilbert_polynomial,
    hilbert_polynomial_from_numerator,
    ideal_sum,
    numerator_add,
    numerator_mul,
    saturate,
    section_numerator,
    series_coefficient,
)


class _GradedMap(NamedTuple):
    source: FreeModule
    target: FreeModule
    columns: tuple[MVec, ...]


class GradedMap(_GradedMap):
    """Map of graded free modules, stored column-wise (column i = image of
    the i-th source generator, an element of the target)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)


class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 -> S/I -> 0 with maps[i] = d_(i+1).  It
    keeps the cokernel numerators it has computed (cokernel_numerator)."""

    def __init__(self, ideal: HomIdeal, modules: tuple[FreeModule, ...],
                 maps: tuple[GradedMap, ...]):
        self.ideal = ideal
        self.modules = modules
        self.maps = maps
        self._cokernels = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ideal, self.modules, self.maps) == (other.ideal, other.modules, other.maps)

    def __repr__(self):
        return (f"FreeResolution(ideal={self.ideal!r}, modules={self.modules!r}, "
                f"maps={self.maps!r})")

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def cokernel_numerator(self, J: HomIdeal, j: int) -> dict[int, int]:
        """Hilbert series numerator of F_j/B_j, B_j = im d_(j+1) + J*F_j
        (J*F_j past the last map; 0 when there is no F_j), from one reduced
        module Groebner basis of B_j, kept per (J.gens, j)."""
        key = (J.gens, j)
        if key not in self._cokernels:
            num = {}
            if 0 <= j <= self.length:
                Fj = self.modules[j]
                bounds = list(self.maps[j].columns) if j < self.length else []
                bounds += _ideal_times_free(J, Fj)
                num = numerator_add(Counter(Fj.degrees), submodule_hilbert_numerator(
                    module_groebner(bounds), Fj), -1)
            self._cokernels[key] = num
        return self._cokernels[key]


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

    Periodic tail.  When Q's reduced basis is one form f of degree e >= 1,
    each new square map d_j, j >= 1 (F_j and F_(j-1) of one rank), is
    tried (_periodic_map): psi = f*d_j^-1 = f*adj(d_j)/det(d_j), with the
    determinant and adjugate from fraction-free elimination
    (linalg.det_adjugate).  psi is taken when det d_j != 0, det d_j divides
    every entry of f*adj(d_j) (linalg.exact_quotient), and no entry of d_j
    or psi is a nonzero constant.  The rest is then written down, with no
    preimage: d_(j+1) = psi, and the tail alternates d_j and psi, sources
    shifted by e per two steps.  S is a domain and d_j*psi = psi*d_j = f*1.
    If d_j*a = f*b, then d_j*(a - psi*b) = 0, so a = psi*b: over A the
    kernel of d_j is the image of psi, and likewise the kernel of psi is
    the image of d_j.  Both have entries of positive degree, so the pair
    is a minimal resolution from j on.  Whenever d_j*d_(j+1) = f*U for an
    invertible U, f*d_j^-1 = d_(j+1)*U^-1 is polynomial with entries of
    positive degree, so such a factorization is found at d_j, before
    d_(j+1) is computed.  Minimal graded resolutions are unique up
    to graded isomorphism, so the generator degrees, and the ranks of
    every d_j at a point of V(Q) degree by degree, are those of the
    step-by-step run.
    """
    ring = I.ring
    Q = HomIdeal(ring, ()) if modulo is None else modulo
    f = None
    if Q.is_zero_ideal():
        length = ring.nvars if length is None else min(length, ring.nvars)
    elif length is None:
        raise ValueError("a resolution over a nonzero quotient needs a length")
    else:
        gb = Q.gens if len(Q.gens) == 1 else Q.groebner()
        if len(gb) == 1 and gb[0].degree:
            f = gb[0].monic()
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
        comps = None if f is None else _periodic_map(maps[-1], f)
        if comps is not None:
            while len(maps) < length:
                src = FreeModule(ring, tuple(a + f.degree for a in modules[-2].degrees))
                maps.append(GradedMap(src, modules[-1], tuple(
                    MVec(modules[-1], c) for c in comps)))
                modules.append(src)
                comps = [c.comps for c in maps[-2].columns]
            break
        kernel = preimage_generators(cols, _ideal_times_free(Q, modules[-2]))
        cols = minimal_generators(kernel, _ideal_times_free(Q, src))
    return FreeResolution(I, tuple(modules), tuple(maps))


def _periodic_map(d: GradedMap, f: Poly) -> list[dict] | None:
    """The components of the columns of psi = f*d^-1 = f*adj(d)/det(d)
    when d is square, det d != 0, det d divides every entry of f*adj(d),
    and no entry of d or of psi is a nonzero constant; else None."""
    r = d.source.rank
    if r != d.target.rank:
        return None
    zero = f.ring.zero()
    det, adj = det_adjugate([[d.columns[c].comps.get(i, zero) for c in range(r)]
                             for i in range(r)])
    if adj is None:
        return None
    psi = [[exact_quotient(f * adj[k][c], det) for k in range(r)] for c in range(r)]
    entries = [p for col in d.columns for p in col.comps.values()]
    entries += [q for col in psi for q in col]
    if any(q is None or q.degree == 0 and not q.is_zero() for q in entries):
        return None
    return [{k: q for k, q in enumerate(col) if not q.is_zero()} for col in psi]


# ---------------------------------------------------------------------------
# graded Tor
# ---------------------------------------------------------------------------

class TorModule(NamedTuple):
    """Tor_j(S/I, S/J) by its Hilbert series numerator over (1 - u)^nvars."""

    j: int
    nvars: int
    numerator: dict[int, int]

    def dimension(self, n: int) -> int:
        return series_coefficient(self.numerator, self.nvars, n)

    def dims(self, lo: int, hi: int) -> list[int]:
        return [self.dimension(n) for n in range(lo, hi + 1)]

    def hilbert_polynomial(self) -> HilbertPoly:
        return hilbert_polynomial_from_numerator(self.numerator, self.nvars)

    def is_sheaf_trivial(self) -> bool:
        """True when the associated sheaf vanishes (Hilbert polynomial 0)."""
        return self.hilbert_polynomial().is_zero()


def tor_from_resolution(res: FreeResolution, J: HomIdeal, j: int) -> TorModule:
    """Tor_j(S/I, S/J) from an already-computed resolution of S/I:
    HS(F_j/B_j) + HS(F_(j-1)/B_(j-1)) - HS(F_(j-1) tensor S/J), with the
    cokernel numerators kept on the resolution (module docstring).

    For a resolution over A = S/Q (free_resolution(..., modulo=Q)) this is
    Tor_j over A of A/IA and A/JA, provided Q lies in J: then
    F tensor_A A/J = F tensor_S S/J, and the complex is the same.
    """
    if j < 0:
        raise ValueError("negative homological degree")
    prev = res.modules[j - 1].degrees if 0 < j <= res.length + 1 else ()
    num = numerator_add(res.cokernel_numerator(J, j), res.cokernel_numerator(J, j - 1))
    num = numerator_add(num, numerator_mul(Counter(prev), J.hilbert_numerator()), -1)
    return TorModule(j, J.ring.nvars, num)


def graded_tor(I: HomIdeal, J: HomIdeal, j: int) -> TorModule:
    """The graded module Tor_j(S/I, S/J), presented exactly."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    res = free_resolution(I, length=j + 1)
    return tor_from_resolution(res, J, j)


class Transversality:
    """Homological transversality of Z = V(I) to many subschemes Y = V(J).

    Each J takes the first of three routes that decides it:

    1. Z and Y do not meet.  A Tor sheaf is supported on the intersection:
       Supp Tor_j(O_Z, O_Y) ⊆ Z ∩ Y (Serre, Algèbre locale, multiplicités;
       Hartshorne, Algebraic Geometry III.6), so they are transverse.
       Whether they meet is read off the pure powers among the leading
       monomials of I + J (polykernel.empty_zero_set), with no Hilbert
       numerator.
    2. J = (f) is principal.  S/(f) has the resolution
       0 → S(−e) → S → S/(f) → 0, so Tor_j = 0 for j ≥ 2, and the Tor_1
       sheaf vanishes exactly when the section numerator (module
       docstring) of the sum I + f that route 1 already computed has the
       zero Hilbert polynomial; a failure has j = 1.
    3. Otherwise Tor_j from a free resolution of I, made on first need and
       kept for every later J.

    I keeps I + J per set of monic normal forms of J's generators
    (polykernel's module docstring, "The memo"), so asking whether Z meets
    Y and then whether it is transverse to Y runs one Groebner basis of
    I + J, and so do the J whose generators reduce alike.
    """

    def __init__(self, I: HomIdeal):
        self.ideal = I
        self._resolution: FreeResolution | None = None

    def meets(self, J: HomIdeal) -> bool:
        """Whether Z and V(J) meet: V(I + J) is not empty."""
        return not empty_zero_set(ideal_sum(self.ideal, J))

    def __call__(self, J: HomIdeal) -> tuple[bool, int | None]:
        """(True, None) when transverse, else (False, the least failing j)."""
        if not self.meets(J):
            return True, None
        gens = J.gens if len(J.gens) == 1 else J.groebner()
        if len(gens) == 1:
            section = section_numerator(self.ideal, ideal_sum(self.ideal, J), gens[0].degree)
            if hilbert_polynomial_from_numerator(section, J.ring.nvars).is_zero():
                return True, None
            return False, 1
        if self._resolution is None:
            self._resolution = free_resolution(self.ideal)
        return transverse_from_resolution(self._resolution, J)


def homologically_transverse(I: HomIdeal, J: HomIdeal) -> tuple[bool, int | None]:
    """Whether the subschemes cut out by I and J are homologically transverse.

    Checks that every sheaf Tor_j for j = 1..nvars vanishes, by the routes
    of Transversality: disjoint, then principal J, then Tor modules from a
    resolution of I.  On failure returns the least failing j.  The verdict
    depends only on the subschemes, not on the chosen (possibly unsaturated)
    defining ideals.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return Transversality(I)(J)


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
    ImproperIntersectionError.  Every Tor_j is annihilated by I + J, so its
    Hilbert polynomial is then constant, and the alternating sum is the
    Hilbert polynomial of the Euler characteristic N(S/I)*N(S/J) over
    (1 - u)^nvars (module docstring): no resolution is made.
    """
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    if hilbert_polynomial(ideal_sum(I, J)).degree() > 0:
        raise ImproperIntersectionError(
            "improper intersection; multiplicity undefined by this operation"
        )
    euler = numerator_mul(I.hilbert_numerator(), J.hilbert_numerator())
    return hilbert_polynomial_from_numerator(euler, I.ring.nvars).constant_value()


def point_coordinates(ideal: HomIdeal) -> list | None:
    """Coordinates of the rational point an ideal cuts out, or None.

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
    return coords


# ---------------------------------------------------------------------------
# truncated Tor over a hypersurface quotient
# ---------------------------------------------------------------------------

class QuotientTorReport(NamedTuple):
    """Degreewise Tor table over A = S/Q in degrees 0..window.

    Every dimension is exact; the window only selects which degrees are
    tabulated.  verdicts[j] is True when the Hilbert polynomial of Tor_j is
    nonzero, that is, when the Tor_j sheaf at the probed point is nonzero.
    """

    window: int
    table: dict[int, list[int]]
    verdicts: dict[int, bool]

    @property
    def infinite_hd_evidence(self) -> bool:
        """All probed Tor_j nonzero: evidence of infinite homological dimension."""
        return bool(self.verdicts) and all(self.verdicts.values())


def truncated_tor_over_quotient(
    ambient_quotient: HomIdeal,
    M_ideal: HomIdeal,
    P_ideal: HomIdeal,
    j_max: int = 6,
) -> QuotientTorReport:
    """Tor_j(A/M, k(P)) over the quotient ring A = S/Q, j = 1..j_max,
    tabulated in degrees 0..window.

    Q = ambient_quotient cuts out the ambient subscheme X inside projective
    space (Q = 0 means X is projective space itself); P_ideal must define a
    rational point p lying on X, so Q lies in P and Tor over A is the
    homology of F tensor S/P, F the free_resolution of A/MA over A lifted to
    S.  S/P is k[t] by x_i -> p_i*t, and F tensor S/P is a complex of graded
    free k[t]-modules with scalar maps d_j(p), so

        dim Tor_j in degree n = #{generators of F_j of degree <= n}
                                - rank_n d_j(p) - rank_n d_(j+1)(p)

    with no Groebner run past the resolution.  The Hilbert polynomial of
    Tor_j is the constant rank F_j - rank d_j(p) - rank d_(j+1)(p), and its
    verdict is whether that is nonzero.  Every dimension is exact, so the
    window only chooses the degrees shown: it is j_max + (max generator
    degree of Q) + (max generator degree of M) + 2.
    """
    Q = ambient_quotient
    P = saturate(P_ideal)
    point = point_coordinates(P)
    if point is None:
        raise UsageError("P_ideal does not define a single rational point")
    for g in Q.gens:
        if not P.contains(g):
            raise SceneVerificationError(
                "point not on the subscheme cut out by the ambient quotient"
            )

    q_deg = max((g.degree for g in Q.gens), default=0)
    m_deg = max((g.degree for g in M_ideal.gens), default=1)
    window = j_max + q_deg + m_deg + 2
    res = free_resolution(M_ideal, j_max + 1, modulo=Q)
    # ranks[k] belongs to d_(k+1); maps past the resolution's end are zero
    ranks = [_ranks_at_point(d, point, window) for d in res.maps]
    ranks += [([0] * (window + 1), 0)] * (j_max + 1 - len(ranks))
    table, verdicts = {}, {}
    for j in range(1, j_max + 1):
        degrees = res.modules[j].degrees if j <= res.length else ()
        (in_n, in_full), (out_n, out_full) = ranks[j - 1], ranks[j]
        table[j] = [sum(a <= n for a in degrees) - in_n[n] - out_n[n]
                    for n in range(window + 1)]
        verdicts[j] = len(degrees) != in_full + out_full
    return QuotientTorReport(window=window, table=table, verdicts=verdicts)


def _ranks_at_point(d: GradedMap, point, window: int) -> tuple[list[int], int]:
    """Ranks of d tensor S/P over S/P = k[t] (x_i -> p_i*t): per degree
    n = 0..window, and in all large degrees.

    An entry f of column c becomes f(p)*t^(deg f), in a row of degree at
    most deg c, so the degree-n piece of the map is spanned by the scalar
    columns f(p) of the source generators of degree at most n.  One echelon
    takes the columns in ascending source degree."""
    field = d.target.ring.field
    ech = Echelon(field, d.target.rank)
    degrees = d.source.degrees
    by_degree = [0] * (window + 1)
    for c in sorted(range(d.source.rank), key=degrees.__getitem__):
        col = {r: x for r, f in d.columns[c].comps.items()
               if not field.is_zero(x := f.evaluate(point))}
        ech.insert(col)
        if degrees[c] <= window:
            by_degree[degrees[c]] = ech.rank
    for n in range(1, window + 1):
        by_degree[n] = max(by_degree[n], by_degree[n - 1])
    return by_degree, ech.rank
