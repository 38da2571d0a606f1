"""Graded Tor machinery over the polynomial ring and over hypersurface quotients.

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

Over a quotient coordinate ring A = S/Q resolutions are generally infinite;
truncated_tor_over_quotient builds one degree-by-degree with linear algebra
and reports which Tor_j stay nonzero at the top of the reliable degree
window — finite-length junk concentrated at the cone vertex dies out below
the window top, positive-dimensional (sheaf-level) contributions persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import ImproperIntersectionError, SceneVerificationError, UsageError
from .freemod import (
    FreeModule,
    MVec,
    minimal_generators,
    module_groebner,
    preimage_generators,
    submodule_hilbert_numerator,
    syzygy_generators,
)
from .polykernel import (
    HilbertPoly,
    HomIdeal,
    Poly,
    PolyRing,
    groebner_basis,
    hilbert_polynomial,
    hilbert_polynomial_from_numerator,
    ideal_sum,
    mono_divides,
    monomials_of_degree,
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


def free_resolution(I: HomIdeal, length: int | None = None) -> FreeResolution:
    """Minimal graded free resolution of S/I, exact, to the requested length.

    The projective dimension is at most nvars (Hilbert's syzygy theorem), so
    no length or a longer one resolves to nvars steps.
    """
    ring = I.ring
    length = ring.nvars if length is None else min(length, ring.nvars)
    F0 = FreeModule(ring, (0,))
    modules = [F0]
    maps: list[GradedMap] = []
    if I.is_zero_ideal() or length == 0:
        return FreeResolution(I, tuple(modules), tuple(maps))
    cols = minimal_generators([MVec(F0, {0: g}) for g in I.gens])
    step = 1
    while cols and step <= length:
        src = FreeModule(ring, tuple(v.degree for v in cols))
        maps.append(GradedMap(src, modules[-1], tuple(cols)))
        modules.append(src)
        if step == length:
            break
        syz = syzygy_generators(cols)
        cols = minimal_generators(syz) if syz else []
        step += 1
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


def _ideal_times_free(J: HomIdeal, module: FreeModule) -> list[MVec]:
    return [MVec(module, {k: g}) for g in J.gens for k in range(module.rank)]


def tor_from_resolution(res: FreeResolution, J: HomIdeal, j: int) -> TorModule:
    """Tor_j(S/I, S/J) from an already-computed resolution of S/I."""
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
    """Degreewise Tor table over A = S/Q, reliable for n <= window.

    verdicts[j] is True when Tor_j persists at the top of the window, the
    signature of support away from the cone vertex (sheaf-level nonvanishing
    at the probed point); vertex-supported junk dies out before the top.
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


class _QuotientRing:
    """Degreewise linear-algebra model of A = S/Q and of A/(J)."""

    def __init__(self, ring: PolyRing, mod_gb: list[Poly]):
        self.ring = ring
        self.gb = mod_gb
        self.nf = linalg.NormalForms(ring, mod_gb)
        self._standard: dict[int, tuple[list[tuple], dict]] = {}

    def _standard_monomials(self, n: int) -> tuple[list[tuple], dict]:
        """The degree-n standard monomials of gb and their positions."""
        if n not in self._standard:
            lts = [g.lm() for g in self.gb]
            basis = [m for m in monomials_of_degree(self.ring, n)
                     if not any(mono_divides(lt, m) for lt in lts)]
            self._standard[n] = (basis, {m: i for i, m in enumerate(basis)})
        return self._standard[n]

    def basis(self, n: int) -> list[tuple]:
        return self._standard_monomials(n)[0]

    def vec(self, f: Poly, n: int) -> list:
        """Coordinates of f, already in normal form, on the degree-n basis."""
        field = self.ring.field
        basis, idx = self._standard_monomials(n)
        out = [field.zero] * len(basis)
        for m, c in f.terms.items():
            out[idx[m]] = c
        return out


def _block_vec(qr: _QuotientRing, comps: dict[int, Poly], degrees, n: int) -> list:
    out: list = []
    for k, dk in enumerate(degrees):
        piece = comps.get(k)
        if piece is None or n - dk < 0:
            out.extend([qr.ring.field.zero] * len(qr.basis(n - dk)))
        else:
            out.extend(qr.vec(piece, n - dk))
    return out


def truncated_tor_over_quotient(
    ambient_quotient,
    M_ideal: HomIdeal,
    P_ideal: HomIdeal,
    j_max: int = 6,
    deg_bound: int | None = None,
) -> QuotientTorReport:
    """Degree-truncated Tor_j(A/M, k(P)) over the quotient ring A = S/Q.

    Q = ambient_quotient cuts out the ambient subscheme X inside projective
    space (Q = 0 means X is projective space itself); P_ideal must define a
    rational point lying on X.  A free A-resolution of A/M is grown step by
    step: kernels of each map are found degreewise by exact linear algebra up
    to the truncation bound, and minimal generators of those kernels form the
    next map.  Tensoring with A/P then gives the graded dimension table.  All
    dimensions with n <= deg_bound are exact.

    The default window is j_max + (max generator degree of Q) + (max
    generator degree of M) + 2 — wide enough that vertex-supported junk,
    which climbs roughly one degree per homological step, clears the window
    top before the verdict degrees.
    """
    if isinstance(ambient_quotient, Poly):
        ambient_quotient = HomIdeal(ambient_quotient.ring, (ambient_quotient,))
    Q = ambient_quotient
    ring = M_ideal.ring
    field = ring.field

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
    trunc_bound = deg_bound
    qa = _QuotientRing(ring, list(Q.groebner()))

    i_gens = [qa.nf(g) for g in M_ideal.gens]
    i_gens = [g for g in i_gens if not g.is_zero()]

    # --- grow the A-free resolution of A/IA ---------------------------------
    # maps[s] = (source_degrees, columns) with columns[i] a dict comp -> Poly
    # mapping into the module with degrees maps[s-1].source_degrees (or (0,)).
    target_degrees: tuple[int, ...] = (0,)
    columns: list[dict[int, Poly]] = [{0: g} for g in i_gens]
    source_degrees = tuple(g.degree for g in i_gens)
    resolution = [(target_degrees, source_degrees, columns)]

    for _step in range(1, j_max + 1):
        tdeg, sdeg, cols = resolution[-1]
        gens: list[tuple[int, dict[int, Poly]]] = []  # (degree, comps)
        for n in range(0, trunc_bound + 1):
            # kernel of the map in degree n
            coords: list[tuple[int, tuple]] = []
            rows = []
            for i in range(len(cols)):
                for mu in qa.basis(n - sdeg[i]):
                    image = {
                        k: qa.nf(p, mu) for k, p in cols[i].items()
                    }
                    rows.append(_block_vec(qa, image, tdeg, n))
                    coords.append((i, mu))
            if not coords:
                continue
            # kernel of the map a -> sum a_i * rows[i]: transpose first
            mat = [[row[w] for row in rows] for w in range(len(rows[0]))]
            kern = linalg.kernel_basis(field, mat, len(coords))
            if not kern:
                continue
            # span of A_+ multiples of already-accepted generators, degree n;
            # a kernel vector outside it is a new minimal generator.  The span
            # lies in the kernel, so once their ranks meet nothing is left.
            span = linalg.Echelon(field, len(coords))
            multiples = (
                {k: qa.nf(p, mu) for k, p in comps.items()}
                for d0, comps in gens for mu in qa.basis(n - d0)
            )
            for moved in multiples:
                if span.rank == len(kern):
                    break
                span.insert(_block_vec(qa, moved, sdeg, n))
            for kv in kern:
                if span.rank == len(kern):
                    break
                comps: dict[int, Poly] = {}
                for (i, mu), c in zip(coords, kv):
                    if not field.is_zero(c):
                        comps[i] = comps.get(i, ring.zero()) + ring.monomial(mu, c)
                if span.insert(_block_vec(qa, comps, sdeg, n)):
                    gens.append((n, comps))
        if not gens:
            resolution.append((sdeg, (), []))
            continue
        new_sdeg = tuple(d for d, _ in gens)
        new_cols = [comps for _, comps in gens]
        resolution.append((sdeg, new_sdeg, new_cols))

    # --- tensor with the residue field at P and take degreewise homology ----
    qb = _QuotientRing(ring, groebner_basis(list(Q.gens) + list(P.gens)))
    _rank_cache: dict[tuple[int, int], tuple[int, int]] = {}

    def map_rank(step: int, n: int) -> tuple[int, int]:
        """(domain dimension, rank) of d_(step+1) tensored down, degree n."""
        if (step, n) in _rank_cache:
            return _rank_cache[(step, n)]
        tdeg, sdeg, cols = resolution[step]
        rows = []
        dom = 0
        for i in range(len(cols)):
            for mu in qb.basis(n - sdeg[i]):
                dom += 1
                image = {
                    k: qb.nf(p, mu) for k, p in cols[i].items()
                }
                rows.append(_block_vec(qb, image, tdeg, n))
        out = (dom, linalg.rank(field, rows)) if rows else (0, 0)
        _rank_cache[(step, n)] = out
        return out

    table: dict[int, list[int]] = {}
    for j in range(1, j_max + 1):
        dims = []
        for n in range(0, trunc_bound + 1):
            dom_j, rank_j = map_rank(j - 1, n)
            ker = dom_j - rank_j
            if j < len(resolution):
                _, rank_next = map_rank(j, n)
            else:
                rank_next = 0
            dims.append(ker - rank_next)
        table[j] = dims

    verdicts = {
        j: any(v > 0 for v in dims[-2:]) for j, dims in table.items()
    }
    notes = (
        "dimensions exact for n <= window; verdict True = nonzero at window top "
        "(support off the cone vertex)",
    )
    return QuotientTorReport(
        quotient=Q,
        point=P,
        window=trunc_bound,
        table=table,
        verdicts=verdicts,
        notes=notes,
    )
