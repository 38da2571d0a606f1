"""Orbit dynamics of a linear automorphism and transversality certificates.

Verdicts about forward orbits meeting a subscheme come in two strengths.  A
horizon scan lists the hits n <= horizon exactly.  It walks raw vectors
w_n = M^n p, never normalized: Z has homogeneous generators, so whether
w_n is a hit does not depend on its scale, and the orbit is back at p
exactly when w_n is proportional to p.  On top of that, one
certificate can bound ALL hits: each generator of Z gets a bound per residue
class of n past which its evaluation along the orbit has no zero, and n0 is
the largest over the classes of the least bound over the generators.  For
diagonal sigma the evaluation is an exponential sum with rational bases,
split into the even and odd classes so that every base is positive; once
the dominant term strictly exceeds the rest (a monotone condition, located
by scanning) the class has no further zeros.  For sigma = c * (I + N) with
N nilpotent there is one class: the evaluation is a polynomial in n, whose
integer roots are bounded by the Cauchy bound.  A class on which every
generator vanishes identically hits forever.

The critical-transversality certificate enumerates the reduced invariant
subschemes — for diagonal sigma with multiplicatively independent eigenvalue
ratios these are exactly the unions of coordinate subspaces — and checks
homological transversality against each union.  Algebraic independence of
eigenvalues is not available over the rationals; multiplicative independence
of the ratios is the implemented sufficient condition (it makes the closure
of the cyclic group a full torus) and every certificate carries a note saying
so.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .fields import QQ
from .homology import Transversality
from .idealizer import IdealizerScene
from .polykernel import HomIdeal, PolyRing, Substitution, hilbert_polynomial, monomial_meet
from .twist import ProjAutomorphism, _dot, _mat_mul, _mat_pow, is_scalar_matrix

RATIONAL_SUBSTITUTE_NOTE = (
    "eigenvalue ratios multiplicatively independent used as the rational-"
    "arithmetic substitute for algebraically independent eigenvalues; "
    "characteristic-0 density theorem assumed"
)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class PointSyntaxError(ValueError):
    """A point that does not parse; code is its scene-grammar diagnostic
    (BAD_RATIONAL or BAD_POINT)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class RationalPoint(NamedTuple):
    """Projective point with exact coordinates, first nonzero coordinate 1."""

    field: object
    coords: tuple

    @classmethod
    def of(cls, field, values) -> "RationalPoint":
        vals = [
            field.from_str(v) if isinstance(v, str) else v for v in values
        ]
        pivot = next((v for v in vals if not field.is_zero(v)), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = field.inv(pivot)
        return cls(field, tuple(field.mul(inv, v) for v in vals))

    @classmethod
    def parse(cls, field, text: str, nvars: int | None = None) -> "RationalPoint":
        """Accepts "[a0 : a1 : ... : ad]" (brackets optional), with exactly
        nvars coordinates when nvars is given and at least two otherwise.
        Scene point lines are read here too; a failure is a PointSyntaxError
        carrying its diagnostic code."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        coords = []
        for part in body.split(":"):
            try:
                coords.append(field.from_str(part.strip()))
            except (ValueError, ZeroDivisionError):
                raise PointSyntaxError(
                    "BAD_RATIONAL", f"bad coordinate {part.strip()!r}") from None
        if nvars is None and len(coords) < 2:
            raise PointSyntaxError("BAD_POINT", f"not a projective point: {text!r}")
        if nvars is not None and len(coords) != nvars:
            raise PointSyntaxError(
                "BAD_POINT", f"point has {len(coords)} coordinates, expected {nvars}")
        try:
            return cls.of(field, coords)
        except ValueError as exc:
            raise PointSyntaxError("BAD_POINT", str(exc)) from None

    def apply(self, sigma: ProjAutomorphism, n: int = 1) -> "RationalPoint":
        return RationalPoint.of(self.field, sigma.act_point(self.coords, n))

    def on_subscheme(self, I: HomIdeal) -> bool:
        return all(
            self.field.is_zero(g.evaluate(self.coords)) for g in I.gens
        )

    def ideal(self, ring: PolyRing) -> HomIdeal:
        """The saturated ideal of the point: x_i - p_i x_k, k the pivot."""
        if ring.nvars != len(self.coords):
            raise ValueError("point/ring dimension mismatch")
        k = next(i for i, v in enumerate(self.coords) if not self.field.is_zero(v))
        gens = []
        for i in range(ring.nvars):
            if i == k:
                continue
            gens.append(ring.variable(i) - ring.variable(k).scale(self.coords[i]))
        return HomIdeal(ring, tuple(gens))

    def __str__(self):
        return "[" + " : ".join(self.field.to_str(c) for c in self.coords) + "]"


PERIOD_CAP = 1000  # how far GF(p) orbits and projective orders are scanned


def projective_order(sigma: ProjAutomorphism) -> int | None:
    """Least k >= 1 with sigma^k a scalar matrix, scanning up to PERIOD_CAP
    with a running product; None past the cap.  The scan runs once per
    sigma, which keeps its result."""
    if sigma._projective_order == 0:  # not yet scanned
        sigma._projective_order = _scan_projective_order(sigma)
    return sigma._projective_order


def _scan_projective_order(sigma: ProjAutomorphism) -> int | None:
    field = sigma.ring.field
    power = sigma.matrix
    for k in range(1, PERIOD_CAP + 1):
        if is_scalar_matrix(field, power):
            return k
        power = _mat_mul(field, power, sigma.matrix)
    return None


# ---------------------------------------------------------------------------
# forward orbits
# ---------------------------------------------------------------------------

class OrbitReport(NamedTuple):
    """Where the forward orbit of a point meets a subscheme.

    verdict is one of "certified-finite" (hits complete, none past n0),
    "finite-within-horizon" (scan only, no guarantee beyond), "infinite"
    (periodic orbit hitting, or identically-vanishing evaluation), or
    "inconclusive".  justification tags the certificate route.  first_hit
    is the least hit of an "infinite" periodic orbit whose hits all lie past
    the horizon (hits is empty then), so the verdict still names a witness.
    """

    point: RationalPoint
    horizon: int
    hits: tuple[int, ...]
    verdict: str
    n0: int | None = None
    period: int | None = None
    justification: str | None = None
    notes: tuple[str, ...] = ()
    first_hit: int | None = None


def _diagonal_class_bound(terms: dict, parity: int) -> int | None:
    """Least n with the dominant term strictly exceeding the rest, for the
    subsequence n = parity (mod 2); None when the class sum is identically 0.

    terms maps a rational base r to its coefficient; the class sum is
    sum(c * sign(r)^parity * |r|^n).
    """
    by_abs: dict[Fraction, Fraction] = {}
    for r, c in terms.items():
        s = c if (parity % 2 == 0 or r > 0) else -c
        key = abs(r)
        by_abs[key] = by_abs.get(key, Fraction(0)) + s
    by_abs = {r: c for r, c in by_abs.items() if c != 0}
    if not by_abs:
        return None
    top = max(by_abs)
    rest = [(r / top, abs(c)) for r, c in by_abs.items() if r != top]
    lead = abs(by_abs[top])
    n = 0
    powers = [c for _, c in rest]  # c * rho^n, one multiplication per step
    while sum(powers) >= lead:
        n += 1
        powers = [t * rho for t, (rho, _) in zip(powers, rest)]
    return n


def _orbit_exponential_terms(sigma: ProjAutomorphism, p: RationalPoint,
                             g) -> dict[Fraction, Fraction]:
    """g(sigma^n p) as sum(c * base^n): base per monomial is the eigenvalue
    product, terms with equal bases combined, zero coefficients dropped."""
    lams = sigma.diagonal_entries()
    out: dict[Fraction, Fraction] = {}
    for mono, c in g.terms.items():
        val = c
        base = Fraction(1)
        for i, e in enumerate(mono):
            if e:
                val *= p.coords[i] ** e
                base *= lams[i] ** e
        if val == 0:
            continue
        out[base] = out.get(base, Fraction(0)) + val
    return {b: c for b, c in out.items() if c != 0}


def _unipotent_part(sigma: ProjAutomorphism):
    """(c, N) with sigma = c * (I + N) and N nilpotent, or None, over a field
    of characteristic 0.

    Such a c is the only eigenvalue of sigma, so c = trace / (d + 1)."""
    field = sigma.ring.field
    n = sigma.ring.nvars
    M = sigma.matrix
    trace = field.zero
    for i in range(n):
        trace = field.add(trace, M[i][i])
    if field.is_zero(trace):
        return None
    c = field.div(trace, field.from_int(n))
    N = tuple(tuple(field.sub(field.div(M[i][j], c), field.one if i == j else field.zero)
                    for j in range(n)) for i in range(n))
    nilpotent = all(field.is_zero(e) for row in _mat_pow(field, N, n) for e in row)
    return (c, N) if nilpotent else None


def _orbit_class_bounds(p: RationalPoint, sigma: ProjAutomorphism, Z: HomIdeal):
    """Per generator g of Z, one bound per residue class of n past which
    g(sigma^n p) has no zero (None on a class where g vanishes identically),
    with the route's justification; (None, None) when no route applies.

    Diagonal sigma: the two parity classes of the dominant-term sum.
    sigma = c * (I + N) with N nilpotent: sigma^n p is c^n U^n p with
    U^n = sum_k C(n,k) N^k, so g(U^n p) is a polynomial in n and its
    integer roots lie below the Cauchy bound; one class."""
    field = sigma.ring.field
    if field.char != 0:
        return None, None
    if sigma.is_diagonal():
        terms = [_orbit_exponential_terms(sigma, p, g) for g in Z.gens]
        return [[_diagonal_class_bound(t, parity) for parity in (0, 1)]
                for t in terms], "dominant-term"
    part = _unipotent_part(sigma)
    if part is None:
        return None, None
    N = part[1]
    ring_n = PolyRing(QQ, 1)
    n = ring_n.variable(0)
    coords = [ring_n.zero()] * len(N)
    binom, vec = ring_n.one(), p.coords  # C(n, k) and N^k p
    for k in range(1, len(N) + 1):
        coords = [x + binom.scale(v) for x, v in zip(coords, vec)]
        binom = (binom * (n - ring_n.constant(k - 1))).scale(Fraction(1, k))
        vec = tuple(_dot(field, row, vec) for row in N)
    along = Substitution(coords)
    bounds = []
    for g in Z.gens:
        q = along(g)
        if q.is_zero():
            bounds.append([None])
            continue
        (deg,), top = q.lt()
        lower = max((abs(Fraction(c) / top) for (e,), c in q.terms.items() if e < deg),
                    default=0)
        bounds.append([int(1 + lower) + 1])
    return bounds, "polynomial-growth"


def forward_orbit_hits(p: RationalPoint, sigma: ProjAutomorphism,
                       Z: HomIdeal, horizon: int) -> OrbitReport:
    """Hits {n >= 0 : sigma^n(p) in Z}, with a completeness certificate when
    one of the routes applies.

    The orbit is walked once, on raw vectors w_n = M^n p: one sparse
    matrix-vector product per step, with no normalization, inversion or
    matrix power.  Neither test below depends on the scale of w_n.  A hit
    is g(w_n) = 0 for every generator g, and g(c w) = c^deg(g) g(w) since Z
    has homogeneous generators.  The orbit returns to p exactly when w_n is
    proportional to p, that is w_n[i] = w_n[k] * p[i] for every i, k the
    pivot of p (p[k] = 1).

    Routes, in order: periodicity (orbit revisits p); then one bound per
    residue class of n from _orbit_class_bounds (dominant terms for diagonal
    sigma, signs split by parity; the Cauchy root bound for unipotent sigma
    up to a scalar).  A class on which every generator vanishes identically
    hits forever; otherwise n0 is the largest of the class bounds, each the
    least over the generators, and the same walk goes on to max(horizon, n0)
    to list every hit.  Over GF(p) every orbit is periodic, so the scan
    follows the point's own orbit on to PERIOD_CAP steps (past the horizon)
    and stops when it returns to p; hits are still listed only up to the
    horizon.  The analytic routes need characteristic 0 and are never taken
    there.  Otherwise the verdict is horizon-bounded only.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    field = sigma.ring.field
    add, mul = field.add, field.mul
    matrix = [[(j, c) for j, c in enumerate(row) if c] for row in sigma.matrix]
    gens = [[(c, [(i, e) for i, e in enumerate(m) if e]) for m, c in g.terms.items()]
            for g in Z.gens]
    k = next(i for i, v in enumerate(p.coords) if v)

    def step(w):
        out = []
        for row in matrix:
            acc = field.zero
            for j, c in row:
                acc = add(acc, mul(c, w[j]))
            out.append(acc)
        return out

    def is_hit(w) -> bool:
        for g in gens:
            total = field.zero
            for c, factors in g:
                for i, e in factors:
                    c = mul(c, w[i] ** e)
                total = add(total, c)
            if total:
                return False
        return True

    scan = horizon if field.char == 0 else max(horizon, PERIOD_CAP)

    # scan, watching for periodicity
    orbit = [p.coords]
    period = None
    for n in range(1, scan + 1):
        w = step(orbit[-1])
        if all(x == mul(w[k], v) for x, v in zip(w, p.coords)):
            period = n
            break
        orbit.append(w)

    if period is not None:
        cycle_hits = [n for n, w in enumerate(orbit) if is_hit(w)]
        if cycle_hits:
            hits = tuple(
                n for n in range(horizon + 1) if (n % period) in cycle_hits
            )
            return OrbitReport(p, horizon, hits, "infinite", period=period,
                               justification="periodicity",
                               first_hit=None if hits else cycle_hits[0])
        return OrbitReport(p, horizon, (), "certified-finite", n0=period,
                           period=period, justification="periodicity")

    hits = [n for n, w in enumerate(orbit[:horizon + 1]) if is_hit(w)]

    rows, justification = _orbit_class_bounds(p, sigma, Z)
    if rows is not None:
        classes = [min((b for b in col if b is not None), default=None)
                   for col in zip(*rows)]
        if all(b is None for b in classes):
            # every generator vanishes along the whole orbit
            return OrbitReport(p, horizon, tuple(range(horizon + 1)), "infinite",
                               justification="identically-zero-evaluation")
        if None in classes:
            # one parity class identically zero, the other bounded: the zero
            # class hits forever
            return OrbitReport(p, horizon, tuple(hits), "infinite",
                               justification="identically-zero-evaluation",
                               notes=("one parity class vanishes identically",))
        n0 = max(classes)
        while len(orbit) <= n0:
            orbit.append(step(orbit[-1]))
        hits += [n for n in range(horizon + 1, n0 + 1) if is_hit(orbit[n])]
        return OrbitReport(p, horizon, tuple(hits), "certified-finite",
                           n0=n0, justification=justification)

    verdict = "finite-within-horizon"
    if hits and hits[-1] >= horizon - 1:
        verdict = "inconclusive"
    return OrbitReport(p, horizon, tuple(hits), verdict,
                       notes=("no certificate route for this sigma",))


# ---------------------------------------------------------------------------
# multiplicative independence
# ---------------------------------------------------------------------------

class MultIndependence(NamedTuple):
    """Independence certificate or relation witness for nonzero rationals."""

    rank: int
    independent: bool
    witness: tuple[int, ...] | None  # integer exponents with product 1


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_independence(values) -> MultIndependence:
    vals = tuple(Fraction(v) for v in values)
    if any(v == 0 for v in vals):
        raise ValueError("zero entry: multiplicative independence undefined")
    exps = []
    for v in vals:
        e = _factor(v.numerator)
        for q, k in _factor(v.denominator).items():
            e[q] = e.get(q, 0) - k
        exps.append({q: k for q, k in e.items() if k})
    primes = tuple(sorted({q for e in exps for q in e}))
    # the relations are the left kernel of the exponent matrix (one row per
    # value, one column per prime), and its rank is len(vals) - len(kernel)
    transposed = [[e.get(q, 0) for e in exps] for q in primes]
    kern = linalg.kernel_basis(QQ, transposed, len(vals))
    rank = len(vals) - len(kern)
    if not kern:
        return MultIndependence(rank, True, None)

    vec = kern[0]
    denom = lcm(*(c.denominator for c in vec))
    ints = [int(c * denom) for c in vec]
    g = gcd(*ints)
    witness = [c // g for c in ints]
    # fix the sign: if the product is -1, squaring the relation kills it
    prod_sign = 1
    for v, e in zip(vals, witness):
        if v < 0 and e % 2:
            prod_sign = -prod_sign
    if prod_sign < 0:
        witness = [2 * e for e in witness]
    check = Fraction(1)
    for v, e in zip(vals, witness):
        check *= v ** e
    if check != 1:
        raise AssertionError("relation witness failed verification")
    return MultIndependence(rank, False, tuple(witness))


# ---------------------------------------------------------------------------
# invariant coordinate subschemes
# ---------------------------------------------------------------------------

# M(n), the Dedekind numbers: antichains of subsets of an n-set, the empty
# antichain and {empty set} included.  Dropping those two and {the whole set}
# leaves the M(d + 1) - 3 proper unions of coordinate subspaces of P^d.
_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354, 2414682040998,
             56130437228687557907788, 286386577668298411128469151667598498812366)


def _coordinate_subsets(d: int) -> list[tuple[int, ...]]:
    """Proper nonempty subsets of {0..d} in report order: larger subsets
    (smaller subspaces) first, then lexicographic."""
    return [s for size in range(d, 0, -1) for s in combinations(range(d + 1), size)]


def _antichains(subsets):
    """The nonempty antichains of the distinct sets `subsets`, in report
    order: fewer members first, then lexicographically by position.

    `subsets` is read lazily, so each singleton is yielded before the next
    subset is drawn.  Level k + 1 extends each antichain of level k by the
    later subsets incomparable with all its members, kept as a bitmask.
    """
    seen = []
    for s in subsets:
        seen.append(s)
        yield (s,)
    sets = [set(s) for s in seen]
    later = [sum(1 << j for j, t in enumerate(sets) if j > i and not (s <= t or t <= s))
             for i, s in enumerate(sets)]
    level = [((s,), later[i]) for i, s in enumerate(seen)]
    while level:
        nxt = []
        for fam, free in level:
            rest = free
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nxt.append((fam + (seen[j],), free & later[j]))
                yield nxt[-1][0]
        level = nxt


def _family_ideal(ring: PolyRing, family) -> HomIdeal:
    """Ideal of a union of coordinate subspaces: the intersection of the
    monomial ideals (x_i : i in s), generated by the minimal lcm's of one
    variable from each member."""
    monos = reduce(monomial_meet, [[ring.units[i] for i in s] for s in family])
    return HomIdeal(ring, [ring.monomial(m) for m in monos])


def _ratio_gate(sigma: ProjAutomorphism) -> bool:
    """Whether sigma is diagonal over Q with distinct, multiplicatively
    independent eigenvalue ratios; the unions of coordinate subspaces are
    then exactly its reduced invariant subschemes (the ambient space and the
    empty scheme, both transverse to everything, left out)."""
    if not sigma.is_diagonal() or sigma.ring.field.char != 0:
        return False
    lams = sigma.diagonal_entries()
    if len(set(lams)) != len(lams):
        return False
    ratios = [Fraction(lam) / lams[0] for lam in lams[1:]]
    return multiplicative_independence(ratios).independent


# ---------------------------------------------------------------------------
# critical transversality
# ---------------------------------------------------------------------------

class CTCertificate(NamedTuple):
    """Outcome of checking Z against every reduced invariant subscheme."""

    status: str  # "certified" | "refuted" | "inconclusive"
    checked: int
    witness_family: tuple | None = None
    witness_ideal: HomIdeal | None = None
    witness_j: int | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()


def _meets_z(transversality: Transversality):
    """s -> whether L_s = V(x_i : i in s) meets Z = V(transversality.ideal),
    memoized.  Exact rules decide first, and a Groebner basis of I + I_L
    runs only when they do not:

    (a) |s| <= dim Z: L_s has codimension |s|, so it meets Z (the projective
        dimension theorem, Hartshorne I.7.2; dim Z is the degree of the
        Hilbert polynomial).
    (b) some hyperplane H_i, i in s, misses Z: then so does L_s ⊆ H_i.  The
        hyperplanes are tested on demand, stopping at the first that misses.

    A test reads the pure powers among the leading monomials of I + I_L
    (Transversality.meets), and I keeps that sum per set of normal forms of
    the x_i modulo I (polykernel.ideal_sum): for a point, every hyperplane
    that misses it reduces to the same x_j, and one hyperplane through it
    reduces to zero, so the hyperplane tests of a point run at most one
    Groebner basis.
    """
    dim_z = hilbert_polynomial(transversality.ideal).degree()
    ring = transversality.ideal.ring
    known: dict[tuple, bool] = {}

    def meets(s: tuple[int, ...]) -> bool:
        if s not in known:
            known[s] = len(s) <= dim_z or (
                (len(s) == 1 or all(meets((i,)) for i in s))
                and transversality.meets(_family_ideal(ring, (s,))))
        return known[s]

    return meets


def critical_transversality_certificate(scene: IdealizerScene) -> CTCertificate:
    """Certified iff Z is homologically transverse to every union of
    coordinate subspaces; refuted with the first failing union (smaller
    unions first, within a size the smaller subspaces first); inconclusive
    when sigma is outside the classified family or the field has positive
    characteristic.

    Three rules spare the algebra, and none changes a verdict or witness:
    - A Tor sheaf is supported on the intersection: Supp Tor_j(O_Z, O_Y) ⊆
      Z ∩ Y (Serre, Algèbre locale, multiplicités; Hartshorne, Algebraic
      Geometry III.6).  Let Y' be the sub-union of the members of Y that
      meet Z.  On the open complement of the other members, which contains
      Z, Y and Y' agree, so they have the same Tor sheaves and the same least
      failing j; an empty Y' is transverse.  Whether a coordinate subspace
      meets Z is decided on the subspace lattice (_meets_z), once each.
    - A Y' made only of hyperplanes is the hypersurface V(prod x_i), settled
      by Hilbert numerators with no resolution (Transversality, route 2).
    - Z is resolved only when a Y' that is not a hypersurface meets it, and
      then once; each Y' is checked once.
    So only the unions of subspaces that meet Z are walked, in report order,
    and the first of them that fails is the first failing union: a failing
    union's sub-union Y' fails too and comes no later (it has fewer members,
    or is that union).  A point off every coordinate hyperplane walks none.
    Certified, `checked` counts every union, M(d + 1) - 3 by the Dedekind
    numbers; refuted, it is the witness's position among all unions.
    """
    sigma, ring = scene.sigma, scene.ring
    d = scene.d
    notes = (RATIONAL_SUBSTITUTE_NOTE,)
    if ring.field.char != 0:
        return CTCertificate("inconclusive", 0,
                             reason="characteristic-0 theorem assumed",
                             notes=notes)
    if not sigma.is_diagonal() or d > 3 or not _ratio_gate(sigma):
        return CTCertificate("inconclusive", 0,
                             reason="invariant family not classified",
                             notes=notes)
    subsets = _coordinate_subsets(d)
    transverse = Transversality(scene.ideal)
    meets = _meets_z(transverse)
    for fam in _antichains(s for s in subsets if meets(s)):
        ok, j = transverse(_family_ideal(ring, fam))
        if not ok:
            checked = next(n for n, f in enumerate(_antichains(subsets), 1) if f == fam)
            return CTCertificate("refuted", checked, witness_family=fam,
                                 witness_ideal=_family_ideal(ring, fam),
                                 witness_j=j, notes=notes)
    return CTCertificate("certified", _DEDEKIND[d + 1] - 3, notes=notes)
