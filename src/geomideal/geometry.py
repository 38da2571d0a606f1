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

The critical-transversality certificate asks for homological transversality
against the reduced invariant subschemes — for diagonal sigma with
multiplicatively independent eigenvalue ratios these are exactly the unions
of coordinate subspaces.  A Mayer–Vietoris lemma reduces the unions to their
members, so each coordinate subspace is checked once, and Auslander's depth
formula refutes with no algebra a subspace of codimension above dim Z that
meets Z.  Algebraic independence
of eigenvalues is not available over the rationals; multiplicative
independence of the ratios is the implemented sufficient condition (it makes
the closure of the cyclic group a full torus) and every certificate carries a
note saying so.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import NamedTuple

from . import linalg
from .fields import QQ
from .homology import meets, tor1_sheaf_vanishes
from .idealizer import IdealizerScene
from .polykernel import HomIdeal, PolyRing, Substitution, hilbert_dimension
from .twist import ProjAutomorphism, _dot, _mat_mul, is_scalar_matrix

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


ROOT_CAP = 1000  # integers r >= 1 tried, with -r, as eigenvalues of sigma's scaled matrix


def rational_spectrum(sigma: ProjAutomorphism) -> tuple | None:
    """sigma's eigenvalues with multiplicity when all of them lie in Q, else
    None; None over GF(p) too.

    A diagonal sigma has its entries.  Any other sigma is scaled to the
    primitive integer matrix A = (L/g) * sigma (L the lcm of the entries'
    denominators, g the gcd of the numerators so scaled), whose
    characteristic polynomial is monic over Z by Faddeev-LeVerrier: each
    of its divisions by k is exact, so it runs on ints with //.  Its
    rational roots are then integers dividing the constant coefficient
    (det A up to sign, nonzero), and when every root is real, r^2 <= tr(A^2),
    the sum of their squares.  Candidates: tr(A)/n first (the one
    eigenvalue of a scaled unipotent matrix), then r and -r for
    r = 1, 2, ... while r^2 <= tr(A^2), up to ROOT_CAP, each root found
    divided out by synthetic division.  sigma's eigenvalues are the roots
    times g/L.  A polynomial left with a factor when the candidates run out
    has a root that is not rational, or one past the cap: None."""
    field = sigma.ring.field
    if field.char != 0:
        return None
    if sigma.is_diagonal():
        return sigma.diagonal_entries()
    den = lcm(*(x.denominator for row in sigma.matrix for x in row))
    A = [[x.numerator * (den // x.denominator) for x in row] for row in sigma.matrix]
    g = gcd(*(x for row in A for x in row))
    A = [[x // g for x in row] for row in A]
    n = len(A)
    poly, power = [1], A
    for k in range(1, n + 1):  # power = A M_k: M_1 = I, M_(k+1) = A M_k + c_(n-k) I
        c = -sum(power[i][i] for i in range(n)) // k
        poly.append(c)
        if k < n:
            power = [[sum(a * (b + c * (i == j)) for j, (a, b) in enumerate(zip(row, col)))
                      for i, col in enumerate(zip(*power))] for row in A]
    # tr A = e1 and tr A^2 = e1^2 - 2 e2, for poly = t^n - e1 t^(n-1) + e2 t^(n-2) ...
    trace, sum_squares = -poly[1], poly[1] ** 2 - 2 * poly[2]
    candidates = [trace // n] if trace and trace % n == 0 else []
    candidates += [s * r for r in range(1, min(ROOT_CAP, isqrt(max(sum_squares, 0))) + 1)
                   for s in (1, -1)]
    roots = []
    for r in candidates:
        while len(poly) > 1 and poly[-1] % r == 0:
            quotient = [poly[0]]
            for c in poly[1:]:  # Horner: the last entry is poly(r)
                quotient.append(quotient[-1] * r + c)
            if quotient.pop():
                break
            poly = quotient
            roots.append(field.div(r * g, den))
        if len(poly) == 1:
            return tuple(roots)
    return None


def _unipotent_part(sigma: ProjAutomorphism):
    """(c, N) with sigma = c * (I + N) and N nilpotent, or None: c is
    sigma's one eigenvalue over Q (rational_spectrum), and then N is
    nilpotent by Cayley-Hamilton."""
    spectrum = rational_spectrum(sigma)
    if spectrum is None or len(set(spectrum)) != 1:
        return None
    field, c = sigma.ring.field, spectrum[0]
    N = tuple(tuple(field.sub(field.div(x, c), field.one if i == j else field.zero)
                    for j, x in enumerate(row)) for i, row in enumerate(sigma.matrix))
    return c, N


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


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which each of the given positive
    integers is a product of powers, by gcds alone: a pair with a common
    factor g > 1 is replaced by its two quotients and g, which lowers the
    product of the numbers in play, until no pair has one."""
    base, work = [], [n for n in numbers if n > 1]
    while work:
        a = work.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                work += [x for x in (a // g, b // g, g) if x > 1]
                break
        else:
            base.append(a)
    return base


def _valuation(n: int, q: int) -> int:
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def multiplicative_independence(values) -> MultIndependence:
    """Rank of the multiplicative group the nonzero rationals generate,
    with an integer relation when they are dependent.  The exponents are
    read over a coprime base of the numerators and denominators, with no
    factoring: the base elements have disjoint prime supports, so the
    exponent rows over the base span the rows over the primes, and the
    relations are the same."""
    vals = tuple(Fraction(v) for v in values)
    if any(v == 0 for v in vals):
        raise ValueError("zero entry: multiplicative independence undefined")
    base = _coprime_base([abs(n) for v in vals for n in (v.numerator, v.denominator)])
    # the relations are the left kernel of the exponent matrix (one row per
    # value, one column per base element), and its rank is len(vals) -
    # len(kernel)
    transposed = [[_valuation(v.numerator, q) - _valuation(v.denominator, q) for v in vals]
                  for q in base]
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


def _subspace_ideal(ring: PolyRing, s: tuple[int, ...]) -> HomIdeal:
    """Ideal of the coordinate subspace L_s = V(x_i : i in s), s
    increasing: its generators x_i in Poly.sort_key order, the last first."""
    return HomIdeal.from_ordered(ring, [ring.variable(i) for i in reversed(s)])


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


def _meets_z(I: HomIdeal, dim_z: int):
    """s -> whether L_s = V(x_i : i in s) meets Z = V(I), memoized, for Z
    of dimension dim_z.  Exact rules decide first, and a Groebner basis of
    I + I_L runs only when they do not:

    (a) |s| <= dim Z: L_s has codimension |s|, so it meets Z (the projective
        dimension theorem, Hartshorne I.7.2; dim Z is the degree of the
        Hilbert polynomial).
    (b) some hyperplane H_i, i in s, misses Z: then so does L_s ⊆ H_i.  The
        hyperplanes are tested on demand, stopping at the first that misses.

    A test reads the pure powers among the leading monomials of I + I_L
    (homology.meets), and I keeps that sum per set of normal forms of
    the x_i modulo I (polykernel.ideal_sum): for a point, every hyperplane
    that misses it reduces to the same x_j, and one hyperplane through it
    reduces to zero, so the hyperplane tests of a point run at most one
    Groebner basis.
    """
    ring = I.ring
    known: dict[tuple, bool] = {}

    def meets_subspace(s: tuple[int, ...]) -> bool:
        if s not in known:
            known[s] = len(s) <= dim_z or (
                (len(s) == 1 or all(meets_subspace((i,)) for i in s))
                and meets(I, _subspace_ideal(ring, s)))
        return known[s]

    return meets_subspace


def critical_transversality_certificate(scene: IdealizerScene) -> CTCertificate:
    """Certified iff Z is homologically transverse to every union of
    coordinate subspaces; refuted with the first failing union in report
    order (fewer members first, within a size the smaller subspaces first);
    inconclusive when sigma is outside the classified family or the field has
    positive characteristic.

    Each coordinate subspace L_s is checked once, in report order:
    - Mayer–Vietoris.  Let the unions Y1 and Y2 have the radical monomial
      ideals A and B.  0 → S/(A ∩ B) → S/A ⊕ S/B → S/(A + B) → 0 is exact,
      and A + B is radical monomial, so Y1 ∩ Y2 is again a union of
      coordinate subspaces.  The long exact Tor sequence then makes Z
      transverse to Y1 ∪ Y2 when it is transverse to Y1, Y2 and Y1 ∩ Y2.
      By induction on the members, Z is transverse to every union exactly
      when it is transverse to every L_s.  The single subspaces come first
      in report order, so the first failing union is the first failing L_s,
      and `checked` is its position in _coordinate_subsets.
    - Support.  Supp Tor_j(O_Z, O_Y) ⊆ Z ∩ Y (Serre, Algèbre locale,
      multiplicités; Hartshorne, Algebraic Geometry III.6), so an L_s that
      misses Z is transverse.  Meeting is decided on the subspace lattice
      (_meets_z).
    - Depth.  Let L_s meet Z with |s| > dim Z.  Were they Tor-independent
      at a closed point p of Z ∩ L_s, Auslander's depth formula over the
      regular local ring of P^d at p would give
      depth O_Z + (d - |s|) = d + depth(O_Z ⊗ O_L) >= d, so
      depth O_Z >= |s| > dim Z, which cannot be.  Tor is rigid over a
      regular local ring (Auslander, Illinois J. Math. 1961; Lichtenbaum,
      Illinois J. Math. 1966): once Tor_i vanishes, so does every later Tor.
      So Tor_1 fails, with no algebra.
    Every other L_s that meets Z has |s| <= dim Z and goes to
    homology.tor1_sheaf_vanishes, which does not test again whether it
    meets Z and reads the Tor_1 sheaf alone:
    Tor_1(S/I, S/I_L) ≅ (I ∩ I_L)/(I·I_L) by one Hilbert numerator, which
    by rigidity decides every Tor, with no resolution.  Either way a
    refuted L_s fails at Tor_1, so its witness_j is 1.  A point off every
    coordinate hyperplane checks none.
    Certified, `checked` counts every union, M(d + 1) - 3 by the Dedekind
    numbers.
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
    I = scene.ideal
    dim_z = hilbert_dimension(I.hilbert_numerator(), ring.nvars)[0]
    meets_z = _meets_z(I, dim_z)
    for checked, s in enumerate(_coordinate_subsets(d), 1):
        if not meets_z(s):
            continue
        L = _subspace_ideal(ring, s)
        if len(s) > dim_z or not tor1_sheaf_vanishes(I, L):
            return CTCertificate("refuted", checked, witness_family=(s,),
                                 witness_ideal=L, witness_j=1, notes=notes)
    return CTCertificate("certified", _DEDEKIND[d + 1] - 3, notes=notes)
