"""Degree-by-degree construction of the geometric idealizer inside the twist.

Given the saturated ideal I of a closed subscheme Z of P^d and a linear
automorphism sigma, the degree-n piece of the idealizer is the degree-n part
of the colon ideal (I : I^{sigma^n}); degree 0 is the scalars.  The defining
membership property ("x star I stays in I") is available both as a per-element
finite-horizon oracle and as an exhaustive subspace computation, so the two
routes can be compared exactly on small degrees.

At horizon M both oracles test the generators g of the saturated ideal with
deg g <= M, which is the same condition as testing every form of I_0..I_M:
I_m is spanned by the products s*g with deg g <= m, and x star (s*g) =
s^{sigma^n} * (x star g).  The colon route and the membership route agree
whenever M is at least the maximal generator degree (every generator is then
tested); the oracle is one-sided below that horizon and is documented as such.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SceneVerificationError
from .polykernel import (
    HomIdeal,
    PolyRing,
    degree_piece_basis,
    dim_full_space,
    dim_ideal_piece,
    hilbert_function,
    ideal_equal,
    ideal_quotient,
    intersect,
    saturate,
)
from .twist import DegreePiece, ProjAutomorphism, TwistedElement, _check_exponent


class IdealizerScene:
    """The data (P^d, sigma, Z): ring, automorphism, saturated ideal of Z.

    declared_components, when given, must intersect to the ideal of Z; each
    may carry a declared associated prime (checked to contain the component).
    The scene keeps the colons and pulled-back ideals it has computed.
    """

    def __init__(self, ring: PolyRing, sigma: ProjAutomorphism, ideal: HomIdeal,
                 declared_components: tuple[tuple[HomIdeal, HomIdeal | None], ...] = (),
                 gorenstein_z: bool = False):
        self.ring = ring
        self.sigma = sigma
        self.ideal = ideal
        self.declared_components = declared_components
        self.gorenstein_z = gorenstein_z
        self._colon_cache = {}
        self._pulled_cache = {}
        self.__post_init__()

    def _key(self):
        return (self.ring, self.sigma, self.ideal, self.declared_components,
                self.gorenstein_z)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("IdealizerScene(ring={!r}, sigma={!r}, ideal={!r}, "
                "declared_components={!r}, gorenstein_z={!r})").format(*self._key())

    # its own method, apart from __init__: bench/tracing.py times it by name
    def __post_init__(self):
        if self.ideal.is_zero_ideal():
            raise SceneVerificationError("Z must be a proper nonempty subscheme (zero ideal given)")
        sat = saturate(self.ideal)
        if sat.is_unit():
            raise SceneVerificationError("ideal saturates to the unit ideal (empty Z)")
        self.ideal = sat
        self._verify_components()

    @property
    def d(self) -> int:
        return self.ring.nvars - 1

    def _verify_components(self):
        if not self.declared_components:
            return
        meet = None
        for comp, prime in self.declared_components:
            meet = comp if meet is None else intersect(meet, comp)
            if prime is not None:
                for g in comp.gens:
                    if not prime.contains(g):
                        raise SceneVerificationError(
                            f"declared prime {prime} does not contain component generator {g}"
                        )
        bound = max(self.ideal.max_gen_degree(), meet.max_gen_degree()) + 2
        for n in range(bound + 1):
            if hilbert_function(meet, n) != hilbert_function(self.ideal, n):
                raise SceneVerificationError(
                    "declared components do not intersect to the scene ideal "
                    f"(Hilbert functions diverge at degree {n})"
                )
        if not ideal_equal(meet, self.ideal):
            raise SceneVerificationError(
                "declared components do not intersect to the scene ideal"
            )

    # -- core pieces --------------------------------------------------------

    def pulled_ideal(self, n: int) -> HomIdeal:
        """I^{sigma^n} for n >= 0, cached: the colon and both oracles read it.

        It is stepped, I^{sigma^n} = (I^{sigma^(n-1)})^sigma since
        (f o sigma^(n-1)) o sigma = f o sigma^n, from the largest cached
        degree below n (from I itself when there is none), so a walk over
        n = 1..N pulls each generator back once per degree."""
        _check_exponent(n)
        cache = self._pulled_cache
        k = max((k for k in cache if k <= n), default=0)
        pulled = cache.get(k, self.ideal)
        for k in range(k + 1, n + 1):
            pulled = cache[k] = self.sigma.pullback_ideal(pulled)
        return pulled

    def colon_ideal(self, n: int) -> HomIdeal:
        """(I : I^{sigma^n}), cached; saturated since I is.  A colon equal
        to I, or to a colon already cached, is cached as that ideal itself,
        so equal colons and the oracle's residues share one table of
        monomial normal forms."""
        if n not in self._colon_cache:
            Q = ideal_quotient(self.ideal, self.pulled_ideal(n))
            self._colon_cache[n] = next(
                (P for P in (self.ideal, *self._colon_cache.values()) if P == Q), Q)
        return self._colon_cache[n]


def idealizer_piece(scene: IdealizerScene, n: int) -> DegreePiece:
    """Row-reduced basis of R_n = ((I : I^{sigma^n}))_n; R_0 is the scalars."""
    if n < 0:
        return DegreePiece(n, ())
    if n == 0:
        return DegreePiece(0, (scene.ring.one(),))
    return DegreePiece(n, tuple(degree_piece_basis(scene.colon_ideal(n), n)))


def membership_oracle(x: TwistedElement, scene: IdealizerScene, M: int) -> bool:
    """Finite-horizon test of the defining property: x star I_m inside I_(n+m)
    for all 0 <= m <= M.

    Tests x star g = x . (g o sigma^n) for the generators g of the
    saturated scene ideal with deg g <= M; those span I_0..I_M as a module,
    and x star (s*g) = s^{sigma^n} * (x star g).  The pulled-back
    generators are the scene's (`IdealizerScene.pulled_ideal`), shared with
    the colon.  Exact (two-sided) when M is at least the maximal generator
    degree; otherwise a necessary condition only.
    """
    if x.is_zero() or x.degree == 0:
        return True
    return all(scene.ideal.contains(x.poly * h)
               for h in scene.pulled_ideal(x.degree).gens if h.degree <= M)


def exhaustive_oracle_piece(scene: IdealizerScene, n: int, M: int) -> DegreePiece:
    """The full subspace of B_n passing the membership oracle at horizon M.

    Solves the linear conditions coefficient-wise: for every generator g of
    the saturated ideal with deg g <= M, the product x . (g o sigma^n) must
    reduce to zero modulo I.  That is the condition for every form of
    I_0..I_M, since those are combinations s*g and x star (s*g) =
    s^{sigma^n} * (x star g).  Returns the row-reduced basis, comparable
    with the colon piece.

    The solutions are the annihilator of those products in I's one table
    of monomial normal forms (`linalg.NormalForms.annihilator`, through
    `HomIdeal.normal_forms`): each monomial is reduced once per scene, for
    every degree n and for the colon pieces that equal I's, and the kernel
    comes out as its reduced echelon form.  The pulled-back generators are
    the scene's (`IdealizerScene.pulled_ideal`), shared with the colon;
    g o sigma^n has the degree of g.
    """
    if n == 0:
        return DegreePiece(0, (scene.ring.one(),))
    table = scene.ideal.normal_forms()
    conditions = [(table, f) for f in scene.pulled_ideal(n).gens if f.degree <= M]
    return DegreePiece(n, tuple(table.annihilator(conditions, n)))


def pieces_agree(a: DegreePiece, b: DegreePiece) -> bool:
    """Equality of spanned subspaces (both bases are row-reduced canonical)."""
    if a.n != b.n or a.dimension != b.dimension:
        return False
    return [p.terms for p in a.basis] == [p.terms for p in b.basis]


# ---------------------------------------------------------------------------
# stabilization and Hilbert data
# ---------------------------------------------------------------------------

class StabilizationReport(NamedTuple):
    """Per-degree comparison of the colon ideal with I itself."""

    bound: int
    table: tuple[str, ...]  # status for n = 1..bound: "equal" | "larger" | "unit"
    n0: int | None  # least n0 with colon = I for all n0 <= n <= bound
    degenerate: bool  # some colon is the unit ideal ("fixed-part present")

    @property
    def stabilized(self) -> bool:
        return self.n0 is not None


def stabilization_degree(scene: IdealizerScene, N: int) -> StabilizationReport:
    """Least n0 <= N with (I : I^{sigma^n}) = I for all n in [n0, N].

    A unit colon signals a sigma-invariant (fixed) part of Z; the scene is
    flagged degenerate and classification defers to component analysis.
    """
    statuses = []
    degenerate = False
    for n in range(1, N + 1):
        Q = scene.colon_ideal(n)
        if Q.is_unit():
            statuses.append("unit")
            degenerate = True
        elif ideal_equal(Q, scene.ideal):
            statuses.append("equal")
        else:
            statuses.append("larger")
    n0 = None
    for start in range(1, N + 1):
        if all(s == "equal" for s in statuses[start - 1:]):
            n0 = start
            break
    return StabilizationReport(N, tuple(statuses), n0, degenerate)


class HilbertRow(NamedTuple):
    n: int
    dim_B: int
    dim_I: int
    dim_R: int
    colon_stabilized: bool


def idealizer_hilbert(scene: IdealizerScene, N: int) -> list[HilbertRow]:
    """Dimension table of B_n, I_n, R_n for n = 0..N."""
    rows = [HilbertRow(0, 1, 0, 1, False)]
    for n in range(1, N + 1):
        Q = scene.colon_ideal(n)
        rows.append(
            HilbertRow(
                n,
                dim_full_space(scene.ring, n),
                dim_ideal_piece(scene.ideal, n),
                dim_ideal_piece(Q, n),
                ideal_equal(Q, scene.ideal),
            )
        )
    return rows
