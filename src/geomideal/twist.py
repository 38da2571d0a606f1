"""The Zhang twist of the polynomial ring by a linear automorphism.

sigma is an invertible (d+1)x(d+1) matrix over the base field, acting on
points by p -> M.p and on forms by pullback f -> f(M.x).  The twisted
product on graded pieces is

    a * b = a . (b o sigma^n)      where n = deg(a),

with sigma^n applied to the right-hand factor; degree-0 scalars stay
central and the product is associative.  Scaling the matrix by a nonzero
constant changes nothing at the level of ideals, subschemes, or verdicts
(homogeneous data rescales by a unit).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .polykernel import HomIdeal, Poly, PolyRing, Substitution


@dataclass(frozen=True)
class DegreePiece:
    """Row-reduced basis of one graded component (of B, I, or R)."""

    n: int
    basis: tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class ProjAutomorphism:
    """Linear automorphism of P^d with cached inverse and powers."""

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        field = ring.field
        n = ring.nvars
        matrix = tuple(tuple(row) for row in rows)
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"sigma matrix must be {n}x{n}")
        if linalg.rank(field, [list(r) for r in matrix]) != n:
            raise ValueError("sigma matrix is singular")
        self.matrix = matrix
        self._powers: dict[int, tuple] = {0: _identity(field, n), 1: matrix}
        self._pullbacks: dict[int, Substitution] = {}

    @classmethod
    def from_strings(cls, ring: PolyRing, rows: list[list[str]]) -> "ProjAutomorphism":
        field = ring.field
        parsed = [[field.from_str(e) for e in row] for row in rows]
        return cls(ring, parsed)

    @classmethod
    def diagonal(cls, ring: PolyRing, entries) -> "ProjAutomorphism":
        field = ring.field
        n = ring.nvars
        vals = [field.from_str(e) if isinstance(e, str) else e for e in entries]
        rows = [
            [vals[i] if i == j else field.zero for j in range(n)] for i in range(n)
        ]
        return cls(ring, rows)

    @classmethod
    def identity(cls, ring: PolyRing) -> "ProjAutomorphism":
        return cls(ring, _identity(ring.field, ring.nvars))

    # -- matrix powers ------------------------------------------------------

    def power(self, n: int) -> tuple:
        """M^n, stepping by M or M^-1 from the nearest cached power toward 0."""
        if n in self._powers:
            return self._powers[n]
        field = self.ring.field
        step = 1 if n > 0 else -1
        if step not in self._powers:
            self._powers[step] = _mat_inverse(field, self.matrix)
        k = n
        while k not in self._powers:
            k -= step
        m = self._powers[k]
        while k != n:
            k += step
            m = _mat_mul(field, m, self._powers[step])
            self._powers[k] = m
        return m

    # -- actions ------------------------------------------------------------

    def pullback(self, f: Poly, n: int = 1) -> Poly:
        """f o sigma^n: substitute x_i by the i-th row of M^n applied to x,
        through one monomial image table (Substitution) per n, whose images
        are built on the ring's unit exponent tuples.  A caller that needs
        every n up to N steps with n = 1 (IdealizerScene.pulled_ideal), so
        one table and no power of M serve them all."""
        if n == 0 or f.is_zero():
            return f
        if n not in self._pullbacks:
            ring = self.ring
            is_zero, units = ring.field.is_zero, ring.units
            self._pullbacks[n] = Substitution([
                Poly(ring, {units[j]: c for j, c in enumerate(row) if not is_zero(c)})
                for row in self.power(n)])
        return self._pullbacks[n](f)

    def pullback_ideal(self, I: HomIdeal, n: int = 1) -> HomIdeal:
        """I^{sigma^n}, generator-wise; V(I^{sigma^n}) = sigma^{-n}(V(I)).

        Saturation is preserved (an automorphism fixes the irrelevant ideal).
        """
        if n == 0:
            return I
        return HomIdeal(self.ring, [self.pullback(g, n) for g in I.gens])

    def act_point(self, coords: tuple, n: int = 1) -> tuple:
        """sigma^n(p) as raw coordinates M^n . p (no normalization)."""
        field = self.ring.field
        M = self.power(n)
        return tuple(
            _dot(field, row, coords) for row in M
        )

    def is_diagonal(self) -> bool:
        field = self.ring.field
        return all(
            field.is_zero(c)
            for i, row in enumerate(self.matrix)
            for j, c in enumerate(row)
            if i != j
        )

    def diagonal_entries(self) -> tuple:
        return tuple(self.matrix[i][i] for i in range(self.ring.nvars))

    def __eq__(self, other):
        return (
            isinstance(other, ProjAutomorphism)
            and self.ring == other.ring
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"ProjAutomorphism({self.matrix})"


def _identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def is_scalar_matrix(field, rows) -> bool:
    """True when rows is a nonzero scalar multiple of the identity."""
    diag = rows[0][0]
    return not field.is_zero(diag) and all(
        c == diag if i == j else field.is_zero(c)
        for i, row in enumerate(rows) for j, c in enumerate(row)
    )


def _dot(field, row, vec):
    """Sum of the products a*b, skipping the pairs with a zero entry."""
    acc = field.zero
    for a, b in zip(row, vec):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _mat_mul(field, A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(field, row, col) for col in cols) for row in A)


def _mat_pow(field, M, n):
    """M^n for n >= 1 by repeated squaring."""
    power = None
    while n:
        if n & 1:
            power = M if power is None else _mat_mul(field, power, M)
        n >>= 1
        if n:
            M = _mat_mul(field, M, M)
    return power


def _mat_inverse(field, M):
    n = len(M)
    aug = [list(M[i]) + [field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    reduced, pivots = linalg.rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(reduced[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# twisted elements and the star product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistedElement:
    """Degree-tagged homogeneous form, an element of B_n."""

    degree: int
    poly: Poly

    def __post_init__(self):
        if not self.poly.is_zero() and self.poly.degree != self.degree:
            raise ValueError(
                f"polynomial degree {self.poly.degree} != declared degree {self.degree}"
            )

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        if self.degree != other.degree:
            raise ValueError("cannot add twisted elements of different degrees")
        return TwistedElement(self.degree, self.poly + other.poly)

    def __repr__(self):
        return f"TwistedElement(deg={self.degree}, {self.poly})"


def twist_multiply(a: TwistedElement, b: TwistedElement,
                   sigma: ProjAutomorphism) -> TwistedElement:
    """a * b = a . (b o sigma^deg(a)), of degree deg(a) + deg(b)."""
    twisted = sigma.pullback(b.poly, a.degree)
    return TwistedElement(a.degree + b.degree, a.poly * twisted)

