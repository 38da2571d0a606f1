"""The Zhang twist of the polynomial ring by a linear automorphism.

sigma is an invertible (d+1)x(d+1) matrix over the base field, acting on
points by p -> M.p and on forms by pullback f -> f(M.x).  The twisted
product on graded pieces is

    a * b = a . (b o sigma^n)      where n = deg(a),

with sigma^n applied to the right-hand factor; degree-0 scalars stay
central and the product is associative.  Scaling the matrix by a nonzero
constant changes nothing at the level of ideals, subschemes, or verdicts
(homogeneous data rescales by a unit).

Only the powers sigma^n with n >= 0 act: the product above and the
idealizer's colons (I : I^{sigma^n}) need no other, and sigma^n acts as n
steps of sigma, on forms and on points alike.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .polykernel import HomIdeal, Poly, PolyRing, Substitution


class DegreePiece(NamedTuple):
    """Row-reduced basis of one graded component (of B, I, or R)."""

    n: int
    basis: tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class ProjAutomorphism:
    """Linear automorphism of P^d and its action by sigma^n, n >= 0.

    Holds the matrix and one monomial image table (Substitution) for sigma
    itself, built on the first pullback; sigma^n acts as n steps of sigma,
    so no power of the matrix is formed or kept.  It also keeps
    geometry.projective_order's result for this sigma, on first use (0
    until then; the order itself is at least 1, or None past the scan)."""

    __slots__ = ("ring", "matrix", "_pullback", "_projective_order")

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        field = ring.field
        n = ring.nvars
        matrix = tuple(tuple(row) for row in rows)
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"sigma matrix must be {n}x{n}")
        self.matrix = matrix
        if self.is_diagonal():
            singular = any(map(field.is_zero, self.diagonal_entries()))
        else:
            singular = linalg.rank(field, [list(r) for r in matrix]) != n
        if singular:
            raise ValueError("sigma matrix is singular")
        self._pullback = None  # sigma's Substitution, built on the first pullback
        self._projective_order = 0  # not yet scanned

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
        field, n = ring.field, ring.nvars
        return cls(ring, [[field.one if i == j else field.zero for j in range(n)]
                          for i in range(n)])

    # -- actions ------------------------------------------------------------

    def pullback(self, f: Poly, n: int = 1) -> Poly:
        """f o sigma^n: n substitutions of x_i by the i-th row of M applied
        to x, on sigma's one table, since (f o sigma^(k-1)) o sigma =
        f o sigma^k."""
        _check_exponent(n)
        if n and self._pullback is None:
            ring = self.ring
            is_zero, units = ring.field.is_zero, ring.units
            self._pullback = Substitution([
                Poly(ring, {units[j]: c for j, c in enumerate(row) if not is_zero(c)})
                for row in self.matrix])
        for _ in range(n):
            f = self._pullback(f)
        return f

    def pullback_ideal(self, I: HomIdeal, n: int = 1) -> HomIdeal:
        """I^{sigma^n}, generator-wise; V(I^{sigma^n}) = sigma^{-n}(V(I)).

        The pullbacks keep I's order and need no check: sigma is
        invertible, so the pullback of a nonzero form is a nonzero form of
        its degree.  Saturation is preserved (an automorphism fixes the
        irrelevant ideal).
        """
        _check_exponent(n)
        if n == 0:
            return I
        return HomIdeal.from_ordered(self.ring, [self.pullback(g, n) for g in I.gens])

    def act_point(self, coords: tuple, n: int = 1) -> tuple:
        """sigma^n(p) as raw coordinates M^n . p, by n products with M (no
        normalization)."""
        _check_exponent(n)
        field = self.ring.field
        for _ in range(n):
            coords = tuple(_dot(field, row, coords) for row in self.matrix)
        return coords

    def is_diagonal(self) -> bool:
        is_zero = self.ring.field.is_zero
        return all(is_zero(c) for i, row in enumerate(self.matrix)
                   for c in row[:i] + row[i + 1:])

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


def _check_exponent(n):
    if n < 0:
        raise ValueError(f"sigma acts by its powers n >= 0, not n = {n}")


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


# ---------------------------------------------------------------------------
# twisted elements and the star product
# ---------------------------------------------------------------------------

class _TwistedElement(NamedTuple):
    degree: int
    poly: Poly


class TwistedElement(_TwistedElement):
    """Degree-tagged homogeneous form, an element of B_n."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.poly.is_zero() and self.poly.degree != self.degree:
            raise ValueError(
                f"polynomial degree {self.poly.degree} != declared degree {self.degree}"
            )
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)

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

