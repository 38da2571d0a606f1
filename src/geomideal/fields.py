"""Exact coefficient fields: the rationals and prime fields.

Scalars are plain Python values; the field objects below bundle the
arithmetic so the rest of the engine never branches on the coefficient type.
No floating point anywhere.

- GF(p): ints in [0, p).
- Q: a canonical int-or-`Fraction` form.  An integral value is a plain
  `int`; only a value with denominator > 1 is a `fractions.Fraction`.  Most
  products in elimination have two integral operands, and int arithmetic
  skips `Fraction`'s dispatch entirely.  The numbers are the same either way
  (`Fraction(n) == n`, equal hashes, equal `str`), so only `repr` tells the
  two forms apart.

Since ``int / int`` is a float, a true division on Q scalars must go through
`RationalField.div` or have a `Fraction` operand.

Integral rows.  Exact linear algebra (`linalg`) works on sparse rows
``{key: int}`` and needs exactly two steps that depend on the field, so
each field has them as methods and no caller branches on the field:

- ``split(row)`` writes a sparse row of scalars as a new row of integral
  numerators over one positive common denominator.  Over Q that is the lcm
  of the entries' denominators; over GF(p) every scalar is already an int,
  so the numerators are the scalars themselves, over 1.
- ``reduce_row(row, den)`` puts an integral row over an integral
  denominator (nonzero entries, den != 0) into canonical form.  Over Q the
  gcd of den and every entry is divided out and den made positive: with
  den = the row's own pivot entry this is the primitive integer row with a
  positive pivot.  Over GF(p) the entries are reduced mod p and multiplied
  by den^-1, zeros dropped, over 1: with den = the pivot entry the row is
  monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# psi_13, the least strong pseudoprime to the 13 bases 2, 3, ..., 41
# (Sorenson and Webster, Math. Comp. 2017): is_prime is exact below it
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2, 3, ..., 41, exact for
    every n < PRIME_BOUND; a larger n raises ValueError.  The 12 bases up to
    37 alone pass psi_12 = 318665857834031151167461 = 399165290221 *
    798330580441."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is not below {PRIME_BOUND}, where "
                         "primality is decided exactly")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _decimal_int(text: str):
    """The value of a plain decimal integer literal (an optional leading "-"
    and `str.isdecimal` digits, surrounding whitespace allowed), else None.
    `int` reads these as `Fraction` does, at a fraction of the cost; every
    other literal is left to `Fraction`, which then accepts or rejects it."""
    s = text.strip()
    digits = s[1:] if s[:1] == "-" else s
    return int(s) if digits.isdecimal() else None


class RationalField:
    """The field Q with int-or-Fraction scalars: int iff integral."""

    name = "rational"
    char = 0

    zero = 0
    one = 1

    def add(self, a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def div(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            if a % b == 0:  # raises ZeroDivisionError when b == 0
                return a // b
            return Fraction(a, b)
        c = a / b
        return c if c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return n

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        return q if q.denominator != 1 else q.numerator

    def from_str(self, text: str):
        n = _decimal_int(text)
        return n if n is not None else self.from_fraction(Fraction(text.strip()))

    def to_str(self, a) -> str:
        return str(a)

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def split(self, row: dict) -> tuple[dict, int]:
        """(nums, den): integral nums with row = nums/den, den the lcm of
        the entries' denominators."""
        den = lcm(*[x.denominator for x in row.values()])
        return {k: x.numerator * (den // x.denominator) for k, x in row.items()}, den

    def reduce_row(self, row: dict, den: int) -> tuple[dict, int]:
        """row/den with the gcd of den and the entries divided out, den > 0."""
        g = gcd(den, *row.values())
        if den < 0:
            g = -g
        return {k: x // g for k, x in row.items()}, den // g

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with int scalars stored as residues in [0, p)."""

    char: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"prime {p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, q: Fraction):
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {q.denominator} is divisible by the modulus {self.p}"
            )
        return q.numerator % self.p * pow(den, self.p - 2, self.p) % self.p

    def from_str(self, text: str):
        n = _decimal_int(text)
        return n % self.p if n is not None else self.from_fraction(Fraction(text.strip()))

    def to_str(self, a) -> str:
        return str(a % self.p)

    def sort_key(self, a):
        return (a % self.p, 1)

    def split(self, row: dict) -> tuple[dict, int]:
        """(a copy of row, 1): residues are their own integral numerators."""
        return dict(row), 1

    def reduce_row(self, row: dict, den: int) -> tuple[dict, int]:
        """The residues of row/den, zeros dropped, over 1."""
        p = self.p
        inv = self.inv(den)
        return {k: r for k, x in row.items() if (r := x * inv % p)}, 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
