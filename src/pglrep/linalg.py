"""Exact rational matrix arithmetic with orthogonality certification.

A matrix is stored as a table of Python integers `num` over one positive
common denominator `den`, kept in lowest terms (the gcd of `den` and every
numerator is 1), so equal matrices have equal storage.  Products, the
factorisation into reflections that certifies a matrix orthogonal, A^T A
and Bareiss determinants all run over Z; a `Fraction` is formed only where
an entry or determinant is handed out.  Inverses of orthogonal matrices are
taken as transposes; a general inverse is deliberately not provided.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import mul

Rationalish = int | str | Fraction


class NotOrthogonal(ValueError):
    """An operation required an exactly orthogonal matrix."""


class BadShape(ValueError):
    """A matrix or a representation has the wrong size or number of parts."""


class Frozen:
    """Base of the immutable value classes, in the manner of a frozen dataclass:
    equality (only with the same class), hash and a `Name(field=value, ...)`
    repr, all over the fields named in `_fields`.  A subclass lists its
    attributes in `__slots__` and sets each one once, in `__init__`, with
    `object.__setattr__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, whose parameters are _fields
        return type(self), self._values()


class OrthComponent(Enum):
    """Connected component of O(n): the rotations or the reflections."""

    SO = "SO"
    O_MINUS = "O-"


def as_fraction(value: Rationalish) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class RatMatrix:
    """Immutable square matrix over the rationals, stored as num / den."""

    __slots__ = ("n", "num", "den")

    def __init__(self, rows: Iterable[Iterable[Rationalish]]):
        table = [[as_fraction(x) for x in row] for row in rows]
        n = len(table)
        if any(len(row) != n for row in table):
            raise BadShape("matrix must be square and non-empty")
        # the lcm of reduced denominators leaves num / den in lowest terms
        den = math.lcm(*(x.denominator for row in table for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in table)
        self._fill(n, num, den)

    def _fill(self, n: int, num: tuple, den: int) -> None:
        if n == 0:
            raise BadShape("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: tuple, den: int) -> "RatMatrix":
        """Wrap an integer table and a denominator already in lowest terms."""
        m = object.__new__(cls)
        m._fill(len(num), num, den)
        return m

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RatMatrix is immutable")

    def __reduce__(self):
        return RatMatrix._of, (self.num, self.den)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def diagonal(cls, entries: Sequence[Rationalish]) -> "RatMatrix":
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def block_diag(cls, *blocks: "RatMatrix") -> "RatMatrix":
        n = sum(b.n for b in blocks)
        # each block is in lowest terms, so over the lcm the whole one is too
        den = math.lcm(*(b.den for b in blocks))
        rows = [[0] * n for _ in range(n)]
        offset = 0
        for b in blocks:
            scale = den // b.den
            for i, row in enumerate(b.num):
                rows[offset + i][offset : offset + b.n] = [x * scale for x in row]
            offset += b.n
        return cls._of(tuple(map(tuple, rows)), den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._of(tuple(zip(*self.num)), self.den)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.n != other.n:
            raise BadShape(f"size mismatch: {self.n} vs {other.n}")
        cols = tuple(zip(*other.num))
        num = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.num)
        den = self.den * other.den
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        return RatMatrix._of(num, den)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(tuple(tuple(-x for x in row) for row in self.num), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix) and self.den == other.den and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    def det(self) -> Fraction:
        """Exact determinant: Bareiss elimination on num, divided by den^n."""
        m = [list(row) for row in self.num]
        n = self.n
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
                if pivot is None:
                    return Fraction(0)
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            top, p = m[k], m[k][k]
            for row in m[k + 1 :]:
                f = row[k]
                # exact: every entry is a (k+1)-minor of num after this step
                row[k + 1 :] = [(a * p - f * b) // prev for a, b in zip(row[k + 1 :], top[k + 1 :])]
            prev = p
        return Fraction(sign * m[n - 1][n - 1], self.den**n)

    def is_orthogonal(self) -> bool:
        """True iff A^T A is exactly the identity, checked as num^T num == den^2 I."""
        cols = tuple(zip(*self.num))
        d2 = self.den * self.den
        for i, ci in enumerate(cols):
            if sum(map(mul, ci, ci)) != d2:
                return False
            for cj in cols[i + 1 :]:
                if sum(map(mul, ci, cj)):
                    return False
        return True


def reflection_vectors(a: RatMatrix) -> list[list[int]]:
    """The at most n primitive integer vectors whose reflections multiply to
    a, in order (Cartan-Dieudonne): an even number exactly when det(a) = +1,
    and a Pin(n) lift of a.  NotOrthogonal unless a is exactly orthogonal.
    For each i the remaining matrix sends e_i to v, which must be 0 above
    row i and of norm 1; if v != e_i, reflect along v - e_i, which fixes
    e_0, ..., e_(i-1).  Reflections keep inner products, so the checks make
    the columns of a orthonormal, and the reflections reduce a to I."""
    den = a.den
    cols = [list(col) for col in zip(*a.num)]
    vectors = []
    for i, w in enumerate(cols):
        if any(w[:i]) or sum(map(mul, w, w)) != den * den:
            raise NotOrthogonal("matrix is not orthogonal")
        # den * (v - e_i) over Z; reflections are scale-free
        w[i] -= den
        if not any(w):
            continue
        content = math.gcd(*w)
        u = [x // content for x in w]
        vectors.append(u)
        uu = sum(x * x for x in u)
        for col in cols[i + 1 :]:
            # uu * (x - 2 (u.x) u / uu), so the denominator becomes den * uu
            t = 2 * sum(map(mul, u, col))
            col[:] = [uu * x - t * y for x, y in zip(col, u)]
        den *= uu
    return vectors


def component(a: RatMatrix) -> OrthComponent:
    """Which component of O(n) the matrix lies in, by its reflection count.

    For n even the quotient to the projective group preserves components,
    so this also decides the component of the projective class.
    """
    return OrthComponent.O_MINUS if len(reflection_vectors(a)) % 2 else OrthComponent.SO


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """A B A^-1 B^-1 for orthogonal A, B (inverses taken as transposes)."""
    if a.n != b.n:
        raise BadShape(f"size mismatch: {a.n} vs {b.n}")
    return a * b * a.transpose() * b.transpose()
