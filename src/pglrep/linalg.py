"""Exact rational matrix arithmetic with orthogonality certification.

A matrix is stored as a table of Python integers `num` over one positive
common denominator `den`, kept in lowest terms (the gcd of `den` and every
numerator is 1), so equal matrices have equal storage.  Products (one
kernel, `integer_product`, which `RatMatrix.__mul__` reduces after with
`lowest_terms`), the factorisation into reflections that certifies a
matrix orthogonal, A^T A and Bareiss determinants all run over Z; a
`Fraction` is formed only where an entry or determinant is handed out.
Inverses of orthogonal matrices are taken as transposes; a general inverse
is deliberately not provided.

Hot-path tuples are built from lists: that is faster than from a generator,
whose shrunk results CPython's tuple free lists would keep once freed.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import mul

from .frozen import Frozen

Rationalish = int | str | Fraction


class NotOrthogonal(ValueError):
    """An operation required an exactly orthogonal matrix."""


class BadShape(ValueError):
    """A matrix or a representation has the wrong size or number of parts."""


class OrthComponent(Enum):
    """Connected component of O(n): the rotations or the reflections."""

    SO = "SO"
    O_MINUS = "O-"


# Fraction() alone would also take "1e10000000", " 1", "0.5" and "1_0", and
# an exponent costs time without bound; only integers and "p/q" are exact input
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(value: Rationalish) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact Fraction.  TypeError
    for another type or a bool, ValueError for another string, ZeroDivisionError
    for q = 0."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value):
            return Fraction(value)
        raise ValueError(f"not an integer or 'p/q' string: {value!r}")
    raise TypeError(f"not an exact rational: {value!r}")


class RatMatrix(Frozen):
    """Immutable square matrix over the rationals, stored as num / den."""

    _fields = ("num", "den")
    __slots__ = ("n", *_fields)

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
        return RatMatrix._of(tuple([*zip(*self.num)]), self.den)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.n != other.n:
            raise BadShape(f"size mismatch: {self.n} vs {other.n}")
        return RatMatrix._of(*lowest_terms(integer_product(self.num, other.num), self.den * other.den))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of(tuple(tuple(-x for x in row) for row in self.num), self.den)

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


def integer_product(lhs: tuple, rhs: tuple) -> tuple:
    """The product of two n x n integer tables, as a table of tuples, not
    reduced.  Zero entries are skipped row by row: a row of lhs whose one
    nonzero is a, at column k = row.index(a), is a times row k of rhs, with
    no dot products; every other row takes dot products with the columns."""
    n = len(rhs)
    cols = None
    out = []
    for row in lhs:
        if row.count(0) == n - 1:
            a = sum(row)
            r = rhs[row.index(a)]
            out.append(r if a == 1 else tuple([a * x for x in r]))
        else:
            cols = cols or [*zip(*rhs)]
            out.append(tuple([sum(map(mul, row, col)) for col in cols]))
    return tuple(out)


def lowest_terms(num: tuple, den: int) -> tuple[tuple, int]:
    """The integer table num over den divided by their gcd, with one gcd
    pass over the entries, none when den = 1."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            return tuple(tuple([x // g for x in row]) for row in num), den // g
    return num, den


def reflection_vectors(a: RatMatrix) -> list[list[int]]:
    """The at most n primitive integer vectors whose reflections multiply to
    a, in order (Cartan-Dieudonne): an even number exactly when det(a) = +1,
    and a Pin(n) lift of a.  NotOrthogonal unless a is exactly orthogonal.
    For each i the remaining matrix sends e_i to v, which must be 0 above
    row i and of norm 1; if v != e_i, reflect along v - e_i, which fixes
    e_0, ..., e_(i-1).  Reflections keep inner products, so the checks make
    the columns of a orthonormal, and the reflections reduce a to I.  Each
    column keeps its own denominator, and a column orthogonal to the
    reflection vector is left as it is."""
    cols = [list(col) for col in zip(*a.num)]
    dens = [a.den] * a.n
    vectors = []
    for i, w in enumerate(cols):
        den = dens[i]
        if any(w[:i]) or sum(map(mul, w, w)) != den * den:
            raise NotOrthogonal("matrix is not orthogonal")
        # den * (v - e_i) over Z; reflections are scale-free
        w[i] -= den
        if not any(w):
            continue
        content = math.gcd(*w)
        u = [x // content for x in w]
        vectors.append(u)
        uu = sum(map(mul, u, u))
        for j in range(i + 1, a.n):
            col = cols[j]
            t = sum(map(mul, u, col))
            if t:
                # uu * (x - 2 (u.x) u / uu), so the denominator becomes den_j * uu
                t += t
                cols[j] = [uu * x - t * y for x, y in zip(col, u)]
                dens[j] *= uu
    return vectors


def component(a: RatMatrix) -> OrthComponent:
    """Which component of O(n) the matrix lies in, by its reflection count.

    For n even the quotient to the projective group preserves components,
    so this also decides the component of the projective class.
    """
    return OrthComponent.O_MINUS if len(reflection_vectors(a)) % 2 else OrthComponent.SO


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """A B A^-1 B^-1 for orthogonal A, B (inverses taken as transposes).
    Certification decides the relation without it; the tests compare with it."""
    if a.n != b.n:
        raise BadShape(f"size mismatch: {a.n} vs {b.n}")
    return a * b * a.transpose() * b.transpose()
