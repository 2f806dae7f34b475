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

The inner loops of the product and of the factorisation are straight-line
Python, generated once per dimension n <= MAX_DIM and cached: CPython's
dispatch, not the size of the integers, bounds them, and unrolled sums with
the operands in locals save most of it.  Their sources are built from
range(n) alone.

Hot-path tuples are built from lists: that is faster than from a generator,
whose shrunk results CPython's tuple free lists would keep once freed.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import mul

from .frozen import Frozen

Rationalish = int | str | Fraction

# the largest dimension of a product or a factorisation, and so of a
# representation: a product kernel's source grows like n^3, and it takes
# 2.4 ms to generate at 16, 38 ms at 48
MAX_DIM = 16


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
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(value: Rationalish) -> tuple[int, int]:
    """An int, "p/q" string or Fraction as its numerator and positive
    denominator in lowest terms, with no Fraction made on the way: the one
    grammar of exact input.  TypeError for another type or a bool,
    ValueError for another string, ZeroDivisionError for q = 0."""
    if type(value) is int:
        return value, 1
    # an int subclass's ratio is made of plain ints
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return value.as_integer_ratio()
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"not an integer or 'p/q' string: {value!r}")
        p, q = int(match[1]), int(match[2] or 1)
        if not q:
            raise ZeroDivisionError(f"zero denominator in {value!r}")
        g = math.gcd(p, q)
        return p // g, q // g
    raise TypeError(f"not an exact rational: {value!r}")


def _over_one_denominator(entries: list[Rationalish]) -> tuple[list[int], int]:
    """The entries as integers over one positive denominator, in lowest terms
    together, each entry read once by _ratio, in order, so the first bad one
    decides the error.  Only a list of plain ints, or of plain ints and
    Fractions, skips the call per entry."""
    kinds = set(map(type, entries))
    if kinds <= {int}:
        return entries, 1
    if kinds <= {int, Fraction}:
        pairs = [x.as_integer_ratio() for x in entries]
    else:
        pairs = [*map(_ratio, entries)]
    dens = {q for _, q in pairs}
    # the lcm of reduced denominators leaves num / den in lowest terms
    den = math.lcm(*dens)
    scale = {q: den // q for q in dens}
    return [p * scale[q] for p, q in pairs], den


def _iterable(value: object) -> bool:
    try:
        iter(value)
    except TypeError:
        return False
    return True


class RatMatrix(Frozen):
    """Immutable square matrix over the rationals, stored as num / den."""

    _fields = ("num", "den")
    __slots__ = ("n", *_fields)

    def __init__(self, rows: Iterable[Iterable[Rationalish]]):
        if not _iterable(rows):
            raise BadShape(f"a matrix must be a sequence of rows, got {rows!r}")
        flat, ends, shape_error = [], [], None
        for row in rows:
            # iterating a string or bytes row would read it one character or byte at a time
            if isinstance(row, (str, bytes, bytearray)) or not _iterable(row):
                # raised after the entries before it are read, as they come first
                shape_error = BadShape(f"a matrix row must be a sequence of entries, got {row!r}")
                break
            flat.extend(row)
            ends.append(len(flat))
        flat, den = _over_one_denominator(flat)
        if shape_error is not None:
            raise shape_error
        n = len(ends)
        # square: each of the n rows ends n entries after the one before it
        if not n or ends != [*range(n, n * n + 1, n)]:
            raise BadShape("matrix must be square and non-empty")
        self._fill(n, tuple([tuple(flat[i - n : i]) for i in ends]), den)

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
        # range() takes a bool as 0 or 1 and refuses a float with a bare TypeError
        if type(n) is not int:
            raise BadShape(f"identity size must be an int, got {n!r}")
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def diagonal(cls, entries: Sequence[Rationalish]) -> "RatMatrix":
        # as for a row, a string or bytes would be read one character or byte at a time
        if isinstance(entries, (str, bytes, bytearray)) or not isinstance(entries, Sequence):
            raise BadShape(f"a diagonal must be a sequence of entries, got {entries!r}")
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def block_diag(cls, *blocks: "RatMatrix") -> "RatMatrix":
        if not all(isinstance(b, RatMatrix) for b in blocks):
            raise BadShape(f"blocks must be RatMatrix instances, got {blocks!r}")
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


def _generated(name: str, n: int, source: str) -> Callable:
    """The function `name` defined by source, compiled for dimension n, which
    must be an int with 1 <= n <= MAX_DIM (BadShape otherwise): the source is
    built from range(n), and its length grows like a power of n."""
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise BadShape(f"dimension must be an int from 1 to {MAX_DIM}, got {n!r}")
    namespace: dict = {}
    exec(compile(source, f"<{name} kernel, n = {n}>", "exec"), namespace)
    return namespace[name]


@cache
def _product_kernel(n: int) -> Callable[[tuple, tuple], tuple]:
    """lhs rhs for n x n integer tables: rhs is unpacked into locals once and
    each output row is n sums of n products.  Unpacking a table of another
    shape raises ValueError."""
    b = [[f"b{k}_{j}" for j in range(n)] for k in range(n)]
    a = [f"a{k}" for k in range(n)]
    row = ", ".join(" + ".join(f"{a[k]}*{b[k][j]}" for k in range(n)) for j in range(n))
    return _generated("product", n, f"""
def product(lhs, rhs):
    {", ".join(f"({', '.join(r)},)" for r in b)}, = rhs
    return tuple([({row},) for {", ".join(a)}, in lhs])
""")


def integer_product(lhs: tuple, rhs: tuple) -> tuple:
    """The product of two n x n integer tables, n <= MAX_DIM, as a table of
    tuples, not reduced.  BadShape unless both are n x n tables of numbers
    for the same n."""
    try:
        kernel = _product_kernel(len(lhs))
        return kernel(lhs, rhs)
    except BadShape:
        raise
    except (TypeError, ValueError):
        # a non-table, or one of another shape, fails to unpack; a non-number, to multiply
        raise BadShape("the tables are not both n x n tables of numbers for one n") from None


def lowest_terms(num: tuple, den: int) -> tuple[tuple, int]:
    """The integer table num over den divided by their gcd, with one gcd
    pass over the entries, none when den = 1 (so num is not read then)."""
    try:
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                return tuple(tuple([x // g for x in row]) for row in num), den // g
    except TypeError:
        raise BadShape("need a table of ints over an int denominator") from None
    return num, den


@cache
def _reflection_kernel(n: int) -> Callable[[list, int, list, list, int], None]:
    """Reflect cols[j], j = start, ..., n - 1, along the integer vector u of
    norm uu, scaled by uu to stay over Z: a column x with t = u.x != 0
    becomes uu x - 2 t u and dens[j] is multiplied by uu; a column
    orthogonal to u is left as it is."""
    u = [f"u{k}" for k in range(n)]
    x = [f"x{k}" for k in range(n)]
    return _generated("reflect", n, f"""
def reflect(u, uu, cols, dens, start):
    {", ".join(u)}, = u
    for j in range(start, {n}):
        {", ".join(x)}, = cols[j]
        t = {" + ".join(f"{a}*{b}" for a, b in zip(u, x))}
        if t:
            t += t
            cols[j] = [{", ".join(f"uu*{b} - t*{a}" for a, b in zip(u, x))}]
            dens[j] *= uu
""")


def reflection_vectors(a: RatMatrix) -> list[list[int]]:
    """The at most n primitive integer vectors whose reflections multiply to
    a, in order (Cartan-Dieudonne): an even number exactly when det(a) = +1,
    and a Pin(n) lift of a.  NotOrthogonal unless a is exactly orthogonal,
    BadShape when n > MAX_DIM.
    For each i the remaining matrix sends e_i to v, which must be 0 above
    row i and of norm 1; if v != e_i, reflect along v - e_i, which fixes
    e_0, ..., e_(i-1).  Reflections keep inner products, so the checks make
    the columns of a orthonormal, and the reflections reduce a to I.  Each
    column keeps its own denominator, and a column orthogonal to the
    reflection vector is left as it is."""
    if not isinstance(a, RatMatrix):
        raise BadShape(f"need a RatMatrix, got {a!r}")
    reflect = _reflection_kernel(a.n)
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
        reflect(u, sum(map(mul, u, u)), cols, dens, i + 1)
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
    if not isinstance(a, RatMatrix) or not isinstance(b, RatMatrix):
        raise BadShape(f"need two RatMatrix instances, got {a!r} and {b!r}")
    if a.n != b.n:
        raise BadShape(f"size mismatch: {a.n} vs {b.n}")
    return a * b * a.transpose() * b.transpose()
