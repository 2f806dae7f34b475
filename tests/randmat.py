"""Exactly-orthogonal random matrices and hypothesis strategies for the tests.

Orthogonal matrices are built as signed permutations composed with plane
rotations whose cosine/sine come from Pythagorean triples, so every entry is
an exact rational and orthogonality holds on the nose.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from pglrep.clifford import CliffordElement
from pglrep.linalg import RatMatrix

PYTHAGOREAN = (
    (3, 4, 5),
    (5, 12, 13),
    (8, 15, 17),
    (7, 24, 25),
    (20, 21, 29),
    (9, 40, 41),
)


def plane_rotation(n: int, i: int, j: int, triple, transposed=False) -> RatMatrix:
    a, b, h = triple
    c, s = Fraction(a, h), Fraction(b, h)
    if transposed:
        s = -s
    rows = [[Fraction(int(r == q)) for q in range(n)] for r in range(n)]
    rows[i][i] = c
    rows[i][j] = -s
    rows[j][i] = s
    rows[j][j] = c
    return RatMatrix(rows)


def householder(u) -> RatMatrix:
    """The reflection along the nonzero integer vector u."""
    uu = sum(x * x for x in u)
    return RatMatrix(
        [[Fraction(uu * (r == c) - 2 * ur * uc, uu) for c, uc in enumerate(u)]
         for r, ur in enumerate(u)]
    )


def signed_permutation(n: int, perm, signs) -> RatMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for col, (row, sign) in enumerate(zip(perm, signs)):
        rows[row][col] = Fraction(sign)
    return RatMatrix(rows)


def random_orthogonal(rng: random.Random, n: int, rotations: int = 3) -> RatMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    out = signed_permutation(n, perm, signs)
    if n >= 2:
        for _ in range(rotations):
            i, j = rng.sample(range(n), 2)
            out = out * plane_rotation(n, i, j, rng.choice(PYTHAGOREAN))
    return out


def random_special_orthogonal(rng: random.Random, n: int, rotations: int = 3) -> RatMatrix:
    m = random_orthogonal(rng, n, rotations)
    if m.det() == 1:
        return m
    # negating one column flips the determinant and keeps orthogonality
    rows = [list(row) for row in m.rows]
    for r in range(n):
        rows[r][0] = -rows[r][0]
    return RatMatrix(rows)


def random_versor(rng: random.Random, n: int, factors: int | None = None) -> CliffordElement:
    k = rng.randint(1, 4) if factors is None else factors
    out = CliffordElement.scalar(n, 1)
    for _ in range(k):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in coords):
            coords[rng.randrange(n)] = Fraction(1)
        out = out * CliffordElement.vector(n, coords)
    return out


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

nonzero_fractions = small_fractions.filter(lambda q: q != 0)


class FractionSubclass(Fraction):
    """A Fraction subclass, which the constructors read through the general path."""


def _rational_text(sign, zeros, p, q):
    return f"{sign}{'0' * zeros}{p}" if q is None else f"{sign}{'0' * zeros}{p}/{'0' * zeros}{q}"


# every kind of exact entry: "p/q" strings signed, unreduced and with leading zeros
exact_entries = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=50).map(FractionSubclass),
    st.builds(
        _rational_text,
        st.sampled_from(("", "+", "-")),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10**6),
        st.none() | st.integers(min_value=1, max_value=10**4),
    ),
    st.sampled_from(("-0/3", "0/7", "+6/4", "-010/0004")),
)


@st.composite
def rational_tables(draw, n: int) -> list[list[Fraction]]:
    """An n x n table of small fractions with many zeros, so singular
    matrices and zero pivots are common."""
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def orthogonal_matrices(draw, n: int) -> RatMatrix:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rotations = draw(st.integers(min_value=0, max_value=3))
    return random_orthogonal(random.Random(seed), n, rotations)


@st.composite
def multivectors(draw, n: int, max_terms: int = 4) -> CliffordElement:
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        terms[mask] = draw(small_fractions)
    return CliffordElement(n, terms)


@st.composite
def versors(draw, n: int, max_factors: int = 3) -> CliffordElement:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    factors = draw(st.integers(min_value=1, max_value=max_factors))
    return random_versor(random.Random(seed), n, factors)
