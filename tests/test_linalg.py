import math
import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import chain, permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.linalg import (
    BadShape,
    NotOrthogonal,
    OrthComponent,
    RatMatrix,
    commutator,
    component,
    reflection_vectors,
)

import randmat


def test_is_orthogonal_examples():
    assert RatMatrix.identity(3).is_orthogonal()
    rot = RatMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    assert rot.is_orthogonal()
    assert not RatMatrix([[1, 1], [0, 1]]).is_orthogonal()
    # unit columns that are not perpendicular
    assert not RatMatrix([[1, "3/5"], [0, "4/5"]]).is_orthogonal()


def test_component_examples():
    assert component(RatMatrix.identity(4)) == OrthComponent.SO
    assert component(RatMatrix.diagonal([-1, 1, 1, 1])) == OrthComponent.O_MINUS
    # X_4 is a pair of swaps, an even permutation
    x4 = RatMatrix.block_diag(RatMatrix([[0, 1], [1, 0]]), RatMatrix([[0, 1], [1, 0]]))
    assert component(x4) == OrthComponent.SO


def test_component_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        component(RatMatrix([[1, 1], [0, 1]]))
    # unit columns that are not perpendicular
    with pytest.raises(NotOrthogonal):
        component(RatMatrix([[1, "3/5"], [0, "4/5"]]))


@st.composite
def unit_column_matrices(draw, n):
    """Each column a column of its own random orthogonal matrix: every column
    has norm 1, and most pairs of columns are not perpendicular."""
    cols = []
    for _ in range(n):
        q = draw(randmat.orthogonal_matrices(n))
        cols.append(q.transpose().rows[draw(st.integers(min_value=0, max_value=n - 1))])
    return RatMatrix(zip(*cols))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=6))
def test_reflection_vectors_certify_exactly_the_orthogonal_matrices(data, n):
    a = data.draw(
        st.one_of(
            randmat.rational_tables(n).map(RatMatrix),
            randmat.orthogonal_matrices(n),
            unit_column_matrices(n),
        )
    )
    if not a.is_orthogonal():
        with pytest.raises(NotOrthogonal):
            reflection_vectors(a)
        return
    vectors = reflection_vectors(a)
    assert len(vectors) <= n
    assert len(vectors) % 2 == (0 if a.det() == 1 else 1)
    for u in vectors:
        assert all(type(x) is int for x in u) and math.gcd(*u) == 1
    assert reduce(mul, map(randmat.householder, vectors), RatMatrix.identity(n)) == a


def test_commutator_examples():
    x2 = RatMatrix([[0, 1], [1, 0]])
    xp2 = RatMatrix([[1, 0], [0, -1]])
    assert commutator(RatMatrix.identity(2), xp2) == RatMatrix.identity(2)
    assert commutator(x2, xp2) == -RatMatrix.identity(2)
    y4 = RatMatrix.block_diag(RatMatrix.diagonal([1, -1]), RatMatrix.identity(2))
    yp4 = RatMatrix.block_diag(RatMatrix.diagonal([-1, 1]), RatMatrix.identity(2))
    assert commutator(y4, yp4) == RatMatrix.identity(4)


def test_commutator_size_mismatch():
    with pytest.raises(BadShape):
        commutator(RatMatrix.identity(2), RatMatrix.identity(3))


def test_pickle_round_trip():
    m = RatMatrix([["3/5", "-4/5"], ["4/5", "3/5"]])
    assert pickle.loads(pickle.dumps(m)) == m


@pytest.mark.parametrize("rows", [[], [[1, 0]], [[1, 0], [0]]], ids=["empty", "one-row", "ragged"])
def test_non_square_tables_rejected(rows):
    with pytest.raises(BadShape, match="square and non-empty"):
        RatMatrix(rows)


def test_matrix_equality_and_blocks():
    a = RatMatrix([["1/2", "1/2"], [0, 1]])
    assert a.entry(0, 1) == Fraction(1, 2)
    assert RatMatrix.block_diag(a, RatMatrix.identity(1)).n == 3
    assert a.transpose().transpose() == a


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_det_multiplicative_on_orthogonal_pairs(seed, n):
    rng = random.Random(seed)
    a = randmat.random_orthogonal(rng, n)
    b = randmat.random_orthogonal(rng, n)
    assert (a * b).det() == a.det() * b.det()
    assert a.det() in (1, -1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_commutator_ignores_sign_of_either_factor(seed, n):
    # lift independence: representatives of a projective class differ by -I
    rng = random.Random(seed)
    a = randmat.random_orthogonal(rng, n)
    b = randmat.random_orthogonal(rng, n)
    base = commutator(a, b)
    assert commutator(-a, b) == base
    assert commutator(a, -b) == base
    assert commutator(-a, -b) == base


# ---------------------------------------------------------------------------
# integer storage against a plain-Fraction reference
# ---------------------------------------------------------------------------


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_det(a):
    """Leibniz formula: a signed sum over all permutations."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, col in enumerate(perm):
            term *= a[i][col]
        total += term
    return total


def ref_is_orthogonal(a):
    n = len(a)
    return ref_mul(ref_transpose(a), a) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def as_lists(m):
    return [list(row) for row in m.rows]


def assert_lowest_terms(m):
    assert all(type(x) is int for x in chain.from_iterable(m.num))
    assert m.den > 0
    assert math.gcd(m.den, *chain.from_iterable(m.num)) == 1


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5))
def test_operations_match_fraction_reference(data, n):
    a = data.draw(randmat.rational_tables(n))
    b = data.draw(randmat.rational_tables(n))
    ma, mb = RatMatrix(a), RatMatrix(b)
    for m in (ma, ma * mb, ma.transpose(), -ma):
        assert_lowest_terms(m)
    assert as_lists(ma) == a
    assert all(ma.entry(i, j) == a[i][j] for i in range(n) for j in range(n))
    assert as_lists(ma * mb) == ref_mul(a, b)
    assert as_lists(ma.transpose()) == ref_transpose(a)
    assert as_lists(-ma) == [[-x for x in row] for row in a]
    assert ma.det() == ref_det(a)
    assert ma.is_orthogonal() == ref_is_orthogonal(a)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=5), randmat.nonzero_fractions)
def test_det_with_row_swaps_and_singular_matrices(data, n, q):
    a = data.draw(randmat.rational_tables(n))
    # a zero first pivot over a nonzero entry forces a row swap
    a[0][0], a[n - 1][0] = Fraction(0), q
    assert RatMatrix(a).det() == ref_det(a)
    singular = [row[:] for row in a]
    singular[n - 1] = [q * x for x in singular[0]]
    assert RatMatrix(singular).det() == ref_det(singular) == 0


def test_det_examples():
    assert RatMatrix([[0, 1], [1, 0]]).det() == -1
    assert RatMatrix([[0, 0], [1, 1]]).det() == 0
    assert RatMatrix([["1/2", "1/3"], ["1/4", "1/5"]]).det() == Fraction(1, 60)
    assert RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5), randmat.nonzero_fractions)
def test_orthogonality_certificate(data, n, q):
    m = data.draw(randmat.orthogonal_matrices(n))
    assert m.is_orthogonal() and ref_is_orthogonal(as_lists(m))
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    rows = as_lists(m)
    rows[i][j] += q
    assert RatMatrix(rows).is_orthogonal() == ref_is_orthogonal(rows)
    if i != j:
        # column j replaced by column i: every column still has unit length
        rows = as_lists(m)
        for r in range(n):
            rows[r][j] = rows[r][i]
        assert not RatMatrix(rows).is_orthogonal()
        assert not ref_is_orthogonal(rows)


def test_equal_values_with_different_denominators():
    half = RatMatrix([["2/4", 0], [0, 1]])
    assert half == RatMatrix([["1/2", 0], [0, 1]])
    assert hash(half) == hash(RatMatrix([[Fraction(1, 2), 0], [0, 1]]))
    assert half.den == 2
    product = RatMatrix.diagonal(["1/6", "2/3"]) * RatMatrix.diagonal([3, "3/2"])
    assert product == half and hash(product) == hash(half)
    assert product.num == half.num and product.den == half.den


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=5))
def test_products_reduce_to_the_same_storage(data, n):
    a = RatMatrix(data.draw(randmat.rational_tables(n)))
    q = data.draw(randmat.orthogonal_matrices(n))
    back = a * q * q.transpose()
    assert back == a and hash(back) == hash(a)
    assert (back.num, back.den) == (a.num, a.den)
