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

from pglrep.clifford import (
    CliffordElement,
    commutator_product,
    lift_factors,
    lift_orthogonal,
    twisted_conjugation_matrix,
)
from pglrep.linalg import (
    MAX_DIM,
    BadShape,
    NotOrthogonal,
    OrthComponent,
    RatMatrix,
    commutator,
    component,
    integer_product,
    lowest_terms,
    reflection_vectors,
    _reflection_kernel,
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


@pytest.mark.parametrize(
    "make,error,match",
    [
        (lambda: RatMatrix.identity(2) * RatMatrix.identity(3), BadShape, "size mismatch: 2 vs 3"),
        (lambda: RatMatrix([[0.5]]), TypeError, "not an exact rational"),
        (lambda: RatMatrix([[True]]), TypeError, "not an exact rational"),
        (lambda: RatMatrix([[None]]), TypeError, "not an exact rational"),
        # iterated, a str row yields its characters and a bytes row its byte values
        (lambda: RatMatrix(["12", "34"]), BadShape, "row must be a sequence of entries"),
        (lambda: RatMatrix([b"1"]), BadShape, "row must be a sequence of entries"),
        (lambda: RatMatrix([bytearray(b"1")]), BadShape, "row must be a sequence of entries"),
        # likewise a str or bytes diagonal: "12" would be diag(1, 2) and b"12" diag(49, 50)
        (lambda: RatMatrix.diagonal("12"), BadShape, "diagonal must be a sequence of entries"),
        (lambda: RatMatrix.diagonal(b"12"), BadShape, "diagonal must be a sequence of entries"),
        (lambda: RatMatrix.identity(True), BadShape, "identity size must be an int"),
        (lambda: RatMatrix.identity(2.0), BadShape, "identity size must be an int"),
        # a non-iterable table or row
        (lambda: RatMatrix(5), BadShape, "matrix must be a sequence of rows, got 5"),
        (lambda: RatMatrix(None), BadShape, "matrix must be a sequence of rows, got None"),
        (lambda: RatMatrix([[1, 0], 5]), BadShape, "row must be a sequence of entries, got 5"),
        (lambda: reflection_vectors(None), BadShape, "need a RatMatrix, got None"),
        # the cold constructors and the reference commutator
        (lambda: RatMatrix.diagonal(None), BadShape, "diagonal must be a sequence of entries, got None"),
        (lambda: RatMatrix.diagonal(5), BadShape, "diagonal must be a sequence of entries, got 5"),
        (lambda: RatMatrix.block_diag(None), BadShape, "blocks must be RatMatrix instances"),
        (lambda: commutator(None, None), BadShape, "need two RatMatrix instances"),
        # no rows: each reaches the emptiness check of RatMatrix._fill
        (lambda: RatMatrix.identity(0), BadShape, "square and non-empty"),
        (lambda: RatMatrix.identity(-1), BadShape, "square and non-empty"),
        (lambda: RatMatrix.block_diag(), BadShape, "square and non-empty"),
        # the reference algebra's entry points
        (lambda: lift_factors(None), BadShape, "need a RatMatrix, got None"),
        (lambda: lift_orthogonal(None), BadShape, "need a RatMatrix, got None"),
        (lambda: twisted_conjugation_matrix(None), ValueError, "need a CliffordElement, got None"),
        (lambda: commutator_product(None), ValueError, "even-length list of lifts"),
        (lambda: commutator_product([None, None]), ValueError, "CliffordElement or a sequence"),
        (lambda: commutator_product("ab"), ValueError, "CliffordElement or a sequence"),
        (lambda: CliffordElement.vector(4, None), ValueError, "need 4 coordinates, got None"),
    ],
    ids=[
        "matmul-size", "float", "bool", "none", "str-rows", "bytes-row", "bytearray-row",
        "str-diagonal", "bytes-diagonal", "bool-identity", "float-identity", "int-table",
        "none-table", "int-row", "reflect-none", "none-diagonal", "int-diagonal",
        "none-block", "commutator-none", "zero-identity", "negative-identity", "no-blocks",
        "lift-factors-none", "lift-orthogonal-none", "twisted-none", "commutator-product-none",
        "commutator-product-none-lifts", "commutator-product-str", "vector-none",
    ],
)
def test_mismatched_sizes_and_non_rationals_rejected(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_pickle_round_trip():
    m = RatMatrix([["3/5", "-4/5"], ["4/5", "3/5"]])
    assert pickle.loads(pickle.dumps(m)) == m


@pytest.mark.parametrize(
    "rows",
    # the last table has n² entries in n rows, but not n in each
    [[], [[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0], [0, 1, 0, 0, 1]]],
    ids=["empty", "one-row", "ragged", "ragged-n-squared-entries"],
)
def test_non_square_tables_rejected(rows):
    with pytest.raises(BadShape, match="square and non-empty"):
        RatMatrix(rows)


@pytest.mark.parametrize("text", ["0.5", " 1", "1_0", "1e3", "1e10000000"])
def test_only_integer_and_p_over_q_strings_are_rationals(text):
    with pytest.raises(ValueError):
        RatMatrix([[text]])
    with pytest.raises(ValueError):
        CliffordElement.scalar(4, text)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8))
def test_constructor_matches_a_fraction_reference(data, n):
    table = [[data.draw(randmat.exact_entries) for _ in range(n)] for _ in range(n)]
    m = RatMatrix(table)
    ref = [[Fraction(x) for x in row] for row in table]
    # the lcm of the reduced denominators, and each numerator over it
    den = math.lcm(*(x.denominator for row in ref for x in row))
    assert m.den == den
    assert m.num == tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in ref)
    assert all(type(x) is int for x in chain.from_iterable(m.num))
    assert m.rows == tuple(map(tuple, ref))


@pytest.mark.parametrize(
    "rows,error",
    [
        ([[True, "1/0"], [0, 0]], TypeError),
        ([["1/0", True], [0, 0]], ZeroDivisionError),
        ([[0, 0], [True, "1/0"]], TypeError),
        ([[1, 2.5], ["1/0", 1]], TypeError),
        ([["1/0"]], ZeroDivisionError),
        # an entry comes before the shape of a later or a ragged row
        ([[True, 0], [0]], TypeError),
        ([["1/0", 0], [0]], ZeroDivisionError),
        ([[0, "1/0"], [0, 0, 0]], ZeroDivisionError),
        ([[True, 0], "12"], TypeError),
        ([["1/0", 0], 5], ZeroDivisionError),
        ([[0, 0], "12", [True, 0]], BadShape),
    ],
    ids=[
        "bool-then-zero-den", "zero-den-then-bool", "second-row", "float-first", "one-entry",
        "bool-then-ragged", "zero-den-then-ragged", "zero-den-then-long-row", "bool-then-str-row",
        "zero-den-then-int-row", "str-row-then-bool",
    ],
)
def test_first_bad_entry_in_row_major_order_decides_the_error(rows, error):
    with pytest.raises(error) as info:
        RatMatrix(rows)
    assert type(info.value) is error


def test_matrix_equality_and_blocks():
    a = RatMatrix([["1/2", "1/2"], [0, 1]])
    assert a.rows[0][1] == Fraction(1, 2)
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
    assert all(ma.rows[i][j] == a[i][j] for i in range(n) for j in range(n))
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


@st.composite
def mixed_tables(draw, n: int) -> list[list[Fraction]]:
    """Tables whose rows are zero, hold one nonzero entry (+-1, +-1/d or any
    other value) or are dense."""
    d = draw(st.integers(min_value=1, max_value=6))
    single = st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, d), Fraction(-1, d)))
    table = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "single", "dense")))
        row = [Fraction(0)] * n
        if kind == "single":
            k = draw(st.integers(min_value=0, max_value=n - 1))
            row[k] = draw(single | randmat.nonzero_fractions)
        elif kind == "dense":
            row = [draw(randmat.small_fractions) for _ in range(n)]
        table.append(row)
    return table


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=MAX_DIM))
def test_product_kernel_matches_fraction_reference(data, n):
    a = data.draw(mixed_tables(n))
    b = data.draw(mixed_tables(n))
    product = RatMatrix(a) * RatMatrix(b)
    assert as_lists(product) == ref_mul(a, b)
    # the unreduced kernel, over the product of the two denominators
    ma, mb = RatMatrix(a), RatMatrix(b)
    den = ma.den * mb.den
    unreduced = integer_product(ma.num, mb.num)
    assert [[Fraction(x, den) for x in row] for row in unreduced] == ref_mul(a, b)
    assert_lowest_terms(product)
    rebuilt = RatMatrix(ref_mul(a, b))
    assert product == rebuilt and hash(product) == hash(rebuilt)


# ---------------------------------------------------------------------------
# the generated kernels against the loops they replaced
# ---------------------------------------------------------------------------


def loop_product(lhs, rhs):
    """The product row by row, a row with one nonzero a at column k taken as
    a times row k of rhs: the loop the generated product replaced."""
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


def loop_reflect(u, uu, cols, dens, start):
    """The column update the generated reflection replaced."""
    for j in range(start, len(cols)):
        col = cols[j]
        t = sum(map(mul, u, col))
        if t:
            t += t
            cols[j] = [uu * x - t * y for x, y in zip(col, u)]
            dens[j] *= uu


def kernel_entry(rng):
    return rng.choice((0, 0, 1, -1, rng.getrandbits(60), -rng.getrandbits(60)))


def kernel_table(rng, n):
    """Rows that are zero, hold one nonzero entry or are dense; entries 0,
    +-1 and about 60 bits."""
    table = []
    for _ in range(n):
        row = [0] * n
        kind = rng.choice(("zero", "single", "dense"))
        if kind == "single":
            row[rng.randrange(n)] = rng.choice((1, -1, kernel_entry(rng) or 2))
        elif kind == "dense":
            row = [kernel_entry(rng) for _ in range(n)]
        table.append(tuple(row))
    return tuple(table)


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_generated_product_matches_the_row_loop(n):
    rng = random.Random(n)
    for _ in range(20):
        a, b = kernel_table(rng, n), kernel_table(rng, n)
        assert integer_product(a, b) == loop_product(a, b)


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_generated_reflection_matches_the_column_loop(n):
    rng, reflect = random.Random(n), _reflection_kernel(n)
    for _ in range(20):
        u = [kernel_entry(rng) for _ in range(n)]
        if not any(u):
            u[rng.randrange(n)] = 1
        cols = [list(col) for col in kernel_table(rng, n)]
        if n > 1:
            # a column orthogonal to u, which is left as it is
            a, b = rng.sample(range(n), 2)
            cols[rng.randrange(n)] = [u[b] if k == a else -u[a] if k == b else 0 for k in range(n)]
        dens = [rng.randint(1, 9) for _ in range(n)]
        start = rng.randint(0, n)
        expected_cols, expected_dens = [col[:] for col in cols], dens[:]
        uu = sum(x * x for x in u)
        loop_reflect(u, uu, expected_cols, expected_dens, start)
        reflect(u, uu, cols, dens, start)
        assert (cols, dens) == (expected_cols, expected_dens)


def test_kernels_refuse_dimensions_above_the_cap():
    n = MAX_DIM + 1
    big = RatMatrix.identity(n)
    with pytest.raises(BadShape, match=f"from 1 to {MAX_DIM}, got {n}"):
        integer_product(big.num, big.num)
    with pytest.raises(BadShape, match=f"from 1 to {MAX_DIM}, got {n}"):
        big * big
    with pytest.raises(BadShape, match=f"from 1 to {MAX_DIM}, got {n}"):
        reflection_vectors(big)
    with pytest.raises(BadShape, match=f"from 1 to {MAX_DIM}, got {n}"):
        component(big)


@pytest.mark.parametrize(
    "lhs,rhs",
    [
        (((1, 2, 5), (3, 4, 6)), ((1, 0), (0, 1))),
        (((1, 2), (3, 4)), ((1,), (2,))),
        (((1, 2), (3,)), ((1, 0), (0, 1))),
        (((1, 2), (3, 4), (5, 6)), ((1, 0), (0, 1))),
        (((1, 2),), ((1, 0), (0, 1))),
        ((), ()),
        (None, None),
        (((1, 0), (0, 1)), None),
        (((1, None), (0, 1)), ((1, 0), (0, 1))),
    ],
    ids=[
        "long-lhs-rows", "short-rhs-rows", "ragged-lhs", "tall-lhs", "short-lhs", "empty",
        "none", "rhs-none", "none-entry",
    ],
)
def test_product_refuses_tables_that_are_not_both_n_by_n(lhs, rhs):
    with pytest.raises(BadShape):
        integer_product(lhs, rhs)


def test_lowest_terms():
    table = ((2, 4), (-6, 8))
    assert lowest_terms(table, 2) == (((1, 2), (-3, 4)), 1)
    assert lowest_terms(table, 6) == (((1, 2), (-3, 4)), 3)
    # den = 1, or no common factor: the table itself comes back
    assert lowest_terms(table, 1)[0] is table
    assert lowest_terms(table, 3) == (table, 3) and lowest_terms(table, 3)[0] is table


@pytest.mark.parametrize(
    "num,den",
    [(None, 2), (((1, None),), 2), (((1, 2),), None), (((Fraction(1, 2),),), 2)],
    ids=["none", "none-entry", "none-den", "fraction-entry"],
)
def test_lowest_terms_refuses_what_is_not_a_table_of_ints(num, den):
    with pytest.raises(BadShape, match="table of ints over an int denominator"):
        lowest_terms(num, den)


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


# ---------------------------------------------------------------------------
# reflection_vectors against the single-denominator factorisation
# ---------------------------------------------------------------------------


def single_denominator_reflection_vectors(a):
    """The factorisation with one denominator for all the remaining columns,
    every later column reflected at every step: the oracle for the
    per-column version, which must give the same vectors and accept and
    reject the same matrices."""
    den = a.den
    cols = [list(col) for col in zip(*a.num)]
    vectors = []
    for i, w in enumerate(cols):
        if any(w[:i]) or sum(map(mul, w, w)) != den * den:
            raise NotOrthogonal("matrix is not orthogonal")
        w[i] -= den
        if not any(w):
            continue
        content = math.gcd(*w)
        u = [x // content for x in w]
        vectors.append(u)
        uu = sum(x * x for x in u)
        for col in cols[i + 1 :]:
            t = 2 * sum(map(mul, u, col))
            col[:] = [uu * x - t * y for x, y in zip(col, u)]
        den *= uu
    return vectors


@st.composite
def oracle_inputs(draw, n):
    """Dense, signed-permutation or block-diagonal orthogonal matrices."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(("dense", "signed-permutation", "block-diagonal")))
    if kind == "dense":
        return randmat.random_orthogonal(rng, n, rotations=2 * n)
    if kind == "signed-permutation":
        return randmat.random_orthogonal(rng, n, rotations=0)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    return RatMatrix.block_diag(*(randmat.random_orthogonal(rng, k, rotations=k) for k in sizes))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8))
def test_reflection_vectors_match_the_single_denominator_oracle(data, n):
    a = data.draw(oracle_inputs(n))
    assert reflection_vectors(a) == single_denominator_reflection_vectors(a)
    # one entry moved by q != -2 a_ij changes the norm of its column
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    q = data.draw(randmat.nonzero_fractions.filter(lambda q: q != -2 * a.rows[i][j]))
    rows = as_lists(a)
    rows[i][j] += q
    perturbed = RatMatrix(rows)
    for factor in (reflection_vectors, single_denominator_reflection_vectors):
        with pytest.raises(NotOrthogonal):
            factor(perturbed)
