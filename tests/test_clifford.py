import fractions
import math
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.clifford import (
    CliffordElement,
    NotAVersor,
    NotVectorPreserving,
    commutator_product,
    lift_factors,
    lift_orthogonal,
    twisted_conjugation_matrix,
)
from pglrep.construct import build_representation
from pglrep.linalg import MAX_DIM, NotOrthogonal, RatMatrix, reflection_vectors
from pglrep.spin import (
    _SPINOR_PRIME,
    KernelElement,
    NotInKernel,
    _spinor_kernel,
    _sqrt_minus_one,
    spinor_commutator,
)
from pglrep.surfrep import InvariantClass, Mu2Value

import randmat


def e(n, *indices):
    """The product of the basis vectors e_(i+1), for i in indices, in order."""
    out = CliffordElement.scalar(n, 1)
    for i in indices:
        out = out * CliffordElement(n, {1 << i: 1})
    return out


def grades(x):
    return {mask.bit_count() for mask in x.terms}


def omega(n):
    """The oriented volume element e_1 ... e_n."""
    return CliffordElement(n, {(1 << n) - 1: 1})


def _sum(x, y):
    """x + y from the two term maps."""
    masks = x.terms.keys() | y.terms.keys()
    return CliffordElement(x.n, {m: x.terms.get(m, 0) + y.terms.get(m, 0) for m in masks})


def _reference_product(x, y):
    """The product over Q term by term, each blade sign by counting the
    transpositions that sort the concatenated index lists."""
    acc = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            swaps = 0
            a = ma >> 1
            while a:
                swaps += (a & mb).bit_count()
                a >>= 1
            acc[ma ^ mb] = acc.get(ma ^ mb, Fraction(0)) + (-1) ** swaps * ca * cb
    return CliffordElement(x.n, acc)


class TestBladeMul:
    def test_square_of_generator(self):
        assert CliffordElement(4, {0b1: 1}) * CliffordElement(4, {0b1: 1}) == CliffordElement(4, {0: 1})

    def test_ordered_product(self):
        assert CliffordElement(4, {0b01: 1}) * CliffordElement(4, {0b10: 1}) == CliffordElement(4, {0b11: 1})

    def test_one_transposition(self):
        assert CliffordElement(4, {0b10: 1}) * CliffordElement(4, {0b01: 1}) == CliffordElement(4, {0b11: -1})

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            CliffordElement(4, {1 << 4: 1})


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=6))
def test_constructor_matches_a_fraction_reference(data, n):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    terms = data.draw(st.dictionaries(masks, randmat.exact_entries, max_size=8))
    x = CliffordElement(n, terms)
    ref = {m: Fraction(c) for m, c in sorted(terms.items()) if Fraction(c)}
    # the Fraction view, in increasing mask order, of ints over one lowest denominator
    assert list(x.terms.items()) == list(ref.items())
    assert all(type(c) is int for _, c in x.num) and x.den > 0
    assert math.gcd(x.den, *(c for _, c in x.num)) == 1
    y = CliffordElement(n, ref)
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize(
    "terms,error",
    [
        ({1: True, 16: 1}, TypeError),
        ({16: 1, 1: True}, ValueError),
        ({1: "1/0", 2.0: 1}, ZeroDivisionError),
        ({2.0: 1, 1: "1/0"}, ValueError),
        ({0: 1, 1: 0.5, "3": 1}, TypeError),
        ({0: 1, "3": 1, 1: 0.5}, ValueError),
        ({1: None, 3: "1/0"}, TypeError),
        ({1: "1/0", 3: None}, ZeroDivisionError),
    ],
    ids=[
        "bool-then-big-mask", "big-mask-then-bool", "zero-den-then-float-mask",
        "float-mask-then-zero-den", "float-then-str-mask", "str-mask-then-float",
        "none-then-zero-den", "zero-den-then-none",
    ],
)
def test_first_bad_mask_or_coefficient_decides_the_error(terms, error):
    with pytest.raises(error) as info:
        CliffordElement(4, terms)
    assert type(info.value) is error


def _fractions_entered(run):
    """The names of the functions of fractions.py that run() enters."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


@pytest.mark.parametrize("n", [4, 8])
def test_no_fraction_inside_a_product(n):
    # a conjugated handle of class (0000, omega): dense integer lifts, and
    # rescaled ones with a denominator, all built before profiling
    a, b = _conjugated_handle(n, Mu2Value.OMEGA, random.Random(n))
    dense = [lift_orthogonal(a), lift_orthogonal(b)]
    scaled = [dense[0] * Fraction(-3, 7), dense[1] * Fraction(5, 2)]
    factored = [lift_factors(a), lift_factors(b)]
    assert {c.denominator for g in scaled for c in g.terms.values()} >= {2, 7}
    for run in (
        lambda: dense[0] * dense[1],
        lambda: scaled[0] * scaled[1],
        lambda: twisted_conjugation_matrix(dense[0]),
        lambda: twisted_conjugation_matrix(scaled[1]),
        lambda: commutator_product(dense),
        lambda: commutator_product(scaled),
        lambda: commutator_product(factored),
    ):
        assert _fractions_entered(run) == []


@st.composite
def _operands(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(randmat.multivectors(n)), draw(randmat.multivectors(n))


@settings(max_examples=200, deadline=None)
@given(_operands(), st.one_of(st.integers(min_value=-5, max_value=5), randmat.small_fractions))
def test_product_matches_reference(operands, scalar):
    x, y = operands
    assert x * y == _reference_product(x, y)
    s = CliffordElement.scalar(x.n, scalar)
    assert x * scalar == _reference_product(x, s)


class TestProduct:
    def test_bivector_product(self):
        assert e(4, 0, 1) * e(4, 0, 2) == e(4, 1, 2) * -1

    def test_identity(self):
        x = CliffordElement(4, {0b0110: Fraction(2, 3), 0: 1})
        assert CliffordElement.scalar(4, 1) * x == x

    def test_volume_element_square(self):
        # oracle: square omega_4 by repeated generator products
        w = e(4, 0, 1, 2, 3)
        assert w == omega(4)
        assert w * w == CliffordElement.scalar(4, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CliffordElement.scalar(2, 1) * CliffordElement.scalar(3, 1)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            CliffordElement.scalar(17, 1)

    @pytest.mark.parametrize(
        "n,terms",
        [(4, {2.0: 1}), (4, {True: 1}), (4, {"1": 1}), (True, {1: 1}), (4.0, {1: 1}), (4, None)],
    )
    def test_dimension_and_masks_must_be_ints(self, n, terms):
        with pytest.raises(ValueError):
            CliffordElement(n, terms)


def test_involutions_on_examples():
    assert e(3, 0).grade_involution() == e(3, 0) * -1
    assert e(3, 0, 1).reversal() == e(3, 0, 1) * -1
    even = CliffordElement(3, {0: 1, 0b011: 1})
    assert even.grade_involution() == even


@settings(max_examples=40, deadline=None)
@given(randmat.multivectors(3), randmat.multivectors(3))
def test_involutions_are_antiautomorphisms(x, y):
    assert (x * y).reversal() == y.reversal() * x.reversal()
    assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()
    assert x.reversal().reversal() == x
    assert x.grade_involution().grade_involution() == x


@settings(max_examples=40, deadline=None)
@given(randmat.multivectors(3), randmat.multivectors(3), randmat.multivectors(3))
def test_algebra_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * _sum(y, z) == _sum(x * y, x * z)
    assert _sum(x, y) * z == _sum(x * z, y * z)


class TestTwistedConjugation:
    def test_identity(self):
        assert twisted_conjugation_matrix(CliffordElement.scalar(3, 1)) == RatMatrix.identity(3)

    def test_reflection(self):
        assert twisted_conjugation_matrix(e(4, 0)) == RatMatrix.diagonal([-1, 1, 1, 1])

    def test_rotation_bivector(self):
        assert twisted_conjugation_matrix(e(4, 0, 1)) == RatMatrix.diagonal([-1, -1, 1, 1])

    def test_rejects_non_versor(self):
        # (1 + omega)(1 + omega) = 2 + 2 omega in Cl(4) is not a scalar
        with pytest.raises(NotAVersor):
            twisted_conjugation_matrix(CliffordElement(4, {0: 1, 0b1111: 1}))

    def test_rejects_non_vector_preserving(self):
        # in Cl(3) the norm is the scalar 2, but e1 goes to -2 e2 e3
        g = CliffordElement(3, {0: 1, 0b111: 1})
        assert g * g.reversal() == CliffordElement.scalar(3, 2)
        with pytest.raises(NotVectorPreserving):
            twisted_conjugation_matrix(g)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        randmat.nonzero_fractions,
    )
    def test_agrees_with_dense_products(self, seed, n, scale):
        g = randmat.random_versor(random.Random(seed), n) * scale
        assert twisted_conjugation_matrix(g) == _dense_twisted_conjugation(g)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(randmat.multivectors(3), randmat.multivectors(4)))
    def test_certificates_agree_with_dense_products(self, g):
        try:
            expected = _dense_twisted_conjugation(g)
        except (NotAVersor, NotVectorPreserving) as exc:
            with pytest.raises(type(exc)):
                twisted_conjugation_matrix(g)
        else:
            assert twisted_conjugation_matrix(g) == expected


def _dense_twisted_conjugation(g):
    """Reference route: every column as a product of multivectors over Q,
    through _reference_product rather than the kernel under test."""
    n = g.n
    rev = g.reversal()
    norm = _reference_product(g, rev)
    if norm.terms.keys() != {0}:
        raise NotAVersor("reference route")
    columns = []
    for i in range(n):
        e_i = CliffordElement(n, {1 << i: 1})
        image = _reference_product(_reference_product(g.grade_involution(), e_i), rev)
        if grades(image) != {1}:
            raise NotVectorPreserving("reference route")
        columns.append([image.terms.get(1 << k, 0) / norm.terms[0] for k in range(n)])
    return RatMatrix(zip(*columns))


class TestLiftOrthogonal:
    def test_identity_lifts_to_scalar(self):
        assert lift_orthogonal(RatMatrix.identity(4)).terms.keys() == {0}

    def test_reflection_lifts_to_vector_multiple(self):
        g = lift_orthogonal(RatMatrix.diagonal([-1, 1, 1]))
        assert g.terms.keys() == {0b001}

    def test_pythagorean_rotation_round_trip(self):
        a = RatMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
        assert twisted_conjugation_matrix(lift_orthogonal(a)) == a

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            lift_orthogonal(RatMatrix([[1, 1], [0, 1]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
    def test_round_trip_parity_certificate(self, seed, n):
        a = randmat.random_orthogonal(random.Random(seed), n)
        g = lift_orthogonal(a)
        assert twisted_conjugation_matrix(g) == a
        norm = g * g.reversal()
        assert norm.terms.keys() == {0} and norm.terms[0] > 0
        parities = {k % 2 for k in grades(g)}
        assert parities == ({0} if a.det() == 1 else {1})


def _reference_lift(a):
    """Reference route for the lift: reflect the whole working matrix by a
    Fraction reflection matrix at every step, and multiply the dense lift
    through _reference_product as it goes."""
    n = a.n
    work, lift = a, CliffordElement.scalar(n, 1)
    for i in range(n):
        v = [row[i] - (r == i) for r, row in enumerate(work.rows)]
        if not any(v):
            continue
        d = math.lcm(*(x.denominator for x in v))
        w = [int(x * d) for x in v]
        u = [x // math.gcd(*w) for x in w]
        lift = _reference_product(lift, CliffordElement.vector(n, u))
        uu = sum(x * x for x in u)
        reflection = RatMatrix(
            [[Fraction(uu * (r == c) - 2 * ur * uc, uu) for c, uc in enumerate(u)]
             for r, ur in enumerate(u)]
        )
        work = reflection * work
    return lift


class TestLiftFactors:
    def test_identity_has_no_factors(self):
        assert lift_factors(RatMatrix.identity(4)) == []
        assert lift_orthogonal(RatMatrix.identity(4)) == CliffordElement.scalar(4, 1)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            lift_factors(RatMatrix([[1, 1], [0, 1]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(randmat.orthogonal_matrices))
    def test_primitive_factors_multiply_to_the_lift(self, a):
        factors = lift_factors(a)
        assert len(factors) <= a.n
        assert len(factors) % 2 == (0 if a.det() == 1 else 1)
        for v in factors:
            assert grades(v) == {1}
            assert v.den == 1 and math.gcd(*(c for _, c in v.num)) == 1
        product = reduce(mul, factors, CliffordElement.scalar(a.n, 1))
        assert product == lift_orthogonal(a) == _reference_lift(a)


def _reference_kernel(lifts):
    """Reference route for the commutator product: dense lifts multiplied
    over Q through _reference_product, divided by the lifts' norms, and
    named as a kernel element (None outside the kernel)."""
    n = lifts[0].n
    product = CliffordElement.scalar(n, 1)
    for g, h in zip(lifts[::2], lifts[1::2]):
        for x in (g, h, g.reversal(), h.reversal()):
            product = _reference_product(product, x)
    for g in lifts:
        product = product * (1 / _reference_product(g, g.reversal()).terms[0])
    one, w = CliffordElement.scalar(n, 1), omega(n)
    return {
        one: KernelElement.ONE,
        one * -1: KernelElement.MINUS_ONE,
        w: KernelElement.OMEGA,
        w * -1: KernelElement.MINUS_OMEGA,
    }.get(product)


def _conjugated_handle(n, mu2, rng):
    """The first handle of the catalogue representation of (0000, mu2),
    conjugated by its own random rational orthogonal matrix."""
    a, b = build_representation(2, n, InvariantClass((0, 0, 0, 0), mu2)).gens[:2]
    q = randmat.random_orthogonal(rng, n)
    return [q * a * q.transpose(), q * b * q.transpose()]


# classes of the two handles -> the kernel elements their product may be;
# the catalogue's second handle is (I, I), and two handles of class 1 give 1
_HANDLE_CASES = {
    (Mu2Value.ZERO, Mu2Value.ZERO): {KernelElement.ONE},
    (Mu2Value.ONE, Mu2Value.ZERO): {KernelElement.MINUS_ONE},
    (Mu2Value.OMEGA, Mu2Value.ZERO): {KernelElement.OMEGA, KernelElement.MINUS_OMEGA},
    (Mu2Value.ONE, Mu2Value.ONE): {KernelElement.ONE},
}


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("handles", list(_HANDLE_CASES), ids=lambda h: f"{h[0].value}-{h[1].value}")
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scales=st.lists(randmat.nonzero_fractions, min_size=8, max_size=8),
)
def test_factored_and_dense_lifts_agree(n, handles, seed, scales):
    rng = random.Random(seed)
    gens = [m for mu2 in handles for m in _conjugated_handle(n, mu2, rng)]
    factored = [lift_factors(m) for m in gens]
    dense = [lift_orthogonal(m) for m in gens]
    mixed = [f if k % 2 else g for k, (f, g) in enumerate(zip(factored, dense))]
    rescaled = [[v * s for v, s in zip(fs, scales)] for fs in factored]
    kernel = commutator_product(factored)
    assert kernel in _HANDLE_CASES[handles]
    assert kernel == _reference_kernel(dense)
    assert commutator_product(dense) == kernel
    assert commutator_product(mixed) == kernel
    assert commutator_product(rescaled) == kernel
    assert spinor_commutator(n, [reflection_vectors(m) for m in gens]) == kernel


class TestCommutatorProduct:
    def test_trivial(self):
        one = CliffordElement.scalar(4, 1)
        assert commutator_product([one, one]) == KernelElement.ONE

    def test_commuting_rotation_planes(self):
        assert commutator_product([e(4, 0, 1), e(4, 0, 2)]) == KernelElement.MINUS_ONE

    def test_anticommuting_so4_pair_projects_to_minus_identity(self):
        x4 = RatMatrix.block_diag(RatMatrix([[0, 1], [1, 0]]), RatMatrix([[0, 1], [1, 0]]))
        xp4 = RatMatrix.diagonal([1, -1, 1, -1])
        value = commutator_product([lift_orthogonal(x4), lift_orthogonal(xp4)])
        assert value in (KernelElement.OMEGA, KernelElement.MINUS_OMEGA)
        # cross-check at matrix level: the lifted pair anti-commutes
        assert x4 * xp4 == -(xp4 * x4)

    def test_rejects_non_versor(self):
        # (1 + omega)(1 + omega) = 2 + 2 omega in Cl(4) is not a scalar
        one = CliffordElement.scalar(4, 1)
        with pytest.raises(NotAVersor):
            commutator_product([one, CliffordElement(4, {0: 1, 0b1111: 1})])

    def test_relation_failure_detected(self):
        g = lift_orthogonal(randmat.plane_rotation(3, 0, 1, (3, 4, 5)))
        h = lift_orthogonal(RatMatrix.diagonal([-1, 1, 1]))
        with pytest.raises(NotInKernel):
            commutator_product([g, h])

    def test_rejects_non_versor_factor(self):
        e1 = e(4, 0)
        for bad in (CliffordElement(4, {}), CliffordElement(4, {0: 1, 0b1111: 1})):
            with pytest.raises(NotAVersor):
                commutator_product([[e1, bad], [e1]])

    def test_relation_failure_detected_in_factors(self):
        g = lift_factors(randmat.plane_rotation(3, 0, 1, (3, 4, 5)))
        h = lift_factors(RatMatrix.diagonal([-1, 1, 1]))
        with pytest.raises(NotInKernel):
            commutator_product([g, h])

    def test_identity_handles_have_no_factors(self):
        eye = lift_factors(RatMatrix.identity(4))
        assert commutator_product([eye, eye]) == KernelElement.ONE
        x4 = RatMatrix.block_diag(RatMatrix([[0, 1], [1, 0]]), RatMatrix([[0, 1], [1, 0]]))
        xp4 = RatMatrix.diagonal([1, -1, 1, -1])
        dense = commutator_product([lift_orthogonal(x4), lift_orthogonal(xp4)])
        assert commutator_product([eye, eye, lift_factors(x4), lift_factors(xp4)]) == dense

    def test_factors_from_different_algebras_rejected(self):
        with pytest.raises(ValueError):
            commutator_product([[], [e(4, 0)], [e(5, 0)], []])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        randmat.nonzero_fractions,
        randmat.nonzero_fractions,
    )
    def test_scale_independence(self, seed, lam1, lam2):
        rng = random.Random(seed)
        x4 = RatMatrix.block_diag(RatMatrix([[0, 1], [1, 0]]), RatMatrix([[0, 1], [1, 0]]))
        xp4 = RatMatrix.diagonal([1, -1, 1, -1])
        g, h = lift_orthogonal(x4), lift_orthogonal(xp4)
        base = commutator_product([g, h])
        assert commutator_product([g * lam1, h * lam2]) == base


@settings(max_examples=30, deadline=None)
@given(randmat.versors(4), randmat.versors(6, max_factors=2))
def test_volume_element_centrality(v4, v6):
    # even n: omega commutes with even versors, anti-commutes with odd ones
    for v in (v4, v6):
        w = omega(v.n)
        parity = next(iter({k % 2 for k in grades(v)}))
        if parity == 0:
            assert w * v == v * w
        else:
            assert w * v == v * w * -1


def test_volume_element_square_tracks_residue_mod_four():
    # the kernel {1, -1, omega, -omega} is Klein or cyclic according to
    # whether omega squares to +1 or -1
    for n in (4, 8, 12):
        assert omega(n) * omega(n) == CliffordElement.scalar(n, 1)
    for n in (6, 10, 14):
        assert omega(n) * omega(n) == CliffordElement.scalar(n, -1)


def test_volume_element_covers_minus_identity():
    for n in (4, 6):
        assert twisted_conjugation_matrix(omega(n)) == -RatMatrix.identity(n)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=5),
)
def test_twisted_conjugation_is_a_homomorphism(seed, n):
    rng = random.Random(seed)
    g = randmat.random_versor(rng, n)
    h = randmat.random_versor(rng, n)
    lhs = twisted_conjugation_matrix(g * h)
    rhs = twisted_conjugation_matrix(g) * twisted_conjugation_matrix(h)
    assert lhs == rhs


def _random_vector(rng, n):
    u = [rng.randint(-3, 3) for _ in range(n)]
    if not any(u):
        u[rng.randrange(n)] = 1
    return u


# ---------------------------------------------------------------------------
# the generated spinor walk against the gamma tables it replaced
# ---------------------------------------------------------------------------


def gamma_tables(n):
    """The Jordan-Wigner gammas of Cl(n), n even, one pair per qubit k, each
    as a getter of the sources x ^ 2^k and one of the selectors 2 s + (bit
    k of x), which index (u_2k - i u_2k+1, u_2k + i u_2k+1, negatives)."""
    size = 1 << (n // 2)
    tables = []
    for k in range(n // 2):
        bit = 1 << k
        sources = itemgetter(*(x ^ bit for x in range(size)))
        selectors = itemgetter(
            *(2 * ((x & (bit - 1)).bit_count() & 1) + (x >> k & 1) for x in range(size))
        )
        tables.append((sources, selectors))
    return tables


def apply_vector(u, psi, tables, i, m):
    """The spinor (u_1 gamma_1 + ... + u_n gamma_n) psi mod m, for a nonzero
    u, qubit by qubit, skipping the qubits where u is zero: the loop the
    generated walk replaced."""
    out = None
    for (sources, selectors), x, y in zip(tables, u[::2], u[1::2]):
        if x or y:
            a, b = (x + i * y) % m, (x - i * y) % m
            terms = map(mul, selectors((b, a, -b, -a)), sources(psi))
            out = list(terms) if out is None else list(map(add, out, terms))
    return [c % m for c in out]


def _kernel_vector(rng, n):
    """Entries 0, +-1 and about 60 bits; whole qubits zero, never all of u."""
    u = [rng.choice((0, 0, 1, -1, rng.getrandbits(60), -rng.getrandbits(60))) for _ in range(n)]
    if not any(u):
        u[rng.randrange(n)] = 1
    return u


@pytest.mark.parametrize("n", range(2, MAX_DIM + 1, 2))
def test_spinor_kernel_matches_the_gamma_table_reference(n):
    rng, walk, tables = random.Random(n), _spinor_kernel(n), gamma_tables(n)
    p = _SPINOR_PRIME
    for k in (1, 2):
        m = p**k
        i = _sqrt_minus_one(p, m)
        for _ in range(4):
            vectors = [_kernel_vector(rng, n) for _ in range(rng.randint(1, 3))]
            psi = [rng.choice((0, 1, m - 1, rng.randrange(m))) for _ in range(1 << n // 2)]
            expected = psi
            for u in vectors:
                expected = apply_vector(u, expected, tables, i, m)
            assert walk(vectors, psi, i, m) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(range(2, MAX_DIM + 1, 2)),
    st.sampled_from((1, 2)),
)
def test_gamma_tables_satisfy_the_clifford_relations(seed, n, k):
    # u v + v u = 2 (u.v) on an arbitrary spinor mod p^k, so the generated
    # walk represents Cl(n) there; it applies its vectors first to last
    rng = random.Random(seed)
    p, walk = _SPINOR_PRIME, _spinor_kernel(n)
    m = p**k
    i = _sqrt_minus_one(p, m)
    assert i * i % m == m - 1
    u, v = _random_vector(rng, n), _random_vector(rng, n)
    psi = [rng.randrange(m) for _ in range(1 << n // 2)]
    uv = walk([v, u], psi, i, m)
    vu = walk([u, v], psi, i, m)
    dot = sum(map(mul, u, v))
    assert [(x + y) % m for x, y in zip(uv, vu)] == [2 * dot * c % m for c in psi]


def test_volume_element_separates_the_chiralities_of_psi0():
    # omega (e_0 + e_1) = i^(n/2) (e_0 - e_1), which is not +-(e_0 + e_1)
    p = _SPINOR_PRIME
    i = _sqrt_minus_one(p, p)
    for n in range(2, MAX_DIM + 1, 2):
        psi = [1, 1] + [0] * ((1 << n // 2) - 2)
        basis = [[int(j == k) for j in range(n)] for k in reversed(range(n))]
        psi = _spinor_kernel(n)(basis, psi, i, p)
        c = pow(i, n // 2, p)
        assert psi[:2] == [c, p - c] and not any(psi[2:])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from((2, 4, 6)))
def test_spinor_and_exact_products_agree_on_arbitrary_vectors(seed, n):
    # most of these vectors break the relation; a handle (g, g) or one with
    # a factor-free lift lands in the kernel
    rng = random.Random(seed)
    lifts = [[_random_vector(rng, n) for _ in range(rng.randint(0, 3))] for _ in range(4)]
    if rng.random() < 0.3:
        # |u|^2 = s^2 + 1 = 0 mod p^k, so the residue runs mod a higher power of p
        k, j = rng.randint(1, 3), rng.randrange(4)
        s = _sqrt_minus_one(_SPINOR_PRIME, _SPINOR_PRIME**k)
        lifts[j] = lifts[j][1:] + [[s, 1] + [0] * (n - 2)]
    if rng.random() < 0.3:
        lifts[1] = lifts[0]
    try:
        expected = commutator_product([[CliffordElement.vector(n, u) for u in g] for g in lifts])
    except NotInKernel:
        with pytest.raises(NotInKernel):
            spinor_commutator(n, lifts)
    else:
        assert spinor_commutator(n, lifts) == expected


def _spinor(gens):
    return spinor_commutator(gens[0].n, [reflection_vectors(m) for m in gens])


class TestSpinorCommutator:
    def test_matrices_that_break_the_relation_raise(self):
        # a (3,4,5) rotation of the (e1, e2) plane and the reflection along e1
        gens = [randmat.plane_rotation(4, 0, 1, (3, 4, 5)), RatMatrix.diagonal([-1, 1, 1, 1])]
        with pytest.raises(NotInKernel):
            commutator_product([lift_factors(m) for m in gens])
        with pytest.raises(NotInKernel):
            _spinor(gens)

    def test_all_four_kernel_elements(self):
        x4, xp4 = build_representation(2, 4, InvariantClass((0,) * 4, Mu2Value.OMEGA)).gens[:2]
        a, b = RatMatrix.diagonal([-1, -1, 1, 1]), RatMatrix.diagonal([-1, 1, -1, 1])
        eye = RatMatrix.identity(4)
        found = set()
        for gens in ([eye, eye], [a, b], [x4, xp4], [a, b, x4, xp4]):
            found.add(_spinor(gens))
            assert _spinor(gens) == commutator_product([lift_factors(m) for m in gens])
        assert found == set(KernelElement)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="even dimension"):
            spinor_commutator(5, [[], []])
        # an identity has no vectors, so mixed sizes need non-identity matrices
        d4, d6 = RatMatrix.diagonal([-1, 1, 1, 1]), RatMatrix.diagonal([-1, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="length n = 4"):
            spinor_commutator(4, [reflection_vectors(d4), reflection_vectors(d6)])
        with pytest.raises(ValueError, match="even-length"):
            spinor_commutator(4, [reflection_vectors(d4)] * 3)
        with pytest.raises(ValueError, match="even-length"):
            spinor_commutator(4, [])
        with pytest.raises(ValueError, match="even-length"):
            spinor_commutator(4, None)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            spinor_commutator(MAX_DIM + 2, [[], []])
        with pytest.raises(ValueError, match="positive integer"):
            spinor_commutator(0, [[], []])

    def test_zero_vector_refused(self):
        # its norm is 0, which every power of p divides
        lifts = [[[0, 0, 0, 0]], [[0, 1, 0, 0]]]
        with pytest.raises(ValueError, match="reflection vector is zero"):
            spinor_commutator(4, lifts)
        with pytest.raises(NotAVersor):
            commutator_product([[CliffordElement.vector(4, u) for u in g] for g in lifts])

    @pytest.mark.parametrize(
        "lifts",
        [
            [[[3.0, 4.0, 0, 0]], [[0, 0, 1.0, 0]]],
            [[[3, 4, 0, 0]], [[0, 0, True, 0]]],
            [[[Fraction(3), 4, 0, 0]], [[0, 0, 1, 0]]],
            [[[3, 4, 0, 0]], [[0, 0, "1", 0]]],
        ],
        ids=["float", "bool", "fraction", "str"],
    )
    def test_non_int_entries_refused(self, lifts):
        with pytest.raises(ValueError, match="entries must be ints"):
            spinor_commutator(4, lifts)
        # the same vectors as ints
        ints = [[[int(x) for x in u] for u in g] for g in lifts]
        assert spinor_commutator(4, ints) == KernelElement.MINUS_ONE
