import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep import clifford
from pglrep.clifford import (
    _SPINOR_PRIME,
    CliffordElement,
    KernelElement,
    _sqrt_minus_one,
    commutator_product,
    lift_factors,
)
from pglrep.construct import build_representation, catalogue_matrix
from pglrep.linalg import BadShape, NotOrthogonal, RatMatrix
from pglrep.surfrep import (
    Delta1NotZero,
    InvalidClass,
    InvariantClass,
    Mu2Value,
    RelationSign,
    RelationViolated,
    SurfaceRep,
    delta1,
    delta2,
    invariants,
    tilde_delta,
)

import randmat


I4 = RatMatrix.identity(4)
X4 = catalogue_matrix("X", 4)
XP4 = catalogue_matrix("X'", 4)
Y4 = catalogue_matrix("Y", 4)
YP4 = catalogue_matrix("Y'", 4)


def rep(*gens, g=2, n=4):
    pad = (RatMatrix.identity(n),) * (2 * g - len(gens))
    return SurfaceRep(g, n, tuple(gens) + pad)


class TestConstruction:
    def test_genus_bound(self):
        with pytest.raises(BadShape):
            SurfaceRep(1, 4, (I4, I4))

    def test_n_must_be_even_and_at_least_four(self):
        with pytest.raises(BadShape):
            SurfaceRep(2, 3, (RatMatrix.identity(3),) * 4)

    def test_n_above_the_cap_rejected_for_every_class(self):
        # the spin obstruction is bounded by MAX_DIM, so mu1 != 0 is refused too
        eye, d = RatMatrix.identity(18), RatMatrix.diagonal([-1] + [1] * 17)
        for gens in ((eye,) * 4, (d, d, eye, eye)):
            with pytest.raises(BadShape, match="4 <= n <= 16"):
                SurfaceRep(2, 18, gens)

    def test_generator_count(self):
        with pytest.raises(BadShape, match="expected 4 generator matrices"):
            SurfaceRep(2, 4, (I4, I4))

    def test_generator_size(self):
        with pytest.raises(BadShape, match="generator B1 is not 4x4"):
            SurfaceRep(2, 4, (I4, RatMatrix.identity(6), I4, I4))

    def test_orthogonality_certified(self):
        bad = RatMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(NotOrthogonal, match="B1"):
            SurfaceRep(2, 4, (I4, bad, I4, I4))

    def test_relation_enforced(self):
        z4 = catalogue_matrix("Z", 4)
        # [X4, Z4] = -I but [Y4, Z4] is neither I nor -I
        with pytest.raises(RelationViolated):
            SurfaceRep(2, 4, (Y4, z4, I4, I4))


class TestCheckRelation:
    def test_trivial(self):
        assert delta2(rep()) == RelationSign.PLUS_I

    def test_anticommuting_pair(self):
        assert delta2(rep(X4, XP4)) == RelationSign.MINUS_I

    def test_commuting_pair(self):
        assert delta2(rep(Y4, YP4)) == RelationSign.PLUS_I

    def test_delta2_is_the_same_computation(self):
        # delta2 reads the sign the constructor computed while certifying
        r = rep(X4, XP4)
        assert delta2(r) is r.relation_sign is RelationSign.MINUS_I


class TestDelta1:
    def test_trivial(self):
        assert delta1(rep()) == (0, 0, 0, 0)

    def test_single_reflection_generator(self):
        assert delta1(rep(Y4)) == (1, 0, 0, 0)

    def test_rotation_pair(self):
        assert delta1(rep(X4, XP4)) == (0, 0, 0, 0)


class TestTildeDelta:
    def test_trivial(self):
        assert tilde_delta(rep()) == Mu2Value.ZERO

    def test_commuting_diagonals_with_anticommuting_lifts(self):
        a = RatMatrix.diagonal([-1, -1, 1, 1])
        b = RatMatrix.diagonal([-1, 1, -1, 1])
        # oracle: the even lifts are the coordinate bivectors e1e2 and e1e3
        e1e2 = CliffordElement(4, {0b0011: 1})
        e1e3 = CliffordElement(4, {0b0101: 1})
        assert commutator_product([e1e2, e1e3]) == KernelElement.MINUS_ONE
        assert tilde_delta(rep(a, b)) == Mu2Value.ONE

    def test_anticommuting_pair_gives_omega(self):
        assert tilde_delta(rep(X4, XP4)) == Mu2Value.OMEGA

    def test_requires_delta1_zero(self):
        with pytest.raises(Delta1NotZero):
            tilde_delta(rep(Y4, YP4))


class TestInvariants:
    def test_trivial(self):
        assert invariants(rep()) == InvariantClass((0, 0, 0, 0), Mu2Value.ZERO)

    def test_rotation_anticommuting_pair(self):
        assert invariants(rep(X4, XP4)) == InvariantClass((0, 0, 0, 0), Mu2Value.OMEGA)

    def test_reflection_commuting_pair(self):
        assert invariants(rep(Y4, YP4)) == InvariantClass((1, 1, 0, 0), Mu2Value.ZERO)

    def test_invalid_class_combination_rejected(self):
        with pytest.raises(InvalidClass):
            InvariantClass((1, 0, 0, 0), Mu2Value.ONE)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_invariants_ignore_representative_signs(seed):
    rng = random.Random(seed)
    base = rep(X4, XP4, Y4, YP4, g=3)
    expected = invariants(base)
    gens = list(base.gens)
    k = rng.randrange(len(gens))
    gens[k] = -gens[k]
    assert invariants(SurfaceRep(3, 4, tuple(gens))) == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_invariants_are_conjugation_invariant(seed):
    rng = random.Random(seed)
    p = randmat.random_orthogonal(rng, 4)
    for base in (rep(X4, XP4), rep(Y4, YP4), rep()):
        expected = invariants(base)
        conj = tuple(p * m * p.transpose() for m in base.gens)
        assert invariants(SurfaceRep(base.genus, base.n, conj)) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_two_obstruction_routes_agree(seed):
    # for delta1 = 0: the matrix-level sign is -I exactly when the
    # covering-level obstruction is omega
    rng = random.Random(seed)
    pairs = [
        (I4, I4),
        (X4, XP4),
        (RatMatrix.diagonal([-1, -1, 1, 1]), RatMatrix.diagonal([-1, 1, -1, 1])),
    ]
    gens = []
    for _ in range(2):
        gens.extend(rng.choice(pairs))
    r = SurfaceRep(2, 4, tuple(gens))
    assert (delta2(r) == RelationSign.MINUS_I) == (tilde_delta(r) == Mu2Value.OMEGA)


def _handle(rng, n, mu2):
    """A handle whose lifts' commutator is 1, -1 or +-omega as mu2 is 0, 1
    or omega, conjugated by its own random rational orthogonal matrix."""
    if mu2 == Mu2Value.ZERO:
        # Q and its inverse: their lifts commute
        q = randmat.random_special_orthogonal(rng, n)
        a, b = q, q.transpose()
    else:
        a, b = build_representation(2, n, InvariantClass((0,) * 4, mu2)).gens[:2]
    p = randmat.random_orthogonal(rng, n)
    return [p * a * p.transpose(), p * b * p.transpose()]


_MU2_OF_KERNEL = {
    KernelElement.ONE: Mu2Value.ZERO,
    KernelElement.MINUS_ONE: Mu2Value.ONE,
    KernelElement.OMEGA: Mu2Value.OMEGA,
    KernelElement.MINUS_OMEGA: Mu2Value.OMEGA,
}


@pytest.mark.parametrize("first", list(Mu2Value), ids=lambda m: m.value)
@settings(max_examples=12, deadline=None)
@given(
    g=st.sampled_from((2, 3)),
    n=st.sampled_from((4, 6, 8)),
    others=st.lists(st.sampled_from(list(Mu2Value)), min_size=2, max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tilde_delta_agrees_with_the_exact_commutator_product(first, g, n, others, seed):
    rng = random.Random(seed)
    classes = [first] + others[: g - 1]
    r = SurfaceRep(g, n, tuple(m for mu2 in classes for m in _handle(rng, n, mu2)))
    exact = commutator_product([lift_factors(m) for m in r.gens])
    assert tilde_delta(r) == _MU2_OF_KERNEL[exact]
    # -1 is central and omega^2 = +-1, so an odd number of omega handles
    # gives +-omega and none gives (-1)^(number of handles of class 1)
    omegas, ones = classes.count(Mu2Value.OMEGA), classes.count(Mu2Value.ONE)
    if omegas % 2:
        assert tilde_delta(r) == Mu2Value.OMEGA
    elif not omegas:
        assert tilde_delta(r) == (Mu2Value.ONE if ones % 2 else Mu2Value.ZERO)


@pytest.mark.parametrize(
    "moduli",
    [
        [(_SPINOR_PRIME, 1)],
        [(_SPINOR_PRIME, 2)],
        [(_SPINOR_PRIME, 3)],
        [(998244353, 1), (469762049, 1), (167772161, 1)],
    ],
    ids=["first-prime", "prime-squared", "prime-cubed", "every-prime"],
)
def test_spin_obstruction_when_a_reflection_norm_vanishes_mod_p(moduli, monkeypatch):
    # s^2 = -1 modulo each prime power p^k (Chinese remainders), so the
    # reflection along u = (s, 1, 0, 0) has |u|^2 = 0 modulo each.  With the
    # exact product patched out, the residue mod p^(v+1) alone decides.
    def exact_product(lifts):
        raise AssertionError("the exact commutator product was called")

    monkeypatch.setattr(clifford, "commutator_product", exact_product)
    s, modulus = 0, 1
    for p, k in moduli:
        q = p**k
        s += modulus * ((_sqrt_minus_one(p, q) - s) * pow(modulus, -1, q) % q)
        modulus *= q
    r = randmat.householder([s, 1, 0, 0]) * RatMatrix.diagonal([1, 1, -1, 1])
    norms = [sum(c * c for c in f.vector_coefficients()) for f in lift_factors(r)]
    assert all(any(uu % p**k == 0 for uu in norms) for p, k in moduli)
    a = RatMatrix.diagonal([-1, -1, 1, 1])
    b = RatMatrix.diagonal([-1, 1, -1, 1])
    assert tilde_delta(rep(a, b, r, r)) == Mu2Value.ONE
    assert tilde_delta(rep(r, r, a, b)) == Mu2Value.ONE
