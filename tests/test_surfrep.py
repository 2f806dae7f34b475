import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.clifford import CliffordElement, KernelElement, commutator_product
from pglrep.construct import catalogue_matrix
from pglrep.linalg import NotOrthogonal, RatMatrix
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
        with pytest.raises(ValueError):
            SurfaceRep(1, 4, (I4, I4))

    def test_n_must_be_even_and_at_least_four(self):
        with pytest.raises(ValueError):
            SurfaceRep(2, 3, (RatMatrix.identity(3),) * 4)

    def test_generator_count(self):
        with pytest.raises(ValueError):
            SurfaceRep(2, 4, (I4, I4))

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
