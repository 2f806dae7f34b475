import os
import random
import subprocess
import sys
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep import clifford, linalg, surfrep
from pglrep.clifford import (
    _SPINOR_PRIME,
    CliffordElement,
    KernelElement,
    _sqrt_minus_one,
    commutator_product,
    lift_factors,
)
from pglrep.construct import build_representation, catalogue_matrix
from pglrep.linalg import BadShape, NotOrthogonal, RatMatrix, commutator
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

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize(
        "genus,n,gens,match",
        [
            *(
                pytest.param(genus, n, (I4,) * 4, "must be ints", id=f"{genus}-{n}")
                for genus, n in [(2.0, 4), (2, 4.0), (True, 4), (2, True)]
            ),
            # a table is not a RatMatrix, and a list of lists is not even hashable
            pytest.param(2, 4, (I4, [[1, 0, 0, 0]] * 4, I4, I4), "generator B1 is not a RatMatrix",
                         id="list-generator"),
        ],
    )
    def test_genus_and_n_must_be_ints(self, genus, n, gens, match):
        with pytest.raises(BadShape, match=match):
            SurfaceRep(genus, n, gens)

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

    def test_minus_identity_after_conjugation(self):
        # a rational conjugate of the pair: the product is reduced from den > 1
        q = randmat.random_orthogonal(random.Random(5), 4)
        a, b = (q * m * q.transpose() for m in (X4, XP4))
        assert a.den > 1
        assert delta2(rep(a, b)) == RelationSign.MINUS_I

    def test_mixed_sign_diagonal_is_violation(self):
        # two reflections of the last plane at pi/4: commutator diag(1, 1, -1, -1)
        # (a commutator has det 1, so diag(1, ..., 1, -1) cannot be reached)
        a = RatMatrix.diagonal([1, 1, 1, -1])
        b = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert commutator(a, b) == RatMatrix.diagonal([1, 1, -1, -1])
        with pytest.raises(RelationViolated):
            rep(a, b)

    def test_zero_on_the_diagonal_is_violation(self):
        # [(1 2), (1 3)] is a 3-cycle: a permutation matrix with zero diagonal entries
        a = RatMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = RatMatrix([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
        assert [commutator(a, b).num[i][i] for i in range(4)] == [0, 0, 0, 1]
        with pytest.raises(RelationViolated):
            rep(a, b)

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

    @pytest.mark.parametrize("mu2", ["1", "omega", 0, None])
    def test_mu2_must_be_a_mu2_value(self, mu2):
        # a string "1" would get round the rule that mu2 = 1 needs mu1 = 0
        with pytest.raises(InvalidClass, match="Mu2Value"):
            InvariantClass((1, 0, 0, 0), mu2)
        with pytest.raises(InvalidClass, match="Mu2Value"):
            InvariantClass((0, 0, 0, 0), mu2)

    def test_invalid_class_combination_rejected(self):
        with pytest.raises(InvalidClass):
            InvariantClass((1, 0, 0, 0), Mu2Value.ONE)
        for mu1 in ((False, True, 0.0, 0), (0, 1.0, 0, 0), (0, 0, True, 0)):
            with pytest.raises(InvalidClass, match="bits"):
                InvariantClass(mu1, Mu2Value.ZERO)


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


# ---------------------------------------------------------------------------
# the trace criterion against the commutator product, and work counts
# ---------------------------------------------------------------------------


def _oracle_sign(gens):
    """+-I from the reduced product of the commutators, None for neither."""
    product = reduce(mul, (commutator(a, b) for a, b in zip(gens[::2], gens[1::2])))
    eye = RatMatrix.identity(product.n)
    return {eye: RelationSign.PLUS_I, -eye: RelationSign.MINUS_I}.get(product)


def _certified_sign(gens):
    """The relation sign certification finds, None for RelationViolated."""
    try:
        return SurfaceRep(len(gens) // 2, gens[0].n, gens).relation_sign
    except RelationViolated:
        return None


def _memo():
    return surfrep._handle_commutator.cache_info()


def _assert_sign_cold_and_warm(gens, expected):
    # cold, then warm: the second certification reads every commutator from the memo
    surfrep._handle_commutator.cache_clear()
    assert _certified_sign(gens) == expected
    misses = _memo().misses
    assert _certified_sign(gens) == expected
    assert _memo().misses == misses


def _near_miss_handle(rng, n):
    """A handle whose commutator is not +-I but has a trace close to +-n:
    either one small rational plane rotation (two reflections whose mirrors
    meet at a small angle phi, commutator the rotation by 4 phi), or the
    mixed-sign diagonal diag(1, ..., 1, -1, -1), possibly negated by an
    anti-commuting pair elsewhere."""
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        u = [0] * n
        u[i], u[j] = rng.randint(5, 12), rng.choice((1, -1))
        return [RatMatrix.diagonal([-1 if k == i else 1 for k in range(n)]), randmat.householder(u)]
    swap = [[int(r == c) for c in range(n)] for r in range(n)]
    swap[n - 2][n - 2] = swap[n - 1][n - 1] = 0
    swap[n - 2][n - 1] = swap[n - 1][n - 2] = 1
    return [RatMatrix.diagonal([1] * (n - 1) + [-1]), RatMatrix(swap)]


def _random_handle(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        # two unrelated orthogonal matrices: almost never a relation
        a, b = randmat.random_orthogonal(rng, n), randmat.random_orthogonal(rng, n)
    elif kind == 1:
        q = randmat.random_orthogonal(rng, n)
        a, b = q, q.transpose()
    elif kind == 2:
        a, b = build_representation(2, n, InvariantClass((0,) * 4, Mu2Value.OMEGA)).gens[:2]
    else:
        a, b = _near_miss_handle(rng, n)
    p = randmat.random_orthogonal(rng, n)
    return [p * a * p.transpose(), p * b * p.transpose()]


@settings(max_examples=60, deadline=None)
@given(
    g=st.sampled_from((2, 3)),
    n=st.sampled_from((4, 6, 8)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_relation_trace_agrees_with_the_commutator_product(g, n, seed):
    rng = random.Random(seed)
    gens = tuple(m for _ in range(g) for m in _random_handle(rng, n))
    _assert_sign_cold_and_warm(gens, _oracle_sign(gens))


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("anticommuting", [False, True], ids=["near-n", "near-minus-n"])
def test_relation_violations_with_a_trace_close_to_n(n, anticommuting):
    rng = random.Random(n)
    first = _handle(rng, n, Mu2Value.OMEGA if anticommuting else Mu2Value.ZERO)
    for near in (_near_miss_handle(random.Random(seed), n) for seed in range(4)):
        gens = (*first, *near)
        product = reduce(mul, (commutator(a, b) for a, b in zip(gens[::2], gens[1::2])))
        trace = sum(product.entry(i, i) for i in range(n))
        assert n - 4 <= (-trace if anticommuting else trace) < n
        assert _oracle_sign(gens) is None
        _assert_sign_cold_and_warm(gens, None)


class TestCommutatorMemo:
    def test_bound(self):
        assert _memo().maxsize == 64

    def test_keyed_by_value(self):
        surfrep._handle_commutator.cache_clear()
        # the handles (X4, XP4) and (I, I), then equal copies of both
        assert delta2(rep(X4, XP4)) == RelationSign.MINUS_I
        assert (_memo().misses, _memo().hits) == (2, 0)
        assert delta2(rep(RatMatrix(X4.rows), RatMatrix(XP4.rows))) == RelationSign.MINUS_I
        assert (_memo().misses, _memo().hits) == (2, 2)

    def test_the_order_of_a_handle_is_part_of_the_key(self):
        rng = random.Random(7)
        a, b = randmat.random_orthogonal(rng, 4), randmat.random_orthogonal(rng, 4)
        surfrep._handle_commutator.cache_clear()
        # [A, B][B, A] = I, and the memo then holds both orders
        assert SurfaceRep(2, 4, (a, b, b, a)).relation_sign == RelationSign.PLUS_I
        assert _oracle_sign((a, b, a, b)) is None
        with pytest.raises(RelationViolated):
            SurfaceRep(2, 4, (a, b, a, b))
        assert (_memo().misses, _memo().hits) == (2, 2)

    def test_more_distinct_handles_than_the_bound(self):
        rng = random.Random(11)
        classes = [rng.choice((Mu2Value.ZERO, Mu2Value.OMEGA)) for _ in range(70)]
        gens = tuple(m for mu2 in classes for m in _handle(rng, 4, mu2))
        expected = RelationSign.MINUS_I if classes.count(Mu2Value.OMEGA) % 2 else RelationSign.PLUS_I
        assert _oracle_sign(gens) == expected
        surfrep._handle_commutator.cache_clear()
        assert _certified_sign(gens) == expected
        assert (_memo().currsize, _memo().misses) == (64, 70)
        # read in a cycle longer than the memo, every handle was evicted before its turn
        assert _certified_sign(gens) == expected
        assert (_memo().currsize, _memo().misses, _memo().hits) == (64, 140, 0)

    @pytest.mark.parametrize("conjugated", [False, True], ids=["den-1", "den-not-1"])
    def test_each_product_is_reduced_once(self, conjugated, monkeypatch):
        # commutators -I, I, -I: one product before the trace
        gens = (X4, XP4, Y4, YP4, XP4, X4)
        if conjugated:
            p = randmat.random_orthogonal(random.Random(13), 4)
            gens = tuple(p * m * p.transpose() for m in gens)
        assert _oracle_sign(gens) == RelationSign.PLUS_I
        surfrep._handle_commutator.cache_clear()
        calls = _counting(monkeypatch, linalg, "lowest_terms")
        assert SurfaceRep(3, 4, gens).relation_sign == RelationSign.PLUS_I
        assert len(calls) == 1
        table, den = calls[0]
        assert (den != 1) == conjugated
        # the partial product is -I times I, whatever its denominator
        assert linalg.lowest_terms(table, den) == ((-RatMatrix.identity(4)).num, 1)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_distinct_generator_is_factored_once(monkeypatch):
    calls = _counting(monkeypatch, linalg, "reflection_vectors")
    q = randmat.random_orthogonal(random.Random(3), 4)
    # X4 and I4 in three slots each, XP4 in two, Y4 and an equal copy of it
    r = rep(X4, XP4, X4, XP4, RatMatrix(Y4.rows), Y4, X4, I4, g=5)
    assert len(calls) == 4
    assert r.reflections[0] is r.reflections[2] is r.reflections[6]
    calls.clear()
    SurfaceRep(2, 4, (q, q.transpose(), q.transpose(), q))
    assert len(calls) == 2


@pytest.mark.parametrize("target", [
    InvariantClass((0, 0, 0, 0, 0, 0), mu2) for mu2 in Mu2Value
] + [InvariantClass((1, 0, 0, 1, 0, 0), Mu2Value.OMEGA)], ids=lambda c: f"{c.mu1_string()}-{c.mu2.value}")
def test_spin_obstruction_runs_once_per_representation(target, monkeypatch):
    calls = _counting(monkeypatch, clifford, "spinor_commutator")
    r = build_representation(3, 6, target)
    assert invariants(r) == target
    if target.mu1_is_zero:
        assert tilde_delta(r) == target.mu2
    assert len(calls) == (1 if target.mu1_is_zero else 0)


def test_certify_timings_script():
    # the per-stage profile of certification, run as shipped with one run per case
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "certify_timings.py"), "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert title.startswith("best of 1 runs, ms per stage")
    assert header.split() == ["case", "reps", "gens", "factored", "commutators", "factor", "relation",
                              "spin", "other", "construct", "total"]
    assert len(rows) == 9
    for row in rows:
        kind, g, n, reps, gens, factored, commutators, *ms = row.split()
        assert int(gens) == 2 * int(g) * int(reps) >= int(factored) > 0
        # memo misses, counted from an empty memo
        assert 0 < int(commutators) <= int(reps) * int(g)
        assert len(ms) == 6 and all(float(x) >= -0.01 for x in ms)
    # the alternating case holds two distinct generators in 64 slots and two distinct handles
    assert rows[-1].split()[:7] == ["alternating", "32", "16", "1", "64", "2", "2"]
