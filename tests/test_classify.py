import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.classify import (
    MAX_GENUS,
    BadInput,
    ComponentReport,
    FinAbGroup,
    GroupAction,
    LiftTarget,
    TargetInvalidForClass,
    TwistedClass,
    classify_bundles,
    component_count,
    components_by_class,
    egl_component_counts,
    gamma_subgroup,
    invariant_classes,
    lifts_to,
    moduli_dimension,
    po_bundle_data,
    po_kernel_label,
    project_twisted,
    tensor_by_line_bundle,
    z0,
)
from pglrep.surfrep import InvariantClass, Mu2Value

Z = (0, 0, 0, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FinAbGroup((2.0, 3)),
        lambda: FinAbGroup((2, True)),
        lambda: FinAbGroup((2, 4)).reduce((True, 2.5)),
        lambda: FinAbGroup((2, 4)).reduce((1, 2.0)),
        lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((4,)), (((3.0,),),)),
        lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((4,)), (((3,),),)).apply((True,), (1,)),
        lambda: TwistedClass(Z, 0.0, 1),
        lambda: TwistedClass((1, 0, 0, 0), True),
        lambda: component_count(4, 2.0),
        lambda: component_count(4.0, 2),
        lambda: component_count(4, True),
        lambda: invariant_classes(2.0, 4),
        lambda: invariant_classes(2, 4.0),
        lambda: invariant_classes(True, 4),
        lambda: components_by_class(2.0, 4),
        lambda: egl_component_counts(0, 2.0, 4),
        lambda: egl_component_counts(0.0, 2, 4),
        lambda: egl_component_counts(True, 2, 4),
        lambda: po_bundle_data(4.0),
        lambda: z0(4, 2.5),
        lambda: z0(4.0, 2),
        lambda: moduli_dimension(4.5, 2),
        lambda: moduli_dimension(4, 2.0),
        lambda: GroupAction((2,), FinAbGroup((4,)), (((3,),),)),
        lambda: gamma_subgroup(None, []),
        lambda: classify_bundles(None, []),
        lambda: FinAbGroup(5),
        lambda: FinAbGroup((2,)).reduce(iter([1])),
        lambda: classify_bundles(po_bundle_data(4), [1]),
    ],
)
def test_non_int_orders_degrees_and_sizes_rejected(make):
    # 2.0 == 2 and True == 1: only a type check tells these from valid input;
    # the last six raised AttributeError or a bare TypeError
    with pytest.raises(BadInput):
        make()


class TestGroups:
    def test_sizes_and_arithmetic(self):
        g = FinAbGroup((2, 4))
        assert g.size() == 8
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.sub(g.zero(), (1, 1)) == (1, 3)
        assert len(list(g.elements())) == 8

    def test_order_bound(self):
        with pytest.raises(BadInput):
            FinAbGroup((1,))

    def test_size_cap(self):
        with pytest.raises(BadInput):
            FinAbGroup((2,) * 17)

    def test_action_must_be_automorphism(self):
        pi0 = FinAbGroup((2,))
        pi1 = FinAbGroup((2, 2))
        with pytest.raises(BadInput):
            GroupAction(pi0, pi1, (((0, 0), (1, 1)),))

    def test_action_must_respect_orders(self):
        pi0 = FinAbGroup((2,))
        pi1 = FinAbGroup((4,))
        # multiplication by 2 is not invertible mod 4; by 3 it is and squares
        # to the identity, so only the latter defines a Z2 action
        with pytest.raises(BadInput):
            GroupAction(pi0, pi1, (((2,),),))
        GroupAction(pi0, pi1, (((3,),),))


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: FinAbGroup((2, 4)).reduce((1,)), "wrong number of coordinates"),
        (
            lambda: GroupAction(FinAbGroup((2, 2)), FinAbGroup((4,)), (((3,),),)),
            "one endomorphism per pi0 generator",
        ),
        (
            lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((2, 2)), (((1, 0),),)),
            "one image per pi1 generator",
        ),
        # a 3-cycle of the nonzero elements of Z2 x Z2 cannot be a Z2 action
        (
            lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((2, 2)), (((0, 1), (1, 1)),)),
            "violates its order 2",
        ),
        (lambda: z0(5, 2), "n must be even"),
        (lambda: z0(-2, 2), "n must be even and >= 4, got -2"),
        (lambda: z0(0, 2), "n must be even and >= 4, got 0"),
        (lambda: z0(2, 2), "n must be even and >= 4, got 2"),
        (lambda: z0(4, 1), "genus must be >= 2, got 1"),
        (lambda: z0(4, -3), "genus must be >= 2, got -3"),
        (
            lambda: lifts_to(InvariantClass(Z, Mu2Value.ZERO), "SO"),
            "need an InvariantClass and a LiftTarget",
        ),
        (lambda: lifts_to(Z, LiftTarget.SO), "need an InvariantClass and a LiftTarget"),
        (
            lambda: project_twisted(InvariantClass(Z, Mu2Value.ZERO)),
            "must be a TwistedClass",
        ),
        # genus 0 and genus 1 are refused here, not later by InvariantClass
        (lambda: TwistedClass((), 0, 0), "even length 2g with g >= 2"),
        (lambda: TwistedClass((0, 1, 0), 0), "even length 2g with g >= 2"),
        (lambda: tensor_by_line_bundle((), 0, (), 4), "even length 2g with g >= 2"),
        (lambda: tensor_by_line_bundle((0, 1), 1, (1, 0), 4), "even length 2g with g >= 2"),
        (lambda: tensor_by_line_bundle(Z, 1, (1, 0) * 3, 4), "w1 and f1 must have the same"),
        (lambda: po_kernel_label(4, (2, 0)), "not an element of pi_1 of PO"),
        (lambda: po_kernel_label(5, (1,)), "n must be even and >= 4, got 5"),
        # a non-iterable where a sequence belongs
        (
            lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((4,)), None),
            "generator_images must be a sequence, got None",
        ),
        (lambda: gamma_subgroup(po_bundle_data(4), None), "mu1_image must be a sequence, got None"),
        (lambda: classify_bundles(po_bundle_data(4), None), "mu1_image must be a sequence, got None"),
        (lambda: TwistedClass(None, 0, 0), "mu1bar must be a sequence, got None"),
        (lambda: tensor_by_line_bundle(Z, 0, None, 4), "f1 must be a sequence, got None"),
        (lambda: FinAbGroup((2,)).add(None, (1,)), "elements must be sequences of ints"),
        (lambda: FinAbGroup((2,)).sub(None, (1,)), "elements must be sequences of ints"),
        (
            lambda: GroupAction(FinAbGroup((2,)), FinAbGroup((4,)), [None]),
            "each endomorphism must be a sequence, got None",
        ),
        (lambda: ComponentReport(0, None), "entries must be a sequence, got None"),
        (lambda: ComponentReport(0, [None]), "each entry must be a sequence, got None"),
        # map would stop at the shorter operand and drop the rest of the longer one
        (lambda: FinAbGroup((2,)).add((1, 5), (1,)), "elements have different lengths"),
        (lambda: FinAbGroup((2,)).sub((1,), (1, 5)), "elements have different lengths"),
    ],
    ids=[
        "reduce-length", "endomorphism-count", "image-count", "order", "z0-odd-n", "z0-n-negative",
        "z0-n-zero", "z0-n-two",
        "z0-genus-1", "z0-genus-negative", "lifts-to-target-str", "lifts-to-class-tuple",
        "project-untwisted", "twisted-genus-0", "twisted-odd-length",
        "tensor-genus-0", "tensor-genus-1", "tensor-length-mismatch", "kernel-label-outside-pi1",
        "kernel-label-odd-n", "images-none", "gamma-image-none", "classify-image-none",
        "twisted-mu1bar-none", "tensor-f1-none", "add-none", "sub-none", "endomorphism-none",
        "report-entries-none", "report-entry-none", "add-length", "sub-length",
    ],
)
def test_shape_and_range_errors(make, match):
    with pytest.raises(BadInput, match=match):
        make()


class TestGammaSubgroup:
    def test_trivial_image_gives_trivial_subgroup(self):
        for n in (4, 6):
            action = po_bundle_data(n)
            assert gamma_subgroup(action, [action.pi0.zero()]) == frozenset(
                {action.pi1.zero()}
            )

    def test_cyclic_regime(self):
        action = po_bundle_data(6)
        full = list(action.pi0.elements())
        assert gamma_subgroup(action, full) == frozenset({(0,), (2,)})

    def test_klein_regime(self):
        action = po_bundle_data(4)
        full = list(action.pi0.elements())
        assert gamma_subgroup(action, full) == frozenset({(0, 0), (1, 0)})


class TestClassifyBundles:
    @pytest.mark.parametrize("n", [4, 6])
    def test_po_scenarios(self, n):
        action = po_bundle_data(n)
        zero = [action.pi0.zero()]
        full = list(action.pi0.elements())
        labels0 = {po_kernel_label(n, v) for v in classify_bundles(action, zero)}
        labels1 = {po_kernel_label(n, v) for v in classify_bundles(action, full)}
        assert labels0 == {"0", "1", "omega"}
        assert labels1 == {"0", "omega"}

    def test_trivial_action_classifies_by_pi1(self):
        pi0 = FinAbGroup((2,))
        pi1 = FinAbGroup((2, 2))
        identity = (((1, 0), (0, 1)),)
        action = GroupAction(pi0, pi1, identity)
        reps = classify_bundles(action, [pi0.zero()])
        assert reps == sorted(pi1.elements())

    def test_swap_action_quotient(self):
        pi0 = FinAbGroup((2,))
        pi1 = FinAbGroup((2, 2))
        swap = (((0, 1), (1, 0)),)
        action = GroupAction(pi0, pi1, swap)
        # gamma for the full image is {(0,0),(1,1)}, preserved by the swap
        reps = classify_bundles(action, list(pi0.elements()))
        assert reps == [(0, 0), (0, 1)]

    def test_non_descending_input_detected(self):
        # two involutive automorphisms that do not commute: the "action" is
        # not an action of the abelian pi0, and the second generator would
        # fail to preserve the correction subgroup built from the first
        pi0 = FinAbGroup((2, 2))
        pi1 = FinAbGroup((2, 2))
        swap_and_shear = ((((0, 1), (1, 0))), (((1, 0), (1, 1))))
        with pytest.raises(BadInput, match="do not commute"):
            GroupAction(pi0, pi1, swap_and_shear)

    def test_commuting_generators_preserve_gamma(self):
        # swap and negation on Z4 x Z4 commute, so every pi0 element maps
        # each correction subgroup onto itself
        pi0 = FinAbGroup((2, 2))
        pi1 = FinAbGroup((4, 4))
        action = GroupAction(pi0, pi1, (((0, 1), (1, 0)), ((3, 0), (0, 3))))
        for v in pi1.elements():
            assert action.apply((1, 0), action.apply((0, 1), v)) == action.apply((1, 1), v)
            assert action.apply((0, 1), action.apply((1, 0), v)) == action.apply((1, 1), v)
        for image in ([(1, 0)], [(0, 1)], [(1, 1)], list(pi0.elements())):
            gamma = gamma_subgroup(action, image)
            for g0 in pi0.elements():
                assert {action.apply(g0, v) for v in gamma} == gamma
            reps = classify_bundles(action, image)
            assert reps and reps == sorted(reps)


# ---------------------------------------------------------------------------
# Brute-force reference: the checks, the closure and the orbit loop that the
# cycle tables and the coset walk replaced.  Each map is applied from its
# images, `order` times per element for the order check, and every pi_0
# element and every element of Gamma is scanned per element of pi_1.
# ---------------------------------------------------------------------------


def _ref_apply_generator(pi1, block, v):
    acc = [0] * len(pi1.orders)
    for coeff, image in zip(v, block):
        for j, x in enumerate(image):
            acc[j] += coeff * x
    return pi1.reduce(acc)


def _ref_check(pi0, pi1, generator_images):
    """GroupAction's checks, in its order."""
    if len(generator_images) != len(pi0.orders):
        raise BadInput("need one endomorphism per pi0 generator")
    images = tuple(tuple(pi1.reduce(v) for v in block) for block in generator_images)
    for block in images:
        if len(block) != len(pi1.orders):
            raise BadInput("endomorphism must list one image per pi1 generator")
    for k, order in enumerate(pi0.orders):
        seen = {_ref_apply_generator(pi1, images[k], v) for v in pi1.elements()}
        if len(seen) != pi1.size():
            raise BadInput(f"pi0 generator {k} does not act by an automorphism")
        for v in pi1.elements():
            w = v
            for _ in range(order):
                w = _ref_apply_generator(pi1, images[k], w)
            if w != v:
                raise BadInput(f"pi0 generator {k} violates its order {order}")
    for k, j in itertools.combinations(range(len(pi0.orders)), 2):
        for v in pi1.elements():
            kj = _ref_apply_generator(pi1, images[k], _ref_apply_generator(pi1, images[j], v))
            if kj != _ref_apply_generator(pi1, images[j], _ref_apply_generator(pi1, images[k], v)):
                raise BadInput(f"pi0 generators {k} and {j} act by maps that do not commute")


def _ref_apply(action, g0, v):
    out = action.pi1.reduce(v)
    for k, times in enumerate(action.pi0.reduce(g0)):
        for _ in range(times):
            out = _ref_apply_generator(action.pi1, action.generator_images[k], out)
    return out


def _ref_gamma(action, mu1_image):
    pi1 = action.pi1
    image = [action.pi0.reduce(g0) for g0 in mu1_image]
    gens = {pi1.sub(v, _ref_apply(action, g0, v)) for v in pi1.elements() for g0 in image}
    subgroup = {pi1.zero()}
    frontier = list(subgroup)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = pi1.add(a, b)
                if c not in subgroup:
                    subgroup.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(subgroup)


def _ref_classify(action, mu1_image):
    gamma = _ref_gamma(action, mu1_image)

    def coset_rep(v):
        return min(action.pi1.add(v, w) for w in gamma)

    reps = set()
    for v in action.pi1.elements():
        orbit = {coset_rep(_ref_apply(action, g0, v)) for g0 in action.pi0.elements()}
        reps.add(min(orbit))
    return sorted(reps)


def _verdict(make):
    """None if make() runs, else the message of the BadInput it raises."""
    try:
        make()
    except BadInput as exc:
        return str(exc)
    return None


def _image_subsets(pi0, rng):
    """Every subset of a pi_0 of at most 4 elements, else the zero, the whole
    group and a seeded random subset."""
    elements = list(pi0.elements())
    if len(elements) <= 4:
        sizes = range(len(elements) + 1)
        return [list(c) for r in sizes for c in itertools.combinations(elements, r)]
    return [[pi0.zero()], elements, rng.sample(elements, rng.randint(1, 4))]


# every action this file builds, by (pi_0 orders, pi_1 orders, generator images)
_ACTIONS = {
    "po-klein": ((2,), (2, 2), (((1, 0), (1, 1)),)),
    "po-cyclic": ((2,), (4,), (((3,),),)),
    "not-automorphism": ((2,), (2, 2), (((0, 0), (1, 1)),)),
    "doubling": ((2,), (4,), (((2,),),)),
    "float-image": ((2,), (4,), (((3.0,),),)),
    "endomorphism-count": ((2, 2), (4,), (((3,),),)),
    "image-count": ((2,), (2, 2), (((1, 0),),)),
    "three-cycle": ((2,), (2, 2), (((0, 1), (1, 1)),)),
    "identity": ((2,), (2, 2), (((1, 0), (0, 1)),)),
    "swap": ((2,), (2, 2), (((0, 1), (1, 0)),)),
    "swap-and-shear": ((2, 2), (2, 2), (((0, 1), (1, 0)), ((1, 0), (1, 1)))),
    "swap-and-negation": ((2, 2), (4, 4), (((0, 1), (1, 0)), ((3, 0), (0, 3)))),
    "trivial-z64": ((64,), (64,), (((1,),),)),
    "swap-and-negation-z16": ((2, 2), (16, 16), (((0, 1), (1, 0)), ((15, 0), (0, 15)))),
}


def _random_actions(seed, count):
    """Seeded images: half with random entries, half a unit scalar times the
    identity, the swap or the shear, which may miss the order or, with the
    shear, fail to commute."""
    rng = random.Random(seed)
    shapes = [((2,), (4,)), ((2,), (6,)), ((4,), (5,)), ((3,), (7,)), ((2,), (2, 4)),
              ((2,), (3, 3)), ((2, 2), (4, 4)), ((2, 4), (5, 5)), ((4,), (8,)), ((2, 2), (3,)),
              ((2, 2), (2, 2)), ((2, 4), (2, 2)), ((4, 4), (3, 3))]
    for _ in range(count):
        pi0, pi1 = rng.choice(shapes)
        rank = len(pi1)
        if rng.random() < 0.5:
            images = tuple(
                tuple(tuple(rng.randrange(-1, k) for k in pi1) for _ in range(rank)) for _ in pi0
            )
        else:
            square = rank == 2 and pi1[0] == pi1[1]
            identity = tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))
            maps = [identity, ((0, 1), (1, 0)), ((1, 0), (1, 1))] if square else [identity]
            images = tuple(
                tuple(tuple(u * x for x in row) for row in rng.choice(maps))
                for u in (rng.randrange(1, max(pi1)) for _ in pi0)
            )
        yield pi0, pi1, images


class TestAgainstBruteForce:
    @pytest.mark.parametrize("case", list(_ACTIONS), ids=list(_ACTIONS))
    def test_listed_actions(self, case):
        pi0, pi1, images = _ACTIONS[case]
        self._compare(FinAbGroup(pi0), FinAbGroup(pi1), images, random.Random(case))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_random_images(self, seed):
        accepted = 0
        rng = random.Random(seed)
        for pi0, pi1, images in _random_actions(seed, 60):
            accepted += self._compare(FinAbGroup(pi0), FinAbGroup(pi1), images, rng)
        assert accepted >= 5

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_po_bundle_data_every_image_subset(self, n):
        action = po_bundle_data(n)
        for image in _image_subsets(action.pi0, None):
            assert gamma_subgroup(action, image) == _ref_gamma(action, image)
            assert classify_bundles(action, image) == _ref_classify(action, image)

    @pytest.mark.parametrize("image", [[(0, 0)], [(True,)], [(2.0,)], [1], [(1,), "1"]])
    def test_bad_images_refused_alike(self, image):
        action = po_bundle_data(6)
        for new, ref in ((gamma_subgroup, _ref_gamma), (classify_bundles, _ref_classify)):
            message = _verdict(lambda: new(action, image))
            assert message is not None and message == _verdict(lambda: ref(action, image))

    @staticmethod
    def _compare(pi0, pi1, images, rng):
        """Same verdict and message; when accepted, the same apply, Gamma and
        classes.  Returns whether the action was accepted."""
        message = _verdict(lambda: GroupAction(pi0, pi1, images))
        assert message == _verdict(lambda: _ref_check(pi0, pi1, images))
        if message is not None:
            return False
        action = GroupAction(pi0, pi1, images)
        for g0 in pi0.elements():
            assert all(action.apply(g0, v) == _ref_apply(action, g0, v) for v in pi1.elements())
        # the brute-force Gamma costs |Gamma| additions per generator, so on a
        # larger pi_1 only the zero and the whole of pi_0 are compared
        if pi1.size() > 64:
            subsets = [[pi0.zero()], list(pi0.elements())]
        else:
            subsets = _image_subsets(pi0, rng)
        for image in subsets:
            assert gamma_subgroup(action, image) == _ref_gamma(action, image)
            assert classify_bundles(action, image) == _ref_classify(action, image)
        return True


@pytest.mark.parametrize(
    "case",
    ["trivial-z64", "swap-and-negation-z16"],
)
def test_reductions_linear_in_pi1(monkeypatch, case):
    """FinAbGroup.reduce, the unit of group work, runs a bounded number of
    times per element of pi_1.  The brute-force classifier reduced 4 161 times
    to build trivial-z64 and 286 785 to classify its full image, and 2 564 and
    20 993 times for swap-and-negation-z16."""
    pi0_orders, pi1_orders, images = _ACTIONS[case]
    pi0, pi1 = FinAbGroup(pi0_orders), FinAbGroup(pi1_orders)
    calls = []
    reduce = FinAbGroup.reduce
    monkeypatch.setattr(FinAbGroup, "reduce", lambda self, v: calls.append(v) or reduce(self, v))
    action = GroupAction(pi0, pi1, images)
    built = len(calls)
    image = list(pi0.elements())
    classify_bundles(action, image)
    classified = len(calls) - built
    k, rank = len(pi0.orders), len(pi1.orders)
    # one per image vector, then one per element of pi_1 and pi_0 generator
    assert built <= k * (rank + pi1.size())
    # three per image element and pi_1 generator for Gamma's generators, under
    # 2 |Gamma| to grow it, one per element for its cosets and two per coset
    # and pi_0 generator for the orbits
    assert classified <= len(image) * (1 + 3 * rank) + (3 + 2 * k) * pi1.size()


class TestInvariantClasses:
    def test_counts(self):
        assert len(invariant_classes(2, 4)) == 33
        assert len(invariant_classes(3, 4)) == 129

    def test_spin_obstructed_class_listed_once(self):
        classes = invariant_classes(2, 4)
        ones = [c for c in classes if c.mu2 == Mu2Value.ONE]
        assert ones == [InvariantClass(Z, Mu2Value.ONE)]

    def test_deterministic_order(self):
        assert invariant_classes(2, 4) == invariant_classes(2, 4)

    def test_bad_input(self):
        with pytest.raises(BadInput):
            invariant_classes(1, 4)
        with pytest.raises(BadInput):
            invariant_classes(2, 5)
        with pytest.raises(BadInput):
            invariant_classes(MAX_GENUS + 1, 4)


class TestLiftsTo:
    def test_truth_table(self):
        nz = (1, 0, 0, 0)
        table = {
            (Z, Mu2Value.ZERO, LiftTarget.SO): True,
            (Z, Mu2Value.ZERO, LiftTarget.SPIN): True,
            (Z, Mu2Value.ONE, LiftTarget.SO): True,
            (Z, Mu2Value.ONE, LiftTarget.SPIN): False,
            (Z, Mu2Value.OMEGA, LiftTarget.SO): False,
            (Z, Mu2Value.OMEGA, LiftTarget.SPIN): False,
            (nz, Mu2Value.ZERO, LiftTarget.PIN): True,
            (nz, Mu2Value.ZERO, LiftTarget.O): True,
            (nz, Mu2Value.OMEGA, LiftTarget.PIN): False,
            (nz, Mu2Value.OMEGA, LiftTarget.O): False,
        }
        for (mu1, mu2, target), expected in table.items():
            assert lifts_to(InvariantClass(mu1, mu2), target) is expected

    def test_invalid_targets(self):
        with pytest.raises(TargetInvalidForClass):
            lifts_to(InvariantClass((1, 0, 0, 0), Mu2Value.ZERO), LiftTarget.SO)
        with pytest.raises(TargetInvalidForClass):
            lifts_to(InvariantClass(Z, Mu2Value.ZERO), LiftTarget.PIN)

    def test_spin_lift_implies_so_lift(self):
        for mu2 in Mu2Value:
            cls = InvariantClass(Z, mu2)
            if lifts_to(cls, LiftTarget.SPIN):
                assert lifts_to(cls, LiftTarget.SO)


def test_z0_values():
    assert z0(4, 2) == 0
    assert z0(4, 3) == 0
    assert z0(6, 2) == 1


class TestComponentCounts:
    def test_closed_forms(self):
        assert component_count(4, 2) == 34
        assert component_count(3, 5) == 3
        assert component_count(2, 2) == 35
        assert component_count(4, 3) == 130
        assert component_count(6, 2) == 34

    def test_per_class_values(self):
        def doubled(n):
            return [cls for cls, count in components_by_class(2, n) if count == 2]

        assert doubled(4) == [InvariantClass(Z, Mu2Value.ZERO)]
        # z0(6, 2) = 1 moves the doubled class
        assert doubled(6) == [InvariantClass(Z, Mu2Value.ONE)]
        assert dict(components_by_class(2, 4))[InvariantClass((1, 0, 0, 0), Mu2Value.OMEGA)] == 1

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_sum_over_classes_matches_total(self, n, g):
        table = components_by_class(g, n)
        assert [cls for cls, _ in table] == invariant_classes(g, n)
        assert {count for _, count in table} == {1, 2}
        assert sum(count for _, count in table) == component_count(n, g)


class TestEglCounts:
    def test_degree_zero_totals(self):
        report = egl_component_counts(0, 2, 4)
        assert report.total == 18
        assert report.fibre_total == 33

    def test_degree_one_totals(self):
        report = egl_component_counts(1, 2, 4)
        assert report.total == 16
        assert report.fibre_total == 16

    def test_higher_genus(self):
        assert egl_component_counts(0, 3, 4).total == 66
        assert egl_component_counts(0, 3, 4).fibre_total == 129
        assert egl_component_counts(1, 3, 4).total == 64

    def test_doubled_class_follows_z0(self):
        report = egl_component_counts(0, 2, 6)
        doubled = [cls for cls, m, _ in report.entries if m == 2]
        assert doubled == [TwistedClass((0,) * 4, 0, w2=1)]

    def test_bad_degree(self):
        with pytest.raises(BadInput):
            egl_component_counts(2, 2, 4)


class TestProjectTwisted:
    def test_examples(self):
        assert project_twisted(TwistedClass(Z, 0, w2=1)) == InvariantClass(Z, Mu2Value.ONE)
        assert project_twisted(TwistedClass(Z, 1)) == InvariantClass(Z, Mu2Value.OMEGA)
        assert project_twisted(TwistedClass((1, 0, 0, 0), 2)) == InvariantClass(
            (1, 0, 0, 0), Mu2Value.ZERO
        )

    def test_payload_shape_enforced(self):
        with pytest.raises(BadInput):
            TwistedClass(Z, 0)  # missing w2
        with pytest.raises(BadInput):
            TwistedClass(Z, 1, w2=0)  # odd degree carries no w2
        with pytest.raises(BadInput):
            TwistedClass((1, 0, 0, 0), 0, w2=0)
        # bits are ints: bool and float are refused, not read as 0 and 1
        for mu1bar, w2 in (((1.0, 0, 0, 0), None), ((True, 0, 0, 0), None), (Z, 1.0), (Z, False)):
            with pytest.raises(BadInput):
                TwistedClass(mu1bar, 0, w2)

    def test_surjective_onto_invariant_classes(self):
        g = 2
        image = set()
        for mu1bar in itertools.product((0, 1), repeat=2 * g):
            if any(mu1bar):
                image.add(project_twisted(TwistedClass(mu1bar, 0)))
                image.add(project_twisted(TwistedClass(mu1bar, 1)))
            else:
                image.add(project_twisted(TwistedClass(mu1bar, 0, w2=0)))
                image.add(project_twisted(TwistedClass(mu1bar, 0, w2=1)))
                image.add(project_twisted(TwistedClass(mu1bar, 1)))
        assert image == set(invariant_classes(g, 4))


class TestTensorByLineBundle:
    def test_zero_class_is_inert(self):
        assert tensor_by_line_bundle((0,) * 4, 1, (1, 1, 0, 1), 4) == ((0, 0, 0, 0), 1)

    def test_dual_basis_pairing(self):
        assert tensor_by_line_bundle((1, 0, 0, 0), 0, (0, 1, 0, 0), 4) == ((1, 0, 0, 0), 1)

    def test_self_pairing_vanishes(self):
        assert tensor_by_line_bundle((1, 0, 0, 0), 0, (1, 0, 0, 0), 4) == ((1, 0, 0, 0), 0)

    @pytest.mark.parametrize(
        "w1,w2,f1,n",
        [
            ((1, 0, 0, 0), 0, (0, 1, 0, 0), 4.0),
            ((1, 0, 0, 0), 0, (0, 1, 0, 0), True),
            ((2, 0, 0, 0), 1, (0, 3, 0, 0), 4),
            ((1, 0, 0, 0), 2, (0, 1, 0, 0), 4),
            ((True, 0, 0, 0), 0, (0, 1, 0, 0), 4),
            ((1, 0, 0, 0), 0, (0, 1.0, 0, 0), 4),
            ((1, 0, 0, 0), False, (0, 1, 0, 0), 4),
            ((1, 0, 0, 0), 0, (0, 1, 0, 0), -2),
            ((1, 0, 0, 0), 0, (0, 1, 0, 0), 0),
            ((1, 0, 0, 0), 0, (0, 1, 0, 0), 3),
        ],
        ids=["float-rank", "bool-rank", "w1-and-f1-not-bits", "w2-not-a-bit",
             "bool-in-w1", "float-in-f1", "bool-w2", "negative-rank", "zero-rank", "odd-rank"],
    )
    def test_rank_must_be_an_int_and_classes_bits(self, w1, w2, f1, n):
        with pytest.raises(BadInput):
            tensor_by_line_bundle(w1, w2, f1, n)

    def test_rank_two_follows_the_even_rank_formula(self):
        assert tensor_by_line_bundle((1, 0, 0, 0), 0, (0, 1, 0, 0), 2) == ((1, 0, 0, 0), 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
        st.integers(0, 1),
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    def test_involution(self, w1, w2, f1):
        once = tensor_by_line_bundle(tuple(w1), w2, tuple(f1), 4)
        twice = tensor_by_line_bundle(once[0], once[1], tuple(f1), 4)
        assert twice == (tuple(w1), w2)


def test_moduli_dimension():
    assert moduli_dimension(4, 2) == 34
    assert moduli_dimension(3, 2) == 20
    assert moduli_dimension(1, 2) == 4
    with pytest.raises(BadInput):
        moduli_dimension(0, 2)
