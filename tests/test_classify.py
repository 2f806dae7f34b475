import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.classify import (
    MAX_GENUS,
    BadInput,
    FinAbGroup,
    GroupAction,
    LiftTarget,
    TargetInvalidForClass,
    TwistedClass,
    classify_bundles,
    component_count,
    components_per_class,
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
        lambda: components_per_class(InvariantClass(Z, Mu2Value.ZERO), 4, 2.0),
        lambda: egl_component_counts(0, 2.0, 4),
        lambda: egl_component_counts(0.0, 2, 4),
        lambda: egl_component_counts(True, 2, 4),
        lambda: po_bundle_data(4.0),
        lambda: z0(4, 2.5),
        lambda: z0(4.0, 2),
        lambda: moduli_dimension(4.5, 2),
        lambda: moduli_dimension(4, 2.0),
    ],
)
def test_non_int_orders_degrees_and_sizes_rejected(make):
    # 2.0 == 2 and True == 1: only a type check tells these from valid input
    with pytest.raises(BadInput):
        make()


class TestGroups:
    def test_sizes_and_arithmetic(self):
        g = FinAbGroup((2, 4))
        assert g.size() == 8
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.neg((1, 1)) == (1, 3)
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
        (
            lambda: components_per_class(InvariantClass((0,) * 6, Mu2Value.ZERO), 4, 2),
            "mu1 length 6, expected 4",
        ),
    ],
    ids=["reduce-length", "endomorphism-count", "image-count", "order", "z0-odd-n", "mu1-length"],
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
        assert components_per_class(InvariantClass(Z, Mu2Value.ZERO), 4, 2) == 2
        assert components_per_class(InvariantClass(Z, Mu2Value.ONE), 4, 2) == 1
        assert components_per_class(InvariantClass((1, 0, 0, 0), Mu2Value.OMEGA), 4, 2) == 1
        # z0(6, 2) = 1 moves the doubled class
        assert components_per_class(InvariantClass(Z, Mu2Value.ONE), 6, 2) == 2
        assert components_per_class(InvariantClass(Z, Mu2Value.ZERO), 6, 2) == 1

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_sum_over_classes_matches_total(self, n, g):
        classes = invariant_classes(g, n)
        assert sum(components_per_class(c, n, g) for c in classes) == component_count(n, g)


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
        ],
        ids=["float-rank", "bool-rank", "w1-and-f1-not-bits", "w2-not-a-bit",
             "bool-in-w1", "float-in-f1", "bool-w2"],
    )
    def test_rank_must_be_an_int_and_classes_bits(self, w1, w2, f1, n):
        with pytest.raises(BadInput):
            tensor_by_line_bundle(w1, w2, f1, n)

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
