"""Acceptance suite: one test per shipped guarantee, every check exact.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Criterion 8 asserts the stated closed form for both classes of
the rank-3 series; its w2 = 0 half is not an exact quotient (the numerator
vanishes only to first order at t = 1), so that criterion fails by design
rather than being silently patched.
"""

import contextlib
import random
import time

from pglrep.classify import (
    LiftTarget,
    classify_bundles,
    component_count,
    egl_component_counts,
    invariant_classes,
    lifts_to,
    po_bundle_data,
    po_kernel_label,
)
from pglrep.clifford import commutator_product, lift_orthogonal, twisted_conjugation_matrix
from pglrep.construct import (
    PairKind,
    build_representation,
    catalogue_matrix,
    pair_for,
)
from pglrep.linalg import OrthComponent, RatMatrix, commutator, component
from pglrep.poincare import IntPolynomial, pt_sl3, pt_so3
from pglrep.surfrep import (
    InvariantClass,
    Mu2Value,
    RelationSign,
    SurfaceRep,
    delta2,
    invariants,
    tilde_delta,
)

import randmat


def _random_nonzero_rational(rng: random.Random):
    from fractions import Fraction

    num = rng.choice([k for k in range(-5, 6) if k != 0])
    return Fraction(num, rng.randint(1, 5))


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_every_class_is_realized():
    with criterion(1, "every invariant class is realized by a representation"):
        start = time.monotonic()
        for g in (2, 3):
            for n in (4, 6):
                classes = invariant_classes(g, n)
                assert len(classes) == 2 ** (2 * g + 1) + 1
                for target in classes:
                    rep = build_representation(g, n, target)
                    assert invariants(rep) == target
        assert time.monotonic() - start < 30.0


def test_criterion_2_catalogue_facts():
    with criterion(2, "catalogue component and commutation facts, n = 4..12"):
        start = time.monotonic()
        so = OrthComponent.SO
        for n in range(4, 13, 2):
            mod0 = n % 4 == 0
            x, xp = catalogue_matrix("X", n), catalogue_matrix("X'", n)
            y, yp = catalogue_matrix("Y", n), catalogue_matrix("Y'", n)
            z = catalogue_matrix("Z", n)
            w, wp = catalogue_matrix("W", n), catalogue_matrix("W'", n)
            assert (component(x) == so) == mod0 and (component(xp) == so) == mod0
            assert component(y) != so and component(yp) != so
            assert (component(z) != so) == mod0
            assert (component(w) == so) == (not mod0) and (component(wp) == so) == (not mod0)
            eye = RatMatrix.identity(n)
            assert commutator(x, xp) == -eye
            assert commutator(y, yp) == eye
            assert commutator(z, x) == -eye
            assert commutator(w, wp) == -eye
        assert time.monotonic() - start < 1.0


def test_criterion_3_classification_counts():
    with criterion(3, "class enumeration and component totals"):
        start = time.monotonic()
        for g in (2, 3):
            assert len(invariant_classes(g, 4)) == 2 ** (2 * g + 1) + 1
        assert component_count(4, 2) == 34
        assert component_count(4, 3) == 2 ** 7 + 2
        for g in (2, 3, 4, 7):
            assert component_count(5, g) == 3
        assert component_count(2, 2) == 35
        assert time.monotonic() - start < 1.0


def test_criterion_4_general_classifier():
    with criterion(4, "general bundle classifier in both residue regimes"):
        start = time.monotonic()
        for n in (4, 6):
            action = po_bundle_data(n)
            zero = [action.pi0.zero()]
            full = list(action.pi0.elements())
            reps0 = classify_bundles(action, zero)
            reps1 = classify_bundles(action, full)
            assert len(reps0) == 3 and len(reps1) == 2
            assert {po_kernel_label(n, v) for v in reps0} == {"0", "1", "omega"}
            assert {po_kernel_label(n, v) for v in reps1} == {"0", "omega"}
        assert time.monotonic() - start < 1.0


def test_criterion_5_clifford_engine():
    with criterion(5, "200 exact lift round-trips and rescaling invariance"):
        start = time.monotonic()
        rng = random.Random(20260810)
        for k in range(200):
            n = 2 + k % 7
            a = randmat.random_orthogonal(rng, n, rotations=rng.randint(0, 3))
            assert twisted_conjugation_matrix(lift_orthogonal(a)) == a
        lifts = [
            lift_orthogonal(catalogue_matrix("X", 4)),
            lift_orthogonal(catalogue_matrix("X'", 4)),
            lift_orthogonal(RatMatrix.diagonal([-1, -1, 1, 1])),
            lift_orthogonal(RatMatrix.diagonal([-1, 1, -1, 1])),
        ]
        base = commutator_product(lifts)
        for _ in range(20):
            scaled = [g * _random_nonzero_rational(rng) for g in lifts]
            assert commutator_product(scaled) == base
        assert time.monotonic() - start < 10.0


def test_criterion_6_two_routes_to_the_second_invariant():
    with criterion(6, "matrix-level and covering-level obstructions agree"):
        start = time.monotonic()
        rng = random.Random(987654321)
        for trial in range(100):
            g = rng.choice((2, 3))
            n = rng.choice((4, 6))
            anticommuting = pair_for(PairKind.ANTICOMMUTING, (0, 0), n)
            diag_a = RatMatrix.diagonal([-1, -1] + [1] * (n - 2))
            diag_b = RatMatrix.diagonal([-1, 1, -1] + [1] * (n - 3))
            pool = [
                (RatMatrix.identity(n), RatMatrix.identity(n)),
                anticommuting,
                (diag_a, diag_b),
                (diag_a, diag_a),
            ]
            gens = []
            for _ in range(g):
                gens.extend(rng.choice(pool))
            if trial % 3 == 0:
                p = randmat.random_special_orthogonal(rng, n, rotations=1)
                gens = [p * m * p.transpose() for m in gens]
            rep = SurfaceRep(g, n, tuple(gens))
            matrix_route = delta2(rep) == RelationSign.MINUS_I
            covering_route = tilde_delta(rep) == Mu2Value.OMEGA
            assert matrix_route == covering_route
        assert time.monotonic() - start < 10.0


def test_criterion_7_extended_linear_counts():
    with criterion(7, "extended-linear moduli component totals"):
        start = time.monotonic()
        for g in (2, 3, 4):
            deg0 = egl_component_counts(0, g, 4)
            deg1 = egl_component_counts(1, g, 4)
            assert deg0.total == 2 ** (2 * g) + 2
            assert deg1.total == 2 ** (2 * g)
            assert deg0.fibre_total == 2 ** (2 * g + 1) + 1
            assert deg1.fibre_total == 2 ** (2 * g)
        assert time.monotonic() - start < 1.0


def test_criterion_8_poincare_series():
    with criterion(8, "closed-form series: exact division and end values"):
        start = time.monotonic()
        for g in (2, 3, 4, 5):
            for w2 in (0, 1):
                q = pt_so3(w2, g)
                assert q.degree() == 6 * g - 6
            assert pt_sl3(0, g)(0) == 2
            assert pt_sl3(1, g)(0) == 1
            assert pt_sl3(0, g) - pt_so3(0, g) == IntPolynomial.one()
        assert time.monotonic() - start < 1.0


def test_criterion_9_lifting_predicates():
    with criterion(9, "lifting truth table over all five class shapes"):
        start = time.monotonic()
        zero = (0, 0, 0, 0)
        nonzero = (0, 1, 0, 0)
        shapes = {
            InvariantClass(zero, Mu2Value.ZERO): {LiftTarget.SO: True, LiftTarget.SPIN: True},
            InvariantClass(zero, Mu2Value.ONE): {LiftTarget.SO: True, LiftTarget.SPIN: False},
            InvariantClass(zero, Mu2Value.OMEGA): {LiftTarget.SO: False, LiftTarget.SPIN: False},
            InvariantClass(nonzero, Mu2Value.ZERO): {LiftTarget.PIN: True, LiftTarget.O: True},
            InvariantClass(nonzero, Mu2Value.OMEGA): {LiftTarget.PIN: False, LiftTarget.O: False},
        }
        for cls, expectations in shapes.items():
            for target, expected in expectations.items():
                assert lifts_to(cls, target) is expected
        assert time.monotonic() - start < 1.0
