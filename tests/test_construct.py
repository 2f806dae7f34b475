import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pglrep.classify import invariant_classes
from pglrep.clifford import MAX_DIM
from pglrep.construct import (
    BadDimension,
    PairKind,
    _seed_diagonal,
    build_representation,
    catalogue_matrix,
    pair_for,
)
from pglrep.linalg import OrthComponent, RatMatrix, commutator, component
from pglrep.surfrep import InvalidClass, InvariantClass, Mu2Value, invariants

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SO = OrthComponent.SO
OM = OrthComponent.O_MINUS


class TestCatalogueMatrix:
    def test_x4_block_structure(self):
        x2 = RatMatrix([[0, 1], [1, 0]])
        assert catalogue_matrix("X", 4) == RatMatrix.block_diag(x2, x2)

    def test_z4_block_structure(self):
        z2 = RatMatrix([[0, -1], [1, 0]])
        xp2 = RatMatrix([[1, 0], [0, -1]])
        assert catalogue_matrix("Z", 4) == RatMatrix.block_diag(z2, xp2)

    def test_y6_pads_with_identity(self):
        y2 = RatMatrix([[1, 0], [0, -1]])
        assert catalogue_matrix("Y", 6) == RatMatrix.block_diag(y2, RatMatrix.identity(4))

    def test_odd_dimension_rejected(self):
        with pytest.raises(BadDimension):
            catalogue_matrix("X", 5)

    def test_w_needs_four(self):
        with pytest.raises(BadDimension):
            catalogue_matrix("W", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            catalogue_matrix("Q", 4)

    def test_memoised_value(self):
        x2, xp2 = RatMatrix([[0, 1], [1, 0]]), RatMatrix([[1, 0], [0, -1]])
        w6 = catalogue_matrix("W", 6)
        assert catalogue_matrix("W", 6) is w6
        assert w6 == RatMatrix.block_diag(x2, RatMatrix([[0, -1], [1, 0]]), xp2)
        with pytest.raises(AttributeError):
            w6.num = ()

    @pytest.mark.parametrize("n", [4.0, True, "4"])
    def test_n_must_be_an_int(self, n):
        # checked before the memo, where ("X", 4.0) would find the ("X", 4) entry
        catalogue_matrix("X", 4)
        with pytest.raises(BadDimension, match="must be an int"):
            catalogue_matrix("X", n)


def test_catalogue_component_facts():
    for n in range(4, 13, 2):
        mod0 = n % 4 == 0
        assert (component(catalogue_matrix("X", n)) == SO) == mod0
        assert (component(catalogue_matrix("X'", n)) == SO) == mod0
        assert component(catalogue_matrix("Y", n)) == OM
        assert component(catalogue_matrix("Y'", n)) == OM
        assert (component(catalogue_matrix("Z", n)) == OM) == mod0
        assert (component(catalogue_matrix("W", n)) == SO) == (not mod0)
        assert (component(catalogue_matrix("W'", n)) == SO) == (not mod0)


def test_catalogue_commutation_facts():
    for n in range(4, 13, 2):
        i_n = RatMatrix.identity(n)
        assert commutator(catalogue_matrix("X", n), catalogue_matrix("X'", n)) == -i_n
        assert commutator(catalogue_matrix("Y", n), catalogue_matrix("Y'", n)) == i_n
        assert commutator(catalogue_matrix("Z", n), catalogue_matrix("X", n)) == -i_n
        assert commutator(catalogue_matrix("W", n), catalogue_matrix("W'", n)) == -i_n


# (kind, mu1 bits) -> the families pair_for picks at n = 4 and at n = 6: the
# anti-commuting pairs change component at n = 2 mod 4
PAIR_FAMILIES = {
    (PairKind.COMMUTING, (0, 0)): (("I", "I"), ("I", "I")),
    (PairKind.COMMUTING, (0, 1)): (("I", "Y"), ("I", "Y")),
    (PairKind.COMMUTING, (1, 0)): (("Y", "I"), ("Y", "I")),
    (PairKind.COMMUTING, (1, 1)): (("Y", "Y'"), ("Y", "Y'")),
    (PairKind.ANTICOMMUTING, (0, 0)): (("X", "X'"), ("W", "W'")),
    (PairKind.ANTICOMMUTING, (0, 1)): (("X", "Z"), ("Z", "X")),
    (PairKind.ANTICOMMUTING, (1, 0)): (("Z", "X"), ("X", "Z")),
    (PairKind.ANTICOMMUTING, (1, 1)): (("W", "W'"), ("X", "X'")),
}


class TestPairFor:
    def test_commuting_mixed_pair_uses_identity(self):
        for n in (4, 6, 8):
            a, b = pair_for(PairKind.COMMUTING, (0, 1), n)
            assert a == RatMatrix.identity(n)
            assert b == catalogue_matrix("Y", n)

    def test_components_may_be_a_list(self):
        assert pair_for(PairKind.COMMUTING, [0, 1], 4) == pair_for(PairKind.COMMUTING, (0, 1), 4)

    def test_anticommuting_rotations_mod0(self):
        a, b = pair_for(PairKind.ANTICOMMUTING, (0, 0), 4)
        assert (a, b) == (catalogue_matrix("X", 4), catalogue_matrix("X'", 4))

    def test_anticommuting_reflections_mod2(self):
        a, b = pair_for(PairKind.ANTICOMMUTING, (1, 1), 6)
        assert (a, b) == (catalogue_matrix("X", 6), catalogue_matrix("X'", 6))

    def test_every_pair_has_requested_components_and_sign(self):
        for n in (4, 6):
            for kind in PairKind:
                for bits in itertools.product((0, 1), repeat=2):
                    a, b = pair_for(kind, bits, n)
                    comps = tuple(OM if bit else SO for bit in bits)
                    assert (component(a), component(b)) == comps
                    expected = RatMatrix.identity(n)
                    if kind == PairKind.ANTICOMMUTING:
                        expected = -expected
                    assert commutator(a, b) == expected

    def test_dimension_checked(self):
        with pytest.raises(BadDimension):
            pair_for(PairKind.COMMUTING, (0, 0), 2)

    def test_identity_is_memoised(self):
        a, b = pair_for(PairKind.COMMUTING, (0, 0), 6)
        assert a is b == RatMatrix.identity(6)
        with pytest.raises(BadDimension, match="must be an int"):
            pair_for(PairKind.COMMUTING, (0, 0), 6.0)

    @pytest.mark.parametrize("kind,bits", list(PAIR_FAMILIES))
    def test_families_picked_at_n4_and_n6(self, kind, bits):
        for n, names in zip((4, 6), PAIR_FAMILIES[kind, bits]):
            expected = tuple(
                RatMatrix.identity(n) if name == "I" else catalogue_matrix(name, n)
                for name in names
            )
            assert pair_for(kind, bits, n) == expected

    def test_kind_must_be_a_pair_kind(self):
        with pytest.raises(ValueError, match="unknown pair kind"):
            pair_for("commuting", (0, 0), 4)

    @pytest.mark.parametrize("bits", [(SO, SO), (True, 0), (0, 1, 0), (2, 0), (0.0, 1), 1, "01"])
    def test_bits_must_be_two_int_bits(self, bits):
        with pytest.raises(InvalidClass, match="two mu1 bits"):
            pair_for(PairKind.COMMUTING, bits, 4)


class TestBuildRepresentation:
    def test_trivial_class(self):
        rep = build_representation(2, 4, InvariantClass((0, 0, 0, 0), Mu2Value.ZERO))
        assert all(m == RatMatrix.identity(4) for m in rep.gens)

    def test_reflection_anticommuting_class_uses_w_pair(self):
        target = InvariantClass((1, 1, 0, 0), Mu2Value.OMEGA)
        rep = build_representation(2, 4, target)
        assert rep.gens[0] == catalogue_matrix("W", 4)
        assert rep.gens[1] == catalogue_matrix("W'", 4)
        assert rep.gens[2] == RatMatrix.identity(4)

    def test_commuting_reflection_class_uses_y_pair(self):
        target = InvariantClass((1, 1, 0, 0), Mu2Value.ZERO)
        rep = build_representation(2, 4, target)
        assert rep.gens[0] == catalogue_matrix("Y", 4)
        assert rep.gens[1] == catalogue_matrix("Y'", 4)

    def test_spin_obstructed_class(self):
        target = InvariantClass((0, 0, 0, 0), Mu2Value.ONE)
        rep = build_representation(2, 4, target)
        assert invariants(rep) == target
        assert rep.gens[0] == RatMatrix.diagonal([-1, -1, 1, 1])
        assert rep.gens[1] == RatMatrix.diagonal([-1, 1, -1, 1])

    def test_wrong_mu1_length(self):
        with pytest.raises(InvalidClass):
            build_representation(3, 4, InvariantClass((0, 0, 0, 0), Mu2Value.ZERO))

    @pytest.mark.parametrize(
        "target", [((0, 0, 0, 0), "0"), ((0, 0, 0, 0), Mu2Value.ZERO), None, "0000"],
        ids=["tuple", "tuple-of-mu2", "none", "string"],
    )
    def test_target_must_be_an_invariant_class(self, target):
        with pytest.raises(InvalidClass, match="must be an InvariantClass"):
            build_representation(2, 4, target)

    @pytest.mark.parametrize("g,n", [(2.0, 4), (2, 4.0), (True, 4), (2, False)])
    def test_genus_and_n_must_be_ints(self, g, n):
        with pytest.raises(BadDimension, match="must be an int"):
            build_representation(g, n, InvariantClass((0, 0, 0, 0), Mu2Value.ZERO))

    @pytest.mark.parametrize("g,n", [(2, 4), (2, 6), (3, 4), (3, 6)])
    def test_exhaustive_round_trip(self, g, n):
        for target in invariant_classes(g, n):
            rep = build_representation(g, n, target)
            assert invariants(rep) == target


def _run_script(name):
    # a script of the README, run as shipped
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_realize_all_classes_script():
    lines = _run_script("realize_all_classes.py")
    assert len(lines) == 5 and all("realized and verified" in line for line in lines)


def test_component_tables_script():
    lines = [line.strip() for line in _run_script("component_tables.py")]
    for g, w2 in ((2, 1), (2, 0), (3, 1), (3, 0)):
        assert any(line.startswith(f"g={g} w2={w2}: ") for line in lines), (g, w2)


@pytest.mark.parametrize(
    "call",
    [lambda n: catalogue_matrix("X", n), lambda n: pair_for(PairKind.ANTICOMMUTING, (0, 0), n)],
    ids=["catalogue_matrix", "pair_for"],
)
def test_n_above_max_dim_refused_before_the_cache(call):
    before = _seed_diagonal.cache_info()
    with pytest.raises(BadDimension, match=f"need n <= {MAX_DIM}, got {MAX_DIM + 2}"):
        call(MAX_DIM + 2)
    assert _seed_diagonal.cache_info() == before


# what scripts/generator_digest.py prints for the catalogue as it stands:
# a change to any generator of any class at its ten sizes changes it
GENERATOR_DIGEST = "3e23b1fe65093c16bcdda92792e223b775f752915e1e785861af9939c07bad68"


def test_generator_digest_script():
    assert _run_script("generator_digest.py") == [GENERATOR_DIGEST]
