"""The immutable value classes behave like frozen records: field-wise
equality and hash, no equality with plain tuples, no attribute assignment
or deletion, pickle and copy, and a fixed repr.  All of it comes from one
base, `pglrep.frozen.Frozen`, which a scan of the sources keeps the only one."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import pglrep
from pglrep.classify import ComponentReport, FinAbGroup, GroupAction, TwistedClass
from pglrep.clifford import CliffordElement
from pglrep.linalg import RatMatrix
from pglrep.poincare import IntPolynomial
from pglrep.surfrep import InvariantClass, Mu2Value, RelationSign, SurfaceRep

I4 = RatMatrix.identity(4)
D4 = RatMatrix.diagonal([-1, -1, 1, 1])


def _group_action(image):
    return GroupAction(FinAbGroup((2,)), FinAbGroup((4,)), (((image,),),))


# name -> (constructor of a value, of an equal value, of a value differing in
# one field, the expected repr, the compared fields)
CASES = {
    "InvariantClass": (
        lambda: InvariantClass((0, 1, 0, 0), Mu2Value.OMEGA),
        lambda: InvariantClass([0, 1, 0, 0], Mu2Value.OMEGA),
        lambda: InvariantClass((0, 1, 0, 0), Mu2Value.ZERO),
        "InvariantClass(mu1=(0, 1, 0, 0), mu2=<Mu2Value.OMEGA: 'omega'>)",
        ("mu1", "mu2"),
    ),
    "SurfaceRep": (
        lambda: SurfaceRep(2, 4, (I4,) * 4),
        lambda: SurfaceRep(2, 4, [I4] * 4),
        lambda: SurfaceRep(2, 4, (D4, I4, I4, I4)),
        f"SurfaceRep(genus=2, n=4, gens={(I4,) * 4!r})",
        ("genus", "n", "gens"),
    ),
    "FinAbGroup": (
        lambda: FinAbGroup((2, 4)),
        lambda: FinAbGroup([2, 4]),
        lambda: FinAbGroup((4, 2)),
        "FinAbGroup(orders=(2, 4))",
        ("orders",),
    ),
    "GroupAction": (
        lambda: _group_action(3),
        lambda: _group_action(-1),
        lambda: _group_action(1),
        "GroupAction(pi0=FinAbGroup(orders=(2,)), pi1=FinAbGroup(orders=(4,)),"
        " generator_images=(((3,),),))",
        ("pi0", "pi1", "generator_images"),
    ),
    "TwistedClass": (
        lambda: TwistedClass((0, 0, 0, 0), 0, 1),
        lambda: TwistedClass([0, 0, 0, 0], 0, w2=1),
        lambda: TwistedClass((0, 0, 0, 0), 0, 0),
        "TwistedClass(mu1bar=(0, 0, 0, 0), deg=0, w2=1)",
        ("mu1bar", "deg", "w2"),
    ),
    "ComponentReport": (
        lambda: ComponentReport(1, ((TwistedClass((1, 0, 0, 0), 1), 1, 1),)),
        lambda: ComponentReport(1, [[TwistedClass((1, 0, 0, 0), 1), 1, 1]]),
        lambda: ComponentReport(1, ((TwistedClass((1, 0, 0, 0), 1), 1, 2),)),
        "ComponentReport(deg=1, entries=((TwistedClass(mu1bar=(1, 0, 0, 0), deg=1,"
        " w2=None), 1, 1),))",
        ("deg", "entries"),
    ),
    "RatMatrix": (
        lambda: RatMatrix([["3/5", "-4/5"], ["4/5", "3/5"]]),
        lambda: RatMatrix([[Fraction(6, 10), "-8/10"], ["4/5", Fraction(3, 5)]]),
        lambda: RatMatrix([["3/5", "4/5"], ["-4/5", "3/5"]]),
        "RatMatrix[3/5 -4/5; 4/5 3/5]",
        ("num", "den"),
    ),
    "CliffordElement": (
        lambda: CliffordElement(4, {0b0110: Fraction(2, 3), 0: 1}),
        lambda: CliffordElement(4, {0: "1", 0b0110: "4/6", 0b1000: 0}),
        lambda: CliffordElement(4, {0b0110: Fraction(2, 3), 0: 2}),
        "Cl(4):1*1 + 2/3*e2e3",
        ("n", "num", "den"),
    ),
    "IntPolynomial": (
        lambda: IntPolynomial((1, 0, -1)),
        lambda: IntPolynomial([1, 0, -1, 0]),
        lambda: IntPolynomial((1, 0, 1)),
        "IntPolynomial([1, 0, -1])",
        ("coeffs",),
    ),
}

each_class = pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))


@each_class
def test_equal_fields_give_equal_values_and_hashes(case):
    make, make_equal, make_other, _, _ = case
    a, b, c = make(), make_equal(), make_other()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c


@each_class
def test_never_equal_to_a_plain_tuple(case):
    a, fields = case[0](), case[4]
    values = tuple(getattr(a, name) for name in fields)
    assert (a == values) is False
    assert a != values


@each_class
def test_attributes_cannot_be_assigned_or_deleted(case):
    a, field = case[0](), case[4][0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


@each_class
def test_pickle_and_copy_give_equal_values(case):
    a = case[0]()
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a) and b == a


@each_class
def test_repr_names_each_compared_field(case):
    assert repr(case[0]()) == case[3]


def test_surface_rep_compares_only_genus_n_and_gens():
    a, b = SurfaceRep(2, 4, (I4,) * 4), SurfaceRep(2, 4, (I4,) * 4)
    assert a.relation_sign == RelationSign.PLUS_I
    # the certificate fields are set once, in construction; overwrite them
    object.__setattr__(b, "reflections", ())
    object.__setattr__(b, "relation_sign", RelationSign.MINUS_I)
    object.__setattr__(b, "invariant_class", None)
    assert a == b and hash(a) == hash(b)
    assert all(name not in repr(b) for name in ("reflections", "relation_sign", "invariant_class"))


def test_invariant_class_stores_mu1_as_a_tuple():
    cls = InvariantClass([0, 1, 0, 0], Mu2Value.ZERO)
    assert type(cls.mu1) is tuple and cls.mu1 == (0, 1, 0, 0)
    assert cls == InvariantClass((0, 1, 0, 0), Mu2Value.ZERO)


def test_twisted_class_defaults_w2_to_none():
    assert TwistedClass((1, 0, 0, 0), 0).w2 is None
    assert TwistedClass((0, 0, 0, 0), 1).w2 is None
    assert TwistedClass(mu1bar=(0, 0, 0, 0), deg=0, w2=1).w2 == 1


def _source_classes():
    for path in sorted(Path(pglrep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def _assigned_names(body):
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, None
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.value


def test_frozen_is_the_only_immutability_idiom():
    """Only Frozen writes __setattr__, __delattr__ or __eq__, and every class
    with attributes in __slots__ derives from it."""
    seen = set()
    for filename, cls in _source_classes():
        names = dict(_assigned_names(cls.body))
        where = f"{filename}: {cls.name}"
        if cls.name != "Frozen":
            assert not {"__setattr__", "__delattr__", "__eq__"} & names.keys(), where
        slots = names.get("__slots__")
        if slots is not None and not (isinstance(slots, ast.Tuple) and not slots.elts):
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
            assert "Frozen" in bases, where
            seen.add(cls.name)
    assert CASES.keys() <= seen
