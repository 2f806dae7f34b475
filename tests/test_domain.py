"""The supported (genus, n) of every layer that builds a class or a
representation, in one table: widening the domain means editing
`surfrep.even_n` and this table."""

import pytest

from pglrep.classify import BadInput, invariant_classes, po_bundle_data
from pglrep.construct import BadDimension, PairKind, build_representation, catalogue_matrix, pair_for
from pglrep.linalg import BadShape, RatMatrix
from pglrep.surfrep import InvalidClass, InvariantClass, Mu2Value, SurfaceRep


def _gens(g, n):
    size = n if type(n) is int else 4
    return (RatMatrix.identity(size),) * (2 * int(g))


def _target(g):
    # a genus-1 class does not exist, so g = 1 is asked for a genus-2 one
    return InvariantClass((0,) * max(4, 2 * int(g)), Mu2Value.ZERO)


CALLS = {
    "SurfaceRep": lambda g, n: SurfaceRep(g, n, _gens(g, n)),
    "build_representation": lambda g, n: build_representation(g, n, _target(g)),
    "pair_for": lambda g, n: pair_for(PairKind.ANTICOMMUTING, (0, 0), n),
    "catalogue_matrix": lambda g, n: catalogue_matrix("X", n),
    "invariant_classes": invariant_classes,
    "po_bundle_data": lambda g, n: po_bundle_data(n),
}

OK = None
REFUSED_N = (BadShape, BadDimension, BadDimension, BadDimension, BadInput, BadInput)
NOT_INT_G = (BadShape, BadDimension, OK, OK, BadInput, OK)

# (genus, n, what each of CALLS, in its order, does: OK or the error type);
# a list, not a dict, because (2, 4.0) == (2, 4) and (True, 4) == (1, 4)
DOMAIN = [
    (2, 2, (BadShape, BadDimension, BadDimension, OK, BadInput, BadInput)),
    (2, 3, REFUSED_N),
    (2, 4, (OK,) * 6),
    (2, 6, (OK,) * 6),
    (2, 16, (OK,) * 6),
    (2, 17, REFUSED_N),
    # clifford.MAX_DIM caps what builds a matrix; class enumeration has no cap
    (2, 18, (BadShape, BadDimension, BadDimension, BadDimension, OK, OK)),
    (1, 4, (BadShape, InvalidClass, OK, OK, BadInput, OK)),
    (8, 4, (OK,) * 6),
    # classify.MAX_GENUS caps the enumeration only
    (9, 4, (OK, OK, OK, OK, BadInput, OK)),
    (2, 4.0, REFUSED_N),
    (2, True, REFUSED_N),
    (4.0, 4, NOT_INT_G),
    (True, 4, NOT_INT_G),
]


@pytest.mark.parametrize(
    "g,n,call,expected",
    [
        pytest.param(g, n, name, outcome, id=f"{name}-{g!r}-{n!r}")
        for g, n, row in DOMAIN
        for name, outcome in zip(CALLS, row, strict=True)
    ],
)
def test_supported_genus_and_n(g, n, call, expected):
    if expected is OK:
        CALLS[call](g, n)
    else:
        with pytest.raises(expected) as info:
            CALLS[call](g, n)
        # not a subclass standing in for the stated type
        assert type(info.value) is expected
