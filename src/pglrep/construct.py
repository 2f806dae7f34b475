"""Explicit matrix catalogue and constructors realising every invariant class.

The catalogue consists of seven families of orthogonal matrices, each a
block diagonal of 2x2 seeds.  Two lookup tables pick, for any requested
pair of components, a commuting pair (commutator +I) or an anti-commuting
pair (commutator -I); which family works depends on n mod 4.
"""

from __future__ import annotations

from enum import Enum

from .clifford import MAX_DIM
from .linalg import Frozen, OrthComponent, RatMatrix
from .surfrep import InvalidClass, InvariantClass, Mu2Value, SurfaceRep, invariants


class BadDimension(ValueError):
    """Catalogue matrices need even n (and n >= 4 for the W family), and a
    representation needs even n with 4 <= n <= MAX_DIM."""


_SEEDS = {
    "X": RatMatrix([[0, 1], [1, 0]]),
    "X'": RatMatrix([[1, 0], [0, -1]]),
    "Y": RatMatrix([[1, 0], [0, -1]]),
    "Y'": RatMatrix([[-1, 0], [0, 1]]),
    "Z": RatMatrix([[0, -1], [1, 0]]),
    "I": RatMatrix.identity(2),
}

# family -> (the seeds heading the diagonal, the seed repeated after them)
_BLOCKS = {
    "X": ((), "X"),
    "X'": ((), "X'"),
    "Y": (("Y",), "I"),
    "Y'": (("Y'",), "I"),
    "Z": (("Z",), "X'"),
    "W": (("X", "Z"), "X'"),
    "W'": (("Z",), "X"),
}

CATALOGUE_NAMES = tuple(_BLOCKS)


def catalogue_matrix(name: str, n: int) -> RatMatrix:
    """The catalogue matrix of the given family in size n: a block diagonal
    of 2x2 seeds, its head blocks followed by copies of its tail block.

    Unrolled, these are the recursions X_n = diag(X_2, X_{n-2}) and likewise
    for X'; Y and Y' pad their seed with the identity; Z_n = diag(Z_2,
    X'_{n-2}); W_n = diag(X_2, Z_{n-2}); W'_n = diag(Z_2, X_{n-2}).
    """
    if name not in CATALOGUE_NAMES:
        raise ValueError(f"unknown catalogue family {name!r}")
    if n % 2 != 0 or n < 2:
        raise BadDimension(f"catalogue matrices need even n >= 2, got {n}")
    if name in ("W", "W'") and n < 4:
        raise BadDimension(f"family {name} needs n >= 4, got {n}")
    head, tail = _BLOCKS[name]
    blocks = (*head, *[tail] * (n // 2 - len(head)))
    return RatMatrix.block_diag(*(_SEEDS[b] for b in blocks))


class PairKind(Enum):
    COMMUTING = "commuting"
    ANTICOMMUTING = "anticommuting"


class PairSpec(Frozen):
    """A requested pair: commutation behaviour plus the two O(n) components."""

    __slots__ = _fields = ("kind", "components")

    def __init__(self, kind: PairKind, components: tuple[OrthComponent, OrthComponent]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "components", components)


# (first component, second component) -> catalogue family names.
_COMMUTING = {
    (OrthComponent.SO, OrthComponent.SO): ("I", "I"),
    (OrthComponent.SO, OrthComponent.O_MINUS): ("I", "Y"),
    (OrthComponent.O_MINUS, OrthComponent.SO): ("Y", "I"),
    (OrthComponent.O_MINUS, OrthComponent.O_MINUS): ("Y", "Y'"),
}

_ANTICOMMUTING_MOD0 = {
    (OrthComponent.SO, OrthComponent.SO): ("X", "X'"),
    (OrthComponent.SO, OrthComponent.O_MINUS): ("X", "Z"),
    (OrthComponent.O_MINUS, OrthComponent.SO): ("Z", "X"),
    (OrthComponent.O_MINUS, OrthComponent.O_MINUS): ("W", "W'"),
}

_ANTICOMMUTING_MOD2 = {
    (OrthComponent.SO, OrthComponent.SO): ("W", "W'"),
    (OrthComponent.SO, OrthComponent.O_MINUS): ("Z", "X"),
    (OrthComponent.O_MINUS, OrthComponent.SO): ("X", "Z"),
    (OrthComponent.O_MINUS, OrthComponent.O_MINUS): ("X", "X'"),
}


def _named(name: str, n: int) -> RatMatrix:
    return RatMatrix.identity(n) if name == "I" else catalogue_matrix(name, n)


def pair_for(spec: PairSpec, n: int) -> tuple[RatMatrix, RatMatrix]:
    """A catalogue pair with the requested components and commutator +-I."""
    if n % 2 != 0 or n < 4:
        raise BadDimension(f"pairs need even n >= 4, got {n}")
    if spec.kind == PairKind.COMMUTING:
        table = _COMMUTING
    elif n % 4 == 0:
        table = _ANTICOMMUTING_MOD0
    else:
        table = _ANTICOMMUTING_MOD2
    first, second = table[spec.components]
    return _named(first, n), _named(second, n)


def _spin_obstructed_pair(n: int) -> tuple[RatMatrix, RatMatrix]:
    # Commuting diagonal involutions whose even lifts e1e2 and e1e3
    # anti-commute, so the pair contributes -1 at the covering level.
    first = [-1, -1] + [1] * (n - 2)
    second = [-1, 1, -1] + [1] * (n - 3)
    return RatMatrix.diagonal(first), RatMatrix.diagonal(second)


def _bit_component(bit: int) -> OrthComponent:
    return OrthComponent.O_MINUS if bit else OrthComponent.SO


def build_representation(g: int, n: int, target: InvariantClass) -> SurfaceRep:
    """A representation whose invariants are exactly the requested class.

    Handle 1 carries the pair that produces the requested second invariant;
    every later handle carries a commuting pair matching its two component
    bits.  The result is re-checked through the invariant computation before
    being returned.  n is checked before any matrix is built: the spin
    obstruction is decided on a spinor of 2^(n/2) entries, so n is capped
    at MAX_DIM, the bound representation files keep too.
    """
    if n % 2 != 0 or not 4 <= n <= MAX_DIM:
        raise BadDimension(f"representations need even n with 4 <= n <= {MAX_DIM}, got {n}")
    if len(target.mu1) != 2 * g:
        raise InvalidClass(f"mu1 must have length {2 * g}, got {len(target.mu1)}")
    bits = target.mu1
    gens: list[RatMatrix] = []
    if target.mu2 == Mu2Value.ONE:
        gens.extend(_spin_obstructed_pair(n))
    else:
        kind = PairKind.ANTICOMMUTING if target.mu2 == Mu2Value.OMEGA else PairKind.COMMUTING
        spec = PairSpec(kind, (_bit_component(bits[0]), _bit_component(bits[1])))
        gens.extend(pair_for(spec, n))
    for i in range(1, g):
        spec = PairSpec(
            PairKind.COMMUTING,
            (_bit_component(bits[2 * i]), _bit_component(bits[2 * i + 1])),
        )
        gens.extend(pair_for(spec, n))
    rep = SurfaceRep(g, n, tuple(gens))
    achieved = invariants(rep)
    if achieved != target:
        raise AssertionError(
            f"constructed representation has invariants {achieved}, wanted {target}"
        )
    return rep
