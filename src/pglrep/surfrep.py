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
from functools import lru_cache
from itertools import chain
from operator import mul

# clifford and linalg are reached at call time, so the class enumeration of
# classify, which needs only InvariantClass, runs neither
from . import clifford, linalg
from .frozen import Frozen


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


# 4.0 == 4 and True == 1, so only a type check tells them apart
def check_ints(error: type[Exception], **values: object) -> None:
    """Raise `error` naming the first of `values` that is not an int."""
    for name, value in values.items():
        if type(value) is not int:
            raise error(f"{name} must be an int, got {value!r}")


def check_genus(error: type[Exception], g: int, maximum: int | None = None) -> None:
    """Raise `error` unless g >= 2, and g <= `maximum` unless that is None."""
    if g < 2:
        raise error(f"genus must be >= 2, got {g}")
    if maximum is not None and g > maximum:
        raise error(f"genus {g} exceeds the supported maximum {maximum}")


def even_n(n: int, maximum: int | None) -> bool:
    """Whether n is even and at least 4, and at most `maximum` unless that is None."""
    return n % 2 == 0 and n >= 4 and (maximum is None or n <= maximum)


class InvariantClass(Frozen):
    """Pair of topological invariants (mu1, mu2) of a projective bundle.

    mu1 is a Z_2 vector of length 2g; mu2 = 1 only occurs over mu1 = 0.
    """

    __slots__ = _fields = ("mu1", "mu2")

    def __init__(self, mu1: Sequence[int], mu2: Mu2Value):
        mu1 = tuple(mu1)
        if len(mu1) < 4 or len(mu1) % 2 != 0:
            raise InvalidClass("mu1 must have even length 2g with g >= 2")
        if any(type(bit) is not int or bit not in (0, 1) for bit in mu1):
            raise InvalidClass("mu1 entries must be bits")
        if not isinstance(mu2, Mu2Value):
            raise InvalidClass(f"mu2 must be a Mu2Value, got {mu2!r}")
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

    Construction factors each distinct generator into reflections once,
    which certifies it orthogonal and gives its component and its Pin(n)
    lift, checks the surface relation (commutator product equal to +-I) and
    computes the invariant class.  These are kept, so every invariant reads
    them instead of recomputing them; equality, hash and repr cover only
    genus, n and gens.
    """

    _fields = ("genus", "n", "gens")
    __slots__ = (*_fields, "reflections", "relation_sign", "invariant_class")

    def __init__(self, genus: int, n: int, gens: Sequence[linalg.RatMatrix]):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        """Certify the generators and the surface relation, and compute the
        invariant class.  The name is the one the benchmark's tracer wraps as
        its certification span."""
        if type(self.genus) is not int or type(self.n) is not int:
            raise linalg.BadShape(f"genus and n must be ints, got {self.genus!r} and {self.n!r}")
        check_genus(linalg.BadShape, self.genus)
        # above MAX_DIM the spin obstruction cannot be computed
        if not even_n(self.n, clifford.MAX_DIM):
            raise linalg.BadShape(f"n must be even with 4 <= n <= {clifford.MAX_DIM}, got {self.n}")
        gens = tuple(self.gens)
        object.__setattr__(self, "gens", gens)
        if len(gens) != 2 * self.genus:
            raise linalg.BadShape(
                f"expected {2 * self.genus} generator matrices, got {len(gens)}"
            )
        # a generator repeated in several slots is factored once
        factored, reflections = {}, []
        for k, m in enumerate(gens):
            # before hashing: a list of lists is unhashable
            if not isinstance(m, linalg.RatMatrix):
                raise linalg.BadShape(f"generator {generator_label(k)} is not a RatMatrix")
            if m.n != self.n:
                raise linalg.BadShape(f"generator {generator_label(k)} is not {self.n}x{self.n}")
            vectors = factored.get(m)
            if vectors is None:
                try:
                    vectors = factored[m] = linalg.reflection_vectors(m)
                except linalg.NotOrthogonal:
                    label = generator_label(k)
                    raise linalg.NotOrthogonal(f"generator {label} is not orthogonal") from None
            reflections.append(vectors)
        reflections = tuple(reflections)
        sign = _relation_sign(gens, self.n)
        mu1 = tuple([len(v) % 2 for v in reflections])
        if any(mu1):
            mu2 = Mu2Value.OMEGA if sign == RelationSign.MINUS_I else Mu2Value.ZERO
        else:
            # the spinor route never reads the relation sign
            mu2 = _KERNEL_TO_MU2[clifford.spinor_commutator(self.n, reflections).name]
        object.__setattr__(self, "reflections", reflections)
        object.__setattr__(self, "relation_sign", sign)
        object.__setattr__(self, "invariant_class", InvariantClass(mu1, mu2))


def _relation_sign(gens: tuple, n: int) -> RelationSign:
    """Which of +-I the commutator product of the orthogonal generators is,
    decided by a trace.  The handle commutators C_1, ..., C_g come from
    `_handle_commutator` as integer tables over their denominators; P, the
    product of the first g - 1, is reduced to lowest terms after each
    product.  P C_g is in O(n), so |(P C_g)_ii| <= 1, and it is +-I exactly
    when its trace is +-n: the trace of the two tables' product is compared
    with +-n times their denominators.  Every generator must be certified
    orthogonal first; then each partial product is orthogonal too, and its
    reduced entries are bounded by its denominator."""
    tables = [_handle_commutator(a.num, a.den, b.num, b.den) for a, b in zip(gens[::2], gens[1::2])]
    num, den = tables[0]
    for c_num, c_den in tables[1:-1]:
        num, den = linalg.lowest_terms(linalg.integer_product(num, c_num), den * c_den)
    last, last_den = tables[-1]
    trace = sum(map(mul, chain.from_iterable(num), chain.from_iterable(zip(*last))))
    scale = n * den * last_den
    if trace == scale:
        return RelationSign.PLUS_I
    if trace == -scale:
        return RelationSign.MINUS_I
    raise RelationViolated("commutator product of the generators is not +-I")


# bounded, like construct._seed_diagonal: the catalogue has 9 distinct
# handles per n (4 commuting, 4 anti-commuting, the spin pair), so 64 holds
# the 63 of the even n from 4 to 16.  Keyed by value; it holds tuples only.
@lru_cache(maxsize=64)
def _handle_commutator(a: tuple, a_den: int, b: tuple, b_den: int) -> tuple[tuple, int]:
    """A B A^T B^T for the orthogonal A = a / a_den and B = b / b_den, as an
    integer table over (a_den b_den)^2, not reduced: it is reduced where it
    is multiplied."""
    product = linalg.integer_product
    table = product(product(product(a, b), tuple([*zip(*a)])), tuple([*zip(*b)]))
    return table, (a_den * b_den) ** 2


def delta2(rep: SurfaceRep) -> RelationSign:
    """Which of +-I the commutator product equals: the obstruction to lifting to O(n).

    The sign is computed once, when the representation is certified; it
    certifies the projective surface relation at the same time.
    """
    return rep.relation_sign


def delta1(rep: SurfaceRep) -> tuple[int, ...]:
    """Component vector: bit k is set iff generator k lies outside SO(n),
    that is, iff it factors into an odd number of reflections."""
    return rep.invariant_class.mu1


# keyed by clifford.KernelElement member name
_KERNEL_TO_MU2 = {
    "ONE": Mu2Value.ZERO,
    "MINUS_ONE": Mu2Value.ONE,
    # +-omega are identified under projective equivalence
    "OMEGA": Mu2Value.OMEGA,
    "MINUS_OMEGA": Mu2Value.OMEGA,
}


def tilde_delta(rep: SurfaceRep) -> Mu2Value:
    """Spin-lift obstruction in {0, 1, omega}; requires delta1 = 0.

    Each generator is lifted as the product of its reflection vectors, and
    their commutator product in the Lipschitz group is applied to one
    spinor mod p, once, when the representation is certified; this reads
    the result.  The relation sign is not read, so delta2 and this
    obstruction stay two independent routes.
    """
    if any(delta1(rep)):
        raise Delta1NotZero("tilde_delta requires every generator in SO(n)")
    return rep.invariant_class.mu2


def invariants(rep: SurfaceRep) -> InvariantClass:
    """The full invariant class (mu1, mu2) of the representation, computed
    once, when it was certified."""
    return rep.invariant_class
