"""Exact Clifford algebra Cl(n) over the rationals, positive-definite signature.

Basis blades are n-bit masks (bit i set means the basis vector e_{i+1} occurs),
so a blade product is a sign plus an XOR.  Every product of multivectors,
including the norms, images and commutators below, runs in one integer
kernel, `_int_product`, on term maps {mask: int}; `CliffordElement.__mul__`
clears each operand's denominators once and divides each result term once.
Orthogonal matrices are lifted to the Lipschitz group as the at most n
*non-normalised* primitive integer vectors of `linalg.reflection_vectors`,
which `commutator_product` takes one at a time instead of expanding a lift
to up to 2^(n-1) terms.  Unit normalisation would force square roots, while
every obstruction computed downstream is a commutator product and therefore
invariant under rescaling of the lifts.

This module is the reference algebra: no command and no certification runs
it.  Certification decides the spin obstruction with
`spin.spinor_commutator`, which names the same kernel element as
`commutator_product` on one spinor mod p, without multiplying multivectors;
the tests compare the two routes.  Acceptance criterion 5 round-trips lifts
through `twisted_conjugation_matrix` and checks that `commutator_product`
ignores rescaling.  `KernelElement`, `NotInKernel` and the dimension check
are imported from `spin`.

The dimension is capped at `linalg.MAX_DIM` = 16: a blade mask then fits a
machine word.  Every example of interest here needs n <= 8.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence, Sized
from fractions import Fraction
from functools import reduce
from operator import mul

from .frozen import Frozen
from .linalg import BadShape, RatMatrix, as_fraction, reflection_vectors
from .spin import KernelElement, NotInKernel, _check_dimension

Scalarish = int | Fraction


class NotAVersor(ValueError):
    """Element times its reversal is not a nonzero scalar."""


class NotVectorPreserving(ValueError):
    """Twisted conjugation by the element does not map vectors to vectors."""


def _parity_mask(a: int) -> int:
    """Bit j is set when an odd number of the bits of a lie above j.

    The blade product a * b then has sign (-1)^popcount(mask & b): the
    parity of the transpositions that sort the concatenated index lists,
    with e_i^2 = +1 for every contraction.
    """
    mask = 0
    x = a >> 1
    while x:
        mask ^= x
        x >>= 1
    return mask


def _int_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two integer term maps {mask: int}, zero terms dropped:
    the one loop over pairs of terms, which every Clifford product runs."""
    rhs = list(b.items())
    acc: dict[int, int] = {}
    for ma, ca in a.items():
        pm = _parity_mask(ma)
        for mb, cb in rhs:
            mask = ma ^ mb
            if (pm & mb).bit_count() & 1:
                acc[mask] = acc.get(mask, 0) - ca * cb
            else:
                acc[mask] = acc.get(mask, 0) + ca * cb
    return {m: c for m, c in acc.items() if c}


def _cleared(x: CliffordElement) -> tuple[dict[int, int], int]:
    """The integer term map of d * x, and d, the lcm of x's denominators."""
    d = math.lcm(*(c.denominator for c in x.terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in x.terms.items()}, d


class CliffordElement(Frozen):
    """Sparse multivector of Cl(n) with exact rational coefficients.

    Zero coefficients are pruned on construction, so equality of the stored
    term maps is equality in the algebra.
    """

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, Scalarish]):
        _check_dimension(n)
        if not isinstance(terms, Mapping):
            raise ValueError(f"terms must map blade masks to coefficients, got {terms!r}")
        top = 1 << n
        clean: dict[int, Fraction] = {}
        for mask, coeff in terms.items():
            if type(mask) is not int or not (0 <= mask < top):
                raise ValueError(f"blade mask {mask!r} is not an int in range for Cl({n})")
            c = as_fraction(coeff)
            if c != 0:
                clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def scalar(cls, n: int, value: Scalarish) -> "CliffordElement":
        return cls(n, {0: value})

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "CliffordElement":
        if not (0 <= i < n):
            raise ValueError(f"basis index {i} out of range for Cl({n})")
        return cls(n, {1 << i: 1})

    @classmethod
    def vector(cls, n: int, coords: Sequence[Scalarish]) -> "CliffordElement":
        if len(coords) != n:
            raise ValueError("coordinate count must equal the dimension")
        return cls(n, {1 << i: c for i, c in enumerate(coords)})

    @classmethod
    def _raw(cls, n: int, terms: dict[int, Fraction]) -> "CliffordElement":
        # internal fast path: inputs already satisfy the invariants except
        # possibly for zero coefficients, which are pruned here
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "terms", {m: c for m, c in terms.items() if c != 0})
        return out

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, (int, Fraction)):
            factor = as_fraction(other)
            return CliffordElement._raw(
                self.n, {m: c * factor for m, c in self.terms.items()}
            )
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: Cl({self.n}) vs Cl({other.n})")
        (a, da), (b, db) = _cleared(self), _cleared(other)
        den = da * db
        return CliffordElement._raw(
            self.n, {m: Fraction(c, den) for m, c in _int_product(a, b).items()}
        )

    def __hash__(self) -> int:
        # terms is a dict, so the hash goes through its items
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Cl({self.n}):0"
        parts = []
        for mask in sorted(self.terms):
            name = "".join(f"e{i + 1}" for i in range(self.n) if mask >> i & 1) or "1"
            parts.append(f"{self.terms[mask]}*{name}")
        return f"Cl({self.n}):" + " + ".join(parts)

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self.terms}

    def grade_involution(self) -> "CliffordElement":
        """Negate odd-grade terms (an algebra automorphism)."""
        return CliffordElement._raw(
            self.n,
            {m: (-c if m.bit_count() % 2 else c) for m, c in self.terms.items()},
        )

    def reversal(self) -> "CliffordElement":
        """Reverse factor order: grade k picks up (-1)^(k(k-1)/2)."""
        out: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            k = m.bit_count()
            out[m] = -c if (k * (k - 1) // 2) % 2 else c
        return CliffordElement._raw(self.n, out)

    def vector_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector of a pure grade-1 element."""
        if self.terms and self.grades() != {1}:
            raise ValueError("element is not a pure vector")
        return tuple(self.terms.get(1 << i, Fraction(0)) for i in range(self.n))


def _versor_norm(g: CliffordElement) -> int:
    """d^2 g reversal(g), with d the lcm of g's denominators, over Z;
    NotAVersor when it is not a nonzero scalar."""
    norm = _int_product(_cleared(g)[0], _cleared(g.reversal())[0])
    if norm.keys() != {0}:
        raise NotAVersor(f"g * reversal(g) = {norm} is not a nonzero scalar")
    return norm[0]


def twisted_conjugation_matrix(g: CliffordElement) -> RatMatrix:
    """Matrix of x -> alpha(g) x g^-1 on vectors; exactly orthogonal.

    This realises the covering of the orthogonal group by the Lipschitz
    group: reflections for odd g, rotations for even g.  The inverse is
    expanded as reversal over norm, so column i is alpha(g) e_i reversal(g)
    divided by g reversal(g).  NotAVersor is raised when that norm is not a
    nonzero scalar, NotVectorPreserving when an image is not a nonzero pure
    vector.
    """
    if not isinstance(g, CliffordElement):
        raise ValueError(f"need a CliffordElement, got {g!r}")
    n = g.n
    norm = Fraction(_versor_norm(g), _cleared(g)[1] ** 2)
    alpha, rev = g.grade_involution(), g.reversal()
    columns = []
    for i in range(n):
        image = alpha * CliffordElement.basis_vector(n, i) * rev
        if image.grades() != {1}:
            raise NotVectorPreserving(
                f"image of e{i + 1} has grades {sorted(image.grades())}, expected {{1}}"
            )
        columns.append([c / norm for c in image.vector_coefficients()])
    return RatMatrix(zip(*columns))


def lift_factors(a: RatMatrix) -> list[CliffordElement]:
    """The primitive integer reflection vectors whose product lifts a, in order:
    at most n, and an even number exactly when det(a) = +1.  BadShape unless a
    is a RatMatrix."""
    if not isinstance(a, RatMatrix):
        raise BadShape(f"need a RatMatrix, got {a!r}")
    _check_dimension(a.n)
    return [CliffordElement.vector(a.n, u) for u in reflection_vectors(a)]


def lift_orthogonal(a: RatMatrix) -> CliffordElement:
    """A versor whose twisted conjugation is exactly the orthogonal matrix a:
    the product of lift_factors(a), even exactly when det(a) = +1."""
    return reduce(mul, lift_factors(a), CliffordElement.scalar(a.n, 1))


def commutator_product(
    lifts: Sequence[CliffordElement | Sequence[CliffordElement]]
) -> KernelElement:
    """Product of commutators [g_1, h_1] ... [g_k, h_k] in the Lipschitz group.

    Each lift is a versor or the list of its factors (lift_factors), and is
    multiplied in over Z one factor at a time, with each inverse as reversal
    over norm and the integer content divided out after every step.  Scale
    factors cancel inside each commutator, so when the orthogonal
    representation satisfies the surface relation the product is one term:
    1, -1, omega or -omega times the product of the factors' norms.
    """
    if not isinstance(lifts, Sized) or len(lifts) < 2 or len(lifts) % 2 != 0:
        raise ValueError("expected a non-empty even-length list of lifts")
    chains = [[g] if isinstance(g, CliffordElement) else list(g) for g in lifts]
    # an identity may be lifted with no factor, so n comes from any factor
    dims = {f.n for chain in chains for f in chain}
    if len(dims) > 1:
        raise ValueError("all lifts must live in the same algebra")
    norms = math.prod(_versor_norm(f) for chain in chains for f in chain)
    product, removed = {0: 1}, 1
    for g, h in zip(chains[::2], chains[1::2]):
        # g h g^-1 h^-1: an inverse is its lift's factors reversed, each one reversed
        for f in g + h + [f.reversal() for f in reversed(h + g)]:
            product = _int_product(product, _cleared(f)[0])
            content = math.gcd(*product.values())
            if content > 1:
                product = {m: c // content for m, c in product.items()}
                removed *= content
    if len(product) == 1:
        ((mask, c),) = product.items()
        if abs(c) * removed == norms:
            if mask == 0:
                return KernelElement.ONE if c > 0 else KernelElement.MINUS_ONE
            # a term off blade 0 needs a factor, so dims holds n
            if mask == (1 << dims.pop()) - 1:
                return KernelElement.OMEGA if c > 0 else KernelElement.MINUS_OMEGA
    raise NotInKernel("commutator product is not +-1 or +-omega; the surface relation fails")
