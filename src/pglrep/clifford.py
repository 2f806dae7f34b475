"""Exact Clifford algebra Cl(n) over the rationals, positive-definite signature.

Basis blades are n-bit masks (bit i set means the basis vector e_{i+1} occurs),
so a blade product is a sign plus an XOR.  Every product of multivectors,
including the norms, images and commutators below, runs in one integer
kernel, `_int_product`, on integer terms.  A `CliffordElement` is stored as
`RatMatrix` stores a matrix, as integers over one denominator in lowest
terms, so `__mul__` is one kernel call and one gcd, and no product makes a
`Fraction`: only the `terms` view does.
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
from collections.abc import Iterable, Mapping, Sequence, Sized
from fractions import Fraction
from functools import reduce
from operator import mul

from .frozen import Frozen
from .linalg import BadShape, RatMatrix, Rationalish, _over_one_denominator, lowest_terms, reflection_vectors
from .spin import KernelElement, NotInKernel, _check_dimension


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


def _int_product(a: Iterable[tuple[int, int]], b: Sequence[tuple[int, int]]) -> dict[int, int]:
    """The product of two integer term lists [(mask, int)], as a map {mask:
    int} with zero terms dropped: the one loop over pairs of terms, which
    every Clifford product runs."""
    acc: dict[int, int] = {}
    for ma, ca in a:
        pm = _parity_mask(ma)
        for mb, cb in b:
            mask = ma ^ mb
            if (pm & mb).bit_count() & 1:
                acc[mask] = acc.get(mask, 0) - ca * cb
            else:
                acc[mask] = acc.get(mask, 0) + ca * cb
    return {m: c for m, c in acc.items() if c}


class CliffordElement(Frozen):
    """Sparse multivector of Cl(n) with exact rational coefficients, stored as
    RatMatrix stores a matrix: `num` holds the (mask, int) terms in increasing
    mask order with the zero terms pruned, over one positive denominator
    `den` in lowest terms with them, so equal elements have equal storage.
    `terms` is the Fraction view.
    """

    __slots__ = _fields = ("n", "num", "den")

    def __init__(self, n: int, terms: Mapping[int, Rationalish]):
        _check_dimension(n)
        if not isinstance(terms, Mapping):
            raise ValueError(f"terms must map blade masks to coefficients, got {terms!r}")
        items, top = list(terms.items()), 1 << n
        bad = next(
            (k for k, (m, _) in enumerate(items) if type(m) is not int or not 0 <= m < top), None
        )
        # the coefficients before the first bad mask are read first, as they come first
        coeffs, den = _over_one_denominator([c for _, c in items[:bad]])
        if bad is not None:
            raise ValueError(f"blade mask {items[bad][0]!r} is not an int in range for Cl({n})")
        self._fill(n, tuple(sorted((m, c) for (m, _), c in zip(items, coeffs) if c)), den)

    def _fill(self, n: int, num: tuple, den: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, n: int, num: tuple, den: int) -> "CliffordElement":
        """Wrap (mask, int) terms, in increasing mask order with none zero,
        and a denominator already in lowest terms with them."""
        out = object.__new__(cls)
        out._fill(n, num, den)
        return out

    def __reduce__(self):
        return CliffordElement._of, (self.n, self.num, self.den)

    @classmethod
    def scalar(cls, n: int, value: Rationalish) -> "CliffordElement":
        return cls(n, {0: value})

    @classmethod
    def vector(cls, n: int, coords: Sequence[Rationalish]) -> "CliffordElement":
        if not isinstance(coords, Sized) or len(coords) != n:
            raise ValueError(f"need {n} coordinates, got {coords!r}")
        return cls(n, {1 << i: c for i, c in enumerate(coords)})

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients as Fractions, keyed by blade mask in increasing order."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.num}

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, (int, Fraction)):
            other = CliffordElement.scalar(self.n, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: Cl({self.n}) vs Cl({other.n})")
        acc, den = _int_product(self.num, other.num), self.den * other.den
        g = math.gcd(den, *acc.values())
        num = tuple(sorted([(m, c // g) for m, c in acc.items()]))
        return CliffordElement._of(self.n, num, den // g)

    def __repr__(self) -> str:
        parts = [
            f"{c}*" + ("".join(f"e{i + 1}" for i in range(self.n) if mask >> i & 1) or "1")
            for mask, c in self.terms.items()
        ]
        return f"Cl({self.n}):" + (" + ".join(parts) or "0")

    def grade_involution(self) -> "CliffordElement":
        """Negate odd-grade terms (an algebra automorphism)."""
        num = tuple([(m, -c if m.bit_count() & 1 else c) for m, c in self.num])
        return CliffordElement._of(self.n, num, self.den)

    def reversal(self) -> "CliffordElement":
        """Reverse factor order: grade k picks up (-1)^(k(k-1)/2), which is -1
        exactly when k = 2 or 3 mod 4."""
        num = tuple([(m, -c if m.bit_count() & 2 else c) for m, c in self.num])
        return CliffordElement._of(self.n, num, self.den)


def _versor_norm(g: CliffordElement) -> int:
    """den^2 g reversal(g) over Z, for g = num / den; NotAVersor when it is
    not a nonzero scalar."""
    norm = _int_product(g.num, g.reversal().num)
    if norm.keys() != {0}:
        raise NotAVersor(f"g * reversal(g) = {norm} is not a nonzero scalar")
    return norm[0]


def twisted_conjugation_matrix(g: CliffordElement) -> RatMatrix:
    """Matrix of x -> alpha(g) x g^-1 on vectors; exactly orthogonal.

    This realises the covering of the orthogonal group by the Lipschitz
    group: reflections for odd g, rotations for even g.  The inverse is
    expanded as reversal over norm, so column i is alpha(g) e_i reversal(g)
    divided by g reversal(g), both taken over Z on num, where den^2 cancels.
    NotAVersor is raised when that norm is not a nonzero scalar,
    NotVectorPreserving when an image is not a nonzero pure vector.
    """
    if not isinstance(g, CliffordElement):
        raise ValueError(f"need a CliffordElement, got {g!r}")
    n = g.n
    norm = _versor_norm(g)
    alpha, rev = g.grade_involution().num, g.reversal().num
    columns = []
    for i in range(n):
        image = _int_product(_int_product(alpha, ((1 << i, 1),)).items(), rev)
        grades = {m.bit_count() for m in image}
        if grades != {1}:
            raise NotVectorPreserving(
                f"image of e{i + 1} has grades {sorted(grades)}, expected {{1}}"
            )
        columns.append([image.get(1 << k, 0) for k in range(n)])
    # the norm is a sum of squares, so positive
    return RatMatrix._of(*lowest_terms(tuple(zip(*columns)), norm))


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
    refusal = "each lift must be a CliffordElement or a sequence of them"
    try:
        chains = [[g] if isinstance(g, CliffordElement) else list(g) for g in lifts]
    except TypeError:
        raise ValueError(refusal) from None
    if not all(isinstance(f, CliffordElement) for chain in chains for f in chain):
        raise ValueError(refusal)
    # an identity may be lifted with no factor, so n comes from any factor
    dims = {f.n for chain in chains for f in chain}
    if len(dims) > 1:
        raise ValueError("all lifts must live in the same algebra")
    norms = math.prod(_versor_norm(f) for chain in chains for f in chain)
    product, removed = {0: 1}, 1
    for g, h in zip(chains[::2], chains[1::2]):
        # g h g^-1 h^-1: an inverse is its lift's factors reversed, each one reversed
        for f in g + h + [f.reversal() for f in reversed(h + g)]:
            product = _int_product(product.items(), f.num)
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
