"""The spin-lift obstruction, decided on one spinor mod p^(v+1).

For even n, Cl(n) over F_p with p = 1 (mod 4) is the matrix algebra of size
2^(n/2) (Lawson-Michelsohn, Spin Geometry, I.5).  `spinor_commutator` takes
each generator's lift as the primitive integer vectors of
`linalg.reflection_vectors` and applies the product of their commutators to
one spinor through Jordan-Wigner gamma matrices, at (n/2) 2^(n/2)
multiply-adds per vector, mod p^(v+1) for one prime p, with p^v exactly
dividing the norms' product.  The walk is straight-line Python generated
once per n, like the kernels of `linalg`.

This is the route certification takes; it needs no multivector.  The exact
product in the Lipschitz group, `clifford.commutator_product`, names the
same kernel element and is the reference the tests compare it with.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Sized
from enum import Enum
from functools import cache
from operator import mul

# _generated compiles a kernel source for a checked n, for linalg's kernels and this walk
from .linalg import MAX_DIM, _generated


class NotInKernel(ValueError):
    """A commutator product fell outside {1, -1, omega, -omega}."""


class KernelElement(Enum):
    """The four central covering elements sitting over the identity class."""

    ONE = "1"
    MINUS_ONE = "-1"
    OMEGA = "omega"
    MINUS_OMEGA = "-omega"


def _check_dimension(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")


# a prime = 1 (mod 4) below 2^30, so that residues mod p stay one machine digit
_SPINOR_PRIME = 998244353


def _sqrt_minus_one(p: int, m: int) -> int:
    """A square root of -1 mod m, a power of the prime p = 1 (mod 4):
    c^(phi(m)/4) for the least quadratic non-residue c mod p.  (Z/m)* is
    cyclic, so c^(phi(m)/2) is its one element of order 2, which is -1."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, m // p * (p - 1) // 4, m)


@cache
def _spinor_kernel(n: int) -> Callable[[Iterable[Sequence[int]], Sequence[int], int, int], list[int]]:
    """The walk that applies u_1 gamma_1 + ... + u_n gamma_n for each vector
    u in turn to the spinor psi, mod m, with i a square root of -1 mod m,
    for n even.  The gammas are the Jordan-Wigner matrices of Cl(n) on the
    2^(n/2) spinor entries, one pair per qubit k < n/2: gamma_2k = Z..Z X
    and gamma_2k+1 = Z..Z Y, with the Pauli matrices X = [[0, 1], [1, 0]],
    Y = [[0, -i], [i, 0]] on qubit k and Z = diag(1, -1) on each of the
    qubits below k (bit j of an entry's index is qubit j).  They square to
    1 and anti-commute, and each is a phased permutation, so entry x of the
    image is a sum of n/2 products: over k, (-1)^s (u_2k + i u_2k+1)
    psi[x ^ 2^k] when bit k of x is 1 and (-1)^s (u_2k - i u_2k+1)
    psi[x ^ 2^k] when it is 0, where (-1)^s is the sign of the Z string.
    Those coefficients are computed once per vector."""
    half = n // 2
    coefficients = "; ".join(
        f"a{k} = (u{2 * k} + i*u{2 * k + 1}) % m; b{k} = (u{2 * k} - i*u{2 * k + 1}) % m"
        for k in range(half)
    )

    def entry(x: int) -> str:
        terms = (
            f"{'-' if (x & ((1 << k) - 1)).bit_count() & 1 else '+'} "
            f"{'a' if x >> k & 1 else 'b'}{k}*p{x ^ (1 << k)}"
            for k in range(half)
        )
        return f"({' '.join(terms).removeprefix('+ ')}) % m"

    spinor = ", ".join(f"p{x}" for x in range(1 << half))
    return _generated("walk", n, f"""
def walk(vectors, psi, i, m):
    {spinor}, = psi
    for {", ".join(f"u{k}" for k in range(n))}, in vectors:
        {coefficients}
        {spinor}, = {", ".join(entry(x) for x in range(1 << half))},
    return [{spinor}]
""")


def spinor_commutator(n: int, lifts: Sequence[Sequence[Sequence[int]]]) -> KernelElement:
    """The kernel element commutator_product names for lifts given as lists
    of integer reflection vectors in R^n, n even (reflection_vectors gives
    them for a matrix), decided on one spinor mod p^(v+1) instead of by
    multiplying multivectors: (n/2) 2^(n/2) multiply-adds per vector.

    The product P of the vectors in commutator_product's order is applied to
    psi_0 = e_0 + e_1, right to left.  When the lifts cover matrices whose
    commutator product is +-I, P is +-N or +-N omega, with N the product of
    the vectors' norms, each vector taken once, and omega psi_0 =
    i^(n/2) (e_0 - e_1).  These four candidates differ pairwise, in some
    entry, by N times 2 or 1 +- i, units mod p, so they are distinct mod
    m = p^(v+1) when p^v exactly divides N; m and N mod m are read off each
    norm's powers of p without forming N.  A result that is none of them
    raises NotInKernel; a match proves nothing unless the relation was
    certified, as SurfaceRep does.  ValueError for a vector of another
    length than n, an entry that is not an int, or a zero vector, whose
    norm every power of p divides.
    """
    if not isinstance(lifts, Sized) or len(lifts) < 2 or len(lifts) % 2 != 0:
        raise ValueError("expected a non-empty even-length list of lifts")
    _check_dimension(n)
    if n % 2:
        raise ValueError(f"the spinor route needs an even dimension, got n = {n}")
    p = _SPINOR_PRIME
    m, unit = p, 1
    for lift in lifts:
        for u in lift:
            if len(u) != n:
                raise ValueError(f"every reflection vector must have length n = {n}")
            if not all(type(x) is int for x in u):
                raise ValueError(f"reflection vector entries must be ints, got {u!r}")
            uu = sum(map(mul, u, u))
            if not uu:
                raise ValueError("a reflection vector is zero")
            while uu % p == 0:
                uu //= p
                m *= p
            unit = unit * uu % p
    sequence = [u for g, h in zip(lifts[::2], lifts[1::2]) for u in (*g, *h, *g[::-1], *h[::-1])]
    norm, i = m // p * unit, _sqrt_minus_one(p, m)
    psi = _spinor_kernel(n)(reversed(sequence), [1, 1] + [0] * ((1 << n // 2) - 2), i, m)
    c = pow(i, n // 2, m) * norm % m
    candidates = {
        (norm, norm): KernelElement.ONE,
        (m - norm, m - norm): KernelElement.MINUS_ONE,
        (c, m - c): KernelElement.OMEGA,
        (m - c, c): KernelElement.MINUS_OMEGA,
    }
    found = None if any(psi[2:]) else candidates.get((psi[0], psi[1]))
    if found is None:
        raise NotInKernel("commutator product is not +-1 or +-omega; the surface relation fails")
    return found
