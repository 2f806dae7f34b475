"""Explicit matrix catalogue and constructors realising every invariant class.

The catalogue consists of seven families of orthogonal matrices, each a
block diagonal of 2x2 seeds.  One pair table per second invariant that a
handle contributes (0, omega or 1), keyed by the handle's two mu1 bits, picks
its pair.  At n = 2 mod 4 the anti-commuting omega families change
component, so that table is read with both bits flipped.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from functools import lru_cache

from .linalg import MAX_DIM, RatMatrix
from .surfrep import InvalidClass, InvariantClass, Mu2Value, SurfaceRep, invariants
from .surfrep import check_ints, even_n


class BadDimension(ValueError):
    """n is outside the range of a catalogue matrix, a pair or a representation."""


_SEEDS = {
    "X": RatMatrix([[0, 1], [1, 0]]),
    "X'": RatMatrix([[1, 0], [0, -1]]),
    "Y": RatMatrix([[1, 0], [0, -1]]),
    "Y'": RatMatrix([[-1, 0], [0, 1]]),
    "Z": RatMatrix([[0, -1], [1, 0]]),
    "I": RatMatrix.identity(2),
    "-I": RatMatrix([[-1, 0], [0, -1]]),
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
    "I": ((), "I"),
    "S": (("-I",), "I"),
    "S'": (("Y'", "Y'"), "I"),
}

CATALOGUE_NAMES = tuple(_BLOCKS)[:-3]  # I, S and S' only the pair tables read


def catalogue_matrix(name: str, n: int) -> RatMatrix:
    """The catalogue matrix of the given family in size n: a block diagonal
    of 2x2 seeds, its head blocks followed by copies of its tail block.
    Memoised: a repeat call returns the same immutable matrix.

    Unrolled, these are the recursions X_n = diag(X_2, X_{n-2}) and likewise
    for X'; Y and Y' pad their seed with the identity; Z_n = diag(Z_2,
    X'_{n-2}); W_n = diag(X_2, Z_{n-2}); W'_n = diag(Z_2, X_{n-2}).
    """
    if name not in CATALOGUE_NAMES:
        raise ValueError(f"unknown catalogue family {name!r}")
    check_ints(BadDimension, n=n)
    if n % 2 != 0 or not 2 <= n <= MAX_DIM:
        need = "even n >= 2" if n <= MAX_DIM else f"n <= {MAX_DIM}"
        raise BadDimension(f"catalogue matrices need {need}, got {n}")
    if name in ("W", "W'") and n < 4:
        raise BadDimension(f"family {name} needs n >= 4, got {n}")
    return _seed_diagonal(name, n)


# every caller caps n at MAX_DIM first, so 80 holds every _BLOCKS entry at every even n
@lru_cache(maxsize=80)
def _seed_diagonal(name: str, n: int) -> RatMatrix:
    head, tail = _BLOCKS[name]
    return RatMatrix.block_diag(*(_SEEDS[b] for b in (*head, *[tail] * (n // 2 - len(head)))))


class PairKind(Enum):
    COMMUTING = "commuting"
    ANTICOMMUTING = "anticommuting"


# mu2 of the handle -> (mu1 bit of the first matrix, of the second; 1 =
# outside SO(n)) -> _BLOCKS names.  The omega pairs anti-commute and are listed
# for n = 0 mod 4: det X_n = (-1)^(n/2), and likewise for X', Z, W and W', so
# at n = 2 mod 4 each lies in the other component.  S and S' commute, but
# their even lifts e1e2 and e1e3 anti-commute: -1 at the covering level.
_PAIRS = {
    Mu2Value.ZERO: {
        (0, 0): ("I", "I"), (0, 1): ("I", "Y"), (1, 0): ("Y", "I"), (1, 1): ("Y", "Y'"),
    },
    Mu2Value.OMEGA: {
        (0, 0): ("X", "X'"), (0, 1): ("X", "Z"), (1, 0): ("Z", "X"), (1, 1): ("W", "W'"),
    },
    Mu2Value.ONE: {(0, 0): ("S", "S'")},
}


def pair_for(kind: PairKind, bits: Sequence[int], n: int) -> tuple[RatMatrix, RatMatrix]:
    """A catalogue pair with commutator +I (COMMUTING) or -I (ANTICOMMUTING)
    whose two mu1 bits are `bits`, 1 meaning outside SO(n)."""
    check_ints(BadDimension, n=n)
    if not even_n(n, MAX_DIM):
        need = "even n >= 4" if n <= MAX_DIM else f"n <= {MAX_DIM}"
        raise BadDimension(f"pairs need {need}, got {n}")
    if not isinstance(kind, PairKind):
        raise ValueError(f"unknown pair kind {kind!r}")
    # a bool or a float hashes like a bit, so only a type check keeps it out
    if not isinstance(bits, Sequence) or len(bits) != 2 or any(
        type(b) is not int or b not in (0, 1) for b in bits
    ):
        raise InvalidClass(f"a pair needs two mu1 bits, got {bits!r}")
    return _pair(Mu2Value.OMEGA if kind == PairKind.ANTICOMMUTING else Mu2Value.ZERO, bits, n)


def _pair(mu2: Mu2Value, bits: Sequence[int], n: int) -> tuple[RatMatrix, RatMatrix]:
    # the pair of a handle contributing mu2, its arguments already checked
    flip = int(mu2 == Mu2Value.OMEGA and n % 4 == 2)
    first, second = _PAIRS[mu2][bits[0] ^ flip, bits[1] ^ flip]
    return _seed_diagonal(first, n), _seed_diagonal(second, n)


def build_representation(g: int, n: int, target: InvariantClass) -> SurfaceRep:
    """A representation whose invariants are exactly the requested class.

    Handle 1 carries the pair that produces the requested second invariant;
    every later handle carries a commuting pair matching its two component
    bits.  The result is re-checked through the invariant computation before
    being returned.  n is checked before any matrix is built: the spin
    obstruction is decided on a spinor of 2^(n/2) entries, so n is capped
    at MAX_DIM, the bound representation files keep too.
    """
    check_ints(BadDimension, genus=g, n=n)
    if not even_n(n, MAX_DIM):
        raise BadDimension(f"representations need even n with 4 <= n <= {MAX_DIM}, got {n}")
    if not isinstance(target, InvariantClass):
        raise InvalidClass(f"target must be an InvariantClass, got {target!r}")
    if len(target.mu1) != 2 * g:
        raise InvalidClass(f"mu1 must have length {2 * g}, got {len(target.mu1)}")
    bits = target.mu1
    gens = list(_pair(target.mu2, bits[:2], n))
    for i in range(2, 2 * g, 2):
        gens.extend(_pair(Mu2Value.ZERO, bits[i:i + 2], n))
    rep = SurfaceRep(g, n, tuple(gens))
    achieved = invariants(rep)
    if achieved != target:
        raise AssertionError(
            f"constructed representation has invariants {achieved}, wanted {target}"
        )
    return rep
