"""Bundle classification: invariant enumeration, counts and lifting predicates.

Two layers live here.  The generic layer classifies principal bundles over a
closed oriented surface for any topological group with finite abelian pi_0
and pi_1: the second invariant ranges over the pi_0-orbits of pi_1 modulo a
correction subgroup determined by the first invariant.  The concrete layer
instantiates this for the projective orthogonal groups, enumerates the
resulting invariant classes, and evaluates the closed-form component counts
for the representation spaces (projective and extended-linear) together with
the dimension and Stiefel-Whitney tensor formulas.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from operator import add, mul, sub

from .frozen import Frozen
from .surfrep import InvariantClass, Mu2Value, as_tuple, check_genus, check_ints, check_mu1_length, even_n

MAX_GROUP_SIZE = 1 << 16

# invariant classes grow as 2^(2g+1) + 1; genus 8 already lists 131 073
MAX_GENUS = 8


class BadInput(ValueError):
    """Arguments outside the supported range."""


class TargetInvalidForClass(ValueError):
    """The lifting question is not defined for this class shape."""


Element = tuple[int, ...]


class FinAbGroup(Frozen):
    """Finite abelian group as a product of cyclic factors.

    Elements are coefficient tuples reduced modulo the factor orders.
    """

    __slots__ = _fields = ("orders",)

    def __init__(self, orders: Sequence[int]):
        # a non-iterable, such as 5, gives no orders, so the check below refuses it
        object.__setattr__(self, "orders", tuple(orders) if isinstance(orders, Iterable) else ())
        if not self.orders or any(type(k) is not int or k < 2 for k in self.orders):
            raise BadInput("cyclic factor orders must all be ints >= 2")
        if self.size() > MAX_GROUP_SIZE:
            raise BadInput(f"group size exceeds the cap {MAX_GROUP_SIZE}")

    def size(self) -> int:
        return math.prod(self.orders)

    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def reduce(self, v: Sequence[int]) -> Element:
        if not isinstance(v, Sequence):
            raise BadInput(f"element must be a sequence of ints, got {v!r}")
        if len(v) != len(self.orders):
            raise BadInput("element has the wrong number of coordinates")
        # True % 2 and 2.5 % 4 both work, so only a type check keeps them out
        if any(type(x) is not int for x in v):
            raise BadInput(f"element coordinates must be ints, got {tuple(v)!r}")
        return tuple([x % k for x, k in zip(v, self.orders)])

    def _combine(self, op, a: Element, b: Element) -> Element:
        try:
            if len(a) == len(b):  # map would stop at the shorter one
                return self.reduce(list(map(op, a, b)))
        except TypeError:
            raise BadInput(f"elements must be sequences of ints, got {a!r} and {b!r}") from None
        raise BadInput(f"elements have different lengths, got {a!r} and {b!r}")

    def add(self, a: Element, b: Element) -> Element:
        return self._combine(add, a, b)

    def sub(self, a: Element, b: Element) -> Element:
        return self._combine(sub, a, b)

    def elements(self) -> Iterator[Element]:
        yield from itertools.product(*(range(k) for k in self.orders))


class GroupAction(Frozen):
    """Action of pi_0 on pi_1 given by one endomorphism per pi_0 generator.

    generator_images[k][j] is the image in pi_1 of the j-th pi_1 generator
    under the k-th pi_0 generator.  Each map must be an automorphism whose
    order divides the order of the acting generator, and the maps must
    commute, so that `apply` is an action of the abelian pi_0.  The checks run
    on each map tabulated once, and `apply` moves along the table's cycles.
    """

    _fields = ("pi0", "pi1", "generator_images")
    __slots__ = (*_fields, "_cycles")

    def __init__(
        self, pi0: FinAbGroup, pi1: FinAbGroup, generator_images: Sequence[Sequence[Sequence[int]]]
    ):
        if not isinstance(pi0, FinAbGroup) or not isinstance(pi1, FinAbGroup):
            raise BadInput(f"pi0 and pi1 must be FinAbGroups, got {pi0!r} and {pi1!r}")
        generator_images = as_tuple(BadInput, "generator_images", generator_images)
        if len(generator_images) != len(pi0.orders):
            raise BadInput("need one endomorphism per pi0 generator")
        images = tuple(
            tuple(pi1.reduce(v) for v in as_tuple(BadInput, "each endomorphism", block))
            for block in generator_images
        )
        object.__setattr__(self, "pi0", pi0)
        object.__setattr__(self, "pi1", pi1)
        object.__setattr__(self, "generator_images", images)
        for block in images:
            if len(block) != len(pi1.orders):
                raise BadInput("endomorphism must list one image per pi1 generator")
        elements = list(pi1.elements())
        tables, cycles = [], []
        for k, (order, block) in enumerate(zip(pi0.orders, images)):
            rows = tuple(zip(*block))  # rows[i][j] is coordinate i of the j-th image
            table = {v: pi1.reduce([sum(map(mul, r, v)) for r in rows]) for v in elements}
            if len(set(table.values())) != len(elements):
                raise BadInput(f"pi0 generator {k} does not act by an automorphism")
            where = {}  # element -> (its cycle, its place in the cycle)
            for v in elements:
                if v not in where:
                    cycle = [v]
                    while (w := table[cycle[-1]]) != v:
                        cycle.append(w)
                    if order % len(cycle):  # v is fixed by the order-th power
                        raise BadInput(f"pi0 generator {k} violates its order {order}")
                    where.update((w, (cycle, i)) for i, w in enumerate(cycle))
            tables.append(table)
            cycles.append(where)
        for (k, a), (j, b) in itertools.combinations(enumerate(tables), 2):
            if any(a[b[v]] != b[a[v]] for v in elements):
                raise BadInput(f"pi0 generators {k} and {j} act by maps that do not commute")
        object.__setattr__(self, "_cycles", tuple(cycles))

    def apply(self, g0: Element, v: Element) -> Element:
        """Act by the pi_0 element g0 on the pi_1 element v."""
        out = self.pi1.reduce(v)
        for times, where in zip(self.pi0.reduce(g0), self._cycles):
            cycle, i = where[out]
            out = cycle[(i + times) % len(cycle)]
        return out


def _units(rank: int) -> list[Element]:
    return [tuple([int(i == j) for i in range(rank)]) for j in range(rank)]


def gamma_subgroup(action: GroupAction, mu1_image: Iterable[Element]) -> frozenset[Element]:
    """Correction subgroup of pi_1 generated by v - g0.v over the image of mu1.

    v -> v - g0.v is a homomorphism, so the generators v of pi_1 suffice.
    Gamma grows only by the x = v - g0.v not yet in it, a coset of the old
    Gamma at a time, so each x at least doubles it: three reductions per
    pi_1 generator and image element, and under 2 |Gamma| additions.
    """
    if not isinstance(action, GroupAction):
        raise BadInput(f"need a GroupAction, got {action!r}")
    pi1 = action.pi1
    image = [action.pi0.reduce(g0) for g0 in as_tuple(BadInput, "mu1_image", mu1_image)]
    gamma = {pi1.zero()}
    for g0, v in itertools.product(image, _units(len(pi1.orders))):
        x = pi1.sub(v, action.apply(g0, v))
        if x not in gamma:
            layer = list(gamma)
            # H + x, H + 2x, ... are new cosets until the first that is H again
            while (layer := [pi1.add(w, x) for w in layer])[0] not in gamma:
                gamma.update(layer)
    return frozenset(gamma)


def classify_bundles(action: GroupAction, mu1_image: Iterable[Element]) -> list[Element]:
    """Canonical representatives of (pi_1 / Gamma) / pi_0.

    This is the exact range of the second invariant for bundles whose first
    invariant has the given image.  Representatives are the lexicographically
    least coefficient vectors in each orbit, returned sorted.  pi_0 preserves
    Gamma, because its generators act by commuting automorphisms:
    g.(v - h.v) = w - h.w for w = g.v.  Walking pi_1 in increasing order meets
    each coset, then each orbit of cosets, first at its least element: one
    addition per element and one action per coset and pi_0 generator.
    """
    gamma = gamma_subgroup(action, mu1_image)
    least: dict[Element, Element] = {}  # element -> least element of its coset
    for v in action.pi1.elements():
        if v not in least:
            least.update((action.pi1.add(v, w), v) for w in gamma)
    reps, seen, units = [], set(), _units(len(action.pi0.orders))
    for c in dict.fromkeys(least.values()):
        if c not in seen:
            reps.append(c)
            orbit = [c]
            while orbit:
                if (u := orbit.pop()) not in seen:
                    seen.add(u)
                    orbit.extend(least[action.apply(g, u)] for g in units)
    return reps


# ---------------------------------------------------------------------------
# Projective orthogonal instantiation
# ---------------------------------------------------------------------------


# pi_1 of PO(n), n >= 4 even, keyed by n % 4: the four-element covering
# kernel {1, -1, omega, -omega} written additively, as its cyclic orders, the
# images of its generators under the orientation-reversing component, which
# acts by omega -> -omega, and the name of each element.  It is Z_2 x Z_2
# when n = 0 mod 4, with (a, b) meaning a.[-1] + b.[omega], and Z_4
# generated by omega when n = 2 mod 4.
_PO_PI1 = {
    0: ((2, 2), ((1, 0), (1, 1)), {(0, 0): "0", (1, 0): "1", (0, 1): "omega", (1, 1): "-omega"}),
    2: ((4,), ((3,),), {(0,): "0", (2,): "1", (1,): "omega", (3,): "-omega"}),
}


def _po_pi1(n: int) -> tuple:
    check_ints(BadInput, n=n)
    _check_n(n)
    return _PO_PI1[n % 4]


def po_bundle_data(n: int) -> GroupAction:
    """The (pi_0, pi_1, action) triple of PO(n) for n >= 4 even (_PO_PI1)."""
    orders, images, _ = _po_pi1(n)
    return GroupAction(FinAbGroup((2,)), FinAbGroup(orders), (images,))


def po_kernel_label(n: int, v: Element) -> str:
    """Additive name of a pi_1 element of PO(n): 0, 1, omega or -omega."""
    names = _po_pi1(n)[2]
    if type(v) is not tuple or v not in names:
        raise BadInput(f"{v!r} is not an element of pi_1 of PO({n})")
    return names[v]


def _check_n(n: int) -> None:
    if not even_n(n, None):  # no matrix is built, so n has no cap
        raise BadInput(f"n must be even and >= 4, got {n}")


def _check_g_n(g: int, n: int) -> None:
    check_ints(BadInput, genus=g, n=n)
    check_genus(BadInput, g, MAX_GENUS)
    _check_n(n)


def invariant_classes(g: int, n: int) -> list[InvariantClass]:
    """All invariant classes at genus g: 2^(2g+1) + 1 of them, in a fixed order.

    mu2 ranges over {0, 1, omega} when mu1 = 0 and over {0, omega} otherwise.
    """
    _check_g_n(g, n)
    out = []
    for mu1 in itertools.product((0, 1), repeat=2 * g):
        if any(mu1):
            values = (Mu2Value.ZERO, Mu2Value.OMEGA)
        else:
            values = (Mu2Value.ZERO, Mu2Value.ONE, Mu2Value.OMEGA)
        out.extend(InvariantClass(mu1, mu2) for mu2 in values)
    return out


class LiftTarget(Enum):
    SO = "SO"
    SPIN = "Spin"
    PIN = "Pin"
    O = "O"


def lifts_to(cls: InvariantClass, target: LiftTarget) -> bool:
    """Whether a bundle in the class lifts to the given covering group.

    Over mu1 = 0 the questions are the special-orthogonal and spin lifts;
    over mu1 != 0 they are the orthogonal and pin lifts (equivalent to each
    other), decided by mu2 = 0.
    """
    if not isinstance(cls, InvariantClass) or not isinstance(target, LiftTarget):
        raise BadInput(f"need an InvariantClass and a LiftTarget, got {cls!r} and {target!r}")
    if cls.mu1_is_zero:
        if target == LiftTarget.SO:
            return cls.mu2 in (Mu2Value.ZERO, Mu2Value.ONE)
        if target == LiftTarget.SPIN:
            return cls.mu2 == Mu2Value.ZERO
        raise TargetInvalidForClass(f"{target.value}-lift is not defined when mu1 = 0")
    if target in (LiftTarget.PIN, LiftTarget.O):
        return cls.mu2 == Mu2Value.ZERO
    raise TargetInvalidForClass(f"{target.value}-lift is not defined when mu1 != 0")


def z0(n: int, g: int) -> int:
    """(g - 1) n^2 / 4 mod 2: the split-class second Stiefel-Whitney value,
    for even n >= 4 and g >= 2."""
    check_ints(BadInput, n=n, genus=g)
    check_genus(BadInput, g)
    _check_n(n)
    return ((g - 1) * n * n // 4) % 2


def component_count(n: int, g: int) -> int:
    """Number of connected components of the representation space in PGL(n, R)."""
    if type(n) is not int or type(g) is not int or g < 2 or n < 2:
        raise BadInput(f"need ints n >= 2 and g >= 2, got n={n!r}, g={g!r}")
    if n == 2:
        return 2 ** (2 * g + 1) + 4 * g - 5
    if n % 2 == 1:
        return 3
    return 2 ** (2 * g + 1) + 2


def components_by_class(g: int, n: int) -> list[tuple[InvariantClass, int]]:
    """Each class of invariant_classes(g, n), in order, with its number of
    components: 2 for (0, z0), else 1.

    The doubled class is the one containing the contractible family of
    deformations with maximal symmetry breaking; the counts sum to
    component_count.
    """
    # invariant_classes checks g and n; z0 is a w2 value, and over mu1 = 0
    # with an even-degree twist w2 = 0 and w2 = 1 are mu2 = 0 and mu2 = 1
    classes = invariant_classes(g, n)
    doubled = Mu2Value.ONE if z0(n, g) else Mu2Value.ZERO
    return [(cls, 2 if cls.mu2 is doubled and cls.mu1_is_zero else 1) for cls in classes]


class TwistedClass(Frozen):
    """Invariant class of a twisted orthogonal bundle (V, L, Q).

    Over mu1bar = 0 the payload is (w2, deg L) for even degree and just the
    degree for odd degree; over mu1bar != 0 only the degree remains.
    """

    __slots__ = _fields = ("mu1bar", "deg", "w2")

    def __init__(self, mu1bar: Sequence[int], deg: int, w2: int | None = None):
        mu1bar = as_tuple(BadInput, "mu1bar", mu1bar)
        check_mu1_length(BadInput, mu1bar)
        if type(deg) is not int or any(type(bit) is not int or bit not in (0, 1) for bit in mu1bar):
            raise BadInput(f"deg must be an int and mu1bar entries bits, got {deg!r}, {mu1bar}")
        if not any(mu1bar) and deg % 2 == 0:
            if type(w2) is not int or w2 not in (0, 1):
                raise BadInput("w2 in {0, 1} is required when mu1bar = 0 and deg even")
        elif w2 is not None:
            raise BadInput("w2 is only carried when mu1bar = 0 and deg is even")
        object.__setattr__(self, "mu1bar", mu1bar)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "w2", w2)


def project_twisted(cls: TwistedClass) -> InvariantClass:
    """Invariant class of the projective bundle underlying a twisted bundle.

    Odd twist degree always projects to mu2 = omega; even degree projects to
    the w2 value over mu1 = 0 and to mu2 = 0 over mu1 != 0.
    """
    if not isinstance(cls, TwistedClass):
        raise BadInput(f"class must be a TwistedClass, got {cls!r}")
    if not any(cls.mu1bar):
        if cls.deg % 2 == 1:
            mu2 = Mu2Value.OMEGA
        else:
            mu2 = Mu2Value.ONE if cls.w2 else Mu2Value.ZERO
    else:
        mu2 = Mu2Value.OMEGA if cls.deg % 2 == 1 else Mu2Value.ZERO
    return InvariantClass(cls.mu1bar, mu2)


class ComponentReport(Frozen):
    """Per-class component multiplicities with moduli and fixed-fibre totals.

    entries[i] = (twisted class, multiplicity in the full degree-d space,
    multiplicity in one fixed-line-bundle fibre).
    """

    __slots__ = _fields = ("deg", "entries")

    def __init__(self, deg: int, entries: Iterable[tuple[TwistedClass, int, int]]):
        object.__setattr__(self, "deg", deg)
        entries = as_tuple(BadInput, "entries", entries)
        object.__setattr__(self, "entries", tuple(as_tuple(BadInput, "each entry", e) for e in entries))

    @property
    def total(self) -> int:
        return sum(m for _, m, _ in self.entries)

    @property
    def fibre_total(self) -> int:
        return sum(f for _, _, f in self.entries)


def egl_component_counts(deg: int, g: int, n: int) -> ComponentReport:
    """Component counts of the extended-linear moduli at twist degree 0 or 1.

    Degree 0: the class (0, z0) carries 2 components in the full space and
    2^(2g) + 1 in a fixed fibre (the extra ones collapsing when the fibre
    varies); every other class is connected in both.  Degree 1: one class
    per mu1bar vector, all connected.
    """
    _check_g_n(g, n)
    if type(deg) is not int or deg not in (0, 1):
        raise BadInput(f"twist degree must be 0 or 1, got {deg}")
    entries: list[tuple[TwistedClass, int, int]] = []
    if deg == 0:
        z = z0(n, g)
        for w2 in (0, 1):
            cls = TwistedClass((0,) * (2 * g), 0, w2)
            entries.append((cls, 2 if w2 == z else 1, (2 ** (2 * g) + 1) if w2 == z else 1))
        for mu1bar in itertools.product((0, 1), repeat=2 * g):
            if any(mu1bar):
                entries.append((TwistedClass(mu1bar, 0), 1, 1))
    else:
        for mu1bar in itertools.product((0, 1), repeat=2 * g):
            entries.append((TwistedClass(mu1bar, 1), 1, 1))
    return ComponentReport(deg, entries)


def tensor_by_line_bundle(
    w1: Sequence[int], w2: int, f1: Sequence[int], n: int
) -> tuple[tuple[int, ...], int]:
    """Stiefel-Whitney classes of W tensor F for a real line bundle F.

    For even rank n >= 2 w1 is unchanged and w2 picks up the cup product
    w1 . f1, evaluated through the standard symplectic pairing on the
    surface; the w1(F)^2 term vanishes on an orientable surface, so rank 2
    follows the same formula.
    """
    check_ints(BadInput, rank=n)
    if n % 2 != 0 or n < 2:
        raise BadInput(f"rank must be even and >= 2, got {n}")
    w1, f1 = as_tuple(BadInput, "w1", w1), as_tuple(BadInput, "f1", f1)
    check_mu1_length(BadInput, w1)
    if len(w1) != len(f1):
        raise BadInput("w1 and f1 must have the same even length 2g")
    if any(type(bit) is not int or bit not in (0, 1) for bit in (*w1, *f1, w2)):
        raise BadInput(f"w1, f1 and w2 must be bits, got {w1}, {f1}, {w2!r}")
    pairing = 0
    for i in range(0, len(w1), 2):
        pairing += w1[i] * f1[i + 1] + w1[i + 1] * f1[i]
    return w1, (w2 + pairing) % 2


def moduli_dimension(n: int, g: int) -> int:
    """Complex dimension 2 n^2 (g - 1) + 2 of the ambient Higgs moduli space."""
    check_ints(BadInput, n=n, genus=g)
    if n < 1 or g < 2:
        raise BadInput(f"need n >= 1 and g >= 2, got n={n}, g={g}")
    return 2 * n * n * (g - 1) + 2
