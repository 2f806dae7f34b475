"""Mapping-class-group equivariance of the invariants, as a metamorphic test.

An automorphism phi of the surface group pi_1 that comes from an
orientation-preserving homeomorphism maps the relator R = [A_1, B_1] ...
[A_g, B_g] to a conjugate of R.  Precomposing a representation rho with
phi gives rho o phi, whose invariants are (phi* mu1, mu2): mu1 is pulled
back (mu1 o phi), and mu2 is a topological invariant (Farb-Margalit, A
Primer on Mapping Class Groups).  For mu1 = 0 every spin lift changes, so
this exercises the reflection vectors and the spinor route end to end.

Words are lists of letters (k, e): generator k in A_1, B_1, A_2, B_2, ...
order, to the power e = +-1.  An automorphism is the list of the words
that the generators map to.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pglrep.classify import invariant_classes
from pglrep.construct import build_representation
from pglrep.linalg import RatMatrix
from pglrep.surfrep import InvariantClass, SurfaceRep, invariants

import randmat


def free_reduce(word):
    out = []
    for k, e in word:
        if out and out[-1] == (k, -e):
            out.pop()
        else:
            out.append((k, e))
    return out


def inverse(word):
    return [(k, -e) for k, e in reversed(word)]


def relator(g):
    return [(2 * i + j, e) for i in range(g) for j, e in ((0, 1), (1, 1), (0, -1), (1, -1))]


def image(phi, word):
    return free_reduce([x for k, e in word for x in (phi[k] if e == 1 else inverse(phi[k]))])


def is_cyclic_conjugate(word, r):
    """Whether the freely reduced word is conjugate to the cyclically
    reduced word r: its cyclic reduction is a rotation of r."""
    w = free_reduce(word)
    while len(w) > 1 and w[0] == (w[-1][0], -w[-1][1]):
        w = w[1:-1]
    return len(w) == len(r) and any(w == r[s:] + r[:s] for s in range(len(r)))


def identity_map(g):
    return [[(k, 1)] for k in range(2 * g)]


def automorphisms(g):
    """The in-handle twists A_i -> A_i B_i and B_i -> B_i A_i, the cyclic
    shift of the handles, and a handle-mixing map, by name.

    The mixing map A_1 -> B_2 B_1 A_1, A_2 -> B_1 B_2 A_2 sends
    [A_1, B_1][A_2, B_2] to its conjugate by w = B_2 B_1, which is a
    conjugate of R only at g = 2.  Followed by conjugation of the first two
    handles by w^-1, it fixes [A_1, B_1][A_2, B_2], so it extends by the
    identity on the other handles at every genus."""
    out = {}
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        out[f"A{i + 1}->A{i + 1}B{i + 1}"] = phi = identity_map(g)
        phi[a] = [(a, 1), (b, 1)]
        out[f"B{i + 1}->B{i + 1}A{i + 1}"] = phi = identity_map(g)
        phi[b] = [(b, 1), (a, 1)]
    out["shift handles"] = [[((k + 2) % (2 * g), 1)] for k in range(2 * g)]
    out["mix handles 1, 2"] = phi = identity_map(g)
    phi[0] = [(3, 1), (1, 1), (0, 1)]
    phi[2] = [(1, 1), (3, 1), (2, 1)]
    w = [(3, 1), (1, 1)]
    phi[:4] = [free_reduce(inverse(w) + word + w) for word in phi[:4]]
    return out


@pytest.mark.parametrize("g", [2, 3])
def test_every_automorphism_keeps_the_relator(g):
    r = relator(g)
    for name, phi in automorphisms(g).items():
        assert is_cyclic_conjugate(image(phi, r), r), name


def test_the_relator_check_rejects_wrong_formulas():
    r = relator(2)
    swap = identity_map(2)  # A1 <-> B1 reverses the orientation: R -> a conjugate of R^-1
    swap[0], swap[1] = [(1, 1)], [(0, 1)]
    misordered = identity_map(2)  # the mixing map with B1 and B2 in the wrong order
    misordered[0] = [(1, 1), (3, 1), (0, 1)]
    misordered[2] = [(3, 1), (1, 1), (2, 1)]
    unrelated = identity_map(2)
    unrelated[0] = [(0, 1), (2, 1)]
    for phi in (swap, misordered, unrelated):
        assert not is_cyclic_conjugate(image(phi, r), r)
    assert is_cyclic_conjugate(image(identity_map(2), r), r)


def precompose(gens, phi):
    """The generators of rho o phi: each word evaluated on rho's matrices,
    with an inverse taken as the transpose."""
    out = []
    for word in phi:
        m = RatMatrix.identity(gens[0].n)
        for k, e in word:
            m = m * (gens[k] if e == 1 else gens[k].transpose())
        out.append(m)
    return tuple(out)


def pull_back(mu1, phi):
    return tuple(sum(mu1[k] for k, _ in word) % 2 for word in phi)


def generic_gens(g, n, cls, rng):
    """The catalogue representation of cls with each handle conjugated by
    its own random rational rotation; a handle (I, I) becomes (Q, Q^-1) for
    a random rotation Q instead, so no handle stays trivial.  Each handle's
    commutator is +-I, so the relation holds."""
    gens = build_representation(g, n, cls).gens
    eye = RatMatrix.identity(n)
    out = []
    for a, b in zip(gens[::2], gens[1::2]):
        if a == b == eye:
            q = randmat.random_special_orthogonal(rng, n)
            a, b = q, q.transpose()
        p = randmat.random_special_orthogonal(rng, n)
        out += [p * a * p.transpose(), p * b * p.transpose()]
    return tuple(out)


def _classes(g, n):
    """Every class, with the mu1 = 0 classes drawn as often as the rest."""
    classes = invariant_classes(g, n)
    return st.one_of(
        st.sampled_from([c for c in classes if c.mu1_is_zero]),
        st.sampled_from([c for c in classes if not c.mu1_is_zero]),
    )


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("g", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_invariants_are_mapping_class_equivariant(g, n, data, seed):
    cls = data.draw(_classes(g, n))
    maps = automorphisms(g)
    names = data.draw(st.lists(st.sampled_from(sorted(maps)), min_size=1, max_size=3))
    gens = generic_gens(g, n, cls, random.Random(seed))
    assert invariants(SurfaceRep(g, n, gens)) == cls
    mu1 = cls.mu1
    for name in names:
        gens, mu1 = precompose(gens, maps[name]), pull_back(mu1, maps[name])
        assert invariants(SurfaceRep(g, n, gens)) == InvariantClass(mu1, cls.mu2), name
