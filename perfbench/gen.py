"""Seeded inputs for the pglrep benchmark, built with the standard library only.

Nothing here imports pglrep: the program under test receives only what these
functions return, and every input carries the invariant class it was built
from, so outputs are checked against an answer known by construction.

A representation of genus g into PO(n) is made handle by handle:

* a commuting pair of diagonal sign matrices carries the two mu1 bits of a
  handle; a handle with bits (0, 0) is the pair (Q, Q^T) for a random
  rotation Q, whose lifts commute in the Clifford algebra;
* an anti-commuting pair (commutator -I) on the first handle gives mu2 =
  omega; it is block-diagonal in 2x2 blocks taken from P, R and J below,
  any two distinct of which anti-commute;
* the pair diag(-1, -1, 1, ...), diag(-1, 1, -1, ...) on the first handle
  gives mu2 = 1 over mu1 = 0: its even lifts e1e2 and e1e3 anti-commute.

Every handle is then conjugated by its own random rational orthogonal matrix
R (a signed permutation times three plane rotations, one for each triple in
PYTHAGOREAN).  That keeps each generator's component and each handle's
commutator, both in O(n) and in the covering group, so the class is
unchanged.

The cost of an item must vary little from seed to seed, because each run of
the benchmark uses another seed.  So every rotation uses the same three
triples, which keeps the entries' bit sizes in a narrow band, and Q and its
conjugate R Q R^T are redrawn until they fix no vector and keep no span of
basis vectors, so their lifts are dense.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

PYTHAGOREAN = ((5, 12, 13), (8, 15, 17), (20, 21, 29))

MU2_ZERO, MU2_ONE, MU2_OMEGA = "0", "1", "omega"


# ---------------------------------------------------------------------------
# Exact matrices as tuples of tuples of Fractions
# ---------------------------------------------------------------------------


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def diagonal(entries):
    n = len(entries)
    return tuple(
        tuple(Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(a):
    return tuple(zip(*a))


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                rows[offset + i][offset + j] = Fraction(x)
        offset += len(b)
    return tuple(tuple(row) for row in rows)


def commutator(a, b):
    """A B A^T B^T, the commutator of two orthogonal matrices."""
    return matmul(matmul(matmul(a, b), transpose(a)), transpose(b))


def has_fixed_vector(a):
    """Whether a - I is singular, by fraction Gaussian elimination."""
    n = len(a)
    m = [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return True
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return False


def is_irreducible(a):
    """Whether a keeps no proper span of basis vectors: its support graph is connected.

    An orthogonal matrix that keeps such a span splits into blocks, and so
    does its lift, which then has far fewer terms than a generic one.
    """
    n = len(a)
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and (a[i][j] != 0 or a[j][i] != 0):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def _permutation_sign(perm):
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


def random_orthogonal(rng, n, det=None):
    """Signed permutation times one plane rotation per triple in PYTHAGOREAN,
    in seeded order and planes; det forced if given."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if det is not None:
        current = _permutation_sign(perm)
        for s in signs:
            current *= s
        if current != det:
            signs[0] = -signs[0]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for col, (row, sign) in enumerate(zip(perm, signs)):
        rows[row][col] = Fraction(sign)
    out = tuple(tuple(row) for row in rows)
    for a, b, h in rng.sample(PYTHAGOREAN, 3):
        i, j = rng.sample(range(n), 2)
        c, s = Fraction(a, h), Fraction(b, h)
        rot = [list(row) for row in identity(n)]
        rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, -s, s, c
        out = matmul(out, rot)
    return out


# ---------------------------------------------------------------------------
# Pairs with a known class
# ---------------------------------------------------------------------------

_P = ((0, 1), (1, 0))  # det -1
_R = ((1, 0), (0, -1))  # det -1
_J = ((0, -1), (1, 0))  # det +1
_ANTI_BLOCKS = ((_P, _R), (_P, _J), (_J, _P))
_BLOCK_DET = {_P: -1, _R: -1, _J: 1}


def _sign(bit):
    return -1 if bit else 1


def anticommuting_pair(n, bits):
    """Orthogonal A, B with AB = -BA and det A, det B given by the two bits."""
    want = (_sign(bits[0]), _sign(bits[1]))
    for choice in itertools.product(_ANTI_BLOCKS, repeat=n // 2):
        det_a = det_b = 1
        for a, b in choice:
            det_a *= _BLOCK_DET[a]
            det_b *= _BLOCK_DET[b]
        if (det_a, det_b) == want:
            return block_diag([a for a, _ in choice]), block_diag([b for _, b in choice])
    raise ValueError(f"no anti-commuting block pair for n={n}, bits={bits}")


def commuting_pair(rng, n, bits):
    """Commuting orthogonal A, B with components given by the two bits."""
    if not any(bits):
        q = random_orthogonal(rng, n, det=1)
        while has_fixed_vector(q) or not is_irreducible(q):
            q = random_orthogonal(rng, n, det=1)
        return q, transpose(q)
    first = [_sign(bits[0])] + [1] * (n - 1)
    second = [1] * (n - 1) + [_sign(bits[1])]
    return diagonal(first), diagonal(second)


def spin_obstructed_pair(n):
    return diagonal([-1, -1] + [1] * (n - 2)), diagonal([-1, 1, -1] + [1] * (n - 3))


def representation(rng, g, n, mu1, mu2):
    """Generators A1, B1, ..., Ag, Bg of a representation in class (mu1, mu2)."""
    gens = []
    for h in range(g):
        bits = mu1[2 * h : 2 * h + 2]
        if h == 0 and mu2 == MU2_ONE:
            pair = spin_obstructed_pair(n)
        elif h == 0 and mu2 == MU2_OMEGA:
            pair = anticommuting_pair(n, bits)
        else:
            pair = commuting_pair(rng, n, bits)
        dense = is_irreducible(pair[0])
        while True:
            r = random_orthogonal(rng, n)
            rt = transpose(r)
            conjugated = [matmul(matmul(r, m), rt) for m in pair]
            if not dense or is_irreducible(conjugated[0]):
                break
        gens.extend(conjugated)
    return tuple(gens)


def relation_violating(rng, g, n):
    """Orthogonal generators whose commutator product is not +-I."""
    while True:
        a, b = random_orthogonal(rng, n), random_orthogonal(rng, n)
        product = commutator(a, b)
        if product != identity(n) and product != tuple(tuple(-x for x in row) for row in identity(n)):
            return (a, b) + tuple(identity(n) for _ in range(2 * g - 2))


# ---------------------------------------------------------------------------
# Classes and orders
# ---------------------------------------------------------------------------


def all_classes(g):
    """Every invariant class (mu1, mu2) at genus g: 2^(2g+1) + 1 of them."""
    out = []
    for mu1 in itertools.product((0, 1), repeat=2 * g):
        values = (MU2_ZERO, MU2_OMEGA) if any(mu1) else (MU2_ZERO, MU2_ONE, MU2_OMEGA)
        out.extend((mu1, mu2) for mu2 in values)
    if len(out) != 2 ** (2 * g + 1) + 1:
        raise AssertionError("class enumeration does not match 2^(2g+1) + 1")
    return out


def mu1_string(mu1):
    return "".join(str(b) for b in mu1)


def interleave(rng, groups):
    """Shuffle each group, then merge so every prefix holds each group in proportion.

    A run that stops part-way through a pass then still sees the workload's
    mix, not a random slice of it.
    """
    keyed = []
    for gi, group in enumerate(groups):
        items = list(group)
        rng.shuffle(items)
        keyed.extend(((k + 0.5) / len(items), gi, item) for k, item in enumerate(items))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

REALIZE_SIZES = ((2, 4), (3, 6), (2, 8))

# (n, mu1 zero?, count): the generic_invariants mix at genus 2
GENERIC_MIX = ((6, True, 40), (6, False, 40), (8, False, 30), (8, True, 10))


def warm_up_first(items, is_warm_up):
    """items with the first one is_warm_up accepts moved to the front.

    A run warms up on its first item, so a warm-up of the same kind in every
    seed keeps setup_s from depending on which item the seed puts first.
    """
    first = next((k for k, item in enumerate(items) if is_warm_up(item)), 0)
    return [items[first]] + items[:first] + items[first + 1 :]


def realize_items(seed):
    """Every class at each (g, n) of REALIZE_SIZES, as (g, n, mu1, mu2)."""
    rng = random.Random(seed)
    groups = [[(g, n, mu1, mu2) for mu1, mu2 in all_classes(g)] for g, n in REALIZE_SIZES]
    return warm_up_first(interleave(rng, groups), lambda item: item == (2, 4, (0, 0, 0, 0), MU2_ZERO))


def _seeded_classes(rng, g, mu1_zero, count):
    """count classes at genus g, mu2 values spread evenly, mu1 drawn at random."""
    if mu1_zero:
        values = [MU2_ZERO, MU2_ONE, MU2_OMEGA]
        mu2s = [values[k % 3] for k in range(count)]
        rng.shuffle(mu2s)
        return [((0,) * (2 * g), mu2) for mu2 in mu2s]
    nonzero = [m for m in itertools.product((0, 1), repeat=2 * g) if any(m)]
    mu2s = [(MU2_ZERO, MU2_OMEGA)[k % 2] for k in range(count)]
    rng.shuffle(mu2s)
    return [(rng.choice(nonzero), mu2) for mu2 in mu2s]


def generic_items(seed, mix=GENERIC_MIX, g=2):
    """Seeded representations off the catalogue: (g, n, gens, mu1, mu2)."""
    rng = random.Random(seed)
    groups = []
    for n, mu1_zero, count in mix:
        groups.append(
            [
                (g, n, representation(rng, g, n, mu1, mu2), mu1, mu2)
                for mu1, mu2 in _seeded_classes(rng, g, mu1_zero, count)
            ]
        )
    # a handle pair of diagonal sign matrices, conjugated: the cheapest kind
    return warm_up_first(interleave(rng, groups), lambda item: item[1] == 6 and any(item[3]) and item[4] == MU2_ZERO)


def _entry(x):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rep_file_text(g, n, gens):
    """A representation file in the format the pglrep CLI reads."""
    doc = {"n": n, "genus": g, "generators": [[[_entry(x) for x in row] for row in m] for m in gens]}
    return json.dumps(doc)


def not_orthogonal(gens):
    """The same generators with one entry of the first nudged off orthogonality."""
    first = [list(row) for row in gens[0]]
    first[0][0] += Fraction(1, 7)
    return (tuple(tuple(row) for row in first),) + tuple(gens[1:])


# ---------------------------------------------------------------------------
# cli_session: commands and the representation files they read
# ---------------------------------------------------------------------------


def _cmd(argv, expect=0, check=None, key=None):
    """One CLI command: argv after `python -m pglrep.cli`, its documented exit
    code, a closed-form check (kind, params) and the key of its recorded
    stdout digest, which defaults to the argv itself."""
    return {"argv": list(argv), "expect": expect, "check": check, "key": key or " ".join(argv)}


def fixed_commands(workdir):
    """The seed-independent part of the session."""
    cmds = []
    for g in range(3, 7):
        cmds.append(_cmd(["classify", "--genus", str(g), "--n", "6"], check=("classify", g)))
        cmds.append(_cmd(["components", "--genus", str(g), "--n", "4"], check=("components", g)))
        cmds.append(_cmd(["egl-components", "--deg", "0", "--genus", str(g), "--n", "6"], check=("egl", g, 0)))
        cmds.append(_cmd(["egl-components", "--deg", "1", "--genus", str(g), "--n", "4"], check=("egl", g, 1)))
    for g, n in ((3, 4), (4, 8)):
        cmds.append(_cmd(["classify", "--genus", str(g), "--n", str(n), "--format", "json"], check=("classify", g)))
        cmds.append(_cmd(["components", "--genus", str(g), "--n", str(n), "--format", "json"], check=("components", g)))
    for g in range(2, 21):
        cmds.append(_cmd(["poincare", "--w2", "1", "--genus", str(g)], check=("poincare", g)))
    for g in (2, 11, 20):
        cmds.append(_cmd(["poincare", "--w2", "1", "--genus", str(g), "--format", "json"], check=("poincare", g)))
    for mu1, mu2 in (("0000", "0"), ("0000", "1"), ("0000", "omega"), ("0110", "0"),
                     ("1000", "omega"), ("000000", "1"), ("101101", "0"), ("111111", "omega")):
        cmds.append(_cmd(["lift-check", "--mu1", mu1, "--mu2", mu2], check=("lift", mu1, mu2)))
    for n in (4, 6, 8, 10):
        for mu1 in ("0000", "0110"):
            cmds.append(_cmd(["bundle-classify", "--n", str(n), "--mu1", mu1]))
    for k, (g, n, mu1, mu2) in enumerate(
        ((2, 6, "0000", "1"), (2, 6, "1001", "omega"), (2, 4, "0000", "omega"), (3, 8, "010011", "0"))
    ):
        out = f"{workdir}/cli/construct-{k}.json"
        argv = ["construct", "--genus", str(g), "--n", str(n), "--mu1", mu1, "--mu2", mu2, "--out", out]
        cmds.append(_cmd(argv, check=("construct", out)))
    # documented rejections: each must exit with its code and no traceback
    cmds.append(_cmd(["invariants", f"{workdir}/cli/not-orthogonal.json"], expect=2,
                     key="invariants not-orthogonal"))
    cmds.append(_cmd(["invariants", f"{workdir}/cli/relation-fails.json"], expect=3,
                     key="invariants relation-fails"))
    cmds.append(_cmd(["construct", "--genus", "2", "--n", "6", "--mu1", "0100", "--mu2", "1",
                      "--out", f"{workdir}/cli/never-written.json"], expect=4))
    cmds.append(_cmd(["lift-check", "--mu1", "0110", "--mu2", "1"], expect=4))
    cmds.append(_cmd(["poincare", "--w2", "0", "--genus", "3"], expect=1))
    return cmds


def invariants_command(path, fmt, mu1, mu2):
    argv = ["invariants", path] + (["--format", "json"] if fmt == "json" else [])
    key = f"invariants {fmt} {mu1_string(mu1)} {mu2}"
    return _cmd(argv, check=("invariants", mu1_string(mu1), mu2), key=key)


WARM_UP_KEY = "poincare --w2 1 --genus 2"

# seeded representation files: (n, mu1 zero?, count), all at genus 2
CLI_FILE_MIX = ((6, True, 3), (6, False, 9), (8, False, 6))


def cli_session(seed, workdir, limit=None):
    """(files, commands): representation files to write and the session's commands."""
    rng = random.Random(seed)
    files, groups = {}, []
    for n, mu1_zero, count in CLI_FILE_MIX:
        group = []
        for mu1, mu2 in _seeded_classes(rng, 2, mu1_zero, count):
            path = f"{workdir}/cli/rep-{len(files)}.json"
            files[path] = rep_file_text(2, n, representation(rng, 2, n, mu1, mu2))
            group.extend(invariants_command(path, fmt, mu1, mu2) for fmt in ("text", "json"))
        groups.append(group)
    good = representation(rng, 2, 6, (0, 1, 1, 0), MU2_ZERO)
    files[f"{workdir}/cli/not-orthogonal.json"] = rep_file_text(2, 6, not_orthogonal(good))
    files[f"{workdir}/cli/relation-fails.json"] = rep_file_text(2, 6, relation_violating(rng, 2, 6))
    fixed = fixed_commands(workdir)
    # the run warms up on the first command; a fixed one keeps setup_s from
    # depending on which command the seed happens to put first
    first = fixed.pop(next(k for k, c in enumerate(fixed) if c["key"] == WARM_UP_KEY))
    groups.append(fixed)
    commands = [first] + interleave(rng, groups)
    return files, commands[:limit]
