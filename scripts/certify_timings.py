#!/usr/bin/env python3
"""Where the time of certifying a representation goes, stage by stage.

`SurfaceRep` certifies a representation once, when it is built: it factors
each distinct generator into reflections (`linalg.reflection_vectors`),
decides the relation sign (`surfrep._relation_sign`) by the trace of the
product of the handle commutators, each taken from a memo of the last 64
handles (`surfrep._handle_commutator`), and, when mu1 = 0, the spin
obstruction (`spin.spinor_commutator`).  For the duration of a run this
script wraps those three functions and `SurfaceRep.__post_init__` with
timers, and prints for each case the number of factorisations and of
commutators computed (memo misses) and the milliseconds spent in each
stage: `factor`, `relation`, `spin`, `other` (the rest of certification:
argument checks, hashing the generators) and `construct` (the time of
`build_representation` outside certification).  The memo is emptied before
each repeat, so every repeat certifies cold, and a row is the repeat with
the least total, out of k.

The cases:

* `catalogue g n`: every invariant class at (g, n), each built by
  `build_representation` from the matrix catalogue, summed over the classes;
* `dense g n`: one representation off the catalogue with mu1 = 0, each
  handle a catalogue pair of class 0, 1 or omega conjugated by its own
  random rational orthogonal matrix;
* `alternating g n`: dense A and B in the handles (A, B), (B, A), (A, B),
  ..., so the relation holds while no commutator cancels on its own: two
  distinct commutators in 32 handles, whose reduced partial products
  alternate between [A, B] and I.

A second table gives, for each n of the cases, the milliseconds of the
first use of the three straight-line kernels that certification runs: the
product (`linalg._product_kernel`), the column update of the factorisation
(`linalg._reflection_kernel`) and the spinor walk
(`spin._spinor_kernel`).  Each is generated once per n and cached, so a
process pays this once, on its first representation of that n; the stage
table, best of k, leaves it out.  Each is timed from an emptied cache.

The seed is fixed, so every run times the same matrices.  Standard library
only; a few seconds on a 2 vCPU host.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/certify_timings.py --repeats 5
"""

import argparse
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from pglrep import linalg, spin, surfrep
from pglrep.classify import invariant_classes
from pglrep.construct import build_representation
from pglrep.linalg import RatMatrix
from pglrep.surfrep import InvariantClass, Mu2Value, SurfaceRep

SEED = 20261019
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))
STAGES = ("factor", "relation", "spin", "other", "construct")
# (stage, owner, attribute) of the functions timed
TIMED = (
    ("factor", linalg, "reflection_vectors"),
    ("relation", surfrep, "_relation_sign"),
    ("spin", spin, "spinor_commutator"),
    ("certify", SurfaceRep, "__post_init__"),
)
# the kernels generated once per n, by column name
KERNELS = (
    ("product", linalg._product_kernel),
    ("reflect", linalg._reflection_kernel),
    ("spinor", spin._spinor_kernel),
)


def plane_rotation(n, i, j, triple):
    a, b, h = triple
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rows[i][i] = rows[j][j] = Fraction(a, h)
    rows[i][j], rows[j][i] = Fraction(-b, h), Fraction(b, h)
    return RatMatrix(rows)


def random_orthogonal(rng, n, rotations):
    """A signed permutation times plane rotations of Pythagorean angles."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for col, row in enumerate(perm):
        rows[row][col] = rng.choice((1, -1))
    out = RatMatrix(rows)
    for _ in range(rotations):
        i, j = rng.sample(range(n), 2)
        out = out * plane_rotation(n, i, j, rng.choice(TRIPLES))
    return out


def dense_rep(rng, g, n):
    gens = []
    for _ in range(g):
        mu2 = rng.choice(list(Mu2Value))
        pair = build_representation(2, n, InvariantClass((0,) * 4, mu2)).gens[:2]
        p = random_orthogonal(rng, n, rotations=n)
        gens += [p * m * p.transpose() for m in pair]
    return SurfaceRep, (g, n, tuple(gens))


def alternating_rep(rng, g, n):
    a, b = (random_orthogonal(rng, n, rotations=n) for _ in range(2))
    gens = [m for k in range(g) for m in ((a, b) if k % 2 == 0 else (b, a))]
    return SurfaceRep, (g, n, tuple(gens))


CASES = (
    *((f"catalogue {g} {n}", g, n, None) for g, n in ((2, 4), (3, 6), (2, 8), (4, 8))),
    *((f"dense {g} {n}", g, n, dense_rep) for g, n in ((2, 6), (2, 8), (3, 8), (2, 16))),
    ("alternating 32 16", 32, 16, alternating_rep),
)


@contextmanager
def stage_timers(spent, calls):
    """Wrap the functions of TIMED so that each call adds its seconds to
    spent[stage] and one to calls[stage]."""
    originals = []
    for stage, owner, name in TIMED:
        original = getattr(owner, name)

        def timed(*args, _stage=stage, _original=original):
            start = time.perf_counter()
            try:
                return _original(*args)
            finally:
                spent[_stage] += time.perf_counter() - start
                calls[_stage] += 1

        originals.append((owner, name, original))
        setattr(owner, name, timed)
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def run_once(jobs):
    """Seconds per stage of one pass over the jobs from a cold memo, the
    factorisations and the commutators computed."""
    spent = dict.fromkeys(("factor", "relation", "spin", "certify"), 0.0)
    calls = dict.fromkeys(spent, 0)
    surfrep._handle_commutator.cache_clear()
    with stage_timers(spent, calls):
        start = time.perf_counter()
        for make, args in jobs:
            make(*args)
        total = time.perf_counter() - start
    split = {
        "factor": spent["factor"],
        "relation": spent["relation"],
        "spin": spent["spin"],
        "other": spent["certify"] - spent["factor"] - spent["relation"] - spent["spin"],
        "construct": total - spent["certify"],
    }
    return total, split, calls["factor"], surfrep._handle_commutator.cache_info().misses


def generation_ms(make, n, repeats):
    """Milliseconds of the first use of one cached kernel generator at n,
    from an emptied cache, the fastest of the repeats."""
    best = float("inf")
    for _ in range(repeats):
        make.cache_clear()
        start = time.perf_counter()
        make(n)
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs of each case; the fastest is shown")
    repeats = parser.parse_args().repeats
    if repeats < 1:
        parser.error("--repeats must be at least 1")
    rng = random.Random(SEED)
    print(f"best of {repeats} runs, ms per stage, Python {sys.version.split()[0]}")
    print(f"{'case':<18} {'reps':>4} {'gens':>5} {'factored':>8} {'commutators':>11} "
          + " ".join(f"{s:>9}" for s in (*STAGES, "total")))
    for label, g, n, make in CASES:
        if make is None:
            jobs = [(build_representation, (g, n, target)) for target in invariant_classes(g, n)]
        else:
            jobs = [make(rng, g, n)]
        runs = [run_once(jobs) for _ in range(repeats)]
        total, split, factored, commutators = min(runs, key=lambda r: r[0])
        row = " ".join(f"{1000 * split[s]:9.2f}" for s in STAGES)
        print(f"{label:<18} {len(jobs):>4} {2 * g * len(jobs):>5} {factored:>8} {commutators:>11} {row} "
              f"{1000 * total:9.2f}", flush=True)
    print(f"\nbest of {repeats} runs, ms to generate each kernel on first use")
    print(f"{'n':>3} " + " ".join(f"{name:>9}" for name, _ in KERNELS))
    for n in sorted({n for _, _, n, _ in CASES}):
        print(f"{n:>3} " + " ".join(f"{generation_ms(make, n, repeats):9.2f}" for _, make in KERNELS))


if __name__ == "__main__":
    main()
