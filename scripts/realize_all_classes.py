#!/usr/bin/env python3
"""Realize every invariant class by an explicit representation and verify it.

For each genus/size pair this enumerates all 2^(2g+1) + 1 classes, builds a
representation from the matrix catalogue, recomputes the invariants through
the exact matrix and Clifford routes, and reports the wall time.  (3, 6) and
(4, 8) are the sizes the performance targets are stated for.
"""

import time

from pglrep.classify import invariant_classes
from pglrep.construct import build_representation
from pglrep.surfrep import invariants


def main() -> None:
    for g, n in ((2, 4), (2, 6), (3, 4), (3, 6), (4, 8)):
        start = time.monotonic()
        classes = invariant_classes(g, n)
        for target in classes:
            rep = build_representation(g, n, target)
            achieved = invariants(rep)
            if achieved != target:
                raise SystemExit(f"mismatch at g={g} n={n}: {achieved} != {target}")
        elapsed = time.monotonic() - start
        print(f"g={g} n={n}: {len(classes):>4} classes realized and verified in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
