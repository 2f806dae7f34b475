#!/usr/bin/env python3
"""Print one sha256 over the catalogue generators of every invariant class.

The digest checks that a change to the library leaves the constructed
representations unchanged.  For each (g, n) of SIZES in order, each class of
`invariant_classes(g, n)` in its order, and each generator A_1, B_1, ...,
A_g, B_g of `build_representation(g, n, cls)`, the hash is fed one line:

    den;a11,a12,...,a1n;a21,...;...;an1,...,ann\\n

in ASCII, where the matrix equals num / den in lowest terms (den > 0) and
aij are the entries of num in decimal, row by row.  Nothing else (no g, n
or class) is hashed.  The ten sizes hold 1002 classes.
"""

import hashlib

from pglrep.classify import invariant_classes
from pglrep.construct import build_representation

SIZES = ((2, 4), (2, 6), (3, 4), (3, 6), (2, 8), (4, 8), (2, 10), (2, 12), (2, 14), (2, 16))


def digest() -> str:
    sha = hashlib.sha256()
    for g, n in SIZES:
        for cls in invariant_classes(g, n):
            for m in build_representation(g, n, cls).gens:
                rows = ";".join(",".join(map(str, row)) for row in m.num)
                sha.update(f"{m.den};{rows}\n".encode("ascii"))
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
