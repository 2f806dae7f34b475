#!/usr/bin/env python3
"""Time the Clifford lift and the commutator product: factored, dense and
as a spinor residue.

For each n from 4 to 16 the input is one handle (A, B) of commuting
rotations: A and B turn the planes (e1, e2), (e3, e4), ... by angles whose
cosine and sine come from Pythagorean triples, and both are conjugated by
one random rational orthogonal matrix (a signed permutation times plane
rotations), so their lifts are dense and the commutator product is 1.  The
seed is fixed, so every run times the same matrices.

Printed for each n, as the best of a few repeats: `lift_factors` and
`lift_orthogonal` on A and B; `commutator_product` on the factored lifts and
on the dense lifts; `spin.spinor_commutator` on the `reflection_vectors` of
A and B, the factorisation included; the number of factors and of dense lift terms; and the largest
coefficient bit size of any product the integer kernel returns on each
product route (recorded in one extra untimed call, which also checks that
the product is 1).  Dense lifts are left out above n = 12, where one
product takes minutes, and the spinor route needs even n; a column left out
prints "-".  Standard library only; about four minutes on a 2 vCPU host,
most of it the dense product at n = 12 and the factored one at n = 15 and
16.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/clifford_timings.py
"""

import random
import time
from fractions import Fraction

from pglrep import clifford
from pglrep.clifford import commutator_product, lift_factors, lift_orthogonal
from pglrep.linalg import RatMatrix, reflection_vectors
from pglrep.spin import KernelElement, spinor_commutator

SEED = 20261018
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))


def plane_rotation(n, i, j, triple):
    a, b, h = triple
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rows[i][i] = rows[j][j] = Fraction(a, h)
    rows[i][j], rows[j][i] = Fraction(-b, h), Fraction(b, h)
    return RatMatrix(rows)


def block_rotation(n, triples):
    """Turn the planes (e1, e2), (e3, e4), ... by the given triples in turn."""
    out = RatMatrix.identity(n)
    for k in range(n // 2):
        out = out * plane_rotation(n, 2 * k, 2 * k + 1, triples[k % len(triples)])
    return out


def random_orthogonal(rng, n, rotations):
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


def best_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def kernel_bits(fn):
    """Run fn once; its result and the largest coefficient bit size of any
    product the integer kernel returned meanwhile."""
    kernel, largest = clifford._int_product, 0

    def recording(a, b):
        nonlocal largest
        out = kernel(a, b)
        largest = max(largest, *(abs(c).bit_length() for c in out.values()))
        return out

    clifford._int_product = recording
    try:
        result = fn()
    finally:
        clifford._int_product = kernel
    return result, largest


def main() -> None:
    rng = random.Random(SEED)
    print("n  factors  dense_terms  lift_factors_ms  lift_orthogonal_ms  "
          "product_factored_ms  product_dense_ms  spinor_ms  bits_factored  bits_dense")
    for n in range(4, 17):
        q = random_orthogonal(rng, n, rotations=2 * n)
        handle = [q * block_rotation(n, TRIPLES[s:] + TRIPLES[:s]) * q.transpose() for s in (0, 3)]
        # the dense product alone takes about a minute at n = 12
        repeats = 5 if n <= 8 else 1
        lifts = {"factored": [lift_factors(m) for m in handle]}
        lift_ms = [best_ms(lambda: [lift_factors(m) for m in handle], repeats), "-"]
        if n <= 12:
            lifts["dense"] = [lift_orthogonal(m) for m in handle]
            lift_ms[1] = best_ms(lambda: [lift_orthogonal(m) for m in handle], repeats)
        product_ms, bits = ["-", "-"], ["-", "-"]
        for k, route in enumerate(lifts.values()):
            product_ms[k] = best_ms(lambda: commutator_product(route), repeats)
            kernel, bits[k] = kernel_bits(lambda: commutator_product(route))
            if kernel != KernelElement.ONE:
                raise SystemExit(f"n={n}: commuting rotations must give the product 1")
        spinor_ms = "-"
        if n % 2 == 0:
            spinor = lambda: spinor_commutator(n, [reflection_vectors(m) for m in handle])
            if spinor() != KernelElement.ONE:
                raise SystemExit(f"n={n}: the spinor residue must give the product 1")
            spinor_ms = best_ms(spinor, repeats)
        dense_terms = max(len(g.terms) for g in lifts["dense"]) if n <= 12 else "-"
        row = (n, max(map(len, lifts["factored"])), dense_terms, *lift_ms, *product_ms,
               spinor_ms, *bits)
        print("{:<2} {:>8} {:>12} {:>16} {:>19} {:>20} {:>17} {:>10} {:>14} {:>11}".format(
            *(f"{x:.2f}" if isinstance(x, float) else x for x in row)), flush=True)


if __name__ == "__main__":
    main()
