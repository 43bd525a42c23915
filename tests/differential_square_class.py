"""Differential check of `rings.same_square_class` (one batched Frobenius
rank test per prime, primes in chunks) against the serial oracle
`serial_square_class` kept in `tests/conftest.py`, which runs gfpoly's
distinct-degree factorization and one power test per class.

    PYTHONPATH=src python tests/differential_square_class.py [--cases 200]
        [--degrees 2,4,6,8,10] [--trials 50] [--seed 0]

Not collected by pytest as a test module (the file name does not start with
``test_``); `tests/test_rings.py` calls `main` on a small argv.  For each
degree it draws `cases` pairs (alpha, beta) in K_f: half of the forms come
from `random_nondegenerate_form` and half are products of positive definite
quadratics, which have no real root, so that only a residue field can tell
two classes apart.  alpha has small rational coordinates, and beta is
kappa^2 alpha for a third of the pairs and independent of alpha otherwise.
Both functions answer each pair with a verdict or an exception, and the
answers must be equal.  Prints one line per degree and returns 1 on any
disagreement.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from conftest import serial_square_class

from pencilorbits import intpoly, rings
from pencilorbits.forms import BinaryForm, random_nondegenerate_form


def draw(rng: random.Random, n: int):
    """One (alpha, beta) pair in K_f with f of degree n and f0 != 0."""
    while True:
        if rng.random() < 0.5:
            f = random_nondegenerate_form(n, 6, rng)
        else:
            c = [1]
            for _ in range(n // 2):
                b = rng.randint(-3, 3)
                c = intpoly.mul(c, [rng.randint(1, 2), b, b * b + rng.randint(1, 6)])
            f = BinaryForm(tuple(c))
        if f.coeffs[0] != 0:
            break
    alpha = rings.AlgebraElement(f, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)))
    other = rings.AlgebraElement(f, tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)))
    if rng.random() < 1 / 3:
        return alpha, rings.algebra_mul(rings.algebra_mul(other, other), alpha)
    return alpha, other


def answer(fn, alpha, beta, trials):
    try:
        return fn(alpha, beta, trials).value
    except (ArithmeticError, ValueError) as exc:  # ZeroDivisionError is an ArithmeticError
        return type(exc).__name__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--degrees", default="2,4,6,8,10")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    disagreements = 0
    start = time.perf_counter()
    for n in (int(t) for t in args.degrees.split(",")):
        rng = random.Random(f"{args.seed}:{n}")
        t0 = time.perf_counter()
        tally: dict[str, int] = {}
        for _ in range(args.cases):
            alpha, beta = draw(rng, n)
            got = answer(rings.same_square_class, alpha, beta, args.trials)
            want = answer(serial_square_class, alpha, beta, args.trials)
            tally[want] = tally.get(want, 0) + 1
            if got != want:
                disagreements += 1
                print(f"degree {n}: {got}, oracle {want} for {alpha.form.coeffs} {alpha.coords} {beta.coords}", file=sys.stderr)
        counts = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
        print(f"degree {n:2d}: cases {args.cases} ({counts}), disagreements so far {disagreements}, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    print(f"total: {disagreements} disagreements, {time.perf_counter() - start:.1f} s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
