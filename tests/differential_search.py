"""Differential check of the survey path of `search` against reference
implementations kept in `tests/conftest.py`.

    PYTHONPATH=src python tests/differential_search.py [--curves 10000]
        [--degrees 2,4,6] [--heights 1000,1000,1000] [--bound 12] [--seed 0]

Not collected by pytest as a test module (the file name does not start with
``test_``); `tests/test_search.py` calls `main` on a small argv.  For each
degree it draws `curves` forms of the paired height exactly as
`search.survey` does and builds each survey record twice: once with the
library (the int64 point-search kernel and the c*G^2 test on the large-p
descent branch), and once with the reference point-search loop and
`_takes_unit_square_value` replaced by the square-set scan and the
multiplicities of the `squarefree_decomposition` oracle in
`tests/conftest.py`.  The records (verdict per place, overall verdict and
point) must be equal.  Prints one line per
degree and returns 1 on any disagreement.  At height 1000 a sextic
discriminant can be the product of two 55-bit primes; `numutil.factorize`
splits those by ECM once Pollard's rho has spent its step budget.
"""

import argparse
import random
import sys
import time
from contextlib import contextmanager

from conftest import point_search_oracle, unit_square_value_oracle

from pencilorbits import search
from pencilorbits.forms import random_nondegenerate_form


@contextmanager
def reference_descent():
    """Run the descent with `unit_square_value_oracle` in place of the
    library's unit-square test."""
    library = search._takes_unit_square_value
    search._takes_unit_square_value = unit_square_value_oracle
    try:
        yield
    finally:
        search._takes_unit_square_value = library


def record(f, B, point_search):
    soluble, verdicts = search.locally_soluble_everywhere(f)
    return soluble, verdicts, point_search(f, B)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--curves", type=int, default=10_000)
    ap.add_argument("--degrees", default="2,4,6")
    ap.add_argument("--heights", default="1000,1000,1000", help="one per degree")
    ap.add_argument("--bound", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    disagreements = 0
    start = time.perf_counter()
    degrees = [int(t) for t in args.degrees.split(",")]
    heights = [int(t) for t in args.heights.split(",")]
    if len(heights) != len(degrees):
        ap.error("give one height per degree")
    for n, height in zip(degrees, heights):
        rng = random.Random(args.seed * 1000 + n)
        t0 = time.perf_counter()
        with_point = soluble = 0
        for _ in range(args.curves):
            f = random_nondegenerate_form(n, height, rng)
            got = record(f, args.bound, search.rational_point_search)
            with reference_descent():
                want = record(f, args.bound, point_search_oracle)
            if got != want:
                disagreements += 1
                print(f"degree {n}: {f.coeffs}: library {got}, reference {want}", file=sys.stderr)
            soluble += got[0]
            with_point += got[2] is not None
        print(
            f"degree {n}, height {height}: curves {args.curves}, locally soluble {soluble}, with a point {with_point}, "
            f"disagreements so far {disagreements}, {time.perf_counter() - t0:.1f} s",
            flush=True,
        )
    print(f"total: {disagreements} disagreements, {time.perf_counter() - start:.1f} s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
