"""Differential check of the float stage of `realroots` against the exact
path.

    PYTHONPATH=src python tests/differential_realroots.py [--rows 100000]
        [--degrees 4,6,...,30] [--seed 0]

Not collected by pytest as a test module (the file name does not start with
``test_``); `tests/test_realroots.py` calls `main` on a small argv.  For
each degree it draws `rows` polynomials, half from the density sampler's odd
12-bit numerators, a quarter with small coefficients in [-3, 3] (many
repeated and rational roots) and a quarter with coefficients up to 2^30 in
absolute value.  Every row goes through the stage alone, and every row it
certifies is counted once more by the exact Sylvester query; the two counts
of distinct real roots must be equal.  Prints one line per degree and
returns 1 on any disagreement.
"""

import argparse
import sys
import time

import numpy as np

from pencilorbits import intpoly
from pencilorbits.realroots import _descartes


def draw(rng, rows: int, n: int) -> np.ndarray:
    half, quarter = rows // 2, rows // 4
    dyadic = 2 * rng.integers(0, 1 << 12, size=(half, n + 1)) + 1 - (1 << 12)
    small = rng.integers(-3, 4, size=(quarter, n + 1))
    small[:, 0] = rng.choice([-2, -1, 1, 2], size=quarter)
    wide = rng.integers(-(1 << 30), (1 << 30) + 1, size=(rows - half - quarter, n + 1))
    wide[wide[:, 0] == 0, 0] = 1
    return np.vstack([dyadic, small, wide])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=100_000)
    ap.add_argument("--degrees", default=",".join(str(n) for n in range(4, 31, 2)))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    disagreements = 0
    start = time.perf_counter()
    for n in (int(t) for t in args.degrees.split(",")):
        rng = np.random.default_rng([args.seed, n])
        C = draw(rng, args.rows, n)
        t0 = time.perf_counter()
        counts, ok = _descartes(C)
        certified = int(ok.sum())
        for i in np.flatnonzero(ok):
            row = C[i].tolist()
            want = intpoly.tarski_query(row, [1])
            if counts[i] != want:
                disagreements += 1
                print(f"degree {n}: count {counts[i]}, exact {want} for {row}", file=sys.stderr)
        print(
            f"degree {n:2d}: rows {len(C)}, certified {certified} ({certified / len(C):.2%}), "
            f"disagreements so far {disagreements}, {time.perf_counter() - t0:.1f} s",
            flush=True,
        )
    print(f"total: {disagreements} disagreements, {time.perf_counter() - start:.1f} s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
