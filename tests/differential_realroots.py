"""Differential check of the two certifying stages of `realroots` against
the exact path.

    PYTHONPATH=src python tests/differential_realroots.py [--rows 100000]
        [--degrees 4,6,...,30] [--seed 0]

Not collected by pytest as a test module (the file name does not start with
``test_``); `tests/test_realroots.py` calls `main` on a small argv.  For
each degree it draws `rows` polynomials, half from the density sampler's odd
12-bit numerators, a quarter with small coefficients in [-3, 3] (many
repeated and rational roots) and a quarter with coefficients up to 2^30 in
absolute value.  Every row goes through the Descartes stage (the rows
within its overflow guard) and, separately, through the disc stage, each
alone; every row either stage certifies is counted once more with the exact
subresultant Sturm chain.  A Descartes count must equal the number of
distinct real roots; a disc count must equal the count of a squarefree row
(the disc stage never certifies a row with a repeated root).  Prints one
line per degree and returns 1 on any disagreement.
"""

import argparse
import sys
import time

import numpy as np

from pencilorbits import intpoly
from pencilorbits.realroots import DISC_CHUNK_ENTRIES, _descartes_certify, _descartes_rows, _disc_certify


def draw(rng, rows: int, n: int) -> np.ndarray:
    half, quarter = rows // 2, rows // 4
    dyadic = 2 * rng.integers(0, 1 << 12, size=(half, n + 1)) + 1 - (1 << 12)
    small = rng.integers(-3, 4, size=(quarter, n + 1))
    small[:, 0] = rng.choice([-2, -1, 1, 2], size=quarter)
    wide = rng.integers(-(1 << 30), (1 << 30) + 1, size=(rows - half - quarter, n + 1))
    wide[wide[:, 0] == 0, 0] = 1
    return np.vstack([dyadic, small, wide])


def stage_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Descartes counts, Descartes certified, disc counts, disc certified)
    for an int64 block whose coefficients are below 2^53."""
    desc, desc_ok = np.zeros(len(block), np.int64), np.zeros(len(block), bool)
    idx, rows = _descartes_rows(block)
    desc[idx], desc_ok[idx] = _descartes_certify(rows)
    disc, disc_ok = _disc_certify(block.astype(np.float64))
    return desc, desc_ok, disc, disc_ok


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
        certified = {"Descartes": 0, "disc": 0}
        step = DISC_CHUNK_ENTRIES // (n * n)
        for s in range(0, len(C), step):
            block = C[s : s + step]
            desc, desc_ok, disc, disc_ok = stage_counts(block)
            certified["Descartes"] += int(desc_ok.sum())
            certified["disc"] += int(disc_ok.sum())
            for i in np.flatnonzero(desc_ok | disc_ok):
                row = block[i].tolist()
                squarefree = intpoly.real_root_count_squarefree(row)
                distinct = squarefree
                if distinct is None:
                    distinct = intpoly.real_root_count_squarefree(intpoly.squarefree_part(row))
                checks = (("Descartes", desc_ok, desc, distinct), ("disc", disc_ok, disc, squarefree))
                for stage, ok, got, want in checks:
                    if ok[i] and got[i] != want:
                        disagreements += 1
                        print(f"degree {n}: {stage} count {got[i]} for {row}", file=sys.stderr)
        shares = ", ".join(f"{k} certified {v} ({v / len(C):.2%})" for k, v in certified.items())
        print(
            f"degree {n:2d}: rows {len(C)}, {shares}, disagreements so far {disagreements}, "
            f"{time.perf_counter() - t0:.1f} s",
            flush=True,
        )
    print(f"total: {disagreements} disagreements, {time.perf_counter() - start:.1f} s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
