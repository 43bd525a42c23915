"""Checker self-test:  python3 bench/selftest.py

For every workload, at smoke size: the checks accept the program's own
outputs, and reject each of a few corrupted copies (one flipped root count,
one wrong orbit total, and so on).  Exit code 0 when every corruption is
caught.
"""

import copy
import dataclasses
import sys

import tracing
from run import import_library


def _density(rnd):
    mu, rep = rnd.records[0]
    counts = list(mu.counts)
    counts[0] += 1  # one sample counted in a second root-count class
    yield "flipped root count", lambda r: r.records.__setitem__(0, (dataclasses.replace(mu, counts=tuple(counts)), rep))
    yield "finite factor above 1", lambda r: r.records[1][1].finite_factors.__setitem__(3, 1.5)
    yield "non-positive bound", lambda r: setattr(r.records[2][1], "bound", 0.0)


def _survey(rnd):
    k = next((i for i, r in enumerate(rnd.records) if r[2] is not None), None)
    if k is not None:
        soluble, verdicts, (x, y, z) = rnd.records[k]
        yield "point off the curve", lambda r: r.records.__setitem__(k, (soluble, verdicts, (x, y, z + 1)))
        yield "point on an insoluble curve", lambda r: r.records.__setitem__(
            k, (False, dict(verdicts, real=False), (x, y, z)))
    soluble, verdicts, pt = rnd.records[0]
    yield "overall verdict disagrees", lambda r: r.records.__setitem__(0, (not soluble, verdicts, pt))


def _pairs(rnd):
    def edit(k, **fields):
        names = ("fc", "P", "A", "B", "inv", "norm", "verdict")

        def apply(r):
            rec = dict(zip(names, r.records[k]))
            rec.update(fields)
            r.records[k] = tuple(rec[n] for n in names)

        return apply

    fc, P, A, B, inv, norm, verdict = rnd.records[0]
    yield "wrong invariant form", edit(0, inv=(inv[0] + 1,) + tuple(inv[1:]))
    bent = [list(row) for row in A]
    bent[-1][-1] += 1
    yield "pair not matching the form", edit(0, A=tuple(tuple(row) for row in bent))
    yield "norm identity broken", edit(0, norm=norm + 1)
    k = next(i for i, r in enumerate(rnd.records) if r[6] is not None)
    yield "distinct square class", edit(k, verdict="distinct")


def _fp_orbits(rnd):
    yield "wrong orbit total", lambda r: setattr(r.records[0][2], "total_elements", r.records[0][2].total_elements + 1)
    yield "wrong orbit count", lambda r: setattr(r.records[1][2], "orbit_count", r.records[1][2].orbit_count + 1)
    yield "missing separable form", lambda r: r.records.pop(2)
    yield "wrong quartic total", lambda r: setattr(r.records[-1][2], "total_elements", 20159)


CORRUPTIONS = {"density": _density, "survey": _survey, "pairs": _pairs, "fp_orbits": _fp_orbits}


def main() -> int:
    workloads = import_library()

    failures = 0
    for name, wl in workloads.SMOKE.items():
        inputs = wl.make_inputs(7)
        rnd = wl.run_round(inputs, tracing.untraced_item)
        problems = [msg for _, msg in rnd.errors] + wl.check(inputs, rnd)
        print(f"{name}: genuine outputs {'accepted' if not problems else 'REJECTED: ' + problems[0]}")
        failures += bool(problems)
        for label, corrupt in CORRUPTIONS[name](rnd):
            bad = copy.deepcopy(rnd)
            corrupt(bad)
            caught = wl.check(inputs, bad)
            print(f"{name}: {label}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}")
            failures += not caught
    rows = [[1, 0, -3, 1], [1, 0, 0, -2], [2, 0, 1]]
    us, bad, done = workloads.exact_path_subset({3: (rows[:2], [3, 0]), 2: (rows[2:], [0])})
    print(f"exact-path guard: flipped batch count {'caught: ' + bad[0] if bad else 'NOT CAUGHT'}")
    failures += len(bad) != 1
    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
