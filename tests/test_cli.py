import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from pencilorbits import search
from pencilorbits.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, MAX_GENUS, MAX_JOBS, MAX_PRIMES, run
from pencilorbits.densities import genus0_product
from pencilorbits.numutil import det
from pencilorbits.search import DescentBudgetError


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_orbit_command():
    code, out, err = _run(["orbit", "--n", "4", "--form", "1,0,0,0,1", "--point", "0,1,1"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["payload"]["det_identity_holds"] is True
    assert rec["payload"]["invariant_form"] == ["1", "0", "0", "0", "1"]
    assert rec["schema_version"] == 1
    assert "elapsed" in err  # timing on stderr only


def test_orbit_determinism():
    _, out1, _ = _run(["orbit", "--n", "4", "--form", "2,3,-1,5,9", "--point", "0,1,3"])
    _, out2, _ = _run(["orbit", "--n", "4", "--form", "2,3,-1,5,9", "--point", "0,1,3"])
    assert out1 == out2


def test_orbit_validation_errors():
    code, _, _ = _run(["orbit", "--n", "4", "--form", "1,0,0,0,1", "--point", "0,1,2"])
    assert code == EXIT_VALIDATION
    code, _, _ = _run(["orbit", "--n", "4", "--form", "1,0,0,1", "--point", "0,1,1"])
    assert code == EXIT_VALIDATION
    code, _, _ = _run(["orbit", "--nonsense", "1"])
    assert code == EXIT_VALIDATION


def test_orbit_with_zero_leading_coefficient():
    # f0 = 0: the pair is printed; the x - T fields, which need K_f and so
    # f0 != 0, are left out as they are for z0 = 0
    code, out, _ = _run(["orbit", "--n", "2", "--form", "0,1,1", "--point", "0,1,1"])
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["det_identity_holds"] is True
    assert "x_minus_T_norm_times_f0" not in payload and "z0_squared" not in payload
    code, out, _ = _run(["orbit", "--n", "2", "--form", "1,1,0", "--point", "1,0,1"])
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["x_minus_T_norm_times_f0"] == "1"


def test_verify_command():
    pair = json.dumps({"A": [[-1, 0], [0, 3]], "B": [[0, 2], [2, -7]]})
    code, out, _ = _run(["verify", "--form", "3,7,4", "--pair", pair])
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["matches_form"] is True
    code, _, _ = _run(["verify", "--form", "3,7,5", "--pair", pair])
    assert code == EXIT_VALIDATION


def test_count_fp_command():
    code, out, _ = _run(["count-fp", "--n", "2", "--p", "3", "--form", "1,0,2"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["payload"]["total_elements"] == 24 == rec["payload"]["sl_n_order"]
    code, _, _ = _run(["count-fp", "--n", "4", "--p", "3", "--form", "1,0,0,0,1"])
    assert code == EXIT_BUDGET


def test_densities_command_zero_samples():
    code, out, _ = _run(["densities", "--genus", "1", "--samples", "0"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["payload"][0]["archimedean_factor"] == 1.0


def test_densities_csv():
    code, out, _ = _run(["densities", "--genus", "1", "--samples", "2000", "--primes", "20", "--csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "genus,bound,bound_conservative"
    assert lines[1].startswith("1,")


def test_genus0_command():
    code, out, _ = _run(["genus0", "--primes", "5"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["payload"]["product"] == "119/225"


def test_genus0_command_default_primes():
    # at P = 10^4 the numerator has over 4300 digits, the default limit of
    # Python's int <-> str conversion, so both directions go through Decimal
    code, out, _ = _run(["genus0"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["payload"]["truncation_prime"] == 10_000
    num, den = rec["payload"]["product"].split("/")
    assert len(num) > 4300
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == genus0_product(10_000)


def test_survey_command_round_trip():
    code, out, _ = _run(["survey", "--n", "2", "--height", "8", "--count", "5", "--seed", "4", "--point-bound", "6"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6  # 5 records + aggregate
    for line in lines[:-1]:
        rec = json.loads(line)["record"]
        assert len(rec["coeffs"]) == 3
    agg = json.loads(lines[-1])
    assert agg["payload"]["count"] == 5
    # byte determinism
    _, out2, _ = _run(["survey", "--n", "2", "--height", "8", "--count", "5", "--seed", "4", "--point-bound", "6"])
    assert out == out2


def test_survey_csv_agrees_with_json_lines():
    argv = ["survey", "--n", "4", "--height", "30", "--count", "6", "--seed", "6", "--point-bound", "5"]  # 4 soluble, 3 with a point
    code, out, _ = _run(argv)
    assert code == EXIT_OK
    *lines, last = out.strip().splitlines()
    records = [json.loads(line)["record"] for line in lines]
    agg = json.loads(last)["payload"]
    code, csv_out, _ = _run(argv + ["--csv"])
    assert code == EXIT_OK
    header, *rows, aggregate = csv_out.strip().splitlines()
    assert header == "coeffs;genus;locally_soluble;point"
    assert len(rows) == len(records) == 6
    for row, rec in zip(rows, records):
        coeffs, genus, soluble, point = row.split(";")
        assert coeffs.split(",") == rec["coeffs"] and int(genus) == rec["genus"]
        assert bool(int(soluble)) == rec["locally_soluble"]
        assert point == (":".join(map(str, rec["point"])) if rec["point"] else "")
    assert aggregate == f"# aggregate;{agg['count']};{agg['locally_soluble']};{agg['with_point']}"


def test_survey_descent_budget_exits_3(monkeypatch):
    def exhausted(f, p):
        raise DescentBudgetError(f"descent at p={p} exceeded depth 0")

    monkeypatch.setattr(search, "locally_soluble_p", exhausted)
    code, out, err = _run(["survey", "--n", "2", "--height", "8", "--count", "2", "--seed", "4", "--jobs", "1"])
    assert code == EXIT_BUDGET
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: descent at p="), err


def test_orbit_output_feeds_verify():
    # the emitted pair re-parses and passes verification against the form
    code, out, _ = _run(["orbit", "--n", "4", "--form", "1,2,-3,1,9", "--point", "0,1,3"])
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    pair = json.dumps({"A": payload["A"], "B": payload["B"]})
    code, out2, _ = _run(["verify", "--form", "1,2,-3,1,9", "--pair", pair])
    assert code == EXIT_OK
    assert json.loads(out2)["payload"]["matches_form"] is True



def test_orbit_n40_away_from_the_origin_is_fast():
    # f_i = (i mod 3) - 1 for i = 1..40 and f0 chosen so that f(1, 2) = 49:
    # the pulled-back pair is dense with 60-bit entries, and one
    # invariant_form of it takes seconds; the template pair is checked instead
    tail = [i % 3 - 1 for i in range(1, 41)]
    coeffs = [49 - sum(c << i for i, c in enumerate(tail, 1))] + tail
    form = ",".join(map(str, coeffs))
    t0 = time.perf_counter()
    code, out, _ = _run(["orbit", "--n", "40", "--form", form, "--point", "1,2,7"])
    assert time.perf_counter() - t0 < 2.5
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["invariant_form"] == [str(c) for c in coeffs] and payload["det_identity_holds"] is True
    # det(A x - B y) = f(x, y) (n/2 even) at (1, 0) and at the point's (1, 2)
    A, B = payload["A"], payload["B"]
    assert det(A) == coeffs[0]
    assert det([[a - 2 * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]) == 49

# Each argv runs in a fresh interpreter under a timeout, so a hang fails the
# test instead of stalling the suite.  The --jobs cases use inputs that make
# a single work chunk, so no worker process would start even if the range
# check were missing.
ARGV_EXIT_CODES = [
    (["survey", "--n", "4", "--height", "0", "--count", "2"], EXIT_VALIDATION),
    (["survey", "--n", "3", "--height", "5", "--count", "2"], EXIT_VALIDATION),
    (["survey", "--n", "4", "--height", "5", "--count", "-1"], EXIT_VALIDATION),
    (["survey", "--n", "4", "--height", "5", "--count", "1", "--jobs", "0"], EXIT_VALIDATION),
    (["genus0", "--primes", "2"], EXIT_VALIDATION),
    (["genus0", "--primes", "100000000000"], EXIT_VALIDATION),
    (["densities", "--genus", "1", "--samples", "0", "--primes", str(MAX_PRIMES + 1)], EXIT_VALIDATION),
    (["count-fp", "--n", "2", "--form", "1,0,1", "--p", "0"], EXIT_VALIDATION),
    (["count-fp", "--n", "2", "--form", "1,0,1", "--p", "1"], EXIT_VALIDATION),
    (["count-fp", "--n", "2", "--form", "1,0,1", "--p", "4"], EXIT_VALIDATION),
    (["densities", "--genus", "1", "--samples", "-5"], EXIT_VALIDATION),
    (["densities", "--genus", "1", "--genus-count", "0"], EXIT_VALIDATION),
    (["densities", "--genus", str(MAX_GENUS + 1), "--samples", "0"], EXIT_VALIDATION),
    (["densities", "--genus", "2", "--genus-count", str(MAX_GENUS), "--samples", "0"], EXIT_VALIDATION),
    (["densities", "--genus", "1", "--samples", "10", "--jobs", "0"], EXIT_VALIDATION),
    (["densities", "--genus", "1", "--samples", "10", "--jobs", str(MAX_JOBS + 1)], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", "[1]"], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [[1.5]], "B": [[1]]}'], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [["x"]], "B": [[1]]}'], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [[1]], "B": [[1]]}'], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "B": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}'], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [], "B": []}'], EXIT_VALIDATION),
    (["verify", "--form", "1,0,1", "--pair", '{"A": [[true, 0], [0, false]], "B": [[0, 1], [1, 0]]}'], EXIT_VALIDATION),
    (["orbit", "--n", "2", "--form", "1,0,1", "--point", "0,1"], EXIT_VALIDATION),
    (["orbit", "--n", "2", "--form", "1,0,1", "--point", "2,4,0"], EXIT_VALIDATION),
    (["count-fp", "--n", "2", "--form", "1,0,2", "--p", "3"], EXIT_OK),
    (["count-fp", "--n", "2", "--form", "1,0,1", "--p", "318665857834031151167461"], EXIT_VALIDATION),
    (["survey", "--n", "abc", "--height", "5", "--count", "1"], EXIT_VALIDATION),
    (["count-fp", "--n", "2", "--p", "3"], EXIT_VALIDATION),
    (["count-fp", "--n", "4", "--p", "3", "--form", "1,0,0,0,1"], EXIT_BUDGET),
]


@pytest.mark.parametrize("argv, expected", ARGV_EXIT_CODES, ids=[" ".join(a) for a, _ in ARGV_EXIT_CODES])
def test_cli_exit_codes(argv, expected):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pencilorbits.cli", *argv], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected in (EXIT_VALIDATION, EXIT_BUDGET):
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
