"""Command-line surface: orbit, verify, count-fp, densities, genus0, survey.

stdout carries data only (JSON, or CSV with --csv) and is byte-identical for
identical inputs and seed; progress and timing go to stderr.  Exit codes:
0 success, 2 validation failure, 3 budget exhaustion.
"""

import argparse
import json
import sys
import time
from decimal import Decimal

from . import densities, finite_fields, search
from .forms import BinaryForm
from .numutil import is_prime
from .orbits import CurvePoint, SymmetricPair, invariant_form, pair_from_point, x_minus_T
from .rings import algebra_norm
from .search import DescentBudgetError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

# --jobs range: worker processes are started up front, one per job
MAX_JOBS = 64
# --primes range: genus0_product(10^5) takes 1.5 s and a density row about
# 6 s, and both grow faster than linearly in P
MAX_PRIMES = 100_000
# densities genus range, --genus + --genus-count - 1: at P = 1000 a row at
# genus 30 takes 1.1 s with --samples 0 and 5.1 s at the default 100 000
# samples; at genus 50 these are 10 s and about 45 s, 22 s of it the exact
# real-root path for the 0.25 % of samples the float stage leaves
MAX_GENUS = 30


class CliValidationError(Exception):
    pass


def _parse_form(text: str) -> BinaryForm:
    try:
        coeffs = tuple(int(t) for t in text.split(","))
        return BinaryForm(coeffs)
    except ValueError as exc:
        raise CliValidationError(f"bad form {text!r}: {exc}")


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CliValidationError(msg)


def _require_jobs(jobs: int) -> None:
    _require(1 <= jobs <= MAX_JOBS, f"--jobs must be between 1 and {MAX_JOBS}")


def _require_primes(primes: int, least: int) -> None:
    _require(least <= primes <= MAX_PRIMES, f"--primes must be between {least} and {MAX_PRIMES}")


def _emit(command: str, inputs: dict, payload, seed: int | None, csv_lines: list[str] | None = None, csv: bool = False):
    if csv and csv_lines is not None:
        sys.stdout.write("\n".join(csv_lines) + "\n")
        return
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "payload": payload,
    }
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_orbit(args) -> int:
    f = _parse_form(args.form)
    _require(f.degree == args.n, f"form has degree {f.degree}, expected {args.n}")
    try:
        x0, y0, z0 = (int(t) for t in args.point.split(","))
        P = CurvePoint(x0, y0, z0)
    except ValueError as exc:
        raise CliValidationError(f"bad point: {exc}")
    _require(f.disc != 0, "form is degenerate (Disc = 0)")
    _require(P.on_curve(f), "point is not on z^2 = f(x, y)")
    v = pair_from_point(f, P)  # checks, by covariance, that v has invariant form f
    payload = {
        "A": [list(r) for r in v.A],
        "B": [list(r) for r in v.B],
        "invariant_form": [str(c) for c in f.coeffs],
        "det_identity_holds": True,
    }
    # the x - T class needs a non-Weierstrass point and K_f, so f0 != 0
    if P.z0 != 0 and f.coeffs[0] != 0:
        el = x_minus_T(f, P)
        payload["x_minus_T_norm_times_f0"] = str(algebra_norm(el) * f.coeffs[0])
        payload["z0_squared"] = str(P.z0**2)
    _emit("orbit", {"n": args.n, "form": args.form, "point": args.point}, payload, None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    f = _parse_form(args.form)
    try:
        pair = SymmetricPair.from_json(args.pair)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliValidationError(f"bad pair: {exc}")
    _require(pair.n >= 2 and pair.n % 2 == 0, f"pair size must be even and >= 2, got {pair.n}")
    fv = invariant_form(pair)
    payload = {
        "invariant_form": [str(c) for c in fv.coeffs],
        "matches_form": fv == f,
    }
    _emit("verify", {"form": args.form}, payload, None)
    return EXIT_OK if fv == f else EXIT_VALIDATION


def _cmd_count_fp(args) -> int:
    _require(is_prime(args.p), f"--p must be a prime, got {args.p}")
    f = _parse_form(args.form)
    _require(f.degree == args.n, f"form has degree {f.degree}, expected {args.n}")
    stats = finite_fields.count_pairs_with_form(f, args.p)
    payload = {
        "p": stats.p,
        "form_mod_p": list(stats.form),
        "total_elements": stats.total_elements,
        "orbit_count": stats.orbit_count,
        "stabilizer_sizes": list(stats.stabilizer_sizes),
        "square_point_count": stats.square_point_count,
        "sl_n_order": finite_fields.sl_n_order(args.n, args.p),
    }
    _emit("count-fp", {"n": args.n, "p": args.p, "form": args.form}, payload, None)
    return EXIT_OK


def _cmd_densities(args) -> int:
    _require(args.genus >= 0, "--genus must be >= 0")
    _require(args.genus_count >= 1, "--genus-count must be >= 1")
    _require(
        args.genus + args.genus_count - 1 <= MAX_GENUS, f"--genus + --genus-count - 1 must be at most {MAX_GENUS}"
    )
    _require_primes(args.primes, 2)
    _require(args.samples >= 0, "--samples must be >= 0")
    _require_jobs(args.jobs)
    reports = []
    for g in range(args.genus, args.genus + args.genus_count):
        if args.samples > 0:
            rep = densities.density_bound(g, args.primes, args.samples, args.seed, jobs=args.jobs)
            reports.append(rep.to_jsonable())
        else:
            # no sampling requested: report the closed parts and the exact
            # archimedean weight identity value for g <= 1
            n = 2 * g + 2
            reports.append(
                {
                    "genus": g,
                    "degree": n,
                    "archimedean_factor": 1.0 if g <= 1 else None,
                    "two_adic_factor": float(densities.two_adic_factor(n)),
                    "truncation_prime": args.primes,
                    "samples": 0,
                }
            )
    csv_lines = ["genus,bound,bound_conservative"]
    for rep in reports:
        csv_lines.append(
            f"{rep['genus']},{rep.get('bound', '')},{rep.get('bound_conservative', '')}"
        )
    _emit(
        "densities",
        {"genus": args.genus, "primes": args.primes, "samples": args.samples},
        reports,
        args.seed,
        csv_lines=csv_lines,
        csv=args.csv,
    )
    return EXIT_OK


def _cmd_genus0(args) -> int:
    _require_primes(args.primes, 3)
    val = densities.genus0_product(args.primes)
    payload = {
        "truncation_prime": args.primes,
        # Decimal prints integers of any length; str(int) refuses more than
        # 4300 digits by default, which P = 10^4 already exceeds
        "product": f"{Decimal(val.numerator)}/{Decimal(val.denominator)}",
        "float": float(val),
        "log10": _log10_fraction(val),
    }
    _emit("genus0", {"primes": args.primes}, payload, None)
    return EXIT_OK


def _log10_fraction(x) -> float:
    import math

    return math.log10(x.numerator) - math.log10(x.denominator) if x > 0 else float("-inf")


def _cmd_survey(args) -> int:
    _require(args.n >= 2 and args.n % 2 == 0, "--n must be even and >= 2")
    _require(args.height >= 1, "--height must be >= 1 (height 0 admits only the zero form)")
    _require(args.count >= 0, "--count must be >= 0")
    _require(args.point_bound >= 0, "--point-bound must be >= 0")
    _require_jobs(args.jobs)
    records, agg = search.survey(args.n, args.height, args.point_bound, args.count, args.seed, jobs=args.jobs)
    if args.csv:
        lines = ["coeffs;genus;locally_soluble;point"]
        for r in records:
            pt = ":".join(str(c) for c in r.point) if r.point else ""
            lines.append(f"{','.join(str(c) for c in r.coeffs)};{r.genus};{int(r.locally_soluble_overall)};{pt}")
        lines.append(f"# aggregate;{agg.count};{agg.locally_soluble};{agg.with_point}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK
    for r in records:
        sys.stdout.write(json.dumps({"schema_version": SCHEMA_VERSION, "record": r.to_jsonable()}, sort_keys=True) + "\n")
    _emit(
        "survey",
        {"n": args.n, "height": args.height, "point_bound": args.point_bound, "count": args.count},
        agg.to_jsonable(),
        args.seed,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Turns a bad argv into a CliValidationError, so it takes the one-line
    `error:` path of every validation failure; subparsers inherit the class."""

    def error(self, message: str):
        raise CliValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pencilorbits", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="pair (A, B) from a form and a point on z^2 = f")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", required=True, help="comma-separated f0,...,fn")
    p.add_argument("--point", required=True, help="x0,y0,z0")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("verify", help="check a pair against a form")
    p.add_argument("--form", required=True)
    p.add_argument("--pair", required=True, help='JSON {"A": [[...]], "B": [[...]]}')
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count-fp", help="orbit statistics over F_p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_count_fp)

    p = sub.add_parser("densities", help="density bound report per genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--genus-count", type=int, default=1, help="number of consecutive genera")
    p.add_argument("--primes", type=int, default=1000, help="truncation prime P")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker shards; output bytes do not depend on this")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_densities)

    p = sub.add_parser("genus0", help="exact genus-0 Euler product")
    p.add_argument("--primes", type=int, default=10_000)
    p.set_defaults(func=_cmd_genus0)

    p = sub.add_parser("survey", help="local solubility / point survey")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--point-bound", type=int, default=16)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker shards; output bytes do not depend on this")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_survey)
    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    t0 = time.time()
    try:
        args = ap.parse_args(argv)
        code = args.func(args)
    except SystemExit:  # --help
        return EXIT_OK
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DescentBudgetError, finite_fields.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"[{args.command}] elapsed {time.time() - t0:.3f} s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
