"""pencilorbits benchmark.

    python3 bench/run.py --workload {density,survey,pairs,fp_orbits}
                         --seed N --seconds T --trace {0,1}

Runs from the root of a source checkout and imports the library from
``src/``; it exits with code 2 and prints no result when that tree is
missing.  One process, ``jobs=1``, closed loop: each item starts when the
previous one ends.  The timed section repeats *rounds* (see workloads.py)
for ``--seconds``, each round on fresh inputs and from cold library caches.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:

* ``items_per_s``: items finished over the time the rounds took;
* ``setup_s``: interpreter start to the first timed item (imports plus
  input generation), the median of fifteen fresh interpreters;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed section.

``--trace 1`` runs every round twice, untraced and with spans around the
calls into each library module (tracing.py), and prints the per-layer
metrics.  Spans go to ``bench/out/`` when the run ends.

Every run also checks the program: each round's outputs go through the
workload's exact checks, the default seed's outputs must match
``bench/digests.json``, and for ``density`` and ``survey`` the stdout of
the equivalent CLI call must match its recorded sha256.  A failed call or
check counts in ``failed`` and makes ``correct`` false.  After a change
that is meant to alter outputs, ``python3 bench/run.py --record-digests``
rewrites digests.json from the current program.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_PROBES = 15


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="density, survey, pairs or fp_orbits")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_library()
    if args.record_digests:
        return record_digests(workloads)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    caches = find_caches()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    tally = Tally()

    if args.trace:
        rec = tracing.Recorder()
        captured = {}
        rec.capture = lambda a, r: workloads.capture_batch(captured, a, r)
        untraced, traced = timed_loop(wl, args.seed, inputs, seconds, caches, tally, rec)
        rec.install()
        try:
            default_checks(wl, args.seed, traced.rounds[0], caches, tally, rec)
        finally:
            rec.uninstall()
        exact_us, disagreements, compared = workloads.exact_path_subset(captured)
        tally.add(compared, disagreements)
        metrics = tracing.layer_metrics(rec, untraced.round_s, traced.round_s, exact_us)
        metrics.update(wl.ratios(traced.rounds))
        metrics["fail_frac"] = tally.failed / tally.attempted
        names = spec["per_layer"]
        rounds_s = {"untraced": untraced.round_s, "traced": traced.round_s}
    else:
        loop, _ = timed_loop(wl, args.seed, inputs, seconds, caches, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        default_checks(wl, args.seed, loop.rounds[0], caches, tally)
        metrics = {
            "items_per_s": sum(loop.round_items) / sum(loop.round_s),
            "setup_s": statistics.median(setup_probes(args.workload, args.seed)),
            "peak_rss_mb": rss_mb,
        }
        names = spec["end_to_end"]
        rounds_s = {"plain": loop.round_s, "items": loop.round_items}
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": seconds, "environment": env,
              "result": result, "rounds": rounds_s, "failures": tally.messages[:50]}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        rec.dump(OUT / f"{stem}-spans.json.gz", {"workload": args.workload, "seed": args.seed})
    for msg in tally.messages[:10]:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def import_library():
    """Put src/ first on the path, import the library from there (nowhere
    else) and return the workloads module."""
    if not (SRC / "pencilorbits" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'pencilorbits'}", file=sys.stderr)
        sys.exit(2)
    # BLAS/OpenMP pools capped at the CPUs this process may use; set before numpy loads.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > int(nproc):
            os.environ[var] = nproc
    sys.path.insert(0, str(SRC))
    import pencilorbits
    import pencilorbits.cli  # noqa: F401  (loaded now, so that the traced run wraps cli.run)

    if Path(pencilorbits.__file__).resolve().parent != SRC / "pencilorbits":
        print(f"error: imported pencilorbits from {pencilorbits.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


class Tally:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]):
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.messages.extend(failures)


class Loop:
    """Per-round times and item counts.  Round outputs are kept only for
    the first round, or for every round when `keep` is set (traced runs),
    so that peak memory does not grow with the number of rounds."""

    def __init__(self, keep: bool):
        self.keep = keep
        self.round_s: list[float] = []
        self.round_items: list[int] = []
        self.rounds: list = []

    def add(self, rnd, seconds: float):
        self.round_s.append(seconds)
        self.round_items.append(rnd.items)
        if self.keep or not self.rounds:
            self.rounds.append(rnd)


def round_seed(seed: int, r: int) -> int:
    """Seed of the inputs of round r.  Round 0 uses the run's seed itself,
    so that the default seed's first round is the one digests.json and the
    CLI check describe."""
    return seed if r == 0 else (seed + 1) * 1_000_003 + r


def timed_loop(wl, seed, inputs, seconds, caches, tally, rec=None) -> tuple[Loop, Loop]:
    """Rounds until `seconds` have passed (at least one); round r runs on
    fresh inputs from round_seed(seed, r), made outside the timed part.
    With `rec`, each round runs twice on the same inputs, untraced and
    traced, in alternating order, so that drift in machine speed cancels out
    of the tracing overhead.  Returns the untraced and the traced rounds."""
    plain, traced = Loop(keep=False), Loop(keep=True)
    t_end = time.perf_counter() + seconds
    while True:
        traced_first = len(plain.round_s) % 2 == 1
        if rec and traced_first:
            traced_round(wl, inputs, caches, tally, traced, rec)
        timed_round(wl, inputs, caches, tally, plain)
        if rec and not traced_first:
            traced_round(wl, inputs, caches, tally, traced, rec)
        if time.perf_counter() >= t_end:
            return plain, traced
        inputs = wl.make_inputs(round_seed(seed, len(plain.round_s)))


def traced_round(wl, inputs, caches, tally, loop, rec):
    rec.install()
    try:
        timed_round(wl, inputs, caches, tally, loop, rec)
    finally:
        rec.uninstall()


def timed_round(wl, inputs, caches, tally, loop, rec=None):
    """One round from cold caches; its outputs go through the workload's checks."""
    for clear in caches:
        clear()
    t0 = time.perf_counter()
    span = rec.begin("bench.round") if rec else None
    rnd = wl.run_round(inputs, rec.item if rec else tracing.untraced_item)
    if rec:
        rec.finish(span)
    loop.add(rnd, time.perf_counter() - t0)
    tally.add(len(rnd.records), [f"item {k}: {msg}" for k, msg in rnd.errors] + wl.check(inputs, rnd))


def find_caches():
    """Callables that empty the library's caches: every lru_cache defined in
    a pencilorbits module, plus the module-level tables that are not one."""
    clears = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "pencilorbits" and not mod_name.startswith("pencilorbits."):
            continue
        for attr, val in vars(mod).items():
            if callable(getattr(val, "cache_clear", None)) and getattr(val, "__module__", None) == mod_name:
                clears.append(val.cache_clear)
            elif attr == "_QUARTIC_TABLE":
                clears.append(lambda m=mod: setattr(m, "_QUARTIC_TABLE", None))
            elif attr == "_PRIME_CACHE" and isinstance(val, dict):
                clears.append(val.clear)
    return clears


# -- output checks against bench/digests.json ----------------------------------


def output_digest(wl, rnd) -> str:
    return hashlib.sha256(json.dumps(wl.canonical(rnd), sort_keys=True).encode()).hexdigest()


def cli_stdout_digest(argv) -> str:
    from pencilorbits import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"cli exited {code}: {err.getvalue().strip()}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def default_checks(wl, seed, first, caches, tally, rec=None):
    """Default-seed outputs and CLI stdout against bench/digests.json; run
    after the timed section, each from cold caches, as a CLI call would be.
    `first` is this run's first round, reused when the run's seed is the
    default one."""
    recorded = json.loads((BENCH / "digests.json").read_text())[wl.name]
    inputs = wl.make_inputs(DEFAULT_SEED)
    if seed == DEFAULT_SEED:
        rnd = first
    else:
        for clear in caches:
            clear()
        rnd = wl.run_round(inputs, rec.item if rec else tracing.untraced_item)
        tally.add(len(rnd.records), [f"default seed, item {k}: {msg}" for k, msg in rnd.errors] + wl.check(inputs, rnd))
    got = output_digest(wl, rnd)
    tally.add(1, [] if got == recorded["outputs"] else [f"default-seed output digest {got} != recorded {recorded['outputs']}"])
    if hasattr(wl, "cli_argv"):
        for clear in caches:
            clear()
        try:
            got = cli_stdout_digest(wl.cli_argv(inputs))
        except Exception as exc:  # a crashing CLI is one failed check, not a crashed benchmark
            got = f"{type(exc).__name__}: {exc}"
        ok = got == recorded["cli_stdout"]
        tally.add(1, [] if ok else [f"CLI stdout digest {got} != recorded {recorded['cli_stdout']}"])


def record_digests(workloads) -> int:
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.make_inputs(DEFAULT_SEED)
        rnd = wl.run_round(inputs, tracing.untraced_item)
        problems = [msg for _, msg in rnd.errors] + wl.check(inputs, rnd)
        if problems:
            print(f"{name}: not recording, checks fail: {problems[:5]}", file=sys.stderr)
            return 1
        out[name] = {"outputs": output_digest(wl, rnd)}
        if hasattr(wl, "cli_argv"):
            out[name]["cli_stdout"] = cli_stdout_digest(wl.cli_argv(inputs))
            out[name]["cli_argv"] = " ".join(wl.cli_argv(inputs))
    (BENCH / "digests.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


# -- set-up time and environment ------------------------------------------------


def setup_probes(workload, seed) -> list[float]:
    """Wall time from launching a fresh interpreter on this script to its
    'ready' line, which it prints where the timed section would start."""
    times = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        times.append(t1 - t0)
    return times


def environment() -> dict:
    import mpmath
    import numpy

    cpuinfo = _read(Path("/proc/cpuinfo")).splitlines()
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")), platform.processor())
    src = hashlib.sha256()
    for path in sorted((SRC / "pencilorbits").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_head(),
        "source_sha256": src.hexdigest(),
    }


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _git_head():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree (the source digest still identifies the code)."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(git / ref).strip()
    if not sha:
        packed = _read(git / "packed-refs").splitlines()
        sha = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), "")
    return sha or None


if __name__ == "__main__":
    sys.exit(main())
