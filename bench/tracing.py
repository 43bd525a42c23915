"""In-memory spans around calls into the library's modules, and the
per-layer metrics derived from them.

The traced run replaces selected library functions with timing wrappers,
installed from the benchmark's side only: every ``pencilorbits`` module
attribute that is the original function object is swapped for the wrapper,
so calls made through a ``from .x import f`` binding are seen as well.
``uninstall`` puts the originals back.  Spans are kept in plain lists and
written out once, when the run ends.
"""

import gzip
import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import wraps

# Functions wrapped in the traced run, by module.  gfpoly is not wrapped: it
# is called only from inside other modules, many times per item, and its
# time counts in the self time of the calling layer.
TRACED = {
    "forms": ("discriminant", "sl2_act", "is_separable_mod_p", "real_root_count"),
    "intpoly": ("resultant", "real_root_count_squarefree"),
    "realroots": ("count_real_roots_batch",),
    "numutil": ("factorize",),
    "densities": ("density_bound", "mu_real", "finite_prime_factor", "two_adic_factor"),
    "search": ("locally_soluble_everywhere", "locally_soluble_R", "locally_soluble_p", "rational_point_search"),
    "orbits": ("pair_from_point", "invariant_form", "x_minus_T", "transported_construction_class"),
    "rings": ("algebra_norm", "same_square_class"),
    "finite_fields": ("count_pairs_with_form", "pair_census_n2", "orbit_statistics_prediction"),
    "cli": ("run",),
}
LAYERS = ("forms", "intpoly", "realroots", "numutil", "rings", "orbits", "finite_fields", "densities", "search", "cli")


class Recorder:
    """Spans as parallel lists: name, tag, start, end, parent index, item id.

    A tag is a small per-call label chosen by the wrapper (the degree of a
    form, the prime, or a sample count) so that per-layer metrics can be
    split without keeping the arguments alive."""

    def __init__(self):
        self.name: list[str] = []
        self.tag: list = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item_id: list[int] = []
        self.errors: dict[str, int] = {}
        self.capture = None  # fn(args, result), called inside each count_real_roots_batch span
        self._stack: list[int] = []
        self._item = -1
        self._originals: list[tuple] = []
        self._index: dict[str, list[int]] = {}  # span name -> indices, rebuilt when spans were added
        self._indexed = 0

    def begin(self, name: str, tag=None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_id.append(self._item)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self, item_id: int):
        """A ``bench.item`` span; spans opened inside carry `item_id`."""
        self._item = item_id
        i = self.begin("bench.item")
        try:
            yield
        finally:
            self.finish(i)
            self._item = -1

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        pkg_modules = [m for k, m in sys.modules.items() if k == "pencilorbits" or k.startswith("pencilorbits.")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules.get(f"pencilorbits.{mod_name}")
            if mod is None:
                continue
            for fname in funcs:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for m in pkg_modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._originals.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._originals):
            setattr(m, attr, orig)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.begin(name, _tag(args))
            try:
                result = fn(*args, **kwargs)
                if rec.capture is not None and name == "realroots.count_real_roots_batch":
                    rec.capture(args, result)
                return result
            except Exception as exc:
                key = f"{name}:{type(exc).__name__}"
                rec.errors[key] = rec.errors.get(key, 0) + 1
                raise
            finally:
                rec.finish(i)

        return wrapper

    # -- derived quantities --------------------------------------------------

    def durations(self, name: str, tag=None, ids=None) -> list[float]:
        """Durations of the spans called `name`, optionally only those with
        `tag`, or with an index in `ids`.  No traced function calls itself,
        so no such span nests inside another of the same name."""
        return [d for _, t, d in self.spans(name, ids) if tag is None or t == tag]

    def spans(self, name: str, ids=None):
        """(index, tag, duration) for every span called `name`, optionally
        only those with an index in `ids`."""
        if self._indexed != len(self.name):
            self._index = {}
            for i, nm in enumerate(self.name):
                self._index.setdefault(nm, []).append(i)
            self._indexed = len(self.name)
        return [(i, self.tag[i], self.end[i] - self.start[i]) for i in self._index.get(name, ())
                if ids is None or i in ids]

    def self_times(self, ids=None) -> dict[str, float]:
        """Self time per layer over the spans in `ids` (default all): each
        span's duration minus the time its direct children cover (children
        never overlap: one thread)."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in LAYERS}
        out["bench"] = 0.0
        for i, nm in enumerate(self.name):
            if ids is not None and i not in ids:
                continue
            layer = nm.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def dump(self, path, extra: dict) -> None:
        names = sorted(set(self.name))
        index = {nm: k for k, nm in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["spans"] = {
            "name": [index[nm] for nm in self.name],
            "tag": self.tag,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item_id,
        }
        doc["self_time_s"] = self.self_times()
        doc["errors"] = self.errors
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)


def _tag(args):
    """A small label for a call: the degree n of the form (with p when the
    call is (form, p)), (rows, degree) for a coefficient batch, the degree
    of a coefficient list, or the arguments themselves when they are all
    small integers (such as (n, p))."""
    if not args:
        return None
    for k, a in enumerate(args):
        coeffs = getattr(a, "coeffs", None)
        if coeffs is None:
            form = getattr(a, "form", None)
            coeffs = getattr(form, "coeffs", None)
        if coeffs is not None:
            nxt = args[k + 1] if k + 1 < len(args) else None
            return (len(coeffs) - 1, nxt) if isinstance(nxt, int) else len(coeffs) - 1
    a0 = args[0]
    shape = getattr(a0, "shape", None)
    if shape is not None and len(shape) == 2:
        return (int(shape[0]), int(shape[1]) - 1)
    if hasattr(a0, "A"):
        return len(a0.A)
    if isinstance(a0, list):
        return len(a0) - 1
    if all(isinstance(a, int) and abs(a) < 1 << 31 for a in args):
        return tuple(args)
    return None


def untraced_item(item_id: int):
    """The no-op counterpart of Recorder.item for untraced rounds."""
    return nullcontext()


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(rec: Recorder, untraced_s: list[float], traced_s: list[float], exact_us: dict) -> dict:
    """Every per-layer metric except those a workload computes from its own
    outputs.  Times and counts are per round unless the name says per call
    (``.ms``, ``.us``) or per sample; a layer this workload does not call
    reads 0.  `exact_us` holds the exact-path microseconds per sample by
    degree, timed on the captured density rows."""
    rounds = len(traced_s)
    in_rounds = _round_span_ids(rec)
    m = {}

    def spans(name):
        return rec.spans(name, in_rounds)

    def per_round(name, tag=None):
        return sum(rec.durations(name, tag, in_rounds)) / rounds

    def mean(name, scale, pick=lambda tag: True):
        ds = [d for _, tag, d in spans(name) if pick(tag)]
        return scale * sum(ds) / len(ds) if ds else 0.0

    # density
    for n in range(4, 24, 2):
        batch = [(tag[0], d) for _, tag, d in spans("realroots.count_real_roots_batch") if tag[1] == n]
        rows = sum(r for r, _ in batch)
        m[f"realroots.count_real_roots_batch.us_per_sample.n{n:02d}"] = 1e6 * sum(d for _, d in batch) / rows if rows else 0.0
        m[f"intpoly.real_root_count_squarefree.us_per_sample.n{n:02d}"] = exact_us.get(n, 0.0)
    m["densities.finite_prime_factor.s"] = per_round("densities.finite_prime_factor")
    m["densities.finite_prime_factor.calls"] = len(spans("densities.finite_prime_factor")) / rounds
    m["densities.two_adic_factor.s"] = per_round("densities.two_adic_factor")
    # survey
    for name in ("forms.discriminant", "numutil.factorize"):
        m[f"{name}.calls"] = len(spans(name)) / rounds
        m[f"{name}.s"] = per_round(name)
    m["search.locally_soluble_R.s"] = per_round("search.locally_soluble_R")
    lsp = spans("search.locally_soluble_p")
    m["search.locally_soluble_p.calls"] = len(lsp) / rounds
    for key in ("p2", "small", "bad"):
        m[f"search.locally_soluble_p.s.{key}"] = sum(d for _, tag, d in lsp if _prime_class(tag) == key) / rounds
    m["search.descent_budget_errors"] = rec.errors.get("search.locally_soluble_p:DescentBudgetError", 0) / rounds
    m["search.rational_point_search.s"] = per_round("search.rational_point_search")
    m["search.rational_point_search.hit_ratio"] = 0.0
    # per-curve time: median, and the highest order statistic with ten curves beyond it
    curve_ms = sorted(1e3 * d for _, _, d in spans("bench.item")) if spans("search.locally_soluble_everywhere") else []
    m["search.curve_ms.p50"] = statistics.median(curve_ms) if curve_ms else 0.0
    m["search.curve_ms.tail"] = curve_ms[-11] if len(curve_ms) > 10 else 0.0
    # pairs
    for n in (2, 4, 6, 8, 10):
        m[f"orbits.pair_from_point.ms.n{n:02d}"] = mean("orbits.pair_from_point", 1e3, lambda t, n=n: t == n)
        m[f"orbits.invariant_form.ms.n{n:02d}"] = mean("orbits.invariant_form", 1e3, lambda t, n=n: t == n)
    for name in ("forms.sl2_act", "orbits.x_minus_T", "rings.algebra_norm", "orbits.transported_construction_class",
                 "rings.same_square_class"):
        m[f"{name}.ms"] = mean(name, 1e3)
    m["rings.same_square_class.equal_ratio"] = 0.0
    # fp_orbits
    for p in (3, 5, 7):
        m[f"finite_fields.pair_census_n2.s.p{p}"] = per_round("finite_fields.pair_census_n2", (p,))
        m[f"finite_fields.count_pairs_with_form.ms.p{p}"] = mean("finite_fields.count_pairs_with_form", 1e3, lambda t, p=p: t == (2, p))
    quartic = [(i, d) for i, tag, d in spans("finite_fields.count_pairs_with_form") if tag == (4, 2)]
    firsts = _first_in_each_round(rec, [i for i, _ in quartic])  # the call that builds the 2^20 census
    first_s = [d for i, d in quartic if i in firsts]
    hit_s = [d for i, d in quartic if i not in firsts]
    m["finite_fields.count_pairs_with_form.s.quartic_first"] = sum(first_s) / len(first_s) if first_s else 0.0
    m["finite_fields.count_pairs_with_form.ms.quartic_hit"] = 1e3 * sum(hit_s) / len(hit_s) if hit_s else 0.0
    m["finite_fields.orbit_statistics_prediction.ms"] = mean("finite_fields.orbit_statistics_prediction", 1e3)
    m["forms.is_separable_mod_p.us"] = mean("forms.is_separable_mod_p", 1e6)
    # every layer; cli runs once, outside the rounds, for the stdout check
    self_s = rec.self_times(in_rounds)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] / rounds
    outside = set(range(len(rec.name))) - in_rounds
    m["cli.run.s"] = sum(rec.durations("cli.run", ids=outside))
    m["cli.self_s"] = rec.self_times(outside)["cli"]
    m["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1
    return m


def _prime_class(tag) -> str:
    """p2, small (odd p <= 4g^2 + 4) or bad (the other odd primes, which
    locally_soluble_everywhere tries only when they divide Disc(f))."""
    n, p = tag
    g = n // 2 - 1
    if p == 2:
        return "p2"
    return "small" if p <= 4 * g * g + 4 else "bad"


def _round_span_ids(rec: Recorder) -> set[int]:
    """Indices of the spans recorded inside a bench.round span."""
    out = set()
    for i in range(len(rec.name)):
        j = i
        while j >= 0 and rec.name[j] != "bench.round":
            j = rec.parent[j]
        if j >= 0:
            out.add(i)
    return out


def _first_in_each_round(rec: Recorder, ids: list[int]) -> set[int]:
    seen, out = set(), set()
    for i in ids:
        j = i
        while rec.parent[j] >= 0:
            j = rec.parent[j]
        if j not in seen:
            seen.add(j)
            out.add(i)
    return out
