"""The four benchmark workloads.

Each workload turns a seed into plain inputs (integers and coefficient
tuples, never library objects, so no per-object cache can be filled during
set-up), runs one *round* of library calls on them, and checks the outputs.
A round is one unit of work, shaped like one CLI call or one acceptance
criterion; the timed section repeats rounds, each on fresh inputs from its
own seed and from cold library caches.

Checks are exact and hold for every seed.  They run outside the timed
section on the recorded outputs, so the self-test can feed them corrupted
outputs and see them fail.
"""

import math
import random
import time
from fractions import Fraction

from pencilorbits import densities, finite_fields, forms, intpoly, orbits, rings, search
from pencilorbits.forms import BinaryForm, UnimodularMatrix2

# -- small independent arithmetic used by the checkers ------------------------


def _eval_binary(coeffs, x, y):
    n = len(coeffs) - 1
    return sum(c * x ** (n - i) * y**i for i, c in enumerate(coeffs))


def _det(M):
    """Exact determinant by cofactor-free Gaussian elimination over Fraction."""
    A = [[Fraction(v) for v in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for r in range(k + 1, n):
            q = A[r][k] / A[k][k]
            if q:
                for c in range(k, n):
                    A[r][c] -= q * A[k][c]
    return det


def _sl_order(n, p):
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


class Round:
    """Outputs of one round: `records` (one per item, in input order),
    `items` (the unit items_per_s counts) and `errors` (item index and
    message for every call that raised)."""

    def __init__(self):
        self.records = []
        self.items = 0
        self.errors: list[tuple[int, str]] = []


def _guard(rnd: Round, index: int, fn):
    try:
        return fn()
    except Exception as exc:  # every failed call is counted, never fatal
        rnd.errors.append((index, f"{type(exc).__name__}: {exc}"))
        return None


# -----------------------------------------------------------------------------


class Density:
    """Criterion 8 shape: density_bound(g, 1000, S, seed) for g = 1..10, the
    CLI `densities --genus 1 --genus-count 10` table, plus criterion 7's two
    large-sample low-genus estimates mu_real(4, L) and mu_real(6, L).

    Item: one Monte Carlo sample; the exact finite-place factors are
    recomputed from cold caches every round and count in the time.

    Sizing: at 5000 samples per genus the finite-place factors take about
    a fifth of a round and the degree >= 16 batches, where the exact Sturm
    fallback runs, about two thirds, as in criterion 8 (100 000 samples per
    genus), whose fallback share is larger still."""

    name = "density"
    GENERA = range(1, 11)
    PRIMES = 1000

    def __init__(self, samples: int = 5000, low_samples: int = 200_000):
        self.samples = samples
        self.low_samples = low_samples

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "samples": self.samples, "low": ((4, self.low_samples, seed + 1), (6, self.low_samples, seed + 2))}

    def run_round(self, inp: dict, item) -> Round:
        rnd = Round()
        S, seed = inp["samples"], inp["seed"]
        for k, g in enumerate(self.GENERA):
            n = 2 * g + 2

            def one():
                mu = densities.mu_real(n, S, seed)
                return mu, densities.density_bound(g, self.PRIMES, S, seed, mu=mu)

            with item(k):
                rnd.records.append(_guard(rnd, k, one))
            rnd.items += S
        for k, (n, L, s) in enumerate(inp["low"], start=len(self.GENERA)):
            with item(k):
                rnd.records.append(_guard(rnd, k, lambda: (densities.mu_real(n, L, s), None)))
            rnd.items += L
        return rnd

    def check(self, inp: dict, rnd: Round) -> list[str]:
        bad = []
        for k, rec in enumerate(rnd.records):
            if rec is None:
                continue
            mu, rep = rec
            if sum(mu.counts) != mu.samples or min(mu.counts) < 0 or len(mu.counts) != mu.degree // 2 + 1:
                bad.append(f"item {k}: root-count classes {mu.counts} do not partition {mu.samples} samples")
            if mu.degree == 4 and densities.archimedean_factor(1, 0, 0, mu=mu).value != 1:
                bad.append(f"item {k}: archimedean_factor(1) != 1")
            if rep is None:
                continue
            if not rep.bound > 0 or rep.bound_conservative < rep.bound:
                bad.append(f"genus {rep.genus}: bound {rep.bound} / conservative {rep.bound_conservative}")
            if not all(0 < v <= 1 for v in rep.finite_factors.values()) or not 0 < rep.two_adic_factor <= 1:
                bad.append(f"genus {rep.genus}: a finite factor is outside (0, 1]")
            if len(rep.finite_factors) != 167:  # odd primes <= 1000
                bad.append(f"genus {rep.genus}: {len(rep.finite_factors)} finite factors")
        return bad

    def canonical(self, rnd: Round):
        out = []
        for rec in rnd.records:
            if rec is None:
                out.append(None)
                continue
            mu, rep = rec
            row = {"degree": mu.degree, "samples": mu.samples, "counts": list(mu.counts)}
            if rep is not None:
                row.update(
                    bound=repr(rep.bound),
                    bound_conservative=repr(rep.bound_conservative),
                    archimedean=repr(rep.archimedean_factor),
                    two_adic=repr(rep.two_adic_factor),
                    finite=[repr(v) for _, v in sorted(rep.finite_factors.items())],
                )
            out.append(row)
        return out

    def ratios(self, rounds: list[Round]) -> dict:
        return {}

    def cli_argv(self, inp: dict) -> list[str]:
        return ["densities", "--genus", "1", "--genus-count", "10", "--primes", str(self.PRIMES),
                "--samples", str(inp["samples"]), "--seed", str(inp["seed"])]


class Survey:
    """Criterion 13 / CLI `survey` shape: squarefree quartic forms of height
    <= 1000 drawn exactly as `search.survey` draws them; per curve,
    locally_soluble_everywhere then rational_point_search(f, 12).

    Item: one curve."""

    name = "survey"
    N, HEIGHT, BOUND = 4, 1000, 12

    def __init__(self, count: int = 400):
        self.count = count

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        curves = []
        while len(curves) < self.count:
            coeffs = tuple(rng.randint(-self.HEIGHT, self.HEIGHT) for _ in range(self.N + 1))
            if any(coeffs) and forms.discriminant(BinaryForm(coeffs)) != 0:
                curves.append(coeffs)
        return {"seed": seed, "curves": curves}

    def run_round(self, inp: dict, item) -> Round:
        rnd = Round()
        for k, coeffs in enumerate(inp["curves"]):

            def one():
                f = BinaryForm(coeffs)
                soluble, verdicts = search.locally_soluble_everywhere(f)
                pt = search.rational_point_search(f, self.BOUND)
                return soluble, verdicts, None if pt is None else (pt.x0, pt.y0, pt.z0)

            with item(k):
                rnd.records.append(_guard(rnd, k, one))
            rnd.items += 1
        return rnd

    def check(self, inp: dict, rnd: Round) -> list[str]:
        bad = []
        for coeffs, rec in zip(inp["curves"], rnd.records):
            if rec is None:
                continue
            soluble, verdicts, pt = rec
            if soluble != all(verdicts.values()) or "real" not in verdicts or "2" not in verdicts:
                bad.append(f"{coeffs}: verdicts {verdicts} disagree with overall {soluble}")
            if pt is not None:
                x, y, z = pt
                if z * z != _eval_binary(coeffs, x, y) or math.gcd(x, y) != 1 or max(abs(x), abs(y)) > self.BOUND:
                    bad.append(f"{coeffs}: {pt} is not a primitive point of height <= {self.BOUND}")
                if not soluble:
                    bad.append(f"{coeffs}: point {pt} on a curve reported locally insoluble")
        return bad

    def canonical(self, rnd: Round):
        return [None if r is None else [r[0], sorted(r[1].items()), r[2]] for r in rnd.records]

    def cli_argv(self, inp: dict) -> list[str]:
        return ["survey", "--n", str(self.N), "--height", str(self.HEIGHT), "--point-bound", str(self.BOUND),
                "--count", str(len(inp["curves"])), "--seed", str(inp["seed"])]

    def ratios(self, rounds: list[Round]) -> dict:
        """Curves with a point found over curves searched."""
        done = [r for rnd in rounds for r in rnd.records if r is not None]
        return {"search.rational_point_search.hit_ratio": sum(r[2] is not None for r in done) / max(len(done), 1)}


class Pairs:
    """Criteria 1 and 6 / CLI `orbit` shape: points (0, 1, c) on curves
    z^2 = f with f_n = c^2, half of them moved by an SL2(Z) element; per
    point pair_from_point, invariant_form, x_minus_T and its norm, and on a
    fixed share at n <= 6 the square-class test against the transported
    construction class.

    Item: one point."""

    name = "pairs"
    DEGREES = (2, 4, 6, 8, 10)

    def __init__(self, per_degree: int = 12, square_class_per_degree: int = 2):
        self.per_degree = per_degree
        self.square_class = square_class_per_degree

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        points = []
        for n in self.DEGREES:
            moved = set(rng.sample(range(self.per_degree), self.per_degree // 2))
            tested = set(rng.sample(range(self.per_degree), self.square_class)) if n <= 6 else set()
            for k in range(self.per_degree):
                while True:
                    head = [rng.randint(-6, 6) for _ in range(n)]
                    c = rng.randint(1, 5)
                    coeffs = tuple(head + [c * c])
                    if head[0] != 0 and forms.discriminant(BinaryForm(coeffs)) != 0:
                        break
                g = None
                while k in moved and g is None:
                    a, b, cc, d = _random_sl2(rng)
                    if _eval_binary(coeffs, a, b) != 0:  # moved form keeps f0 != 0
                        g = (a, b, cc, d)
                points.append({"coeffs": coeffs, "c": c, "g": g, "square_class": k in tested})
        return {"seed": seed, "points": points}

    def run_round(self, inp: dict, item) -> Round:
        rnd = Round()
        for k, pt in enumerate(inp["points"]):
            with item(k):
                rnd.records.append(_guard(rnd, k, lambda: self._one(pt)))
            rnd.items += 1
        return rnd

    @staticmethod
    def _one(pt: dict):
        f = BinaryForm(pt["coeffs"])
        c, g = pt["c"], pt["g"]
        if g is None:
            P = orbits.CurvePoint(0, 1, c)
        else:
            f = forms.sl2_act(UnimodularMatrix2(*g), f)
            P = orbits.CurvePoint(-g[2], g[0], c)
        v = orbits.pair_from_point(f, P)
        inv = orbits.invariant_form(v)
        el = orbits.x_minus_T(f, P)
        norm = rings.algebra_norm(el)
        verdict = None
        if pt["square_class"]:
            beta = orbits.transported_construction_class(f, P)
            verdict = rings.same_square_class(el, beta, trials=50).value
        return f.coeffs, (P.x0, P.y0, P.z0), v.A, v.B, inv.coeffs, norm, verdict

    def check(self, inp: dict, rnd: Round) -> list[str]:
        bad = []
        for pt, rec in zip(inp["points"], rnd.records):
            if rec is None:
                continue
            fc, (x0, y0, z0), A, B, inv, norm, verdict = rec
            n = len(fc) - 1
            if _eval_binary(fc, x0, y0) != z0 * z0:
                bad.append(f"{fc}: ({x0}, {y0}, {z0}) is not on the curve")
            if tuple(inv) != tuple(fc):
                bad.append(f"{fc}: invariant_form returned {inv}")
            # (-1)^(n/2) det(A x - B y) == f(x, y), checked independently at three points
            sign = -1 if (n // 2) % 2 else 1
            for x, y in ((1, 0), (0, 1), (1, 1)):
                M = [[A[i][j] * x - B[i][j] * y for j in range(n)] for i in range(n)]
                if sign * _det(M) != _eval_binary(fc, x, y):
                    bad.append(f"{fc}: det(Ax - By) != f at ({x}, {y})")
                    break
            if norm * fc[0] != z0 * z0:
                bad.append(f"{fc}: N(x - T) * f0 = {norm * fc[0]} != z0^2 = {z0 * z0}")
            if verdict == "distinct" or (pt["square_class"] and verdict is None):
                bad.append(f"{fc}: square-class verdict {verdict}")
        return bad

    def canonical(self, rnd: Round):
        out = []
        for rec in rnd.records:
            if rec is None:
                out.append(None)
                continue
            fc, P, A, B, inv, norm, verdict = rec
            out.append([list(fc), list(P), [list(r) for r in A], [list(r) for r in B], list(inv), str(norm), verdict])
        return out

    def ratios(self, rounds: list[Round]) -> dict:
        """EQUAL verdicts over square-class tests made."""
        verdicts = [r[6] for rnd in rounds for r in rnd.records if r is not None and r[6] is not None]
        return {"rings.same_square_class.equal_ratio": sum(v == "equal" for v in verdicts) / max(len(verdicts), 1)}


def _random_sl2(rng: random.Random, size: int = 3):
    """Product of elementary matrices; returns (a, b, c, d) with ad - bc = 1."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        t = rng.randint(-size, size)
        a, b, c, d = a, a * t + b, c, c * t + d
        t = rng.randint(-size, size)
        a, b, c, d = a + b * t, b, c + d * t, d
    return a, b, c, d


class FpOrbits:
    """Criterion 5 / CLI `count-fp` shape: count_pairs_with_form for n = 2 on
    every separable form at p = 3 and 5 and on a seeded sample of forms at
    p = 7, compared with orbit_statistics_prediction; then the six separable
    quartics at n = 4, p = 2, whose first call builds the 2^20 census.

    Item: one count_pairs_with_form call."""

    name = "fp_orbits"
    QUARTICS = ((1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 0, 1, 0), (0, 1, 0, 1, 1), (1, 1, 1, 0, 1), (1, 0, 1, 1, 1))

    def __init__(self, p7_sample: int = 8):
        self.p7_sample = p7_sample

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        forms_n2 = [(p, co) for p in (3, 5) for co in _nonzero_forms(p)]
        forms_n2 += [(7, co) for co in rng.sample(_nonzero_forms(7), self.p7_sample)]
        return {"seed": seed, "n2": forms_n2, "quartics": list(self.QUARTICS)}

    def run_round(self, inp: dict, item) -> Round:
        rnd = Round()
        for k, (p, coeffs) in enumerate(inp["n2"]):
            with item(k):
                rec = _guard(rnd, k, lambda: self._n2(p, coeffs))
            if rec is not False:  # False: inseparable mod p, not counted
                rnd.records.append(rec)
                rnd.items += 1
        for k, coeffs in enumerate(inp["quartics"], start=len(inp["n2"])):
            with item(k):
                rnd.records.append(_guard(rnd, k, lambda: self._quartic(coeffs)))
            rnd.items += 1
        return rnd

    @staticmethod
    def _n2(p: int, coeffs):
        f = BinaryForm(coeffs)
        if not finite_fields.is_separable_mod_p(f, p):
            return False
        return p, coeffs, finite_fields.count_pairs_with_form(f, p), finite_fields.orbit_statistics_prediction(f, p)

    @staticmethod
    def _quartic(coeffs):
        f = BinaryForm(coeffs)
        return (2, coeffs, finite_fields.count_pairs_with_form(f, 2), None) if finite_fields.is_separable_mod_p(f, 2) else None

    def check(self, inp: dict, rnd: Round) -> list[str]:
        bad = []
        seen = {3: 0, 5: 0}
        for rec in rnd.records:
            if rec is None:
                continue
            p, coeffs, stats, pred = rec
            n = len(coeffs) - 1
            if p in seen and n == 2:
                seen[p] += 1
            if stats.total_elements != _sl_order(n, p):
                bad.append(f"p={p} {coeffs}: {stats.total_elements} pairs, expected #SL_{n}(F_{p}) = {_sl_order(n, p)}")
            if p % 2 == 1:
                if pred is None or stats.orbit_count != pred.orbit_count or stats.stabilizer_sizes != pred.stabilizer_sizes:
                    bad.append(f"p={p} {coeffs}: orbits {stats.orbit_count} {stats.stabilizer_sizes} differ from the prediction")
                if not stats.consistent(2 * _sl_order(n, p)):
                    bad.append(f"p={p} {coeffs}: orbit sizes do not add up to the total")
        for p, got in seen.items():
            if got != p**3 - p**2:  # separable binary quadratics over F_p
                bad.append(f"p={p}: {got} separable forms, expected {p**3 - p**2}")
        if sum(1 for r in rnd.records if r is not None and len(r[1]) == 5) != len(inp["quartics"]):
            bad.append("a listed quartic was not counted")
        return bad

    def ratios(self, rounds: list[Round]) -> dict:
        return {}

    def canonical(self, rnd: Round):
        out = []
        for rec in rnd.records:
            if rec is None:
                out.append(None)
                continue
            p, coeffs, s, _ = rec
            out.append([p, list(coeffs), s.total_elements, s.orbit_count, list(s.stabilizer_sizes), s.square_point_count])
        return out


def _nonzero_forms(p: int) -> list[tuple[int, int, int]]:
    return [(a, b, c) for a in range(p) for b in range(p) for c in range(p) if (a, b, c) != (0, 0, 0)]


WORKLOADS = {w.name: w for w in (Density(), Survey(), Pairs(), FpOrbits())}

# Inputs small enough for the checker self-test.
SMOKE = {"density": Density(samples=200, low_samples=2000), "survey": Survey(count=20),
         "pairs": Pairs(per_degree=2, square_class_per_degree=1), "fp_orbits": FpOrbits(p7_sample=2)}


def capture_batch(captured: dict, args, counts, rows: int = 200) -> None:
    """Hook on count_real_roots_batch in the traced run: keep the first
    `rows` rows and counts of the first batch at each degree."""
    C = args[0]
    n = C.shape[1] - 1
    if n not in captured:
        captured[n] = ([[int(c) for c in row] for row in C[:rows].tolist()], [int(c) for c in counts[:rows]])


def exact_path_subset(captured: dict) -> tuple[dict, list[str], int]:
    """Re-count the captured rows of each density batch on the exact integer
    path and time it: the differential guard for the float filter.  Returns
    (microseconds per sample by degree, disagreements, comparisons made)."""
    us, bad, done = {}, [], 0
    for n, (rows, counts) in sorted(captured.items()):
        t0 = time.perf_counter()
        got = []
        for row in rows:
            c = intpoly.real_root_count_squarefree(row)
            got.append(c if c is not None else intpoly.real_root_count_squarefree(intpoly.squarefree_part(row)))
        us[n] = (time.perf_counter() - t0) / max(len(rows), 1) * 1e6
        for row, a, b in zip(rows, counts, got):
            done += 1
            if a != b:
                bad.append(f"degree {n}: batch count {a} != exact count {b} for {row}")
    return us, bad, done
