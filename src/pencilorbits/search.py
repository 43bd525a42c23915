"""Rational point search of bounded height and local solubility testing for
z^2 = f(x, y).

The point search visits the primitive pairs (x, y) of height <= B in a
fixed order, ring by ring.  When ||f||_1 * B^n < 2^52 every value f(x, y)
is exact in int64 and in float64, so blocks of candidates are evaluated as
one int64 product with a cached monomial table and tested for squares by a
float sqrt checked exactly (r * r == v); the first hit is the answer.  At or
above the bound the same candidates are tried one by one on Python ints.

Local solubility at an odd prime runs a residue-disk descent: a disk is
decided as soon as its values have constant valuation and unit class
(Hensel), and only the residues where the reduction vanishes are refined.
The number of such residues is bounded by the degree, so the descent stays
narrow even at very large primes dividing the discriminant.  Whether a
reduction h takes a nonzero square value is checked by scanning when
p <= (deg h + 2)^2.  Above that, with h = c * s * G^2 and s squarefree of
degree >= 1, the Hasse-Weil bound for z^2 = c * s(t) gives more t with
c * s(t) a nonzero square than G has roots, so the answer is yes unless
h = c * G^2, which is tested by taking the square root of monic h
directly, and then it is whether c is a square.  At p = 2 a disk is
decided once its values are constant modulo 8 times the valuation part.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfpoly
from .forms import BinaryForm, evaluate, random_nondegenerate_form, real_root_count
from .numutil import factorize, isqrt_exact, primes_upto, require_prime
from .orbits import CurvePoint


class DescentBudgetError(RuntimeError):
    """Descent exceeded its depth budget (reported, never silently wrong)."""


# Every value f(x, y) of the int64 kernel is bounded by ||f||_1 B^n; below
# 2^52 it is exact in int64 and in float64.
_EXACT_LIMIT = 1 << 52
# Raw (x, y) pairs per kernel block: memory stays flat in the height bound.
_BLOCK = 1 << 14


def rational_point_search(f: BinaryForm, B: int) -> CurvePoint | None:
    """Smallest primitive point (x0, y0, z0) with |x0|, |y0| <= B on
    z^2 = f(x, y), if any; the points at infinity (1, 0, +-z) are included
    when f0 is a perfect square.  Exact integer square testing throughout:
    in int64 when every value is below 2^52, otherwise on Python ints."""
    if f.disc == 0:
        raise ValueError("Disc(f) = 0")
    z = isqrt_exact(f.coeffs[0])
    if z is not None:
        return CurvePoint(1, 0, z)
    if B < 1:
        return None
    n = f.degree
    if sum(abs(c) for c in f.coeffs) * B**n >= _EXACT_LIMIT:
        return _point_search_loop(f, B)
    coeffs = np.array(f.coeffs, dtype=np.int64)
    end = 2 * B * (B + 1)  # the height rings 1..B hold 4h pairs each
    for start in range(0, end, _BLOCK):
        xy, monomials = _candidate_block(n, start, min(start + _BLOCK, end))
        values = coeffs @ monomials
        # |value| <= ||f||_1 B^n < 2^52: exact as a double, and the correctly
        # rounded sqrt of a square k^2 is k itself
        roots = np.sqrt(np.abs(values)).astype(np.int64)
        hit = roots * roots == values
        k = int(hit.argmax())
        if hit[k]:
            return CurvePoint(int(xy[0, k]), int(xy[1, k]), int(roots[k]))
    return None


def _point_search_loop(f: BinaryForm, B: int) -> CurvePoint | None:
    """The candidates of rational_point_search, block by block in the same
    order, one Python-int evaluation per pair."""
    end = 2 * B * (B + 1)
    for start in range(0, end, _BLOCK):
        xs, ys = _candidate_pairs(start, min(start + _BLOCK, end)).tolist()
        for x, y in zip(xs, ys):
            z = isqrt_exact(evaluate(f, x, y))
            if z is not None:
                return CurvePoint(x, y, z)
    return None


@lru_cache(maxsize=4)
def _candidate_pairs(start: int, stop: int) -> np.ndarray:
    """The primitive pairs among the raw candidates start..stop - 1, as a
    (2, K) int64 array.  The raw candidates run ring by ring: ring h holds
    the 4h pairs with max(|x|, |y|) = h and y >= 0 (points are projective
    and n is even, so (x, y) ~ (-x, -y)) and starts at 2h(h - 1); within
    it, (0, h), (1, h), (-1, h), ..., (h, h), (-h, h), then (h, h - 1),
    (-h, h - 1), ..., (h, 1), (-h, 1), (h, 0), so (0, 1) comes first.
    Read-only: the cache hands the same array to every call."""
    g = np.arange(start, stop, dtype=np.int64)
    h = ((1 + np.sqrt(1 + 2 * g.astype(np.float64))) / 2).astype(np.int64)
    h -= 2 * h * (h - 1) > g  # exact integer correction of the float estimate
    h += 2 * (h + 1) * h <= g
    i = g - 2 * h * (h - 1)
    top = i <= 2 * h  # (0, h), (1, h), (-1, h), ..., (h, h), (-h, h)
    j = i - 2 * h - 1  # then (h, h - 1), (-h, h - 1), ..., (h, 1), (-h, 1), (h, 0)
    x = np.where(top, np.where(i % 2 == 1, 1, -1) * ((i + 1) // 2), np.where(j % 2 == 0, h, -h))
    y = np.where(top, h, h - 1 - j // 2)
    keep = np.gcd(x, y) == 1
    xy = np.stack([x[keep], y[keep]])
    xy.flags.writeable = False
    return xy


@lru_cache(maxsize=4)  # a survey at a fixed bound B <= 90 reuses one block
def _candidate_block(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """`_candidate_pairs(start, stop)` and the monomials x^(n-i) y^i of its
    pairs as an (n + 1, K) int64 matrix.  Read-only, like the pairs."""
    x, y = xy = _candidate_pairs(start, stop)
    monomials = np.empty((n + 1, xy.shape[1]), dtype=np.int64)
    for k in range(n + 1):
        monomials[k] = x ** (n - k) * y**k
    monomials.flags.writeable = False
    return xy, monomials


def locally_soluble_R(f: BinaryForm) -> bool:
    """True iff f is not negative definite (exact, via real root count)."""
    if f.coeffs[0] == 0:
        return True  # (1:0) is a real root
    if f.coeffs[0] > 0:
        return True
    return real_root_count(f) > 0


def locally_soluble_p(f: BinaryForm, p: int) -> bool:
    """Existence of a primitive Z_p-point on z^2 = f(x, y); Disc(f) != 0 and
    p must be prime (else ValueError).  The residue-disk descent decides
    exactly."""
    require_prime(p)
    disc = f.disc
    if disc == 0:
        raise ValueError("Disc(f) = 0")
    vdisc = _content_valuation([disc], p)
    depth_budget = vdisc + (2 if p == 2 else 0) + f.degree + 4
    affine = [int(c) for c in f.coeffs]  # f(t, 1); f(1, p t) is built only if needed
    if p == 2:
        return _decide_2(affine, 0, depth_budget) or _decide_2(
            _subst_shift_scale(affine[::-1], 0, 2), 0, depth_budget
        )
    return _decide_odd(affine, p, 0, depth_budget) or _decide_odd(
        _subst_shift_scale(affine[::-1], 0, p), p, 0, depth_budget
    )


def _subst_shift_scale(coeffs: list[int], t0: int, p: int) -> list[int]:
    """g(t0 + p*t), descending coefficients; exact Taylor shift then scale."""
    n = len(coeffs) - 1
    shifted = list(coeffs)
    for k in range(n):
        for j in range(1, n + 1 - k):
            shifted[j] += t0 * shifted[j - 1]
    return [c * p ** (n - i) for i, c in enumerate(shifted)]


def _content_valuation(coeffs: list[int], p: int) -> int:
    v = None
    for c in coeffs:
        if c == 0:
            continue
        w = 0
        while c % p == 0:
            c //= p
            w += 1
        v = w if v is None else min(v, w)
        if v == 0:
            return 0
    return 0 if v is None else v


def _decide_odd(g: list[int], p: int, depth: int, budget: int) -> bool:
    """Does g(t) take a square value (in Z_p) for some t in Z_p? p odd.  g is
    never 0: it starts as f(t, 1) or f(1, p t) with Disc(f) != 0, and
    g(t0 + p t) is nonzero when g is."""
    e = _content_valuation(g, p)
    h = [c // p**e for c in g]
    hbar = gfpoly.normalize(h, p)
    even = e % 2 == 0
    if even and _takes_unit_square_value(hbar, p):
        return True
    # refinement only at the residues where hbar vanishes
    roots = _fp_roots(hbar, p)
    if roots and depth >= budget:
        raise DescentBudgetError(f"descent at p={p} exceeded depth {budget}")
    for t0 in roots:
        if _decide_odd(_subst_shift_scale(g, t0, p), p, depth + 1, budget):
            return True
    return False


def _takes_unit_square_value(hbar: list[int], p: int) -> bool:
    """Is h(t) a nonzero square mod p for some t in F_p?  Scanned when
    p <= (d + 2)^2, d = deg h; above that the Weil bound decides.  Write
    h = c * s * G^2 with s monic squarefree of degree k.  If k >= 1, the
    curve z^2 = c * s(t) has genus g' = (k - 1) // 2, and Hasse-Weil gives
    #{t : c * s(t) a nonzero square} >= (p - 1 - 2 g' sqrt(p) - k) / 2,
    which exceeds deg G = (d - k) / 2 once p - (d - 1) sqrt(p) > d + 1, true
    for every p > (d + 2)^2; so some such t is not a root of G.  If k = 0,
    h = c * G^2 and its nonzero values are c times squares."""
    if len(hbar) - 1 == 0:
        return _is_qr(hbar[0], p)
    if p <= (len(hbar) + 1) ** 2:
        return any(_is_qr(gfpoly.gf_eval(hbar, t, p), p) for t in range(p))
    return not _is_lc_times_square(hbar, p) or _is_qr(hbar[0], p)


def _is_lc_times_square(hbar: list[int], p: int) -> bool:
    """Is hbar = c * G^2 over F_p (p odd, c its leading coefficient)?  The
    monic square root G is read off the top half of monic hbar and checked
    against the bottom half."""
    d = len(hbar) - 1
    if d % 2:
        return False
    m = d // 2
    inv = pow(hbar[0], -1, p)
    h = [c * inv % p for c in hbar]
    half = (p + 1) // 2  # 1/2 mod p
    g = [1] + [0] * m  # G = x^m + g_1 x^(m-1) + ... + g_m
    for k in range(1, m + 1):
        cross = sum(g[i] * g[k - i] for i in range(1, k))
        g[k] = (h[k] - cross) * half % p
    for k in range(m + 1, d + 1):
        if sum(g[i] * g[k - i] for i in range(k - m, m + 1)) % p != h[k]:
            return False
    return True


def _fp_roots(hbar: list[int], p: int) -> list[int]:
    """Roots of hbar in F_p (distinct), via gcd with x^p - x and splitting."""
    if len(hbar) - 1 == 0:
        return []
    if p <= 64:
        return [t for t in range(p) if gfpoly.gf_eval(hbar, t, p) == 0]
    x = [1, 0]
    xp = gfpoly.gf_powmod(x, p, hbar, p)
    lin = gfpoly.gf_gcd(gfpoly.add_mod(xp, [p - 1, 0], p), hbar, p)
    if len(lin) - 1 <= 0:
        return []
    rng = random.Random(0x5EED)
    factors = gfpoly.equal_degree_split(lin, 1, p, rng)
    return sorted((-fac[1]) % p for fac in factors)


def _is_qr(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def _decide_2(g: list[int], depth: int, budget: int) -> bool:
    """Does g(t) take a square value in Z_2 for some t in Z_2?"""
    ec = _content_valuation(g, 2)
    if ec >= 2:
        # dividing by an even power of 2 preserves squareness
        g = [c >> (2 * (ec // 2)) for c in g]
    v = g[-1]  # center value g(0)
    if v == 0:
        return True
    e0 = _val2(v)
    d1 = g[-2] if len(g) >= 2 else 0
    if d1 != 0 and e0 > 2 * _val2(d1):
        # Hensel: a simple root of g lies in this disk, and any disk with a
        # simple root realizes every unit class at every large even valuation
        return True
    tail = min((_val2(c) for c in g[:-1] if c != 0), default=1 << 60)
    if tail >= e0 + 3:
        # value class constant on the whole disk
        return e0 % 2 == 0 and ((v >> e0) & 7) == 1
    if depth >= budget:
        raise DescentBudgetError(f"descent at p=2 exceeded depth {budget}")
    return _decide_2(_subst_shift_scale(g, 0, 2), depth + 1, budget) or _decide_2(
        _subst_shift_scale(g, 1, 2), depth + 1, budget
    )


def _val2(c: int) -> int:
    return (c & -c).bit_length() - 1


def locally_soluble_everywhere(f: BinaryForm) -> tuple[bool, dict[str, bool]]:
    """Verdicts at the real place, p = 2, every odd p <= 4g^2 + 4, and every
    odd prime dividing Disc(f)."""
    disc = f.disc
    if disc == 0:
        raise ValueError("Disc(f) = 0")
    g = f.genus
    verdicts: dict[str, bool] = {"real": locally_soluble_R(f)}
    ps = set(primes_upto(4 * g * g + 4))  # contains 2
    ps.update(factorize(disc))
    for p in sorted(ps):
        verdicts[str(p)] = locally_soluble_p(f, p)
    return all(verdicts.values()), verdicts


@dataclass
class SurveyRecord:
    coeffs: tuple[int, ...]
    genus: int
    locally_soluble_overall: bool
    verdicts: dict[str, bool]
    point: tuple[int, int, int] | None
    search_bound: int

    def to_jsonable(self) -> dict:
        return {
            "coeffs": [str(c) for c in self.coeffs],
            "genus": self.genus,
            "locally_soluble": self.locally_soluble_overall,
            "verdicts": self.verdicts,
            "point": list(self.point) if self.point else None,
            "search_bound": self.search_bound,
        }


@dataclass
class SurveyAggregate:
    count: int
    locally_soluble: int
    with_point: int

    def to_jsonable(self) -> dict:
        return {
            "count": self.count,
            "locally_soluble": self.locally_soluble,
            "with_point": self.with_point,
            "locally_soluble_fraction": self.locally_soluble / self.count if self.count else None,
            "with_point_fraction": self.with_point / self.count if self.count else None,
        }


def _survey_one(args) -> SurveyRecord:
    f, B = args
    soluble, verdicts = locally_soluble_everywhere(f)
    pt = rational_point_search(f, B)
    return SurveyRecord(
        coeffs=f.coeffs,
        genus=f.genus,
        locally_soluble_overall=soluble,
        verdicts=verdicts,
        point=(pt.x0, pt.y0, pt.z0) if pt else None,
        search_bound=B,
    )


def survey(n: int, X: int, B: int, count: int, seed: int, jobs: int = 1):
    """Sample `count` squarefree forms of height <= X; report local
    solubility and small points.  Sampling happens up front, so records are
    deterministic per seed and independent of the worker count."""
    rng = random.Random(seed)
    forms = [random_nondegenerate_form(n, X, rng) for _ in range(count)]
    tasks = [(f, B) for f in forms]
    if jobs > 1 and count > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(_survey_one, tasks)
    else:
        records = [_survey_one(t) for t in tasks]
    agg = SurveyAggregate(
        count=len(records),
        locally_soluble=sum(r.locally_soluble_overall for r in records),
        with_point=sum(r.point is not None for r in records),
    )
    return records, agg
