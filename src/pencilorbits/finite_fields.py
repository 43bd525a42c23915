"""Brute-force and formula-based statistics for pairs of symmetric matrices
over F_p: totals, orbit decompositions under SL_n^+- and stabilizers, counts
of square values on P^1, and the closed-form predictions they must match.

The n = 2 enumerations work with explicit little matrices; the n = 4, p = 2
total count evaluates det(Ax - By) at five points of P^1(F_4) for all 2^20
pairs with numpy bit-plane arithmetic and tallies invariant forms by key.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import BinaryForm, distinct_factor_count_mod_p, is_separable_mod_p
from .gfpoly import gf_eval


class BudgetExceededError(RuntimeError):
    """Enumeration outside the supported (n, p) budget."""


@dataclass
class OrbitStats:
    p: int
    form: tuple[int, ...]  # reduced coefficients mod p
    total_elements: int
    orbit_count: int | None = None
    stabilizer_sizes: tuple[int, ...] = ()
    square_point_count: int | None = None

    def consistent(self, group_order: int) -> bool:
        """total = sum over orbits of group_order / stabilizer size."""
        if self.orbit_count is None:
            return True
        if len(self.stabilizer_sizes) != self.orbit_count:
            return False
        return self.total_elements == sum(group_order // s for s in self.stabilizer_sizes)


def sl_n_order(n: int, p: int) -> int:
    """#SL_n(F_p) = p^(n(n-1)/2) * prod_(k=2)^n (p^k - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


def _sym_matrices(n: int, p: int):
    """All symmetric n x n matrices over F_p as tuples of row tuples."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for vals in itertools.product(range(p), repeat=len(pairs)):
        M = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, vals):
            M[i][j] = M[j][i] = v
        yield tuple(tuple(r) for r in M)


def _invariant_form_2x2(A, B, p: int) -> tuple[int, int, int]:
    """(-1) * det(Ax - By) coefficients mod p for n = 2."""
    f0 = -(A[0][0] * A[1][1] - A[0][1] ** 2)
    f2 = -(B[0][0] * B[1][1] - B[0][1] ** 2)
    f1 = A[0][0] * B[1][1] + A[1][1] * B[0][0] - 2 * A[0][1] * B[0][1]
    return (f0 % p, f1 % p, f2 % p)


@lru_cache(maxsize=8)
def _group_sl2pm(p: int) -> tuple:
    """All of SL_2^+-(F_p) (determinant +-1)."""
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p in (1, p - 1):
            out.append(((a, b), (c, d)))
    return tuple(out)


def _act(g, M, p: int):
    n = len(M)
    gM = [[sum(g[i][k] * M[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    out = [[sum(gM[i][k] * g[j][k] for k in range(n)) % p for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in out)


def count_pairs_with_form(f: BinaryForm, p: int) -> OrbitStats:
    """Exhaustive count of pairs with invariant form f over F_p.

    n = 2, p <= 7: full enumeration plus orbit decomposition under
    SL_2^+-(F_p) with stabilizer sizes.  n = 4, p = 2: total count only via
    the vectorized 2^20 enumeration.  Anything else exceeds the budget.
    """
    n = f.degree
    if n == 2 and p <= 7:
        return _count_n2(f, p)
    if n == 4 and p == 2:
        key = _quartic_key(tuple(c % 2 for c in f.coeffs))
        table = _quartic_pair_table()
        return OrbitStats(
            p=2,
            form=tuple(c % 2 for c in f.coeffs),
            total_elements=int(table[key]),
            square_point_count=None,
        )
    raise BudgetExceededError(f"(n, p) = ({n}, {p}) is outside the enumeration budget")


@lru_cache(maxsize=8)
def pair_census_n2(p: int) -> dict[tuple[int, int, int], list]:
    """All of V(F_2x2) bucketed by invariant form (one enumeration per p)."""
    census: dict[tuple[int, int, int], list] = {}
    mats = list(_sym_matrices(2, p))
    for A in mats:
        for B in mats:
            census.setdefault(_invariant_form_2x2(A, B, p), []).append((A, B))
    return census


def _count_n2(f: BinaryForm, p: int) -> OrbitStats:
    target = tuple(c % p for c in f.coeffs)
    members = pair_census_n2(p).get(target, [])
    # S, T generate SL_2(F_p); J extends to determinant -1
    gens = (((0, 1), (p - 1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, p - 1)))
    remaining = set(members)
    orbit_sizes = []
    stab_sizes = []
    group = _group_sl2pm(p)
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            A, B = frontier.pop()
            for g in gens:
                img = (_act(g, A, p), _act(g, B, p))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbit_sizes.append(len(orbit))
        A0, B0 = start
        stab = sum(1 for g in group if (_act(g, A0, p), _act(g, B0, p)) == (A0, B0))
        stab_sizes.append(stab)
    sq = square_value_count(f, p) if p != 2 else None
    return OrbitStats(
        p=p,
        form=target,
        total_elements=len(members),
        orbit_count=len(orbit_sizes),
        stabilizer_sizes=tuple(sorted(stab_sizes)),
        square_point_count=sq,
    )


# -- n = 4, p = 2: five-point determinant keys over F_4 ----------------------

def _det4_f2(M: np.ndarray) -> np.ndarray:
    d = np.zeros(M.shape[:-2], np.uint8)
    for perm in itertools.permutations(range(4)):
        t = M[..., 0, perm[0]] & M[..., 1, perm[1]] & M[..., 2, perm[2]] & M[..., 3, perm[3]]
        d ^= t
    return d


def _det4_f4(Ml: np.ndarray, Mh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # F_4 = F_2[w]/(w^2 + w + 1), elements stored as (lo, hi) bit planes
    def f4_mul(al, ah, bl, bh):
        t = ah & bh
        return (al & bl) ^ t, (al & bh) ^ (ah & bl) ^ t

    dl = np.zeros(Ml.shape[:-2], np.uint8)
    dh = dl.copy()
    for perm in itertools.permutations(range(4)):
        pl, ph = Ml[..., 0, perm[0]], Mh[..., 0, perm[0]]
        for r in range(1, 4):
            pl, ph = f4_mul(pl, ph, Ml[..., r, perm[r]], Mh[..., r, perm[r]])
        dl ^= pl
        dh ^= ph
    return dl, dh


@lru_cache(maxsize=1)
def _quartic_pair_table() -> np.ndarray:
    """counts[key] over all 2^20 pairs; key packs det(Ax-By) evaluated at
    (1:0), (0:1), (1:1) over F_2 and (w:1), (w^2:1) over F_4."""
    idx = np.arange(1 << 10, dtype=np.uint32)
    bits = ((idx[:, None] >> np.arange(10)) & 1).astype(np.uint8)
    M = np.zeros((1 << 10, 4, 4), np.uint8)
    k = 0
    for i in range(4):
        for j in range(i, 4):
            M[:, i, j] = bits[:, k]
            M[:, j, i] = bits[:, k]
            k += 1
    detM = _det4_f2(M)
    counts = np.zeros(1 << 7, np.int64)
    for a in range(1 << 10):
        A = M[a]
        dA = int(detM[a])
        dB = detM
        dAB = _det4_f2(A[None] ^ M)
        # at (w:1): entries w*A + B; at (w^2:1) = (w+1:1): entries (w+1)*A + B
        dl1, dh1 = _det4_f4(np.broadcast_to(M, M.shape), np.broadcast_to(A[None], M.shape))
        dl2, dh2 = _det4_f4(A[None] ^ M, np.broadcast_to(A[None], M.shape))
        key = (
            (np.int64(dA) << 6)
            | (dB.astype(np.int64) << 5)
            | (dAB.astype(np.int64) << 4)
            | (dh1.astype(np.int64) << 3)
            | (dl1.astype(np.int64) << 2)
            | (dh2.astype(np.int64) << 1)
            | dl2.astype(np.int64)
        )
        counts += np.bincount(key, minlength=1 << 7)
    return counts


def _quartic_key(fc: tuple[int, ...]) -> int:
    f0, f1, f2, f3, f4 = fc
    e10 = f0
    e01 = f4
    e11 = (f0 + f1 + f2 + f3 + f4) % 2
    # powers of w: w^3 = 1; f(w,1) uses w^(4-i) for i = 0..4
    pw = [(0, 1), (1, 0), (1, 1), (0, 1), (1, 0)]  # w, 1, w^2, w, 1 -> exps 4,3,2,1,0
    lo = hi = 0
    for c, (l, h) in zip(fc, pw):
        if c:
            lo ^= l
            hi ^= h
    pw2 = [(1, 1), (1, 0), (0, 1), (1, 1), (1, 0)]  # exps 8,6,4,2,0 mod 3
    lo2 = hi2 = 0
    for c, (l, h) in zip(fc, pw2):
        if c:
            lo2 ^= l
            hi2 ^= h
    return (e10 << 6) | (e01 << 5) | (e11 << 4) | (hi << 3) | (lo << 2) | (hi2 << 1) | lo2


def square_value_count(f: BinaryForm, p: int) -> int:
    """k = #{(a:b) in P^1(F_p) : f(a,b) is a square}, 0 counted as a square."""
    if p == 2:
        raise ValueError("defined for odd p")
    squares = {(x * x) % p for x in range(p)}
    # f(a, 1) for a in F_p, then f(1, 0) = f0
    k = sum(gf_eval(f.coeffs, a, p) in squares for a in range(p))
    return k + (f.coeffs[0] % p in squares)


def orbit_statistics_prediction(f: BinaryForm, p: int) -> OrbitStats:
    """Closed-form predictions for separable f mod p: 2^(m-1) orbits with
    stabilizers of size 2^m for odd p (one orbit, trivial stabilizer at
    p = 2); total elements #SL_n(F_p) either way."""
    if not is_separable_mod_p(f, p):
        raise ValueError("form is not separable mod p")
    n = f.degree
    m = distinct_factor_count_mod_p(f, p)
    total = sl_n_order(n, p)
    if p == 2:
        orbits, stab = 1, 1
    else:
        orbits, stab = 2 ** (m - 1), 2**m
    return OrbitStats(
        p=p,
        form=tuple(c % p for c in f.coeffs),
        total_elements=total,
        orbit_count=orbits,
        stabilizer_sizes=tuple([stab] * orbits),
        square_point_count=square_value_count(f, p) if p != 2 else None,
    )
