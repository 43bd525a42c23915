"""Brute-force and formula-based statistics for pairs of symmetric matrices
over F_p: totals, orbit decompositions under SL_n^+- and stabilizers, counts
of square values on P^1, and the closed-form predictions they must match.

n = 2, p <= 7: a symmetric matrix [[m0, m1], [m1, m2]] is coded as
m0*p^2 + m1*p + m2 and a pair (A, B) as A*p^3 + B.  The census buckets all
p^6 pair codes by invariant form in one numpy pass.  An orbit is the image of
its smallest pair under every element of SL_2^+-(F_p) at once, and the
stabilizer is counted among those images, not derived from the orbit size.

n = 4, p = 2: the census evaluates det(Ax - By) at the five points of
P^1(F_4) for all 2^20 pairs in F_4 bit planes, bitsliced (Biham, FSE 1997):
each entry plane of the 2^10 matrices B is packed 64 to a uint64 word, each
entry of a row of A is an all-zeros or all-ones word, and one bitwise op
covers 64 pairs.  A numpy pass takes 256 rows of A against all of B, then
unpacks the five values into a 7-bit key per pair and tallies the keys with
bincount, 2^15 at a time.  In characteristic 2 the determinant is the
permanent, so a Laplace expansion along rows 0, 1 costs 30 products instead
of the 72 of the permutation sum.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import BinaryForm, factorization_type_mod_p, is_separable_mod_p
from .gfpoly import gf_eval
from .numutil import require_prime


class BudgetExceededError(RuntimeError):
    """Enumeration outside the supported (n, p) budget."""


N2_MAX_P = 7  # largest p for the n = 2 enumeration (p^6 pairs)


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


@lru_cache(maxsize=8)
def _group_sl2pm(p: int) -> np.ndarray:
    """All of SL_2^+-(F_p) (determinant +-1) as four int32 columns a, b, c, d."""
    g = np.indices((p,) * 4, dtype=np.int32).reshape(4, -1)
    a, b, c, d = g
    return g[:, np.isin((a * d - b * c) % p, (1, p - 1))]


def _images(g: np.ndarray, codes: np.ndarray, p: int) -> np.ndarray:
    """Codes of g M g^T for every group column of g (one row per code of M)."""
    a, b, c, d = g
    m = codes[:, None]
    m0, m1, m2 = m // (p * p), m // p % p, m % p
    r0, r1 = a * m0 + b * m1, a * m1 + b * m2  # rows of g M
    s0, s1 = c * m0 + d * m1, c * m1 + d * m2
    return ((r0 * a + r1 * b) % p * p + (r0 * c + r1 * d) % p) * p + (s0 * c + s1 * d) % p


def count_pairs_with_form(f: BinaryForm, p: int) -> OrbitStats:
    """Exhaustive count of pairs with invariant form f over F_p.

    n = 2, p <= 7: full enumeration plus orbit decomposition under
    SL_2^+-(F_p) with stabilizer sizes.  n = 4, p = 2: total count only via
    the vectorized 2^20 enumeration.  Anything else exceeds the budget.
    """
    require_prime(p)
    n = f.degree
    if n == 2 and p <= N2_MAX_P:
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
def pair_census_n2(p: int) -> dict[tuple[int, int, int], np.ndarray]:
    """All p^6 pairs (A, B) of symmetric 2 x 2 matrices over F_p as ascending
    int32 arrays of pair codes A*p^3 + B, bucketed by the invariant form
    (-1) * det(Ax - By) mod p."""
    require_prime(p)
    if p > N2_MAX_P:
        raise BudgetExceededError(f"n = 2 census at p = {p} is outside the enumeration budget")
    m0, m1, m2 = np.indices((p, p, p), dtype=np.int32).reshape(3, -1)
    neg_det = (m1 * m1 - m0 * m2) % p
    mixed = np.multiply.outer(m0, m2) + np.multiply.outer(m2, m0) - 2 * np.multiply.outer(m1, m1)
    key = ((neg_det[:, None] * p + mixed % p) * p + neg_det[None, :]).ravel()
    order = np.argsort(key, kind="stable").astype(np.int32)
    order.flags.writeable = False  # the buckets are views into it, shared through the cache
    forms, starts = np.unique(key[order], return_index=True)
    return {
        (k // (p * p), k // p % p, k % p): bucket
        for k, bucket in zip(forms.tolist(), np.split(order, starts[1:]))
    }


def _count_n2(f: BinaryForm, p: int) -> OrbitStats:
    target = tuple(c % p for c in f.coeffs)
    members = pair_census_n2(p).get(target, np.zeros(0, np.int32))
    g = _group_sl2pm(p)
    p3 = p**3
    alive = np.ones(len(members), bool)
    stab_sizes = []
    while alive.any():
        start = members[alive.argmax()]  # smallest pair not yet in an orbit
        A, B = _images(g, np.array([start // p3, start % p3]), p)
        orbit = A * p3 + B
        stab_sizes.append(int(np.count_nonzero(orbit == start)))
        alive[np.searchsorted(members, orbit)] = False
    sq = square_value_count(f, p) if p != 2 else None
    return OrbitStats(
        p=p,
        form=target,
        total_elements=len(members),
        orbit_count=len(stab_sizes),
        stabilizer_sizes=tuple(sorted(stab_sizes)),
        square_point_count=sq,
    )


# -- n = 4, p = 2: five-point determinant keys over F_4 ----------------------

_QUARTIC_BLOCK = 256  # rows of A per numpy pass: 256 x 2^10 = 2^18 pairs, 64 per word
_TALLY_SLICE = 1 << 15  # keys per bincount: a 256 KB intp copy, not 2 MB


def _f4_mul(x, y):
    # F_4 = F_2[w]/(w^2 + w + 1), elements stored as (lo, hi) bit planes
    (al, ah), (bl, bh) = x, y
    t = ah & bh
    return (al & bl) ^ t, (al & bh) ^ (ah & bl) ^ t


def _f4_add(x, y):
    return x[0] ^ y[0], x[1] ^ y[1]


def _det4(M, mul, add):
    """det of 4 x 4 matrices in characteristic 2, with entries M[i][j] over
    F_2 (mul = and, add = xor) or F_4.  There det is the permanent, so the
    Laplace expansion along rows 0, 1 needs no signs: 6 column pairs, each a
    top minor, a complementary bottom minor and their product, 30 products."""
    d = None
    for j, k in itertools.combinations(range(4), 2):
        l, m = (c for c in range(4) if c not in (j, k))
        top = add(mul(M[0][j], M[1][k]), mul(M[0][k], M[1][j]))
        bottom = add(mul(M[2][l], M[3][m]), mul(M[2][m], M[3][l]))
        d = mul(top, bottom) if d is None else add(d, mul(top, bottom))
    return d


@lru_cache(maxsize=1)
def _quartic_pair_table() -> np.ndarray:
    """counts[key] over all 2^20 pairs; key packs det(Ax-By) evaluated at
    (1:0), (0:1), (1:1) over F_2 and (w:1), (w^2:1) over F_4.  Read-only:
    the array is shared through the cache."""
    idx = np.arange(1 << 10)
    E = [[None] * 4 for _ in range(4)]  # entries of all 2^10 symmetric matrices
    for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(4), 2)):
        E[i][j] = E[j][i] = ((idx >> k) & 1).astype(np.uint8)
    det_all = _det4(E, operator.and_, operator.xor)
    # B side: bit b of word w is matrix 64w + b; A side: one all-0/all-1 word per row
    B = [[np.packbits(e, bitorder="little").view(np.uint64)[None, :] for e in row] for row in E]
    masks = [[(-e.astype(np.int64)).view(np.uint64)[:, None] for e in row] for row in E]
    counts = np.zeros(1 << 7, np.int64)
    for a0 in range(0, 1 << 10, _QUARTIC_BLOCK):
        A = [[m[a0 : a0 + _QUARTIC_BLOCK] for m in row] for row in masks]
        AB = [[x ^ y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
        dAB = _det4(AB, operator.and_, operator.xor)
        # at (w:1): entries w*A + B; at (w^2:1) = (w+1:1): entries (w+1)*A + B
        dl1, dh1 = _det4([list(zip(rb, ra)) for ra, rb in zip(A, B)], _f4_mul, _f4_add)
        dl2, dh2 = _det4([list(zip(rab, ra)) for ra, rab in zip(A, AB)], _f4_mul, _f4_add)
        key = (det_all[a0 : a0 + _QUARTIC_BLOCK, None] << 6) | (det_all[None, :] << 5)
        for shift, plane in zip((4, 3, 2, 1, 0), (dAB, dh1, dl1, dh2, dl2)):
            key |= np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little") << shift
        key = key.ravel()
        for k0 in range(0, key.size, _TALLY_SLICE):  # bincount copies its slice to intp
            counts += np.bincount(key[k0 : k0 + _TALLY_SLICE], minlength=1 << 7)
    counts.flags.writeable = False
    return counts


def _quartic_key(fc: tuple[int, ...]) -> int:
    """The census key of f mod 2: f at (1:0), (0:1), (1:1) over F_2 and at
    (w:1), (w^2:1) over F_4, by Horner's rule in F_4's bit planes."""
    vals = []
    for x in ((0, 1), (1, 1)):  # w and w^2 = w + 1
        acc = (0, 0)
        for c in fc:
            acc = _f4_add(_f4_mul(acc, x), (c, 0))
        vals.append(acc)
    (lo1, hi1), (lo2, hi2) = vals
    return (fc[0] << 6) | (fc[4] << 5) | (sum(fc) % 2 << 4) | (hi1 << 3) | (lo1 << 2) | (hi2 << 1) | lo2


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
    require_prime(p)
    if not is_separable_mod_p(f, p):
        raise ValueError("form is not separable mod p")
    n = f.degree
    m = factorization_type_mod_p(f, p).m
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
