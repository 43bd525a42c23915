"""Brute-force and formula-based statistics for pairs of symmetric matrices
over F_p: totals, orbit decompositions under SL_n^+- and stabilizers, counts
of square values on P^1, and the closed-form predictions they must match.

n = 2, p <= 7: a symmetric matrix [[m0, m1], [m1, m2]] is coded as
m0*p^2 + m1*p + m2 and a pair (A, B) as A*p^3 + B.  The census buckets all
p^6 pair codes by invariant form in one numpy pass, a counting sort on the
form code.  An orbit is the image of its smallest pair under every element
of SL_2^+-(F_p) at once, one product with the congruence matrices of g on
(m0, m1, m2), and the stabilizer is counted among those images, not derived
from the orbit size.

n = 4, p = 2: over F_2 each entry of Ax - By is the linear form with
coefficient planes (entry of A, entry of B), and the census multiplies these
forms plane by plane (AND for products, XOR for sums) into the five
coefficient planes of det(Ax - By) for all 2^20 pairs, bitsliced (Biham, FSE
1997): each entry plane of the 2^10 matrices B is packed 64 to a uint64 word,
each entry of a row of A is an all-zeros or all-ones word, and one bitwise op
covers 64 pairs.  A numpy pass takes 256 rows of A against all of B, splits
the block on each plane in turn into 32 leaves, one per form mod 2, and
counts each leaf by popcount.  In characteristic 2 the determinant is the
permanent, so a Laplace expansion along rows 0, 1 needs no signs.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import BinaryForm, is_separable_mod_p, separable_factor_count_mod_p
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
    """All of SL_2^+-(F_p) (determinant +-1) as congruence matrices S_g of
    shape (|G|, 3, 3): S_g (m0, m1, m2) = g M g^T mod p in the coordinates of
    M = [[m0, m1], [m1, m2]]."""
    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    a, b, c, d = (x[np.isin((a * d - b * c) % p, (1, p - 1))] for x in (a, b, c, d))
    S = np.stack([a * a, 2 * a * b, b * b, a * c, a * d + b * c, b * d, c * c, 2 * c * d, d * d], axis=1)
    return (S % p).reshape(-1, 3, 3)


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
        form = tuple(c % 2 for c in f.coeffs)
        return OrbitStats(p=2, form=form, total_elements=int(_quartic_pair_table()[_quartic_key(form)]))
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
    # the form code is below p^3 <= 343: a stable argsort of uint16 is a radix sort
    key = ((neg_det[:, None] * p + mixed % p) * p + neg_det[None, :]).ravel().astype(np.uint16)
    order = np.argsort(key, kind="stable").astype(np.int32)
    order.flags.writeable = False  # the buckets are views into it, shared through the cache
    sizes = np.bincount(key, minlength=p**3)
    return {
        (k // (p * p), k // p % p, k % p): order[end - size : end]
        for k, (size, end) in enumerate(zip(sizes.tolist(), np.cumsum(sizes).tolist()))
        if size
    }


def _count_n2(f: BinaryForm, p: int) -> OrbitStats:
    target = tuple(c % p for c in f.coeffs)
    members = pair_census_n2(p).get(target, np.zeros(0, np.int32))
    S = _group_sl2pm(p)
    weights = p ** np.arange(5, -1, -1)  # of the base-p digits A0 A1 A2 B0 B1 B2 of a pair code
    alive = np.ones(len(members), bool)
    stab_sizes = []
    while alive.any():
        start = int(members[alive.argmax()])  # smallest pair not yet in an orbit
        AB = (start // weights % p).reshape(2, 3)
        orbit = (AB @ np.swapaxes(S, 1, 2) % p).reshape(len(S), 6) @ weights  # (g A g^T, g B g^T) for every g
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


# -- n = 4, p = 2: coefficient planes of det(Ax - By) over F_2 ---------------

_QUARTIC_BLOCK = 256  # rows of A per numpy pass: 256 x 2^10 = 2^18 pairs, 64 per word


def _form_mul(u, v):
    """Product of binary forms over F_2 given by their coefficient planes,
    x^d first: AND for products, XOR for sums."""
    w = [None] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            w[i + j] = a & b if w[i + j] is None else w[i + j] ^ (a & b)
    return w


def _form_add(u, v):
    return [a ^ b for a, b in zip(u, v)]


def _det4(M):
    """det of 4 x 4 matrices of binary forms over F_2.  In characteristic 2
    det is the permanent, so the Laplace expansion along rows 0, 1 needs no
    signs: 6 column pairs, each a top minor times its complementary minor."""
    d = None
    for j, k in itertools.combinations(range(4), 2):
        l, m = (c for c in range(4) if c not in (j, k))
        top = _form_add(_form_mul(M[0][j], M[1][k]), _form_mul(M[0][k], M[1][j]))
        bottom = _form_add(_form_mul(M[2][l], M[3][m]), _form_mul(M[2][m], M[3][l]))
        d = _form_mul(top, bottom) if d is None else _form_add(d, _form_mul(top, bottom))
    return d


def _leaf_counts(leaf, planes) -> list[int]:
    """Pairs of the packed leaf in each of the 2^len(planes) classes of their
    bits in planes, the first plane the most significant."""
    if not planes:
        return [np.count_nonzero(np.unpackbits(leaf.view(np.uint8)))]
    hi = leaf & planes[0]
    return _leaf_counts(leaf ^ hi, planes[1:]) + _leaf_counts(hi, planes[1:])


@lru_cache(maxsize=1)
def _quartic_pair_table() -> np.ndarray:
    """counts[key] over all 2^20 pairs, keyed by the coefficient bits of
    det(Ax - By) mod 2, x^4 first.  Read-only: the array is shared through
    the cache."""
    idx = np.arange(1 << 10)
    E = [[None] * 4 for _ in range(4)]  # entries of all 2^10 symmetric matrices
    for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(4), 2)):
        E[i][j] = E[j][i] = ((idx >> k) & 1).astype(np.uint8)
    # B side: bit b of word w is matrix 64w + b; A side: one all-0/all-1 word per row
    B = [[np.packbits(e, bitorder="little").view(np.uint64)[None, :] for e in row] for row in E]
    masks = [[(-e.astype(np.int64)).view(np.uint64)[:, None] for e in row] for row in E]
    counts = np.zeros(1 << 5, np.int64)
    for a0 in range(0, 1 << 10, _QUARTIC_BLOCK):
        planes = _det4([[[x[a0 : a0 + _QUARTIC_BLOCK], y] for x, y in zip(ra, rb)] for ra, rb in zip(masks, B)])
        # planes[1], the x^3 y coefficient, mixes A and B: it has the block's full shape
        counts += _leaf_counts(np.full(planes[1].shape, ~np.uint64(0)), planes)
    counts.flags.writeable = False
    return counts


def _quartic_key(fc: tuple[int, ...]) -> int:
    """The census key of f mod 2: its coefficient bits, x^4 first."""
    return sum(c << (4 - i) for i, c in enumerate(fc))


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
    m = separable_factor_count_mod_p(f, p)
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
