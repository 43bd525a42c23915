"""Brute-force and formula-based statistics for pairs of symmetric matrices
over F_p: totals, orbit decompositions under SL_n^+- and stabilizers, counts
of square values on P^1, and the closed-form predictions they must match.

n = 2, p <= 7: a symmetric matrix [[m0, m1], [m1, m2]] is coded as
m0*p^2 + m1*p + m2 and a pair (A, B) as A*p^3 + B.  The census buckets all
p^6 pair codes by invariant form in one numpy pass, a counting sort on the
form code.  An orbit is the image of its smallest pair under every element
of SL_2^+-(F_p) at once, one 2-D product of the stacked congruence matrices
of g on (m0, m1, m2) with the coordinates of A and B, and the stabilizer is
counted among those images, not derived from the orbit size.

n = 4, p = 2: over F_2 each entry of Ax - By is the linear form with
coefficient planes (entry of A, entry of B), and `_det4` multiplies these
forms plane by plane (AND for products, XOR for sums) into the five
coefficient planes of det(Ax - By); in characteristic 2 the determinant is
the permanent, so a Laplace expansion along rows 0, 1 needs no signs.  The
census runs one A from each GL_4(F_2)-congruence class against all 2^10
matrices B and weights each 32-bin form histogram by the class size.  Proof
that the histogram depends only on the class of A: det g = 1 for g in
GL_4(F_2), so B -> g B g^T permutes the symmetric matrices and
det(gAg^T x - gBg^T y) = det(Ax - By).  Over F_2, v -> v A v^T is linear and
vanishes on the radical {v : vA = 0}, so A is congruent to a nondegenerate
form of rank r padded with zeros, alternating (zero diagonal) exactly when A
is, and nondegenerate symmetric forms in characteristic 2 are congruent to
I_r, or to the hyperbolic form when alternating (Albert, "Symmetric and
alternate matrices in an arbitrary field", Trans. AMS 43, 1938).  So rank
and alternation fix the class: #{v : vA = 0} = 2^(4 - r) and the zero
diagonal split the 2^10 matrices into seven classes of sizes 1, 15, 35, 105,
420, 28 and 420.
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
    """All of SL_2^+-(F_p) (determinant +-1) as congruence matrices S_g
    stacked into shape (3|G|, 3): rows 3g..3g+2 are S_g, and
    S_g (m0, m1, m2) = g M g^T mod p in the coordinates of
    M = [[m0, m1], [m1, m2]]."""
    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    a, b, c, d = (x[np.isin((a * d - b * c) % p, (1, p - 1))] for x in (a, b, c, d))
    S = np.stack([a * a, 2 * a * b, b * b, a * c, a * d + b * c, b * d, c * c, 2 * c * d, d * d], axis=1)
    return (S % p).reshape(-1, 3)


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
    # the place values of a pair code's base-p digits in the order A0 B0 A1 B1 A2 B2:
    # start // weights % p, shaped (3, 2), is the matrix whose columns are A and B
    weights = p ** np.array([5, 2, 4, 1, 3, 0])
    # entries of the product are sums of three products of residues: reduce them by lookup
    residue = np.arange(3 * (p - 1) ** 2 + 1) % p
    alive = np.ones(len(members), bool)
    stab_sizes = []
    while alive.any():
        start = int(members[alive.argmax()])  # smallest pair not yet in an orbit
        # row g of the product holds the digits of (g A g^T, g B g^T) in the same order
        orbit = residue[S @ (start // weights % p).reshape(3, 2)].reshape(-1, 6) @ weights
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


@lru_cache(maxsize=1)
def _quartic_pair_table() -> np.ndarray:
    """counts[key] over all 2^20 pairs, keyed by the coefficient bits of
    det(Ax - By) mod 2, x^4 first: over the congruence classes of A, the class
    size times the form histogram of one member against all 2^10 matrices B.
    Read-only: the array is shared through the cache."""
    idx = np.arange(1 << 10)
    E = [[None] * 4 for _ in range(4)]  # 0/1 entries of all 2^10 symmetric matrices
    for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(4), 2)):
        E[i][j] = E[j][i] = ((idx >> k) & 1).astype(np.uint8)
    images = [np.zeros(1 << 10, np.uint8)]  # vA for the 16 vectors v, coded in 4 bits
    for row in E:
        r = sum(e << j for j, e in enumerate(row))
        images += [w ^ r for w in images]
    kernel = np.count_nonzero(np.equal(images, 0), axis=0)  # 2^(4 - rank A)
    not_alternating = E[0][0] | E[1][1] | E[2][2] | E[3][3]
    # one label per (rank, alternating) class; reps holds the first member of each
    _, reps, sizes = np.unique(not_alternating - 2 * kernel, return_index=True, return_counts=True)
    planes = _det4([[[e[reps, None], e[None, :]] for e in row] for row in E])  # the pairs (rep, B)
    key = sum(plane << (4 - i) for i, plane in enumerate(planes))
    counts = sizes @ np.array([np.bincount(k, minlength=1 << 5) for k in key])
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
