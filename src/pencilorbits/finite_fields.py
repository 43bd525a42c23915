"""Brute-force and formula-based statistics for pairs of symmetric matrices
over F_p: totals, orbit decompositions under SL_n^+- and stabilizers, counts
of square values on P^1, and the closed-form predictions they must match.

n = 2, p <= 7: a symmetric matrix [[m0, m1], [m1, m2]] is coded as
m0*p^2 + m1*p + m2 and a pair (A, B) as A*p^3 + B.  The invariant form of
(A, B) is (-det A, A0 B2 + A2 B0 - 2 A1 B1, -det B), so the census groups the
p^3 matrices by -det, and a form's pairs are the (A, B) from its two fibres
whose mixed coefficient is f1: one small product of the coordinates
(A0, A1, A2) with (B2, -2 B1, B0) per pair of fibres, kept for the forms
that share them.  An orbit is the image of its smallest pair under every
element of SL_2^+-(F_p), g A g^T * p^3 + g B g^T read from cached rows of
image codes, one row per matrix, and the stabilizer is counted among those
images, not derived from the orbit size.

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
    """All of SL_2^+-(F_p) (determinant +-1) as congruence matrices S_g
    stacked into shape (3|G|, 3): rows 3g..3g+2 are S_g, and
    S_g (m0, m1, m2) = g M g^T mod p in the coordinates of
    M = [[m0, m1], [m1, m2]]."""
    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    det = (a * d - b * c) % p
    a, b, c, d = (x[(det == 1) | (det == p - 1)] for x in (a, b, c, d))
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
def pair_census_n2(p: int) -> tuple[np.ndarray, ...]:
    """The p^3 symmetric 2 x 2 matrices over F_p grouped by -det mod p:
    entry d holds the ascending codes m0*p^2 + m1*p + m2 of the matrices
    with m1^2 - m0*m2 = d mod p, read-only (shared through the cache).  The
    pairs with invariant form (f0, f1, f2) have A in fibre f0 and B in
    fibre f2; `_fibre_pairs` picks them out by f1."""
    require_prime(p)
    if p > N2_MAX_P:
        raise BudgetExceededError(f"n = 2 census at p = {p} is outside the enumeration budget")
    m0, m1, m2 = np.indices((p, p, p)).reshape(3, -1)
    neg_det = (m1 * m1 - m0 * m2) % p
    fibres = tuple(np.flatnonzero(neg_det == d) for d in range(p))
    for fibre in fibres:
        fibre.flags.writeable = False
    return fibres


@lru_cache(maxsize=128)  # every (p, f0, f2) with p <= 7
def _fibre_pairs(p: int, f0: int, f2: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (A, B) with A in fibre f0 and B in fibre f2 of
    pair_census_n2(p) as ascending codes A*p^3 + B, and beside each the xy
    coefficient A0 B2 + A2 B0 - 2 A1 B1 mod p of its invariant form, from
    one product of the coordinates (A0, A1, A2) with (B2, -2 B1, B0).
    Read-only: shared through the cache."""
    fibres = pair_census_n2(p)
    place = np.array([p * p, p, 1])
    A, B = fibres[f0], fibres[f2]
    codes = (A[:, None] * p**3 + B).ravel()
    mixed = ((A[:, None] // place % p) @ (B[:, None] // place[::-1] % p * (1, -2, 1)).T % p).ravel()
    codes.flags.writeable = mixed.flags.writeable = False
    return codes, mixed


def _pairs_n2(fc: tuple[int, int, int], p: int) -> np.ndarray:
    """The ascending codes A*p^3 + B of the pairs with invariant form fc,
    whose coefficients are reduced mod p."""
    f0, f1, f2 = fc
    codes, mixed = _fibre_pairs(p, f0, f2)
    return codes[mixed == f1]


@lru_cache(maxsize=1024)  # every symmetric matrix for p <= 7
def _matrix_images(p: int, M: int) -> np.ndarray:
    """Codes of g M g^T for g over SL_2^+-(F_p), in _group_sl2pm's order,
    for the symmetric matrix with code M.  Read-only: shared through the
    cache."""
    digits = np.array([M // (p * p), M // p % p, M % p])
    images = (_group_sl2pm(p) @ digits % p).reshape(-1, 3) @ np.array([p * p, p, 1])
    images.flags.writeable = False
    return images


def _count_n2(f: BinaryForm, p: int) -> OrbitStats:
    target = tuple(c % p for c in f.coeffs)
    members = _pairs_n2(target, p)
    seen = np.zeros(p**6, bool)  # indexed by pair code
    rest, stab_sizes = members, []
    while len(rest):
        start = int(rest[0])  # smallest pair not yet in an orbit
        A, B = divmod(start, p**3)
        orbit = _matrix_images(p, A) * p**3 + _matrix_images(p, B)
        stab_sizes.append(int(np.count_nonzero(orbit == start)))
        seen[orbit] = True
        rest = rest[~seen[rest]]
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
    """k = #{(a:b) in P^1(F_p) : f(a,b) is a square}, 0 counted as a square.
    ValueError unless p is an odd prime."""
    require_prime(p)
    if p == 2:
        raise ValueError("defined for odd p")
    return _square_value_count(tuple(c % p for c in f.coeffs), p)


@lru_cache(maxsize=1024)
def _square_value_count(fc: tuple[int, ...], p: int) -> int:
    """square_value_count for the coefficients fc reduced mod p, cached so
    that a count and the prediction checked against it share the work."""
    squares = {(x * x) % p for x in range(p)}
    # f(a, 1) for a in F_p, then f(1, 0) = f0
    return sum(gf_eval(fc, a, p) in squares for a in range(p)) + (fc[0] in squares)


def orbit_statistics_prediction(f: BinaryForm, p: int) -> OrbitStats:
    """Closed-form predictions for separable f mod p: 2^(m-1) orbits with
    stabilizers of size 2^m for odd p, m the number of irreducible factors of
    f over F_p, computed for odd p only (one orbit, trivial stabilizer at
    p = 2, where m plays no part); total elements #SL_n(F_p) either way.
    ValueError unless p is prime and f is separable mod p.

    At n = 2, m = 2 exactly when Disc(f) is a nonzero square mod p, read by
    Euler's criterion from the cached f.disc (pow reduces a negative Disc
    into [0, p)).  Proof, p odd and f separable, so p does not divide Disc:
    if f0 != 0 mod p, f splits into two distinct linear forms exactly when
    Disc = f1^2 - 4 f0 f2 is a square, by the quadratic formula; if
    f0 = 0 mod p, f = y (f1 x + f2 y) with f1 != 0, so Disc = f1^2 is a
    square and m = 2.  At n >= 4 the parity law (-1)^(n-m) = (Disc / p)
    (Stickelberger) does not fix m, which comes from the factorization."""
    if not is_separable_mod_p(f, p):
        raise ValueError("form is not separable mod p")
    n = f.degree
    total = sl_n_order(n, p)
    if p == 2:
        orbits, stab = 1, 1
    else:
        if n == 2:
            m = 2 if pow(f.disc, (p - 1) // 2, p) == 1 else 1
        else:
            m = factorization_type_mod_p(f, p).m
        orbits, stab = 2 ** (m - 1), 2**m
    return OrbitStats(
        p=p,
        form=tuple(c % p for c in f.coeffs),
        total_elements=total,
        orbit_count=orbits,
        stabilizer_sizes=tuple([stab] * orbits),
        square_point_count=square_value_count(f, p) if p != 2 else None,
    )
