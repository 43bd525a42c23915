"""The rank-n ring R_f attached to a binary form, its based ideals, element
arithmetic in K_f = Q[x]/(f(x,1)), norms, and square-class testing.

Basis conventions.  Elements of K_f carry power-basis coordinates
(1, theta, ..., theta^(n-1)) as Fractions.  R_f has the integral basis
(1, zeta_1, ..., zeta_(n-1)) with zeta_k = f0*theta^k + ... + f_(k-1)*theta;
the two are related by an integer triangular transition with diagonal
(1, f0, ..., f0), so conversions are exact.  Based ideals store an ordered
basis; their norm is the (positive, by convention) determinant of the
transition to the R_f basis.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm

import numpy as np

from . import gfpoly, intpoly
from .forms import BinaryForm
from .numutil import det, hnf_rows, is_prime, solve, solve_columns


class SquareClassVerdict(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AlgebraElement:
    """Element of K_f = Q[x]/(f(x,1)) in power-basis coordinates (length n,
    Fractions).  K_f needs f0 != 0, checked here, where all K_f work starts."""

    form: BinaryForm
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.form.degree
        if self.form.coeffs[0] == 0:
            raise ValueError("K_f requires a nonzero leading coefficient f0")
        if len(self.coords) != n:
            raise ValueError(f"need {n} coordinates")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __add__(self, other):
        other = _coerce(self.form, other)
        return AlgebraElement(self.form, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = _coerce(self.form, other)
        return AlgebraElement(self.form, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgebraElement(self.form, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.form, tuple(a * other for a in self.coords))
        return algebra_mul(self, other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def numerator_poly(self) -> tuple[list[int], int]:
        """(integer polynomial G descending, positive D) with self = G(theta)/D."""
        den = lcm(*[c.denominator for c in self.coords]) if self.coords else 1
        poly = [int(c * den) for c in reversed(self.coords)]
        return intpoly.strip(poly), den

    def inverse(self) -> "AlgebraElement":
        return algebra_inverse(self)


def _coerce(form: BinaryForm, x) -> AlgebraElement:
    if isinstance(x, AlgebraElement):
        if x.form != form:
            raise ValueError("elements belong to different algebras")
        return x
    n = form.degree
    return AlgebraElement(form, (Fraction(x),) + (Fraction(0),) * (n - 1))


def element_one(f: BinaryForm) -> AlgebraElement:
    return _coerce(f, 1)


def element_theta(f: BinaryForm) -> AlgebraElement:
    return linear_element(f, 1, 0)


def linear_element(f: BinaryForm, a, b) -> AlgebraElement:
    """a*theta + b."""
    n = f.degree
    coords = [Fraction(0)] * n
    coords[0] = Fraction(b)
    coords[1] = Fraction(a)
    return AlgebraElement(f, tuple(coords))


@lru_cache(maxsize=256)
def _theta_power_table(coeffs: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates of theta^k for k = 0 .. 2n-2."""
    n = len(coeffs) - 1
    f0 = coeffs[0]
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * n
    cur[0] = Fraction(1)
    rows.append(tuple(cur))
    for _ in range(2 * n - 2):
        # multiply by theta: shift, then reduce theta^n = -(f1 theta^(n-1)+...+fn)/f0
        top = cur[n - 1]
        cur = [Fraction(0)] + cur[: n - 1]
        if top:
            for j in range(n):
                cur[j] -= top * Fraction(coeffs[n - j], f0)
        rows.append(tuple(cur))
    return tuple(rows)


def algebra_mul(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    if u.form != v.form:
        raise ValueError("elements belong to different algebras")
    n = u.form.degree
    table = _theta_power_table(u.form.coeffs)
    conv = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(u.coords):
        if a:
            for j, b in enumerate(v.coords):
                if b:
                    conv[i + j] += a * b
    out = [Fraction(0)] * n
    for k, c in enumerate(conv):
        if c:
            row = table[k]
            for j in range(n):
                if row[j]:
                    out[j] += c * row[j]
    return AlgebraElement(u.form, tuple(out))


def algebra_norm(u: AlgebraElement) -> Fraction:
    """Norm via Res(f(x,1), G(x))/(f0^deg(G) * D^n) for u = G(theta)/D."""
    f = u.form
    G, D = u.numerator_poly()
    if not G:
        return Fraction(0)
    f0 = f.coeffs[0]
    res = intpoly.resultant(f.univariate(), G)
    return Fraction(res, f0 ** (len(G) - 1) * D**f.degree)


def algebra_inverse(u: AlgebraElement) -> AlgebraElement:
    """Inverse in K_f: the solution x of u*x = 1, from one exact solve with
    the matrix of multiplication by u (columns u*theta^j)."""
    f = u.form
    if u.is_zero():
        raise ZeroDivisionError("zero element")
    powers = _theta_power_table(f.coeffs)[: f.degree]
    cols = [algebra_mul(u, AlgebraElement(f, t)).coords for t in powers]
    try:
        x = solve(list(zip(*cols)), element_one(f).coords)
    except ValueError:
        raise ZeroDivisionError("element is a zero divisor") from None
    return AlgebraElement(f, tuple(x))


# ---------------------------------------------------------------------------
# The ring R_f and its zeta basis


@lru_cache(maxsize=256)
def _zeta_matrix(coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Columns = power-basis coordinates of (1, zeta_1, ..., zeta_(n-1));
    entry [j][k] is the theta^j coefficient of basis element k."""
    n = len(coeffs) - 1
    Z = [[0] * n for _ in range(n)]
    Z[0][0] = 1
    for k in range(1, n):
        # zeta_k = f0 theta^k + f1 theta^(k-1) + ... + f_(k-1) theta
        for j in range(1, k + 1):
            Z[j][k] = coeffs[k - j]
    return tuple(tuple(row) for row in Z)


def zeta_element(f: BinaryForm, k: int) -> AlgebraElement:
    """zeta_k as an element (zeta_0 := 1; zeta_n would be the scalar -f_n)."""
    n = f.degree
    if k == 0:
        return element_one(f)
    if not 1 <= k <= n - 1:
        raise ValueError("zeta index out of range")
    Z = _zeta_matrix(f.coeffs)
    return AlgebraElement(f, tuple(Fraction(Z[j][k]) for j in range(n)))


def to_zeta_coords(u: AlgebraElement) -> tuple[Fraction, ...]:
    """Coordinates of u on (1, zeta_1, ..., zeta_(n-1))."""
    return tuple(solve(_zeta_matrix(u.form.coeffs), u.coords))


@dataclass(frozen=True)
class RankNRing:
    """R_f with basis (1, zeta_1, ..., zeta_(n-1)) and its integer structure
    constants: table[(i, j)] = coordinates of zeta_i * zeta_j, 1 <= i <= j."""

    form: BinaryForm
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def product(self, i: int, j: int) -> tuple[int, ...]:
        if i > j:
            i, j = j, i
        return self.table[i - 1][j - i]


def ring_from_form(f: BinaryForm) -> RankNRing:
    """Structure constants from the closed multiplication law, with the
    boundary convention zeta_n := -f_n (a scalar)."""
    n = f.degree
    if f.coeffs[0] == 0:
        raise ValueError("nonzero leading coefficient required")
    c = f.coeffs
    table = []
    for i in range(1, n):
        row = []
        for j in range(i, n):
            vec = [0] * n  # coords on (1, zeta_1, .., zeta_(n-1))
            for k in range(j + 1, min(i + j, n) + 1):
                coeff = c[i + j - k]
                if k == n:
                    vec[0] += coeff * (-c[n])
                else:
                    vec[k] += coeff
            for k in range(max(i + j - n, 1), i + 1):
                vec[k] -= c[i + j - k]
            row.append(tuple(vec))
        table.append(tuple(row))
    return RankNRing(f, tuple(table))


def ring_multiply(R: RankNRing, u, v) -> tuple:
    """Product of two elements given by integer coordinates on
    (1, zeta_1, ..., zeta_(n-1)), using only the structure constants."""
    n = R.form.degree
    out = [0] * n
    out[0] += u[0] * v[0]
    for k in range(1, n):
        out[k] += u[0] * v[k] + v[0] * u[k]
    for i in range(1, n):
        if not u[i]:
            continue
        for j in range(1, n):
            if not v[j]:
                continue
            coeff = u[i] * v[j]
            prod = R.product(i, j)
            for k in range(n):
                if prod[k]:
                    out[k] += coeff * prod[k]
    return tuple(out)


def ring_discriminant(R: RankNRing) -> int:
    """Determinant of the trace pairing Tr(b_i b_j) on (1, zeta_1, ...),
    from the structure constants alone: Tr(1) = n, Tr(zeta_k) is the trace
    of multiplication by zeta_k, sum over j >= 1 of the zeta_j coordinate
    of zeta_k zeta_j, and Tr(b_i b_j) is the coordinates of b_i b_j dotted
    with these traces.  All integers."""
    n = R.form.degree
    tr = [n] + [sum(R.product(k, j)[j] for j in range(1, n)) for k in range(1, n)]
    T = [tr]
    for i in range(1, n):
        T.append([tr[i]] + [sum(c * t for c, t in zip(R.product(i, j), tr)) for j in range(1, n)])
    return det(T)


# ---------------------------------------------------------------------------
# Based ideals


@dataclass(frozen=True)
class BasedIdeal:
    """A fractional R_f-ideal with an ordered Z-basis of n elements."""

    form: BinaryForm
    basis: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if len(self.basis) != self.form.degree:
            raise ValueError("basis must have n elements")


def ideal_power_basis(f: BinaryForm, k: int) -> BasedIdeal:
    """I_f(k) = <1, theta, ..., theta^k, zeta_(k+1), ..., zeta_(n-1)> for
    0 <= k <= n-1; I_f(0) = R_f."""
    n = f.degree
    if not 0 <= k <= n - 1:
        raise ValueError("k out of range")
    # element_one checks f0 before the table divides by it
    basis = [element_one(f)]
    basis += (AlgebraElement(f, t) for t in _theta_power_table(f.coeffs)[1 : k + 1])
    basis += (zeta_element(f, j) for j in range(k + 1, n))
    return BasedIdeal(f, tuple(basis))


def ideal_inverse_power(f: BinaryForm) -> BasedIdeal:
    """I_f^(-1), with the graded basis xi_j = zeta_j + f_j (so xi_0 = f0);
    satisfies theta * xi_j = zeta_(j+1) and N(I_f^(-1)) = f0."""
    n = f.degree
    basis = [_coerce(f, f.coeffs[0])]
    for j in range(1, n):
        basis.append(zeta_element(f, j) + _coerce(f, f.coeffs[j]))
    return BasedIdeal(f, tuple(basis))


def ideal_norm(I: BasedIdeal) -> Fraction:
    """|det| of the transition matrix from the ideal basis to the R_f basis:
    the power-basis determinant over det(_zeta_matrix) = f0^(n-1)."""
    d = det([b.coords for b in I.basis])
    if d == 0:
        raise ValueError("basis is linearly dependent")
    return abs(Fraction(d) / I.form.coeffs[0] ** (I.form.degree - 1))


def _span_canonical(elements) -> tuple:
    """Canonical form of the Z-span of the given elements (HNF over Z of
    power-basis coordinates after clearing denominators), for comparisons."""
    rows = [e.coords for e in elements]
    den = 1
    for r in rows:
        for c in r:
            den = lcm(den, c.denominator)
    mat = [[int(c * den) for c in r] for r in rows]
    H = hnf_rows(mat)
    g = den
    for row in H:
        for c in row:
            g = gcd(g, c)
    g = g or 1
    return (den // g, tuple(tuple(c // g for c in row) for row in H))


def spans_equal(elems_a, elems_b) -> bool:
    """Whether two finite sets of K_f elements span the same Z-module."""
    return _span_canonical(elems_a) == _span_canonical(elems_b)


def expansions_in_basis(I: BasedIdeal, elements) -> list[tuple[Fraction, ...]]:
    """Coordinates of each element on the ordered basis of I, all solved
    from one exact elimination on power-basis coordinates."""
    cols = [b.coords for b in I.basis]
    return [tuple(x) for x in solve_columns(list(zip(*cols)), [u.coords for u in elements])]


# ---------------------------------------------------------------------------
# Norms of linear elements and square classes


def norm_linear(f: BinaryForm, a: int, b: int) -> Fraction:
    """N(a*theta + b) = f(-b, a)/f0."""
    if f.coeffs[0] == 0:
        raise ValueError("nonzero leading coefficient required")
    val = intpoly.evaluate_binary(list(f.coeffs), -b, a)
    if val == 0:
        raise ValueError("a*theta + b is a zero divisor (f has a rational root)")
    return Fraction(val, f.coeffs[0])


def same_square_class(alpha: AlgebraElement, beta: AlgebraElement, trials: int = 50) -> SquareClassVerdict:
    """One-sided probabilistic square-class test of alpha and beta in K_f^x.

    DISTINCT is certain: witnessed by a real root of f(x, 1) where
    gamma = alpha*beta is negative (two Tarski queries: TaQ(G, f) < TaQ(1, f)),
    or by a residue field at a good prime where gamma is not a square.  At
    each of the `trials` smallest odd primes p of good reduction, with fbar
    the monic reduction of f(x, 1) mod p, each distinct-degree product g_d of
    fbar is tested once: by the Chinese remainder theorem,
    gamma^((p^d - 1)/2) = 1 mod g_d iff gamma is a square in every residue
    field of degree d.  EQUAL after `trials` consistent primes is heuristic.
    Deterministic.  A good prime divides neither f0 nor Disc(f): fbar is squarefree.

    Both the distinct-degree powers x^(p^d) and the test powers come from
    the Frobenius map sigma(v) = v^p, which is F_p-linear on
    A_p = F_p[x]/(fbar): with Q_p the matrix whose column j is x^(jp) mod
    fbar (Berlekamp's Q-matrix), x^(p^d) = Q_p x^(p^(d-1)), and
    gamma^((p^d - 1)/2) = u sigma(gamma^((p^(d-1) - 1)/2)) with
    u = gamma^((p-1)/2), since (p^d - 1)/2 = (p - 1)/2 + p (p^(d-1) - 1)/2.
    The primes are taken in chunks of 1, 4, 16, ... (so a DISTINCT verdict
    at an early prime still stops early), each computed as one int64 batch,
    which needs n (p - 1)^2 < 2^63 (else ValueError); gfpoly's
    distinct-degree loop and the tests then run prime by prime, in order.
    """
    f = alpha.form
    if beta.form != f:
        raise ValueError("elements belong to different algebras")
    gamma = algebra_mul(alpha, beta)  # square iff classes agree
    G, D = gamma.numerator_poly()
    if not G:
        raise ZeroDivisionError("elements must be invertible")
    disc = f.disc
    if disc == 0:
        raise ValueError("Disc(f) = 0")
    funiv = f.univariate()
    res = intpoly.resultant(funiv, G)
    if res == 0:
        raise ZeroDivisionError("elements must be invertible")

    # real witness: G = D * gamma with D > 0, nonzero at the real roots as res != 0
    if intpoly.tarski_query(funiv, G) < intpoly.tarski_query(funiv, [1]):
        return SquareClassVerdict.DISTINCT

    primes = _good_primes(abs(f.coeffs[0] * disc * D * res))
    used, size = 0, 1
    while used < trials:
        chunk = list(islice(primes, min(size, trials - used)))
        used += len(chunk)
        size *= 4
        reduced, gmods = [], []
        for p in chunk:
            reduced.append(gfpoly.gf_monic(gfpoly.normalize(funiv, p), p))
            dinv = pow(D % p, -1, p)
            gmods.append([c * dinv % p for c in gfpoly.normalize(G, p)])
        H, T = _frobenius_powers(reduced, gmods, chunk)
        for p, fbar, Hp, Tp in zip(chunk, reduced, H.tolist(), T.tolist()):
            classes = gfpoly.distinct_degree_classes(fbar, (h[::-1] for h in Hp), p)
            if any(gfpoly.gf_mod(gfpoly.normalize(Tp[d - 1][::-1], p), g, p) != [1] for d, g in classes):
                return SquareClassVerdict.DISTINCT
    return SquareClassVerdict.EQUAL if used else SquareClassVerdict.INCONCLUSIVE


def _good_primes(bad: int):
    """The odd primes not dividing `bad`, in increasing order."""
    p = 1
    while True:
        p += 2
        if bad % p and is_prime(p):
            yield p


def _frobenius_powers(reduced, gmods, primes):
    """For each prime p of a chunk, with fbar = reduced[k] monic of degree n
    and gamma = gmods[k] of degree < n (descending lists mod p), the arrays
    H[k, d-1] = x^(p^d) for d = 1..n//2 and T[k, d-1] = gamma^((p^d - 1)/2)
    for d = 1..n, in A_p = F_p[x]/(fbar) with ascending coefficients.

    Elements act by their multiplication matrices: C for x (the companion
    matrix) and gamma(C), whose column j is C^j gamma.  Every product is
    reduced mod p at once, so each of its entries sums at most n nonzero
    products of residues; hence the int64 bound n (p - 1)^2 < 2^63."""
    n = len(reduced[0]) - 1
    if n * (max(primes) - 1) ** 2 >= 1 << 63:
        raise ValueError(f"n (p - 1)^2 overflows int64 at p = {max(primes)}")
    P = len(primes)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    C = np.zeros((P, n, n), dtype=np.int64)
    C[:, 1:, :-1] = np.eye(n - 1, dtype=np.int64)
    C[:, :, -1] = [[-c % q for c in fbar[:0:-1]] for q, fbar in zip(primes, reduced)]
    one = np.zeros((P, n, 1), dtype=np.int64)
    one[:, 0] = 1
    gamma = np.zeros((P, n, 1), dtype=np.int64)
    for k, g in enumerate(gmods):
        gamma[k, : len(g), 0] = g[::-1]

    def krylov(M, v):  # columns v, M v, ..., M^(n-1) v, by doubling
        K = v
        while K.shape[2] < n:
            K = np.concatenate([K, M @ K % p], axis=2)
            M = M @ M % p
        return K[:, :, :n]

    # the matrices of x^p and u = gamma^((p - 1)/2), one square-and-multiply
    # on the pair; bit i of (p - 1)/2 is bit i + 1 of p
    base = np.stack([C, krylov(C, gamma)], axis=1)
    acc = np.broadcast_to(np.eye(n, dtype=np.int64), base.shape)
    pp = p[..., None]
    for i in range(max(primes).bit_length()):
        if i:
            base = base @ base % pp
        bits = [[q >> i & 1, q >> i + 1 & 1] for q in primes]
        if any(map(any, bits)):
            acc = np.where(np.array(bits, dtype=bool)[..., None, None], acc @ base % pp, acc)
    # the Frobenius matrix Q (column j is x^(jp)) maps x^(p^(d-1)) to
    # x^(p^d), and u Q maps gamma^((p^(d-1) - 1)/2) to gamma^((p^d - 1)/2)
    Q = krylov(acc[:, 0], one)
    step = np.zeros((P, 2 * n, 2 * n), dtype=np.int64)
    step[:, :n, :n] = Q
    step[:, n:, n:] = acc[:, 1] @ Q % p
    y = np.concatenate([C[:, :, :1], one], axis=1)  # (x, 1), the pair at d = 0
    out = np.empty((P, n, 2 * n), dtype=np.int64)
    for d in range(n):
        y = step @ y % p
        out[:, d] = y[..., 0]
    return out[:, : n // 2, :n], out[:, :, n:]

