"""The rank-n ring R_f attached to a binary form, its based ideals, element
arithmetic in K_f = Q[x]/(f(x,1)), norms, and square-class testing.

Basis conventions.  Elements of K_f carry power-basis coordinates
(1, theta, ..., theta^(n-1)) as Fractions.  R_f has the integral basis
(1, zeta_1, ..., zeta_(n-1)) with zeta_k = f0*theta^k + ... + f_(k-1)*theta;
the two are related by an integer triangular transition with diagonal
(1, f0, ..., f0), so conversions are exact.  Based ideals store an ordered
basis; their norm is the (positive, by convention) determinant of the
transition to the R_f basis.

Products.  With u = G(theta)/D for an integer polynomial G, a product of
u and H(theta)/E is the pseudo-remainder of GH by f(x, 1) over D*E*f0^k
(Cohen, GTM 138, 3.1.1), so K_f shares intpoly's kernel with resultants and
Tarski queries.  theta^j for j < n is a unit vector of the power basis.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import numpy as np

from . import intpoly
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
        poly = [c.numerator * (den // c.denominator) for c in reversed(self.coords)]
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


def _theta_power(f: BinaryForm, j: int) -> AlgebraElement:
    """theta^j for 0 <= j < n: a unit vector of the power basis."""
    return AlgebraElement(f, tuple(int(i == j) for i in range(f.degree)))


def algebra_mul(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """For u = G(theta)/D and v = H(theta)/E, uv = prem(GH, f(x,1))(theta) /
    (D E f0^k) with k = max(0, deg GH - n + 1), the power of f0 by which the
    pseudo-remainder scales GH."""
    if u.form != v.form:
        raise ValueError("elements belong to different algebras")
    f = u.form
    (G, D), (H, E) = u.numerator_poly(), v.numerator_poly()
    GH = intpoly.mul(G, H)
    den = D * E * f.coeffs[0] ** max(0, len(GH) - f.degree)
    r = intpoly.prem(GH, f.univariate())
    return AlgebraElement(f, tuple(Fraction(c, den) for c in reversed(r)) + (0,) * (f.degree - len(r)))


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
    cols = [algebra_mul(u, _theta_power(f, j)).coords for j in range(f.degree)]
    try:
        x = solve(list(zip(*cols)), element_one(f).coords)
    except ValueError:
        raise ZeroDivisionError("element is a zero divisor") from None
    return AlgebraElement(f, tuple(x))


# ---------------------------------------------------------------------------
# The ring R_f and its zeta basis


def zeta_element(f: BinaryForm, k: int) -> AlgebraElement:
    """zeta_k = f0 theta^k + f1 theta^(k-1) + ... + f_(k-1) theta as an
    element (zeta_0 := 1; zeta_n would be the scalar -f_n)."""
    n = f.degree
    if k == 0:
        return element_one(f)
    if not 1 <= k <= n - 1:
        raise ValueError("zeta index out of range")
    return AlgebraElement(f, (0,) + f.coeffs[k - 1 :: -1] + (0,) * (n - 1 - k))


def to_zeta_coords(u: AlgebraElement) -> tuple[Fraction, ...]:
    """Coordinates of u on (1, zeta_1, ..., zeta_(n-1)), the basis of
    I_f(0) = R_f."""
    return expansions_in_basis(ideal_power_basis(u.form, 0), [u])[0]


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
    basis = [_theta_power(f, j) for j in range(k + 1)]
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
    the power-basis determinant over f0^(n-1), that of (1, zeta_1, ...)."""
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
    each of the `trials` smallest odd primes p of good reduction (dividing
    none of f0, Disc(f), D and Res(f(x, 1), G) for gamma = G(theta)/D), with
    fbar the monic reduction of f(x, 1) mod p, gamma is a square in every
    residue field of A_p = F_p[x]/(fbar) iff rank(uQ - I) = rank(Q - I) mod p,
    where Q is the matrix of the Frobenius map sigma(v) = v^p on A_p
    (Berlekamp's Q-matrix: column j is x^(jp) mod fbar) and u is
    multiplication by gamma^((p-1)/2).  EQUAL after `trials` consistent primes
    is heuristic.  Deterministic.

    Proof of the rank test.  fbar is squarefree (p is good), so A_p is a
    product of finite fields F_i; p is odd and gamma is a unit, so
    B = A_p[Y]/(Y^2 - gamma) is etale too, a product of fields: F_i x F_i
    where gamma is a square in F_i, a quadratic extension of F_i where not.
    The Frobenius fixed space of a product of k finite fields of
    characteristic p is F_p^k, of dimension k (Berlekamp's count), so
    dim ker(Q - I) is the number of fields F_i.  On B = A_p + A_p Y,
    sigma(a + bY) = sigma(a) + u sigma(b) Y as Y^p = (Y^2)^((p-1)/2) Y, so
    Frobenius is Q on A_p plus uQ on A_p Y, and dim ker(uQ - I) is B's
    number of components less the number of F_i: the number of F_i in which
    gamma is a square.  That equals the number of F_i iff the ranks agree.

    The primes are taken in chunks of 1, 4, 16, ... (so a DISTINCT verdict
    at an early prime still stops early), each computed as one int64 batch,
    which needs n (p - 1)^2 < 2^63 (else ValueError).
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
        ranks = _frobenius_ranks(funiv, G, D, chunk)
        if (ranks[:, 0] != ranks[:, 1]).any():
            return SquareClassVerdict.DISTINCT
    return SquareClassVerdict.EQUAL if used else SquareClassVerdict.INCONCLUSIVE


def _good_primes(bad: int):
    """The odd primes not dividing `bad`, in increasing order."""
    p = 1
    while True:
        p += 2
        if bad % p and is_prime(p):
            yield p


def _frobenius_ranks(funiv, G, D, primes):
    """For each prime p of a chunk (odd, dividing neither funiv[0] nor D),
    with fbar = funiv / funiv[0] and gamma = G / D mod p (descending integer
    lists, deg G < n = deg funiv), the ranks mod p of Q - I and uQ - I, as
    row k of a (len(primes), 2) array: Q is the Frobenius matrix of
    A_p = F_p[x]/(fbar) and u multiplication by gamma^((p - 1)/2) (see
    same_square_class).

    Elements act by their multiplication matrices: C for x (the companion
    matrix) and gamma(C), whose column j is C^j gamma.  Every product is
    reduced mod p at once, so each of its entries sums at most n nonzero
    products of residues; hence the int64 bound n (p - 1)^2 < 2^63.  The
    elimination takes no inverses: each row r becomes a r - b s with s the
    pivot row, a its pivot and b the entry of r in the pivot column, which
    keeps the rank (a is a unit) and stays within (p - 1)^2 in size."""
    n = len(funiv) - 1
    if n * (max(primes) - 1) ** 2 >= 1 << 63:
        raise ValueError(f"n (p - 1)^2 overflows int64 at p = {max(primes)}")
    P = len(primes)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    inv = np.array([[pow(funiv[0], -1, q), pow(D, -1, q)] for q in primes], dtype=np.int64)
    C = np.zeros((P, n, n), dtype=np.int64)
    C[:, 1:, :-1] = np.eye(n - 1, dtype=np.int64)
    C[:, :, -1] = np.array([[-c % q for c in funiv[:0:-1]] for q in primes]) * inv[:, :1] % p[:, 0]
    gamma = np.zeros((P, n, 1), dtype=np.int64)
    gamma[:, : len(G), 0] = np.array([[c % q for c in G[::-1]] for q in primes]) * inv[:, 1:] % p[:, 0]
    one = np.zeros((P, n, 1), dtype=np.int64)
    one[:, 0] = 1

    def krylov(M, v):  # columns v, M v, ..., M^(n-1) v, by doubling
        K = v
        while True:
            K = np.concatenate([K, M @ K % p], axis=2)
            if K.shape[2] >= n:
                return K[:, :, :n]
            M = M @ M % p

    # the matrices of x^p and u = gamma^((p - 1)/2), one square-and-multiply
    # on the pair; bit i of (p - 1)/2 is bit i + 1 of p, so bits[:, i : i + 2]
    # masks step i of both
    L = max(primes).bit_length()
    bits = (np.array(primes)[:, None] >> np.arange(L + 1) & 1).astype(bool)[..., None, None]
    base = np.stack([C, krylov(C, gamma)], axis=1)
    acc = np.where(bits[:, :2], base, np.eye(n, dtype=np.int64))
    pp = p[..., None]
    for i in range(1, L):
        base = base @ base % pp
        acc = np.where(bits[:, i : i + 2], acc @ base % pp, acc)
    # Q (column j is x^(jp)) and uQ, less I, then their ranks by elimination:
    # column c's pivot is a row holding its largest entry, 0 if the column is
    # zero (the step then leaves M alone), and the pivot row becomes zero
    Q = krylov(acc[:, 0], one)
    M = np.stack([Q, acc[:, 1] @ Q], axis=1).reshape(2 * P, n, n)
    M[:, range(n), range(n)] -= 1
    p, rows = p.repeat(2, axis=0), np.arange(2 * P)
    M %= p
    pivots = np.empty((n, 2 * P), dtype=np.int64)
    for c in range(n):
        col = M[:, :, c, None]
        prow = M[rows, col.argmax(axis=1)[:, 0], None]
        pivots[c] = prow[:, 0, c]
        b = col * prow
        M *= np.maximum(prow[:, :, c, None], 1)
        M -= b
        M %= p
    return np.count_nonzero(pivots, axis=0).reshape(P, 2)
