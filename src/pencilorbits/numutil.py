"""Small number-theory and exact linear algebra helpers shared across modules.

`is_prime` is Miller-Rabin with the first k prime bases, k the least index
with n < psi_k; that is proven, as no odd composite below psi_k is a strong
probable prime to all of them.  The table psi_1..psi_13 is Jaeschke's (Math.
Comp. 61, 1993) for k <= 8 and Sorenson & Webster's (Math. Comp. 86, 2017)
for k = 9..13.  From psi_13 = 3.3e24 on it is the Baillie-PSW test.

`factorize` splits each composite cofactor left by trial division in three
steps, in this order:

1. Pollard's rho (Brent's variant) for at most _RHO_BUDGET = 2^11 steps,
   less than one ECM curve costs (about 2 500 steps' worth at B1 = 120).
   On quartic survey discriminants that splits every cofactor whose least
   prime has at most 16 bits and 92 % of those with 17-20 bits.  Rho needs
   about sqrt(p) steps for a prime p, so past the budget p is likely large.
2. A perfect-power test: a prime power is split by one k-th root.
3. ECM (Lenstra, Ann. Math. 126, 1987) on Montgomery curves (Math. Comp.
   48, 1987): stage 1 to B1, stage 2 by baby and giant steps with D = 210
   to B2 = 50 B1.  B1 starts at 120 and doubles every 8 curves.  The time
   ECM takes to find a prime p depends mainly on the size of p and grows
   far slower than sqrt(p).

The budget and B1 are what a sweep over the survey's quartic discriminants
(height 1000) found cheapest; budgets 2^10-2^12 and B1 = 110-150 all came
within 8 % of it.  Rho and ECM draw from one seeded stream, so
a run is deterministic, and the factorization is unique whatever the path.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, v in enumerate(sieve) if v]


# the first 13 primes, the Miller-Rabin bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k for k = 1..13, the least odd composite that is a strong probable
# prime to each of the first k bases (sources in the module docstring)
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin strong probable-prime test of odd n > max(bases)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 1 that is not a square, with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35, 1980)."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):  # x / 2 mod n
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 0, 2, 1  # U_k, V_k, Q^k at k = 0, then along the bits of d
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Primality of n.  Proven below psi_13 = 3.3e24: Miller-Rabin with the
    first k prime bases for the least k with n < psi_k (4 bases for a 30-bit
    n, 9 for a 60-bit one).  From psi_13 on, the Baillie-PSW test (strong
    base-2 test and strong Lucas test): no composite is known to pass it,
    but that is not proven."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _PSI[-1]:
        k = next(k for k, psi in enumerate(_PSI, 1) if n < psi)
        return _strong_probable_prime(n, _MR_BASES[:k])
    return isqrt_exact(n) is None and _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


# steps whose x - y are multiplied together mod n before one gcd in _pollard_rho
_RHO_BATCH = 128
# rho steps spent on a cofactor before it goes on to the perfect-power test and ECM
_RHO_BUDGET = 2**11
# ECM: B1 of the first curves, doubled every _ECM_CURVES_PER_B1 curves; B2 = 50 B1.
# Stage 2 steps by _ECM_D = 2 * 3 * 5 * 7, which needs B1 > _ECM_D / 2.
# (Why these values: the module docstring.)
_ECM_B1 = 120
_ECM_CURVES_PER_B1 = 8
_ECM_D = 210


def _pollard_rho(n: int, rng: random.Random, budget: int) -> int | None:
    """A proper factor of the composite n: Pollard's rho on x -> x^2 + c with
    Brent's cycle search, the differences multiplied mod n over batches of
    _RHO_BATCH steps before each gcd (Brent, BIT 20, 1980).  A batch whose
    gcd is n is walked again one step at a time; if that also reaches n, c
    and the start are drawn afresh.  None when the next cycle length would
    take the steps walked past `budget`."""
    steps = 0
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        r, q, d = 1, 1, 1
        while d == 1:
            steps += 2 * r
            if steps > budget:
                return None
            x = y  # held while the walk skips r steps, then compared with the next r
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for a prime k, or None; n has no prime factor
    below 53, so k <= log_53 n < bitlength(n) / 5."""
    for k in primes_upto(n.bit_length() // 5):
        r = 1 << -(-n.bit_length() // k)  # above the k-th root, where Newton's steps fall to it
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            return r, k
    return None


@lru_cache(maxsize=None)
def _ecm_plan(b1: int) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """(K, prime powers, m0, rows) for ECM with bounds B1 = b1 > D/2 and
    B2 = 50 b1.  The prime powers are p^floor(log_p B1) for the primes
    p <= B1, and K is their product.  Each prime q in (B1, B2] is m D +- j
    with j < D/2 odd; rows[i] lists j // 2 for those j at m = m0 + i, once
    when both m D + j and m D - j are prime."""
    primes = primes_upto(50 * b1)
    powers = []
    for p in primes:
        if p > b1:
            break
        pk = p
        while pk * p <= b1:
            pk *= p
        powers.append(pk)
    half = _ECM_D // 2
    m0 = (b1 + half) // _ECM_D
    rows = [[] for _ in range((primes[-1] + half) // _ECM_D - m0 + 1)]
    for q in primes[len(powers) :]:
        m = (q + half) // _ECM_D
        rows[m - m0].append(abs(q - m * _ECM_D) // 2)
    return math.prod(powers), tuple(powers), m0, tuple(tuple(sorted(set(js))) for js in rows)


def _x_add(P, Q, diff, n):
    """x(P + Q) from x(P), x(Q) and x(P - Q), each as (X, Z)."""
    u, v = (P[0] - P[1]) * (Q[0] + Q[1]), (P[0] + P[1]) * (Q[0] - Q[1])
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _x_mul(P, k, n, a24):
    """x(kP) and x((k + 1)P), each as (X, Z), for k >= 1, by the Montgomery
    ladder on the curve with (A + 2)/4 = a24."""
    X1, Z1 = P
    X, Z = P
    s, t = (X + Z) ** 2, (X - Z) ** 2
    Xr, Zr = s * t % n, (s - t) * (t + a24 * (s - t)) % n
    for bit in bin(k)[3:]:
        if bit == "1":  # step on (R1, R0): the sum and the double of R1
            X, Z, Xr, Zr = Xr, Zr, X, Z
        p, m = X + Z, X - Z
        u, v = m * (Xr + Zr), p * (Xr - Zr)
        Xr, Zr = Z1 * (u + v) ** 2 % n, X1 * (u - v) ** 2 % n
        s, t = p * p, m * m
        X, Z = s * t % n, (s - t) * (t + a24 * (s - t)) % n
        if bit == "1":
            X, Z, Xr, Zr = Xr, Zr, X, Z
    return (X, Z), (Xr, Zr)


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """The gcd with n that one curve reaches at B1 = b1; 1 or n when it
    splits nothing."""
    K, powers, m0, rows = _ecm_plan(b1)
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    w = 16 * u**3 * v
    if (g := math.gcd(w, n)) > 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(w, -1, n) % n
    P = (u**3 % n, v**3 % n)
    Q = _x_mul(P, K, n, a24)[0]
    if (g := math.gcd(Q[1], n)) == n:  # every prime of n at once: again, one prime power at a time
        Q = P
        for pk in powers:
            Q = _x_mul(Q, pk, n, a24)[0]
            if (g := math.gcd(Q[1], n)) > 1:
                break
    if g > 1:
        return g
    Q2 = _x_mul(Q, 1, n, a24)[1]
    pts = [Q, _x_add(Q2, Q, Q, n)]  # x(j Q) for odd j < D/2, at index j // 2
    while len(pts) < _ECM_D // 4:
        pts.append(_x_add(pts[-1], Q2, pts[-2], n))
    G = _x_mul(Q, _ECM_D, n, a24)[0]
    pts += _x_mul(G, m0, n, a24)  # then x(m D Q) for m = m0, m0 + 1, ...
    while len(pts) < _ECM_D // 4 + len(rows):
        pts.append(_x_add(pts[-1], G, pts[-2], n))
    # x = X / Z for every point through one inverse (Montgomery's trick)
    prefix = [1]
    for _, Z in pts:
        prefix.append(prefix[-1] * Z % n)
    if (g := math.gcd(prefix[-1], n)) > 1:
        return g
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(pts)
    for i in range(len(pts) - 1, -1, -1):
        xs[i] = pts[i][0] * prefix[i] * inv % n
        inv = inv * pts[i][1] % n
    acc = 1
    for x, js in zip(xs[_ECM_D // 4 :], rows):
        for j in js:
            acc = acc * (x - xs[j]) % n
    return math.gcd(acc, n)


def _ecm(n: int, rng: random.Random) -> int:
    """A proper factor of n, which is composite and no perfect power: Lenstra's
    elliptic curve method (Ann. Math. 126, 1987) on Montgomery curves
    B y^2 = x^3 + A x^2 + x in x-only coordinates (Math. Comp. 48, 1987).
    Each curve comes from Suyama's parametrisation at a random sigma, which
    makes 12 divide its group order mod every prime.  Stage 1 multiplies
    the start point by K (see _ecm_plan) in one ladder, giving Q; stage 2
    takes the primes q = m D +- j in (B1, B2] by baby steps x(j Q) and giant
    steps x(m D Q), one factor x(m D Q) - x(j Q) per pair (m, j), which
    vanishes mod p when q Q = 0 mod p.  B1 starts at _ECM_B1 and doubles
    every _ECM_CURVES_PER_B1 curves, so a factor of any size is reached."""
    curve = 0
    while True:
        g = _ecm_curve(n, rng.randrange(6, n), _ECM_B1 << curve // _ECM_CURVES_PER_B1)
        if 1 < g < n:
            return g
        curve += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; deterministic.

    Trial division by the primes below 50; then each composite cofactor
    goes to Pollard's rho for at most _RHO_BUDGET steps, and if rho finds
    nothing, to the perfect-power test and then to ECM (see the module
    docstring for the order and the constants).  Rho and ECM draw from one
    random.Random(0xFAC7), so the run time is fixed by n."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(0xFAC7)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng, _RHO_BUDGET)
        if d is None:
            if power := _perfect_power(m):
                stack += [power[0]] * power[1]
                continue
            d = _ecm(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def isqrt_exact(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the integer row lattice.

    Returns a canonical basis as a list of rows in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    basis: list[list[int]] = []
    col = 0
    while col < ncols and mat:
        pivots = [r for r in mat if r[col] != 0]
        rest = [r for r in mat if r[col] == 0]
        if not pivots:
            mat = rest
            col += 1
            continue
        # reduce all rows with a nonzero entry in this column by gcd steps
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            a = pivots[0]
            new_pivots = [a]
            for r in pivots[1:]:
                q = r[col] // a[col]
                rr = [x - q * y for x, y in zip(r, a)]
                if rr[col] != 0:
                    new_pivots.append(rr)
                elif any(rr):
                    rest.append(rr)
            pivots = new_pivots
        piv = pivots[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        mat = rest
        col += 1
    # reduce entries above pivots, in increasing pivot order: row i changes
    # only the columns from its pivot on, so earlier pivot columns stay reduced
    for i in range(len(basis)):
        pcol = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis


def _bareiss(A: list[list[int]], n: int) -> int:
    """Bareiss fraction-free elimination, in place, of the integer rows A on
    their first n columns (further columns ride along).  Returns the
    determinant of the leading n x n block; on a zero determinant the
    elimination stops early.  Entries below the pivots are left stale."""
    sign, prev = 1, 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k]), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        pivot, top = A[k][k], A[k]
        for i in range(k + 1, n):
            row = A[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * prev


def _integral_row(row) -> tuple[list[int], int]:
    """(d * row, d) as a new list of ints, with d the least common
    denominator of the int/Fraction entries."""
    d = math.lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def det(M):
    """Exact determinant of a square matrix of ints or Fractions; an int when
    every entry is integral."""
    rows, scale = [], 1
    for r in M:
        row, d = _integral_row(r)
        rows.append(row)
        scale *= d
    D = _bareiss(rows, len(rows))
    return D if scale == 1 else Fraction(D, scale)


def solve(A, b) -> list[Fraction]:
    """The exact solution x of A x = b for square nonsingular A (ints or
    Fractions)."""
    return solve_columns(A, [b])[0]


def solve_columns(A, columns) -> list[list[Fraction]]:
    """The exact solutions x of A x = b, one per right-hand side b in
    `columns`, from one elimination of square nonsingular A (ints or
    Fractions): the columns ride along in the Bareiss pass.
    Back-substitution runs on D * x, which is integral by Cramer's rule, D
    being the determinant of the cleared system."""
    n = len(A)
    M = [_integral_row(list(row) + [b[i] for b in columns])[0] for i, row in enumerate(A)]
    D = _bareiss(M, n)
    if D == 0:
        raise ValueError("singular system")
    out = []
    for c in range(n, n + len(columns)):
        y = [0] * n
        for i in reversed(range(n)):
            acc = D * M[i][c] - sum(M[i][j] * y[j] for j in range(i + 1, n))
            y[i] = acc // M[i][i]
        out.append([Fraction(v, D) for v in y])
    return out
