"""Small number-theory and exact linear algebra helpers shared across modules."""

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


# the first 13 primes; psi_13 is the least strong pseudoprime to all of them
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


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
    """Primality of n.  Proven below psi_13 = 3.3e24, where Miller-Rabin with
    the bases 2..41 is deterministic (2..37 alone already fail at psi_12 =
    3.18e23).  From psi_13 on, the Baillie-PSW test (strong base-2 test and
    strong Lucas test): no composite is known to pass it, but that is not
    proven."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _PSI_13:
        return _strong_probable_prime(n, _MR_BASES)
    return isqrt_exact(n) is None and _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


# steps whose x - y are multiplied together mod n before one gcd in _pollard_rho
_RHO_BATCH = 128


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A proper factor of the composite n: Pollard's rho on x -> x^2 + c with
    Brent's cycle search, the differences multiplied mod n over batches of
    _RHO_BATCH steps before each gcd (Brent, BIT 20, 1980).  A batch whose
    gcd is n is walked again one step at a time; if that also reaches n, c
    and the start are drawn afresh."""
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        r, q, d = 1, 1, 1
        while d == 1:
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; deterministic."""
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
        d = _pollard_rho(m, rng)
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
