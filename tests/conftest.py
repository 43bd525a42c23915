import itertools
import math
import random

import pytest

from pencilorbits import gfpoly, intpoly
from pencilorbits.densities import monic_irreducible_count
from pencilorbits.forms import BinaryForm, UnimodularMatrix2, discriminant, evaluate, random_nondegenerate_form
from pencilorbits.numutil import det, is_prime, isqrt_exact, solve
from pencilorbits.orbits import CurvePoint
from pencilorbits.rings import AlgebraElement, BasedIdeal, SquareClassVerdict, algebra_mul
from pencilorbits.search import DescentBudgetError

random_nondegenerate = random_nondegenerate_form  # the library's sampler, under the tests' name


def random_form_with_point(n: int, rng: random.Random, cmax: int = 5, nonzero_lead: bool = False):
    """(f, c) with f_n = c^2 and Disc != 0: the point (0, 1, c) lies on f."""
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(n)]
        c = rng.randint(1, cmax)
        f = BinaryForm(tuple(coeffs + [c * c]))
        if nonzero_lead and coeffs[0] == 0:
            continue
        if discriminant(f) != 0:
            return f, c


def random_sl2(rng: random.Random, size: int = 3) -> UnimodularMatrix2:
    g = UnimodularMatrix2(1, 0, 0, 1)
    for _ in range(3):
        g = g @ UnimodularMatrix2(1, rng.randint(-size, size), 0, 1)
        g = g @ UnimodularMatrix2(1, 0, rng.randint(-size, size), 1)
    return g


def random_unimodular(n: int, rng, steps: int = 12, bound: int = 2) -> list[list[int]]:
    """Random product of elementary matrices with det +-1 and bounded entries."""
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-bound, bound)
            for col in range(n):
                g[i][col] += c * g[j][col]
        elif kind == 1 and i != j:
            g[i], g[j] = g[j], g[i]
        elif kind == 2:
            for col in range(n):
                g[i][col] = -g[i][col]
    return g


def squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Oracle: the char-p squarefree decomposition of f over F_p, as
    (factor, multiplicity) pairs with the factors monic, squarefree and
    pairwise coprime and their product f up to a unit.  Gcds of f with its
    derivative give the parts of multiplicity prime to p; what is left has
    every multiplicity divisible by p, so it is g(x^p), the p-th power of g
    over F_p, and is decomposed again from g."""
    f = gfpoly.gf_monic(gfpoly.normalize(f, p), p)
    out: list[tuple[list[int], int]] = []
    if len(f) <= 1:
        return out
    t = gfpoly.gf_gcd(f, gfpoly.normalize(intpoly.derivative(f), p), p)
    v, _ = gfpoly.gf_divmod(f, t, p)
    k = 0
    while len(v) > 1:
        k += 1
        w = gfpoly.gf_gcd(t, v, p)
        u, _ = gfpoly.gf_divmod(v, w, p)  # the factors of multiplicity exactly k
        if len(u) > 1:
            out.append((u, k))
        v = w
        t, _ = gfpoly.gf_divmod(t, w, p)
    if len(t) > 1:
        # t = g(x^p): the coefficients of g are every p-th one of t
        out += [(fac, mult * p) for fac, mult in squarefree_decomposition(t[::p], p)]
    merged: dict[tuple[int, ...], int] = {}
    for fac, mult in out:
        merged[tuple(fac)] = merged.get(tuple(fac), 0) + mult
    return [(list(fac), mult) for fac, mult in merged.items()]


def distinct_degree_factorization(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Oracle: [(d, product of the monic irreducible factors of degree d)]
    for a monic squarefree f over F_p, by gcd(x^(p^d) - x, v) with v the
    cofactor of the lower degrees, then the last class, of degree deg v."""
    out, v, h, d = [], list(f), [1, 0], 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gfpoly.gf_powmod(h, p, f, p)
        g = gfpoly.gf_gcd(gfpoly.add_mod(h, [p - 1, 0], p), v, p)
        if len(g) > 1:
            out.append((d, g))
            v, _ = gfpoly.gf_divmod(v, g, p)
    if len(v) > 1:
        out.append((len(v) - 1, v))
    return out


def factor(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Oracle for the irreducible factors of f over F_p, p odd: the monic
    irreducible factors with their multiplicities, sorted by degree, then
    coefficients.  Each part of `squarefree_decomposition` is split into the
    classes of `distinct_degree_factorization` and each class by
    Cantor-Zassenhaus."""
    rnd = random.Random(0)
    out = []
    for sqf, mult in squarefree_decomposition(f, p):
        for d, prod in distinct_degree_factorization(sqf, p):
            out += [(irr, mult) for irr in gfpoly.equal_degree_split(prod, d, p, rnd)]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def factor_by_trial_division(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """The same as `factor`, for any p but only small p and degree: every
    monic polynomial is divided out in order of degree while it divides, so
    each one that divides is irreducible."""
    f = gfpoly.gf_monic(gfpoly.normalize(f, p), p)
    out = []
    d = 1
    while 2 * d <= len(f) - 1:
        for tail in itertools.product(range(p), repeat=d):
            g, e = [1, *tail], 0
            while len(f) - 1 >= d:
                q, r = gfpoly.gf_divmod(f, g, p)
                if r:
                    break
                f, e = q, e + 1
            if e:
                out.append((g, e))
        d += 1
    if len(f) > 1:
        out.append((f, 1))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def factor_count_dp_oracle(n: int, p: int) -> tuple[int, ...]:
    """Oracle for densities.factor_count_distribution at one integer p >= 1
    by the exact multiset count: choose distinct irreducibles per degree with
    multiplicities."""
    A = {1: p + 1}
    for d in range(2, n + 1):
        A[d] = monic_irreducible_count(d, p)
    dp = [[0] * (n + 1) for _ in range(n + 1)]  # dp[t][m]
    dp[0][0] = 1
    for d in range(1, n + 1):
        # degree s*d taken by j distinct degree-d irreducibles: w ways
        terms = [
            (s * d, j, math.comb(A[d], j) * math.comb(s - 1, j - 1))
            for s in range(1, n // d + 1)
            for j in range(1, s + 1)
        ]
        new = [row[:] for row in dp]
        for t in range(n + 1):
            row = dp[t]
            for m in range(t + 1):
                v = row[m]
                if not v:
                    continue
                for tp, j, w in terms:
                    if tp > n - t:
                        break
                    new[t + tp][m + j] += v * w
        dp = new
    return tuple((p - 1) * dp[n][m] for m in range(n + 1))


def scaled_ideal(I: BasedIdeal, kappa: AlgebraElement) -> BasedIdeal:
    """kappa I, on the basis kappa b for b in the basis of I."""
    return BasedIdeal(I.form, tuple(algebra_mul(kappa, b) for b in I.basis))


def invariant_form_interpolation_oracle(A, B) -> tuple[int, ...]:
    """Oracle for orbits.invariant_form: the coefficients of
    (-1)^(n/2) det(A x - B y), by evaluating det(A t - B) at t = 0..n and
    solving the Vandermonde system over the rationals."""
    n = len(A)
    vals = [det([[A[i][j] * t - B[i][j] for j in range(n)] for i in range(n)]) for t in range(n + 1)]
    coeffs = solve([[t**k for k in range(n + 1)] for t in range(n + 1)], vals)  # coeffs[k] multiplies t^k
    assert all(c.denominator == 1 for c in coeffs)
    sign = (-1) ** (n // 2)
    return tuple(sign * int(coeffs[n - i]) for i in range(n + 1))


def is_prime_13_bases(n: int) -> bool:
    """Oracle for numutil.is_prime: Miller-Rabin with all 13 prime bases
    2..41 whatever the size of n, the test is_prime ran before it chose the
    number of bases by n.  Proven below psi_13 = 3317044064679887385961981."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def soluble_by_exhaustion(f: BinaryForm, p: int, start_level: int = 3, max_level: int = 24) -> bool:
    """Independent oracle for locally_soluble_p: flat enumeration of the
    residue classes of P^1(Z/p^k) starting at k = start_level.

    A class {x = x0 + p^k s, y = 1} (or {x = 1, y = y0 + p^k s} on the
    infinity side) has all values congruent to v = f(x0, y0) mod p^k, so it
    is decided once v_p(v) <= k - 1 (k - 3 at p = 2): soluble iff the
    valuation is even and the unit part is a square.  Undecided classes are
    re-enumerated one level deeper."""
    need = 3 if p == 2 else 1
    k = start_level
    pending = [(a, 1, True) for a in range(p**k)]
    pending += [(1, b * p, False) for b in range(p ** (k - 1))]
    while pending:
        if k > max_level:
            raise DescentBudgetError("exhaustive oracle exceeded its depth cap")
        nxt = []
        for x0, y0, affine in pending:
            v = evaluate(f, x0, y0)
            if v == 0:
                return True
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if e + need <= k:
                if e % 2 == 0 and _unit_is_square(v, p, need):
                    return True
                continue
            for s in range(p):
                if affine:
                    nxt.append((x0 + s * p**k, 1, True))
                else:
                    nxt.append((1, y0 + s * p**k, False))
        pending = nxt
        k += 1
    return False


def _unit_is_square(u: int, p: int, need: int) -> bool:
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def point_search_oracle(f: BinaryForm, B: int) -> CurvePoint | None:
    """Reference for rational_point_search: one evaluate and one isqrt_exact
    per candidate, the point at infinity first, then the primitive pairs of
    each height h = 1..B in the order (0, h), (1, h), (-1, h), ..., (h, h),
    (-h, h), (h, h - 1), (-h, h - 1), ..., (h, 1), (-h, 1), (h, 0)."""
    z = isqrt_exact(f.coeffs[0])
    if z is not None:
        return CurvePoint(1, 0, z)
    for h in range(1, B + 1):
        ring = [(0, h)] + [(s * x, h) for x in range(1, h + 1) for s in (1, -1)]
        ring += [(s * h, y) for y in range(h - 1, 0, -1) for s in (1, -1)] + [(h, 0)]
        for x, y in ring:
            if math.gcd(x, y) == 1:
                z = isqrt_exact(evaluate(f, x, y))
                if z is not None:
                    return CurvePoint(x, y, z)
    return None


def unit_square_value_oracle(hbar: list[int], p: int) -> bool:
    """Reference for search._takes_unit_square_value (hbar normalized mod the
    odd prime p): a scan against the set of nonzero squares when
    p <= max(1024, (deg + 2)^2), else the parity of the multiplicities in
    the squarefree decomposition (a factor of odd multiplicity means yes by
    the Weil bound; none means hbar = c G^2, a unit square value iff c is a
    square)."""
    if len(hbar) == 1:
        return pow(hbar[0], (p - 1) // 2, p) == 1
    if p <= max(1024, (len(hbar) + 1) ** 2):
        squares = {x * x % p for x in range(1, (p + 1) // 2 + 1)}
        return any(gfpoly.gf_eval(hbar, t, p) in squares for t in range(p))
    if any(j % 2 for _, j in squarefree_decomposition(hbar, p)):
        return True
    return pow(hbar[0], (p - 1) // 2, p) == 1


def serial_square_class(alpha, beta, trials: int = 50) -> SquareClassVerdict:
    """Reference for rings.same_square_class: the same real witness and the
    same checks, then one prime at a time, a distinct-degree factorization
    of fbar (the monic reduction of f(x, 1) mod p) and one `gf_powmod` test
    gamma^((p^d - 1)/2) = 1 mod g_d per distinct-degree product g_d."""
    f = alpha.form
    if beta.form != f:
        raise ValueError("elements belong to different algebras")
    G, D = algebra_mul(alpha, beta).numerator_poly()
    if not G:
        raise ZeroDivisionError("elements must be invertible")
    disc = f.disc
    if disc == 0:
        raise ValueError("Disc(f) = 0")
    funiv = f.univariate()
    res = intpoly.resultant(funiv, G)
    if res == 0:
        raise ZeroDivisionError("elements must be invertible")
    if intpoly.tarski_query(funiv, G) < intpoly.tarski_query(funiv, [1]):
        return SquareClassVerdict.DISTINCT
    bad = abs(f.coeffs[0] * disc * D * res)
    p, used = 1, 0
    while used < trials:
        p += 2
        if bad % p == 0 or not is_prime(p):
            continue
        used += 1
        reduced = gfpoly.gf_monic(gfpoly.normalize(funiv, p), p)
        if len(gfpoly.gf_gcd(reduced, gfpoly.normalize(intpoly.derivative(reduced), p), p)) > 1:
            raise ArithmeticError(f"f has a repeated factor mod the good prime {p}")
        dinv = pow(D % p, -1, p)
        gmod = [c * dinv % p for c in gfpoly.normalize(G, p)]
        for d, g in distinct_degree_factorization(reduced, p):
            if gfpoly.gf_powmod(gmod, (p**d - 1) // 2, g, p) != [1]:
                return SquareClassVerdict.DISTINCT
    return SquareClassVerdict.EQUAL if used else SquareClassVerdict.INCONCLUSIVE
