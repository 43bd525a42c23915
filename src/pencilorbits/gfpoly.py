"""Dense univariate polynomial arithmetic over F_p: squarefree and
distinct-degree decompositions, and factorization types built from them.

Coefficient lists are in descending order with entries reduced mod p and a
nonzero leading coefficient ([] is the zero polynomial).  There is no full
factorization: a factorization type needs only the degrees and
multiplicities of the irreducible factors, which the two decompositions give
without splitting.  Cantor-Zassenhaus equal-degree splitting (odd p, seeded
by the caller) remains for finding the roots of a polynomial in F_p.
"""

import random

from . import intpoly


def normalize(p: list[int], mod: int) -> list[int]:
    return intpoly.strip([c % mod for c in p])


def gf_eval(a, x, mod):
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in a:
        acc = (acc * x + c) % mod
    return acc


def gf_mul(a, b, mod):
    return normalize(intpoly.mul(a, b), mod)


def gf_divmod(a, b, mod):
    if not b:
        raise ZeroDivisionError
    r = list(a)
    db = len(b) - 1
    inv = pow(b[0], -1, mod)
    quo = []
    while len(r) - 1 >= db and r:
        c = r[0] * inv % mod
        quo.append(c)
        tail = r[1:]
        if c:
            for j in range(1, db + 1):
                tail[j - 1] = (tail[j - 1] - c * b[j]) % mod
        r = tail
    i = 0
    while i < len(r) and r[i] == 0:
        i += 1
    return quo, r[i:]


def gf_mod(a, b, mod):
    return gf_divmod(a, b, mod)[1]


def gf_gcd(a, b, mod):
    a, b = normalize(a, mod), normalize(b, mod)
    while b:
        a, b = b, gf_mod(a, b, mod)
    if a:
        inv = pow(a[0], -1, mod)
        a = [c * inv % mod for c in a]
    return a


def gf_powmod(base, e, modulus, mod):
    """base^e mod modulus, right to left: bit_length(e) - 1 squarings and
    popcount(e) multiplications."""
    result = [1]
    base = gf_mod(base, modulus, mod)
    while e:
        if e & 1:
            result = gf_mod(gf_mul(result, base, mod), modulus, mod)
        e >>= 1
        if e:
            base = gf_mod(gf_mul(base, base, mod), modulus, mod)
    return result


def gf_monic(a, mod):
    if not a:
        return a
    inv = pow(a[0], -1, mod)
    return [c * inv % mod for c in a]


def gf_derivative(a, mod):
    return normalize(intpoly.derivative(a), mod)


def squarefree_decomposition(f, mod):
    """Char-p squarefree decomposition: list of (factor, multiplicity) with
    factors monic, squarefree, pairwise coprime, and product f up to unit."""
    f = gf_monic(normalize(f, mod), mod)
    out: list[tuple[list[int], int]] = []
    if len(f) <= 1:
        return out
    df = gf_derivative(f, mod)
    if not df:
        # f = g(x^p) = (p-th root of g)^p over F_p
        for fac, mult in squarefree_decomposition(_pth_root(f, mod), mod):
            out.append((fac, mult * mod))
        return _merge(out)
    t = gf_gcd(f, df, mod)
    v, _ = gf_divmod(f, t, mod)
    k = 0
    while len(v) > 1:
        k += 1
        w = gf_gcd(t, v, mod)
        u, _ = gf_divmod(v, w, mod)  # factors of multiplicity exactly k
        if len(u) > 1:
            out.append((gf_monic(u, mod), k))
        v = w
        t, _ = gf_divmod(t, w, mod)
    if len(t) > 1:
        # remaining multiplicities all divisible by p
        for fac, mult in squarefree_decomposition(_pth_root(t, mod), mod):
            out.append((fac, mult * mod))
    return _merge(out)


def _merge(pairs):
    acc: dict[tuple, int] = {}
    for fac, m in pairs:
        key = tuple(fac)
        acc[key] = acc.get(key, 0) + m
    return [(list(k), m) for k, m in acc.items()]


def _pth_root(f, mod):
    # f(x) = g(x^p) over F_p; g coefficients are the p-th roots = themselves
    n = len(f) - 1
    if n % mod:
        raise ArithmeticError("not a polynomial in x^p")
    g = []
    for i in range(0, n + 1, mod):
        g.append(f[i])
    return g


def distinct_degree_factorization(f, mod):
    """[(d, product of all monic irreducible factors of degree d)] for a
    monic squarefree f: g_d = gcd(x^(p^d) - x, v), v <- v / g_d, then the
    last class, of degree deg v.  Every class divides f, so the remainders
    mod f give the same gcds as remainders mod v.  Each power x^(p^d) mod f
    is taken only while a class of degree d can remain."""
    out, v, h, d = [], list(f), [1, 0], 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_powmod(h, mod, f, mod)
        g = gf_gcd(add_mod(h, [mod - 1, 0], mod), v, mod)
        if len(g) > 1:
            out.append((d, g))
            v, _ = gf_divmod(v, g, mod)
    if len(v) > 1:
        out.append((len(v) - 1, v))
    return out


def add_mod(a, b, mod):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    off = len(a) - len(b)
    for i, c in enumerate(b):
        out[off + i] = (out[off + i] + c) % mod
    return normalize(out, mod)


def equal_degree_split(f, d, mod, rng: random.Random):
    """Cantor-Zassenhaus at odd p: split monic squarefree f, all of whose
    irreducible factors have degree d, into the list of its irreducible
    factors."""
    if mod == 2:
        raise ValueError("equal-degree splitting is implemented for odd p only")
    n = len(f) - 1
    if n == d:
        return [list(f)]
    factors = [list(f)]
    out = []
    e = (mod**d - 1) // 2
    while factors:
        g = factors.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        while True:
            a = [rng.randrange(mod) for _ in range(len(g) - 1)]
            a = normalize(a, mod)
            if len(a) < 1:
                continue
            b = gf_powmod(a, e, g, mod)
            b = add_mod(b, [mod - 1], mod)
            h = gf_gcd(b, g, mod)
            if 0 < len(h) - 1 < len(g) - 1:
                q, _ = gf_divmod(g, h, mod)
                factors.append(gf_monic(h, mod))
                factors.append(gf_monic(q, mod))
                break
    return out


def factor_degrees(f, mod) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) pairs of the distinct monic irreducible
    factors of f over F_p.  The squarefree parts have distinct multiplicities
    and are pairwise coprime, and a distinct-degree class of degree d and
    product g holds deg(g) / d factors, so no class is split."""
    out = []
    for sqf, mult in squarefree_decomposition(f, mod):
        for d, prod in distinct_degree_factorization(sqf, mod):
            out += [(d, mult)] * ((len(prod) - 1) // d)
    return sorted(out)
