"""Dense univariate polynomial arithmetic over F_p and factorization types.

Coefficient lists are in descending order with entries reduced mod p and a
nonzero leading coefficient ([] is the zero polynomial).  There is no full
factorization: a factorization type needs only the degrees and
multiplicities of the irreducible factors, which `factor_degrees` reads from
distinct-degree gcds without splitting any factor.  Cantor-Zassenhaus
equal-degree splitting (odd p, seeded by the caller) remains only for
finding the roots of a polynomial in F_p.
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
    return quo, intpoly.strip(r)


def gf_mod(a, b, mod):
    return gf_divmod(a, b, mod)[1]


def gf_gcd(a, b, mod):
    a, b = normalize(a, mod), normalize(b, mod)
    while b:
        a, b = b, gf_mod(a, b, mod)
    return gf_monic(a, mod)


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
    factors of f over F_p, read from distinct-degree gcds without a
    squarefree decomposition and without splitting any factor.

    With f monic, v the cofactor of f not yet accounted for and
    h = x^(p^d) mod f: x^(p^d) - x is the squarefree product of the monic
    irreducibles of degree dividing d, and v has no factor of degree < d left,
    so g = gcd(h - x, v) is the product of the degree-d factors of v, each
    taken once.  Every cofactor divides f, so remainders mod f give the same
    gcds as remainders mod v.  For k = 1, 2, ...: once v <- v / g,
    rest = gcd(g, v) is the product of the degree-d factors of multiplicity
    > k, so (deg g - deg rest) / d of them have multiplicity exactly k; then
    g <- rest.  When deg v < d, v has no degree-d factor and rest = 1 without
    a gcd.  No step takes a p-th root, so multiplicities divisible by p, and
    p = 2, need no special case.  A power is taken only while deg v >= 2d;
    after the loop v has no factor of degree <= d and deg v < 2(d + 1), so a
    nonconstant v is one irreducible of multiplicity 1 and degree > d.  The
    pairs come out in (degree, multiplicity) order, so no sort is needed."""
    f = gf_monic(normalize(f, mod), mod)
    out, v, h, d = [], f, [1, 0], 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_powmod(h, mod, f, mod)
        g = gf_gcd(add_mod(h, [mod - 1, 0], mod), v, mod)
        k = 0
        while len(g) > 1:
            k += 1
            v, _ = gf_divmod(v, g, mod)
            rest = gf_gcd(g, v, mod) if len(v) - 1 >= d else [1]
            out += [(d, k)] * ((len(g) - len(rest)) // d)
            g = rest
    if len(v) > 1:
        out.append((len(v) - 1, 1))
    return out
