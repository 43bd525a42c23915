"""Exact univariate polynomial arithmetic over Z and Q.

Polynomials are dense coefficient lists in descending order (leading
coefficient first), so a binary form f0*x^n + ... + fn*y^n restricts to
f(x, 1) = [f0, ..., fn] directly.  Integer paths are fraction free
(subresultant PRS controls coefficient growth); rational paths use Fraction.
"""

from fractions import Fraction
from math import gcd, lcm


def strip(p: list) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def evaluate_binary(coeffs: list, x, y):
    """Homogeneous evaluation: sum coeffs[i] * x^(n-i) * y^i, by Horner."""
    acc, ypow = 0, 1
    for c in coeffs:
        acc = acc * x + c * ypow
        ypow *= y
    return acc


def derivative(p: list) -> list:
    n = len(p) - 1
    return [(n - i) * p[i] for i in range(n)]


def mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def neg(p: list) -> list:
    return [-c for c in p]


def divmod_exact(p: list, q: list) -> tuple[list, list]:
    """Quotient and remainder over Q (Fraction coefficients)."""
    q = strip(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in strip(list(p))]
    dq = len(q) - 1
    quo: list[Fraction] = []
    while len(r) - 1 >= dq and r:
        c = r[0] / q[0]
        quo.append(c)
        tail = r[1:]
        for j in range(1, dq + 1):
            tail[j - 1] -= c * q[j]
        r = tail
    return quo, strip(r)


def content(p: list) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g or 1


def primitive(p: list) -> list:
    g = content(p)
    return [c // g for c in p]


def prem(a: list, b: list) -> list:
    """prem(a, b) = lc(b)^max(0, deg a - deg b + 1) * a  mod  b, exact integers."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[0]
    m = da - db + 1
    r = list(a)
    while r and len(r) - 1 >= db:
        lead = r[0]
        new = [lb * c for c in r]
        for j in range(db + 1):
            new[j] -= lead * b[j]
        r = strip(new[1:])
        m -= 1
    for _ in range(m):
        r = [lb * c for c in r]
    return r


def _subresultant_prs(a: list, b: list):
    """Subresultant PRS of stripped integer polynomials with deg a >= deg b
    (Brown & Traub): yields (b, r, delta, div, h) once per pseudo-division,
    where b is the divisor, delta = deg a - deg b, r = prem(a, b) / div is
    the next element (exact), and h is the updated subresultant scale.
    Stops after a zero or constant r."""
    g, h = 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        div = g * h**delta
        r = [c // div for c in prem(a, b)]
        a, b = b, r
        g = a[0]
        h = _h_update(g, h, delta)
        yield a, r, delta, div, h


def resultant(p: list, q: list) -> int:
    """Resultant of two integer polynomials (Brown/Cohen subresultant scheme)."""
    a, b = strip(list(p)), strip(list(q))
    if not a or not b:
        return 0
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
        a, b = b, a
    if len(b) - 1 == 0:
        return s * b[0] ** (len(a) - 1)
    for b, r, delta, _, h in _subresultant_prs(a, b):
        db = len(b) - 1
        if db % 2 == 1 and (db + delta) % 2 == 1:
            s = -s
        if not r:
            return 0
        if len(r) == 1:
            return s * (r[0] ** db // h ** (db - 1))


def _h_update(g: int, h: int, delta: int) -> int:
    if delta == 0:
        return h
    if delta == 1:
        return g
    q, r = divmod(g**delta, h ** (delta - 1))
    if r:
        raise ArithmeticError("inexact subresultant scale update")
    return q


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list) -> int:
    """Sign changes along a list of nonzero signs."""
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sylvester(p: list, q: list) -> tuple[int, int]:
    """(TaQ(q, p), deg gcd(p, p'q)) for a nonzero stripped integer polynomial
    p, where the Tarski query TaQ(q, p) is the sum of sign q(x) over the
    distinct real roots x of p.

    Sylvester's theorem (Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, ch. 2): TaQ(q, p) is the Cauchy index of p'q/p, which is
    Var(-inf) - Var(+inf) of the signed remainder sequence of p and p'q.
    The index depends on p'q only modulo p, so a p'q of degree >= deg p is
    first replaced by sgn(lc p)^k prem(p'q, p), a positive multiple of its
    remainder.  The sequence is the subresultant PRS, each element carrying
    the sign that relates it to the classical one.
    """
    b = strip(mul(derivative(p), q))
    if len(b) >= len(p):
        k = len(b) - len(p) + 1
        b = prem(b, p)
        if p[0] < 0 and k % 2:
            b = neg(b)
    # signs at +inf and degrees of the classical sequence
    plus, degrees = [_sign(p[0])], [len(p) - 1]
    if b:
        plus.append(_sign(b[0]))
        degrees.append(len(b) - 1)
        sa, sb = 1, 1
        for d, r, delta, div, _ in _subresultant_prs(p, b):
            if not r:
                break
            # r is sr times a positive multiple of the classical element
            sr = -(_sign(d[0]) ** (delta + 1)) * sa * _sign(div)
            sa, sb = sb, sr
            plus.append(sr * _sign(r[0]))
            degrees.append(len(r) - 1)
    minus = [-s if k % 2 else s for s, k in zip(plus, degrees)]
    return _variations(minus) - _variations(plus), degrees[-1]


def tarski_query(p: list, q: list) -> int:
    """Sum of sign q(x) over the distinct real roots x of the nonzero
    integer polynomial p (so tarski_query(p, [1]) counts them)."""
    a = strip(list(p))
    if not a:
        raise ValueError("the zero polynomial has no finite root set")
    return _sylvester(a, strip(list(q)))[0]


def real_root_count_squarefree(p: list) -> int | None:
    """Number of distinct real roots of the squarefree integer polynomial p,
    from one Sylvester query.  None if p is zero or not squarefree."""
    a = strip(list(p))
    if not a:
        return None
    count, gcd_degree = _sylvester(a, [1])
    return count if gcd_degree == 0 else None


def squarefree_part(p: list) -> list:
    """Primitive squarefree part of the integer polynomial p (over Q)."""
    a = strip(list(p))
    if len(a) - 1 <= 0:
        return [1] if a else []
    g = poly_gcd(a, derivative(a))
    if len(g) == 1:
        return primitive(a)
    quo, rem = divmod_exact(a, g)
    if rem:
        raise ArithmeticError("gcd does not divide the polynomial")
    den = lcm(*[c.denominator for c in quo])
    return primitive([int(c * den) for c in quo])


def poly_gcd(p: list, q: list) -> list:
    """Primitive gcd over Z of two integer polynomials."""
    a, b = strip(list(p)), strip(list(q))
    if not a:
        return primitive(b) if b else []
    if not b:
        return primitive(a)
    if len(a) < len(b):
        a, b = b, a
    for b, r, *_ in _subresultant_prs(a, b):
        if not r:
            out = primitive(b)
            return neg(out) if out[0] < 0 else out
    return [1]
