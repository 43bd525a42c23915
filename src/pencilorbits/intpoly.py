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


def degree(p: list) -> int:
    """Degree of a stripped polynomial; [] (the zero polynomial) gives -1."""
    return len(p) - 1


def evaluate(p: list, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def evaluate_binary(coeffs: list, x, y):
    """Homogeneous evaluation: sum coeffs[i] * x^(n-i) * y^i."""
    n = len(coeffs) - 1
    xp = [1]
    for _ in range(n):
        xp.append(xp[-1] * x)
    acc = 0
    ypow = 1
    for i in range(n + 1):
        acc += coeffs[i] * xp[n - i] * ypow
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


def add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    off = len(p) - len(q)
    for i, b in enumerate(q):
        out[off + i] += b
    return strip(out)


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


def _prem(a: list, b: list) -> list:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod  b, exact integers."""
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
        r = [c // div for c in _prem(a, b)]
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


def sturm_chain_signs(p: list) -> list[tuple[int, int]] | None:
    """(sign, degree) of each element of the classical Sturm chain of p,
    where sign is the sign of the true leading coefficient.

    Computed with the integer subresultant PRS plus bookkeeping of the sign
    relating each stored element to the classical chain.  Returns None when
    the chain terminates early (p not squarefree).
    """
    a = strip(list(p))
    n = len(a) - 1
    if n <= 0:
        return [(1 if a[0] > 0 else -1, 0)] if a else None
    b = strip(derivative(a))
    out = [(1 if a[0] > 0 else -1, n), (1 if b[0] > 0 else -1, len(b) - 1)]
    sa, sb = 1, 1
    for b, r, delta, div, _ in _subresultant_prs(a, b):
        if not r:
            return None
        sr = -((1 if b[0] > 0 else -1) ** (delta + 1)) * sa * (1 if div > 0 else -1)
        sa, sb = sb, sr
        out.append(((1 if r[0] > 0 else -1) * sr, len(r) - 1))
    return out


def _variations(signs) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def real_root_count_squarefree(p: list) -> int | None:
    """Number of distinct real roots of the squarefree integer polynomial p,
    from Sturm-chain signs at -inf and +inf only.  None if not squarefree."""
    chain = sturm_chain_signs(p)
    if chain is None:
        return None
    plus = [s for s, d in chain]
    minus = [s if d % 2 == 0 else -s for s, d in chain]
    return _variations(minus) - _variations(plus)


def sturm_chain(p: list) -> list[list]:
    """Explicit Sturm chain of squarefree p; each element is a positive
    integer multiple of the classical one, so sign queries are faithful."""
    a = strip(list(p))
    if len(a) - 1 <= 0:
        return [a]
    chain = [a, strip(derivative(a))]
    sa, sb = 1, 1
    for b, r, delta, div, _ in _subresultant_prs(a, chain[1]):
        if not r:
            raise ValueError("polynomial is not squarefree")
        sr = -(_sign(b[0]) ** (delta + 1)) * sa * _sign(div)
        sa, sb = sb, sr
        chain.append(neg(r) if sr < 0 else r)
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def count_roots_between(chain: list[list], lo, hi) -> int:
    """Number of roots in (lo, hi] from a Sturm chain."""
    vlo = _variations([_sign(evaluate(c, lo)) for c in chain])
    vhi = _variations([_sign(evaluate(c, hi)) for c in chain])
    return vlo - vhi


def root_bound(p: list) -> int:
    """Cauchy bound: every real root lies in (-B, B)."""
    lead = abs(p[0])
    rest = max((abs(c) for c in p[1:]), default=0)
    return 1 + (rest + lead - 1) // lead


def isolate_real_roots(chain: list[list]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], each containing exactly one real root of
    the squarefree integer polynomial chain[0], sorted increasingly; chain is
    its Sturm chain."""
    B = root_bound(chain[0])
    lo0, hi0 = Fraction(-B), Fraction(B)
    total = count_roots_between(chain, lo0, hi0)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo0, hi0, total)]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        kl = count_roots_between(chain, lo, mid)
        stack.append((lo, mid, kl))
        stack.append((mid, hi, k - kl))
    out.sort()
    return out


def sign_at_root(chain: list[list], interval: tuple, q: list, qchain: list[list]) -> int:
    """Sign of q at the unique root of chain[0] in the interval, chain being
    its Sturm chain and qchain the Sturm chain of squarefree_part(q), which
    a caller asking about several roots builds once.

    Requires that q does not vanish at that root (e.g. gcd(chain[0], q) = 1)."""
    lo, hi = interval
    while True:
        if count_roots_between(qchain, lo, hi) == 0:
            v = evaluate(q, hi)
            if v != 0:
                return _sign(v)
            # root of p sits exactly at hi yet q(hi) = 0 contradicts gcd = 1;
            # shrink instead
        mid = (lo + hi) / 2
        if count_roots_between(chain, lo, mid) == 1:
            lo, hi = lo, mid
        else:
            lo, hi = mid, hi


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
