import random
from fractions import Fraction

import pytest

from pencilorbits import intpoly


def sylvester_resultant(p, q):
    """Oracle: resultant via the Sylvester matrix over Q."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    M = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(p):
            M[i][i + j] = Fraction(c)
    for i in range(m):
        for j, c in enumerate(q):
            M[n + i][i + j] = Fraction(c)
    det = Fraction(1)
    A = M
    for col in range(size):
        piv = next((r for r in range(col, size) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, size):
            if A[r][col]:
                fac = A[r][col] * inv
                for cc in range(col, size):
                    A[r][cc] -= fac * A[col][cc]
    return det


def reference_sturm_count(coeffs):
    """Oracle: classical Sturm chain with Fractions, variations at +-inf."""
    chain = [list(map(Fraction, coeffs))]
    n = len(coeffs) - 1
    chain.append([Fraction((n - i) * coeffs[i]) for i in range(n)])
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = list(a)
        while len(r) >= len(b):
            if r[0] != 0:
                c = r[0] / b[0]
                for j in range(1, len(b)):
                    r[j] -= c * b[j]
            r = r[1:]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            return None
        chain.append([-x for x in r])

    def var(signs):
        s = [x for x in signs if x != 0]
        return sum(1 for i in range(len(s) - 1) if (s[i] > 0) != (s[i + 1] > 0))

    plus = [c[0] for c in chain]
    minus = [c[0] if (len(c) - 1) % 2 == 0 else -c[0] for c in chain]
    return var(minus) - var(plus)


def test_resultant_matches_sylvester():
    rnd = random.Random(1)
    for _ in range(120):
        dp = rnd.randint(1, 6)
        dq = rnd.randint(1, 6)
        p = [rnd.randint(-9, 9) for _ in range(dp + 1)]
        q = [rnd.randint(-9, 9) for _ in range(dq + 1)]
        if p[0] == 0 or q[0] == 0:
            continue
        got = intpoly.resultant(p, q)
        want = sylvester_resultant(p, q)
        assert want.denominator == 1 and got == int(want), (p, q)
    common = [2, -3, 1]  # (2x - 1)(x - 1)
    cases = [
        ([1, 2], [3, 0, -1, 5]),  # deg p < deg q, both odd degrees
        ([1, 0, 2], [1, -1, 0, 4, 2]),  # deg p < deg q, even degrees
        ([7], [1, 2, 3]),  # constant argument
        ([2, 1, 1], [-5]),
        ([-4], [3]),
        (intpoly.mul(common, [1, 4]), intpoly.mul(common, [3, 0, 1])),  # common factor
        ([-2, 3, 1], [-1, 0, 4, 7]),  # negative leading coefficients
        ([-3, 1, 0, 2], [-4, 5]),
        ([-1, 0, 0, 0, 0, 6], [-2, 0, 0, 1]),
    ]
    for p, q in cases:
        want = sylvester_resultant(p, q)
        assert want.denominator == 1 and intpoly.resultant(p, q) == int(want), (p, q)
    assert intpoly.resultant(*cases[5]) == 0


def test_real_root_count_matches_reference():
    rnd = random.Random(2)
    for n in (2, 3, 4, 6, 8, 11):
        for _ in range(60):
            p = [rnd.randint(-50, 50) for _ in range(n + 1)]
            if p[0] == 0:
                p[0] = 1
            assert intpoly.real_root_count_squarefree(p) == reference_sturm_count(p), p


def test_real_root_count_on_split_products():
    rnd = random.Random(3)
    for _ in range(40):
        roots = sorted(rnd.sample(range(-12, 12), rnd.randint(1, 5)))
        c = [1]
        for r in roots:
            c = intpoly.mul(c, [1, -r])
        extra = rnd.randint(0, 2)
        ks = rnd.sample(range(1, 30), extra)
        for k in ks:
            c = intpoly.mul(c, [1, 0, k])  # positive definite, pairwise distinct
        assert intpoly.real_root_count_squarefree(c) == len(roots)


def test_nonsquarefree_detected():
    p = intpoly.mul([1, -3], [1, -3])
    p = intpoly.mul(p, [1, 1])
    assert intpoly.real_root_count_squarefree(p) is None
    assert intpoly.squarefree_part(p) in ([1, -2, -3], [-1, 2, 3])


def _sign(x):
    return (x > 0) - (x < 0)


def test_tarski_query_matches_signs_at_integer_roots():
    # p = lead * prod (x - r)^m * (positive definite quadratics): the real
    # roots are the integers r, where q is evaluated exactly
    rnd = random.Random(4)
    for _ in range(300):
        roots = [rnd.randint(-6, 6) for _ in range(rnd.randint(0, 5))]
        p = [rnd.choice([-3, -2, -1, 1, 2, 5])]
        for r in roots:
            p = intpoly.mul(p, [1, -r])
        for _ in range(rnd.randint(0, 2)):
            b = rnd.randint(-3, 3)
            p = intpoly.mul(p, [1, b, b * b + rnd.randint(1, 9)])  # x^2 + bx + c, b^2 < 4c
        q = intpoly.strip([rnd.randint(-9, 9) for _ in range(rnd.randint(0, 14))])
        want = sum(_sign(intpoly.evaluate_binary(q, r, 1)) for r in set(roots))
        assert intpoly.tarski_query(p, q) == want, (p, q)
        assert intpoly.tarski_query(p, [1]) == len(set(roots)), p


def test_tarski_query_reduces_high_degree_products():
    # deg p'q >= deg p with lc(p) < 0: p'q is reduced mod p first, and the
    # sign correction sgn(lc p)^k is exercised for odd and even k
    f = intpoly.mul(intpoly.mul([-1, 1], [1, 2]), [1, -5])  # -(x - 1)(x + 2)(x - 5)
    for q, want in (([2, -1], 1), ([1, 0, 0, -2], -1), ([-1, 0, 0, 0, 3], -1), ([1, 0, 0, 0, 0, 0], 1)):
        # q = 2x - 1, x^3 - 2, 3 - x^4, x^5 at the roots -2, 1, 5
        assert intpoly.tarski_query(f, q) == want, q
        assert intpoly.tarski_query(intpoly.neg(f), q) == want, q
    # q vanishing at every root of p: p | p'q
    assert intpoly.tarski_query([-2, 0, 2], [1, 0, -1]) == 0
    assert intpoly.tarski_query([-2, 0, 2], []) == 0
    with pytest.raises(ValueError):
        intpoly.tarski_query([0, 0], [1])


def test_tarski_query_with_degree_drops():
    # signed remainder sequences that drop more than one degree at a time
    # x^6 - 1 and x^3: p'q = 6x^8 reduces to 6x^2, then the constant 1
    assert intpoly.tarski_query([1, 0, 0, 0, 0, 0, -1], [1, 0, 0, 0]) == 0
    assert intpoly.tarski_query([1, 0, 0, 0, 0, 0, -1], [1, 0, 0]) == 2
    # x^5 - x (roots 0, +-1) against x^4 - 2: -2, -1, -1
    assert intpoly.tarski_query([1, 0, 0, 0, -1, 0], [1, 0, 0, 0, -2]) == -3
    # x^4 + 1 has no real root whatever q is
    assert intpoly.tarski_query([1, 0, 0, 0, 1], [-1, 0, 0, 7]) == 0
    # (x^2 - 2)^2 (x - 3): distinct roots +-sqrt 2, 3 against x
    p = intpoly.mul(intpoly.mul([1, 0, -2], [1, 0, -2]), [1, -3])
    assert intpoly.tarski_query(p, [1, 0]) == 1
    assert intpoly.tarski_query(p, [1]) == 3
    assert intpoly.real_root_count_squarefree(p) is None


def test_poly_gcd():
    a = intpoly.mul([1, -1], [2, 3])
    b = intpoly.mul([1, -1], [1, 7])
    g = intpoly.poly_gcd(a, b)
    assert g == [1, -1]
    assert intpoly.poly_gcd([1, 0, 1], [1, 1]) == [1]
    # non-monic common factor, in either sign
    c = [3, 2]
    assert intpoly.poly_gcd(intpoly.mul(c, [1, 0, 1]), intpoly.mul(c, [2, -5])) == c
    assert intpoly.poly_gcd(intpoly.mul(c, [-1, 0, 1]), intpoly.mul(c, [-2, -5])) == c
    # x^5 + 1 and x^4 + 1: the first remainder drops from degree 4 to 1
    assert intpoly.poly_gcd([1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1]) == [1]
    c = [2, 0, 1]
    assert intpoly.poly_gcd(intpoly.mul(c, [1, 0, 0, 0, 0, 1]), intpoly.mul(c, [1, 0, 0, 0, 1])) == c


def test_h_update_rejects_inexact_division():
    assert intpoly._h_update(6, 2, 2) == 18
    with pytest.raises(ArithmeticError):
        intpoly._h_update(3, 2, 2)


def test_sturm_chain_with_degree_drops():
    # chains where the remainder drops more than one degree at a time
    assert intpoly.real_root_count_squarefree([1, 0, 0, 0, 1]) == 0  # x^4 + 1
    assert intpoly.real_root_count_squarefree([1, 0, 0, 0, 0, 0, -1]) == 2  # x^6 - 1
    assert intpoly.real_root_count_squarefree([1, 0, 0, -2]) == 1  # x^3 - 2
    assert intpoly.resultant([1, 0, 0, 0, 1], [4, 0, 0, 0]) == 256  # f, f'
