import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from pencilorbits import cli, gfpoly, intpoly, numutil

from conftest import is_prime_13_bases, random_unimodular


def fraction_det(M):
    """Oracle: Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            fac = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= fac * A[col][c]
    return det


def random_matrix(rng, n, rational=False, sparse=False):
    def entry():
        if sparse and rng.random() < 0.6:
            return 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rational else rng.randint(-9, 9)

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_matches_fraction_elimination():
    rng = random.Random(11)
    for trial in range(400):
        n = rng.randint(1, 7)
        M = random_matrix(rng, n, sparse=trial % 2 == 1)
        got = numutil.det(M)
        assert type(got) is int and got == fraction_det(M), M
        R = random_matrix(rng, n, rational=True, sparse=trial % 2 == 1)
        assert numutil.det(R) == fraction_det(R), R
    assert numutil.det([[0, 1], [1, 0]]) == -1  # zero pivot, row swap
    assert numutil.det([[Fraction(1, 2), 1], [1, 1]]) == Fraction(-1, 2)
    assert numutil.det([]) == 1


def test_det_singular():
    rng = random.Random(12)
    for trial in range(150):
        n = rng.randint(2, 7)
        M = random_matrix(rng, n, rational=trial % 2 == 1)
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        a, b = Fraction(rng.randint(-5, 5), 3), rng.randint(-5, 5)
        if trial % 2 == 0:
            a = int(3 * a)
        M[k] = [a * x + b * y for x, y in zip(M[i], M[j])] if k not in (i, j) else [0] * n
        assert numutil.det(M) == 0, M


def test_solve_satisfies_system():
    rng = random.Random(13)
    for trial in range(300):
        n = rng.randint(1, 7)
        A = random_matrix(rng, n, rational=trial % 2 == 1, sparse=trial % 3 == 0)
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
        if fraction_det(A) == 0:
            with pytest.raises(ValueError):
                numutil.solve(A, b)
            continue
        x = numutil.solve(A, b)
        assert all(sum(a * xi for a, xi in zip(row, x)) == bi for row, bi in zip(A, b)), (A, b)
        # several right-hand sides from one elimination
        b2 = [rng.randint(-9, 9) for _ in range(n)]
        x1, x2 = numutil.solve_columns(A, [b, b2])
        assert x1 == x
        assert all(sum(a * xi for a, xi in zip(row, x2)) == bi for row, bi in zip(A, b2)), (A, b2)
    with pytest.raises(ValueError):
        numutil.solve([[1, 2], [2, 4]], [1, 1])


def test_gf_eval_matches_integer_evaluation():
    rng = random.Random(14)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 101, 1009, 65537])
        coeffs = [rng.randint(-(10**8), 10**8) for _ in range(rng.randint(0, 9))]
        t = rng.randint(-300, 300)
        assert gfpoly.gf_eval(coeffs, t, p) == intpoly.evaluate_binary(coeffs, t, 1) % p


# psi_12 and psi_13 are strong pseudoprimes to every prime base up to 37 and
# up to 41 respectively (Sorenson & Webster)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi_12_and_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not numutil.is_prime(PSI_12)
    assert not numutil.is_prime(PSI_13)
    assert numutil.factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert numutil.factorize(PSI_13) == {1287836182261: 1, 2575672364521: 1}
    for q in (399165290221, 798330580441, 1287836182261, 2575672364521):
        assert numutil.is_prime(q)


def test_is_prime_at_each_psi_k():
    # psi_k is composite and a strong probable prime to the first k bases,
    # so is_prime must take more than k bases there; the primes just above
    # psi_k, and the composites before the first of them, get the verdict
    # of the 13-base test
    for k, psi in enumerate(numutil._PSI, 1):
        factors = numutil.factorize(psi)
        assert sum(factors.values()) > 1 and math.prod(p**e for p, e in factors.items()) == psi
        assert numutil._strong_probable_prime(psi, numutil._MR_BASES[:k])
        assert not numutil.is_prime(psi)
        n = psi + 1
        while not is_prime_13_bases(n):
            assert not numutil.is_prime(n), n
            n += 1
        assert numutil.is_prime(n), (k, n)


def test_is_prime_matches_the_13_base_test():
    rng = random.Random(16)
    for _ in range(3000):
        bits = rng.randint(2, 82)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert numutil.is_prime(n) == is_prime_13_bases(n), n


def _floyd_rho(n, rng, budget):
    """Oracle: Pollard's rho with Floyd's cycle search and one gcd per step,
    the splitting step factorize used before Brent's batched variant.  It
    ignores the step budget, so factorize never reaches ECM through it."""
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(0, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


# the Disc of the 11th form random_nondegenerate_form(6, 1000, Random(6))
# draws: two 55-bit primes, which Pollard's rho alone took minutes to split
SEXTIC_DISC = 2**6 * 23112393306397807 * 18812562604397719
P25, P31 = 16777259, 2**31 - 1

COMPOSITES = {
    561: {3: 1, 11: 1, 17: 1},
    600851475143: {71: 1, 839: 1, 1471: 1, 6857: 1},
    65537**3: {65537: 3},
    3**20 * 1000003**2: {3: 20, 1000003: 2},
    999983 * 1000003 * 1000033: {999983: 1, 1000003: 1, 1000033: 1},
    10**18 + 1: {101: 1, 9901: 1, 999999000001: 1},
    2**64 + 1: {274177: 1, 67280421310721: 1},
    3 * (2**64 + 1): {3: 1, 274177: 1, 67280421310721: 1},
    2**67 - 1: {193707721: 1, 761838257287: 1},
    (2**31 - 1) * (2**61 - 1): {2147483647: 1, 2305843009213693951: 1},
    PSI_12: {399165290221: 1, 798330580441: 1},
    PSI_13: {1287836182261: 1, 2575672364521: 1},
    P25**2: {P25: 2},
    P25**3: {P25: 3},
    P31**2: {P31: 2},
    P31**3: {P31: 3},
    1073741789 * 1073741783: {1073741789: 1, 1073741783: 1},
    SEXTIC_DISC: {2: 6, 23112393306397807: 1, 18812562604397719: 1},
}


def test_factorize_fixed_composites(monkeypatch):
    # three splitting paths give the same dicts: rho under its budget, then
    # the perfect-power test and ECM (the library's path); the unbounded
    # Floyd oracle alone (but for the three whose second-largest prime takes
    # it seconds to minutes); ECM alone, as rho with a budget of 0 steps
    # gives up at once
    for n, want in COMPOSITES.items():
        assert math.prod(p**e for p, e in want.items()) == n
        assert all(numutil.is_prime(p) for p in want)
        assert numutil.factorize(n) == want
    monkeypatch.setattr(numutil, "_pollard_rho", _floyd_rho)
    for n, want in COMPOSITES.items():
        if n not in (PSI_12, PSI_13, SEXTIC_DISC):
            assert numutil.factorize(n) == want
    monkeypatch.undo()
    monkeypatch.setattr(numutil, "_RHO_BUDGET", 0)
    for n, want in COMPOSITES.items():
        assert numutil.factorize(n) == want


def test_perfect_power():
    assert numutil._perfect_power(P25**2) == (P25, 2)
    assert numutil._perfect_power(P31**3) == (P31, 3)
    assert numutil._perfect_power((P25 * P31) ** 5) == (P25 * P31, 5)
    assert numutil._perfect_power(53**7) == (53, 7)
    for n in (P25**2 * P31, P31**3 + 2, 53 * 59, 1073741789 * 1073741783):
        assert numutil._perfect_power(n) is None, n


def test_factorize_is_bounded_on_a_sextic_discriminant():
    t0 = time.perf_counter()
    assert numutil.factorize(SEXTIC_DISC) == {2: 6, 23112393306397807: 1, 18812562604397719: 1}
    assert time.perf_counter() - t0 < 10


def test_survey_stdout_does_not_depend_on_the_rho_variant(monkeypatch):
    argv = ["survey", "--n", "4", "--height", "1000", "--point-bound", "12", "--count", "60", "--seed", "7"]
    outs = []
    for name, value in (("_pollard_rho", numutil._pollard_rho), ("_pollard_rho", _floyd_rho), ("_RHO_BUDGET", 0)):
        with monkeypatch.context() as m:
            m.setattr(numutil, name, value)
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.run(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2] and outs[0].count("\n") >= 60


def test_one_prime_check_for_every_local_computation():
    from pencilorbits import densities, finite_fields, search
    from pencilorbits.forms import BinaryForm

    f = BinaryForm((1, 0, 0, 0, 1))
    calls = (
        lambda p: numutil.require_prime(p),
        lambda p: densities.finite_prime_factor(4, p),
        lambda p: densities.mu_p_distribution(4, p),
        lambda p: finite_fields.count_pairs_with_form(f, p),
        lambda p: finite_fields.orbit_statistics_prediction(f, p),
        lambda p: finite_fields.square_value_count(f, p),
        lambda p: search.locally_soluble_p(f, p),
    )
    for call in calls:
        for p in (-3, 0, 1, 9):
            with pytest.raises(ValueError, match=f"^p must be a prime, got {p}$"):
                call(p)
    numutil.require_prime(7)


def test_is_prime_matches_sieve():
    limit = 20000
    primes = set(numutil.primes_upto(limit))
    assert [n for n in range(-3, limit + 1) if numutil.is_prime(n)] == sorted(primes)


def test_is_prime_above_psi_13():
    # the Baillie-PSW range: Mersenne primes, and composites made of them
    # (PSI_13 itself passes the strong base-2 test, so the Lucas test decides)
    m31, m61, m89, m107 = 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1
    for n in (m89, m107, 2**127 - 1, 2**521 - 1):
        assert numutil.is_prime(n), n
    for n in (m61 * m31, m89**2, m89 * m107, 2**89 + 1, PSI_13):
        assert n >= PSI_13 and not numutil.is_prime(n), n


def test_strong_lucas_pseudoprimes():
    # the strong Lucas pseudoprimes below 10^5 with Selfridge's parameters
    # (OEIS A217255); every odd prime passes the test
    expected = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    primes = set(numutil.primes_upto(10**5))
    passing = [
        n
        for n in range(3, 10**5, 2)
        if numutil.isqrt_exact(n) is None and numutil._strong_lucas_probable_prime(n)
    ]
    assert [n for n in passing if n not in primes] == expected
    assert primes - {2} <= set(passing)


def test_hnf_rows_reduces_above_every_pivot():
    # reducing by the last pivot first and by the middle one after leaves the
    # top row's entry above the last pivot at -1
    assert numutil.hnf_rows([[-1, -1, 0], [0, 1, 1], [0, 0, -3]]) == [[1, 0, 2], [0, 1, 1], [0, 0, 3]]


def test_hnf_rows_is_canonical_under_rebasing():
    # two generating sets of one lattice, related by unimodular row
    # operations, have one HNF: row echelon, positive pivots, every entry
    # above a pivot in [0, pivot), zero rows dropped
    rng = random.Random(15)
    for _ in range(300):
        rank = rng.randint(2, 6)
        ncols = rank + rng.randint(0, 2)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
        if rng.random() < 0.3:  # a dependent row as well
            rows.append([sum(rng.randint(-2, 2) * r[c] for r in rows) for c in range(ncols)])
        U = random_unimodular(len(rows), rng)
        rebased = [[sum(u * r[c] for u, r in zip(urow, rows)) for c in range(ncols)] for urow in U]
        H = numutil.hnf_rows(rows)
        assert numutil.hnf_rows(rebased) == H, rows
        pivots = [next(j for j, x in enumerate(row) if x) for row in H]
        assert pivots == sorted(set(pivots))
        for i, (row, j) in enumerate(zip(H, pivots)):
            assert row[j] > 0
            assert all(0 <= H[k][j] < row[j] for k in range(i))
