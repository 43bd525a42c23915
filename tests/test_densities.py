import itertools
import math
from fractions import Fraction

import pytest

from pencilorbits import densities as D
from pencilorbits import gfpoly
from pencilorbits.numutil import primes_upto

from conftest import factor_count_dp_oracle


def distinct_count_table(n, p):
    """Enumeration oracle: m for every coefficient vector; index is the
    base-p encoding of (f0..fn), the zero form keeps -1."""
    out = [-1] * p ** (n + 1)
    for idx, vec in enumerate(itertools.product(range(p), repeat=n + 1)):
        if not any(vec):
            continue
        reduced = gfpoly.normalize(list(vec), p)
        out[idx] = (1 if len(reduced) - 1 < n else 0) + len(gfpoly.factor_degrees(reduced, p))
    return out


def mu_p_by_enumeration(n, p):
    counts = [0] * (n + 1)
    for m in distinct_count_table(n, p):
        if m >= 0:
            counts[m] += 1
    return tuple(Fraction(c, p ** (n + 1)) for c in counts)


def mu_8_by_enumeration(n):
    """Every residue vector mod 8, typed by its reduction mod 2."""
    counts = [0] * (n + 1)
    table = distinct_count_table(n, 2)
    for vec in itertools.product(range(8), repeat=n + 1):
        idx = 0
        for c in vec:
            idx = idx * 2 + (c & 1)
        m = table[idx]
        if m >= 0:
            counts[m] += 1
    return tuple(Fraction(c, 8 ** (n + 1)) for c in counts)


def test_mu_p_examples_and_sums():
    dist = D.mu_p_distribution(2, 2)
    assert dist[1] == Fraction(1, 2) and dist[2] == Fraction(3, 8)
    for n, p in [(2, 2), (2, 3), (4, 2), (4, 3), (4, 5), (6, 2)]:
        dist = D.mu_p_distribution(n, p)
        assert sum(dist) == 1 - Fraction(1, p ** (n + 1))
        assert dist[0] == 0


def test_mu_p_enumeration_matches_combinatorial_count():
    for n, p in [(2, 2), (2, 3), (2, 5), (2, 7), (4, 2), (4, 3), (4, 5), (6, 2), (6, 3)]:
        enum = mu_p_by_enumeration(n, p)
        counts = D.factor_count_distribution(n, p)
        dp = tuple(Fraction(c, p ** (n + 1)) for c in counts)
        assert enum == dp, (n, p)
        assert D.mu_p_distribution(n, p) == dp, (n, p)


def test_generating_function_count_matches_dp():
    # the squarefree generating function against the multiset count at
    # every q the Newton form is built from; the series rows grow on demand
    # and are shared by every n, so the values must not depend on the order
    # of the calls: from cold caches, n = 22 first and then 1..21, and
    # 1..22 ascending
    want = {(n, q): factor_count_dp_oracle(n, q) for n in range(1, 23) for q in range(1, n + 3)}
    for order in ([22, *range(1, 22)], range(1, 23)):
        D._squarefree_series.cache_clear()
        for n in order:
            for q in range(1, n + 3):
                assert D._factor_count_gf(n, q) == want[n, q], (n, q)


def test_closed_form_matches_dp():
    # the Newton form of each entry against the multiset count, at every
    # odd p <= 1000 (primes or not: both sides are polynomials in p)
    for n in range(2, 23):
        for p in range(3, 1001, 2):
            assert D.factor_count_distribution(n, p) == factor_count_dp_oracle(n, p), (n, p)
        assert D.factor_count_distribution(n, 2) == factor_count_dp_oracle(n, 2)


def finite_factor_by_fraction_sum(n, p):
    counts = D.factor_count_distribution(n, p)
    want = sum(min(Fraction(1), Fraction(p + 1, 2 ** (m - 1))) * Fraction(counts[m], p ** (n + 1)) for m in range(1, n + 1))
    # every weight is <= 1 and the masses sum to 1 - p^-(n+1): no clamp needed
    assert want < 1, (n, p)
    return want


def test_finite_prime_factor_matches_fraction_sum():
    # the threshold-weighted Newton sums against the plain Fraction formula
    # at every odd prime <= 1000 and every even n <= 22: every threshold
    # m0 = min(n, bit_length(p + 1)) those primes reach, with m0 = n (no
    # capped weight) at small n
    for n in range(2, 23, 2):
        for p in primes_upto(1000)[1:]:
            assert D.finite_prime_factor(n, p) == finite_factor_by_fraction_sum(n, p), (n, p)


def test_density_bound_floats_match_fraction_product():
    # the one integer product gives the floats of the Fraction product
    for g in (1, 2, 3):
        n = 2 * g + 2
        rep = D.density_bound(g, 1000, 2000, 7)
        prod = Fraction(1)
        for p in primes_upto(1000)[1:]:
            fp = finite_factor_by_fraction_sum(n, p)
            assert rep.finite_factors[p] == float(fp), (g, p)
            prod *= fp
        tail = float(D.two_adic_factor(n) * prod)
        assert rep.bound == rep.archimedean_factor * tail, g
        assert rep.bound_conservative == (rep.archimedean_factor + 3 * rep.archimedean_stderr) * tail, g


@pytest.mark.parametrize("p", [0, 1, 9, 15])
def test_local_factors_reject_non_primes(p):
    for call in (D.finite_prime_factor, D.mu_p_distribution):
        with pytest.raises(ValueError, match="prime"):
            call(4, p)
    with pytest.raises(ValueError, match="prime"):
        D.mu_p(4, 1, p)


def test_irreducible_form_count_calibration():
    for p in (3, 5, 7):
        cnt = D.irreducible_form_count(4, p)
        assert abs(cnt - p**5 / 4) <= 3 * p**4
        # m = 1 forms include irreducible ones and prime powers; the
        # irreducible count is exactly (p-1) * N_4(p)
        assert cnt == (p - 1) * D.monic_irreducible_count(4, p)


def test_mu_8_examples():
    for n in (2, 4):
        mu8 = D.mu_8_distribution(n)
        mu2 = D.mu_p_distribution(n, 2)
        assert mu8 == mu2
        assert mu8 == mu_8_by_enumeration(n)
        assert sum(mu8) == 1 - Fraction(1, 2 ** (n + 1))
    assert D.mu_8(4, 4) == D.mu_8_distribution(4)[4]


def test_mu_real_partition_and_determinism():
    a = D.mu_real(4, 20000, 9)
    b = D.mu_real(4, 20000, 9)
    assert a.counts == b.counts
    assert sum(a.counts) == 20000
    assert sum(a.estimate(m) for m in range(3)) == 1
    # two chunks, merged by a pool of two workers: the same counts
    serial = D.mu_real(4, D.MC_CHUNK + 1, 0)
    assert D.mu_real(4, D.MC_CHUNK + 1, 0, jobs=2).counts == serial.counts


def test_mu_real_n2_against_quadrature():
    from scipy import integrate

    # P(f1^2 > 4 f0 f2) for iid uniform [-1/2, 1/2]: integrate the b-measure
    def inner(a, c):
        t = 4 * a * c
        if t <= 0:
            return 1.0
        r = 2 * math.sqrt(t)
        return max(0.0, 1.0 - r) if r <= 1 else 0.0

    val, err = integrate.dblquad(inner, -0.5, 0.5, lambda a: -0.5, lambda a: 0.5)
    mu = D.mu_real(2, 200000, 123)
    est = float(mu.estimate(1))
    se = mu.stderr(1)
    assert abs(est - val) <= 3 * se + err + 1e-3, (est, val, se)


def test_mu_real_conditional_two_real_roots():
    # any sample with f0*f2 < 0 has two real roots; verified via a filtered
    # rerun of the classifier
    import numpy as np

    from pencilorbits.realroots import count_real_roots_batch

    rng = np.random.default_rng(3)
    K = rng.integers(0, 1 << 12, size=(20000, 3), dtype=np.int64)
    C = 2 * K + 1 - (1 << 12)
    mask = C[:, 0] * C[:, 2] < 0
    counts = count_real_roots_batch(C[mask])
    assert (counts == 2).all()


def test_archimedean_factor_identities():
    af1 = D.archimedean_factor(1, 30000, 5)
    assert af1.value == 1
    af0 = D.archimedean_factor(0, 30000, 5)
    assert af0.value == 1
    af2 = D.archimedean_factor(2, 150000, 5)
    assert af2.value < 1
    mu = D.mu_real(6, 150000, 5)
    assert af2.value == 1 - Fraction(1, 4) * mu.estimate(3)


def test_two_adic_factor_matches_fraction_sum():
    # the threshold-weighted Newton sums at q = 2, cap 12, against the plain
    # Fraction loop over mu(I_8(m))
    for n in range(2, 31, 2):
        mu8 = D.mu_8_distribution(n)
        want = sum(min(Fraction(1), Fraction(12, 2 ** (m - 1))) * mu8[m] for m in range(1, n + 1)) / 2**n
        assert D.two_adic_factor(n) == want, n


def test_two_adic_factor_monotone_shrink():
    vals = [float(D.two_adic_factor(2 * g + 2)) for g in range(1, 6)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_finite_prime_factor_bounds():
    for n in (4, 8):
        for p in (3, 5, 7, 11, 97):
            fp = D.finite_prime_factor(n, p)
            assert 0 < fp <= 1
    # large primes contribute essentially 1 - p^-(n+1)
    assert D.finite_prime_factor(4, 257) == 1 - Fraction(1, 257**5)


def test_genus0_product():
    assert D.genus0_product(3) == Fraction(7, 9)
    assert D.genus0_product(5) == Fraction(7, 9) * Fraction(17, 25)
    prev = None
    for P in (3, 5, 7, 11, 13):
        val = D.genus0_product(P)
        if prev is not None:
            assert val < prev
        prev = val


def test_zeta_identity_gap():
    gaps = [D.zeta_identity_gap(2, P) for P in (100, 1000, 10000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    assert D.zeta_identity_gap(4, 10000) < 1e-2


def test_density_bound_structure():
    rep = D.density_bound(1, 50, 20000, 1)
    assert rep.bound > 0
    assert rep.bound_conservative >= rep.bound
    assert rep.two_adic_factor > 0
    assert all(0 < v <= 1 for v in rep.finite_factors.values())
    assert 2 not in rep.finite_factors
    d = rep.to_jsonable()
    assert d["genus"] == 1 and d["truncation_prime"] == 50


def test_mu_real_errors():
    with pytest.raises(ValueError):
        D.mu_real(3, 100, 0)
    with pytest.raises(ValueError):
        D.mu_real(4, 0, 0)
