"""Local density factors and the assembled upper bound for the density of
hyperelliptic curves with a rational point.

Places are treated separately: the archimedean factor is a Monte Carlo
estimate over real root counts (exact classification of dyadic samples), the
factor at 2 works with factorization types mod 8 (determined by the mod-2
reduction), and each odd prime contributes a capped weighted sum over the
distribution of the number of distinct irreducible factors mod p.  The two
finite-place distributions are exact: both come from a combinatorial count of
binary forms by factorization type.
"""

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .finite_fields import sl_n_order
from .numutil import primes_upto, require_prime
from .realroots import count_real_roots_batch

DYADIC_BITS = 12


# ---------------------------------------------------------------------------
# Archimedean place: Monte Carlo over real root counts


@dataclass(frozen=True)
class MuRealEstimates:
    """One-pass estimates of mu(I(m)) for all m: the probability that a
    random polynomial with i.i.d. coefficients in [-1/2, 1/2] (dyadic grid
    midpoints, exact classification) has 2m real roots."""

    degree: int
    samples: int
    seed: int
    dyadic_bits: int
    counts: tuple[int, ...]

    def estimate(self, m: int) -> Fraction:
        return Fraction(self.counts[m], self.samples)

    def stderr(self, m: int) -> float:
        p = self.counts[m] / self.samples
        return math.sqrt(p * (1.0 - p) / self.samples)

    def weighted_sum(self, weights: list[Fraction]) -> Fraction:
        return sum((w * self.estimate(m) for m, w in enumerate(weights)), Fraction(0))

    def weighted_sum_stderr(self, weights: list[Fraction]) -> float:
        mean = float(self.weighted_sum(weights))
        second = sum(float(w) ** 2 * self.counts[m] / self.samples for m, w in enumerate(weights))
        var = max(second - mean * mean, 0.0) / self.samples
        return math.sqrt(var)


@dataclass(frozen=True)
class WeightedEstimate:
    value: Fraction
    stderr: float


MC_CHUNK = 100_000


def _mu_real_chunk(args) -> np.ndarray:
    """One fixed-size Monte Carlo chunk; seeded independently so that counts
    do not depend on how chunks are distributed across workers."""
    n, take, child_seed = args
    rng = np.random.default_rng(child_seed)
    K = rng.integers(0, 1 << DYADIC_BITS, size=(take, n + 1), dtype=np.int64)
    K *= 2  # in place, K becomes the odd numerators: f0, fn never 0
    K += 1 - (1 << DYADIC_BITS)
    roots = count_real_roots_batch(K)
    m = (roots + 1) // 2  # even count generically; ceil on the null locus
    return np.bincount(m, minlength=n // 2 + 1)[: n // 2 + 1]


def mu_real(n: int, samples: int, seed: int, jobs: int = 1) -> MuRealEstimates:
    """Estimate mu(I(m)) for every m in one pass; the per-sample counts
    partition `samples` exactly, so the estimates sum to 1 exactly.

    Samples are drawn in fixed-size chunks with independently spawned seeds;
    merging is plain addition, so the result is identical for any `jobs`."""
    if n < 2 or n % 2:
        raise ValueError("degree must be even and >= 2")
    if samples <= 0:
        raise ValueError("need a positive sample count")
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    tasks = [(n, take, s) for take, s in zip(sizes, seeds)]
    counts = np.zeros(n // 2 + 1, np.int64)
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            for part in pool.imap_unordered(_mu_real_chunk, tasks):
                counts += part
    else:
        for task in tasks:
            counts += _mu_real_chunk(task)
    return MuRealEstimates(n, samples, seed, DYADIC_BITS, tuple(int(c) for c in counts))


def archimedean_factor(
    g: int, samples: int, seed: int, mu: MuRealEstimates | None = None, jobs: int = 1
) -> WeightedEstimate:
    """sum_m (max(1, 2m)/2^m) mu(I(m)) for n = 2g+2; equals 1 identically for
    g <= 1, where every weight is 1 and the estimates partition the samples."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    n = 2 * g + 2
    if mu is None:
        mu = mu_real(n, samples, seed, jobs=jobs)
    weights = [Fraction(max(1, 2 * m), 2**m) for m in range(n // 2 + 1)]
    return WeightedEstimate(mu.weighted_sum(weights), mu.weighted_sum_stderr(weights))


# ---------------------------------------------------------------------------
# Finite places: distribution of the number of distinct irreducible factors


def monic_irreducible_count(d: int, p: int) -> int:
    """Number of monic irreducible univariate polynomials of degree d."""
    return sum(_moebius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _moebius(n: int) -> int:
    m, sign, d = n, 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if m > 1 else sign


def irreducible_form_count(n: int, p: int) -> int:
    """Number of irreducible binary n-ic forms over F_p (degree-n irreducible
    with multiplicity one): (p-1) * (number of monic irreducible degree-n
    univariate polynomials)."""
    return (p - 1) * monic_irreducible_count(n, p)


@lru_cache(maxsize=4096)
def factor_count_distribution(n: int, p: int) -> tuple[int, ...]:
    """|I_p(m)| for m = 0..n: nonzero binary n-ic forms over F_p with m
    distinct irreducible binary factors.

    Each entry is a polynomial in p of degree at most n + 1, evaluated here
    from its Newton forward differences at 1 as sum_k D^k * C(p - 1, k); p
    may be any integer >= 1, prime or not, and gives the polynomial's value.
    Proof of polynomiality: a nonzero form is a scalar in F_p^* times an
    effective divisor of degree n on P^1, so the count is (p - 1) times the
    u^n y^m coefficient of prod_d (1 + y u^d / (1 - u^d))^(A_d), where A_d
    is the number of closed points of degree d: A_1 = p + 1 and A_d =
    (1/d) sum_(e | d) moebius(e) p^(d/e) for d >= 2 (Moebius inversion).
    With w = 1 - y each factor is (1 - w u^d)^(A_d) / (1 - u^d)^(A_d), and
    prod_d (1 - u^d)^(-A_d) = 1 / ((1 - u)(1 - p u)) is the zeta function
    of P^1, whose u^s coefficient is N_s = 1 + p + ... + p^s
    (`_factor_count_gf`).  The rows of P(u, w) = prod_d (1 - w u^d)^(A_d)
    come from one series per integer q, shared by every n and grown by
    s P_s = sum_(t <= s) c_t P_(s - t), c_t(w) = -sum_(d | t) d A_d w^(t/d),
    the u^s coefficient of u dP/du = P * u d/du log P
    (`_squarefree_series`).  Expanding (1 - w u^d)^(A_d) gives the terms
    (-1)^j comb(A_d, j) w^j u^(d j); A_d is a polynomial in p of degree d
    and comb(A, j) the polynomial A (A - 1) ... (A - j + 1) / j! in A of
    degree j, so a product of such terms with total u-degree s has degree
    s in p, and N_(n - s) adds n - s.  Substituting w = 1 - y does not
    involve p, so each count is (p - 1) times a polynomial of degree <= n.
    Every A_d is a nonnegative integer at each integer q >= 1 (it counts
    aperiodic necklaces of length d on q letters; A_d(1) = 0 for d >= 2),
    where each factor is the polynomial these terms expand, so the count at
    q = 1..n + 2 gives n + 2 values of a polynomial of degree <= n + 1."""
    binom = _newton_basis(p, n + 2)
    return tuple(_dot(diffs, binom) for diffs in _forward_differences(n))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _newton_basis(q: int, length: int) -> list[int]:
    """C(q - 1, k) for k = 0 .. length - 1 at least: the Newton basis at q
    that the forward differences multiply, one row per q shared by every
    degree and extended in place.  `_dot` zips, so a longer row is harmless."""
    row = _newton_rows(q)
    row.extend(math.comb(q - 1, k) for k in range(len(row), length))
    return row


@lru_cache(maxsize=4096)
def _newton_rows(q: int) -> list[int]:
    """The row of `_newton_basis` at q as far as it has been asked for."""
    return []


@lru_cache(maxsize=64)
def _forward_differences(n: int) -> tuple[tuple[int, ...], ...]:
    """Per m, the Newton forward differences D^0..D^(n+1) at q = 1 of
    |I_q(m)| as a polynomial in q (see factor_count_distribution)."""
    values = [_factor_count_gf(n, q) for q in range(1, n + 3)]
    table = []
    for m in range(n + 1):
        col, diffs = [v[m] for v in values], []
        while col:
            diffs.append(col[0])
            col = [b - a for a, b in zip(col, col[1:])]
        table.append(tuple(diffs))
    return tuple(table)


def _factor_count_gf(n: int, q: int) -> tuple[int, ...]:
    """factor_count_distribution(n, q) at one integer q >= 1: the u^n
    coefficient of P(u, w) / ((1 - u)(1 - q u)) as a polynomial in w, with
    P = prod_d (1 - w u^d)^(A_d) from `_squarefree_series`, then w = 1 - y
    (see factor_count_distribution)."""
    P, a = _squarefree_series(q)
    for s in range(len(P), n + 1):  # the next row P_s and weight a_s
        a.append(q**s + 1 - sum(a[e] for e in range(1, s) if s % e == 0))
        row = [0] * (s + 1)
        for d, c in enumerate(a[1:], 1):
            if c:
                for j in range(1, s // d + 1):  # t = d j
                    for k, v in enumerate(P[s - d * j], j):
                        row[k] -= c * v
        P.append([v // s for v in row])
    # H[k]: the u^n w^k coefficient after the zeta factor sum_s N_s u^s
    H = [0] * (n + 1)
    N = 1  # N_(n - s) for s = n, n - 1, ...
    for s in range(n, -1, -1):
        for k, v in enumerate(P[s]):
            H[k] += v * N
        N = N * q + 1
    # w^k = sum_m comb(k, m) (-y)^m, comb(k, m) from Pascal's row k
    Y, row = [0] * (n + 1), [1]
    for h in H:
        for m, c in enumerate(row):
            Y[m] += c * h
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
    return tuple((q - 1) * (-1) ** m * y for m, y in enumerate(Y))


@lru_cache(maxsize=64)
def _squarefree_series(q: int) -> tuple[list[list[int]], list[int]]:
    """(P, a) at one integer q >= 1: the rows so far of
    P(u, w) = prod_d (1 - w u^d)^(A_d), P[s] the u^s coefficient as its
    w-coefficients (w-degree <= s, as every factor has d >= 1), and the
    weights a[d] = d A_d, a[0] = 0.  The rows do not depend on the degree n
    asked of `_factor_count_gf`, so every n shares them; both lists start at
    s = 0 (P_0 = 1), and `_factor_count_gf` extends them on demand.

    Recurrence: log P = sum_d A_d log(1 - w u^d), so
    u d/du log P = -sum_d d A_d sum_(j >= 1) w^j u^(d j) = sum_t c_t u^t with
    c_t(w) = -sum_(d | t) d A_d w^(t/d), and u dP/du = P * u d/du log P reads
    s P_s = sum_(t = 1..s) c_t P_(s - t) coefficient by coefficient in u.
    P_s has integer coefficients, so the division by s is exact.  Moebius
    inversion of A_d (factor_count_distribution) gives
    sum_(e | d) a_e = q^d + 1 at every q, the number of F_(q^d)-points of
    P^1 when q is a prime power, and so each a_d from the smaller ones:
    a_1 = q + 1, and a_d = 0 for d >= 2 at q = 1."""
    return [[1]], [0]


def mu_p_distribution(n: int, p: int) -> tuple[Fraction, ...]:
    """(mu(I_p(m)))_m = |I_p(m)|/p^(n+1); the zero form belongs to no I_p(m),
    so the values sum to 1 - p^-(n+1).  Exact, from the combinatorial count."""
    require_prime(p)
    total = p ** (n + 1)
    counts = factor_count_distribution(n, p)
    return tuple(Fraction(c, total) for c in counts)


def mu_p(n: int, m: int, p: int) -> Fraction:
    return mu_p_distribution(n, p)[m]


def mu_8_distribution(n: int) -> tuple[Fraction, ...]:
    """(mu(I_8(m)))_m: binary forms mod 8 whose mod-2 reduction has m distinct
    irreducible factors; forms vanishing mod 2 carry no type.  The type
    depends only on f mod 2 and lifts are uniform, so |I_8(m)| =
    |I_2(m)| * 4^(n+1) and mu(I_8(m)) = mu(I_2(m)) (the tests check it
    against enumeration of all residues mod 8 for n = 2 and 4)."""
    return mu_p_distribution(n, 2)


def mu_8(n: int, m: int) -> Fraction:
    return mu_8_distribution(n)[m]


# ---------------------------------------------------------------------------
# Assembled bound


@dataclass
class DensityReport:
    genus: int
    degree: int
    truncation_prime: int
    samples: int
    seed: int
    dyadic_bits: int
    archimedean_factor: float
    archimedean_stderr: float
    two_adic_factor: float
    finite_factors: dict[int, float]
    bound: float
    bound_conservative: float

    def to_jsonable(self) -> dict:
        return {**asdict(self), "finite_factors": {str(p): v for p, v in sorted(self.finite_factors.items())}}


def two_adic_factor(n: int) -> Fraction:
    """(1/2^n) * sum_m min(1, 12/2^(m-1)) mu(I_8(m)); exact.  mu(I_8(m)) =
    mu(I_2(m)) (see mu_8_distribution), so the sum is `_capped_sum` at q = 2."""
    return _capped_sum(n, 2, 12) / 2**n


def finite_prime_factor(n: int, p: int) -> Fraction:
    """sum_m min(1, (p+1)/2^(m-1)) mu(I_p(m)); exact.  No clamp is needed
    for the factor to be < 1: every weight is <= 1, and the masses
    mu(I_p(m)) sum to 1 - p^-(n+1) (see mu_p_distribution)."""
    require_prime(p)
    return _capped_sum(n, p, p + 1)


def _capped_sum(n: int, q: int, cap: int) -> Fraction:
    """sum_m min(1, cap/2^(m-1)) |I_q(m)| / q^(n+1), for n >= 1.

    2^(n-1) times the weight min(1, cap/2^(m-1)) is the integer
    min(2^(n-1), cap 2^(n-m)), and it is 2^(n-1) exactly when
    cap >= 2^(m-1), that is m <= m0 = min(n, cap.bit_length()).  So the
    weighted sum of the counts is two dot products of the Newton
    coefficients C(q-1, k) with the threshold sums of `_weighted_differences`."""
    full, capped = _weighted_differences(n)[min(n, cap.bit_length())]
    binom = _newton_basis(q, n + 2)
    acc = 2 ** (n - 1) * _dot(full, binom) + cap * _dot(capped, binom)
    return Fraction(acc, 2 ** (n - 1) * q ** (n + 1))


@lru_cache(maxsize=64)
def _weighted_differences(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per threshold m0 = 0..n, the forward differences of the two parts of
    _capped_sum's weighted count: sum_(1 <= m <= m0) D_m and
    sum_(m0 < m <= n) 2^(n-m) D_m, where D_m are |I_q(m)|'s differences."""
    diffs = _forward_differences(n)
    zero = (0,) * (n + 2)
    full = [zero]
    for m in range(1, n + 1):
        full.append(tuple(a + b for a, b in zip(full[-1], diffs[m])))
    capped = [zero]
    for m in range(n, 0, -1):
        capped.append(tuple(a + 2 ** (n - m) * b for a, b in zip(capped[-1], diffs[m])))
    return tuple(zip(full, reversed(capped)))


def density_bound(
    g: int,
    truncation_prime: int,
    samples: int,
    seed: int,
    mu: MuRealEstimates | None = None,
    jobs: int = 1,
) -> DensityReport:
    """Upper bound for the density of genus-g curves with a rational point:

        2^(g+1) * sum_m (max(1,2m)/2^m) mu(I(m))
          * (1/2^n) * sum_m min(1, 12/2^(m-1)) mu(I_8(m))
          * prod_(2 < p <= P) sum_m min(1, (p+1)/2^(m-1)) mu(I_p(m))

    Omitted Euler factors are <= 1, so truncation at P only weakens the
    bound. The conservative value inflates the Monte Carlo factor by three
    standard errors.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    n = 2 * g + 2
    arch = archimedean_factor(g, samples, seed, mu=mu, jobs=jobs)
    arch_value = float(arch.value) * 2 ** (g + 1)
    arch_sigma = arch.stderr * 2 ** (g + 1)
    f2 = two_adic_factor(n)
    finite: dict[int, float] = {}
    # the product as one unreduced numerator and denominator: int / int is
    # correctly rounded, as float(Fraction) is, so the float is the same
    num, den = f2.numerator, f2.denominator
    for p in primes_upto(truncation_prime)[1:]:  # the odd primes
        fp = finite_prime_factor(n, p)
        finite[p] = float(fp)
        num *= fp.numerator
        den *= fp.denominator
    tail = num / den
    return DensityReport(
        genus=g,
        degree=n,
        truncation_prime=truncation_prime,
        samples=samples,
        seed=seed,
        dyadic_bits=DYADIC_BITS,
        archimedean_factor=arch_value,
        archimedean_stderr=arch_sigma,
        two_adic_factor=float(f2),
        finite_factors=finite,
        bound=arch_value * tail,
        bound_conservative=(arch_value + 3 * arch_sigma) * tail,
    )


def genus0_product(truncation_prime: int) -> Fraction:
    """prod_(2 < p <= P) (1 - (p-1)^2 / (2 p^2)), exact."""
    if truncation_prime < 3:
        raise ValueError("need P >= 3")
    acc = Fraction(1)
    for p in primes_upto(truncation_prime)[1:]:  # the odd primes
        acc *= 1 - Fraction((p - 1) ** 2, 2 * p * p)
    return acc


def zeta_identity_gap(n: int, truncation_prime: int) -> float:
    """|zeta(2)...zeta(n) * prod_(p<=P) #SL_n(F_p)/p^(n^2-1) - 1|."""
    if n < 2:
        raise ValueError("need n >= 2")
    from mpmath import mp, mpf, zeta

    mp.dps = 40
    acc = mpf(1)
    for k in range(2, n + 1):
        acc *= zeta(k)
    for p in primes_upto(truncation_prime):
        acc *= mpf(sl_n_order(n, p)) / mpf(p) ** (n * n - 1)
    return float(abs(acc - 1))
