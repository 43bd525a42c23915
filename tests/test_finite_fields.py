import itertools
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from pencilorbits import finite_fields, forms
from pencilorbits.forms import BinaryForm, is_separable_mod_p
from pencilorbits.orbits import SymmetricPair, invariant_form
from pencilorbits.finite_fields import (
    BudgetExceededError,
    _pairs_n2,
    _quartic_key,
    _quartic_pair_table,
    count_pairs_with_form,
    orbit_statistics_prediction,
    pair_census_n2,
    sl_n_order,
    square_value_count,
)


def test_sl_n_order_examples():
    assert sl_n_order(1, 7) == 1
    assert sl_n_order(2, 3) == 24
    assert sl_n_order(4, 2) == 20160  # = #GL_4(F_2) = 15*14*12*8


def test_sl2_order_by_enumeration():
    for p in (2, 3):
        cnt = 0
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p == 1:
                cnt += 1
        assert cnt == sl_n_order(2, p)


def test_count_pairs_n2_examples():
    st = count_pairs_with_form(BinaryForm((1, 1, 1)), 2)
    assert st.total_elements == 6 == sl_n_order(2, 2)
    assert st.orbit_count == 1 and st.stabilizer_sizes == (1,)
    st = count_pairs_with_form(BinaryForm((1, 0, -1)), 3)  # split separable, m = 2
    assert st.total_elements == 24
    assert st.orbit_count == 2 and st.stabilizer_sizes == (4, 4)


def test_count_pairs_matches_predictions_all_separable_p3():
    p = 3
    group_order = 2 * sl_n_order(2, p)
    for coeffs in itertools.product(range(p), repeat=3):
        f0 = coeffs[0] if coeffs[0] else p  # keep representative in range
        form = BinaryForm((coeffs[0], coeffs[1], coeffs[2]))
        if not any(coeffs) or not is_separable_mod_p(form, p):
            continue
        stats = count_pairs_with_form(form, p)
        pred = orbit_statistics_prediction(form, p)
        assert stats.total_elements == pred.total_elements == sl_n_order(2, p)
        assert stats.orbit_count == pred.orbit_count
        assert stats.stabilizer_sizes == pred.stabilizer_sizes
        assert stats.consistent(group_order)


def test_count_pairs_n4_p2():
    st = count_pairs_with_form(BinaryForm((1, 1, 0, 0, 1)), 2)
    assert st.total_elements == 20160
    with pytest.raises(BudgetExceededError):
        count_pairs_with_form(BinaryForm((1, 1, 0, 0, 1)), 3)


def test_quartic_totals_over_every_form():
    # every pair has exactly one invariant form, so the 32 forms mod 2
    # (0 and the inseparable ones included) share all 2^20 pairs
    total = sum(count_pairs_with_form(BinaryForm(c), 2).total_elements for c in itertools.product((0, 1), repeat=5))
    assert total == 1 << 20


def test_quartic_table_is_read_only():
    table = _quartic_pair_table()
    with pytest.raises(ValueError):
        table[0] += 1


def _rank_f2(M) -> int:
    """Rank over F_2 by elimination on the rows as bitmasks."""
    basis = []
    for r in (int("".join(map(str, row)), 2) for row in M.tolist()):
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    return len(basis)


def _form_histogram(A, Ms) -> np.ndarray:
    """The 32-bin histogram of det(Ax - By) mod 2 over the matrices B in Ms,
    keyed like the census, by the 24-permutation sum of products of the
    linear forms A_ij x + B_ij y."""
    d = np.zeros((5, len(Ms)), np.uint8)  # coefficient planes, x^4 first
    for perm in itertools.permutations(range(4)):
        t = np.zeros_like(d)
        t[0] = 1
        for i, j in enumerate(perm):
            t[1:] = (A[i, j] & t[1:]) ^ (Ms[:, i, j] & t[:-1])
            t[0] &= A[i, j]
        d ^= t
    return np.bincount(sum(plane.astype(np.int64) << (4 - k) for k, plane in enumerate(d)), minlength=32)


def test_quartic_census_classes():
    # the census weights one representative per congruence class of A by the
    # class size: the classes by (rank, alternating) must have the listed
    # sizes, and every member of a class the histogram of its representative
    idx = np.arange(1 << 10)
    Ms = np.zeros((1 << 10, 4, 4), np.uint8)
    for k, (i, j) in enumerate(itertools.combinations_with_replacement(range(4), 2)):
        Ms[:, i, j] = Ms[:, j, i] = (idx >> k) & 1
    classes = {}
    for code, M in enumerate(Ms):
        classes.setdefault((_rank_f2(M), not M.diagonal().any()), []).append(code)
    sizes = {cls: len(codes) for cls, codes in classes.items()}
    assert sizes == {
        (0, True): 1, (1, False): 15, (2, True): 35, (2, False): 105, (3, False): 420, (4, True): 28, (4, False): 420
    }
    assert sum(sizes.values()) == 1 << 10
    rng = random.Random(2025)
    table = np.zeros(32, np.int64)
    for cls, codes in sorted(classes.items()):
        want = _form_histogram(Ms[codes[0]], Ms)
        for code in rng.sample(codes[1:], min(3, len(codes) - 1)):
            assert _form_histogram(Ms[code], Ms).tolist() == want.tolist(), (cls, code)
        table += len(codes) * want
    assert table.tolist() == _quartic_pair_table().tolist()


def test_census_total():
    # the fibres of -det partition the p^3 matrices, and the pairs of the p^3
    # forms read from them partition the p^6 pairs
    for p in (2, 3, 5, 7):
        fibres = pair_census_n2(p)
        assert len(fibres) == p
        assert sorted(np.concatenate(fibres).tolist()) == list(range(p**3))
        with pytest.raises(ValueError):
            fibres[0][0] = 1  # shared through the cache
        assert sum(len(_pairs_n2(fc, p)) for fc in itertools.product(range(p), repeat=3)) == p**6


def test_square_value_count_examples():
    assert square_value_count(BinaryForm((0, 1, 0)), 3) == 3
    assert square_value_count(BinaryForm((1, 0, 0)), 3) == 4


def test_square_value_complementarity(rng):
    # not both f and uf (u a nonresidue) take square values at a point
    for p in (3, 5, 7):
        nonres = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        for _ in range(10):
            f = BinaryForm(tuple(rng.randint(0, p - 1) for _ in range(5)))
            if not any(c % p for c in f.coeffs):
                continue
            k = square_value_count(f, p)
            k2 = square_value_count(BinaryForm(tuple(nonres * c for c in f.coeffs)), p)
            assert k <= p + 1 and k2 <= p + 1
            assert k + k2 >= p + 1  # zeros of f count as squares on both sides


def test_prediction_examples(rng):
    # m = 1, p = 5 -> 1 orbit, stabilizer 2
    f = BinaryForm((1, 0, 2))  # x^2 + 2 y^2 irreducible mod 5 (-2 nonresidue)
    pred = orbit_statistics_prediction(f, 5)
    assert pred.orbit_count == 1 and pred.stabilizer_sizes == (2,)
    # p = 2 separable: 1 orbit, trivial stabilizer
    pred = orbit_statistics_prediction(BinaryForm((1, 1, 1)), 2)
    assert pred.orbit_count == 1 and pred.stabilizer_sizes == (1,)
    with pytest.raises(ValueError):
        orbit_statistics_prediction(BinaryForm((1, 2, 1)), 2)


def test_mod_p_caches_key_on_p_and_reduced_coefficients():
    # separability and square counts are cached on (coefficients mod p, p)
    forms._separable_mod_p.cache_clear()
    finite_fields._square_value_count.cache_clear()
    f = BinaryForm((1, 1, 1))  # (x - y)^2 mod 3, separable mod 5
    for p in (3, 5):
        assert is_separable_mod_p(f, p) == (f.disc % p != 0)
        assert square_value_count(f, p) == oracle_count_n2(f.coeffs, p)[3]
    assert [square_value_count(f, p) for p in (3, 5)] == [4, 3]

    def cache_sizes():
        return forms._separable_mod_p.cache_info().currsize, finite_fields._square_value_count.cache_info().currsize

    cached = cache_sizes()
    for p in (3, 5):
        g = BinaryForm(tuple(c + p * k for c, k in zip(f.coeffs, (2, -1, 3))))
        assert is_separable_mod_p(g, p) == is_separable_mod_p(f, p)
        assert square_value_count(g, p) == square_value_count(f, p)
    assert cache_sizes() == cached  # f + p*g hit the entries f made
    # a cached inseparable verdict still stops the prediction
    with pytest.raises(ValueError, match="not separable"):
        orbit_statistics_prediction(f, 3)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: count_pairs_with_form(BinaryForm((1, 0, 1)), p),
        lambda p: pair_census_n2(p),
        lambda p: orbit_statistics_prediction(BinaryForm((1, 0, 1)), p),
    ],
    ids=["count_pairs_with_form", "pair_census_n2", "orbit_statistics_prediction"],
)
def test_non_prime_p_rejected(call, p):
    with pytest.raises(ValueError, match="must be a prime"):
        call(p)


# -- enumeration oracles: the explicit-matrix n = 2 orbit walk and the
# 24-permutation quartic census at the five points of P^1(F_4), kept as the
# library computed them before both were vectorised ---------------------------


def _sym_matrices(n: int, p: int):
    """All symmetric n x n matrices over F_p as tuples of row tuples."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for vals in itertools.product(range(p), repeat=len(pairs)):
        M = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, vals):
            M[i][j] = M[j][i] = v
        yield tuple(tuple(r) for r in M)


def _invariant_form_2x2(A, B, p: int) -> tuple[int, int, int]:
    """(-1) * det(Ax - By) coefficients mod p for n = 2."""
    f0 = -(A[0][0] * A[1][1] - A[0][1] ** 2)
    f2 = -(B[0][0] * B[1][1] - B[0][1] ** 2)
    f1 = A[0][0] * B[1][1] + A[1][1] * B[0][0] - 2 * A[0][1] * B[0][1]
    return (f0 % p, f1 % p, f2 % p)


@lru_cache(maxsize=8)
def _group_sl2pm(p: int) -> tuple:
    """All of SL_2^+-(F_p) (determinant +-1)."""
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p in (1, p - 1):
            out.append(((a, b), (c, d)))
    return tuple(out)


def _act(g, M, p: int):
    n = len(M)
    gM = [[sum(g[i][k] * M[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    out = [[sum(gM[i][k] * g[j][k] for k in range(n)) % p for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in out)


@lru_cache(maxsize=8)
def oracle_census_n2(p: int) -> dict:
    census: dict[tuple[int, int, int], list] = {}
    mats = list(_sym_matrices(2, p))
    for A in mats:
        for B in mats:
            census.setdefault(_invariant_form_2x2(A, B, p), []).append((A, B))
    return census


def oracle_count_n2(coeffs, p: int) -> tuple:
    """(total, orbit count, sorted stabilizer sizes, square point count) by a
    generator walk of each orbit and a full-group stabilizer scan."""
    target = tuple(c % p for c in coeffs)
    members = oracle_census_n2(p).get(target, [])
    # S, T generate SL_2(F_p); J extends to determinant -1
    gens = (((0, 1), (p - 1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, p - 1)))
    remaining = set(members)
    orbit_sizes = []
    stab_sizes = []
    group = _group_sl2pm(p)
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            A, B = frontier.pop()
            for g in gens:
                img = (_act(g, A, p), _act(g, B, p))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbit_sizes.append(len(orbit))
        A0, B0 = start
        stab = sum(1 for g in group if (_act(g, A0, p), _act(g, B0, p)) == (A0, B0))
        stab_sizes.append(stab)
    squares = {(x * x) % p for x in range(p)}
    values = [target[0] * a * a + target[1] * a + target[2] for a in range(p)] + [target[0]]
    sq = sum(v % p in squares for v in values) if p != 2 else None
    return len(members), len(orbit_sizes), tuple(sorted(stab_sizes)), sq


def _det4_f2(M: np.ndarray) -> np.ndarray:
    d = np.zeros(M.shape[:-2], np.uint8)
    for perm in itertools.permutations(range(4)):
        t = M[..., 0, perm[0]] & M[..., 1, perm[1]] & M[..., 2, perm[2]] & M[..., 3, perm[3]]
        d ^= t
    return d


def _det4_f4(Ml: np.ndarray, Mh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # F_4 = F_2[w]/(w^2 + w + 1), elements stored as (lo, hi) bit planes
    def f4_mul(al, ah, bl, bh):
        t = ah & bh
        return (al & bl) ^ t, (al & bh) ^ (ah & bl) ^ t

    dl = np.zeros(Ml.shape[:-2], np.uint8)
    dh = dl.copy()
    for perm in itertools.permutations(range(4)):
        pl, ph = Ml[..., 0, perm[0]], Mh[..., 0, perm[0]]
        for r in range(1, 4):
            pl, ph = f4_mul(pl, ph, Ml[..., r, perm[r]], Mh[..., r, perm[r]])
        dl ^= pl
        dh ^= ph
    return dl, dh


def oracle_quartic_pair_table() -> np.ndarray:
    """counts[key] over all 2^20 pairs, one row of A per pass."""
    idx = np.arange(1 << 10, dtype=np.uint32)
    bits = ((idx[:, None] >> np.arange(10)) & 1).astype(np.uint8)
    M = np.zeros((1 << 10, 4, 4), np.uint8)
    k = 0
    for i in range(4):
        for j in range(i, 4):
            M[:, i, j] = bits[:, k]
            M[:, j, i] = bits[:, k]
            k += 1
    detM = _det4_f2(M)
    counts = np.zeros(1 << 7, np.int64)
    for a in range(1 << 10):
        A = M[a]
        dA = int(detM[a])
        dB = detM
        dAB = _det4_f2(A[None] ^ M)
        # at (w:1): entries w*A + B; at (w^2:1) = (w+1:1): entries (w+1)*A + B
        dl1, dh1 = _det4_f4(np.broadcast_to(M, M.shape), np.broadcast_to(A[None], M.shape))
        dl2, dh2 = _det4_f4(A[None] ^ M, np.broadcast_to(A[None], M.shape))
        key = (
            (np.int64(dA) << 6)
            | (dB.astype(np.int64) << 5)
            | (dAB.astype(np.int64) << 4)
            | (dh1.astype(np.int64) << 3)
            | (dl1.astype(np.int64) << 2)
            | (dh2.astype(np.int64) << 1)
            | dl2.astype(np.int64)
        )
        counts += np.bincount(key, minlength=1 << 7)
    return counts


def _f4_key(fc) -> int:
    """The oracle's key of f mod 2: f at (1:0), (0:1), (1:1) over F_2 and at
    (w:1), (w^2:1) over F_4, by Horner's rule in F_4's bit planes."""
    vals = []
    for xl, xh in ((0, 1), (1, 1)):  # w and w^2 = w + 1
        lo = hi = 0
        for c in fc:
            t = hi & xh  # (lo, hi) * (xl, xh), then + c
            lo, hi = (lo & xl) ^ t ^ c, (lo & xh) ^ (hi & xl) ^ t
        vals.append((lo, hi))
    (lo1, hi1), (lo2, hi2) = vals
    return (fc[0] << 6) | (fc[4] << 5) | (sum(fc) % 2 << 4) | (hi1 << 3) | (lo1 << 2) | (hi2 << 1) | lo2


def _det4_f2xy(A, B) -> list[int]:
    """Coefficients of det(Ax - By) over F_2[x, y], x^4 first, by the
    24-permutation sum (-B = B and every sign is +1 in characteristic 2)."""
    d = np.zeros(5, np.int64)
    for perm in itertools.permutations(range(4)):
        t = np.ones(1, np.int64)
        for i, j in enumerate(perm):
            t = np.convolve(t, [A[i][j], B[i][j]])
        d += t
    return (d % 2).tolist()


def _assert_matches_oracle(coeffs, p):
    st = count_pairs_with_form(BinaryForm(coeffs), p)
    got = (st.total_elements, st.orbit_count, st.stabilizer_sizes, st.square_point_count)
    assert got == oracle_count_n2(coeffs, p), (p, coeffs)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_count_n2_matches_orbit_walk_every_form(p):
    # every (a, b, c) in F_p^3, the zero form and inseparable forms included
    for coeffs in itertools.product(range(p), repeat=3):
        _assert_matches_oracle(coeffs, p)


def test_count_n2_matches_orbit_walk_p7_sample():
    p = 7
    forms = [co for co in itertools.product(range(p), repeat=3) if any(co)]
    inseparable = [co for co in forms if not is_separable_mod_p(BinaryForm(co), p)]
    separable = [co for co in forms if co not in inseparable]
    rng = random.Random(7007)
    sample = [(0, 0, 0)] + rng.sample(inseparable, 8) + rng.sample(separable, 31)
    assert len(sample) == 40
    for coeffs in sample:
        _assert_matches_oracle(coeffs, p)


def test_census_codes_match_oracle_buckets():
    # every form mod p, those with no pairs included
    for p in (2, 3, 5, 7):
        oracle = oracle_census_n2(p)
        for form in itertools.product(range(p), repeat=3):
            codes = [
                ((A[0][0] * p + A[0][1]) * p + A[1][1]) * p**3 + (B[0][0] * p + B[0][1]) * p + B[1][1]
                for A, B in oracle.get(form, [])
            ]
            assert _pairs_n2(form, p).tolist() == sorted(codes), (p, form)


def test_quartic_table_matches_permutation_census():
    # the oracle keys pairs by det(Ax - By) at the five points of P^1(F_4),
    # which tell the 32 forms mod 2 apart: its other 96 keys stay empty
    table, oracle = _quartic_pair_table(), oracle_quartic_pair_table()
    forms = list(itertools.product((0, 1), repeat=5))
    for fc in forms:
        assert table[_quartic_key(fc)] == oracle[_f4_key(fc)], fc
    keys = {_f4_key(fc) for fc in forms}
    assert len(keys) == 32
    assert not any(oracle[k] for k in range(1 << 7) if k not in keys)
    assert int(table.sum()) == 1 << 20


def test_quartic_key_is_the_census_key_of_the_invariant_form():
    # the coefficient bits of f mod 2 must pack like those of det(Ax - By)
    # over F_2[x, y] for every pair (A, B) with invariant form f
    rng = np.random.default_rng(12)
    for _ in range(200):
        A, B = (np.triu(rng.integers(0, 2, (4, 4), dtype=np.uint8)) for _ in range(2))
        A, B = A | A.T, B | B.T
        f = invariant_form(SymmetricPair(tuple(map(tuple, A.tolist())), tuple(map(tuple, B.tolist()))))
        want = sum(c << (4 - i) for i, c in enumerate(_det4_f2xy(A.tolist(), B.tolist())))
        assert _quartic_key(tuple(c % 2 for c in f.coeffs)) == want, f.coeffs


def test_quartic_census_peak_allocation():
    # the census holds only 7 x 2^10 pairs, one row per congruence class of
    # A, as uint8 coefficient planes of 7 KB each: the cold build stays small
    tracemalloc.start()
    try:
        _quartic_pair_table.__wrapped__()  # a cold build, bypassing the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 << 10, peak


def test_n2_count_peak_allocation():
    # a cold count at p = 7 builds the 343 matrix codes, one product of two
    # -det fibres, the image rows of its orbits' first pairs and a one-byte
    # mask over the 7^6 pair codes, but no sort or int array over all pairs
    for fn in vars(finite_fields).values():
        if getattr(fn, "__module__", None) == finite_fields.__name__ and hasattr(fn, "cache_clear"):
            fn.cache_clear()
    tracemalloc.start()
    try:
        count_pairs_with_form(BinaryForm((1, 0, 1)), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10, peak
