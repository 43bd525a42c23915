from math import comb

import numpy as np

from pencilorbits import intpoly, realroots
from pencilorbits.realroots import _descartes, count_real_roots_batch


def _exact(row):
    return intpoly.tarski_query([int(c) for c in row], [1])


def test_batch_matches_exact_small_degrees():
    rng = np.random.default_rng(10)
    for n in (2, 4, 6, 8):
        K = rng.integers(-(1 << 12), 1 << 12, size=(3000, n + 1))
        C = 2 * K + 1  # odd: leading coefficient nonzero
        got = count_real_roots_batch(C)
        for i in range(0, 3000, 17):
            row = [int(c) for c in C[i]]
            assert got[i] == intpoly.real_root_count_squarefree(row), row


def test_batch_matches_exact_high_degree():
    rng = np.random.default_rng(11)
    n = 18
    K = rng.integers(-(1 << 12), 1 << 12, size=(120, n + 1))
    C = 2 * K + 1
    got = count_real_roots_batch(C)
    for i in range(120):
        row = [int(c) for c in C[i]]
        assert got[i] == intpoly.real_root_count_squarefree(row)


def _check_rows(rows):
    """Every row the float stage certifies has the exact count; returns how
    many it certified."""
    certified = 0
    by_degree = {}
    for row in rows:
        by_degree.setdefault(len(row) - 1, []).append(row)
    for group in by_degree.values():
        counts, ok = _descartes(np.array(group, dtype=np.int64))
        for row, c, good in zip(group, counts, ok):
            if good:
                assert c == _exact(row), row
                certified += 1
    return certified


def test_certified_rows_agree_with_exact():
    rng = np.random.default_rng(12)
    for n in (6, 12, 14):
        K = rng.integers(-(1 << 12), 1 << 12, size=(800, n + 1))
        C = 2 * K + 1
        assert _check_rows(C.tolist()) > 400, n  # the stage certifies most rows


def test_disc_stage_matches_exact_at_every_even_degree():
    # named for the eigenvalue stage it first covered; the same rows now
    # check the one Descartes stage and the whole batch
    rng = np.random.default_rng(13)
    for n in range(4, 27, 2):
        # the density sampler's odd 12-bit numerators, and small integers,
        # which give repeated and rational roots
        K = rng.integers(0, 1 << 12, size=(120, n + 1))
        dyadic = 2 * K + 1 - (1 << 12)
        small = rng.integers(-3, 4, size=(120, n + 1))
        small[:, 0] = rng.choice([-2, -1, 1, 2], size=120)
        assert _check_rows(dyadic.tolist()) >= 110, n
        assert _check_rows(small.tolist()) >= 50, n
        for rows in (dyadic, small):
            got = count_real_roots_batch(rows)
            assert got.tolist() == [_exact(r) for r in rows.tolist()], n


def test_nonsquarefree_rows_fall_back():
    # (x - 1)^2 (x + 3): not squarefree; counts its distinct real roots
    row = intpoly.mul(intpoly.mul([1, -1], [1, -1]), [1, 3])
    assert not _descartes(np.array([row]))[1].any()
    for rows in (1, 70):
        assert (count_real_roots_batch(np.array([row] * rows)) == 2).all()


def _prod(factors):
    out = [1]
    for f in factors:
        out = intpoly.mul(out, f)
    return out


def _plus_constant(p, s):
    return p[:-1] + [p[-1] + s]


def _families():
    near_double = [
        _plus_constant(intpoly.mul([M], _prod([[1, -a], [1, -a], q])), s)
        for a in (1, 2, 3, 5)
        for q in ([1, 0, 1], [1, 1, 2], [1, 0, 0, 0, 3], [2, 0, 1, 0, 0, 1])
        for M in (1, 10**3, 10**6, 10**9)
        for s in (1, -1)
    ]
    mignotte = [
        [1] + [0] * (n - 3) + [-2 * a * a, 4 * a, -2]  # x^n - 2 (a x - 1)^2
        for n in range(4, 23, 2)
        for a in (3, 10, 100, 1000)
    ]
    clustered = [_prod([[1, -k] for k in range(1, m + 1)]) for m in range(2, 13)]
    clustered += [_plus_constant(w, s) for w in clustered for s in (1, -1)]
    # rows with a real multiple root; the stage may not certify them
    real_multiple = [
        _prod([[1, -1], [1, -1], [1, 3]]),
        _prod([[1, 0, -2], [1, 0, -2], [1, 1]]),
        [1, 0, 0, 0, 0],
        _prod([[1, -2]] * 3 + [[1, 0, 1]]),
        _prod([[1, -k] for k in range(1, 7)] + [[1, -3]]),
        _prod([[3, -1], [3, -1], [1, 0, 1]]),
        _prod([[5, -3]] * 2 + [[1, 7], [1, 1, 3]]),
    ]
    # not squarefree, but every multiple root is non-real
    complex_multiple = [
        _prod([[1, 0, 1], [1, 0, 1], [3, -1]]),
        _prod([[1, 0, 1], [1, 0, 1], [1, -3], [1, 5]]),
        _prod([[1, 1, 1]] * 3 + [[2, -5]]),
        _prod([[1, 0, 3]] * 2 + [[1, 0, -7]]),
    ]
    return {
        "near_double": near_double,
        "mignotte": mignotte,
        "clustered": clustered,
        "real_multiple": real_multiple,
        "complex_multiple": complex_multiple,
    }


def test_descartes_stage_adversarial_families():
    fam = _families()
    certified = {name: _check_rows(rows) for name, rows in fam.items()}
    assert certified["real_multiple"] == 0
    assert min(certified[name] for name in ("near_double", "mignotte", "clustered", "complex_multiple")) > 0


def test_disc_stage_adversarial_families():
    # named for the eigenvalue stage it first covered; now the whole batch,
    # one row at a time and in batches of 64 copies
    for family in _families().values():
        for row in family:
            assert count_real_roots_batch(np.array([row]))[0] == _exact(row), row
            assert (count_real_roots_batch(np.array([row] * 64)) == _exact(row)).all(), row


def test_descartes_stage_rejects_roots_at_split_points():
    # a root at 0 or +-1 (the ends of the half-lines), or a real multiple
    # root anywhere, must send the row on, whatever the other factor; a root
    # at a bisection point (+-1/2, +-2, +-2/3, ...) may only be certified
    # with the right count
    rng = np.random.default_rng(15)
    ends = ([1, 0], [1, -1], [1, 1])
    splits = ([2, -1], [2, 1], [1, -2], [1, 2], [3, -2], [3, 2], [2, -3], [1, -3])
    cofactors = [[1, 0, 1], [1, -3], [3, 0, -1], [1, 1, 1, 5], [1, 0, 0, -5, 0, 1]]
    cofactors += [[int(c) for c in r] for r in 2 * rng.integers(0, 1 << 8, size=(30, 7)) + 1 - (1 << 8)]
    never = [intpoly.mul(r, q) for r in ends for q in cofactors]
    never += [intpoly.mul(intpoly.mul(r, r), q) for r in splits + ([5, -7],) for q in cofactors]
    never.append(_prod([[1, 0], [1, -1], [1, 1], [1, 0, 1]]))
    for row in never:
        assert not _descartes(np.array([row]))[1].any(), row
    maybe = [intpoly.mul(r, q) for r in splits for q in cofactors]
    maybe.append(_prod([[2, -1], [2, 1], [1, -2], [1, 2]]))
    _check_rows(maybe)
    for row in never + maybe:
        assert count_real_roots_batch(np.array([row]))[0] == _exact(row), row


def test_rows_beyond_2_53_count_exactly():
    big, top = 2**53 + 1, 2**63 - 1  # big rounds to 2^53 in float64, top to 2^63
    rows = [[big, 2 * big + 1, big], [1, 0, -big], [-big, 0, 0, 0, 1], [1, 0, -top], [-top, 0, 0, 0, 1]]
    rows += [[top, 1 - top, -top], [-top, top, 0, 1], [top, -top, top, -top, 1], [1, top, -top]]
    # rows whose rounded copies have a different count (0 against 2)
    rows += [[2017035887924897120, 5378762367799725646, 3585841578533150434]]
    rows += [[535849291983981348, 1428931445290616924, 2024319547495040640, 2857862890581233860, 1905241927054155897]]
    assert _check_rows(rows) >= 4
    for row in rows:
        assert count_real_roots_batch(np.array([row], dtype=np.int64))[0] == _exact(row), row
    # one batch, where every row goes through the stage side by side
    for n in (2, 3, 4):
        group = [row for row in rows if len(row) == n + 1]
        assert count_real_roots_batch(np.array(group, dtype=np.int64)).tolist() == [_exact(r) for r in group]


def _spy_images(monkeypatch):
    """Record, per _images call, whether its E argument and its E' are the
    0-d zero of the exact regime."""
    images, seen = realroots._images, []

    def spy(q, E, M):
        Q, E2 = images(q, E, M)
        seen.append((E.ndim == 0, E2.ndim == 0))
        return Q, E2

    monkeypatch.setattr(realroots, "_images", spy)
    return seen


def test_exact_regime_turns_inexact_mid_batch(monkeypatch):
    # n = 10 with coefficients near 2^40: the level-0 images stay below 2^53
    # (binomial sums below 2^10 times 2^40), the level-1 ones cross it, so the
    # batch starts exact and switches to error arrays part of the way down
    rng = np.random.default_rng(18)
    C = rng.integers(-(1 << 40), 1 << 40, size=(300, 11))
    C[:, 0] |= 1
    seen = _spy_images(monkeypatch)
    got = count_real_roots_batch(C)
    assert seen[0] == (True, True) and (True, False) in seen and seen[-1] == (False, False)
    assert got.tolist() == [_exact(r) for r in C.tolist()]


def test_exact_regime_left_at_an_input_beyond_2_53(monkeypatch):
    # one int64 input of 2^53 or more rounds on conversion: the first step
    # must already carry error arrays, whatever the other rows
    rng = np.random.default_rng(19)
    C = 2 * rng.integers(0, 1 << 12, size=(200, 5)) + 1 - (1 << 12)
    C[7] = [1, 0, -(2**60 + 1), 0, 2**58 + 3]
    seen = _spy_images(monkeypatch)
    got = count_real_roots_batch(C)
    assert seen[0] == (True, False) and not any(E2 for _, E2 in seen)
    assert got.tolist() == [_exact(r) for r in C.tolist()]


def test_dyadic_quartics_stay_in_the_exact_regime(monkeypatch):
    # the density sampler's 13-bit odd numerators at n = 4 never leave the
    # exact regime: every _images call takes and returns the 0-d zero
    rng = np.random.default_rng(20)
    C = 2 * rng.integers(0, 1 << 12, size=(20000, 5)) + 1 - (1 << 12)
    seen = _spy_images(monkeypatch)
    count_real_roots_batch(C)
    assert len(seen) > 1 and all(E and E2 for E, E2 in seen)


def _spy_products(monkeypatch):
    """Record, per _images call, [halves, products]: 4 halves for the
    level-0 images of new rows and 2 deeper, and how many matrix products
    the call formed (1 when the R bound proves every image exact, more when
    it forms A = |M| |q| too)."""
    images, seen = realroots._images, []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            seen[-1][1] += 1
            return np.asarray(self) @ other

    def spy(q, E, M):
        seen.append([len(M) // len(q), 0])
        return images(q, E, M.view(Counting))

    monkeypatch.setattr(realroots, "_images", spy)
    return seen


def test_exact_regime_bound_edge(monkeypatch):
    # R max|q| with R = 2^(n+1) just below 2^53 takes the shortcut (one
    # product per call), at 2^53 or above it forms A as well, at level 0 and
    # deeper; with rows whose level-0 end coefficients vanish (roots at 0
    # and +-1) and rows with a real double root, scaled up to the edge too
    rng = np.random.default_rng(21)
    seen = _spy_products(monkeypatch)
    for n in (4, 10, 22):
        top = 2 ** (52 - n)  # R top = 2^53
        small = rng.integers(-3, 4, size=(200, n + 1))
        small[:, 0] = rng.choice([-2, -1, 1, 2], size=200)
        edge = {}
        for name, m in (("below", top - 1), ("at", top), ("above", top + 1)):
            rows = rng.integers(-m, m + 1, size=(200, n + 1))
            rows[rows[:, 0] == 0, 0] = 1
            rows[:, rng.integers(n + 1)] = m  # max|p| = m exactly
            edge[name] = rows
        lead = small[:, 1] != 0  # cofactors of full degree keep the leading column nonzero
        special = [intpoly.mul(r, q.tolist()) for r in ([1, 0], [1, -1], [1, 1]) for q in small[lead][:10, 1:]]
        special += [intpoly.mul([1, -6, 9], q.tolist()) for q in small[small[:, 2] != 0][:10, 2:]]  # (x - 3)^2 q
        special += [[c * ((top - 1) // max(map(abs, r))) for c in r] for r in list(special)]
        for name, rows in [("small", small), *edge.items(), ("special", np.array(special))]:
            del seen[:]
            got = count_real_roots_batch(rows)
            assert got.tolist() == [_exact(r) for r in rows.tolist()], (n, name)
            level0 = {products for halves, products in seen if halves == 4}
            deeper = {min(products, 2) for halves, products in seen if halves == 2}
            if name == "below":
                assert level0 == {1} and 2 in deeper, n
            elif name in ("at", "above"):
                assert level0 == {2}, (n, name)
            elif name == "small":
                assert level0 == {1} and 1 in deeper, n


def test_sampler_rows_form_no_abs_product(monkeypatch):
    # the density sampler's 13-bit odd numerators at n = 4 and 6: the R bound
    # proves every image exact, so no _images call forms A = |M| |q|
    rng = np.random.default_rng(22)
    seen = _spy_products(monkeypatch)
    for n in (4, 6):
        C = 2 * rng.integers(0, 1 << 12, size=(20000, n + 1)) + 1 - (1 << 12)
        del seen[:]
        count_real_roots_batch(C)
        assert {halves for halves, _ in seen} == {2, 4} and all(products == 1 for _, products in seen), n


def test_exact_regime_finiteness_guard_sees_opposite_infinities(monkeypatch):
    # under the 0-d zero finiteness is judged by the sum of the product:
    # +inf and -inf in one image leave it NaN, still not finite, and an
    # overflow in one image alone keeps only that row from certifying
    images = realroots._images
    C = 2 * np.random.default_rng(23).integers(0, 1 << 12, size=(300, 5)) + 1 - (1 << 12)
    want = _descartes(C)[1]

    def overflowed(q, E, M):
        Q, E = images(q, E, M)
        assert not E.ndim
        if len(Q) == 4:
            Q[0, 1, 5], Q[0, 2, 5] = np.inf, -np.inf
        return Q, E

    monkeypatch.setattr(realroots, "_images", overflowed)
    ok = _descartes(C)[1]
    assert want.all() and not ok[5] and ok[np.arange(300) != 5].all()


def test_stage_holds_under_any_rounding(monkeypatch):
    # the verdict may trust a coefficient only as far as its bound: moving
    # every computed coefficient anywhere within +-E (far beyond the actual
    # rounding error, which is seldom near the bound) must never certify a
    # wrong count.  The families scaled up to 2^58 are inexact from the
    # first product on, and many of their images have unsure coefficients.
    rng = np.random.default_rng(14)
    images = realroots._images

    def shaken(q, E, M):
        Q, E = images(q, E, M)
        return Q + E * rng.uniform(-1, 1, size=E.shape), E

    monkeypatch.setattr(realroots, "_images", shaken)
    family = [row for rows in _families().values() for row in rows]
    rows = [r for n in (4, 8, 12, 22) for r in (2 * rng.integers(0, 1 << 12, size=(150, n + 1)) + 1 - (1 << 12)).tolist()]
    rows += [r for n in (6, 14) for r in rng.integers(-(1 << 30), 1 << 30, size=(150, n + 1)).tolist() if r[0]]
    rows += family + [[c << max(0, 58 - max(map(abs, r)).bit_length()) for c in r] for r in family]
    for _ in range(3):
        assert _check_rows(rows) > 800

    # an image coefficient that overflowed never certifies, whatever its bound
    def overflowed(q, E, M):
        Q, E = images(q, E, M)
        Q[:, 1] = np.inf
        return Q, E

    monkeypatch.setattr(realroots, "_images", overflowed)
    for group in (rows[:150], rows[450:600]):  # n = 4 and 22
        assert not _descartes(np.array(group))[1].any()


def test_batch_shape_does_not_change_counts(monkeypatch):
    import differential_realroots

    rng = np.random.default_rng(17)
    for n in (4, 12, 26):
        C = differential_realroots.draw(rng, 200, n)
        want = count_real_roots_batch(C)
        assert [count_real_roots_batch(C[i : i + 1])[0] for i in range(len(C))] == want.tolist()
        monkeypatch.setattr(realroots, "CHUNK_ENTRIES", 64)
        assert (count_real_roots_batch(C) == want).all()
        monkeypatch.undo()


def test_shift_matrix_binomials():
    # Pascal's rows give the same correctly rounded binomials as math.comb
    for n in [*range(65), 200]:
        T = [[realroots._float(comb(n - k, n - j)) for k in range(n + 1)] for j in range(n + 1)]
        assert np.array_equal(realroots._shift_matrix(n), np.vstack([T, np.fliplr(T)])), n
    # from n = 1030 on C(n, n/2) exceeds the float64 range
    assert np.isinf(realroots._shift_matrix.__wrapped__(1100)).any()


def test_differential_script_smoke():
    # the full check is `python tests/differential_realroots.py`; this keeps
    # the script importable and runnable on a small argv
    import differential_realroots

    assert differential_realroots.main(["--rows", "2000", "--degrees", "4,12,22,26"]) == 0
