import numpy as np

from pencilorbits import intpoly, realroots
from pencilorbits.realroots import _disc_certify, _exact_count, _float_sturm_batch, count_real_roots_batch


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


def test_certified_rows_agree_with_exact():
    rng = np.random.default_rng(12)
    for n in (6, 12, 14):
        K = rng.integers(-(1 << 12), 1 << 12, size=(800, n + 1))
        C = (2 * K + 1).astype(np.float64)
        counts, ok = _float_sturm_batch(C)
        checked = 0
        for i in range(800):
            if not ok[i]:
                continue
            row = [int(c) for c in C[i]]
            assert counts[i] == intpoly.real_root_count_squarefree(row)
            checked += 1
        assert checked > 400  # the filter certifies most rows at these degrees


def test_nonsquarefree_rows_fall_back():
    # (x - 1)^2 (x + 3): not squarefree; counted by the squarefree part
    row = intpoly.mul(intpoly.mul([1, -1], [1, -1]), [1, 3])
    got = count_real_roots_batch(np.array([row] * 70, dtype=np.int64))
    assert (got == 2).all()


def _check_disc_rows(rows):
    """Every row the disc stage certifies has the exact count; returns how
    many it certified.  `real_root_count_squarefree` is None for a row that
    is not squarefree, so certifying one fails here."""
    certified = 0
    by_degree = {}
    for row in rows:
        by_degree.setdefault(len(row) - 1, []).append(row)
    for group in by_degree.values():
        counts, ok = _disc_certify(np.array(group, dtype=np.float64))
        for row, c, good in zip(group, counts, ok):
            if good:
                assert c == intpoly.real_root_count_squarefree(row), row
                certified += 1
    return certified


def test_disc_stage_matches_exact_at_every_even_degree():
    rng = np.random.default_rng(13)
    for n in range(4, 23, 2):
        # the density sampler's odd 12-bit numerators, and small integers,
        # which give repeated and rational roots
        K = rng.integers(0, 1 << 12, size=(120, n + 1))
        dyadic = 2 * K + 1 - (1 << 12)
        small = rng.integers(-3, 4, size=(120, n + 1))
        small[:, 0] = rng.choice([-2, -1, 1, 2], size=120)
        rows = [[int(c) for c in r] for r in np.vstack([dyadic, small])]
        assert _check_disc_rows(rows) >= 200, n


def _prod(factors):
    out = [1]
    for f in factors:
        out = intpoly.mul(out, f)
    return out


def test_disc_stage_adversarial_families():
    near_double = [
        intpoly.add(intpoly.mul([M], _prod([[1, -a], [1, -a], q])), [s])
        for a in (1, 2, 3, 5)
        for q in ([1, 0, 1], [1, 1, 2], [1, 0, 0, 0, 3], [2, 0, 1, 0, 0, 1])
        for M in (1, 10**3, 10**6, 10**9)
        for s in (1, -1)
    ]
    mignotte = [
        intpoly.add([1] + [0] * n, intpoly.mul([-2], _prod([[a, -1], [a, -1]])))
        for n in range(4, 23, 2)
        for a in (3, 10, 100, 1000)
    ]
    clustered = [_prod([[1, -k] for k in range(1, m + 1)]) for m in range(2, 13)]
    clustered += [intpoly.add(w, [s]) for w in clustered for s in (1, -1)]
    not_squarefree = [
        _prod([[1, -1], [1, -1], [1, 3]]),
        _prod([[1, 0, -2], [1, 0, -2], [1, 1]]),
        [1, 0, 0, 0, 0],
        _prod([[1, -2]] * 3 + [[1, 0, 1]]),
        _prod([[1, -k] for k in range(1, 7)] + [[1, -3]]),
        _prod([[1, 0, 1], [1, 0, 1], [3, -1]]),
    ]
    assert _check_disc_rows(near_double) > 0
    assert _check_disc_rows(mignotte) > 0
    assert _check_disc_rows(clustered) > 0
    assert _check_disc_rows(not_squarefree) == 0
    # the whole cascade, on batches large enough for the float stages
    for family in (near_double, mignotte, clustered, not_squarefree):
        for row in family:
            got = count_real_roots_batch(np.array([row] * 64, dtype=np.int64))
            assert (got == _exact_count(row)).all(), row


def test_rows_beyond_2_53_skip_the_float_stages(monkeypatch):
    seen = []

    def spy(stage):
        def wrapped(C):
            seen.extend(tuple(r) for r in C.tolist())
            return stage(C)

        return wrapped

    monkeypatch.setattr(realroots, "_float_sturm_batch", spy(realroots._float_sturm_batch))
    monkeypatch.setattr(realroots, "_disc_certify", spy(realroots._disc_certify))
    big = 2**53 + 1  # rounds to 2^53 in float64
    wide = [[big, 2 * big + 1, big], [1, 0, -big], [-big, 0, 0, 0, 1]]
    for row in wide:
        n = len(row) - 1
        rng = np.random.default_rng(n)
        C = rng.integers(-50, 51, size=(80, n + 1))
        C[:, 0] = 1
        C[7] = row
        got = count_real_roots_batch(C)
        assert got[7] == _exact_count(row)
        assert len(seen) > 0
        assert tuple(float(c) for c in row) not in seen
        seen.clear()


def test_disc_stage_holds_for_any_centres(monkeypatch):
    # the certificate may not trust the eigensolver: perturbed centres, with
    # real roots pushed off the axis and conjugate pairs broken, must still
    # never certify a wrong count
    rng = np.random.default_rng(14)
    eigvals = np.linalg.eigvals
    rows = {n: 2 * rng.integers(0, 1 << 12, size=(100, n + 1)) + 1 - (1 << 12) for n in (4, 8, 12)}
    for scale in (1e-13, 1e-9, 1e-5, 1e-2):

        def noisy(M, scale=scale):
            z = eigvals(M)
            return z + scale * (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape))

        monkeypatch.setattr(np.linalg, "eigvals", noisy)
        certified = _check_disc_rows([[int(c) for c in r] for C in rows.values() for r in C])
        if scale < 1e-8:
            # a real root off the axis never certifies; rows with none do
            assert certified > 20
