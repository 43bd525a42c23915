import numpy as np

from pencilorbits import intpoly, realroots
from pencilorbits.realroots import (
    _descartes_certify,
    _descartes_rows,
    _disc_certify,
    _exact_count,
    count_real_roots_batch,
)


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
        C = 2 * K + 1
        idx, rows = _descartes_rows(C)
        assert len(idx) == 800  # 4^14 * 15 * 2^13 < 2^63: every row is in the guard
        counts, ok = _descartes_certify(rows)
        checked = 0
        for i in range(800):
            if not ok[i]:
                continue
            row = [int(c) for c in C[i]]
            assert counts[i] == intpoly.real_root_count_squarefree(row)
            checked += 1
        assert checked > 400  # the stage certifies most rows at these degrees


def test_nonsquarefree_rows_fall_back():
    # (x - 1)^2 (x + 3): not squarefree; counted by the squarefree part
    row = intpoly.mul(intpoly.mul([1, -1], [1, -1]), [1, 3])
    got = count_real_roots_batch(np.array([row] * 70, dtype=np.int64))
    assert (got == 2).all()


def _check_rows(stage, rows, expected=intpoly.real_root_count_squarefree):
    """Every row `stage` certifies has the `expected` count; returns how many
    it certified.  `real_root_count_squarefree` is None for a row that is not
    squarefree, so by default certifying one fails here."""
    certified = 0
    by_degree = {}
    for row in rows:
        by_degree.setdefault(len(row) - 1, []).append(row)
    for group in by_degree.values():
        counts, ok = stage(group)
        for row, c, good in zip(group, counts, ok):
            if good:
                assert c == expected(row), row
                certified += 1
    return certified


def _disc_stage(group):
    return _disc_certify(np.array(group, dtype=np.float64))


def _descartes_stage(group):
    """The Descartes stage on the rows within its overflow guard; the others
    are reported as not certified."""
    C = np.array(group, dtype=np.int64)
    counts, ok = np.zeros(len(C), np.int64), np.zeros(len(C), bool)
    idx, rows = _descartes_rows(C)
    counts[idx], ok[idx] = _descartes_certify(rows)
    return counts, ok


def _check_disc_rows(rows):
    return _check_rows(_disc_stage, rows)


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


def _families():
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
    # rows with a real multiple root; neither stage may certify them
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


def test_disc_stage_adversarial_families():
    fam = _families()
    assert _check_disc_rows(fam["near_double"]) > 0
    assert _check_disc_rows(fam["mignotte"]) > 0
    assert _check_disc_rows(fam["clustered"]) > 0
    assert _check_disc_rows(fam["real_multiple"] + fam["complex_multiple"]) == 0
    # the whole cascade, on batches large enough for the filter stages
    for family in fam.values():
        for row in family:
            got = count_real_roots_batch(np.array([row] * 64, dtype=np.int64))
            assert (got == _exact_count(row)).all(), row


def test_descartes_stage_adversarial_families():
    # one level of bisection cannot split the close pairs of the near-double
    # and Mignotte rows, so these must all go on; the clustered rows and the
    # ones with non-real multiple roots are partly certified
    fam = _families()
    certified = {name: _check_rows(_descartes_stage, rows, _exact_count) for name, rows in fam.items()}
    assert certified["clustered"] > 0 and certified["complex_multiple"] > 0
    assert certified["real_multiple"] == 0


def test_descartes_stage_rejects_roots_at_split_points():
    # a root at 0, +-1 (the ends of the half-lines) or +-1/2, +-2 (the
    # bisection points) must send the row on, whatever the other factor
    rng = np.random.default_rng(15)
    roots = ([1, 0], [2, -1], [2, 1], [1, -1], [1, 1], [1, -2], [1, 2])
    cofactors = [[1, 0, 1], [1, -3], [3, 0, -1], [1, 1, 1, 5], [1, 0, 0, -5, 0, 1]]
    cofactors += [[int(c) for c in r] for r in 2 * rng.integers(0, 1 << 8, size=(30, 7)) + 1 - (1 << 8)]
    rows = [intpoly.mul(r, q) for r in roots for q in cofactors]
    rows += [_prod([[2, -1], [2, 1], [1, -2], [1, 2]]), _prod([[1, 0], [1, -1], [1, 1], [1, 0, 1]])]
    for row in rows:
        _, ok = _descartes_stage([row])
        assert not ok.any(), row
    for row in rows:
        got = count_real_roots_batch(np.array([row] * 64, dtype=np.int64))
        assert (got == _exact_count(row)).all(), row


def _spy(seen, stage, decline=False):
    """Wrap a stage to record the rows it is given; with `decline`, certify
    none of them, so every row goes on to the next stage."""

    def wrapped(C):
        seen.extend(tuple(r) for r in C.tolist())
        counts, ok = stage(C)
        return counts, ok & (not decline)

    return wrapped


def _padded(row, rows=80):
    """A batch with `row` at index 7, large enough for the filter stages."""
    n = len(row) - 1
    C = np.random.default_rng(n).integers(-50, 51, size=(rows, n + 1))
    C[:, 0] = 1
    C[7] = row
    return C


def test_descartes_guard_at_2_63(monkeypatch):
    seen = []
    monkeypatch.setattr(realroots, "_descartes_certify", _spy(seen, realroots._descartes_certify))
    rng = np.random.default_rng(16)
    for n in (2, 6, 12, 22, 31):
        bound = 2 ** (63 - 2 * n)  # 4^n ||c||_1 < 2^63 exactly when ||c||_1 < bound
        below = [[1] + [0] * (n - 1) + [s * (bound - 2)] for s in (1, -1)]
        above = [[1] + [0] * (n - 1) + [s * (bound - 1)] for s in (1, -1)]
        for norm, side in ((bound - 1, below), (bound, above)):
            if n < 31:
                w = rng.integers(1, 1000, size=n + 1)
                row = (w * (norm // w.sum())).tolist()
                row[-1] += norm - sum(row)
                side.append([int(c) * s for c, s in zip(row, rng.choice([-1, 1], size=n + 1))])
        for row in below + above:
            assert sum(abs(c) for c in row) == (bound - 1 if row in below else bound)
            got = count_real_roots_batch(_padded(row))
            assert got[7] == _exact_count(row), row
            assert (tuple(row) in seen) == (row in below), row
            seen.clear()
    # no row of degree >= 32 passes the guard; the stage is never called
    got = count_real_roots_batch(np.array([[1] + [0] * 31 + [k] for k in range(1, 65)]))
    assert (got == 0).all() and not seen


def test_rows_beyond_2_53_skip_the_disc_stage(monkeypatch):
    big = 2**53 + 1  # rounds to 2^53 in float64
    wide = [[big, 2 * big + 1, big], [1, 0, -big], [-big, 0, 0, 0, 1]]
    for row in wide:
        # the Descartes stage counts these rows exactly in int64
        assert count_real_roots_batch(_padded(row))[7] == _exact_count(row)
    descartes, disc = [], []
    # a declining Descartes stage sends every row to the disc stage's check
    declining = _spy(descartes, realroots._descartes_certify, decline=True)
    monkeypatch.setattr(realroots, "_descartes_certify", declining)
    monkeypatch.setattr(realroots, "_disc_certify", _spy(disc, realroots._disc_certify))
    for row in wide:
        got = count_real_roots_batch(_padded(row))
        assert got[7] == _exact_count(row)
        assert tuple(row) in descartes  # 4^n ||c||_1 < 2^63 for all three
        assert len(disc) > 0
        assert tuple(float(c) for c in row) not in disc
        descartes.clear()
        disc.clear()


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


def test_differential_script_smoke():
    # the full check is `python tests/differential_realroots.py`; this keeps
    # the script importable and runnable on a small argv
    import differential_realroots

    assert differential_realroots.main(["--rows", "2000", "--degrees", "4,12,22"]) == 0
