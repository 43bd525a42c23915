import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pencilorbits import gfpoly, intpoly, search
from pencilorbits.forms import BinaryForm, discriminant
from pencilorbits.numutil import primes_upto
from pencilorbits.orbits import CurvePoint
from pencilorbits.search import (
    DescentBudgetError,
    _decide_2,
    _decide_odd,
    _takes_unit_square_value,
    locally_soluble_R,
    locally_soluble_everywhere,
    locally_soluble_p,
    rational_point_search,
    survey,
)
from conftest import (
    point_search_oracle,
    random_nondegenerate,
    soluble_by_exhaustion,
    squarefree_decomposition,
    unit_square_value_oracle,
)


def test_point_search_examples():
    P = rational_point_search(BinaryForm((1, 0, 0, 0, 15)), 2)
    assert P is not None and P.on_curve(BinaryForm((1, 0, 0, 0, 15)))
    assert rational_point_search(BinaryForm((-1, 0, 0, 0, -1)), 5) is None
    P = rational_point_search(BinaryForm((2, 1, 0, 1, 9)), 1)
    assert (P.x0, P.y0, P.z0) == (0, 1, 3)
    # point at infinity when f0 is a square
    P = rational_point_search(BinaryForm((4, 1, 1, 1, 3)), 1)
    assert (P.x0, P.y0, P.z0) == (1, 0, 2)


def test_point_search_matches_loop(rng):
    # random forms of degree 2..10 and heights 1..10^6: small heights
    # hit early, large ones (and high degrees) leave the int64 kernel for the loop
    for n in range(2, 11, 2):
        for X in [1, 10, 1000, 10**6] * 4:
            f = random_nondegenerate(n, X, rng)
            square_lead = BinaryForm((rng.randint(1, 30) ** 2,) + f.coeffs[1:])
            for g in (f, square_lead):
                if g.disc == 0:
                    continue
                for B in (0, 1, 2, 12, 40):
                    assert rational_point_search(g, B) == point_search_oracle(g, B), (g.coeffs, B)


def test_point_search_guard_boundary(monkeypatch):
    # ||f||_1 B^n just below 2^52 runs the int64 kernel, at 2^52 the loop;
    # the point (1, 1) has the value S, a square next to the bound
    calls = []
    loop = search._point_search_loop
    monkeypatch.setattr(search, "_point_search_loop", lambda f, B: calls.append(B) or loop(f, B))
    for z, D, path in ((2**26 - 1, 2**26 - 1, "kernel"), (2**26 - 2, 2**27 - 2, "loop")):
        S = z * z
        f = BinaryForm((3, S - 5 + D, 0, -D, 2))
        assert sum(abs(c) for c in f.coeffs) == (2**52 - 1 if path == "kernel" else 2**52)
        calls.clear()
        assert rational_point_search(f, 1) == point_search_oracle(f, 1) == CurvePoint(1, 1, z)
        assert calls == ([] if path == "kernel" else [1])
    # no candidates at B <= 0, whatever the size of f
    huge = BinaryForm((2**80 + 1, 0, -(2**70)))
    assert rational_point_search(huge, 0) is None and rational_point_search(huge, -3) is None
    # B = 2 at n = 4: ||f||_1 = 2^48 - 1 (kernel) and 2^48 (loop)
    rng = random.Random(52)
    for norm, ran_loop in ((2**48 - 1, False), (2**48, True)):
        for _ in range(5):
            c = [-rng.randint(1, 2**45)] + [rng.randint(-(2**45), 2**45) for _ in range(3)]  # f0 < 0
            last = norm - sum(abs(x) for x in c)
            f = BinaryForm(tuple(c) + (rng.choice((-1, 1)) * last,))
            if f.disc == 0:
                continue
            calls.clear()
            assert rational_point_search(f, 2) == point_search_oracle(f, 2), f.coeffs
            assert bool(calls) == ran_loop


def test_point_search_memory_flat_in_bound():
    # a negative-definite quartic has no point: B = 600 walks all 721 200 raw
    # candidates, in blocks, without a table that grows with B^2
    f = BinaryForm((-1, 0, 0, 0, -1))
    f.disc
    search._candidate_block.cache_clear()
    tracemalloc.start()
    try:
        assert rational_point_search(f, 600) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_points_feed_pair_construction(rng):
    from pencilorbits.orbits import invariant_form, pair_from_point

    found = 0
    for _ in range(40):
        f = random_nondegenerate(4, 12, rng)
        P = rational_point_search(f, 6)
        if P is None:
            continue
        assert P.z0**2 == sum(
            c * P.x0 ** (4 - i) * P.y0**i for i, c in enumerate(f.coeffs)
        )
        if P.z0 != 0:
            v = pair_from_point(f, P)
            assert invariant_form(v) == f
            found += 1
    assert found >= 5


def test_locally_soluble_R():
    assert not locally_soluble_R(BinaryForm((-1, 0, 0, 0, -1)))
    assert locally_soluble_R(BinaryForm((1, 0, 0, 0, 1)))
    assert locally_soluble_R(BinaryForm((-1, 0, 0, 0, 1)))  # sign change
    assert locally_soluble_R(BinaryForm((0, 1, 1, 1, 1)))  # root at infinity


def test_insoluble_family():
    for p in (3, 5, 7):
        nonres = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        rnd = random.Random(p)
        hits = 0
        while hits < 8:
            b = rnd.randrange(p)
            c = rnd.randrange(1, p)
            f = BinaryForm((nonres, p * b, p * c))
            if discriminant(f) == 0:
                continue
            assert locally_soluble_p(f, p) is False
            hits += 1


def test_hensel_cases():
    assert locally_soluble_p(BinaryForm((1, 0, 0, 0, 1)), 7) is True
    assert locally_soluble_p(BinaryForm((1, 0, 0, 0, 1)), 2) is True
    assert locally_soluble_p(BinaryForm((-1, 3, 3)), 3) is False
    # good reduction above the Hasse-Weil threshold
    assert locally_soluble_p(BinaryForm((1, 1, 1, 1, 2)), 101) is True


def test_locally_soluble_p_rejects_non_primes():
    # composite p would be answered as if it were prime (p = 4, 9, 15, 25
    # gave True, True, False, True)
    f = BinaryForm((3, 0, 0, 0, 5))
    for p in (4, 9, 15, 25, 0, 1, -3):
        with pytest.raises(ValueError):
            locally_soluble_p(f, p)


def test_descent_budget_error_at_budget_zero():
    # 3 t^2 - 3 has odd content valuation at 3 and its reduction t^2 - 1 has
    # roots, so the odd descent must refine; t^2 + 2 has g(0) = 2 and an odd
    # t^2 term, so the 2-adic descent must split the disk
    with pytest.raises(DescentBudgetError):
        _decide_odd([3, 0, -3], 3, 0, 0)
    with pytest.raises(DescentBudgetError):
        _decide_2([1, 0, 2], 0, 0)
    assert _decide_odd([3, 0, -3], 3, 0, 8) is True  # 3 (t^2 - 1) = 144 at t = 7
    assert _decide_2([1, 0, 2], 0, 8) is False  # s^2 - t^2 = 2 has no 2-adic solution


def test_descent_agrees_with_exhaustion(rng):
    for _ in range(50):
        f = random_nondegenerate(4, 25, rng)
        for p in (2, 3, 5):
            a = locally_soluble_p(f, p)
            b = soluble_by_exhaustion(f, p, start_level=4 if p == 2 else 3)
            assert a == b, (f.coeffs, p)


def test_large_prime_descent():
    # large prime dividing the discriminant exercises the narrow-recursion path
    f = BinaryForm((1, 0, 0, 0, -(10007**2)))
    assert discriminant(f) % 10007 == 0
    locally_soluble_p(f, 10007)


def test_weil_shortcut_needs_large_prime():
    # 1031 divides Disc f != 0, and f mod 1031 has degree 32 > sqrt(1031) - 2,
    # too high for the Weil bound to promise a square value
    square_times_g = intpoly.mul(intpoly.mul([1, -1], [1, -1]), [1] + [0] * 28 + [2, 3])
    f = BinaryForm((square_times_g[0] + 1031, *square_times_g[1:-1], square_times_g[-1] + 1031 * 5))
    disc = discriminant(f)
    assert disc != 0 and disc % 1031 == 0
    assert locally_soluble_p(f, 1031) is True


def test_unit_square_value_against_scan(rng):
    def random_poly(d, p):
        return [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d)]

    def scan(hbar, p):
        return any(pow(intpoly.evaluate_binary(hbar, t, 1) % p, (p - 1) // 2, p) == 1 for t in range(p))

    for p in (1031, 1163):  # below and above (32 + 2)^2 = 1156
        nonresidue = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        for d in (31, 32):
            # h = s * G^2 with s of degree 0..3 or d, s = 1 and a non-residue included
            for s in ([1], [nonresidue], *(random_poly(k, p) for k in (1, 2, 3, d))):
                odd = len(s) - 1
                if (d - odd) % 2:
                    continue
                G = random_poly((d - odd) // 2, p)
                hbar = gfpoly.normalize(intpoly.mul(intpoly.mul(G, G), s), p)
                assert _takes_unit_square_value(hbar, p) == scan(hbar, p), (p, d, odd)


def test_unit_square_value_small_p_against_square_set(rng):
    # both branches at small p: the scan (p <= (d + 2)^2) and the Weil bound
    for p in (3, 5, 7, 11, 101, 1021):
        for d in (1, 2, 3, 4, 9, 30):
            for _ in range(4):
                hbar = gfpoly.normalize([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d)], p)
                assert _takes_unit_square_value(hbar, p) == unit_square_value_oracle(hbar, p), (p, hbar)
            G = [1] + [rng.randrange(p) for _ in range(d)]
            for c in range(1, min(p, 6)):
                hbar = gfpoly.normalize(intpoly.mul([c], intpoly.mul(G, G)), p)
                assert _takes_unit_square_value(hbar, p) == unit_square_value_oracle(hbar, p), (p, hbar)


def test_unit_square_value_weil_branch_against_scan(rng):
    # every odd prime (d + 2)^2 < p <= 1024, where the Weil bound decides in
    # place of a scan, against the oracle's scan: a random h of degree d,
    # c G^2 s with s of degree 1 or 2, and for even d, c G^2 with c a square
    # and with c a non-square
    for p in primes_upto(1024)[1:]:
        nonresidue = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)

        def random_poly(d):
            return [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d)]

        for d in range(1, 9):
            if p <= (d + 2) ** 2:
                continue
            G = random_poly((d - 1) // 2)
            s = intpoly.mul([1, -rng.randrange(p)], [1, -rng.randrange(p)] if d % 2 == 0 else [1])
            shapes = [random_poly(d), intpoly.mul([rng.randrange(1, p)], intpoly.mul(intpoly.mul(G, G), s))]
            if d % 2 == 0:
                G = random_poly(d // 2)
                shapes += [intpoly.mul([rng.randrange(1, p) ** 2], intpoly.mul(G, G)), intpoly.mul([nonresidue], intpoly.mul(G, G))]
            for h in shapes:
                hbar = gfpoly.normalize(h, p)
                assert len(hbar) == d + 1
                assert _takes_unit_square_value(hbar, p) == unit_square_value_oracle(hbar, p), (p, hbar)


def test_unit_square_value_large_p_against_squarefree_decomposition(rng):
    # large-p branch: h = c G^2 is read off directly; compare with the
    # multiplicity parity of the squarefree decomposition
    for p in (1163, 65537, 10**9 + 7):
        nonresidue = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        for m in (1, 2, 5, 15):
            G = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m)]
            a = rng.randrange(p)
            shapes = (
                intpoly.mul(G, G),  # c = lc(G)^2, a square
                intpoly.mul([nonresidue], intpoly.mul(G, G)),  # non-residue c
                intpoly.mul([nonresidue], intpoly.mul(intpoly.mul(G, G), [1, -a])),  # c G^2 (x - a)
                [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(2 * m + 1)],  # odd degree
                [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(2 * m)],  # even, not c G^2
                intpoly.mul([nonresidue], intpoly.mul(intpoly.mul(G, G), intpoly.mul([1, -a], [1, -a - 1]))),
            )
            for h in shapes:
                hbar = gfpoly.normalize(h, p)
                want = unit_square_value_oracle(hbar, p)
                assert _takes_unit_square_value(hbar, p) == want, (p, m, hbar)
                assert search._is_lc_times_square(hbar, p) == (
                    len(hbar) % 2 == 1 and not any(j % 2 for _, j in squarefree_decomposition(hbar, p))
                )


def test_locally_soluble_p_rejects_p_below_2():
    f = BinaryForm((1, 0, 0, 0, -7))
    for p in (-3, 0):
        with pytest.raises(ValueError):
            locally_soluble_p(f, p)
    # p = 1 divides everything: a fresh interpreter under a timeout, so a
    # hang in the valuation loop fails the test instead of stalling the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(q for q in (src, os.environ.get("PYTHONPATH")) if q))
    code = (
        "from pencilorbits.forms import BinaryForm\n"
        "from pencilorbits.search import locally_soluble_p\n"
        "try:\n"
        "    locally_soluble_p(BinaryForm((1, 0, 0, 0, -7)), 1)\n"
        "except ValueError as e:\n"
        "    print('ValueError', e)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout.startswith("ValueError"), proc.stderr


def test_differential_search_smoke(capsys):
    from differential_search import main

    assert main(["--curves", "67", "--seed", "3"]) == 0  # 201 curves over n = 2, 4, 6
    assert "total: 0 disagreements" in capsys.readouterr().out


def test_survey_coherence(rng):
    records, agg = survey(4, 60, 8, 50, 3)
    assert agg.count == 50
    assert 0 <= agg.locally_soluble <= 50
    for r in records:
        if r.point is not None:
            assert r.locally_soluble_overall
        assert r.verdicts["real"] in (True, False)
    # determinism
    records2, agg2 = survey(4, 60, 8, 50, 3)
    assert [r.coeffs for r in records] == [r.coeffs for r in records2]
    assert agg2.locally_soluble == agg.locally_soluble
    records3, agg3 = survey(4, 60, 8, 0, 3)
    assert agg3.count == 0
    # a pool of two workers gives the same records
    assert survey(4, 50, 8, 4, 0, jobs=2) == survey(4, 50, 8, 4, 0)


def test_locally_soluble_everywhere_consistency(rng):
    for _ in range(10):
        f = random_nondegenerate(4, 30, rng)
        ok, verdicts = locally_soluble_everywhere(f)
        assert ok == all(verdicts.values())
        P = rational_point_search(f, 10)
        if P is not None:
            assert ok, (f.coeffs, verdicts)


def test_genus0_trend(rng):
    # fraction with a small point decreases as the height bound grows (the
    # genus-0 collapse): loose qualitative check on modest samples
    _, agg_small = survey(2, 10, 12, 150, 9)
    _, agg_large = survey(2, 400, 12, 150, 9)
    frac_small = agg_small.with_point / agg_small.count
    frac_large = agg_large.with_point / agg_large.count
    assert frac_large <= frac_small + 0.05


def test_discriminant_computed_once_per_curve(monkeypatch):
    from pencilorbits import forms

    calls = []
    disc = forms.discriminant
    monkeypatch.setattr(forms, "discriminant", lambda f: calls.append(f) or disc(f))
    f = BinaryForm((3, -7, 2, 11, -5))
    locally_soluble_everywhere(f)
    rational_point_search(f, 6)
    assert len(calls) == 1
    assert f.disc == disc(f)
