import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pencilorbits import intpoly
from pencilorbits.forms import (
    BinaryForm,
    UnimodularMatrix2,
    ZeroFormError,
    discriminant,
    evaluate,
    factorization_type_mod_p,
    height,
    is_separable_mod_p,
    real_root_count,
    sl2_act,
)
from conftest import factor, factor_by_trial_division, random_nondegenerate, random_sl2


def test_evaluate_examples():
    assert evaluate(BinaryForm((1, 1, 1)), 1, 1) == 3
    f = BinaryForm((4, -2, 0, 9, 7))
    assert evaluate(f, 0, 1) == 7
    assert evaluate(BinaryForm((2, 3, 5)), 1, 2) == 28


def test_height_examples():
    assert height(BinaryForm((2, 3, 5))) == 5
    assert height(BinaryForm((0, 0, 0))) == 0
    assert height(BinaryForm((1, 0, 0, 0, -7))) == 7


def test_discriminant_examples():
    assert discriminant(BinaryForm((2, 3, 5))) == -31
    assert discriminant(BinaryForm((1, 0, -1))) == 4
    assert discriminant(BinaryForm((1, 0, 0, 0, 1))) == 256
    f = BinaryForm((0, 1, 0, -1, 0))  # x^3 y - x y^3 = xy(x-y)(x+y): f0 = 0, one root at (1:0)
    assert discriminant(f) != 0


def test_discriminant_with_leading_zeros(rng):
    # f0 = 0 (y divides f) and f0 = f1 = 0 (y^2 divides f, so Disc = 0): Disc
    # equals that of an SL2(Z)-moved copy with nonzero f0; f(1, k) != 0 for
    # some k <= n + 1 since fn != 0
    for n in range(2, 13, 2):
        for zeros in (1, 2):
            for _ in range(15):
                f = BinaryForm((0,) * zeros + tuple(rng.randint(-20, 20) for _ in range(n - zeros)) + (rng.randint(1, 20),))
                moved = (sl2_act(UnimodularMatrix2(1, k, 0, 1), f) for k in range(1, n + 2))
                assert discriminant(f) == discriminant(next(m for m in moved if m.coeffs[0])), f.coeffs
                if zeros == 2:
                    assert discriminant(f) == 0


def test_sl2_act_convention_and_invariance(rng):
    S = UnimodularMatrix2(0, 1, -1, 0)
    assert sl2_act(S, BinaryForm((1, 0, 0))).coeffs == (0, 0, 1)
    shear = UnimodularMatrix2(1, 0, 1, 1)  # f(x + y, y)
    assert sl2_act(shear, BinaryForm((1, 0, 0))).coeffs == (1, 2, 1)
    assert sl2_act(UnimodularMatrix2(1, 0, 0, 1), BinaryForm((5, 1, 2))).coeffs == (5, 1, 2)

    def power(linear, k):
        out = [1]
        for _ in range(k):
            out = intpoly.mul(out, linear)
        return out

    for n in (2, 4, 6, 8, 10, 20, 40):
        for _ in range(10):
            f = BinaryForm(tuple(rng.randint(-9, 9) for _ in range(n + 1)))
            g = random_sl2(rng)
            moved = sl2_act(g, f)
            assert discriminant(moved) == discriminant(f)
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            assert evaluate(moved, x, y) == evaluate(f, x * g.a + y * g.c, x * g.b + y * g.d)
            # sum_i f_i (a x + c y)^(n-i) (b x + d y)^i, expanded by repeated products
            want = [0] * (n + 1)
            for i, fi in enumerate(f.coeffs):
                term = intpoly.mul(power([g.a, g.c], n - i), power([g.b, g.d], i))
                want = [w + fi * t for w, t in zip(want, term)]
            assert moved.coeffs == tuple(want), (f.coeffs, g)


def test_real_root_count_examples():
    assert real_root_count(BinaryForm((1, 0, 0, 0, -1))) == 2
    assert real_root_count(BinaryForm((1, 0, 3, 0, 2))) == 0  # (x^2+y^2)(x^2+2y^2)
    split = BinaryForm((1, -10, 35, -50, 24))  # (x-y)(x-2y)(x-3y)(x-4y)
    assert real_root_count(split) == 4
    # root at infinity counted when f0 = 0
    f = BinaryForm((0, 1, 0, -1, 0))
    assert real_root_count(f) == 4
    # Disc(f) = 0: the zero form, y^2 and y^2 x^2, (x - y)^2, (x - y)^2 (x^2 + y^2)
    for coeffs in ((0, 0, 0), (0, 0, 1), (0, 0, 1, 0, 0), (1, -2, 1), (1, -2, 2, -2, 1)):
        with pytest.raises(ValueError, match="degenerate"):
            real_root_count(BinaryForm(coeffs))


def test_real_root_parity(rng):
    for n in (2, 4, 6, 8):
        for _ in range(15):
            f = random_nondegenerate(n, 12, rng)
            cnt = real_root_count(f)
            assert 0 <= cnt <= n and (n - cnt) % 2 == 0


def test_factorization_type_examples():
    ft = factorization_type_mod_p(BinaryForm((1, 1, 1)), 2)
    assert ft.m == 1 and ft.parts == ((2, 1),)
    ft = factorization_type_mod_p(BinaryForm((0, 1, 0)), 3)
    assert ft.m == 2 and sorted(ft.parts) == [(1, 1), (1, 1)]
    ft = factorization_type_mod_p(BinaryForm((0, 0, 1, 0, 0)), 5)
    assert ft.m == 2 and ft.parts == ((1, 2), (1, 2))
    with pytest.raises(ZeroFormError):
        factorization_type_mod_p(BinaryForm((3, 3, 3)), 3)


def test_factorization_type_degree_sum(rng):
    for p in (2, 3, 5, 7):
        for n in (2, 4, 6):
            for _ in range(15):
                f = BinaryForm(tuple(rng.randint(-20, 20) for _ in range(n + 1)))
                try:
                    ft = factorization_type_mod_p(f, p)
                except ZeroFormError:
                    continue
                assert sum(d * e for d, e in ft.parts) == n
                assert ft.m == len(ft.parts)


def test_factorization_type_matches_oracle_every_form():
    # the type assembled from the irreducible factors themselves; trial
    # division stands in for the oracle at p = 2, where it does not split
    for p in (2, 3, 5):
        reference = factor_by_trial_division if p == 2 else factor
        for n in (2, 4):
            for coeffs in itertools.product(range(p), repeat=n + 1):
                if not any(coeffs):
                    continue
                f = BinaryForm(coeffs)
                reduced = list(coeffs)
                while not reduced[0]:
                    reduced.pop(0)
                parts = [(len(irr) - 1, e) for irr, e in reference(reduced, p)]
                if len(reduced) - 1 < n:
                    parts.append((1, n - (len(reduced) - 1)))
                assert factorization_type_mod_p(f, p).parts == tuple(sorted(parts)), (p, coeffs)


def test_factorization_type_m_counts_the_distinct_factors():
    # every nonzero form of degree 2 and 4 mod p = 2, 3, 5 and of degree 2
    # mod 7: m, the count behind the 2^(m-1)-orbit prediction, is the number
    # of distinct irreducible factors of f(x, 1) found by trial division,
    # plus one when y divides f
    for p, degrees in ((2, (2, 4)), (3, (2, 4)), (5, (2, 4)), (7, (2,))):
        for n in degrees:
            for coeffs in itertools.product(range(p), repeat=n + 1):
                if not any(coeffs):
                    continue
                reduced = list(coeffs[next(i for i, c in enumerate(coeffs) if c):])
                m = len(factor_by_trial_division(reduced, p)) + (len(reduced) - 1 < n)
                assert factorization_type_mod_p(BinaryForm(coeffs), p).m == m, (p, coeffs)


def test_mod_p_functions_reject_non_prime_p():
    # Z/4 and Z/9 are not fields, so no factorization type or separability
    # exists there; ZeroFormError is a ValueError too, so the message is checked
    f = BinaryForm((1, 1, 1, 1, 1))
    for p in (0, 1, 4, 9):
        for fn in (factorization_type_mod_p, is_separable_mod_p):
            with pytest.raises(ValueError, match="must be a prime"):
                fn(f, p)
    # at a negative p, gf_powmod's e >>= 1 would stay at -1 forever: a fresh
    # interpreter under a timeout, so a hang fails the test instead of
    # stalling the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(q for q in (src, os.environ.get("PYTHONPATH")) if q))
    code = (
        "from pencilorbits.forms import BinaryForm, factorization_type_mod_p, is_separable_mod_p\n"
        "for fn in (factorization_type_mod_p, is_separable_mod_p):\n"
        "    try:\n"
        "        fn(BinaryForm((1, 0, 1)), -3)\n"
        "    except ValueError as e:\n"
        "        print('ValueError', e)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout.count("ValueError") == 2, proc.stderr


def test_separability(rng):
    assert is_separable_mod_p(BinaryForm((1, 1, 1)), 2)
    assert not is_separable_mod_p(BinaryForm((1, 2, 1)), 2)  # (x+y)^2
    assert not is_separable_mod_p(BinaryForm((0, 0, 1)), 5)  # y^2 at (1:0)

    def separable(f, p):  # nonzero mod p with every factor simple, (1:0) included
        try:
            return all(e == 1 for _, e in factorization_type_mod_p(f, p).parts)
        except ZeroFormError:
            return False

    # every form of degree 2 and 4 mod p = 2, 3, 5 and of degree 2 mod 7,
    # then sextics whose leading coefficients p often divides
    cases = [
        (BinaryForm(coeffs), p)
        for p, degrees in ((2, (2, 4)), (3, (2, 4)), (5, (2, 4)), (7, (2,)))
        for n in degrees
        for coeffs in itertools.product(range(p), repeat=n + 1)
    ]
    sextics = [BinaryForm(tuple(rng.randint(-50, 50) for _ in range(7))) for _ in range(50)]
    cases += [(f, p) for f in sextics for p in (2, 3, 5, 7)]
    for f, p in cases:
        assert is_separable_mod_p(f, p) == separable(f, p), (p, f.coeffs)


def test_disc_parity_law(rng):
    # Stickelberger: for p odd and f separable mod p, (-1)^(n - m) is the
    # Legendre symbol (Disc(f) / p); about a fifth of the draws have f0 = 0
    # mod p, where y is a factor
    for n in (2, 4, 6, 8, 10):
        for p in (3, 5, 7, 11, 13):
            for draw in range(40):
                while True:
                    coeffs = [rng.randint(-30, 30) for _ in range(n + 1)]
                    if draw % 5 == 0:
                        coeffs[0] = p * rng.randint(-3, 3)
                    f = BinaryForm(tuple(coeffs))
                    if is_separable_mod_p(f, p):
                        break
                m = factorization_type_mod_p(f, p).m
                legendre = 1 if pow(f.disc, (p - 1) // 2, p) == 1 else -1
                assert (-1) ** (n - m) == legendre, (p, coeffs)
