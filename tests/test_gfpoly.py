import itertools
import random

import pytest

from pencilorbits import gfpoly

from conftest import factor, factor_by_trial_division


def test_factor_reconstructs_product():
    rnd = random.Random(4)
    for p in (3, 5, 7, 13):
        for _ in range(40):
            deg = rnd.randint(1, 9)
            f = [rnd.randrange(p) for _ in range(deg + 1)]
            f = gfpoly.normalize(f, p)
            if len(f) - 1 < 1:
                continue
            factors = factor(f, p)
            prod = [f[0]]
            for irr, mult in factors:
                assert gfpoly.factor_degrees(irr, p) == [(len(irr) - 1, 1)], (p, irr)
                for _ in range(mult):
                    prod = gfpoly.gf_mul(prod, irr, p)
            assert prod == f, (p, f, factors)
            assert len({tuple(i) for i, _ in factors}) == len(factors)


def test_factor_degrees_matches_factor():
    rnd = random.Random(5)
    for p in (2, 3, 5, 7):
        reference = factor_by_trial_division if p == 2 else factor
        for _ in range(60):
            deg = rnd.randint(1, 8)
            f = gfpoly.normalize([rnd.randrange(p) for _ in range(deg + 1)], p)
            if len(f) - 1 < 1:
                continue
            want = sorted((len(irr) - 1, mult) for irr, mult in reference(f, p))
            assert gfpoly.factor_degrees(f, p) == want, (p, f)
    # every monic polynomial of degree <= 8 over F_2 and <= 5 over F_3,
    # multiplicities divisible by p included
    for p, top in ((2, 8), (3, 5)):
        for deg in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=deg):
                f = [1, *tail]
                want = sorted((len(irr) - 1, mult) for irr, mult in factor_by_trial_division(f, p))
                assert gfpoly.factor_degrees(f, p) == want, (p, f)


def test_factor_degrees_on_constructed_powers():
    rnd = random.Random(6)
    for p in (2, 3, 5):
        for _ in range(30):
            # product of distinct irreducibles with assorted multiplicities,
            # including multiples of p
            irrs = []
            for d in (1, 1, 2, 3):
                while True:
                    cand = [1] + [rnd.randrange(p) for _ in range(d)]
                    if factor_by_trial_division(cand, p) == [(cand, 1)] and cand not in irrs:
                        irrs.append(cand)
                        break
            mults = [rnd.choice([1, 2, 3, p, p + 1, 2 * p]) for _ in irrs]
            f = [1]
            for irr, m in zip(irrs, mults):
                for _ in range(m):
                    f = gfpoly.gf_mul(f, irr, p)
            want = sorted((len(irr) - 1, m) for irr, m in zip(irrs, mults))
            assert gfpoly.factor_degrees(f, p) == want, (p, irrs, mults)


def test_factor_degrees_irreducible_brute_force():
    for p in (2, 3):
        for deg in (2, 3, 4, 5):
            for vec in itertools.product(range(p), repeat=deg):
                f = [1] + list(vec)
                reducible = False
                for d in range(1, deg // 2 + 1):
                    for gv in itertools.product(range(p), repeat=d):
                        g = [1] + list(gv)
                        if gfpoly.gf_divmod(f, g, p)[1] == []:
                            reducible = True
                            break
                    if reducible:
                        break
                assert (gfpoly.factor_degrees(f, p) == [(deg, 1)]) == (not reducible), (p, f)


def test_equal_degree_split_rejects_p2():
    # the Cantor-Zassenhaus exponent (p^d - 1) / 2 never splits at p = 2
    with pytest.raises(ValueError):
        gfpoly.equal_degree_split([1, 1, 0], 1, 2, random.Random(0))


def test_gf_powmod_matches_repeated_multiplication(monkeypatch):
    # right to left with no squaring after the top bit: bit_length(e) - 1
    # squarings and popcount(e) products, so 10 gf_mul calls at e = 101
    rnd = random.Random(12)
    calls = []
    mul = gfpoly.gf_mul
    monkeypatch.setattr(gfpoly, "gf_mul", lambda a, b, p: calls.append(1) or mul(a, b, p))
    for p, modulus in ((7, [3, 5]), (7, [1, 0, 1]), (5, [2, 1, 0, 3, 1]), (13, [1, 4, 0, 0, 7, 2, 1])):
        for e in [0, 1, 2, 101] + [rnd.randrange(3, 400) for _ in range(8)]:
            base = gfpoly.normalize([rnd.randrange(p) for _ in range(6)], p)
            want = [1]
            for _ in range(e):
                want = gfpoly.gf_mod(mul(want, base, p), modulus, p)
            calls.clear()
            assert gfpoly.gf_powmod(base, e, modulus, p) == want, (p, modulus, e)
            assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")


def test_factor_degrees_takes_powers_lazily(monkeypatch):
    # a power x^(p^d) is taken only while a factor of degree d can remain: at
    # n = 2 one power decides, and x^2 + 1 is irreducible mod 7
    calls = []
    powmod = gfpoly.gf_powmod
    monkeypatch.setattr(gfpoly, "gf_powmod", lambda *a: calls.append(1) or powmod(*a))
    assert gfpoly.factor_degrees([1, 0, 1], 7) == [(2, 1)]
    assert len(calls) == 1
    # (x^2 + 1)(x - 1)(x - 2)(x - 3) mod 7: the linear factors at d = 1
    # leave degree 2 < 4, so no second power
    calls.clear()
    f = [1, 1, 5, 2, 4, 1]
    assert gfpoly.factor_degrees(f, 7) == [(1, 1), (1, 1), (1, 1), (2, 1)]
    assert len(calls) == 1
    # (x - 1)^2 (x^2 + 1) mod 7: peeling the square at d = 1 takes gcds,
    # not powers
    calls.clear()
    assert gfpoly.factor_degrees([1, 5, 2, 5, 1], 7) == [(1, 2), (2, 1)]
    assert len(calls) == 1
