import itertools
import random
from fractions import Fraction

import pytest

from pencilorbits.forms import BinaryForm, discriminant
from pencilorbits import gfpoly, intpoly, rings
from pencilorbits.numutil import is_prime
from pencilorbits.rings import (
    AlgebraElement,
    SquareClassVerdict,
    algebra_mul,
    algebra_norm,
    element_theta,
    ideal_inverse_power,
    ideal_norm,
    ideal_power_basis,
    linear_element,
    norm_linear,
    ring_discriminant,
    ring_from_form,
    ring_multiply,
    same_square_class,
    spans_equal,
    to_zeta_coords,
    zeta_element,
)
from conftest import (
    distinct_degree_factorization,
    factor,
    random_nondegenerate,
    random_unimodular,
    scaled_ideal,
    serial_square_class,
)


def test_structure_constants_examples():
    R = ring_from_form(BinaryForm((2, 3, 5)))
    assert R.product(1, 1) == (-10, -3)  # zeta1^2 = -3 zeta1 - 10
    R = ring_from_form(BinaryForm((1, 0, 1)))
    assert R.product(1, 1) == (-1, 0)  # theta^2 = -1
    R = ring_from_form(BinaryForm((1, 0, 0, 0, 1)))
    for i in range(1, 4):
        for j in range(i, 4):
            assert all(isinstance(c, int) for c in R.product(i, j))


def test_ring_closure_and_associativity(rng):
    for n in (2, 4, 6, 8):
        for _ in range(12):
            f = random_nondegenerate(n, 8, rng)
            if f.coeffs[0] == 0:
                continue
            R = ring_from_form(f)
            # associativity on all basis triples via the table only
            basis = [tuple(1 if t == k else 0 for t in range(n)) for k in range(n)]
            for i in range(1, n):
                for j in range(i, n):
                    for k in range(1, n):
                        left = ring_multiply(R, ring_multiply(R, basis[i], basis[j]), basis[k])
                        right = ring_multiply(R, basis[i], ring_multiply(R, basis[j], basis[k]))
                        assert left == right


def test_spans_equal_under_rebasing(rng):
    # a unimodular re-basis J of an I_f(k) basis spans the same lattice; one
    # basis vector doubled spans a sublattice of index 2
    for _ in range(100):
        n = rng.choice([2, 4, 6])
        f = random_nondegenerate(n, 8, rng)
        if f.coeffs[0] == 0:
            continue
        I = ideal_power_basis(f, rng.randrange(n)).basis
        zero = AlgebraElement(f, (0,) * n)
        J = [sum((b * u for u, b in zip(row, I)), zero) for row in random_unimodular(n, rng)]
        assert spans_equal(I, J), (f.coeffs, J)
        assert not spans_equal(I, [J[0] * 2] + J[1:])


def test_birch_merriman(rng):
    assert ring_discriminant(ring_from_form(BinaryForm((2, 3, 5)))) == -31
    assert ring_discriminant(ring_from_form(BinaryForm((1, 0, 1)))) == -4
    for n in (2, 4, 6):
        for _ in range(20):
            f = random_nondegenerate(n, 9, rng)
            if f.coeffs[0] == 0:
                continue
            assert ring_discriminant(ring_from_form(f)) == discriminant(f)


def test_zeta_coords_round_trip(rng):
    for n in (2, 4, 6):
        for _ in range(8):
            f = random_nondegenerate(n, 7, rng)
            if f.coeffs[0] == 0:
                continue
            el = rings.AlgebraElement(f, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
            terms = (zeta_element(f, k) * c for k, c in enumerate(to_zeta_coords(el)))
            assert sum(terms, AlgebraElement(f, (0,) * n)) == el


def test_ideal_power_basis_and_norms():
    f = BinaryForm((3, 1, 0, 0, 7))
    I0 = ideal_power_basis(f, 0)
    assert ideal_norm(I0) == 1
    assert I0.basis[0] == rings.element_one(f)
    I1 = ideal_power_basis(f, 1)
    assert I1.basis[1] == element_theta(f)
    for k in range(4):
        assert ideal_norm(ideal_power_basis(f, k)) == Fraction(1, 3**k)
    with pytest.raises(ValueError):
        ideal_power_basis(f, 4)
    assert ideal_norm(scaled_ideal(I1, rings.element_one(f) * 2)) == Fraction(16, 3)


def test_ideal_products_span(rng):
    for n in (4, 6):
        for _ in range(6):
            f = random_nondegenerate(n, 6, rng)
            if f.coeffs[0] == 0:
                continue
            for k1 in range(0, 2):
                for k2 in range(0, n - 1 - k1):
                    a = ideal_power_basis(f, k1)
                    b = ideal_power_basis(f, k2)
                    prods = [algebra_mul(x, y) for x in a.basis for y in b.basis]
                    target = ideal_power_basis(f, k1 + k2)
                    assert spans_equal(prods, target.basis), (f.coeffs, k1, k2)


def test_inverse_power(rng):
    # I_f^(-1) = {x : x * I_f(1) within R_f}: products land in R_f, the norm
    # is |f0|, and the basis solves the containment system exactly
    for n in (2, 4, 6):
        for _ in range(6):
            f = random_nondegenerate(n, 6, rng)
            if f.coeffs[0] == 0:
                continue
            inv = ideal_inverse_power(f)
            assert ideal_norm(inv) == abs(f.coeffs[0])
            one = ideal_power_basis(f, 1)
            for x in one.basis:
                for y in inv.basis:
                    zc = to_zeta_coords(algebra_mul(x, y))
                    assert all(c.denominator == 1 for c in zc)
    # for monic-leading f the ideal is invertible and the product is all of R_f
    for n in (2, 4):
        for _ in range(4):
            f = random_nondegenerate(n, 6, rng)
            f = type(f)((1,) + f.coeffs[1:])
            if discriminant(f) == 0:
                continue
            inv = ideal_inverse_power(f)
            one = ideal_power_basis(f, 1)
            prods = [algebra_mul(x, y) for x in one.basis for y in inv.basis]
            assert spans_equal(prods, ideal_power_basis(f, 0).basis)


def test_algebra_mul_examples():
    f = BinaryForm((1, 0, 1))
    th = element_theta(f)
    assert algebra_mul(th, th).coords == (Fraction(-1), Fraction(0))
    g = BinaryForm((2, 3, 5))
    th = element_theta(g)
    assert algebra_mul(th, th).coords == (Fraction(-5, 2), Fraction(-3, 2))
    one = rings.element_one(g)
    v = rings.AlgebraElement(g, (Fraction(3), Fraction(-2)))
    assert algebra_mul(one, v) == v
    with pytest.raises(ValueError):
        algebra_mul(element_theta(f), element_theta(g))


def test_algebra_mul_matches_reduction_over_q(rng):
    # reference: multiply the Fraction coordinate polynomials and reduce the
    # product mod f(x, 1) over Q, with no pseudo-remainder and no f0 powers
    def reference(u, v):
        prod = intpoly.mul(list(reversed(u.coords)), list(reversed(v.coords)))
        _, r = intpoly.divmod_exact(prod, u.form.univariate())
        return tuple(reversed(r)) + (0,) * (u.form.degree - len(r))

    for n in range(2, 13, 2):
        for f0 in (1, -1, 2, -2, 3, 7):
            f = BinaryForm((f0,) + tuple(rng.randint(-9, 9) for _ in range(n)))
            zero = AlgebraElement(f, (0,) * n)
            for _ in range(4):
                u, v = (AlgebraElement(f, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))) for _ in range(2))
                # a product of degree < n, which needs no reduction
                d = rng.randrange(n)
                low_u = AlgebraElement(f, u.coords[: d + 1] + (0,) * (n - d - 1))
                low_v = AlgebraElement(f, v.coords[: n - d] + (0,) * d)
                for x, y in ((u, v), (u, zero), (zero, v), (low_u, low_v)):
                    assert algebra_mul(x, y).coords == reference(x, y), (f.coeffs, x.coords, y.coords)


def test_table_matches_algebra(rng):
    for n in (2, 4, 6, 8):
        for _ in range(10):
            f = random_nondegenerate(n, 8, rng)
            if f.coeffs[0] == 0:
                continue
            R = ring_from_form(f)
            for i in range(1, n):
                for j in range(i, n):
                    prod = algebra_mul(zeta_element(f, i), zeta_element(f, j))
                    assert to_zeta_coords(prod) == tuple(Fraction(c) for c in R.product(i, j))


def test_algebra_inverse(rng):
    for n in (2, 4, 6, 8, 10):
        for _ in range(8):
            f = random_nondegenerate(n, 8, rng)
            if f.coeffs[0] == 0:
                continue
            u = AlgebraElement(f, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
            if algebra_norm(u) == 0:
                continue
            assert algebra_mul(u, u.inverse()) == rings.element_one(f)
    f = BinaryForm((1, 0, -1))  # x^2 - y^2: theta - 1 divides zero
    with pytest.raises(ZeroDivisionError):
        AlgebraElement(f, (0, 0)).inverse()
    with pytest.raises(ZeroDivisionError):
        linear_element(f, 1, -1).inverse()


def test_norm_linear_examples():
    assert norm_linear(BinaryForm((1, 0, 0, 0, 5)), 1, 0) == 5
    assert norm_linear(BinaryForm((2, 3, 5)), 0, 1) == 1
    assert norm_linear(BinaryForm((1, -2, 2)), 1, -1) == 1
    with pytest.raises(ValueError):
        norm_linear(BinaryForm((1, 0, -1)), 1, -1)  # theta - 1 is a zero divisor


def test_k_f_needs_nonzero_f0():
    # K_f = Q[x]/(f(x,1)) has degree n only if f0 != 0: every way into K_f
    # raises ValueError rather than dividing by f0
    f = BinaryForm((0, 1, 1))
    for make in (
        lambda: AlgebraElement(f, (1, 0)),
        lambda: linear_element(f, 1, 0),
        lambda: element_theta(f),
        lambda: zeta_element(f, 1),
        lambda: ideal_power_basis(f, 0),
        lambda: ideal_power_basis(f, 1),
        lambda: ideal_inverse_power(f),
    ):
        with pytest.raises(ValueError, match="f0"):
            make()
    # these build no element, so they check f0 themselves
    with pytest.raises(ValueError, match="leading coefficient"):
        ring_from_form(f)
    with pytest.raises(ValueError, match="leading coefficient"):
        norm_linear(f, 1, 0)


def test_norm_linear_matches_algebra_norm(rng):
    for n in (2, 4, 6):
        for _ in range(10):
            f = random_nondegenerate(n, 7, rng)
            if f.coeffs[0] == 0:
                continue
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            el = linear_element(f, a, b)
            if el.is_zero() or algebra_norm(el) == 0:
                continue
            assert algebra_norm(el) == norm_linear(f, a, b)


def test_same_square_class():
    f = BinaryForm((1, 0, 1))
    th = element_theta(f)
    assert same_square_class(th, th, trials=20) == SquareClassVerdict.EQUAL
    kappa = linear_element(f, 2, 3)
    beta = algebra_mul(algebra_mul(kappa, kappa), th)
    assert same_square_class(th, beta, trials=20) == SquareClassVerdict.EQUAL
    # in Q(i), -1 = i^2 so theta and -theta agree up to squares
    assert same_square_class(th, -th, trials=20) == SquareClassVerdict.EQUAL
    # over the real quadratic field Q(sqrt 2) the sign witness separates them
    g = BinaryForm((1, 0, -2))
    th2 = element_theta(g)
    assert same_square_class(th2, -th2, trials=20) == SquareClassVerdict.DISTINCT
    # residue witness: 3 is not a square in Q(sqrt 2) -> Distinct from 1
    three = rings._coerce(g, 3)
    one = rings.element_one(g)
    assert same_square_class(one, three, trials=30) == SquareClassVerdict.DISTINCT


def test_same_square_class_random_squares(rng):
    for n in (2, 4):
        for _ in range(6):
            f = random_nondegenerate(n, 5, rng)
            if f.coeffs[0] == 0 or discriminant(f) == 0:
                continue
            kappa = linear_element(f, rng.randint(1, 3), rng.randint(-3, 3))
            if algebra_norm(kappa) == 0:
                continue
            alpha = element_theta(f)
            if algebra_norm(alpha) == 0:
                continue
            beta = algebra_mul(algebra_mul(kappa, kappa), alpha)
            assert same_square_class(alpha, beta, trials=12) == SquareClassVerdict.EQUAL


def test_ideal_power_basis_n4_k1_layout():
    f = BinaryForm((3, 1, 0, 0, 7))
    I = ideal_power_basis(f, 1)
    assert I.basis[0] == rings.element_one(f)
    assert I.basis[1] == element_theta(f)
    assert I.basis[2] == rings.zeta_element(f, 2)
    assert I.basis[3] == rings.zeta_element(f, 3)


def test_same_square_class_real_witness_by_tarski_query():
    # x^6 - 2 has two real roots +-2^(1/6); theta^2 + 1 is positive at both,
    # theta - 1 is negative at the negative one only
    f = BinaryForm((1, 0, 0, 0, 0, 0, -2))
    th = element_theta(f)
    alpha = algebra_mul(th, th) + 1
    assert same_square_class(alpha, alpha, trials=3) == SquareClassVerdict.EQUAL
    beta = th - 1
    assert intpoly.tarski_query(f.univariate(), [1, -1]) == 0
    assert same_square_class(rings.element_one(f), beta, trials=0) == SquareClassVerdict.DISTINCT


def test_same_square_class_witness_inside_one_ddf_class():
    # f = (x^2 + 1)(x^2 + 2) has no real root; 3 and 5 divide Res(f, 2x + 1)
    # = 45, so 7 is the first good prime, where f is a product of two
    # irreducible quadratics in one distinct-degree class.  gamma = 2 theta + 1
    # is a non-square mod x^2 + 1 only.
    f = BinaryForm((1, 0, 3, 0, 2))
    gamma = linear_element(f, 2, 1)
    assert distinct_degree_factorization([1, 0, 3, 0, 2], 7) == [(2, [1, 0, 3, 0, 2])]
    assert gfpoly.gf_powmod([2, 1], 24, [1, 0, 1], 7) != [1]
    assert gfpoly.gf_powmod([2, 1], 24, [1, 0, 2], 7) == [1]
    assert same_square_class(rings.element_one(f), gamma, trials=1) == SquareClassVerdict.DISTINCT


def _reference_witness(alpha, beta, trials):
    """Index of the first of the `trials` smallest good primes where the
    per-irreducible-factor residue test with the `factor` oracle finds gamma
    a non-square, or None; for forms without real roots (where no real
    witness exists) same_square_class is DISTINCT iff this is not None."""
    f = alpha.form
    G, D = algebra_mul(alpha, beta).numerator_poly()
    bad = abs(f.coeffs[0] * f.disc * D * intpoly.resultant(f.univariate(), G))
    primes = (p for p in itertools.count(3, 2) if bad % p and is_prime(p))
    for k, p in enumerate(itertools.islice(primes, trials)):
        w = [c * pow(D, -1, p) % p for c in gfpoly.normalize(G, p)]
        for h, _ in factor(f.univariate(), p):
            if gfpoly.gf_powmod(w, (p ** (len(h) - 1) - 1) // 2, h, p) != [1]:
                return k
    return None


def test_same_square_class_matches_per_factor_reference():
    # f a product of two to five positive definite quadratics (n = 4..10, no
    # real root, so only residue fields witness), where factors of equal
    # degree mod p are common; beta is a square times alpha in a third of the
    # cases.  The trials straddle the chunk edges 1, 5 and 21.
    rng = random.Random(7)
    seen = set()
    for _ in range(40):
        c = [1]
        for _ in range(rng.choice([2, 3, 4, 5])):
            b = rng.randint(-3, 3)
            c = intpoly.mul(c, [rng.randint(1, 2), b, b * b + rng.randint(1, 6)])
        f = BinaryForm(tuple(c))
        if f.disc == 0:
            continue
        n = f.degree
        alpha = AlgebraElement(f, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)))
        beta = AlgebraElement(f, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        if rng.random() < 0.35:
            beta = algebra_mul(algebra_mul(beta, beta), alpha)
        G, _ = algebra_mul(alpha, beta).numerator_poly()
        if not G or intpoly.resultant(f.univariate(), G) == 0:
            continue
        witness = _reference_witness(alpha, beta, 50)
        for trials in (1, 2, 5, 6, 21, 22, 50):
            distinct = witness is not None and witness < trials
            want = SquareClassVerdict.DISTINCT if distinct else SquareClassVerdict.EQUAL
            assert same_square_class(alpha, beta, trials=trials) == want, (f, alpha, beta, trials)
            seen.add((n, want))
    assert {v for _, v in seen} == {SquareClassVerdict.EQUAL, SquareClassVerdict.DISTINCT}
    assert {n for n, _ in seen} == {4, 6, 8, 10}


def _record_chunks(monkeypatch):
    chunks = []
    kernel = rings._frobenius_ranks

    def recording(funiv, G, D, primes):
        chunks.append(list(primes))
        return kernel(funiv, G, D, primes)

    monkeypatch.setattr(rings, "_frobenius_ranks", recording)
    return chunks


def test_same_square_class_witness_in_third_chunk(monkeypatch):
    # In Q(i) the integer 26 is a square in F_(p^2) at every p = 3 mod 4 and
    # in F_p = 5 and 17; the first witness is 29, the good prime of index 7
    # (13 divides Res(x^2 + 1, 26)), which lies in the third chunk (5..20)
    f = BinaryForm((1, 0, 1))
    one, beta = rings.element_one(f), rings._coerce(f, 26)
    assert same_square_class(one, beta, trials=7) == SquareClassVerdict.EQUAL
    assert same_square_class(one, beta, trials=8) == SquareClassVerdict.DISTINCT
    chunks = _record_chunks(monkeypatch)
    assert same_square_class(one, beta, trials=50) == SquareClassVerdict.DISTINCT
    assert [len(c) for c in chunks] == [1, 4, 16]
    assert [p for c in chunks for p in c][7] == 29
    assert serial_square_class(one, beta, trials=50) == SquareClassVerdict.DISTINCT


def test_same_square_class_chunk_sizes(monkeypatch):
    # an EQUAL verdict at n = 10 visits all 200 primes in chunks of
    # 1, 4, 16, 64 and the rest
    f = BinaryForm((1, 0, 3, 0, 5, 1, 7, 0, 2, 0, 9))
    alpha = AlgebraElement(f, tuple(Fraction(k - 4, 3) for k in range(10)))
    chunks = _record_chunks(monkeypatch)
    assert same_square_class(alpha, alpha, trials=200) == SquareClassVerdict.EQUAL
    assert [len(c) for c in chunks] == [1, 4, 16, 64, 115]


def test_good_primes_give_squarefree_reductions():
    # a good prime divides neither f0 nor Disc(f), so the monic reduction of
    # f(x, 1) is squarefree: same_square_class relies on it without a check
    rng = random.Random(16)
    for n in (2, 4, 6, 8, 10):
        for _ in range(8):
            f = random_nondegenerate(n, 30, rng)
            if f.coeffs[0] == 0:
                continue
            for p in itertools.islice(rings._good_primes(abs(f.coeffs[0] * f.disc)), 50):
                fbar = gfpoly.gf_monic(gfpoly.normalize(f.univariate(), p), p)
                assert gfpoly.gf_gcd(fbar, gfpoly.normalize(intpoly.derivative(fbar), p), p) == [1], (f.coeffs, p)


def _serial_squares(fbar, gamma, p):
    """Whether gamma is a square in every residue field of F_p[x]/(fbar):
    one gf_powmod test per distinct-degree class, as serial_square_class."""
    classes = distinct_degree_factorization(fbar, p)
    return all(gfpoly.gf_powmod(gamma, (p**d - 1) // 2, g, p) == [1] for d, g in classes)


def test_frobenius_ranks_int64_bound():
    # n (p - 1)^2 < 2^63 holds at p = 2^31 - 1 for n = 2, and the ranks give
    # the serial verdict there; f(x, 1) = 3 fbar and G / D = 5 gamma / 5
    # exercise both scalings.  The next prime, 2^31 + 11, is refused
    p = (1 << 31) - 1
    seen = set()
    for fbar in ([1, 5, 3], [1, p - 3, 2], [1, 0, 1]):
        nfactors = sum((len(g) - 1) // d for d, g in distinct_degree_factorization(fbar, p))
        for gamma in ([7, 2], [1, 2], [1, 3], [p - 1], [3]):
            ranks = rings._frobenius_ranks([3 * c for c in fbar], [5 * c for c in gamma], 5, [p])
            assert ranks[0, 0] == 2 - nfactors
            squares = _serial_squares(fbar, gamma, p)
            assert (ranks[0, 1] == ranks[0, 0]) == squares, (fbar, gamma)
            seen.add(squares)
    assert seen == {True, False}
    assert is_prime((1 << 31) + 11)
    with pytest.raises(ValueError):
        rings._frobenius_ranks([1, 5, 3], [7, 2], 1, [(1 << 31) + 11])


def test_frobenius_ranks_with_a_degree_p_component():
    # mod 3, fbar = (x^3 - x - 1)(x - 1) has the residue field F_27, of
    # degree p, on which Frobenius is not semisimple (its minimal polynomial
    # is x^3 - 1 = (x - 1)^3); for every unit gamma the rank test still
    # gives the per-factor verdict, and every pattern of verdicts occurs
    factors = [[1, 0, 2, 2], [1, 2]]
    fbar = gfpoly.gf_mul(*factors, 3)
    seen = set()
    for coeffs in itertools.product(range(3), repeat=4):
        gamma = gfpoly.normalize(list(coeffs), 3)
        if any(gfpoly.gf_gcd(gamma, h, 3) != [1] for h in factors):
            continue
        squares = tuple(gfpoly.gf_powmod(gamma, (3 ** (len(h) - 1) - 1) // 2, h, 3) == [1] for h in factors)
        ranks = rings._frobenius_ranks(fbar, gamma, 1, [3])
        assert ranks[0, 0] == 2
        assert (ranks[0, 1] == ranks[0, 0]) == all(squares) == _serial_squares(fbar, gamma, 3), gamma
        seen.add(squares)
    assert seen == set(itertools.product((True, False), repeat=2))


def test_differential_square_class_smoke(capsys):
    from differential_square_class import main

    assert main(["--cases", "12", "--trials", "22"]) == 0  # 60 pairs over n = 2..10
    assert "total: 0 disagreements" in capsys.readouterr().out
