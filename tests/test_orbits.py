import json
import math

import pytest

from pencilorbits.forms import BinaryForm, UnimodularMatrix2, evaluate, sl2_act
from pencilorbits import rings
from pencilorbits.numutil import det
from pencilorbits.orbits import (
    CurvePoint,
    SymmetricPair,
    construction_ideal,
    gl_act,
    invariant_form,
    pair_from_ideal,
    pair_from_point,
    sl2_act_on_pair,
    template_pair,
    transported_construction_class,
    verify_pair_data,
    x_minus_T,
)
from conftest import invariant_form_interpolation_oracle, random_form_with_point, random_sl2, random_unimodular, scaled_ideal


def test_invariant_form_examples():
    v = SymmetricPair(((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    assert invariant_form(v).coeffs == (1, 0, 1)
    A = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    Z = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    assert invariant_form(SymmetricPair(A, Z)).coeffs == (1, 0, 0, 0, 0)


def random_symmetric(n, rng, rank=None):
    """Random symmetric integer matrix; with a rank < n, a signed sum of that
    many rank-one matrices, hence singular."""
    if rank is None:
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        return tuple(tuple(M[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
    signs = [rng.choice((-1, 1)) for _ in range(rank)]
    return tuple(tuple(sum(s * u[i] * u[j] for s, u in zip(signs, vecs)) for j in range(n)) for i in range(n))


def test_invariant_form_matches_determinant_on_random_pairs(rng):
    for n in range(2, 11, 2):
        for trial in range(6):
            A = random_symmetric(n, rng, rank=n - 1 if trial == 1 else None)
            B = random_symmetric(n, rng, rank=n // 2 if trial == 2 else None)
            v = SymmetricPair(A, B)
            f = invariant_form(v)
            sign = (-1) ** (n // 2)
            points = [(1, 0), (0, 1)] + [(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            for x, y in points:
                M = [[A[i][j] * x - B[i][j] * y for j in range(n)] for i in range(n)]
                assert evaluate(f, x, y) == sign * det(M), (n, trial, x, y)
            if trial in (1, 2):
                assert f.coeffs[0 if trial == 1 else n] == 0


def _symmetric(n, entry):
    M = [[entry(i, j) for j in range(n)] for i in range(n)]
    return tuple(tuple(M[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))


def test_invariant_form_matches_interpolation_oracle(rng):
    """The Kronecker read-off against the evaluate-and-interpolate method on
    seeded pencils: entries up to 10^80, B = k A, A = 0, the zero pair,
    dense +-H pencils, and diagonal pencils: with B = 0 the leading
    coefficient reaches the bound h = prod_i (||a_i||_1 + ||b_i||_1)
    exactly, h a power of two among them; with B = -A the middle
    coefficient is C(n, n/2) h / 2^n."""
    for n in range(2, 13, 2):
        zero = _symmetric(n, lambda i, j: 0)
        cases = [(zero, zero)]
        for _ in range(2):
            bits = rng.choice((1, 8, 64, 266))  # 2^266 > 10^80
            A = _symmetric(n, lambda i, j: rng.randint(-(1 << bits), 1 << bits))
            B = _symmetric(n, lambda i, j: rng.randint(-(1 << bits), 1 << bits))
            k = rng.randint(-5, 5)
            cases += [(A, B), (A, tuple(tuple(k * x for x in r) for r in A)), (zero, B)]
            H = rng.randint(1, 10**rng.choice((1, 20, 80)))
            cases.append(tuple(_symmetric(n, lambda i, j: rng.choice((-H, H))) for _ in "AB"))
            diag = [rng.choice((-1, 1)) * rng.randint(1, 10**rng.choice((1, 80))) for _ in range(n)]
            powers = [rng.choice((-1, 1)) << rng.randint(0, 70) for _ in range(n)]
            for d in (diag, powers):
                D = _symmetric(n, lambda i, j: d[i] if i == j else 0)
                cases += [(D, zero), (D, tuple(tuple(-x for x in r) for r in D))]  # prod(d) t^n, prod(d) (t + 1)^n
        for A, B in cases:
            f = invariant_form(SymmetricPair(A, B))
            assert f.coeffs == invariant_form_interpolation_oracle(A, B), (n, A, B)
            if not any(any(r) for r in B) and all(A[i][j] == 0 for i in range(n) for j in range(n) if i != j):
                h = math.prod(abs(A[i][i]) for i in range(n))
                assert abs(f.coeffs[0]) == h


def test_templates_pinned_to_printed_matrices():
    f = BinaryForm((3, 7, 4))
    v = template_pair(f, 2)
    assert v.A == ((-1, 0), (0, 3))
    assert v.B == ((0, 2), (2, -7))
    f4 = BinaryForm((2, 3, -1, 5, 9))
    v4 = template_pair(f4, 3)
    assert v4.A == ((-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 3), (0, 1, 3, -1))
    assert v4.B == ((0, 0, 0, 3), (0, 0, 1, 0), (0, 1, 3, 0), (3, 0, 0, -5))
    f6 = BinaryForm((1, 2, 3, 4, 5, 6, 4))
    v6 = template_pair(f6, 2)
    assert v6.A == (
        (-1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 2, 3),
        (0, 0, 1, 2, 3, 4),
        (0, 1, 0, 3, 4, 5),
    )
    assert v6.B == (
        (0, 0, 0, 0, 0, 2),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 1, 2, 3, 0),
        (0, 1, 0, 3, 4, 0),
        (2, 0, 0, 0, 0, -6),
    )
    for v_, f_ in ((v, f), (v4, f4), (v6, f6)):
        assert invariant_form(v_) == f_


def test_gl_act(rng):
    f, c = random_form_with_point(4, rng)
    v = pair_from_point(f, CurvePoint(0, 1, c))
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert gl_act(ident, v) == v
    flip = [[int(i == j) * (-1 if i == 3 else 1) for j in range(4)] for i in range(4)]
    assert invariant_form(gl_act(flip, v)) == f
    for _ in range(10):
        g = random_unimodular(4, rng)
        assert invariant_form(gl_act(g, v)) == f
    with pytest.raises(ValueError):
        gl_act([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], v)


def test_sl2_compatibility(rng):
    for n in (2, 4):
        for _ in range(25):
            f, c = random_form_with_point(n, rng)
            v = pair_from_point(f, CurvePoint(0, 1, c))
            delta = random_sl2(rng)
            lhs = invariant_form(sl2_act_on_pair(delta, v))
            rhs = sl2_act(delta, invariant_form(v))
            assert lhs == rhs
    # identity and the quarter turn
    f, c = random_form_with_point(4, rng)
    v = pair_from_point(f, CurvePoint(0, 1, c))
    assert sl2_act_on_pair(UnimodularMatrix2(1, 0, 0, 1), v) == v
    quarter = UnimodularMatrix2(0, 1, -1, 0)
    assert invariant_form(sl2_act_on_pair(quarter, v)) == sl2_act(quarter, f)


def test_pair_from_point_determinant_identity(rng):
    for n in (2, 4, 6, 8, 10):
        for _ in range(8):
            f, c = random_form_with_point(n, rng)
            v = pair_from_point(f, CurvePoint(0, 1, c))
            assert invariant_form(v) == f


def test_pair_from_point_transported(rng):
    for n in (2, 4, 6):
        for _ in range(10):
            f, c = random_form_with_point(n, rng)
            g = random_sl2(rng)
            fp = sl2_act(g, f)
            P = CurvePoint(-g.c, g.a, c)  # (0, 1) * g^-1
            assert P.on_curve(fp)
            v = pair_from_point(fp, P)
            assert invariant_form(v) == fp


def test_pair_from_point_rejects_bad_points():
    f = BinaryForm((1, 0, 0, 0, 4))
    with pytest.raises(ValueError):
        pair_from_point(f, CurvePoint(0, 1, 3))
    with pytest.raises(ValueError):
        CurvePoint(2, 4, 1)


def test_bezout_well_definedness(rng):
    # different Bezout pairs for the same point give the same invariant form
    # and square classes that agree
    for _ in range(6):
        f, c = random_form_with_point(4, rng)
        g = random_sl2(rng)
        fp = sl2_act(g, f)
        P = CurvePoint(-g.c, g.a, c)
        from pencilorbits.orbits import _bezout

        r, s = _bezout(P.x0, P.y0)
        for t in (1, -2):
            r2, s2 = r + t * P.y0, s - t * P.x0
            assert r2 * P.x0 + s2 * P.y0 == 1
            gamma = UnimodularMatrix2(s2, -r2, P.x0, P.y0)
            v2 = sl2_act_on_pair(gamma.inverse(), template_pair(sl2_act(gamma, fp), c))
            assert invariant_form(v2) == fp


def test_construction_ideal_and_pair_from_ideal(rng):
    for n in (2, 4, 6):
        for _ in range(6):
            f, c = random_form_with_point(n, rng, nonzero_lead=True)
            I, alpha = construction_ideal(f, c)
            ok, diag = verify_pair_data(I, alpha)
            assert ok, diag
            v = pair_from_ideal(I, alpha)
            assert invariant_form(v) == f
            # norm relation from the construction: N(I)^2 = (c/f0^((n-2)/2))^2
            from fractions import Fraction

            nI = rings.ideal_norm(I)
            assert nI**2 == Fraction(c**2, f.coeffs[0] ** (n - 2))


def test_construction_ideal_basis(rng):
    # (c, theta, ..., theta^((n-2)/2), zeta_(n/2), ..., zeta_(n-1)), alpha = theta
    for n in (2, 4, 6, 8, 10):
        f, c = random_form_with_point(n, rng, nonzero_lead=True)
        I, alpha = construction_ideal(f, c)
        theta = rings.element_theta(f)
        powers = [rings.element_one(f)]
        for _ in range((n - 2) // 2):
            powers.append(rings.algebra_mul(powers[-1], theta))
        want = [powers[0] * c, *powers[1:]] + [rings.zeta_element(f, j) for j in range(n // 2, n)]
        assert I.basis == tuple(want) and alpha == theta
    with pytest.raises(ValueError):
        construction_ideal(BinaryForm((0, 3, 4)), 2)  # f0 = 0 would make zeta_1 = f0 theta zero


def test_pair_data_expansions_match_one_solve_per_product(rng):
    # _pair_data solves every product from one elimination; the reference
    # converts the target basis and solves afresh for each product
    from pencilorbits.numutil import solve
    from pencilorbits.orbits import _pair_data, _target_module_basis

    for n in (2, 4, 6, 8, 10):
        f, c = random_form_with_point(n, rng, nonzero_lead=True)
        I, alpha = construction_ideal(f, c)
        cols = list(zip(*(rings.to_zeta_coords(b) for b in _target_module_basis(f))))
        alpha_inv = alpha.inverse()
        want = {}
        for i in range(n):
            for j in range(i, n):
                prod = rings.algebra_mul(rings.algebra_mul(I.basis[i], I.basis[j]), alpha_inv)
                want[i, j] = tuple(solve(cols, rings.to_zeta_coords(prod)))
        diagnostics, expansions = _pair_data(I, alpha)
        assert diagnostics == [] and expansions == want
        assert invariant_form(pair_from_ideal(I, alpha)) == f


def test_pair_data_scaling_equivalence(rng):
    # (I, alpha) -> (kappa I, kappa^2 alpha) for rational kappa, a unimodular
    # change of I's basis and alpha -> -alpha all leave b_i b_j / alpha
    # integral and the invariant form unchanged; A is the zeta_(n-1) slot
    # and B the zeta_(n-2) slot of every expansion
    from fractions import Fraction

    from pencilorbits.orbits import _pair_data

    for n in (2, 4, 6, 8):
        for trial in range(8):
            f, c = random_form_with_point(n, rng, nonzero_lead=True)
            I, alpha = construction_ideal(f, c)
            kappa = rings.linear_element(f, rng.randint(1, 3), rng.randint(-3, 3)) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
            if rings.algebra_norm(kappa) == 0:
                continue
            I = scaled_ideal(I, kappa)
            alpha = rings.algebra_mul(rings.algebra_mul(kappa, kappa), alpha)
            if trial % 2:
                zero = rings.AlgebraElement(f, (0,) * n)
                I = rings.BasedIdeal(f, tuple(sum((b * u for u, b in zip(row, I.basis)), zero) for row in random_unimodular(n, rng)))
                alpha = -alpha
            ok, diag = verify_pair_data(I, alpha)
            assert ok, diag
            v = pair_from_ideal(I, alpha)
            assert invariant_form(v) == f
            _, expansions = _pair_data(I, alpha)
            for (i, j), coords in expansions.items():
                assert v.A[i][j] == coords[n - 1] and v.B[i][j] == coords[n - 2]


def test_verify_pair_data_mutation(rng):
    f, c = random_form_with_point(4, rng, nonzero_lead=True)
    I, alpha = construction_ideal(f, c)
    # perturb one basis vector off the ideal
    from fractions import Fraction

    bad = list(I.basis)
    bad[2] = bad[2] + rings.AlgebraElement(f, (0, 0, 0, Fraction(1, 3)))
    ok, diag = verify_pair_data(rings.BasedIdeal(f, tuple(bad)), alpha)
    assert not ok and diag


def test_x_minus_T(rng):
    f, c = random_form_with_point(4, rng, nonzero_lead=True)
    el = x_minus_T(f, CurvePoint(0, 1, c))
    assert el == rings.element_theta(f)
    assert rings.algebra_norm(el) * f.coeffs[0] == c * c
    g = random_sl2(rng)
    fp = sl2_act(g, f)
    P = CurvePoint(-g.c, g.a, c)
    el2 = x_minus_T(fp, P)
    assert rings.algebra_norm(el2) * fp.coeffs[0] == c * c
    with pytest.raises(ValueError):
        x_minus_T(fp, CurvePoint(P.x0, P.y0, 0))


def test_x_minus_T_scaled_point():
    # (r x0, r y0, r^(n/2) z0) multiplies the class representative by r
    # (projectively the same point; here r = 1 trivially holds, so check the
    # formula shape instead on (x0, y0) vs scaled coordinates)
    f = BinaryForm((1, 0, 0, 0, 4))
    P = CurvePoint(0, 1, 2)
    el = x_minus_T(f, P)
    assert el == rings.element_theta(f)


def test_transported_class_agrees_with_x_minus_T(rng):
    for n in (2, 4, 6):
        for _ in range(4):
            f, c = random_form_with_point(n, rng, nonzero_lead=True)
            g = random_sl2(rng)
            fp = sl2_act(g, f)
            if fp.coeffs[0] == 0:
                continue
            P = CurvePoint(-g.c, g.a, c)
            el = x_minus_T(fp, P)
            beta = transported_construction_class(fp, P)
            verdict = rings.same_square_class(el, beta, trials=10)
            assert verdict != rings.SquareClassVerdict.DISTINCT


def test_symmetric_pair_entries_are_integers():
    # numpy integers pass and are stored as int; floats, strings and
    # booleans are rejected
    import numpy as np

    v = SymmetricPair(tuple(map(tuple, np.array([[0, 1], [1, 0]]))), ((-1, 0), (0, np.int64(1))))
    assert v == SymmetricPair(((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    assert all(type(x) is int for M in (v.A, v.B) for row in M for x in row)
    for bad in (1.5, 1.0, "x", None):
        with pytest.raises(TypeError):
            SymmetricPair(((bad,),), ((1,),))
    # bool is an int subclass that operator.index would take as 0 or 1
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="integers"):
            SymmetricPair(((1,),), ((bad,),))
    # a tuple of tuples of ints is kept as it is, but a bool among ints is not an int
    A = ((0, 1), (1, 0))
    assert SymmetricPair(A, A).A is A
    with pytest.raises(ValueError, match="integers"):
        SymmetricPair(A, ((0, True), (True, 0)))


def test_symmetric_pair_shape_checks():
    I2 = ((1, 0), (0, 1))
    for bad in (((1, 0), (0,)), ((1, 0, 0), (0, 1, 0)), ((1, 2),)):
        with pytest.raises(ValueError, match="square"):
            SymmetricPair(bad, I2)
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricPair(I2, ((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="equal size"):
        SymmetricPair(I2, ((1,),))
    assert SymmetricPair((), ()).n == 0


def test_x_minus_T_needs_nonzero_f0():
    # f = x y + y^2 has f0 = 0: the pair exists, but the x - T class lives
    # in K_f, which needs f0 != 0
    f, P = BinaryForm((0, 1, 1)), CurvePoint(0, 1, 1)
    assert invariant_form(pair_from_point(f, P)) == f
    with pytest.raises(ValueError, match="f0"):
        x_minus_T(f, P)
    with pytest.raises(ValueError, match="f0"):
        transported_construction_class(f, P)


def test_pair_json_round_trip():
    # the JSON that `orbit` prints and `verify --pair` reads
    v = SymmetricPair(((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    assert SymmetricPair.from_json(json.dumps({"A": [list(r) for r in v.A], "B": [list(r) for r in v.B]})) == v


def test_verify_pair_data_trivial_monic_case():
    # (I, alpha) = (R_f, 1) at n = 2 with monic leading coefficient: the
    # containment collapses to R_f^2 inside I_f^(-1) = R_f and both norms are 1
    f = BinaryForm((1, 3, -5))
    I = rings.ideal_power_basis(f, 0)
    ok, diag = verify_pair_data(I, rings.element_one(f))
    assert ok, diag
    # alpha must be a unit of K_f: 0, and theta - 1 where f = (x - y)(x + y)
    g = BinaryForm((1, 0, -1))
    for h, alpha in ((f, rings.element_one(f) * 0), (g, rings.linear_element(g, 1, -1))):
        with pytest.raises(ZeroDivisionError):
            verify_pair_data(rings.ideal_power_basis(h, 0), alpha)


def test_x_minus_T_one_one_point():
    # (1, 1, c) maps to theta - 1
    f = BinaryForm((1, 2, -3, 1, 8 * 8 - 1))   # f(1,1) = 1+2-3+1+63 = 64
    P = CurvePoint(1, 1, 8)
    assert P.on_curve(f)
    el = x_minus_T(f, P)
    assert el == rings.linear_element(f, 1, -1)
