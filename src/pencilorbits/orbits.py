"""Pairs of integral symmetric matrices: invariant binary form, group
actions, the point-to-pair construction, the ideal-to-pair map, and the
x - T square-class map."""

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, prod

import numpy as np

from . import rings
from .forms import BinaryForm, UnimodularMatrix2, evaluate, sl2_act
from .numutil import det
from .rings import AlgebraElement, BasedIdeal


@dataclass(frozen=True)
class SymmetricPair:
    """(A, B): two symmetric n x n integer matrices."""

    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name in ("A", "B"):
            M = getattr(self, name)
            # a tuple of tuples of exact ints is kept as it is (type(True) is bool)
            if type(M) is not tuple or {*map(type, M)} - {tuple} or {*map(type, chain.from_iterable(M))} - {int}:
                M = tuple(tuple(map(_integer_entry, row)) for row in M)
                object.__setattr__(self, name, M)
            if not set(map(len, M)) <= {len(M)}:
                raise ValueError("matrices must be square")
            if M != tuple(zip(*M)):
                raise ValueError("matrices must be symmetric")
        if len(self.A) != len(self.B):
            raise ValueError("matrices must have equal size")

    @property
    def n(self) -> int:
        return len(self.A)

    @classmethod
    def from_json(cls, s: str) -> "SymmetricPair":
        d = json.loads(s)
        return cls(tuple(tuple(r) for r in d["A"]), tuple(tuple(r) for r in d["B"]))


def _integer_entry(x) -> int:
    """x as an int: operator.index takes ints (numpy's too) and rejects
    floats and strings (TypeError); booleans, which it would take as 0 and 1,
    are rejected here (ValueError)."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"matrix entries must be integers, got {x!r}")
    return operator.index(x)


@dataclass(frozen=True)
class CurvePoint:
    """Integral point (x0, y0, z0) with gcd(x0, y0) = 1 and z0^2 = f(x0, y0);
    the curve constraint is checked against a form at use sites."""

    x0: int
    y0: int
    z0: int

    def __post_init__(self):
        if gcd(self.x0, self.y0) != 1:
            raise ValueError("x0, y0 must be coprime")

    def on_curve(self, f: BinaryForm) -> bool:
        return self.z0**2 == evaluate(f, self.x0, self.y0)


def invariant_form(v: SymmetricPair) -> BinaryForm:
    """f_v(x, y) = (-1)^(n/2) det(A x - B y), by Kronecker substitution.
    p(t) = det(A t - B) lies in Z[t], det being an integer polynomial in the
    entries.  Let h = prod_i (|a_i|_1 + |b_i|_1) over the rows of A and B.
    On |z| = 1 row i of A z - B has 2-norm at most |a_i|_1 + |b_i|_1, so
    |p(z)| <= h (Hadamard), and so is each coefficient, the mean of p(z) z^-k
    over |z| = 1 (Cauchy).  With 2^(s-1) > h the coefficients are the
    balanced base-2^s digits of p(2^s) = det(A 2^s - B).  That determinant
    has s-bit entries, so dense pencils with large entries are slower than
    with n + 1 small determinants: 20-bit ones from n = 12 on (4x at n = 20,
    9x at n = 30), and pairs pulled back from points far from (0, 1) from
    about n = 20 on; templates at (0, 1, c) gain at every n (20x at n = 40)."""
    h = prod(sum(map(abs, a)) + sum(map(abs, b)) for a, b in zip(v.A, v.B))
    s = h.bit_length() + 1
    D = det([[(x << s) - y for x, y in zip(a, b)] for a, b in zip(v.A, v.B)])
    half, coeffs = 1 << (s - 1), []  # coeffs[k] multiplies t^k
    for _ in range(v.n + 1):
        coeffs.append(((D + half) & (2 * half - 1)) - half)
        D = (D - coeffs[-1]) >> s
    sign = -1 if (v.n // 2) % 2 else 1  # det(Ax - By) = sum_k coeffs[k] x^k y^(n-k)
    return BinaryForm(tuple(sign * c for c in reversed(coeffs)))


def gl_act(g: list[list[int]], v: SymmetricPair) -> SymmetricPair:
    """(g A g^t, g B g^t) for g with determinant +-1."""
    d = det(g)
    if d not in (1, -1):
        raise ValueError("matrix must be unimodular (det +-1)")
    A = _congruence(g, v.A)
    B = _congruence(g, v.B)
    return SymmetricPair(A, B)


def _congruence(g, M):
    n = len(M)
    gM = [[sum(g[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    out = [[sum(gM[i][k] * g[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in out)


def sl2_act_on_pair(delta: UnimodularMatrix2, v: SymmetricPair) -> SymmetricPair:
    """The pencil-slot action compatible with sl2_act on the invariant form:
    A' = a A - b B, B' = d B - c A for delta = (a b; c d)."""
    a, b, c, d = delta.a, delta.b, delta.c, delta.d
    n = v.n
    A = tuple(tuple(a * v.A[i][j] - b * v.B[i][j] for j in range(n)) for i in range(n))
    B = tuple(tuple(d * v.B[i][j] - c * v.A[i][j] for j in range(n)) for i in range(n))
    return SymmetricPair(A, B)


def template_pair(f: BinaryForm, c: int) -> SymmetricPair:
    """The explicit pair for the point (0, 1, c) on z^2 = f(x, y), which
    requires f_n = c^2.  Block pattern: corner -1 / c entries, anti-diagonal
    1 blocks, and a Hankel band of the coefficients."""
    n = f.degree
    if f.coeffs[n] != c * c:
        raise ValueError("template requires f_n = c^2")
    fc = f.coeffs
    A = [[0] * n for _ in range(n)]
    B = [[0] * n for _ in range(n)]
    A[0][0] = -1
    for i in range(1, n // 2):
        A[i][n - i] = A[n - i][i] = 1
    for i in range(n // 2, n):
        for j in range(n // 2, n):
            A[i][j] = fc[i + j - n]
    B[0][n - 1] = B[n - 1][0] = c
    B[n - 1][n - 1] = -fc[n - 1]
    for i in range(1, n // 2):
        B[i][n - 1 - i] = B[n - 1 - i][i] = 1
    for i in range(n // 2, n - 1):
        for j in range(n // 2, n - 1):
            B[i][j] = fc[i + j - n + 1]
    return SymmetricPair(tuple(tuple(r) for r in A), tuple(tuple(r) for r in B))


def pair_from_point(f: BinaryForm, P: CurvePoint) -> SymmetricPair:
    """Integral pair with invariant form exactly f, from a point on
    z^2 = f(x, y): move the point to (0, 1) by gamma in SL2(Z), instantiate
    the template there, and pull back through the pencil action.

    The determinant identity is checked on the sparse template pair v, whose
    form must be f' = gamma.f, and not on the dense pulled-back pair: for
    delta = (a b; c d), sl2_act_on_pair gives A'x - B'y = A(ax + cy) - B(bx + dy),
    so f_(delta.v)(x, y) = f_v(ax + cy, bx + dy) = (delta.f_v)(x, y), a
    polynomial identity.  With delta = gamma^-1 the result has invariant form
    gamma^-1.(gamma.f) = f exactly when f_v = f'."""
    if f.disc == 0:
        raise ValueError("Disc(f) = 0")
    if not P.on_curve(f):
        raise ValueError("point does not lie on z^2 = f(x, y)")
    x0, y0 = P.x0, P.y0
    r, s = _bezout(x0, y0)
    gamma = UnimodularMatrix2(s, -r, x0, y0)
    fprime = sl2_act(gamma, f)
    v = template_pair(fprime, P.z0)
    if invariant_form(v) != fprime:
        raise ArithmeticError("constructed pair does not have invariant form f")
    return sl2_act_on_pair(gamma.inverse(), v)


def _bezout(x0: int, y0: int) -> tuple[int, int]:
    """(r, s) with r*x0 + s*y0 = 1."""
    old_r, rr = x0, y0
    old_s, ss = 1, 0
    old_t, tt = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, ss = ss, old_s - q * ss
        old_t, tt = tt, old_t - q * tt
    return old_r * old_s, old_r * old_t  # old_r = +-1, CurvePoint having gcd(x0, y0) = 1


def construction_ideal(f: BinaryForm, c: int) -> tuple[BasedIdeal, AlgebraElement]:
    """The pair (I, alpha) attached to the point (0, 1, c): alpha = theta and
    I = <c, theta * I_f^((n-4)/2)>, with the graded basis
    (c, theta, ..., theta^((n-2)/2), zeta_(n/2), ..., zeta_(n-1)): that of
    I_f((n-2)/2) with its leading 1 replaced by c, so (c, zeta_1) at n = 2."""
    n = f.degree
    if f.coeffs[n] != c * c:
        raise ValueError("construction requires f_n = c^2")
    if c == 0:
        raise ValueError("Weierstrass point: the ideal construction needs c != 0")
    basis = list(rings.ideal_power_basis(f, (n - 2) // 2).basis)
    basis[0] = rings.element_one(f) * c
    return BasedIdeal(f, tuple(basis)), rings.element_theta(f)


def _target_module_basis(f: BinaryForm) -> list[AlgebraElement]:
    """Natural graded basis of I_f^(n-3): (1, theta, ..., theta^(n-3),
    zeta_(n-2), zeta_(n-1)) for n >= 4, and the xi-basis of I_f^(-1) for
    n = 2.  The last two slots carry zeta_(n-1) and zeta_(n-2)."""
    n = f.degree
    if n == 2:
        return list(rings.ideal_inverse_power(f).basis)
    return list(rings.ideal_power_basis(f, n - 3).basis)


def _pair_data(I: BasedIdeal, alpha: AlgebraElement) -> tuple[list[str], dict]:
    """(diagnostics, expansions): the failed pair-data conditions, and the
    coordinates of b_i b_j / alpha on the natural I_f^(n-3) basis (t_k) keyed
    by (i, j) with i <= j (empty when Disc(f) = 0), solved as those of b_i b_j
    on (alpha t_k), which needs no inverse of alpha."""
    f = I.form
    n = f.degree
    if f.disc == 0:
        return ["Disc(f) = 0"], {}
    nalpha = rings.algebra_norm(alpha)
    if nalpha == 0:
        raise ZeroDivisionError("alpha is a zero divisor")
    target = BasedIdeal(f, tuple(rings.algebra_mul(alpha, t) for t in _target_module_basis(f)))
    diagnostics: list[str] = []
    keys = [(i, j) for i in range(len(I.basis)) for j in range(i, n)]
    prods = [rings.algebra_mul(I.basis[i], I.basis[j]) for i, j in keys]
    expansions = dict(zip(keys, rings.expansions_in_basis(target, prods)))
    for (i, j), coords in expansions.items():
        if any(c.denominator != 1 for c in coords):
            diagnostics.append(f"b_{i} b_{j} / alpha is not integral on the I_f^(n-3) basis")
    nI = rings.ideal_norm(I)
    ntarget = Fraction(1, f.coeffs[0] ** (n - 3)) if n >= 4 else Fraction(f.coeffs[0])
    ntarget = abs(ntarget)
    if nI**2 != abs(nalpha) * ntarget:
        diagnostics.append(f"norm equation fails: N(I)^2 = {nI**2}, |N(alpha) N(I^(n-3))| = {abs(nalpha) * ntarget}")
    return diagnostics, expansions


def verify_pair_data(I: BasedIdeal, alpha: AlgebraElement) -> tuple[bool, list[str]]:
    """Check the pair-data conditions: I^2 inside alpha*I_f^(n-3) (every
    b_i b_j / alpha integral on the natural basis) and the norm equation
    N(I)^2 = N(alpha) N(I_f^(n-3)) up to sign."""
    diagnostics, _ = _pair_data(I, alpha)
    return not diagnostics, diagnostics


def pair_from_ideal(I: BasedIdeal, alpha: AlgebraElement) -> SymmetricPair:
    """Symmetric pair from valid pair data: expand b_i b_j / alpha on the
    natural I_f^(n-3) basis; A holds the zeta_(n-1) coefficients and B the
    zeta_(n-2) coefficients.  The determinant identity f_(A, B) = f is
    checked once (ArithmeticError if it fails)."""
    f = I.form
    n = f.degree
    diagnostics, expansions = _pair_data(I, alpha)
    if diagnostics:
        raise ValueError("invalid pair data: " + "; ".join(diagnostics))
    A = [[0] * n for _ in range(n)]
    B = [[0] * n for _ in range(n)]
    for (i, j), coords in expansions.items():
        A[i][j] = A[j][i] = int(coords[n - 1])
        B[i][j] = B[j][i] = int(coords[n - 2])
    v = SymmetricPair(tuple(map(tuple, A)), tuple(map(tuple, B)))
    if invariant_form(v) != f:
        raise ArithmeticError("the zeta_(n-1), zeta_(n-2) coefficient matrices do not satisfy the determinant identity")
    return v


def x_minus_T(f: BinaryForm, P: CurvePoint) -> AlgebraElement:
    """The square-class representative y0*theta - x0 attached to a point;
    N(y0 theta - x0) * f0 = z0^2.  Weierstrass points (z0 = 0) are rejected."""
    if P.z0 == 0:
        raise ValueError("Weierstrass point: the x - T class is not defined here")
    if not P.on_curve(f):
        raise ValueError("point does not lie on z^2 = f(x, y)")
    return rings.linear_element(f, P.y0, -P.x0)


def transported_construction_class(f: BinaryForm, P: CurvePoint) -> AlgebraElement:
    """The class of the construction data for P, transported back to K_f:
    theta' = (y0 theta - x0)/(r theta + s) followed by the module
    identification multiplies the class by (r theta + s)^-(n-3), giving
    (y0 theta - x0) * (r theta + s)^-(n-2) exactly."""
    n = f.degree
    r, s = _bezout(P.x0, P.y0)
    # (r, s) may be shifted along (y0, -x0); pick a representative for which
    # r*theta + s is invertible (at most n shifts can fail since (x0:y0) is
    # not a root of f)
    for t in range(n + 1):
        rr, ss = r + t * P.y0, s - t * P.x0
        if evaluate(f, -ss, rr) != 0:
            break
    num = rings.linear_element(f, P.y0, -P.x0)
    den = rings.linear_element(f, rr, ss)
    acc = num
    den_inv = den.inverse()
    for _ in range(n - 2):
        acc = rings.algebra_mul(acc, den_inv)
    return acc

