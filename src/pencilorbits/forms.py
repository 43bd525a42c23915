"""Integral binary n-ic forms: invariants, SL2(Z) action, real and mod-p root
statistics, and seeded random sampling."""

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import gfpoly, intpoly


class ZeroFormError(ValueError):
    """Raised when a reduction mod p is identically zero."""


@dataclass(frozen=True)
class BinaryForm:
    """A binary form f0*x^n + f1*x^(n-1)*y + ... + fn*y^n with integer
    coefficients and even degree n >= 2."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3 or (len(self.coeffs) - 1) % 2 != 0:
            raise ValueError("need n+1 coefficients with n even and >= 2")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def genus(self) -> int:
        return self.degree // 2 - 1

    @cached_property
    def disc(self) -> int:
        """Disc(f) (see `discriminant`), computed once per form."""
        return discriminant(self)

    def univariate(self) -> list[int]:
        """f(x, 1) as a descending coefficient list (not stripped)."""
        return list(self.coeffs)

    def __str__(self):
        n = self.degree

        def power(sym, k):
            return "" if k == 0 else (sym if k == 1 else f"{sym}^{k}")

        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "*".join(t for t in (power("x", n - i), power("y", i)) if t)
            terms.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class UnimodularMatrix2:
    """An element of SL2(Z): rows (a, b), (c, d) with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def inverse(self) -> "UnimodularMatrix2":
        return UnimodularMatrix2(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "UnimodularMatrix2") -> "UnimodularMatrix2":
        return UnimodularMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


@dataclass(frozen=True)
class FactorizationType:
    """Multiset of (degree, multiplicity) pairs of the distinct irreducible
    binary factors of f over F_p; m is the number of distinct factors."""

    parts: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.parts)


def evaluate(f: BinaryForm, x: int, y: int) -> int:
    return intpoly.evaluate_binary(list(f.coeffs), x, y)


def height(f: BinaryForm) -> int:
    return max(abs(c) for c in f.coeffs)


def discriminant(f: BinaryForm) -> int:
    """Disc(f), normalized so n = 2 gives f1^2 - 4*f0*f2.

    Write f = y^v g(x, y) with g0 != 0 and d = n - v.  Then
    Disc(g) = (-1)^(d(d-1)/2) * Res(g(x,1), g'(x,1)) / g0, and Disc(f) is
    Disc(g) for v = 0, Res(y, g)^2 Disc(g) = g0^2 Disc(g) for v = 1 (Disc is
    multiplicative), and 0 for v >= 2, where y^2 divides f (the zero form
    included).
    """
    g = intpoly.strip(f.univariate())
    d = len(g) - 1
    v = f.degree - d
    if v >= 2:
        return 0
    res = intpoly.resultant(g, intpoly.derivative(g))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    disc, rem = divmod(sign * res, g[0])
    if rem:
        raise ArithmeticError("resultant is not divisible by the leading coefficient")
    return disc * g[0] ** (2 * v)


def sl2_act(g: UnimodularMatrix2, f: BinaryForm) -> BinaryForm:
    """f'(x, y) = f((x, y) * g) = f(a*x + c*y, b*x + d*y), by homogeneous
    Horner: F_0 = f_0 and F_i = F_(i-1) * (a*x + c*y) + f_i * (b*x + d*y)^i,
    each form as coefficients by ascending power of y."""
    F, P = [f.coeffs[0]], [1]
    for fi in f.coeffs[1:]:
        P = [g.b * p + g.d * q for p, q in zip(P + [0], [0] + P)]
        F = [g.a * s + g.c * t + fi * w for s, t, w in zip(F + [0], [0] + F, P)]
    return BinaryForm(tuple(F))


def real_root_count(f: BinaryForm) -> int:
    """Number of roots of f in P^1(R); a simple root at (1:0) is counted when
    f0 = 0.  Exact (a Sylvester query on f(x, 1)); requires Disc(f) != 0."""
    coeffs = intpoly.strip(f.univariate())
    if not coeffs:
        raise ValueError("zero form")
    at_infinity = 1 if f.coeffs[0] == 0 else 0
    if f.coeffs[0] == 0 and f.coeffs[1] == 0:
        raise ValueError("degenerate form: multiple root at infinity")
    if len(coeffs) == 1:
        return at_infinity
    count = intpoly.real_root_count_squarefree(coeffs)
    if count is None:
        raise ValueError("degenerate form: Disc(f) = 0")
    return count + at_infinity


def factorization_type_mod_p(f: BinaryForm, p: int) -> FactorizationType:
    """Factorization type of f over F_p as a binary form: the factor y^v with
    v = n - deg(f(x,1) mod p) accounts for leading-coefficient vanishing."""
    reduced = gfpoly.normalize(f.univariate(), p)
    if not reduced:
        raise ZeroFormError(f"form vanishes identically mod {p}")
    parts = gfpoly.factor_degrees(reduced, p)
    v = f.degree - (len(reduced) - 1)
    if v > 0:
        parts.append((1, v))
    return FactorizationType(tuple(sorted(parts)))


def is_separable_mod_p(f: BinaryForm, p: int) -> bool:
    """True when f mod p is a nonzero binary form with n distinct projective
    roots (including multiplicity at (1:0))."""
    return _separable_mod_p(tuple(c % p for c in f.coeffs), p)


@lru_cache(maxsize=1024)
def _separable_mod_p(fc: tuple[int, ...], p: int) -> bool:
    """is_separable_mod_p for the coefficients fc reduced mod p, cached so
    that a caller's check and the prediction that repeats it share the work."""
    reduced = gfpoly.normalize(list(fc), p)
    if not reduced:
        return False
    v = len(fc) - len(reduced)
    if v > 1:
        return False
    if len(reduced) == 1:
        return True
    d = gfpoly.gf_gcd(reduced, gfpoly.gf_derivative(reduced, p), p)
    return len(d) - 1 == 0


def separable_factor_count_mod_p(f: BinaryForm, p: int) -> int:
    """m, the number of irreducible factors of f over F_p, for f separable
    mod p, which the caller checks (is_separable_mod_p).  Then f(x, 1) mod p
    is squarefree, so one distinct-degree factorization counts its factors,
    and y divides f at most once (v = n - deg <= 1): the squarefree case of
    factorization_type_mod_p, without its squarefree decomposition."""
    reduced = gfpoly.normalize(f.univariate(), p)
    m = sum((len(g) - 1) // d for d, g in gfpoly.distinct_degree_factorization(gfpoly.gf_monic(reduced, p), p))
    return m + f.degree - (len(reduced) - 1)


def random_nondegenerate_form(n: int, X: int, rng: random.Random) -> BinaryForm:
    """Resample until Disc != 0 (the degenerate locus has tiny mass)."""
    if X < 1:
        raise ValueError("need X >= 1: height 0 admits only the zero form")
    while True:
        f = BinaryForm(tuple(rng.randint(-X, X) for _ in range(n + 1)))
        if any(f.coeffs) and f.disc != 0:
            return f
