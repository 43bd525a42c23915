import random

import pytest

from pencilorbits.forms import BinaryForm, UnimodularMatrix2, discriminant, evaluate, random_nondegenerate_form
from pencilorbits.search import DescentBudgetError

random_nondegenerate = random_nondegenerate_form  # the library's sampler, under the tests' name


def random_form_with_point(n: int, rng: random.Random, cmax: int = 5, nonzero_lead: bool = False):
    """(f, c) with f_n = c^2 and Disc != 0: the point (0, 1, c) lies on f."""
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(n)]
        c = rng.randint(1, cmax)
        f = BinaryForm(tuple(coeffs + [c * c]))
        if nonzero_lead and coeffs[0] == 0:
            continue
        if discriminant(f) != 0:
            return f, c


def random_sl2(rng: random.Random, size: int = 3) -> UnimodularMatrix2:
    g = UnimodularMatrix2(1, 0, 0, 1)
    for _ in range(3):
        g = g @ UnimodularMatrix2(1, rng.randint(-size, size), 0, 1)
        g = g @ UnimodularMatrix2(1, 0, rng.randint(-size, size), 1)
    return g


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def soluble_by_exhaustion(f: BinaryForm, p: int, start_level: int = 3, max_level: int = 24) -> bool:
    """Independent oracle for locally_soluble_p: flat enumeration of the
    residue classes of P^1(Z/p^k) starting at k = start_level.

    A class {x = x0 + p^k s, y = 1} (or {x = 1, y = y0 + p^k s} on the
    infinity side) has all values congruent to v = f(x0, y0) mod p^k, so it
    is decided once v_p(v) <= k - 1 (k - 3 at p = 2): soluble iff the
    valuation is even and the unit part is a square.  Undecided classes are
    re-enumerated one level deeper."""
    need = 3 if p == 2 else 1
    k = start_level
    pending = [(a, 1, True) for a in range(p**k)]
    pending += [(1, b * p, False) for b in range(p ** (k - 1))]
    while pending:
        if k > max_level:
            raise DescentBudgetError("exhaustive oracle exceeded its depth cap")
        nxt = []
        for x0, y0, affine in pending:
            v = evaluate(f, x0, y0)
            if v == 0:
                return True
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if e + need <= k:
                if e % 2 == 0 and _unit_is_square(v, p, need):
                    return True
                continue
            for s in range(p):
                if affine:
                    nxt.append((x0 + s * p**k, 1, True))
                else:
                    nxt.append((1, y0 + s * p**k, False))
        pending = nxt
        k += 1
    return False


def _unit_is_square(u: int, p: int, need: int) -> bool:
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1
