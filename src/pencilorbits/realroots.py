"""Bulk exact counting of real roots for integer polynomials.

A row of a batch is counted by one float stage, a Descartes bisection in the
Vincent-Collins-Akritas scheme (Collins & Akritas, SYMSAC 1976; Rouillier &
Zimmermann, J. Comput. Appl. Math. 162, 2004) whose coefficient signs are
certified as in the bitstream Descartes method (Eigenwillig, Kettner,
Krandick, Mehlhorn, Schmitt & Wolpert, CASC 2005), or else by the exact
path: the Sylvester query `intpoly.tarski_query(row, [1])`, one integer
signed remainder sequence, which counts the distinct real roots of any row.
The stage accepts a row only with a proof that its count equals the exact
one, so the classification is exact for every row; the floats only filter.

Images.  Let p(x) = sum_k p_k x^(n-k).  A map x = (a t + b) / (c t + d) with
ad - bc = +-1, c, d >= 0 and c + d > 0 is a smooth bijection with nonzero
derivative from (0, inf) onto an open interval I, and the image
q(t) = (c t + d)^n p(x(t)) has integer coefficients and a root t > 0 of
multiplicity e exactly when p has the root x(t) in I with multiplicity e.
Its constant coefficient is d^n p(b/d) and its leading one c^n p(a/c), or
a^n p_0 when c = 0: p at the ends of I.  The stage starts from p and p(-x),
the images of (0, inf) and (-inf, 0), and splits an image q into q(t + 1)
and (t + 1)^n q(1 / (t + 1)), the images of the two halves of its interval,
by one product [T; TR] q with T the binomial Taylor-shift matrix and R
reversal; both maps keep the form above.  The first split gives the images
of (1, inf), (0, 1), (-inf, -1) and (-1, 0), at level 0; an image is split
again while its count is 2 or more, down to level `DEPTH`.

Counts.  By Descartes' rule of signs the number of positive roots of q, with
multiplicity, is V - 2j for some j >= 0, where V is the number of sign
changes between consecutive nonzero coefficients.  The stage counts sign
changes with each zero coefficient taken as negative; when both end
coefficients are nonzero this is V + 2i for some i >= 0, as zeros between
two positive coefficients add two changes and zeros anywhere else none.  So
a count of 0 or 1 is exactly V: p has no root in I, or one, a simple one.
A row is accepted when every image it reaches has nonzero end coefficients
and every image it stops at has a count of 0 or 1.  The real line is then
the disjoint union of the open intervals of those images and of their ends,
where p is nonzero, so the number of real roots of p is the sum of the
counts, each root simple.  That is the number of distinct real roots, which
the batch counts for a row that is not squarefree too: a real multiple root
would sit at an end or keep the count of its interval at 2 or more, so such
a row is never accepted.  A row with a count still 2 or more at level
`DEPTH` goes to the exact path.

Floating point.  With u = 2^-53 and gamma_m = m u / (1 - m u), the stage
carries with every computed image coefficient q_j a bound E_j on its
distance from the exact coefficient q*_j.  It is certain when |q_j| > E_j,
which gives q*_j the sign of q_j, or when E_j = 0, so q*_j = q_j; only such
exact coefficients can be certain zeros.  A row goes to the exact path when
an image has a coefficient that is not certain or not finite, or an end
coefficient that is not certainly nonzero (a root of p at 0, +-1 or at a
split point).
* Every computed coefficient is an integer, as every exact one is: a float
  product or sum of integers is exact below 2^53 and otherwise rounds to a
  float of at least 2^53, and all of those are integers.  So nothing
  underflows, and a nonzero bound is at least (n + 4) u.
* A coefficient of [T; TR] q is a sum of n + 1 terms.  The binomials of T
  are below 2^n, exact up to n = 56 and rounded once above; an input rounds
  once at 2^53 or more.  A computed sum of m products satisfies
  |fl(x^T y) - x^T y| <= gamma_m |x|^T |y| in any order of summation, with or
  without fused multiply-adds (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., section 3.1), so BLAS threading and blocking cannot
  change a verdict.  With the roundings of the input and of T, each term
  carries at most n + 3 relative roundings, and
  |fl([T; TR] q) - [T; TR] q*| <= [T; TR] E + gamma_(n+3) [T; TR] |q|.
* The bound is rounded upward.  `_images` computes [T; TR] E and
  A = [T; TR] |q| in floating point, sums of nonnegative terms, each at least
  (1 - u)^(n+3) times the value above; then E' = ([T; TR] E + g A) r with
  g = (n + 4) u >= gamma_(n+3) and r = 1 + 2 (n + 6) u, three more roundings,
  and (1 - u)^(n+6) r >= 1.
* Where [T; TR] E = 0 and A < 2^53, every term is exact and every partial
  sum of the coefficient, in any order, is an integer below 2^53 in absolute
  value, so the coefficient is exact and E'_j = 0.  A float sum of
  nonnegative integers is below 2^53 exactly when the exact sum is, so this
  test is itself exact.
* Overflow leaves a non-finite value, so the stage needs no size or degree
  guard.

Exact regime.  While every image on the frontier is exact, E is the 0-d
zero and `_images` forms only [T; TR] q and A = [T; TR] |q|: no [T; TR] E,
no error columns for new rows and no gather of them.  When A < 2^53
everywhere it returns the 0-d zero again.  This is sound: T has a unit
diagonal and nonnegative entries, so A >= |q| coefficientwise, and A < 2^53
puts every input below 2^53.  A frontier image is exact by the regime, and
a new row's coefficients are int64 values below 2^53, converted exactly
(one of 2^53 or more converts to at least 2^53).  So E = 0 and A < 2^53,
and the bullet above makes every image exact.  The first step with some
A >= 2^53 (or a non-finite A) returns the bound E' = (g A) r with E'_j = 0
where A_j < 2^53, the arrays of the general case, which the batch keeps
from then on.  Under the 0-d zero every coefficient is certain: a zero is a
certain zero, so only the end coefficients and finiteness decide `good`.
"""

import sys
from functools import lru_cache

import numpy as np

from . import intpoly

_FLOAT_EXACT = 2.0**53
_U = 2.0**-53
# a step adds CHUNK_ENTRIES / (2 (n + 1)^2) rows to the frontier, so each of
# its products has about 2^18 multiply-adds: few enough for BLAS to run it on
# one thread (spare threads only wait on a busy machine), and a batch's
# temporaries stay near a megabyte however many rows it has
CHUNK_ENTRIES = 1 << 17
# levels of splitting below the four half-lines
DEPTH = 20


def count_real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Distinct real roots for each row of an (S, n+1) integer array with
    nonzero leading column.  A row whose polynomial is not squarefree counts
    each multiple real root once."""
    counts, ok = _descartes(coeffs)
    for i in np.flatnonzero(~ok):
        counts[i] = intpoly.tarski_query([int(c) for c in coeffs[i].tolist()], [1])
    return counts


@np.errstate(over="ignore", invalid="ignore")  # overflow leaves a non-finite value
def _descartes(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, certified) for the rows of the integer array C; see the
    module docstring for the proof behind `certified`.  The frontier holds
    the images still to be split, one per column of q, from every row at
    once: each step tops it up with the two root images p and p(-x) of
    further rows, at level -1, and splits all of it."""
    S, n1 = C.shape
    M = _shift_matrix(n1 - 1)
    flip = (-1.0) ** np.arange(n1 - 1, -1, -1)[:, None]  # p(x) -> p(-x)
    step = max(1, CHUNK_ENTRIES // (2 * n1 * n1))
    counts = np.zeros(S, np.int64)
    ok = np.ones(S, bool)
    q, E = np.empty((n1, 0)), np.float64(0)  # a 0-d E: the exact regime
    rows = level = np.empty(0, np.int64)
    start = 0
    while start < S or len(rows):
        stop = min(S, start + max(0, step - len(rows) // 2))
        new, F = np.arange(start, stop), C[start:stop].T.astype(np.float64)
        start = stop
        q = np.hstack([q, F, F * flip])
        if E.ndim:
            E = np.hstack([E, np.zeros((n1, 2 * len(new)))])
        rows = np.concatenate([rows, new, new])
        level = np.concatenate([level, np.full(2 * len(new), -1)]) + 1
        Q, E = _images(q, E, M)  # (2, n1, nodes): the two halves of every node
        rows, level = np.broadcast_to(rows, Q.shape[::2]), np.broadcast_to(level, Q.shape[::2])
        sure = np.abs(Q) > E
        good = sure[:, 0] & sure[:, -1] & np.isfinite(Q).all(axis=1)
        if E.ndim:
            good &= (sure | (E == 0)).all(axis=1)
        pos = Q > 0  # a certain zero counts as negative
        V = (pos[:, 1:] != pos[:, :-1]).sum(axis=1, dtype=np.int32)
        np.add.at(counts, rows[good & (V == 1)], 1)
        go = good & (V >= 2)
        ok[rows[~good | (go & (level == DEPTH))]] = False
        go &= ok[rows]
        q, rows, level = Q.transpose(1, 0, 2)[:, go], rows[go], level[go]
        if E.ndim:
            E = E.transpose(1, 0, 2)[:, go]
    return counts, ok


def _images(q: np.ndarray, E: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, E') for the images Q of the columns of q under M, shaped
    (2, n+1, columns), with E' an upward-rounded bound on their distance from
    the exact images when E bounds that of q (module docstring).  A 0-d zero
    E says every column is exact; E' is the 0-d zero again when every image
    is (the exact regime)."""
    Q, A = ((M @ x).reshape(2, *q.shape) for x in (q, np.abs(q)))
    if E.ndim:
        EM = (M @ E).reshape(Q.shape)
        exact = (EM == 0) & (A < _FLOAT_EXACT)
    elif A.max() < _FLOAT_EXACT:
        return Q, E
    else:
        EM, exact = E, A < _FLOAT_EXACT
    n1 = len(q)
    A *= (n1 + 3) * _U  # in place, A becomes E' = (EM + g A) r
    A += EM
    A *= 1 + 2 * (n1 + 5) * _U
    A[exact] = 0.0
    return Q, A


@lru_cache(maxsize=64)
def _shift_matrix(n: int) -> np.ndarray:
    """(2n+2) x (n+1): a column q, highest coefficient first, to the columns
    of q(t + 1) and (t + 1)^n q(1 / (t + 1)), binomials correctly rounded to
    float64 (inf beyond its range, which sends every row to the exact path)."""
    T = np.zeros((n + 1, n + 1))
    row = [1]  # Pascal's row m = n - k: C(m, i) for i = 0..m
    for k in range(n, -1, -1):
        T[k:, k] = [_float(c) for c in reversed(row)]  # T[j][k] = C(n - k, n - j)
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    M = np.vstack([T, T[:, ::-1]])
    M.flags.writeable = False  # shared by every caller through the cache
    return M


def _float(c: int) -> float:
    return float(c) if c <= sys.float_info.max else np.inf
