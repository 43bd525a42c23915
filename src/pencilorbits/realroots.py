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
a^n p_0 when c = 0: p at the ends of I.  An image q is split into q(t + 1)
and (t + 1)^n q(1 / (t + 1)), the images of the two halves of its interval,
by one product [T; TR] q with T the binomial Taylor-shift matrix and R
reversal; both maps keep the form above.  A row p starts at level 0 with
the four images of (1, inf), (0, 1), (-inf, -1) and (-1, 0), the halves of
p and of p(-x) (the images of (0, inf) and (-inf, 0)), made in one product
M0 p with M0 = [T; TR; TF; TRF] and F = diag((-1)^(n-k)) the map
p(x) -> p(-x).  A row whose four counts (below) are all 0 or 1 is settled
where it stands.  Only an image with a count of 2 or more goes to the
frontier, which holds such images from every row of the batch and splits
each of them again, down to level `DEPTH`.

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
* The stage multiplies by M = [T; TR] or M0.  As F only flips signs, |M|
  is [T; TR], stacked twice for M0.  A coefficient of M q is a sum of n + 1
  terms.  The binomials of T are below 2^n, exact up to n = 56 and rounded
  once above; an input rounds once at 2^53 or more.  A computed sum of m
  products satisfies
  |fl(x^T y) - x^T y| <= gamma_m |x|^T |y| in any order of summation, with or
  without fused multiply-adds (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., section 3.1), so BLAS threading and blocking cannot
  change a verdict.  With the roundings of the input and of T, each term
  carries at most n + 3 relative roundings, and
  |fl(M q) - M q*| <= |M| E + gamma_(n+3) |M| |q|.
* The bound is rounded upward.  `_images` computes |M| E and A = |M| |q| in
  floating point, sums of nonnegative terms, each at least (1 - u)^(n+3)
  times the value above; then E' = (|M| E + g A) r with
  g = (n + 4) u >= gamma_(n+3) and r = 1 + 2 (n + 6) u, three more roundings,
  and (1 - u)^(n+6) r >= 1.
* Where |M| E = 0 and A < 2^53, every term is exact and every partial sum
  of the coefficient, in any order, is an integer below 2^53 in absolute
  value, so the coefficient is exact and E'_j = 0.  A float sum of
  nonnegative integers is below 2^53 exactly when the exact sum is, so this
  test is itself exact.
* Overflow leaves a non-finite value, so the stage needs no size or degree
  guard.

Exact regime.  A product whose input columns are all exact takes E as the
0-d zero: no |M| E, no error columns and no gather of them.  The four
level-0 images of new rows come from such a product always, as a new row's
coefficients are int64 values, converted exactly below 2^53 and rounded
once above, a rounding the bullets above already count.  The frontier's
products take the 0-d zero while every image on it is exact.
* First the R bound.  Row j of T sums to C(n + 1, n - j + 1), and the rows
  of TR are those of T reversed, so R = 2^(n+1) is at least every row sum
  of |M|.  `_images` tests fl(R max|q|) < 2^53.  Rounding is monotone and
  2^53 is a float, so the test implies R max|q| < 2^53.  Every column is a
  nonzero polynomial with integer coefficients, so max|q| >= 1 and the test
  passes only when n + 1 < 53, where every binomial is exact.  The exact
  A_j = sum_k |M_jk| |q_k| is then at most R max|q| < 2^53, so every term
  and every partial sum of every coefficient is an integer below 2^53: each
  image is exact, and its float A would be exact too and below 2^53, the
  same regime decision the A product would make.  So `_images` returns the
  0-d zero again without forming A = |M| |q|.
* Otherwise it forms A, and returns the 0-d zero when A < 2^53 everywhere.
  This is sound: T has a unit diagonal and nonnegative entries, so
  A >= |q| coefficientwise, and A < 2^53 puts every input below 2^53, so
  E = 0 and A < 2^53, and the bullet on |M| E = 0 above makes every image
  exact.
* Else (some A >= 2^53, or a non-finite A) it returns the bound
  E' = (g A) r with E'_j = 0 where A_j < 2^53, the arrays of the general
  case.  The frontier keeps arrays from then on; an exact image that joins
  it gets a zero column.
* Under the 0-d zero every finite coefficient is exact and so certain: a
  zero is a certain zero, so only the end coefficients and finiteness
  decide `good`.  Finiteness is tested by one sum over the product, next
  to each image only when that sum is not finite: a sum of finite
  coefficients below 2^53 cannot overflow, and a non-finite coefficient
  leaves it non-finite (an infinity, or NaN from inf - inf).
"""

import sys
from functools import lru_cache

import numpy as np

from . import intpoly

_FLOAT_EXACT = 2.0**53
_U = 2.0**-53
# a step takes up to CHUNK_ENTRIES / (2 (n + 1)^2) new rows, one fewer for
# each two columns on the frontier, so each of its products has about 2^18
# multiply-adds: few enough for BLAS to run it on one thread (spare threads
# only wait on a busy machine), and a batch's temporaries stay near a
# megabyte however many rows it has
CHUNK_ENTRIES = 1 << 17
# levels of splitting below the four half-lines (at least 1); a sweep over
# DEPTH = 20, 30, 40, 60 on sampler rows at n = 22, 42, 62 and 102 sent the
# fewest rows to the exact path at 60, in the least time at n = 62 and 102
# and within a millisecond of the best at n = 22 and 42
DEPTH = 60


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
    module docstring for the proof behind `certified`.  Each step takes
    further rows to their four level-0 images in one product and counts
    them in place; only the images with a count of 2 or more join the
    frontier, which holds them from every row at once, one per column of q,
    each with its row and level.  Then the step splits all of the
    frontier."""
    S, n1 = C.shape
    M = _shift_matrix(n1 - 1)
    M0 = np.vstack([M, M * (-1.0) ** np.arange(n1 - 1, -1, -1)])  # [M; M F], F: p(x) -> p(-x)
    step = max(1, CHUNK_ENTRIES // (2 * n1 * n1))
    counts = np.zeros(S, np.int64)
    ok = np.ones(S, bool)
    q, E = np.empty((n1, 0)), np.float64(0)  # a 0-d E: the exact regime
    rows = level = np.empty(0, np.int64)
    start = 0
    while start < S or len(rows):
        stop = min(S, start + max(0, step - len(rows) // 2))
        if start < stop:  # the four level-0 images of further rows, settled in place
            F = C[start:stop].T.astype(np.float64, order="C")
            Q, E0 = _images(F, np.float64(0), M0)  # new rows are exact, or round once
            good, V = _verdict(Q, E0)
            counts[start:stop] = (good & (V == 1)).sum(axis=0)
            ok[start:stop] = good.all(axis=0)
            i, j = divmod(np.flatnonzero(good & (V >= 2) & ok[start:stop]), stop - start)
            if E.ndim or E0.ndim:
                E = np.hstack([np.broadcast_to(E, q.shape), np.broadcast_to(E0, Q.shape)[i, :, j].T])
            q = np.hstack([q, Q[i, :, j].T])
            rows = np.concatenate([rows, j + start])
            level = np.concatenate([level, np.zeros(len(j), np.int64)])
            start = stop
        if not len(rows):
            continue
        Q, E = _images(q, E, M)  # (2, n1, nodes): the two halves of every node, one level down
        good, V = _verdict(Q, E)
        np.add.at(counts, rows, (good & (V == 1)).sum(axis=0))
        go = good & (V >= 2)
        ok[rows[~good.all(axis=0) | (go.any(axis=0) & (level == DEPTH - 1))]] = False
        i, j = divmod(np.flatnonzero(go & ok[rows]), len(rows))
        q, rows, level = np.ascontiguousarray(Q[i, :, j].T), rows[j], level[j] + 1
        if E.ndim:
            E = np.ascontiguousarray(E[i, :, j].T)
    return counts, ok


def _verdict(Q: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(good, V) for each image of Q, shaped (halves, n+1, columns), under
    the bound E: good when its end coefficients are certainly nonzero and
    every coefficient is finite and certain, and V its sign changes with a
    zero counted as negative (module docstring)."""
    if E.ndim:
        sure = np.abs(Q) > E
        good = sure[:, 0] & sure[:, -1] & (sure | (E == 0)).all(axis=1) & np.isfinite(Q).all(axis=1)
    else:  # every finite coefficient is exact, so certain
        good = (Q[:, 0] != 0) & (Q[:, -1] != 0)
        if not np.isfinite(Q.sum()):  # a sum of finite coefficients below 2^53 cannot overflow
            good &= np.isfinite(Q).all(axis=1)
    pos = Q > 0
    return good, (pos[:, 1:] != pos[:, :-1]).sum(axis=1, dtype=np.min_scalar_type(Q.shape[1]))


def _images(q: np.ndarray, E: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, E') for the images Q = M q of the columns of q, shaped
    (halves, n+1, columns), with E' an upward-rounded bound on their
    distance from the exact images when E bounds that of q (module
    docstring).  M is [T; TR] or [T; TR; TF; TRF]: its first 2(n+1) rows
    are [T; TR] >= 0 and the others equal them up to sign, so |M| is [T; TR]
    once or twice over.  A 0-d zero E says every column is exact; E' is the
    0-d zero again when every image is (the exact regime)."""
    n1 = len(q)
    Q = (M @ q).reshape(-1, *q.shape)
    if not E.ndim and np.ldexp(np.abs(q).max(), n1) < _FLOAT_EXACT:
        return Q, E  # R max|q| with R = 2^(n+1), at least every row sum of |M|
    P = M[: 2 * n1]
    A = (P @ np.abs(q)).reshape(2, *q.shape)
    if E.ndim:
        EM = (P @ E).reshape(A.shape)
        exact = (EM == 0) & (A < _FLOAT_EXACT)
    elif A.max() < _FLOAT_EXACT:
        return Q, E
    else:
        EM, exact = E, A < _FLOAT_EXACT
    A *= (n1 + 3) * _U  # in place, A becomes E' = (EM + g A) r
    A += EM
    A *= 1 + 2 * (n1 + 5) * _U
    A[exact] = 0.0
    return Q, A if len(Q) == 2 else np.vstack([A, A])


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
