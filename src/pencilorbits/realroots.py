"""Bulk exact counting of real roots for integer polynomials.

Each row of a batch leaves at the first of three stages that decides it:

1. Descartes stage (`_descartes_certify`, every degree, int64).  Descartes'
   rule of signs on the Moebius images of four half-lines, each bisected
   once where needed: one level of the Vincent-Collins-Akritas scheme
   (Collins & Akritas, SYMSAC 1976; Rouillier & Zimmermann, J. Comput.
   Appl. Math. 162, 2004), in exact integer arithmetic.
2. Disc certificate (`_disc_certify`, every degree, float64).  Weierstrass
   inclusion discs around the eigenvalues of the companion matrix (Braess &
   Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math. 59, 1991): a
   row is accepted only when its discs provably isolate every root and
   place each one on or off the real axis.
3. Exact path: the Sylvester query `intpoly.tarski_query(row, [1])`, one
   integer signed remainder sequence, which counts the distinct real roots
   of any row, squarefree or not.

Rows outside the overflow guard below skip the Descartes stage, and rows
with a coefficient of absolute value 2^53 or more skip the disc stage,
because their cast to float64 may be inexact.  Each of the first two stages
accepts a row only with a proof that its count equals the exact one, so the
classification is exact for every row; the one float stage only filters.

Why the Descartes counts are exact.  Let p(x) = sum_k p_k x^(n-k).  A map
x = (a t + b) / (c t + d) with ad - bc != 0 and c t + d > 0 for t > 0 is a
smooth bijection with nonzero derivative from (0, inf) onto an open
interval I, so the image q(t) = (c t + d)^n p(x(t)) =
sum_k p_k (a t + b)^(n-k) (c t + d)^k has a root t > 0 of multiplicity e
exactly when p has the root x(t) in I with multiplicity e.  The constant
coefficient of q is d^n p(b/d) and its leading coefficient c^n p(a/c), or
a^n p_0 when c = 0: p at the endpoints of I.  By Descartes' rule of signs
the number of positive roots of q, with multiplicity, is V - 2j for some
j >= 0, where V is the number of sign changes between consecutive nonzero
coefficients of q.  So V = 0 means that p has no root in I, and V = 1 that
it has exactly one, a simple one.  The stage counts sign changes with each
zero coefficient taken as negative, which, when the constant and leading
coefficients are nonzero, gives V + 2i for some i >= 0: zeros between two
positive coefficients add two changes, zeros anywhere else none.  So a
count of 0 or 1 is V.

The stage maps (0, inf) onto (1, inf), (0, 1), (-1, 0) and (-inf, -1) by
t + 1, 1/(t + 1), -1/(t + 1) and -(t + 1).  A half-line whose image has
V >= 2 is bisected once, at 2, 1/2, -1/2 or -2, and its two halves get
images of their own.  A row is accepted when p vanishes at none of 0, +-1,
+-1/2 and +-2, that is when the four half-line images have nonzero
constant and leading coefficients and 2^n p(1/2), 2^n p(-1/2), p(2) and
p(-2) are nonzero (the halves then have nonzero end coefficients too), and
when every image it uses has a count of 0 or 1.  The real line is the
disjoint union of the open intervals of the images used and of points
where p is nonzero, so the number of real roots of p is the sum of the V.
Each of these roots is simple, so the sum is also the number of distinct
real roots, which is what the batch counts for a row that is not
squarefree (its multiple roots, if any, are not real).

Overflow.  For every map used, |a| + |b| <= 4 and |c| + |d| <= 4, so every
coefficient of (a t + b)^(n-k) (c t + d)^k has absolute value at most 4^n,
as does every |b^(n-k) d^k| of the four values; every partial sum of an
image coefficient sum_k p_k M[k, j], in any order, is therefore at most
4^n ||p||_1 in absolute value.  Only rows with 4^n ||p||_1 < 2^63 enter the
stage (none at n >= 32), so its int64 arithmetic never wraps; a second level
of bisection would need 8^n ||p||_1 < 2^63 and is not done.

Why the discs are a proof.  Let p = a * prod_j (x - zeta_j) have degree n
and let z_1, ..., z_n be distinct complex numbers (any numbers: the proof
does not depend on how accurate the eigenvalues are).  Put
W_i = p(z_i) / (a * prod_{j != i} (z_i - z_j)).  Lagrange interpolation at
the z_i gives p(x) = a * prod_j (x - z_j) * (1 + sum_i W_i / (x - z_i)),
which by the matrix determinant lemma is a * det(x I - M) with
M = diag(z) - W 1^T.  So the roots of p, with multiplicity, are the
eigenvalues of M.  Row i of M has diagonal z_i - W_i and off-diagonal
absolute row sum (n - 1)|W_i|, so its Gerschgorin disc lies inside
D_i = {|x - z_i| <= n |W_i|}.  If the D_i are pairwise disjoint, the
Gerschgorin component theorem puts exactly one root, counted with
multiplicity, in each of them: p then has n simple roots, so a row with a
multiple root never certifies.  The coefficients are real, so the conjugate
of the root in a disc with a real centre lies in the same disc and equals
it: that root is real.  A disc that misses the real axis holds a non-real
root.  When every disc is of one of these two kinds, the number of real
roots is the number of real centres.

Floating point.  The centres are exact floats, and the code uses radii
r_i >= n |W_i|, which only enlarges the discs.  Every real operation obeys
fl(x op y) = (x op y)(1 + d) + e with |d| <= u = 2^-53, e = 0 for + and -,
and |e| <= 2^-1075 for * and / (the underflow term); overflow gives inf or
nan (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
sections 2.1-2.2).  The bounds, in the order `_disc_certify` computes them:

* |p(z_i)|.  Complex Horner in real arithmetic, y_k = z y_(k-1) + c_k.
  With the computed y_(k-1) = a + ib, R = fl(fl(x a) - fl(y b)) and
  y_k = fl(R + c_k) + i fl(fl(x b) + fl(y a)), the error of one step is at
  most u ((|x| + |y|)(|a| + |b|) + |R| + |y_k|_1) + 4 * 2^-1075, where
  |.|_1 = |Re| + |Im| >= |.|.  Summed through the recurrence this is the
  running error bound (Higham, section 5.1)
  E_k = (|x| + |y|)(E_(k-1) + u |y_(k-1)|_1) + u (|R| + |y_k|_1) + 4 * 2^-1075,
  E_0 = 0, with |p(z) - y_n| <= E_n.  The code evaluates this sum in
  floating point with tau = 2^-1000 in place of the last term.  The sum is
  then at least tau after its first step, so each underflow error inside a
  step is below 2^-70 times the result of that step and acts as one more
  relative rounding; each step is at most six roundings deep in nonnegative
  terms, so the computed sum is at least E_n (1 - u)^(8n).  The bound used
  is (|y_n|_1 + E_n)(1 + 16(n + 1)u), which covers those roundings and its
  own.
* |a prod_{j != i} (z_i - z_j)|.  A difference is rounded with relative
  error at most u and no underflow term, so
  |z_i - z_j| >= m_ij / (1 + u) with m_ij = max(|Re|, |Im|) of the computed
  difference.  The product of the m_ij is formed as a running product; if
  every partial product is finite and at least 2^-1021 (normal), it is at
  most (1 + u)^(n-1) times the exact one, so the exact modulus is at least
  fl(|a| prod m_ij) / (1 + u)^(2n - 1).
* The radius r_i = max(fl(n U_i / L_i)(1 + 4(n + 1)u), tau) from these
  bounds U_i and L_i, which covers the three roundings of its own
  computation.  Discs i != j are disjoint when
  m_ij > fl(r_i + r_j)(1 + 4u), since then
  |z_i - z_j| >= m_ij / (1 + u) > r_i + r_j; a disc with a non-real centre
  misses the axis when |Im z_i| > r_i.
* A row with any non-finite bound, or whose eigenvalue computation fails,
  is not certified.
"""

from functools import lru_cache

import numpy as np

from . import intpoly

_FLOAT_EXACT = 1 << 53
# int64 image entries per Descartes chunk and float64 entries per disc
# chunk: both keep a batch's temporaries to a few MB however many rows it has
DISC_CHUNK_ENTRIES = 1 << 17
# maps x = (a t + b) / (c t + d) of (0, inf) onto the half-lines (1, inf),
# (0, 1), (-1, 0), (-inf, -1), then onto the two halves of each of them
_HALF_LINES = ((1, 1, 0, 1), (0, 1, 1, 1), (0, -1, 1, 1), (-1, -1, 0, 1))
_HALVES = (
    ((2, 1, 1, 1), (1, 2, 0, 1)),
    ((0, 1, 2, 2), (1, 1, 2, 1)),
    ((0, -1, 2, 2), (-1, -1, 2, 1)),
    ((-2, -1, 1, 1), (-1, -2, 0, 1)),
)
# (b, d) for the values d^n p(b/d) at the bisection points 1/2, -1/2, 2, -2
_SPLIT_POINTS = ((1, 2), (-1, 2), (2, 1), (-2, 1))
# u, tau and the least partial product of the module docstring's bounds
_U = 2.0**-53
_TAU = 2.0**-1000
_MIN_NORMAL = 2.0**-1021


def count_real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Distinct real roots for each row of an (S, n+1) integer array with
    nonzero leading column.  A row whose polynomial is not squarefree counts
    each multiple real root once."""
    S, n1 = coeffs.shape
    n = n1 - 1
    out = np.empty(S, np.int64)
    done = np.zeros(S, bool)
    if S >= 64 and n >= 1:
        if n <= 31:  # from n = 32 on, 4^n ||p||_1 >= 2^64: no row passes the guard
            step = max(1, DISC_CHUNK_ENTRIES // (4 * n1 + 4))
            for start in range(0, S, step):
                idx, C = _descartes_rows(coeffs[start : start + step])
                counts, ok = _descartes_certify(C)
                idx += start
                out[idx[ok]] = counts[ok]
                done[idx[ok]] = True
        todo = np.flatnonzero(~done & ((coeffs > -_FLOAT_EXACT) & (coeffs < _FLOAT_EXACT)).all(axis=1))
        step = max(1, DISC_CHUNK_ENTRIES // (n * n))
        for start in range(0, len(todo), step):
            idx = todo[start : start + step]
            counts, ok = _disc_certify(coeffs[idx].astype(np.float64))
            out[idx[ok]] = counts[ok]
            done[idx[ok]] = True
    for i in np.flatnonzero(~done):
        out[i] = _exact_count(coeffs[i].tolist())
    return out


def _descartes_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, int64 rows) of the rows of an integer array of degree
    1 <= n <= 31 with 4^n ||p||_1 < 2^63, the overflow guard of the
    Descartes stage."""
    n = coeffs.shape[1] - 1
    bound = 1 << (63 - 2 * n)
    # with every entry below the bound, the int64 1-norm cannot overflow:
    # (n + 1) * bound <= 2^63 for n >= 1
    idx = np.flatnonzero(((coeffs > -bound) & (coeffs < bound)).all(axis=1))
    C = coeffs[idx].astype(np.int64)
    keep = np.abs(C).sum(axis=1) < bound
    return idx[keep], C[keep]


def _descartes_certify(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, certified) for the rows of the int64 array C, each within
    the overflow guard of `_descartes_rows`; see the module docstring for
    the proof behind `certified`."""
    S, n1 = C.shape
    first, halves = _mobius_matrices(n1 - 1)
    Q = C @ first
    images = Q[:, : 4 * n1].reshape(S, 4, n1)
    ok = (images[:, :, [0, -1]] != 0).all(axis=(1, 2)) & (Q[:, 4 * n1 :] != 0).all(axis=1)
    V = _sign_variations(images)
    counts = np.where(V < 2, V, 0).sum(axis=1)
    for h, M in enumerate(halves):
        rows = np.flatnonzero(ok & (V[:, h] >= 2))
        if len(rows):
            W = _sign_variations((C[rows] @ M).reshape(len(rows), 2, n1))
            ok[rows] = (W < 2).all(axis=1)
            counts[rows] += W.sum(axis=1)
    return counts, ok


def _sign_variations(Q: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis, a zero taken as negative (module
    docstring)."""
    pos = Q > 0
    return np.count_nonzero(pos[..., 1:] != pos[..., :-1], axis=-1)


@lru_cache(maxsize=64)
def _mobius_matrices(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """int64 matrices taking a row p to its images (module docstring): the
    four half-line images followed by the four values at the bisection
    points, an (n+1) x (4n+8) matrix, and for each half-line the images of
    its two halves, (n+1) x (2n+2)."""

    def image(a, b, c, d):
        up = [np.ones(1, np.int64)]
        down = [np.ones(1, np.int64)]
        for _ in range(n):
            up.append(np.convolve(up[-1], [a, b]))
            down.append(np.convolve(down[-1], [c, d]))
        return np.array([np.convolve(up[n - k], down[k]) for k in range(n + 1)], dtype=np.int64)

    points = np.array([[b ** (n - k) * d**k for b, d in _SPLIT_POINTS] for k in range(n + 1)], dtype=np.int64)
    first = np.hstack([image(*m) for m in _HALF_LINES] + [points])
    halves = tuple(np.hstack([image(*m) for m in pair]) for pair in _HALVES)
    for M in (first, *halves):
        M.flags.writeable = False  # shared by every caller through the cache
    return first, halves


def _exact_count(row: list) -> int:
    return intpoly.tarski_query([int(c) for c in row], [1])


def _disc_certify(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, certified) for the rows of the float64 array C, whose entries
    are integers of absolute value below 2^53; see the module docstring for
    the proof behind `certified`."""
    S, n1 = C.shape
    n = n1 - 1
    with np.errstate(all="ignore"):
        lead = C[:, 0]
        ok = lead != 0
        comp = np.zeros((S, n, n))
        comp[:, 0, :] = -C[:, 1:] / np.where(ok, lead, 1.0)[:, None]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        try:
            z = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError:
            return np.zeros(S, np.int64), np.zeros(S, bool)
        x = np.ascontiguousarray(z.real)
        y = np.ascontiguousarray(z.imag)
        U = _value_bound(C, x, y)

        # m[s, i, j] <= (1 + u) |z_i - z_j|; the diagonal is 1 in the product
        m = np.abs(x[:, :, None] - x[:, None, :])
        np.maximum(m, np.abs(y[:, :, None] - y[:, None, :]), out=m)
        diag = np.arange(n)
        m[:, diag, diag] = 1.0
        partial = np.cumprod(m, axis=2)
        L = np.abs(lead)[:, None] * partial[:, :, -1]
        ok &= partial.min(axis=(1, 2)) >= _MIN_NORMAL
        ok &= np.isfinite(U).all(axis=1) & np.isfinite(L).all(axis=1)
        r = np.maximum(n * U / L * (1 + 4 * (n + 1) * _U), _TAU)

        real = y == 0
        ok &= (real | (np.abs(y) > r)).all(axis=1)
        m[:, diag, diag] = np.inf
        ok &= (m > (r[:, :, None] + r[:, None, :]) * (1 + 4 * _U)).all(axis=(1, 2))
    return real.sum(axis=1), ok


def _value_bound(C: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Upper bound on |p(x + iy)| at every centre, p being the row of C:
    complex Horner in real arithmetic with its running error bound, inflated
    for the rounding of the bound itself (module docstring)."""
    n = C.shape[1] - 1
    a = np.repeat(C[:, :1], n, axis=1)
    b = np.zeros_like(x)
    rho = np.abs(x) + np.abs(y)
    size = np.abs(a)
    err = np.zeros_like(x)
    for k in range(1, n + 1):
        re = x * a - y * b
        b = x * b + y * a
        a = re + C[:, k : k + 1]
        new_size = np.abs(a) + np.abs(b)
        err = rho * (err + _U * size) + _U * (np.abs(re) + new_size) + _TAU
        size = new_size
    return (size + err) * (1 + 16 * (n + 1) * _U)
