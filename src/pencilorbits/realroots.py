"""Bulk exact counting of real roots for integer polynomials.

Each row of a batch leaves at the first of three stages that decides it:

1. Float Sturm filter (degree <= FLOAT_FILTER_MAX_DEGREE).  The classical
   Sturm chain runs in float64 across the batch, carrying rigorous
   per-coefficient error bounds; a row is accepted only when every chain
   sign is certified (|value| > 8 * bound).
2. Disc certificate (`_disc_certify`, every degree).  Weierstrass inclusion
   discs around the eigenvalues of the companion matrix (Braess & Hadeler,
   Numer. Math. 21, 1973; Carstensen, Numer. Math. 59, 1991): a row is
   accepted only when its discs provably isolate every root and place each
   one on or off the real axis.
3. Exact path: the integer subresultant Sturm chain (`intpoly`).

Rows with a coefficient of absolute value 2^53 or more skip both float
stages, because their cast to float64 may be inexact.  A float stage accepts a row only
with a proof that its count equals the exact one, so the classification is
exact for every row; floats only filter.

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

import numpy as np

from . import intpoly

_EPS = np.finfo(np.float64).eps
# beyond this degree the float chain certifies almost nothing and is skipped
FLOAT_FILTER_MAX_DEGREE = 16
_FLOAT_EXACT = 2.0**53
# rows per float-stage block and entries per disc-stage chunk: both keep the
# float temporaries of a batch to a few MB however many rows it has
FLOAT_BLOCK = 1 << 14
DISC_CHUNK_ENTRIES = 1 << 17
# u, tau and the least partial product of the module docstring's bounds
_U = 2.0**-53
_TAU = 2.0**-1000
_MIN_NORMAL = 2.0**-1021


def count_real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Distinct real roots for each row of an (S, n+1) integer array with
    nonzero leading column.  Rows whose polynomial is not squarefree are
    counted by their squarefree part."""
    S, n1 = coeffs.shape
    n = n1 - 1
    out = np.empty(S, np.int64)
    done = np.zeros(S, bool)
    if S >= 64 and n >= 1:
        for start in range(0, S, FLOAT_BLOCK):
            block = slice(start, start + FLOAT_BLOCK)
            _float_counts(coeffs[block], out[block], done[block])
    for i in np.flatnonzero(~done):
        out[i] = _exact_count(coeffs[i].tolist())
    return out


def _float_counts(coeffs: np.ndarray, out: np.ndarray, done: np.ndarray) -> None:
    """Run both float stages on a block of rows, writing each certified count
    into `out` and marking it in `done` (views into the batch's arrays)."""
    n = coeffs.shape[1] - 1
    C = coeffs.astype(np.float64)
    # integers below 2^53 in absolute value cast exactly; the others round
    # to 2^53 or beyond
    todo = np.flatnonzero(((C > -_FLOAT_EXACT) & (C < _FLOAT_EXACT)).all(axis=1))
    C = C[todo]
    if n <= FLOAT_FILTER_MAX_DEGREE:
        counts, ok = _float_sturm_batch(C)
        out[todo[ok]] = counts[ok]
        done[todo[ok]] = True
        todo, C = todo[~ok], C[~ok]
    step = max(1, DISC_CHUNK_ENTRIES // (n * n))
    for start in range(0, len(todo), step):
        idx = todo[start : start + step]
        counts, ok = _disc_certify(C[start : start + step])
        out[idx[ok]] = counts[ok]
        done[idx[ok]] = True


def _exact_count(row: list) -> int:
    row = [int(c) for c in row]
    cnt = intpoly.real_root_count_squarefree(row)
    if cnt is None:
        cnt = intpoly.real_root_count_squarefree(intpoly.squarefree_part(row))
        if cnt is None:
            raise ArithmeticError("squarefree part has a repeated factor")
    return cnt


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


def _float_sturm_batch(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, certified) for the batch; rows are normalized by powers of two
    (exact in binary floating point) and errors propagated to first order
    with safety factors."""
    S, n1 = C.shape
    n = n1 - 1
    with np.errstate(all="ignore"):

        def norm2(P, E):
            m = np.max(np.abs(P), axis=1, keepdims=True)
            m = np.where((m > 0) & np.isfinite(m), m, 1.0)
            sc = np.exp2(-np.ceil(np.log2(m)))
            return P * sc, E * sc

        P0, E0 = norm2(C, np.zeros_like(C))
        der = np.arange(n, 0, -1, dtype=np.float64)[None, :]
        P1 = P0[:, :-1] * der
        E1 = E0[:, :-1] * der + _EPS * np.abs(P1)
        P1, E1 = norm2(P1, E1)
        ok = np.ones(S, bool)
        heads = [(P0[:, 0], E0[:, 0], n), (P1[:, 0], E1[:, 0], n - 1)]
        A, EA, B, EB = P0, E0, P1, E1
        for db in range(n - 1, 0, -1):
            b0, Eb0 = B[:, 0], EB[:, 0]
            good = np.abs(b0) > 8 * Eb0
            ok &= good
            b0s = np.where(good, b0, 1.0)
            denom = np.maximum(np.abs(b0s) - Eb0, 1e-290)
            q1 = A[:, 0] / b0s
            Eq1 = (EA[:, 0] + np.abs(q1) * Eb0) / denom + _EPS * np.abs(q1)
            # step 1: T[j] = A[j+1] - q1*B[j+1] for j < db; T[db] = A[db+1]
            T = A[:, 1:].copy()
            ET = EA[:, 1:].copy()
            T[:, :db] -= q1[:, None] * B[:, 1:]
            ET[:, :db] += (
                np.abs(q1[:, None]) * EB[:, 1:]
                + np.abs(B[:, 1:]) * Eq1[:, None]
                + Eq1[:, None] * EB[:, 1:]
                + _EPS * np.abs(T[:, :db])
            )
            q0 = T[:, 0] / b0s
            Eq0 = (ET[:, 0] + np.abs(q0) * Eb0) / denom + _EPS * np.abs(q0)
            R = T[:, 1:] - q0[:, None] * B[:, 1:]
            ER = (
                ET[:, 1:]
                + np.abs(q0[:, None]) * EB[:, 1:]
                + np.abs(B[:, 1:]) * Eq0[:, None]
                + Eq0[:, None] * EB[:, 1:]
                + _EPS * np.abs(R)
            )
            Rn = -R
            ERn = ER * (1 + 8 * _EPS)
            Rn, ERn = norm2(Rn, ERn)
            bad = ~np.isfinite(Rn).all(axis=1) | ~np.isfinite(ERn).all(axis=1)
            ok &= ~bad
            Rn[bad] = 1.0
            ERn[bad] = 0.0
            heads.append((Rn[:, 0], ERn[:, 0], db - 1))
            A, EA, B, EB = B, EB, Rn, ERn
        Vp = np.zeros(S, np.int64)
        Vm = np.zeros(S, np.int64)
        prev_p = prev_m = None
        for v, e, d in heads:
            ok &= np.abs(v) > 8 * e
            sp = v > 0
            sm = sp if d % 2 == 0 else ~sp
            if prev_p is not None:
                Vp += sp != prev_p
                Vm += sm != prev_m
            prev_p, prev_m = sp, sm
    return Vm - Vp, ok
