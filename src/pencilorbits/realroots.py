"""Bulk exact counting of real roots for integer polynomials.

The fast path runs the classical Sturm chain in float64 across the whole
batch, carrying rigorous per-coefficient error bounds; a sample is accepted
only when every chain sign is certified (|value| > 8 * bound), in which case
the count provably equals the exact one.  Uncertified samples fall back to
the exact integer subresultant Sturm chain.  The net classification is
therefore exact for every sample; floats only filter.
"""

import numpy as np

from . import intpoly

_EPS = np.finfo(np.float64).eps
# beyond this degree the float chain certifies almost nothing and is skipped
FLOAT_FILTER_MAX_DEGREE = 16


def count_real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Distinct real roots for each row of an (S, n+1) integer array with
    nonzero leading column.  Rows whose polynomial is not squarefree are
    counted by their squarefree part."""
    S, n1 = coeffs.shape
    n = n1 - 1
    out = np.empty(S, np.int64)
    if n <= FLOAT_FILTER_MAX_DEGREE and S >= 64:
        counts, ok = _float_sturm_batch(coeffs.astype(np.float64))
        out[ok] = counts[ok]
        todo = np.flatnonzero(~ok)
    else:
        todo = np.arange(S)
    for i in todo:
        out[i] = _exact_count(coeffs[i].tolist())
    return out


def _exact_count(row: list) -> int:
    row = [int(c) for c in row]
    cnt = intpoly.real_root_count_squarefree(row)
    if cnt is None:
        cnt = intpoly.real_root_count_squarefree(intpoly.squarefree_part(row))
        if cnt is None:
            raise ArithmeticError("squarefree part has a repeated factor")
    return cnt


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
