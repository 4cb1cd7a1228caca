"""Batched symmetric eigensolvers for the small per-node curvature matrices.

Closed form for 2x2 (about a tenth of LAPACK's time on a batch of 2x2
matrices), numpy.linalg.eigh (LAPACK) for n >= 3.  Eigenvalues are returned
in descending order with an orthonormal eigenvector matrix Q such that
a = Q diag(w) Q^T.  Repeated eigenvalues are fine: any orthonormal basis
of the eigenspace is acceptable downstream (only first derivatives of
spectral functions are ever needed).  least_eigenvalue gives the smallest
eigenvalue alone (the same closed form for n = 2, numpy.linalg.eigvalsh for
n >= 3), which reports read.  positive_definite answers the convexity check
of every Newton trial without an eigenvalue: leading principal minors for
n = 2 and 3, a Cholesky factor for n >= 4.  mm multiplies stacks of these
small matrices entry by entry: on 2x2 stacks numpy's matmul loop takes two
to six times as long, on 3x3 stacks about as long.
"""

import numpy as np


def eigh_descending(a):
    """Eigendecomposition of a batch of symmetric matrices, eigenvalues descending.

    a: (..., n, n) symmetric.  Returns (w, Q) with w: (..., n), Q: (..., n, n).
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 2:
        return _eigh2(a)
    w, Q = np.linalg.eigh(a)
    return w[..., ::-1], Q[..., ::-1]


def mm(A, B):
    """A @ B for stacks of small matrices, written out over the last two axes.

    A: (..., n, m), B: (..., m, p); the leading axes broadcast.  Each entry is
    one multiply-add over the stack per term, the inner index summed in
    order; transposed views are fine.
    """
    n, m, p = A.shape[-2], A.shape[-1], B.shape[-1]
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (n, p))
    for i in range(n):
        for j in range(p):
            s = A[..., i, 0] * B[..., 0, j]
            for l in range(1, m):
                s += A[..., i, l] * B[..., l, j]
            out[..., i, j] = s
    return out


def least_eigenvalue(a):
    """Smallest eigenvalue of each matrix in a batch of symmetric matrices.

    a: (..., n, n) symmetric.  Returns (...,): the last eigenvalue that
    eigh_descending would return, without computing eigenvectors.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 2:
        p = a[..., 0, 0]
        q = a[..., 1, 1]
        # the w2 of _eigh2, so both routes agree bit for bit
        return 0.5 * (p + q) - np.hypot(0.5 * (p - q), a[..., 0, 1])
    return np.linalg.eigvalsh(a)[..., 0]


def positive_definite(a):
    """Whether every symmetric matrix in a batch a: (..., n, n) is positive definite.

    Sylvester's criterion for n = 2 and 3: the leading principal minors, written
    out, are positive (Golub & Van Loan, Matrix Computations, 4.2).  A Cholesky
    factor for n >= 4.  A NaN entry fails the test.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] > 3:
        try:
            # numpy's factor lets a NaN through instead of raising
            return bool(np.all(np.isfinite(np.linalg.cholesky(a))))
        except np.linalg.LinAlgError:
            return False
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    minors = [a00, a00 * a11 - a01 * a01]
    if a.shape[-1] == 3:
        a02, a12, a22 = a[..., 0, 2], a[..., 1, 2], a[..., 2, 2]
        minors.append(a00 * (a11 * a22 - a12 * a12) - a01 * (a01 * a22 - a12 * a02)
                      + a02 * (a01 * a12 - a11 * a02))
    return all(bool(np.all(m > 0.0)) for m in minors)


def _eigh2(a):
    p = a[..., 0, 0]
    q = a[..., 1, 1]
    b = a[..., 0, 1]
    half_tr = 0.5 * (p + q)
    d = np.hypot(0.5 * (p - q), b)
    w1 = half_tr + d
    w2 = half_tr - d
    # Eigenvector for w1: pick the algebraically larger of the two candidate
    # forms to avoid cancellation; fall back to the identity when a ~ multiple
    # of the identity.
    v1x = np.where(np.abs(w1 - q) >= np.abs(w1 - p), w1 - q, b)
    v1y = np.where(np.abs(w1 - q) >= np.abs(w1 - p), b, w1 - p)
    nrm = np.hypot(v1x, v1y)
    degenerate = nrm <= 1e-300 + 0.0 * nrm
    v1x = np.where(degenerate, 1.0, v1x / np.where(degenerate, 1.0, nrm))
    v1y = np.where(degenerate, 0.0, v1y / np.where(degenerate, 1.0, nrm))
    Q = np.empty(a.shape, dtype=float)
    Q[..., 0, 0] = v1x
    Q[..., 1, 0] = v1y
    Q[..., 0, 1] = -v1y
    Q[..., 1, 1] = v1x
    w = np.stack([w1, w2], axis=-1)
    return w, Q
