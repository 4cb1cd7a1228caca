"""Batched symmetric eigensolvers for the small per-node curvature matrices.

Closed form for 2x2 (about a tenth of LAPACK's time on a batch of 2x2
matrices), numpy.linalg.eigh (LAPACK) for n >= 3.  Eigenvalues are returned
in descending order with an orthonormal eigenvector matrix Q such that
a = Q diag(w) Q^T.  Repeated eigenvalues are fine: any orthonormal basis
of the eigenspace is acceptable downstream (only first derivatives of
spectral functions are ever needed).  least_eigenvalue gives the smallest
eigenvalue alone (closed form for n = 2 and 3, numpy.linalg.eigvalsh for
n >= 4) for the convexity check, which needs no eigenvectors.  mm multiplies stacks of these small matrices
entry by entry: on 2x2 stacks numpy's matmul loop takes two to six times as
long, on 3x3 stacks about as long.
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
    if a.shape[-1] == 3:
        return _least3(a)
    return np.linalg.eigvalsh(a)[..., 0]


def _least3(a):
    """Smallest eigenvalue of 3x3 symmetric matrices by Smith's trigonometric formula.

    With q = tr a / 3, p^2 = |a - q I|_F^2 / 6 and B = (a - q I) / p, the
    eigenvalues are q + p beta_j, beta_j = 2 cos(phi + 2 pi j / 3) with
    phi = acos(det B / 2) / 3 (O. K. Smith, Comm. ACM 4, 1961); j = 0 gives
    the largest, j = 1 the smallest.  Where det B / 2 > 1/2 the two smaller
    eigenvalues are the closer pair and the formula loses half the digits of
    their split, so there the largest eigenvalue, well separated, is
    deflated: with
    v v^T = adj(B - beta_0 I) / tr adj(B - beta_0 I), the rest of B is
    D = B - beta_0 v v^T, whose two nonzero eigenvalues are
    c -+ |D - c (I - v v^T)|_F / sqrt 2 around their mean c = -beta_0 / 2.
    A multiple of the identity (p = 0) gives q.
    """
    q = (a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2]) / 3.0
    d0, d1, d2 = a[..., 0, 0] - q, a[..., 1, 1] - q, a[..., 2, 2] - q
    b01, b02, b12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    s = np.where(p > 0.0, p, 1.0)
    d0, d1, d2, b01, b02, b12 = d0 / s, d1 / s, d2 / s, b01 / s, b02 / s, b12 / s
    half_det = 0.5 * (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
                      + b02 * (b01 * b12 - d1 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    beta = 2.0 * np.cos(phi + 2.0 * np.pi / 3.0)
    close = half_det > 0.5
    if np.any(close):
        d0, d1, d2, b01, b02, b12 = (x[close] for x in (d0, d1, d2, b01, b02, b12))
        beta0 = 2.0 * np.cos(phi[close])
        m0, m1, m2 = d0 - beta0, d1 - beta0, d2 - beta0
        c00, c11, c22 = m1 * m2 - b12 * b12, m0 * m2 - b02 * b02, m0 * m1 - b01 * b01
        c01, c02, c12 = b02 * b12 - b01 * m2, b01 * b12 - b02 * m1, b01 * b02 - m0 * b12
        # D - c (I - v v^T) = B + (beta0 / 2) I - 1.5 beta0 v v^T, entry by entry
        w = 1.5 * beta0 / (c00 + c11 + c22)
        c = -0.5 * beta0
        dev = ((d0 - c - w * c00) ** 2 + (d1 - c - w * c11) ** 2 + (d2 - c - w * c22) ** 2
               + 2.0 * ((b01 - w * c01) ** 2 + (b02 - w * c02) ** 2 + (b12 - w * c12) ** 2))
        beta[close] = c - np.sqrt(0.5 * dev)
    return q + p * beta


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
