"""Batched symmetric eigensolvers for the small per-node curvature matrices.

eigvals_descending gives the eigenvalues alone, in descending order: a
closed form for 2x2 (half-trace plus and minus a hypot; under a tenth of
LAPACK's time on a batch of 2x2 matrices), numpy.linalg.eigvalsh for
n >= 3.  It is the one route of every reported spectrum: the principal
curvatures and the least eigenvalue of the convexity matrix.
eigh_descending adds the orthonormal eigenvectors Q with a = Q diag(w) Q^T
by numpy.linalg.eigh (LAPACK); only the n >= 4 route of symfunc.f_and_F
reads them, and repeated eigenvalues are fine there (any orthonormal basis
of the eigenspace gives the same F).  positive_definite answers the
convexity check of every Newton trial without an eigenvalue: leading
principal minors for n = 2 and 3, a Cholesky factor for n >= 4.  mm
multiplies stacks of these small matrices: a product with three or more
output columns goes to numpy.matmul, the rest (2x2 products and
matrix-vector products) is written out entry by entry.  On 2x2 stacks
numpy's matmul loop takes two to six times as long as the written-out
loop, and for 3x3 times 3x1 at 2,895 nodes about three times as long; for
3x3 times 3x3 it takes a fifth of the time at 195 nodes and four fifths
at 2,895 (Intel Xeon, numpy 2.4.6, one BLAS thread).
"""

import numpy as np


def eigh_descending(a):
    """Eigendecomposition of a batch of symmetric matrices, eigenvalues descending.

    a: (..., n, n) symmetric.  Returns (w, Q) with w: (..., n), Q: (..., n, n).
    """
    w, Q = np.linalg.eigh(np.asarray(a, dtype=float))
    return w[..., ::-1], Q[..., ::-1]


def eigvals_descending(a):
    """Eigenvalues of a batch of symmetric matrices, descending.

    a: (..., n, n) symmetric.  Returns w: (..., n).
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 2:
        half_tr = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
        d = np.hypot(0.5 * (a[..., 0, 0] - a[..., 1, 1]), a[..., 0, 1])
        return np.stack([half_tr + d, half_tr - d], axis=-1)
    return np.linalg.eigvalsh(a)[..., ::-1]


def mm(A, B):
    """A @ B for stacks of small matrices.

    A: (..., n, m), B: (..., m, p); the leading axes broadcast; transposed
    views are fine.  With p >= 3 output columns numpy.matmul computes it.
    Otherwise it is written out over the last two axes: each entry is one
    multiply-add over the stack per term, the inner index summed in order.
    """
    n, m, p = A.shape[-2], A.shape[-1], B.shape[-1]
    if p >= 3:
        return np.matmul(A, B)
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (n, p))
    for i in range(n):
        for j in range(p):
            s = A[..., i, 0] * B[..., 0, j]
            for l in range(1, m):
                s += A[..., i, l] * B[..., l, j]
            out[..., i, j] = s
    return out


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

