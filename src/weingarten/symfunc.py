"""The elementary symmetric functions and f = sigma_n^{1/n}.

The solver solves sigma_n(kappa) = psi, whose admissible cone Gamma_n is the
positive cone: every kappa_i > 0.  There f = (prod kappa_i)^{1/n} and
f_i = f / (n kappa_i), each within a few roundings, since no term is
subtracted.  all_sigmas gives sigma_0 .. sigma_n for `weingarten curvature
--k` by the incremental-product recurrence (the coefficients of
prod (x + kappa_i)); its top coefficient is the same product, bit for bit.
Kappa arrays have shape (..., n), batched over the leading axes.

f_and_F works on the curvature matrix a itself: the derivative of
f = sigma_n(kappa(a))^{1/n} in a is (1/n) sigma_n^{1/n-1} T_{n-1}(a), with
the Newton tensor T_{n-1}(a) = adj a (Reilly 1973) and sigma_n = det a, so
for n <= 3 the Newton iteration needs no eigendecomposition.
"""

import numpy as np

from .errors import AdmissibilityError
from .symeig import eigh_descending, mm


def all_sigmas(kappa):
    """sigma_0 .. sigma_n of kappa, shape (..., n+1), via e_j += kappa e_{j-1}."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = np.zeros(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        ki = kappa[..., i]
        for j in range(min(i + 1, n), 0, -1):
            e[..., j] = e[..., j] + ki * e[..., j - 1]
    return e


def f_and_derivatives(kappa):
    """f = sigma_n^{1/n} = (prod kappa_i)^{1/n} and its gradient f_i = f / (n kappa_i).

    Raises AdmissibilityError when any state leaves Gamma_n, some
    kappa_i <= 0 (a Newton step left the cone); callers catch this to
    trigger step damping.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    _refuse_outside(~np.all(kappa > 0.0, axis=-1), n)
    sn = kappa[..., 0]         # in the order of all_sigmas, whose sigma_n it equals bit for bit
    for i in range(1, n):
        sn = sn * kappa[..., i]
    f = sn ** (1.0 / n)
    return f, f[..., None] / (n * kappa)


def _refuse_outside(outside, n):
    """AdmissibilityError naming the states that left Gamma_n, if any did."""
    if np.any(outside):
        raise AdmissibilityError(
            f"kappa outside Gamma_{n} at {np.count_nonzero(outside)} state(s); "
            f"first index {np.argwhere(outside)[0]}"
        )


def f_and_F(a):
    """f = sigma_n^{1/n} of the eigenvalues of a, and the matrix F = df/da.

    a: (..., n, n) symmetric.  Returns f: (...) and F: (..., n, n), with
    F = Q diag(f_i) Q^T for a = Q diag(kappa) Q^T.  For n <= 3 both come
    from the entries of a: T_{n-1} is the adjugate from the 2x2 cofactors
    and sigma_n the determinant.  For n >= 4 they come from the eigen route,
    eigh_descending and f_and_derivatives.  Raises AdmissibilityError when
    any state leaves Gamma_n, as f_and_derivatives does.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n > 3:
        kappa, Q = eigh_descending(a)
        f, fi = f_and_derivatives(kappa)
        return f, mm(Q * fi[..., None, :], np.swapaxes(Q, -1, -2))
    sig, T = _det_adjugate(a)
    _refuse_outside(~np.all(sig[..., 1:] > 0.0, axis=-1), n)
    sn = sig[..., n]
    f = sn ** (1.0 / n)
    F = ((1.0 / n) * sn ** (1.0 / n - 1.0))[..., None, None] * T
    return f, F


def _det_adjugate(a):
    """(sigma_0..sigma_n, adj a) of symmetric 2x2 or 3x3 stacks, by cofactors."""
    sig = np.empty(a.shape[:-2] + (a.shape[-1] + 1,))
    sig[..., 0] = 1.0
    sig[..., 1] = np.trace(a, axis1=-2, axis2=-1)
    adj = np.empty(a.shape)
    if a.shape[-1] == 2:
        adj[..., 0, 0] = a[..., 1, 1]
        adj[..., 1, 1] = a[..., 0, 0]
        adj[..., 0, 1] = -a[..., 0, 1]
        adj[..., 1, 0] = -a[..., 1, 0]
        sig[..., 2] = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        return sig, adj
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            # cyclic indices give the cofactor of a_ij with its sign
            adj[..., j, i] = a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]
    sig[..., 2] = adj[..., 0, 0] + adj[..., 1, 1] + adj[..., 2, 2]
    # a_ii det a = adj_jj adj_kk - adj_jk adj_kj (Desnanot-Jacobi) at the largest
    # a_ii: near a singular a its rounding error is hundreds of times smaller
    # than a row of cofactors gives.  A largest a_ii <= 0 means tr a <= 0, outside.
    minors = np.stack([adj[..., j, j] * adj[..., k, k] - adj[..., j, k] * adj[..., k, j]
                       for j, k in ((1, 2), (2, 0), (0, 1))], axis=-1)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    i = np.argmax(diag, axis=-1)[..., None]
    sig[..., 3] = (np.take_along_axis(minors, i, -1) / np.take_along_axis(diag, i, -1))[..., 0]
    return sig, adj
