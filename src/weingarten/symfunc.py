"""Elementary symmetric functions, Garding cones, and f = sigma_k^{1/k}.

All routines are batched over a leading axis of states; kappa arrays have
shape (..., n).  sigma_k is evaluated by the incremental-product recurrence
(coefficients of prod (x + kappa_i)), which is stable for the small n used
here and avoids subset enumeration.
"""

import numpy as np

from .errors import AdmissibilityError


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


def sigma_k(kappa, k):
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} outside 1..{n}")
    return all_sigmas(kappa)[..., k]


def sigma_km1_drop(kappa, k):
    """sigma_{k-1}(kappa | i) for every i, shape (..., n).

    Synthetic division of the generating polynomial by (x + kappa_i).
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = all_sigmas(kappa)
    out = np.empty_like(kappa)
    for i in range(n):
        ki = kappa[..., i]
        # e_j(kappa|i) = e_j - ki * e_{j-1}(kappa|i), ascending j from e_0 = 1
        prev = np.ones(kappa.shape[:-1])
        for j in range(1, k):
            prev = e[..., j] - ki * prev
        out[..., i] = prev
    return out


def in_gamma_k(kappa, k):
    """Strict Garding-cone membership: sigma_j > 0 for j = 1..k."""
    e = all_sigmas(kappa)
    ok = np.ones(e.shape[:-1], dtype=bool)
    for j in range(1, k + 1):
        ok &= e[..., j] > 0.0
    return ok


def f_and_derivatives(kappa, k):
    """f = sigma_k^{1/k} and its gradient f_i = (1/k) sigma_k^{1/k-1} sigma_{k-1}(kappa|i).

    Raises AdmissibilityError when any state leaves Gamma_k (a Newton step
    left the cone); callers catch this to trigger step damping.
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(in_gamma_k(kappa, k)):
        bad = np.argwhere(~in_gamma_k(kappa, k))
        raise AdmissibilityError(
            f"kappa outside Gamma_{k} at {bad.shape[0]} state(s); first index {bad[0] if bad.size else '?'}"
        )
    sk = sigma_k(kappa, k)
    f = sk ** (1.0 / k)
    fi = (1.0 / k) * sk[..., None] ** (1.0 / k - 1.0) * sigma_km1_drop(kappa, k)
    return f, fi
