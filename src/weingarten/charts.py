"""Coordinate charts on S^n: metric, Christoffel symbols, orthonormalization.

Two charts are provided.  The gnomonic chart projects an open hemisphere
radially onto the tangent hyperplane at its center; in it

    sigma_ij = (delta_ij - y_i y_j / mu^2) / mu^2,   mu = sqrt(1 + |y|^2),
    sigma^ij = mu^2 (delta_ij + y_i y_j),
    Gamma_ij^k = -(delta_ik y_j + delta_jk y_i) / mu^2.

The plane chart projects S^n minus the north pole from the pole onto the
hyperplane tangent at the south pole (coordinates x):

    sigma_ij = 16/mu^2 delta_ij,   mu = 4 + |x|^2,
    Gamma_ij^k = -(2/mu)(delta_ik x_j + delta_jk x_i - delta_ij x_k).

Both metrics are rank-one updates of multiples of the identity, so the
symmetric inverse square root sigma^{-1/2} has a closed form; it
orthonormalizes per-node jets before the frame formulas apply.
"""

from dataclasses import dataclass

import numpy as np

GNOMONIC = "gnomonic"
PLANE = "plane"


def _default_center(n):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate chart on S^n.  kind is "gnomonic" or "plane"."""

    kind: str
    dim: int
    center: np.ndarray = None  # unit vector in R^{n+1}; gnomonic only

    def __post_init__(self):
        if self.kind not in (GNOMONIC, PLANE):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("charts are defined for n >= 2")
        c = self.center
        if c is None:
            c = _default_center(self.dim)
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim + 1,):
            raise ValueError(f"center must be a vector in R^{self.dim + 1}")
        nrm = np.linalg.norm(c)
        if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-10:
            raise ValueError("chart center must be a unit vector")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "_basis", _tangent_basis(c))

    @property
    def tangent_basis(self):
        return self._basis


def _tangent_basis(c):
    """Orthonormal basis of c-perp, columns of an (n+1, n) matrix, deterministic."""
    n1 = c.shape[0]
    # Householder reflection mapping e_{n+1} to c gives a stable orthonormal frame.
    e = np.zeros(n1)
    e[-1] = 1.0
    v = c - e
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        H = np.eye(n1)
    else:
        v = v / nv
        H = np.eye(n1) - 2.0 * np.outer(v, v)
    return H[:, :-1]


def gnomonic_chart(n=2, center=None) -> Chart:
    return Chart(GNOMONIC, n, _default_center(n) if center is None else center)


def plane_chart(n=2) -> Chart:
    return Chart(PLANE, n, _default_center(n))


def mu_factor(chart: Chart, y):
    """Chart conformal factor: sqrt(1+|y|^2) (gnomonic) or 4+|x|^2 (plane)."""
    y = np.asarray(y, dtype=float)
    s = np.sum(y * y, axis=-1)
    if chart.kind == GNOMONIC:
        return np.sqrt(1.0 + s)
    return 4.0 + s


def chart_metric(chart: Chart, y):
    """(sigma_ij, sigma^ij, mu) at chart points y of shape (..., n)."""
    y = np.asarray(y, dtype=float)
    n = chart.dim
    eye = np.eye(n)
    yy = y[..., :, None] * y[..., None, :]
    mu = mu_factor(chart, y)
    if chart.kind == GNOMONIC:
        mu2 = mu * mu
        sigma = (eye - yy / mu2[..., None, None]) / mu2[..., None, None]
        sigma_inv = mu2[..., None, None] * (eye + yy)
    else:
        s = (16.0 / (mu * mu))[..., None, None]
        sigma = s * np.broadcast_to(eye, yy.shape).copy()
        sigma_inv = np.broadcast_to(eye, yy.shape) / s
    return sigma, sigma_inv, mu


def christoffel(chart: Chart, y):
    """Gamma_ij^k stored as G[..., i, j, k]; symmetric in (i, j)."""
    y = np.asarray(y, dtype=float)
    n = chart.dim
    eye = np.eye(n)
    mu = mu_factor(chart, y)
    if chart.kind == GNOMONIC:
        # -(delta_ik y_j + delta_jk y_i)/mu^2
        g = -(eye[:, None, :] * y[..., None, :, None] + eye[None, :, :] * y[..., :, None, None])
        return g / (mu * mu)[..., None, None, None]
    # -(2/mu)(delta_ik x_j + delta_jk x_i - delta_ij x_k)
    g = (
        eye[:, None, :] * y[..., None, :, None]
        + eye[None, :, :] * y[..., :, None, None]
        - eye[:, :, None] * y[..., None, None, :]
    )
    return -2.0 * g / mu[..., None, None, None]


def inv_sqrt_metric(chart: Chart, y):
    """Symmetric B = sigma^{-1/2}: B sigma B = I; maps coordinate jets to frame jets."""
    y = np.asarray(y, dtype=float)
    n = chart.dim
    eye = np.eye(n)
    mu = mu_factor(chart, y)
    if chart.kind == GNOMONIC:
        yy = y[..., :, None] * y[..., None, :]
        c = 1.0 / (1.0 + mu)
        return mu[..., None, None] * (eye + c[..., None, None] * yy)
    return (mu / 4.0)[..., None, None] * np.broadcast_to(eye, y.shape[:-1] + (n, n)).copy()


def embed(chart: Chart, y):
    """Chart point -> unit vector on S^n in R^{n+1}."""
    y = np.asarray(y, dtype=float)
    mu = mu_factor(chart, y)
    if chart.kind == GNOMONIC:
        E = chart.tangent_basis
        z = (y @ E.T + chart.center) / mu[..., None]
        return z
    # stereographic from the north pole onto the plane tangent at the south pole
    n = chart.dim
    z = np.empty(y.shape[:-1] + (n + 1,))
    z[..., :n] = 4.0 * y / mu[..., None]
    z[..., n] = (np.sum(y * y, axis=-1) - 4.0) / mu
    return z


def cap_radius_in_chart(theta0):
    """Geodesic cap of radius theta0 about the gnomonic center maps to |y| < tan(theta0)."""
    if not 0.0 < theta0 < np.pi / 2:
        raise ValueError(
            f"cap angle theta0={theta0} must lie in (0, pi/2): the domain may not contain a hemisphere"
        )
    return float(np.tan(theta0))
