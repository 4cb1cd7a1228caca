"""Pointwise geometry of radial graphs: metric, curvature matrix, principal curvatures.

States are built from per-node jets (value, gradient, covariant Hessian) in
orthonormal frame components, so the frame formulas apply verbatim:

    g^ij     = (d_ij - zeta'^2 u_i u_j / w^2) / phi^2
    gamma^ij = (d_ij - zeta'^2 u_i u_j / (w (phi + w))) / phi   (gamma gamma = g)
    a_ij     = (-zeta' phi / w) gamma^{ik} (Hess_kl u + u d_kl) gamma^{lj},
    w = sqrt(phi^2 + zeta'^2 |Du|^2)

with the closed-form profile phi = 1/sqrt(u^2 + ka), zeta' = -phi^2 shared by
the three space forms (ka = K) and the deformed metric family (ka = t^2).
Principal curvatures are the eigenvalues of a, sorted descending, from
symeig.eigvals_descending; the graph is strictly locally convex iff
Hess u + u d > 0.  kappa is computed on first read: Newton and the
subsolution gate read only a (symfunc.f_and_F), so only step records,
diagnostics and the CLI pay an eigensolve, for the values alone.  The
per-node products are symeig.mm: written out over 2x2 matrices, numpy's
matmul for 3x3 and larger.

This is the one state route:
v-jets (u = eta(v)) are transformed pointwise to u-jets before it, and a
stored rho field is read as u = zeta^-1(rho) and differentiated as u.  The
lowered-index g_ij, gamma_ij and second fundamental form, which the solver
never reads, are written out in tests/reference.py for the identity tests.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaceform import (
    AmbientProfile,
    SpaceFormParams,
    eta,
    eta_prime,
)
from .symeig import eigvals_descending, mm


@dataclass
class GeometryState:
    """Per-node geometric package, batched over a leading axis."""

    ambient: AmbientProfile
    u: np.ndarray            # (N,)
    p: np.ndarray            # (N, n) frame gradient of u
    phi: np.ndarray
    w: np.ndarray            # sqrt(phi^2 + zeta'^2 |p|^2)
    g_up: np.ndarray
    gamma_up: np.ndarray
    a: np.ndarray
    tau: np.ndarray          # support function

    @property
    def dim(self):
        return self.p.shape[-1]

    @cached_property
    def kappa(self):
        """(N, n) principal curvatures, descending; assignable like a field."""
        return eigvals_descending(self.a)


def state_from_u_slots(u, p, r, ambient: AmbientProfile) -> GeometryState:
    """Assemble the full state from u-representation frame jets."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    ambient.check_u(u)
    n = p.shape[-1]
    eye = np.eye(n)
    phi = ambient.phi_u(u)
    zp = ambient.zeta_prime_u(u)
    pn2 = np.einsum("...i,...i->...", p, p)
    w = np.sqrt(phi**2 + zp**2 * pn2)
    pp = p[..., :, None] * p[..., None, :]
    g_up = (eye - (zp**2 / w**2)[..., None, None] * pp) / phi[..., None, None] ** 2
    gamma_up = (eye - (zp**2 / (w * (phi + w)))[..., None, None] * pp) / phi[..., None, None]
    S = r + u[..., None, None] * eye
    coef = (-zp * phi / w)[..., None, None]
    a = coef * mm(mm(gamma_up, S), gamma_up)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    # tau = phi^2 / sqrt(phi^2 + |grad rho|^2) with grad rho = zeta' grad u
    tau = phi**2 / w
    return GeometryState(
        ambient=ambient, u=u, p=p, phi=phi, w=w, g_up=g_up, gamma_up=gamma_up,
        a=a, tau=tau,
    )


def v_slots_to_u(v, p_v, r_v, sf: SpaceFormParams):
    """Pointwise transform of frame jets under u = eta(v), where eta'' = eta."""
    ev = eta(sf, v)
    ep = eta_prime(sf, v)
    p_u = ep[..., None] * p_v
    r_u = ep[..., None, None] * r_v + ev[..., None, None] * (
        p_v[..., :, None] * p_v[..., None, :]
    )
    return ev, p_u, r_u
