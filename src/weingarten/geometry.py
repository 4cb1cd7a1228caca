"""Pointwise geometry of radial graphs: metric, curvature matrix, principal curvatures.

States are built from per-node jets (value, gradient, covariant Hessian) in
orthonormal frame components, so the frame formulas apply verbatim:

    g_ij     = phi^2 d_ij + zeta'^2 u_i u_j
    gamma_ij = phi d_ij + zeta'^2 u_i u_j / (phi + w)           (gamma gamma = g)
    h_ij     = (-zeta' phi / w)(Hess_ij u + u d_ij)
    a_ij     = gamma^{ik} h_kl gamma^{lj},      w = sqrt(phi^2 + zeta'^2 |Du|^2)

with the closed-form profile phi = 1/sqrt(u^2 + ka), zeta' = -phi^2 shared by
the three space forms (ka = K) and the deformed metric family (ka = t^2).
Principal curvatures are the eigenvalues of a, sorted descending; the graph is
strictly locally convex iff Hess u + u d > 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainRangeError
from .spaceform import AmbientProfile, SpaceFormParams, eta, eta_prime, eta_second, profile
from .symeig import eigh_descending


@dataclass
class GeometryState:
    """Per-node geometric package, batched over a leading axis."""

    ambient: AmbientProfile
    u: np.ndarray            # (N,)
    p: np.ndarray            # (N, n) frame gradient of u
    r: np.ndarray            # (N, n, n) frame covariant Hessian of u
    phi: np.ndarray
    w: np.ndarray            # sqrt(phi^2 + zeta'^2 |p|^2)
    g_down: np.ndarray
    g_up: np.ndarray
    gamma_down: np.ndarray
    gamma_up: np.ndarray
    h: np.ndarray
    a: np.ndarray
    kappa: np.ndarray        # (N, n) descending
    eigvecs: np.ndarray      # (N, n, n), a = Q diag(kappa) Q^T
    tau: np.ndarray          # support function
    nu_rad: np.ndarray       # radial component of the outer unit normal
    nu_tan: np.ndarray       # (N, n) frame tangential components

    @property
    def dim(self):
        return self.p.shape[-1]

    def node(self, i):
        """Single-node view (plain arrays) for spot checks."""
        return {
            "u": self.u[i], "p": self.p[i], "r": self.r[i], "phi": self.phi[i],
            "w": self.w[i], "g_down": self.g_down[i], "g_up": self.g_up[i],
            "gamma_down": self.gamma_down[i], "gamma_up": self.gamma_up[i],
            "h": self.h[i], "a": self.a[i], "kappa": self.kappa[i],
            "tau": self.tau[i], "nu_rad": self.nu_rad[i], "nu_tan": self.nu_tan[i],
        }


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
    g_down = phi[..., None, None] ** 2 * eye + zp[..., None, None] ** 2 * pp
    g_up = (eye - (zp**2 / w**2)[..., None, None] * pp) / phi[..., None, None] ** 2
    gamma_down = phi[..., None, None] * eye + (zp**2 / (phi + w))[..., None, None] * pp
    gamma_up = (eye - (zp**2 / (w * (phi + w)))[..., None, None] * pp) / phi[..., None, None]
    S = r + u[..., None, None] * eye
    coef = (-zp * phi / w)[..., None, None]
    h = coef * S
    a = coef * np.einsum("...ik,...kl,...lj->...ij", gamma_up, S, gamma_up)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    kappa, Q = eigh_descending(a)
    # tau = phi^2 / sqrt(phi^2 + |grad rho|^2) with grad rho = zeta' grad u
    tau = phi**2 / w
    nu_rad = phi / w
    nu_tan = (phi / w)[..., None] * p
    return GeometryState(
        ambient=ambient, u=u, p=p, r=r, phi=phi, w=w,
        g_down=g_down, g_up=g_up, gamma_down=gamma_down, gamma_up=gamma_up,
        h=h, a=a, kappa=kappa, eigvecs=Q, tau=tau, nu_rad=nu_rad, nu_tan=nu_tan,
    )


def v_slots_to_u(v, p_v, r_v, sf: SpaceFormParams):
    """Pointwise transform of frame jets under u = eta(v)."""
    ev = eta(sf, v)
    ep = eta_prime(sf, v)
    epp = eta_second(sf, v)
    p_u = ep[..., None] * p_v
    r_u = ep[..., None, None] * r_v + epp[..., None, None] * (
        p_v[..., :, None] * p_v[..., None, :]
    )
    return ev, p_u, r_u


def rho_slots_to_u(rho, p_rho, r_rho, sf: SpaceFormParams):
    """Pointwise transform of frame jets under rho = zeta(u)."""
    from .spaceform import zeta_inverse, zeta_prime

    u = zeta_inverse(sf, rho)
    zp = zeta_prime(sf, u)
    zpp = profile(sf).zeta_second_u(u)
    p_u = p_rho / zp[..., None]
    r_u = (r_rho - zpp[..., None, None] * (p_u[..., :, None] * p_u[..., None, :])) / zp[
        ..., None, None
    ]
    return u, p_u, r_u


def state_from_v_slots(v, p_v, r_v, sf: SpaceFormParams) -> GeometryState:
    """State from v-representation jets via the direct curvature-matrix formula

        a = (1/w)(eta(v) I + eta'(v) gtil Hess v gtil),
        gtil = I - p p^T / (w (1 + w)),  w = sqrt(1 + |Dv|^2),

    then completed through the u-route for the metric blocks.  The two routes
    produce the same kappa; this one is kept as the independent expression of
    the v-transformation and is cross-checked against the u-route in tests.
    """
    v = np.asarray(v, dtype=float)
    p_v = np.asarray(p_v, dtype=float)
    r_v = np.asarray(r_v, dtype=float)
    n = p_v.shape[-1]
    eye = np.eye(n)
    ev = eta(sf, v)
    ep = eta_prime(sf, v)
    wv = np.sqrt(1.0 + np.einsum("...i,...i->...", p_v, p_v))
    pp = p_v[..., :, None] * p_v[..., None, :]
    gtil = eye - pp / (wv * (1.0 + wv))[..., None, None]
    a = (
        ev[..., None, None] * eye
        + ep[..., None, None] * np.einsum("...ik,...kl,...lj->...ij", gtil, r_v, gtil)
    ) / wv[..., None, None]
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
    state = state_from_u_slots(u, p_u, r_u, profile(sf))
    kappa, Q = eigh_descending(a)
    state.a = a
    state.h = np.einsum(
        "...ik,...kl,...lj->...ij", state.gamma_down, a, state.gamma_down
    )
    state.kappa = kappa
    state.eigvecs = Q
    return state


def state_from_rho_slots(rho, p_rho, r_rho, sf: SpaceFormParams) -> GeometryState:
    u, p_u, r_u = rho_slots_to_u(rho, p_rho, r_rho, sf)
    return state_from_u_slots(u, p_u, r_u, profile(sf))


def state_deformed_slots(u, p, r, t) -> GeometryState:
    """Deformed-metric state through the explicit t-form of the curvature matrix:

        a^t = (1 + |Du|^2/(u^2+t^2))^{-1/2} gtil (Hess u + u I) gtil,
        gtil = I - p p^T / (s2 (s1 + s2)),  s1 = sqrt(u^2+t^2), s2 = sqrt(u^2+t^2+|Du|^2).

    Independent of the profile route; the two agree to rounding, which the
    endpoint tests (t = 0 vs K = 0, t = 1 vs K = +1) exercise.
    """
    from .spaceform import profile_deformed

    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(u <= 0.0):
        raise DomainRangeError("deformed geometry requires u > 0")
    n = p.shape[-1]
    eye = np.eye(n)
    pn2 = np.einsum("...i,...i->...", p, p)
    s1 = np.sqrt(u * u + t * t)
    s2 = np.sqrt(u * u + t * t + pn2)
    pp = p[..., :, None] * p[..., None, :]
    gtil = eye - pp / (s2 * (s1 + s2))[..., None, None]
    S = r + u[..., None, None] * eye
    a = (s1 / s2)[..., None, None] * np.einsum(
        "...ik,...kl,...lj->...ij", gtil, S, gtil
    )
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    state = state_from_u_slots(u, p, r, profile_deformed(t))
    kappa, Q = eigh_descending(a)
    state.a = a
    state.kappa = kappa
    state.eigvecs = Q
    return state


# per-node entry points over grid fields

def _node_slice(grid, node):
    from .grids import interior_slot

    s = interior_slot(grid, node)
    return slice(s, s + 1)


def geometry_from_u(field, node, sf: SpaceFormParams) -> GeometryState:
    """Full geometric state at one interior node of a u-representation field."""
    from .grids import frame_jets

    u, p, r = frame_jets(field.grid, field.values)
    sl = _node_slice(field.grid, node)
    return state_from_u_slots(u[sl], p[sl], r[sl], profile(sf))


def geometry_from_v(field, node, sf: SpaceFormParams) -> GeometryState:
    from .grids import frame_jets

    v, p, r = frame_jets(field.grid, field.values)
    sl = _node_slice(field.grid, node)
    return state_from_v_slots(v[sl], p[sl], r[sl], sf)


def geometry_deformed(field, node, t) -> GeometryState:
    from .grids import frame_jets

    u, p, r = frame_jets(field.grid, field.values)
    sl = _node_slice(field.grid, node)
    return state_deformed_slots(u[sl], p[sl], r[sl], t)
