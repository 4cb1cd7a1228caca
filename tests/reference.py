"""Independent reference formulas that the tests check the library against.

The solver evaluates every quantity through one route: u-jets ->
geometry.state_from_u_slots -> the closed-form linearization blocks.  The
formulas here express the same quantities another way (direct v- and
deformed-metric curvature matrices, the lowered-index metric forms, the mu u convexity product rule, the
closed-form Gv, the matrix F^{ij}, the scalar space-form functions of rho and
zeta'(u), the frame jets of a field (frame_jets), and rho-jets transformed
pointwise to u-jets (rho_slots_to_u)) and are used only to cross-check that
route.  The solver writes its per-node products out entry by entry
(symeig.mm) and takes F^{ij} from the Newton tensor (symfunc.f_and_F); the
same contractions written as einsum (curvature_matrix_einsum,
coefficients_u_einsum, to_coordinate_einsum and frame_jets) and F_matrix,
from the eigendecomposition, are their references.  assemble_jacobian_coo
builds the sparse Jacobian through a fresh COO matrix, the reference for the
cached CSC pattern.  The per-node loops at the end are the references for the
batched boundary diagnostics.  Tests import this module the way they import
conftest.
"""

import numpy as np
import scipy.sparse as sp

from weingarten import charts as ch
from weingarten import grids
from weingarten.errors import DomainRangeError
from weingarten.geometry import GeometryState, state_from_u_slots, v_slots_to_u
from weingarten.linearize import LinearizedCoefficients
from weingarten.spaceform import (
    SpaceFormParams,
    _check,
    _check_rho,
    _check_t,
    _check_u,
    eta,
    eta_prime,
    profile,
    profile_deformed,
    zeta_inverse,
)
from weingarten.symeig import eigh_descending
from weingarten.symfunc import f_and_derivatives

# ---------------------------------------------------------------------------
# space-form functions of rho, and zeta' of u


def phi(sf: SpaceFormParams, rho):
    """Warping function: rho, sin(rho), sinh(rho) for K = 0, 1, -1."""
    rho = _check_rho(sf, rho)
    if sf.K == 0:
        return rho + 0.0
    if sf.K == 1:
        return np.sin(rho)
    return np.sinh(rho)


def phi_prime(sf: SpaceFormParams, rho):
    rho = _check_rho(sf, rho)
    if sf.K == 0:
        return np.ones_like(rho)
    if sf.K == 1:
        return np.cos(rho)
    return np.cosh(rho)


def capital_phi(sf: SpaceFormParams, rho):
    """Antiderivative of phi with value 0 at rho = 0."""
    rho = _check_rho(sf, rho)
    if sf.K == 0:
        return 0.5 * rho * rho
    if sf.K == 1:
        return 1.0 - np.cos(rho)
    return np.cosh(rho) - 1.0


def phi_t(t, rho):
    """Deformation family sin(t rho)/t; exact Euclidean limit rho at t = 0."""
    t = _check_t(t)
    if t == 0.0:
        rho = _check("rho", rho, 0.0, np.inf)
        return rho + 0.0
    rho = _check("rho", rho, 0.0, np.pi / (2.0 * t))
    return np.sin(t * rho) / t


def zeta_t(t, u):
    """Deformed change of variables arccot(u/t)/t; limit 1/u at t = 0."""
    t = _check_t(t)
    u = _check("u", u, 0.0, np.inf)
    if t == 0.0:
        return 1.0 / u
    return np.arctan2(1.0, u / t) / t


def zeta_prime(sf: SpaceFormParams, u):
    """zeta' = -1/u^2, -1/(1+u^2), -1/(u^2-1); negative on the whole range."""
    u = _check_u(sf, u)
    return -1.0 / (u * u + sf.K)


# ---------------------------------------------------------------------------
# chart and grid


def sqrt_metric(chart: ch.Chart, y):
    """Symmetric square root R with R R = sigma (as plain matrices)."""
    y = np.asarray(y, dtype=float)
    n = chart.dim
    eye = np.eye(n)
    mu = ch.mu_factor(chart, y)
    if chart.kind == ch.GNOMONIC:
        yy = y[..., :, None] * y[..., None, :]
        c = 1.0 / (mu * (mu + 1.0))
        return (eye - c[..., None, None] * yy) / mu[..., None, None]
    return (4.0 / mu)[..., None, None] * np.broadcast_to(eye, y.shape[:-1] + (n, n)).copy()


def frame_jets(grid, values):
    """(value, frame grad, frame covariant Hessian): orthonormal components."""
    val, grad, hess_cov = grids.covariant_jets(grid, values)
    _, _, _, _, B = grids.chart_quantities(grid)
    p = np.einsum("nij,nj->ni", B, grad)
    r = np.einsum("nia,nab,nbj->nij", B, hess_cov, B)
    return val, p, r


def convexity_matrix(grid, values_u):
    """Hess u + u sigma at interior nodes (coordinate components), direct route."""
    val, _, hess_cov = grids.covariant_jets(grid, values_u)
    sigma, _, _, _, _ = grids.chart_quantities(grid)
    return hess_cov + val[:, None, None] * sigma


def convexity_matrix_fast(grid, values_u):
    """Same matrix through u_tilde = mu u with analytic chart derivatives.

    Expands the u_tilde jets by the product rule using exact derivatives of mu,
    so the result equals the direct route on identical FD jets up to rounding.
    Gnomonic: (Hess u + u sigma)_ij = u_tilde_ij / mu.
    Plane:    ... = u_tilde_ij / mu + (2 delta_ij/mu^2)(u_tilde - x . D u_tilde).
    """
    val, grad, hess = grids.fd_jets(grid, values_u)
    y = grid.interior_coords()
    n = grid.dim
    if grid.chart.kind == ch.GNOMONIC:
        mu = np.sqrt(1.0 + np.sum(y * y, axis=-1))
        dmu = y / mu[:, None]
        d2mu = np.eye(n) / mu[:, None, None] - np.einsum("ni,nj->nij", y, y) / mu[:, None, None] ** 3
        tu_hess = (
            d2mu * val[:, None, None]
            + np.einsum("ni,nj->nij", dmu, grad)
            + np.einsum("ni,nj->nij", grad, dmu)
            + mu[:, None, None] * hess
        )
        return tu_hess / mu[:, None, None]
    mu = 4.0 + np.sum(y * y, axis=-1)
    dmu = 2.0 * y
    tu = mu * val
    tu_grad = dmu * val[:, None] + mu[:, None] * grad
    tu_hess = (
        2.0 * np.eye(n) * val[:, None, None]
        + np.einsum("ni,nj->nij", dmu, grad)
        + np.einsum("ni,nj->nij", grad, dmu)
        + mu[:, None, None] * hess
    )
    corr = (tu - np.einsum("ni,ni->n", y, tu_grad)) * 2.0 / (mu * mu)
    return tu_hess / mu[:, None, None] + corr[:, None, None] * np.eye(n)


# ---------------------------------------------------------------------------
# curvature matrices


def F_matrix(a, k):
    """Derivative matrix F^{ij} of A -> sigma_k^{1/k}(lambda(A)) at symmetric a.

    Eigendecompose a = Q diag(kappa) Q^T and return Q diag(f_i) Q^T; positive
    definite on the cone.  Repeated eigenvalues are harmless here.
    """
    w, Q = eigh_descending(a)
    _, fi = f_and_derivatives(w, k)
    return np.einsum("...ik,...k,...jk->...ij", Q, fi, Q)


def rho_slots_to_u(rho, p_rho, r_rho, sf: SpaceFormParams):
    """Pointwise transform of frame jets under rho = zeta(u)."""
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
    state.a = a  # kappa, read later, is computed from this a
    return state


def lowered_forms(state: GeometryState):
    """(g_ij, gamma_ij) of a state, the lowered-index metric and its square root

        g_ij     = phi^2 d_ij + zeta'^2 u_i u_j
        gamma_ij = phi d_ij + zeta'^2 u_i u_j / (phi + w),

    against which the identity tests check the state's g_up and gamma_up.
    """
    zp = state.ambient.zeta_prime_u(state.u)
    ph, w, p = state.phi, state.w, state.p
    eye = np.eye(p.shape[-1])
    pp = p[..., :, None] * p[..., None, :]
    g_down = ph[..., None, None] ** 2 * eye + zp[..., None, None] ** 2 * pp
    gamma_down = ph[..., None, None] * eye + (zp**2 / (ph + w))[..., None, None] * pp
    return g_down, gamma_down


def state_deformed_slots(u, p, r, t) -> GeometryState:
    """Deformed-metric state through the explicit t-form of the curvature matrix:

        a^t = (1 + |Du|^2/(u^2+t^2))^{-1/2} gtil (Hess u + u I) gtil,
        gtil = I - p p^T / (s2 (s1 + s2)),  s1 = sqrt(u^2+t^2), s2 = sqrt(u^2+t^2+|Du|^2).

    Independent of the profile route; the two agree to rounding, which the
    endpoint tests (t = 0 vs K = 0, t = 1 vs K = +1) exercise.
    """
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
    state.a = a  # kappa, read later, is computed from this a
    return state


# ---------------------------------------------------------------------------
# linearization


def gv_closed_form(state: GeometryState, F, v, p_v, sf: SpaceFormParams):
    """Gv = (K/(w_v eta')) sum f_i + (eta/eta') sum f_i kappa_i, w_v = sqrt(1 + |Dv|^2).

    The zero-order v-block of the space form's own profile in closed form.
    sum f_i = tr F and sum f_i kappa_i = F : a; eta = state.u, since the
    state is built through u = eta(v).
    """
    ep = eta_prime(sf, v)
    wv = np.sqrt(1.0 + np.einsum("...i,...i->...", p_v, p_v))
    sum_fi = np.einsum("...ii->...", F)
    sum_fk = np.einsum("...ij,...ij->...", F, state.a)
    return sf.K / (wv * ep) * sum_fi + (state.u / ep) * sum_fk


def deformed_monotonicity_check(u, p, r, t_values, k, tol=1e-12, fd_step=1e-6):
    """Evaluate G^t on a t-lattice and report monotonicity in t.

    Returns dict with the value table, the worst decrease over consecutive
    lattice points, and the minimum finite-difference t-derivative.
    """
    t_values = np.sort(np.asarray(t_values, dtype=float))
    vals = []
    for t in t_values:
        st = state_deformed_slots(u, p, r, float(t))
        vals.append(f_and_derivatives(st.kappa, k)[0])
    vals = np.stack(vals, axis=0)  # (T, N)
    diffs = np.diff(vals, axis=0)
    worst = float(diffs.min()) if diffs.size else 0.0
    # centered t-derivative at interior lattice points
    min_deriv = np.inf
    for t in t_values:
        tl, tr = max(0.0, t - fd_step), min(1.0, t + fd_step)
        if tr - tl <= 0:
            continue
        gl = f_and_derivatives(state_deformed_slots(u, p, r, tl).kappa, k)[0]
        gr = f_and_derivatives(state_deformed_slots(u, p, r, tr).kappa, k)[0]
        min_deriv = min(min_deriv, float(((gr - gl) / (tr - tl)).min()))
    return {
        "t_values": t_values,
        "values": vals,
        "worst_decrease": worst,
        "monotone": bool(worst >= -tol),
        "min_t_derivative": float(min_deriv),
    }


def curvature_matrix_einsum(state: GeometryState, r):
    """state.a as a three-operand einsum: (-zeta' phi/w) gamma^{ik} (r + u d)_{kl} gamma^{lj}."""
    u = state.u
    coef = -state.ambient.zeta_prime_u(u) * state.phi / state.w
    S = r + u[..., None, None] * np.eye(r.shape[-1])
    a = coef[..., None, None] * np.einsum("...ik,...kl,...lj->...ij", state.gamma_up, S, state.gamma_up)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def coefficients_u_einsum(state: GeometryState, F) -> LinearizedCoefficients:
    """linearize.coefficients_u with every contraction written as one einsum.

    Each formula is read straight off the index form in the linearize module
    docstring, so gamma, a and F need not be symmetric here: a transposed
    operand in the library shows up on random matrices.
    """
    amb = state.ambient
    u, p = state.u, state.p
    phi, w = state.phi, state.w
    zp = amb.zeta_prime_u(u)
    zpp = amb.zeta_second_u(u)
    php = amb.phi_prime_u(u)
    gup, gmat_up, a = state.gamma_up, state.g_up, state.a
    Fa = np.einsum("...ij,...qj->...iq", F, a)
    trFa = np.einsum("...ii->...", Fa)
    Gij = (-phi * zp / w)[..., None, None] * np.einsum("...ik,...kl,...jl->...ij", gup, F, gup)
    gFap = np.einsum("...is,...iq,...q->...s", gup, Fa, p)
    gaFp = np.einsum("...qs,...iq,...i->...s", gup, Fa, p)
    Gs = (
        -2.0 * (zp**2 / (w * (phi + w)))[..., None] * (w[..., None] * gFap + phi[..., None] * gaFp)
        - (zp**2 / w**2)[..., None] * trFa[..., None] * p
    )
    t1 = np.einsum("...iq,...iq->...", (phi * php * zp)[..., None, None] * gmat_up, Fa)
    t1 = t1 + (zp * zpp / w**2) * np.einsum("...i,...iq,...q->...", p, Fa, p)
    Gu = (
        -2.0 * t1
        + (php * zp / phi - phi * php * zp / w**2 + phi**2 * zpp / (zp * w**2)) * trFa
        - (phi * zp / w) * np.einsum("...ij,...ij->...", F, gmat_up)
    )
    return LinearizedCoefficients(Gij=Gij, Gs=Gs, Gu=Gu)


def to_coordinate_einsum(lc: LinearizedCoefficients, grid):
    """(A2, b1) of linearize.to_coordinate: A2_kl = B_ki G^ij B_jl, b1 = B G^s - A2 : Gamma."""
    _, _, _, gamma, B = grids.chart_quantities(grid)
    A2 = np.einsum("nki,nij,njl->nkl", B, lc.Gij, B)
    b1 = np.einsum("nmi,ni->nm", B, lc.Gs) - np.einsum("nij,nijm->nm", A2, gamma)
    return A2, b1


def assemble_jacobian_coo(grid, A2, b1, c) -> sp.csr_matrix:
    """linearize.assemble_jacobian through a COO matrix built on every call."""
    W1, W2 = grids._jet_weights(grid)
    m = grid.box.shape[1]
    entries = np.einsum("nkl,klo->no", A2, W2) + np.einsum("nm,mo->no", b1, W1)
    entries[:, m // 2] += c
    n_int = grid.n_interior
    rows = np.repeat(np.arange(n_int), m)
    cols_nodes = grid.box.reshape(-1)
    interior_slot = np.full(grid.n_nodes, -1, dtype=int)
    interior_slot[grid.interior_ids] = np.arange(n_int)
    cols = interior_slot[cols_nodes]
    keep = cols >= 0
    J = sp.coo_matrix(
        (entries.reshape(-1)[keep], (rows[keep], cols[keep])), shape=(n_int, n_int)
    )
    return J.tocsr()


class ConstantRhs:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def evaluate(self, op, ev):
        return self.values + 0.0 * ev.val

    def derivatives(self, op, ev):
        return 0.0 * ev.val, np.zeros((ev.val.shape[0], op.grid.dim))


# ---------------------------------------------------------------------------
# per-node loops that the batched boundary diagnostics replace


def boundary_gradient_loop(grid, values):
    """grids.boundary_gradient_estimate, one boundary node and axis at a time."""
    n = grid.dim
    h = grid.h
    out = np.zeros((grid.boundary_ids.size, n))
    shape = np.array(grid.lattice_shape)
    for j, b in enumerate(grid.boundary_ids):
        idx = grid.node_index[b]
        for k in range(n):
            ip = idx.copy()
            ip[k] += 1
            im = idx.copy()
            im[k] -= 1
            idp = grid.id_grid[tuple(ip)] if np.all((ip >= 0) & (ip < shape)) else -1
            idm = grid.id_grid[tuple(im)] if np.all((im >= 0) & (im < shape)) else -1
            if idp >= 0 and idm >= 0:
                out[j, k] = (values[idp] - values[idm]) / (2.0 * h)
            elif idp >= 0:
                out[j, k] = (values[idp] - values[b]) / h
            elif idm >= 0:
                out[j, k] = (values[b] - values[idm]) / h
    return out


def hopf_boundary_loop(grid, v_full, v_sub_full):
    """continuity.hopf_boundary_check, one boundary node and offset at a time."""
    w = v_full - v_sub_full
    out = []
    for b in grid.boundary_ids:
        idx = grid.node_index[b]
        best = -np.inf
        for off in grids.box_offsets(grid.dim):
            j = grid.id_grid[tuple(idx + off)] if np.all(
                (idx + off >= 0) & (idx + off < np.array(grid.lattice_shape))
            ) else -1
            if j >= 0 and grid.node_class[j] == grids.INTERIOR:
                best = max(best, (w[j] - w[b]) / (grid.h * np.linalg.norm(off)))
        if best > -np.inf:
            out.append(best)
    return float(np.min(out)) if out else np.nan
