"""Curvature geometry: sphere oracles, metric identities, representation cross-checks."""

import numpy as np
import pytest

from weingarten import charts as ch
from weingarten import grids
from weingarten.continuity import DiscreteOperator
from weingarten.errors import DomainRangeError
from weingarten.geometry import state_from_u_slots, v_slots_to_u
from weingarten.spaceform import (
    SpaceFormParams,
    eta,
    profile,
    profile_deformed,
    zeta,
    zeta_inverse,
)
from weingarten.symeig import eigh_descending
from conftest import random_admissible_slots, random_admissible_u_field
from reference import (
    convexity_matrix, frame_jets, lowered_forms, phi, rho_slots_to_u, state_deformed_slots,
    state_from_v_slots, zeta_prime,
)

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)


def _field_state(grid, u_full, sf):
    u, p, r = frame_jets(grid, u_full)
    return state_from_u_slots(u, p, r, profile(sf))


# --------------------------------------------------------------- identities

def test_gamma_squares_to_metric_random_states(rng):
    for sf in (E, S, H):
        amb = profile(sf)
        u, p, r = random_admissible_slots(rng, 2, amb, count=200)
        st = state_from_u_slots(u, p, r, amb)
        g_down, gamma_down = lowered_forms(st)
        gg = np.einsum("nik,nkj->nij", gamma_down, gamma_down)
        assert np.max(np.abs(gg - g_down)) < 1e-12
        inv = np.einsum("nik,nkj->nij", st.gamma_up, gamma_down)
        assert np.max(np.abs(inv - np.eye(2))) < 1e-12
        ginv = np.einsum("nik,nkj->nij", st.g_up, g_down)
        assert np.max(np.abs(ginv - np.eye(2))) < 1e-12


def test_identities_on_fields(rng, cap_grid):
    for sf in (E, S, H):
        for _ in range(3):
            u_full = random_admissible_u_field(cap_grid, sf, rng)
            st = _field_state(cap_grid, u_full, sf)
            g_down, gamma_down = lowered_forms(st)
            gg = np.einsum("nik,nkj->nij", gamma_down, gamma_down)
            assert np.max(np.abs(gg - g_down)) < 1e-12
            inv = np.einsum("nik,nkj->nij", st.gamma_up, gamma_down)
            assert np.max(np.abs(inv - np.eye(2))) < 1e-12


def test_a_symmetric_kappa_descending(rng):
    u, p, r = random_admissible_slots(rng, 3, profile(E), count=100)
    st = state_from_u_slots(u, p, r, profile(E))
    assert np.max(np.abs(st.a - np.swapaxes(st.a, 1, 2))) < 1e-14
    assert np.all(np.diff(st.kappa, axis=1) <= 1e-14)
    Q = eigh_descending(st.a)[1]
    recon = np.einsum("nik,nk,njk->nij", Q, st.kappa, Q)
    assert np.max(np.abs(recon - st.a)) < 1e-12


# --------------------------------------------------------------- sphere oracles

def test_geodesic_sphere_curvatures_exact(cap_grid):
    # constant rho = r: FD terms vanish identically, kappa = phi'/phi exactly
    cases = [
        (E, 2.0, 1.0 / 2.0),
        (H, 0.7, np.cosh(0.7) / np.sinh(0.7)),
        (S, 0.6, np.cos(0.6) / np.sin(0.6)),
    ]
    for sf, r, expect in cases:
        u_full = np.full(cap_grid.n_nodes, float(zeta_inverse(sf, r)))
        st = _field_state(cap_grid, u_full, sf)
        assert np.max(np.abs(st.kappa - expect)) < 1e-12
        assert np.max(np.abs(st.tau - (1.0 / expect) * st.phi * expect)) < 1e-12


def test_geodesic_sphere_tau(cap_grid):
    # radial normal: tau = phi(r)
    for sf, r in ((E, 2.0), (H, 0.7), (S, 0.6)):
        u_full = np.full(cap_grid.n_nodes, float(zeta_inverse(sf, r)))
        st = _field_state(cap_grid, u_full, sf)
        assert np.max(np.abs(st.tau - phi(sf, r))) < 1e-13


def _off_center_sphere_rho(grid, R, c_vec):
    z = ch.embed(grid.chart, grid.coords)
    cz = z @ c_vec
    return cz + np.sqrt(R**2 - c_vec @ c_vec + cz**2)


def test_off_center_sphere_second_order():
    R = 1.0
    c_vec = np.array([0.0, 0.0, 0.3])
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = grids.build_cap_domain(np.pi / 5, h)
        rho = _off_center_sphere_rho(g, R, c_vec)
        st = _field_state(g, 1.0 / rho, E)
        errs.append(np.max(np.abs(st.kappa - 1.0 / R)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_off_center_sphere_embedding_and_tau():
    # analytic first-order jets feed the state; tau must match <x, nu> of the
    # ambient sphere to rounding
    R = 1.0
    c_vec = np.array([0.0, 0.0, 0.3])
    g = grids.build_cap_domain(np.pi / 5, 0.05)
    y = g.interior_coords()
    eps = 1e-20

    def rho_of(yy):
        z = ch.embed(g.chart, yy)
        cz = z @ c_vec
        return cz + np.sqrt(R**2 - c_vec @ c_vec + cz**2)

    rho = rho_of(y)
    # complex-step first derivatives of the chart composition
    p_coord = np.empty((y.shape[0], 2))
    for i in range(2):
        yy = y.astype(complex).copy()
        yy[:, i] += 1j * eps
        mu = np.sqrt(1 + np.sum(yy * yy, axis=1))
        z = (yy @ g.chart.tangent_basis.T.astype(complex) + g.chart.center) / mu[:, None]
        cz = z @ c_vec.astype(complex)
        val = cz + np.sqrt(R**2 - c_vec @ c_vec + cz**2)
        p_coord[:, i] = val.imag / eps
    B = ch.inv_sqrt_metric(g.chart, y)
    p_frame = np.einsum("nij,nj->ni", B, p_coord)
    u, p_u, _ = rho_slots_to_u(rho, p_frame, np.zeros((len(y), 2, 2)), E)
    st = state_from_u_slots(u, p_u, np.zeros((len(y), 2, 2)), profile(E))
    # ambient check: x on the sphere, nu = (x - c)/R, tau = <x, nu>
    x = ch.embed(g.chart, y) * rho[:, None]
    assert np.max(np.abs(np.linalg.norm(x - c_vec, axis=1) - R)) < 1e-12
    nu = (x - c_vec) / R
    tau_ambient = np.einsum("ni,ni->n", x, nu)
    assert np.max(np.abs(st.tau - tau_ambient)) < 1e-8


def test_normal_is_unit(rng, cap_grid):
    # the normal that psi reads: the nu_rad and nu_tan* variables of the bundle
    for sf in (E, S, H):
        op = DiscreteOperator(cap_grid, profile(sf), rep="u", sf=sf)
        ev = op.evaluate(random_admissible_u_field(cap_grid, sf, rng), need_f=False)
        bundle = op.bundle(ev)
        nu_tan = np.stack([bundle["nu_tan1"], bundle["nu_tan2"]], axis=1)
        # |nu|^2 in the warped metric: phi^2 |tan|^2 + rad^2 = 1
        norm2 = ev.state.phi**2 * np.einsum("ni,ni->n", nu_tan, nu_tan) + bundle["nu_rad"]**2
        assert np.max(np.abs(norm2 - 1.0)) < 1e-12
        assert np.all(ev.state.tau > 0)


# --------------------------------------------------------------- representations

def test_cross_representation_kappa(rng):
    for sf in (E, S, H):
        v = rng.uniform(0.4, 1.2, 150)
        p_v = rng.normal(0.0, 0.4, (150, 2))
        r_v = rng.normal(0.0, 0.5, (150, 2, 2))
        r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
        st_v = state_from_v_slots(v, p_v, r_v, sf)
        keep = st_v.kappa[:, -1] > 1e-3  # compare on strictly convex states
        u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
        st_u = state_from_u_slots(u, p_u, r_u, profile(sf))
        assert np.max(np.abs(st_v.kappa[keep] - st_u.kappa[keep])) < 1e-9
        assert np.max(np.abs(st_v.a[keep] - st_u.a[keep])) < 1e-9
        # rho route
        rho = zeta(sf, u)
        zp = zeta_prime(sf, u)
        zpp = profile(sf).zeta_second_u(u)
        p_rho = zp[:, None] * p_u
        r_rho = zp[:, None, None] * r_u + zpp[:, None, None] * (
            p_u[:, :, None] * p_u[:, None, :]
        )
        st_r = state_from_u_slots(*rho_slots_to_u(rho, p_rho, r_rho, sf), profile(sf))
        assert np.max(np.abs(st_r.kappa[keep] - st_u.kappa[keep])) < 1e-9


def test_v_constant_matches_u_path(cap_grid):
    for sf in (E, S, H):
        v0 = 0.9
        v, p_v, r_v = frame_jets(cap_grid, np.full(cap_grid.n_nodes, v0))
        st_v = state_from_v_slots(v, p_v, r_v, sf)
        u_full = np.full(cap_grid.n_nodes, float(eta(sf, v0)))
        st_u = _field_state(cap_grid, u_full, sf)
        assert np.max(np.abs(st_v.kappa - st_u.kappa)) < 1e-10


def test_v_gradient_zero_gives_identity_gtilde(rng):
    v = np.array([0.8])
    p_v = np.zeros((1, 2))
    r_v = np.array([[[0.1, 0.02], [0.02, 0.3]]])
    st = state_from_v_slots(v, p_v, r_v, H)
    # with gtilde = I the curvature matrix is (eta I + eta' r)
    expect = np.cosh(0.8) * np.eye(2) + np.sinh(0.8) * r_v[0]
    assert np.max(np.abs(st.a[0] - expect)) < 1e-13


# --------------------------------------------------------------- deformed family

def test_deformed_endpoints(rng):
    u, p, r = random_admissible_slots(rng, 2, profile(E), count=120)
    st0 = state_deformed_slots(u, p, r, 0.0)
    st_e = state_from_u_slots(u, p, r, profile(E))
    assert np.max(np.abs(st0.kappa - st_e.kappa)) < 1e-10
    assert np.max(np.abs(st0.a - st_e.a)) < 1e-12
    st1 = state_deformed_slots(u, p, r, 1.0)
    st_s = state_from_u_slots(u, p, r, profile(S))
    assert np.max(np.abs(st1.kappa - st_s.kappa)) < 1e-10


def test_deformed_interior_matches_profile_route(rng):
    u, p, r = random_admissible_slots(rng, 2, profile(E), count=120)
    for t in (0.25, 0.6, 0.9):
        st_a = state_deformed_slots(u, p, r, t)
        st_b = state_from_u_slots(u, p, r, profile_deformed(t))
        assert np.max(np.abs(st_a.kappa - st_b.kappa)) < 1e-11
        assert np.max(np.abs(st_a.a - st_b.a)) < 1e-12


def test_deformed_range_errors(rng):
    with pytest.raises(DomainRangeError):
        state_deformed_slots(np.array([-1.0]), np.zeros((1, 2)), np.zeros((1, 2, 2)), 0.5)


def test_constant_u_deformed_kappa_is_u(rng):
    u = np.array([1.7])
    p = np.zeros((1, 2))
    r = np.zeros((1, 2, 2))
    for t in (0.0, 0.3, 1.0):
        st = state_deformed_slots(u, p, r, t)
        assert np.max(np.abs(st.kappa - 1.7)) < 1e-14


# --------------------------------------------------------------- frame independence

def test_frame_bundle_brute_force(rng):
    # the production route orthonormalizes with sigma^{-1/2}; a Cholesky frame
    # must give the same eigenvalues at the same nodes
    g = grids.build_cap_domain(np.pi / 4, 0.08)
    sf = H
    u_full = random_admissible_u_field(g, sf, rng)
    val, grad, hess_cov = grids.covariant_jets(g, u_full)
    _, B = grids.chart_quantities(g)
    sigma = ch.chart_metric(g.chart, g.interior_coords())[0]
    idx = rng.choice(len(val), size=5, replace=False)
    for i in idx:
        L = np.linalg.cholesky(sigma[i])
        C = np.linalg.inv(L.T)  # columns orthonormal w.r.t. sigma
        p1 = B[i] @ grad[i]
        r1 = B[i] @ hess_cov[i] @ B[i]
        p2 = C.T @ grad[i]
        r2 = C.T @ hess_cov[i] @ C
        st1 = state_from_u_slots(val[i : i + 1], p1[None], r1[None], profile(sf))
        st2 = state_from_u_slots(val[i : i + 1], p2[None], r2[None], profile(sf))
        assert np.max(np.abs(st1.kappa - st2.kappa)) < 1e-11
        assert abs(st1.tau[0] - st2.tau[0]) < 1e-12


def test_per_node_entry_points(cap_grid):
    # one interior node of the batched jets through the u, v and deformed routes
    sl = slice(7, 8)
    u, p, r = frame_jets(cap_grid, np.full(cap_grid.n_nodes, 0.5))
    st = state_from_u_slots(u[sl], p[sl], r[sl], profile(E))
    assert st.kappa.shape == (1, 2)
    assert np.allclose(st.kappa, 0.5)
    v, p_v, r_v = frame_jets(cap_grid, np.full(cap_grid.n_nodes, 0.8))
    st_v = state_from_v_slots(v[sl], p_v[sl], r_v[sl], H)
    assert np.all(st_v.kappa > 0)
    st_d = state_deformed_slots(u[sl], p[sl], r[sl], 0.5)
    assert np.allclose(st_d.kappa, 0.5)


def test_grid_per_node_wrappers(cap_grid):
    values = 1.5 + 0.02 * np.sin(cap_grid.coords[:, 0])
    slot = 11
    _, grad, hess = grids.covariant_jets(cap_grid, values)
    assert hess[slot].shape == (2, 2)
    conv = convexity_matrix(cap_grid, values)[slot]
    assert np.all(np.linalg.eigvalsh(conv) > 0)
    assert grad[slot].shape == (2,)
    sigma_inv = ch.chart_metric(cap_grid.chart, cap_grid.interior_coords())[1]
    gn2 = grad[slot] @ sigma_inv[slot] @ grad[slot]
    assert gn2 >= 0.0


def test_n3_sphere_oracle():
    g = grids.build_cap_domain(np.pi / 5, 0.12, n=3)
    for sf, r in ((E, 2.0), (S, 0.6)):
        u_full = np.full(g.n_nodes, float(zeta_inverse(sf, r)))
        st = _field_state(g, u_full, sf)
        expect = profile(sf).phi_prime_u(u_full[0]) / profile(sf).phi_u(u_full[0])
        assert np.max(np.abs(st.kappa - expect)) < 1e-12
