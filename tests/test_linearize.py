"""Analytic coefficient blocks against finite differences; assembly checks."""

import dataclasses

import numpy as np
import pytest

from weingarten import continuity as ct
from weingarten import cli, grids, linearize, symfunc
from weingarten.geometry import state_from_u_slots, v_slots_to_u
from weingarten.spaceform import (
    SpaceFormParams,
    eta_inverse,
    eta_prime,
    profile,
    profile_deformed,
    xi,
    xi_prime,
)
from weingarten.symfunc import f_and_derivatives, f_and_F
from conftest import random_admissible_slots, random_admissible_u_field
from reference import (
    F_matrix,
    assemble_jacobian_coo,
    coefficients_u_einsum,
    curvature_matrix_einsum,
    deformed_monotonicity_check,
    f_k_and_gradient,
    frame_jets,
    gv_closed_form,
    to_coordinate_einsum,
)

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)


def g_value(u, p, r, amb, k):
    st = state_from_u_slots(u, p, r, amb)
    return f_k_and_gradient(st.kappa, k)[0]


def fd_blocks(u, p, r, amb, k, d=1e-6):
    n = p.shape[1]
    fd_u = (g_value(u + d, p, r, amb, k) - g_value(u - d, p, r, amb, k)) / (2 * d)
    fd_p = np.zeros_like(p)
    for s in range(n):
        dp = np.zeros_like(p)
        dp[:, s] = d
        fd_p[:, s] = (g_value(u, p + dp, r, amb, k) - g_value(u, p - dp, r, amb, k)) / (2 * d)
    fd_r = np.zeros_like(r)
    for i in range(n):
        for j in range(n):
            dr = np.zeros_like(r)
            dr[:, i, j] += d
            dr[:, j, i] += d
            fd_r[:, i, j] = (
                g_value(u, p, r + dr, amb, k) - g_value(u, p, r - dr, amb, k)
            ) / (4 * d)
    return fd_r, fd_p, fd_u


@pytest.mark.parametrize("sf", [E, S, H])
def test_u_blocks_match_fd(rng, sf):
    amb = profile(sf)
    for n, k in ((2, 2), (3, 3), (3, 2)):
        u, p, r = random_admissible_slots(rng, n, amb, count=50)
        st = state_from_u_slots(u, p, r, amb)
        # f_and_F is sigma_n's; the blocks take any F, so k < n uses the eigen route
        F = f_and_F(st.a)[1] if k == n else F_matrix(st.a, k)
        lc = linearize.coefficients_u(st, F)
        fd_r, fd_p, fd_u = fd_blocks(u, p, r, amb, k)
        assert np.max(np.abs(fd_r - lc.Gij)) / max(1.0, np.max(np.abs(lc.Gij))) < 1e-5
        assert np.max(np.abs(fd_p - lc.Gs)) / max(1.0, np.max(np.abs(lc.Gs))) < 1e-5
        assert np.max(np.abs(fd_u - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu))) < 1e-5


def test_deformed_blocks_match_fd(rng):
    for t in (0.3, 0.75):
        amb = profile_deformed(t)
        u, p, r = random_admissible_slots(rng, 2, amb, count=40)
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        fd_r, fd_p, fd_u = fd_blocks(u, p, r, amb, 2)
        assert np.max(np.abs(fd_r - lc.Gij)) / max(1.0, np.max(np.abs(lc.Gij))) < 1e-5
        assert np.max(np.abs(fd_p - lc.Gs)) / max(1.0, np.max(np.abs(lc.Gs))) < 1e-5
        assert np.max(np.abs(fd_u - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu))) < 1e-5


def test_gs_vanishes_at_zero_gradient(rng):
    for sf in (E, S, H):
        amb = profile(sf)
        u, _, r = random_admissible_slots(rng, 2, amb, count=10)
        p = np.zeros((10, 2))
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        assert np.max(np.abs(lc.Gs)) < 1e-14


def test_gij_positive_definite(rng):
    for sf in (E, S, H):
        amb = profile(sf)
        u, p, r = random_admissible_slots(rng, 2, amb, count=100)
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        assert np.min(np.linalg.eigvalsh(lc.Gij)) > 0


def test_gu_bound_from_trace(rng):
    # |Gu| <= C (1 + sum G^{ii}) with the empirical C over a C^1 box recorded
    for sf in (E, S, H):
        amb = profile(sf)
        u, p, r = random_admissible_slots(rng, 2, amb, count=200)
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        ratio = np.abs(lc.Gu) / (1.0 + np.einsum("nii->n", lc.Gij))
        assert np.all(np.isfinite(ratio))
        assert ratio.max() < 50.0  # states are drawn from a bounded C^1 box
        gs_linf = np.max(np.abs(lc.Gs))
        assert np.isfinite(gs_linf)


# ------------------------------------------------------------------ v-form

def _v_states(rng, sf, n=2, count=50, amb=None):
    """Random v-slots whose graph over amb (default: sf's profile) has kappa_min > 5e-2."""
    v = rng.uniform(0.4, 1.2, count)
    p_v = rng.normal(0.0, 0.35, (count, n))
    r_v = rng.normal(0.0, 0.35, (count, n, n))
    r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
    st = state_from_u_slots(*v_slots_to_u(v, p_v, r_v, sf), profile(sf) if amb is None else amb)
    keep = st.kappa[:, -1] > 5e-2
    return v[keep], p_v[keep], r_v[keep]


def v_blocks(v, p_v, r_v, sf, amb):
    """The library's v-blocks and the u-state they come from."""
    u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
    st = state_from_u_slots(u, p_u, r_u, amb)
    lc_u = linearize.coefficients_u(st, f_and_F(st.a)[1])
    return linearize.coefficients_v(lc_u, u, eta_prime(sf, v), p_v, r_v), st


# the deformed sphere path runs eta = exp (K = 0) over the ka = t^2 profile
@pytest.mark.parametrize("sf, t", [(E, None), (S, None), (H, None), (E, 0.6)],
                         ids=["sf0", "sf1", "sf2", "deformed"])
def test_v_blocks_match_fd(rng, sf, t):
    amb = profile(sf) if t is None else profile_deformed(t)
    d = 1e-6
    for n in (2, 3):
        k = n
        v, p_v, r_v = _v_states(rng, sf, n, amb=amb)
        assert len(v) >= 10
        lc, _ = v_blocks(v, p_v, r_v, sf, amb)

        def G(vv, pp, rr):
            return g_value(*v_slots_to_u(vv, pp, rr, sf), amb, k)

        fd_v = (G(v + d, p_v, r_v) - G(v - d, p_v, r_v)) / (2 * d)
        assert np.max(np.abs(fd_v - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu))) < 1e-5
        for s in range(n):
            dp = np.zeros_like(p_v)
            dp[:, s] = d
            fd_s = (G(v, p_v + dp, r_v) - G(v, p_v - dp, r_v)) / (2 * d)
            assert np.max(np.abs(fd_s - lc.Gs[:, s])) / max(1.0, np.max(np.abs(lc.Gs))) < 1e-5
        for i in range(n):
            for j in range(n):
                dr = np.zeros_like(r_v)
                dr[:, i, j] += d
                dr[:, j, i] += d
                fd_ij = (G(v, p_v, r_v + dr) - G(v, p_v, r_v - dr)) / (4 * d)
                assert np.max(np.abs(fd_ij - lc.Gij[:, i, j])) / max(
                    1.0, np.max(np.abs(lc.Gij))
                ) < 1e-5


@pytest.mark.parametrize("sf", [E, S, H])
def test_gv_closed_form_vs_chain_rule(rng, sf):
    for n in (2, 3):
        v, p_v, r_v = _v_states(rng, sf, n)
        lc, st = v_blocks(v, p_v, r_v, sf, profile(sf))
        gv_closed = gv_closed_form(st, f_and_F(st.a)[1], v, p_v, sf)
        assert np.max(np.abs(lc.Gu - gv_closed)) <= 1e-13 * np.max(np.abs(gv_closed))


# ------------------------------------------------------- structural properties

def test_zero_order_sign_property(rng):
    # at states solving G[v] = psi(z) xi(v), the zero-order coefficient
    # Gv - psi xi'(v) is strictly negative (what makes stage 1 invertible)
    for sf in (E, H):
        margins = []
        for _ in range(4):
            v, p_v, r_v = _v_states(rng, sf, count=100)
            lc, st = v_blocks(v, p_v, r_v, sf, profile(sf))
            f = f_and_derivatives(st.kappa)[0]
            psi_z = f / xi(sf, v)
            margins.append(np.max(lc.Gu - psi_z * xi_prime(sf, v)))
        assert max(margins) < 0.0


def test_concavity_in_hessian_slot(rng):
    amb = profile(E)
    k = 2
    u, p, r1 = random_admissible_slots(rng, 2, amb, count=200)
    # second Hessian slot paired with the same (u, p): r2 + u I stays definite
    r2 = np.empty_like(r1)
    for i in range(len(u)):
        B = rng.normal(0.0, 0.4, (2, 2))
        r2[i] = B @ B.T + 0.1 * np.eye(2) - u[i] * np.eye(2)
    g1 = g_value(u, p, r1, amb, k)
    g2 = g_value(u, p, r2, amb, k)
    gm = g_value(u, p, 0.5 * (r1 + r2), amb, k)
    assert np.min(gm - 0.5 * (g1 + g2)) > -1e-10


def test_monotonicity_in_t(rng):
    u, p, r = random_admissible_slots(rng, 2, profile(E), count=50)
    rep = deformed_monotonicity_check(u, p, r, [0.0, 0.25, 0.5, 0.75, 1.0], 2)
    assert rep["monotone"]
    assert rep["worst_decrease"] >= -1e-12
    assert rep["min_t_derivative"] >= -1e-10


def test_monotonicity_zero_gradient_is_flat(rng):
    u = rng.uniform(1.0, 2.0, 20)
    p = np.zeros((20, 2))
    r = np.zeros((20, 2, 2))
    rep = deformed_monotonicity_check(u, p, r, [0.0, 0.5, 1.0], 2)
    vals = rep["values"]
    assert np.max(np.abs(vals - vals[0])) < 1e-13


@pytest.mark.parametrize("case", ["u", "v", "exp_eta"])
def test_blocks_read_the_evaluation(rng, cap_grid, monkeypatch, case):
    # F comes with the operator evaluation; the blocks never recompute it
    sf = E if case == "exp_eta" else H
    u_full = random_admissible_u_field(cap_grid, sf, rng)
    if case == "u":
        op, field = ct.DiscreteOperator(cap_grid, profile(sf), rep="u", sf=sf), u_full
    elif case == "v":
        op, field = ct.DiscreteOperator(cap_grid, profile(sf), rep="v", sf=sf), eta_inverse(sf, u_full)
    else:
        op = ct.DiscreteOperator(cap_grid, profile_deformed(0.5), rep="v", sf=sf)
        field = np.log(u_full)
    ev = op.evaluate(field)
    assert ev is not None

    def refuse(*args, **kwargs):
        raise AssertionError("f or its derivative computed while building blocks")

    monkeypatch.setattr(symfunc, "f_and_derivatives", refuse)
    for module in (symfunc, ct, cli):
        monkeypatch.setattr(module, "f_and_F", refuse)
    lc = op.blocks(ev)
    assert np.all(np.isfinite(lc.Gu)) and np.min(np.linalg.eigvalsh(lc.Gij)) > 0


# ------------------------------------ batched matmul against the einsum forms

def _close(x, ref, rel=1e-13):
    return np.max(np.abs(x - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3])
def test_curvature_matrix_matches_einsum_reference(rng, n):
    amb = profile(H)
    u, p, r = random_admissible_slots(rng, n, amb, count=200)
    r = r + 0.3 * rng.normal(size=r.shape)
    st = state_from_u_slots(u, p, r, amb)
    assert _close(st.a, curvature_matrix_einsum(st, r))


@pytest.mark.parametrize("n", [2, 3])
def test_u_blocks_match_einsum_reference(rng, n):
    # gamma, a and F without symmetry: a transposed operand fails
    amb = profile(S)
    u, p, r = random_admissible_slots(rng, n, amb, count=200)
    st = state_from_u_slots(u, p, r, amb)
    F = f_and_F(st.a)[1] + 0.3 * rng.normal(size=st.a.shape)
    st = dataclasses.replace(
        st, **{name: getattr(st, name) + 0.3 * rng.normal(size=st.a.shape)
               for name in ("gamma_up", "a")})
    lc, ref = linearize.coefficients_u(st, F), coefficients_u_einsum(st, F)
    for x, y in ((lc.Gij, ref.Gij), (lc.Gs, ref.Gs), (lc.Gu, ref.Gu)):
        assert _close(x, y)


@pytest.mark.parametrize("n", [2, 3])
def test_frame_contractions_match_einsum_reference(rng, n):
    # the cached frame B is made non-symmetric, so B H B and B^T H B differ
    grid = grids.build_cap_domain(np.pi / 5, 0.12, n=n)
    *rest, B = grids.chart_quantities(grid)
    grid._jet_cache["chart_quantities"] = (*rest, B + 0.2 * rng.normal(size=B.shape))
    u_full = random_admissible_u_field(grid, H, rng)
    ev = ct.DiscreteOperator(grid, profile(H), rep="u", sf=H).evaluate(u_full, need_f=False)
    assert _close(ev.r_u, frame_jets(grid, u_full)[2])
    m = grid.n_interior
    lc = linearize.LinearizedCoefficients(
        Gij=rng.normal(size=(m, n, n)), Gs=rng.normal(size=(m, n)), Gu=rng.normal(size=m))
    A2, b1, _ = linearize.to_coordinate(lc, grid)
    A2_ref, b1_ref = to_coordinate_einsum(lc, grid)
    assert _close(A2, A2_ref) and _close(b1, b1_ref)


# -------------------------------------------------------------- assembly

def test_manufactured_linear_round_trip(rng, cap_grid):
    import scipy.sparse.linalg as spla

    sf = E
    u_full = random_admissible_u_field(cap_grid, sf, rng)
    u, p, r = frame_jets(cap_grid, u_full)
    st = state_from_u_slots(u, p, r, profile(sf))
    lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
    A2, b1, c = linearize.to_coordinate(lc, cap_grid)
    J = linearize.assemble_jacobian(cap_grid, A2, b1, c)
    delta = np.sin(cap_grid.interior_coords() @ np.array([1.3, -0.7]))
    rhs = J @ delta
    sol = spla.splu(J.tocsc()).solve(rhs)
    assert np.max(np.abs(sol - delta)) < 1e-10


def test_jacobian_matches_fd_directional(rng, cap_grid):
    # directional FD of the assembled residual map validates the full
    # coordinate-level chain (frame transforms + Christoffel folding)
    sf = H
    u_full = random_admissible_u_field(cap_grid, sf, rng)

    def residual(full):
        u, p, r = frame_jets(cap_grid, full)
        st = state_from_u_slots(u, p, r, profile(sf))
        return f_and_derivatives(st.kappa)[0]

    u, p, r = frame_jets(cap_grid, u_full)
    st = state_from_u_slots(u, p, r, profile(sf))
    lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
    A2, b1, c = linearize.to_coordinate(lc, cap_grid)
    J = linearize.assemble_jacobian(cap_grid, A2, b1, c)
    rng2 = np.random.default_rng(7)
    direction = rng2.normal(0.0, 1.0, cap_grid.n_interior)
    full_dir = np.zeros(cap_grid.n_nodes)
    full_dir[cap_grid.interior_ids] = direction
    d = 1e-6
    fd = (residual(u_full + d * full_dir) - residual(u_full - d * full_dir)) / (2 * d)
    assert np.max(np.abs(J @ direction - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_second_order_block_negative_definite(rng):
    # spectral check at small size: the assembled second-order operator of an
    # admissible state has negative-definite symmetric part
    g = grids.build_cap_domain(np.pi / 4, 0.12)
    sf = E
    u_full = random_admissible_u_field(g, sf, rng)
    u, p, r = frame_jets(g, u_full)
    st = state_from_u_slots(u, p, r, profile(sf))
    lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
    A2, _, _ = linearize.to_coordinate(lc, g)
    J2 = linearize.assemble_jacobian(g, A2, np.zeros_like(p), np.zeros_like(u))
    dense = J2.toarray()
    sym = 0.5 * (dense + dense.T)
    assert np.max(np.linalg.eigvalsh(sym)) < 0.0


def test_zero_residual_zero_update(rng, cap_grid):
    import scipy.sparse.linalg as spla

    sf = E
    u_full = random_admissible_u_field(cap_grid, sf, rng)
    u, p, r = frame_jets(cap_grid, u_full)
    st = state_from_u_slots(u, p, r, profile(sf))
    lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
    A2, b1, c = linearize.to_coordinate(lc, cap_grid)
    J = linearize.assemble_jacobian(cap_grid, A2, b1, c)
    residual = np.zeros(cap_grid.n_interior)
    assert np.max(np.abs(spla.splu(J.tocsc()).solve(-residual))) == 0.0


def test_assembly_matches_the_coo_route(rng, cap_grid):
    # the cached CSC pattern stores exactly what COO -> CSR -> CSC stores,
    # explicit zeros included (A2 is diagonal, so corner entries are 0.0)
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:6] = True
    mask[6:10, 2:10] = True
    l_shape = grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]))
    for g in (cap_grid, l_shape, grids.build_cap_domain(np.pi / 5, 0.12, n=3)):
        n, m = g.dim, g.n_interior
        A2 = np.einsum("ni,ij->nij", rng.normal(size=(m, n)), np.eye(n))
        b1, c = rng.normal(size=(m, n)), rng.normal(size=m)
        J = linearize.assemble_jacobian(g, A2, b1, c)
        ref = assemble_jacobian_coo(g, A2, b1, c).tocsc()
        assert J.format == "csc" and J.shape == ref.shape
        for a, b in ((J.indptr, ref.indptr), (J.indices, ref.indices), (J.data, ref.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        again = linearize.assemble_jacobian(g, 2.0 * A2, b1, c)
        assert np.shares_memory(again.indices, J.indices)
        assert np.shares_memory(again.indptr, J.indptr)
        assert not np.shares_memory(again.data, J.data)
