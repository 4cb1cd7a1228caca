"""Analytic coefficient blocks against finite differences; assembly checks."""

import dataclasses

import numpy as np
import pytest

from weingarten import continuity as ct
from weingarten import cli, grids, linearize, symfunc
from weingarten.errors import SemanticError
from weingarten.geometry import state_from_u_slots, v_slots_to_u
from weingarten.spaceform import (
    SpaceFormParams,
    eta_inverse,
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
    frame_jets,
    gv_chain_rule,
    state_from_v_slots,
    to_coordinate_einsum,
)

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)


def g_value(u, p, r, amb, k):
    st = state_from_u_slots(u, p, r, amb)
    return f_and_derivatives(st.kappa, k)[0]


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

def _v_states(rng, sf, count=50):
    v = rng.uniform(0.4, 1.2, count)
    p_v = rng.normal(0.0, 0.35, (count, 2))
    r_v = rng.normal(0.0, 0.35, (count, 2, 2))
    r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
    st = state_from_v_slots(v, p_v, r_v, sf)
    keep = st.kappa[:, -1] > 5e-2
    return v[keep], p_v[keep], r_v[keep]


def gv_value(v, p_v, r_v, sf, k):
    u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
    return g_value(u, p_u, r_u, profile(sf), k)


@pytest.mark.parametrize("sf", [E, S, H])
def test_v_blocks_match_fd(rng, sf):
    k = 2
    v, p_v, r_v = _v_states(rng, sf)
    u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
    st = state_from_u_slots(u, p_u, r_u, profile(sf))
    F = f_and_F(st.a)[1]
    lc = linearize.coefficients_v(st, F, v, p_v, sf, linearize.coefficients_u(st, F))
    d = 1e-6
    fd_v = (gv_value(v + d, p_v, r_v, sf, k) - gv_value(v - d, p_v, r_v, sf, k)) / (2 * d)
    assert np.max(np.abs(fd_v - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu))) < 1e-5
    for s in range(2):
        dp = np.zeros_like(p_v)
        dp[:, s] = d
        fd_s = (gv_value(v, p_v + dp, r_v, sf, k) - gv_value(v, p_v - dp, r_v, sf, k)) / (2 * d)
        assert np.max(np.abs(fd_s - lc.Gs[:, s])) / max(1.0, np.max(np.abs(lc.Gs))) < 1e-5
    for i in range(2):
        for j in range(2):
            dr = np.zeros_like(r_v)
            dr[:, i, j] += d
            dr[:, j, i] += d
            fd_ij = (
                gv_value(v, p_v, r_v + dr, sf, k) - gv_value(v, p_v, r_v - dr, sf, k)
            ) / (4 * d)
            assert np.max(np.abs(fd_ij - lc.Gij[:, i, j])) / max(
                1.0, np.max(np.abs(lc.Gij))
            ) < 1e-5


@pytest.mark.parametrize("sf", [E, H])
def test_gv_closed_form_vs_chain_rule(rng, sf):
    v, p_v, r_v = _v_states(rng, sf)
    u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
    st = state_from_u_slots(u, p_u, r_u, profile(sf))
    lc_u = linearize.coefficients_u(st, f_and_F(st.a)[1])
    gv_closed = linearize.gv_closed_form(st, f_and_F(st.a)[1], v, p_v, sf)
    gv_chain = gv_chain_rule(lc_u, sf, v, p_v, r_v)
    assert np.max(np.abs(gv_closed - gv_chain)) < 1e-9 * max(1.0, np.max(np.abs(gv_closed)))


def test_exp_chain_blocks_match_fd(rng):
    # deformed sphere path: v -> G^t[e^v]
    t = 0.6
    amb = profile_deformed(t)
    k = 2

    def val(v, p_v, r_v):
        u = np.exp(v)
        p_u = u[:, None] * p_v
        r_u = u[:, None, None] * (r_v + p_v[:, :, None] * p_v[:, None, :])
        return g_value(u, p_u, r_u, amb, k)

    v = rng.uniform(0.2, 0.9, 40)
    p_v = rng.normal(0.0, 0.3, (40, 2))
    r_v = rng.normal(0.0, 0.3, (40, 2, 2))
    r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
    u = np.exp(v)
    p_u = u[:, None] * p_v
    r_u = u[:, None, None] * (r_v + p_v[:, :, None] * p_v[:, None, :])
    st = state_from_u_slots(u, p_u, r_u, amb)
    keep = st.kappa[:, -1] > 5e-2
    v, p_v, r_v, u, p_u, r_u = (a[keep] for a in (v, p_v, r_v, u, p_u, r_u))
    st = state_from_u_slots(u, p_u, r_u, amb)
    lc_u = linearize.coefficients_u(st, f_and_F(st.a)[1])
    lc = linearize.exp_chain_blocks(lc_u, u, p_v, r_v)
    d = 1e-6
    fd_v = (val(v + d, p_v, r_v) - val(v - d, p_v, r_v)) / (2 * d)
    assert np.max(np.abs(fd_v - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu))) < 1e-5
    dp = np.zeros_like(p_v)
    dp[:, 0] = d
    fd_s = (val(v, p_v + dp, r_v) - val(v, p_v - dp, r_v)) / (2 * d)
    assert np.max(np.abs(fd_s - lc.Gs[:, 0])) / max(1.0, np.max(np.abs(lc.Gs))) < 1e-5


# ------------------------------------------------------- structural properties

def test_zero_order_sign_property(rng):
    # at states solving G[v] = psi(z) xi(v), the zero-order coefficient
    # Gv - psi xi'(v) is strictly negative (what makes stage 1 invertible)
    for sf in (E, H):
        margins = []
        for _ in range(4):
            v, p_v, r_v = _v_states(rng, sf, count=100)
            u, p_u, r_u = v_slots_to_u(v, p_v, r_v, sf)
            st = state_from_u_slots(u, p_u, r_u, profile(sf))
            f = f_and_derivatives(st.kappa, 2)[0]
            psi_z = f / xi(sf, v)
            gv = linearize.gv_closed_form(st, f_and_F(st.a)[1], v, p_v, sf)
            margins.append(np.max(gv - psi_z * xi_prime(sf, v)))
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


def test_operator_derives_the_chain_rule_blocks(rng, cap_grid):
    # the exp-chain blocks run exactly when the profile is not the space
    # form's own (ka = t^2 > 0 with eta = exp); at t = 0 the closed form holds
    x = np.log(random_admissible_u_field(cap_grid, E, rng))
    for t, expect in ((0.0, linearize.coefficients_v), (0.5, linearize.exp_chain_blocks)):
        op = ct.DiscreteOperator(cap_grid, profile_deformed(t), rep="v", sf=E)
        ev = op.evaluate(x)
        lc_u = linearize.coefficients_u(ev.state, ev.F)
        if expect is linearize.coefficients_v:
            ref = expect(ev.state, ev.F, ev.val, ev.p_v_frame, E, lc_u)
        else:
            ref = expect(lc_u, ev.u, ev.p_v_frame, ev.r_v_frame)
        lc = op.blocks(ev)
        for a, b in ((lc.Gij, ref.Gij), (lc.Gs, ref.Gs), (lc.Gu, ref.Gu)):
            assert np.array_equal(a, b)
    with pytest.raises(SemanticError):
        ct.DiscreteOperator(cap_grid, profile_deformed(0.5), rep="u", sf=E)
    with pytest.raises(SemanticError):
        ct.DiscreteOperator(cap_grid, profile(E), rep="v", sf=H)


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
    k = 2
    u_full = random_admissible_u_field(cap_grid, sf, rng)

    def residual(full):
        u, p, r = frame_jets(cap_grid, full)
        st = state_from_u_slots(u, p, r, profile(sf))
        return f_and_derivatives(st.kappa, k)[0]

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
