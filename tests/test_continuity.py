"""Newton solver, subsolution gate, continuation drivers, diagnostics."""

import numpy as np
import pytest

from weingarten import charts as ch
from weingarten import continuity as ct
from weingarten import grids
from weingarten.spaceform import (
    SpaceFormParams, eta, profile, profile_deformed, zeta, zeta_inverse,
)

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)


def const_psi(value):
    return lambda b: np.full_like(b["u"], value)


def cap(h=0.08, theta0=np.pi / 5):
    return grids.build_cap_domain(theta0, h)


def off_center_rho(grid, R, c3):
    z = ch.embed(grid.chart, grid.coords)
    cz = c3 * z[:, 2]
    return cz + np.sqrt(R**2 - c3**2 + cz**2)


def smaller_sphere_rho(grid, theta0, rho_boundary, R_small):
    """Sphere through the boundary circle, center on the axis, origin inside."""
    disc = np.sqrt(R_small**2 - (rho_boundary * np.sin(theta0)) ** 2)
    d = rho_boundary * np.cos(theta0) - disc
    z = ch.embed(grid.chart, grid.coords)
    cz = d * z[:, 2]
    return cz + np.sqrt(R_small**2 - d**2 + cz**2)


def k0_sphere_problem(h=0.08, R=1.0, c3=0.3, R_small=0.9, theta0=np.pi / 5):
    g = cap(h, theta0)
    rho_exact = off_center_rho(g, R, c3)
    rho_G = float(off_center_rho_at_angle(theta0, R, c3))
    rho_sub = smaller_sphere_rho(g, theta0, rho_G, R_small)
    spec = ct.ProblemSpec(
        sf=E, k=2, grid=g, psi_sigma=const_psi(1.0 / R**2),
        boundary_rho=rho_exact, subsolution_rho=rho_sub,
    )
    return spec, rho_exact


def off_center_rho_at_angle(theta, R, c3):
    cz = c3 * np.cos(theta)
    return cz + np.sqrt(R**2 - c3**2 + cz**2)


def geodesic_problem(sf, r, h=0.08, theta0=np.pi / 5):
    g = cap(h, theta0)
    rho = np.full(g.n_nodes, float(r))
    phi_ratio = float(profile(sf).phi_prime_u(zeta_inverse(sf, r)) / profile(sf).phi_u(zeta_inverse(sf, r)))
    psi = phi_ratio**2
    return ct.ProblemSpec(
        sf=sf, k=2, grid=g, psi_sigma=const_psi(psi),
        boundary_rho=rho, subsolution_rho=rho,
    )


# ------------------------------------------------------------ verification

def test_verify_subsolution_equality_case():
    spec = geodesic_problem(H, 0.7)
    rep = ct.verify_subsolution(spec)
    assert rep["ok"]
    assert abs(rep["inequality_margin"]) < 1e-12
    assert rep["boundary_mismatch"] == 0.0


def test_verify_subsolution_smaller_sphere_passes():
    spec, _ = k0_sphere_problem()
    rep = ct.verify_subsolution(spec)
    assert rep["ok"]
    assert rep["inequality_margin"] > 0.05
    assert rep["convexity_margin"] > 0.5


def test_verify_subsolution_rejects_saddle():
    g = cap()
    y = g.coords
    rho_sub = 1.0 / (1.5 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2))
    spec = ct.ProblemSpec(
        sf=E, k=2, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=rho_sub, subsolution_rho=rho_sub,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"]
    assert rep["worst_node"] is not None
    assert any("convex" in r for r in rep["reasons"])


def test_verify_subsolution_rejects_violated_inequality():
    # geodesic sphere but psi demands more curvature than the graph has
    spec = geodesic_problem(E, 2.0)
    spec = ct.ProblemSpec(
        sf=E, k=2, grid=spec.grid, psi_sigma=const_psi(10.0),
        boundary_rho=spec.boundary_rho, subsolution_rho=spec.subsolution_rho,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"]
    assert any("psi" in r for r in rep["reasons"])


def test_verify_subsolution_rejects_boundary_mismatch():
    g = cap()
    rho = np.full(g.n_nodes, 2.0)
    spec = ct.ProblemSpec(
        sf=E, k=2, grid=g, psi_sigma=const_psi(0.2),
        boundary_rho=rho, subsolution_rho=rho * 1.5,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"]


# ------------------------------------------------------------ newton

def test_newton_fixed_point_converges_immediately():
    spec = geodesic_problem(E, 2.0)
    g = spec.grid
    v_exact = np.full(g.n_nodes, float(np.log(zeta_inverse(E, 2.0))))
    field = grids.GraphField(g, v_exact, "v")
    rhs = ct.ConstantRhs(np.full(g.n_interior, 0.5))
    out, res = ct.newton_solve(spec, rhs, field)
    assert res.status == ct.CONVERGED
    assert res.iterations <= 2
    assert res.residual < 1e-12


def test_newton_quadratic_tail():
    # centered-sphere problem from a displaced start: the damped iteration
    # enters the quadratic basin (tail order >= 1.5)
    spec = geodesic_problem(E, 2.0, h=0.05)
    g = spec.grid
    u_exact = float(zeta_inverse(E, 2.0))
    v_full = np.full(g.n_nodes, np.log(u_exact))
    op = ct.DiscreteOperator(g, 2, profile(E), rep="v", sf=E)
    # smooth perturbation with a cubic cutoff so the composed start stays
    # admissible against the constant boundary trace
    r_cap = np.tan(np.pi / 5)
    cut = np.maximum(0.0, 1.0 - np.sum(g.coords**2, axis=1) / r_cap**2) ** 3
    bump = cut * np.cos(g.coords @ np.array([1.0, 0.6]))
    amp = 0.4
    start = None
    for _ in range(20):
        trial = v_full.copy()
        trial[g.interior_ids] += amp * bump[g.interior_ids]
        ev = op.evaluate(trial)
        if ev is not None and op.admissible(ev, 1e-8):
            start = trial
            break
        amp *= 0.5
    assert start is not None and amp > 1e-3
    rhs = ct.ConstantRhs(np.full(g.n_interior, u_exact))
    cfg = ct.HomotopyConfig(newton_tol=1e-13, max_newton=40)
    res = ct.newton_core(op, rhs, start[g.interior_ids], v_full, cfg)
    assert res.status == ct.CONVERGED
    hist = np.array(res.history)
    hist = hist[hist > 1e-14]
    tail = hist[-3:]
    if len(tail) == 3 and tail[-1] > 0:
        order = np.log(tail[2] / tail[1]) / np.log(tail[1] / tail[0])
        assert order > 1.5


def test_newton_rejects_inadmissible_start():
    spec = geodesic_problem(E, 2.0)
    g = spec.grid
    y = g.coords
    v_bad = np.log(1.0 / (1.5 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2)))
    field = grids.GraphField(g, -v_bad, "v")  # wildly non-convex
    rhs = ct.ConstantRhs(np.full(g.n_interior, 0.5))
    out, res = ct.newton_solve(spec, rhs, field)
    assert res.status in (ct.ADMISSIBILITY_LOSS, ct.MAX_ITERATIONS)


def test_newton_experimental_k1():
    # k < n single solve: mean-curvature-type equation f = sigma_1 on a graph
    g = cap()
    spec = ct.ProblemSpec(
        sf=E, k=1, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=np.full(g.n_nodes, 1.0),
        subsolution_rho=np.full(g.n_nodes, 1.0),
    )
    v_full = np.full(g.n_nodes, 0.0)  # u = 1, kappa = (1,1), sigma_1 = 2
    field = grids.GraphField(g, v_full, "v")
    rhs = ct.ConstantRhs(np.full(g.n_interior, 2.0))
    out, res = ct.newton_solve(spec, rhs, field)
    assert res.status == ct.CONVERGED


# ------------------------------------------------------------ stage drivers

def test_stage1_t0_returns_subsolution():
    spec = geodesic_problem(H, 0.7)
    plan = ct.plan_stage_constants(spec, ct.HomotopyConfig())
    v0, status, records = ct.stage1_path(spec, ct.HomotopyConfig(), plan)
    assert status == ct.CONVERGED
    assert records[0]["t"] == 0.0
    assert records[0]["newton_iterations"] == 0  # vbar solves the t=0 problem
    assert all(r.get("ordering_ok", True) for r in records)
    # invertibility sign along the auxiliary stage
    assert all(r["zero_order_negative"] for r in records)


def test_stage1_ordering_and_endpoint(rng):
    spec, _ = k0_sphere_problem(h=0.06)
    cfg = ct.HomotopyConfig()
    plan = ct.plan_stage_constants(spec, cfg)
    v0, status, records = ct.stage1_path(spec, cfg, plan)
    assert status == ct.CONVERGED
    assert all(r["ordering_min_gap"] >= -1e-10 for r in records if "ordering_min_gap" in r)
    # endpoint solves G[v] = eps xi(v)
    op = plan["op"]
    ev = op.evaluate(v0.values)
    from weingarten.spaceform import xi

    resid = ev.f - plan["epsilon"] * xi(spec.sf, ev.val)
    assert np.max(np.abs(resid)) < 1e-9


@pytest.mark.parametrize("sf_case", ["euclidean", "hyperbolic"])
def test_stage1_uniqueness_probe(sf_case):
    # two admissible warm starts at interior t converge to the same solution
    if sf_case == "euclidean":
        spec, _ = k0_sphere_problem(h=0.06)
    else:
        spec = geodesic_problem(H, 0.7, h=0.06)
    cfg = ct.HomotopyConfig()
    plan = ct.plan_stage_constants(spec, cfg)
    g = spec.grid
    v_sub = plan["v_sub"]
    op = plan["op"]
    q, eps = plan["q"], plan["epsilon"]
    x_prev = v_sub[g.interior_ids]
    for t in (0.25, 0.5, 0.75):
        rhs = ct.XiWeightedRhs(spec.sf, (1.0 - t) * q + t * eps)
        res_a = ct.newton_core(op, rhs, x_prev, v_sub, cfg)
        res_b = ct.newton_core(op, rhs, v_sub[g.interior_ids], v_sub, cfg)
        assert res_a.status == ct.CONVERGED and res_b.status == ct.CONVERGED
        assert np.max(np.abs(res_a.x - res_b.x)) < 1e-8
        assert np.min(res_a.x - v_sub[g.interior_ids]) >= -1e-10
        x_prev = res_a.x


def test_stage2_endpoint_consistency_and_solution():
    spec, rho_exact = k0_sphere_problem(h=0.05)
    cfg = ct.HomotopyConfig()
    field, report = ct.solve_two_step(spec, cfg)
    assert report.status == ct.CONVERGED
    stage2 = [r for r in report.stages if r["stage"] == "stage2"]
    assert stage2[0]["newton_iterations"] <= 2  # v0 solves the handoff problem
    assert report.final_residual < 1e-9
    u = eta(E, field.values)
    rho_num = zeta(E, u)
    err = np.abs(rho_num - rho_exact)[spec.grid.interior_ids].max()
    assert err < 5e-4  # O(h^2) at h = 0.05
    assert report.diagnostics["final"]["min_kappa"] > 0
    assert report.diagnostics["hopf_min_inward_slope"] > 0


def test_stage2_gradient_dependent_psi():
    # psi = c (1 + 0.1 / sqrt(1 + |Dv|^2)): nu-style dependence through the
    # bundle.  Boundary data = subsolution trace; sigma_2 of the subsolution
    # (1/1.472^2 = 0.4615) dominates max psi = 1.1/1.6^2 = 0.43.
    g = cap(0.07)
    rho = np.full(g.n_nodes, 1.472)

    def psi(b):
        w = np.sqrt(1.0 + b["gradnorm"] ** 2)
        return (1.0 / 1.6**2) * (1.0 + 0.1 / w)

    spec = ct.ProblemSpec(sf=E, k=2, grid=g, psi_sigma=psi,
                          boundary_rho=rho, subsolution_rho=rho)
    rep = ct.verify_subsolution(spec)
    assert rep["ok"], rep["reasons"]
    field, report = ct.solve_two_step(spec)
    assert report.status == ct.CONVERGED
    assert report.final_residual < 1e-9
    # the graph moved off the subsolution (psi < curvature of the subsolution)
    assert np.max(field.values[g.interior_ids] - np.log(1.0 / 1.472)) > 1e-3


def k0_bridge_leg(nodes_across):
    """Stage 1 of the off-centre K = 0 problem and the bridge leg that follows it."""
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / (nodes_across - 1))
    g = spec.grid
    plan = ct.plan_stage_constants(spec, ct.HomotopyConfig())
    v0, status, _ = ct.stage1_path(spec, ct.HomotopyConfig(), plan)
    assert status == ct.CONVERGED
    delta = np.zeros(g.n_nodes)
    delta[g.boundary_ids] = (ct._boundary_v(spec) - v0.values)[g.boundary_ids]
    rhs = ct.XiWeightedRhs(spec.sf, np.full(g.n_interior, plan["epsilon"]))
    return plan["op"], rhs, lambda s: v0.values + s * delta, v0.values[g.interior_ids]


def test_euler_predictor_is_second_order():
    # x(dt) - x(0) - dt x'(0) = O(dt^2): the error quarters as dt halves
    op, rhs, boundary_at, x = k0_bridge_leg(21)
    cfg = ct.HomotopyConfig()
    tangent = ct.euler_tangent(lambda s: op, lambda s: rhs, boundary_at, x, 0.0, cfg)
    assert tangent is not None
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        res = ct.newton_core(op, rhs, x + dt * tangent, boundary_at(dt), cfg)
        assert res.status == ct.CONVERGED
        errs.append(float(np.max(np.abs(res.x - x - dt * tangent))))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.0) & (ratios < 5.0)), (errs, ratios)


def test_euler_tangent_differences_inside_the_unit_interval():
    # at t = 1 the difference looks back: the deformed metric refuses t > 1
    spec = geodesic_problem(H, 0.7)
    cfg = ct.HomotopyConfig()
    plan = ct.plan_stage_constants(spec, cfg)
    op, v_sub = plan["op"], plan["v_sub"]

    def op_at(t):
        profile_deformed(t)
        return op

    def rhs_at(t):
        return ct.XiWeightedRhs(spec.sf, (1.0 - t) * plan["q"] + t * plan["epsilon"])

    x = v_sub[spec.grid.interior_ids]
    back = ct.euler_tangent(op_at, rhs_at, lambda t: v_sub, x, 1.0, cfg)
    ahead = ct.euler_tangent(lambda t: op, rhs_at, lambda t: v_sub, x, 1.0, cfg)
    assert back is not None
    # the rhs is linear in t, so both differences give the same tangent
    np.testing.assert_allclose(back, ahead, rtol=1e-6, atol=1e-12)


class _TangentRequested(Exception):
    pass


def test_euler_predictor_runs_only_on_demand(monkeypatch):
    def refuse(*args, **kwargs):
        raise _TangentRequested

    monkeypatch.setattr(ct, "euler_tangent", refuse)
    # data equal to the subsolution: every warm start stays admissible
    field, report = ct.solve_two_step(geodesic_problem(H, 0.6, h=0.07))
    assert report.status == ct.CONVERGED
    # control: the off-centre K = 0 bridge at 41^2 does ask for a tangent
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / 40)
    with pytest.raises(_TangentRequested):
        ct.solve_two_step(spec)


def test_two_step_rejects_bad_subsolution():
    g = cap()
    y = g.coords
    rho_sub = 1.0 / (1.5 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2))
    spec = ct.ProblemSpec(
        sf=E, k=2, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=rho_sub, subsolution_rho=rho_sub,
    )
    field, report = ct.solve_two_step(spec)
    assert field is None
    assert report.status == ct.ADMISSIBILITY_LOSS


def test_hyperbolic_two_step_recovers_geodesic_sphere():
    r = 0.6
    spec = geodesic_problem(H, r, h=0.07)
    field, report = ct.solve_two_step(spec)
    assert report.status == ct.CONVERGED
    u = eta(H, field.values)
    rho_num = zeta(H, u)
    assert np.max(np.abs(rho_num - r)) < 1e-10  # constants are discretely exact
    assert report.sigma_residual < 1e-10


# ------------------------------------------------------------ sphere path

def test_sphere_plan_constants():
    spec = geodesic_problem(S, 0.5, h=0.07)
    plan = ct.sphere_plan(spec, ct.HomotopyConfig())
    assert plan["epsilon"] > 0
    assert plan["delta2"] * float((plan["u_sub"] ** 2).max()) < 0.5 * plan["epsilon"]
    assert plan["T_margin"] > 0
    m, d1 = plan["t_exponent"], plan["delta1"]
    assert plan["g0_min"] > 2.0 * (1.0 - d1) ** m * plan["psi_hat_max"]


def test_sphere_path_recovers_geodesic_sphere():
    r = 0.5
    spec = geodesic_problem(S, r, h=0.07)
    field, report = ct.sphere_path(spec, ct.HomotopyConfig())
    assert report.status == ct.CONVERGED
    rho_num = zeta(S, field.values)
    floor = report.constants["eps_floor"]
    assert np.max(np.abs(rho_num - r)) < 1e-6 + 2.0 * floor
    assert report.diagnostics["final"]["min_kappa"] > 0
    # handoff: the deformation stage starts from the auxiliary solution
    deform = [rec for rec in report.stages if rec["stage"] == "sphere-deform"]
    assert deform[0]["newton_iterations"] <= 2
    # the final problem keeps the residual at the eps floor against plain psi
    assert report.final_residual <= 2.0 * floor


def test_n3_pipeline_and_perturbed_newton():
    # full k = n = 3 stack: 27-point stencils, sigma_3, Jacobi eigensolver
    sf = H
    r = 0.7
    g = grids.build_cap_domain(np.pi / 5, 0.1, n=3)
    u0 = float(zeta_inverse(sf, r))
    psi = (profile(sf).phi_prime_u(u0) / profile(sf).phi_u(u0)) ** 3
    rho = np.full(g.n_nodes, r)
    spec = ct.ProblemSpec(sf=sf, k=3, grid=g, psi_sigma=const_psi(psi),
                          boundary_rho=rho, subsolution_rho=rho)
    field, report = ct.solve_two_step(spec)
    assert report.status == ct.CONVERGED
    assert np.max(np.abs(zeta(sf, eta(sf, field.values)) - r)) < 1e-12
    # non-trivial n = 3 Newton: recover the constant from a displaced start
    op = ct.DiscreteOperator(g, 3, profile(sf), rep="v", sf=sf)
    v_exact = field.values
    bump = np.cos(g.coords @ np.array([1.0, -0.7, 0.4]))
    start = v_exact[g.interior_ids] * (1.0 + 0.004 * bump[g.interior_ids])
    rhs = ct.ConstantRhs(np.full(g.n_interior, psi ** (1.0 / 3.0)))
    res = ct.newton_core(op, rhs, start, v_exact, ct.HomotopyConfig())
    assert res.status == ct.CONVERGED
    assert np.max(np.abs(res.x - v_exact[g.interior_ids])) < 1e-10


def test_solve_problem_dispatch():
    spec = geodesic_problem(H, 0.7, h=0.09)
    field, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED
    spec_s = geodesic_problem(S, 0.5, h=0.09)
    field_s, report_s = ct.solve_problem(spec_s)
    assert report_s.status == ct.CONVERGED


# ------------------------------------------------------------ diagnostics

def test_diagnostics_constant_field():
    g = cap()
    sf = E
    u0 = 0.5
    fld = grids.GraphField(g, np.full(g.n_nodes, u0), "u")
    rec = ct.diagnostics_monitor(fld, sf)
    assert rec["max_w_c1"] == pytest.approx(u0, abs=1e-14)
    assert np.isfinite(rec["max_theta"])
    assert rec["min_tau"] > 0
    assert rec["c1_soft_ok"]


def test_diagnostics_along_converged_paths():
    spec = geodesic_problem(H, 0.7, h=0.08)
    _, report = ct.solve_two_step(spec)
    assert report.status == ct.CONVERGED
    for rec in report.stages:
        d = rec["diagnostics"]
        assert d["min_kappa"] > 0
        assert d["min_tau"] > 0
        assert np.isfinite(d["max_theta"])
        assert d["c1_soft_ok"]


def test_diagnostics_rho_representation():
    g = cap()
    fld = grids.GraphField(g, np.full(g.n_nodes, 0.7), "rho")
    rec = ct.diagnostics_monitor(fld, H)
    assert rec["min_kappa"] > 0
