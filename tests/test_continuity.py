"""Newton solver, subsolution gate, continuation drivers, diagnostics."""

import gc
import itertools
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from weingarten import charts as ch
from weingarten import continuity as ct
from weingarten import grids, linearize, problems
from weingarten.spaceform import (
    SpaceFormParams, eta, eta_inverse, profile, profile_deformed, xi, zeta, zeta_inverse,
)
from conftest import random_admissible_u_field
from reference import ConstantRhs, hopf_boundary_loop

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)
PROBLEM_DIR = Path(__file__).resolve().parents[1] / "problems"


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
        sf=E, grid=g, psi_sigma=const_psi(1.0 / R**2),
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
        sf=sf, grid=g, psi_sigma=const_psi(psi),
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
        sf=E, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=rho_sub, subsolution_rho=rho_sub,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"]
    assert rep["worst_node"] is not None
    assert any("convex" in r for r in rep["reasons"])


def test_verify_subsolution_names_the_lowest_tied_node():
    # rho depends on |y| only: the convexity minimum is attained at mirrored nodes
    g = cap(h=0.1)
    y = g.coords
    rho_sub = 1.0 / (1.5 - 2.0 * (y[:, 0] ** 2 + y[:, 1] ** 2))
    spec = ct.ProblemSpec(
        sf=E, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=rho_sub, subsolution_rho=rho_sub,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"] and rep["convexity_margin"] <= 0.0
    op = ct.DiscreteOperator(g, profile(E), rep="u", sf=E)
    conv = op.evaluate(zeta_inverse(E, rho_sub), need_f=False).conv_min_eig
    tied = g.interior_ids[conv == conv.min()]
    assert tied.size > 1
    assert rep["worst_node"] == tied.min()


def test_verify_subsolution_rejects_violated_inequality():
    # geodesic sphere but psi demands more curvature than the graph has
    spec = geodesic_problem(E, 2.0)
    spec = ct.ProblemSpec(
        sf=E, grid=spec.grid, psi_sigma=const_psi(10.0),
        boundary_rho=spec.boundary_rho, subsolution_rho=spec.subsolution_rho,
    )
    rep = ct.verify_subsolution(spec)
    assert not rep["ok"]
    assert any("psi" in r for r in rep["reasons"])


def test_verify_subsolution_rejects_boundary_mismatch():
    g = cap()
    rho = np.full(g.n_nodes, 2.0)
    spec = ct.ProblemSpec(
        sf=E, grid=g, psi_sigma=const_psi(0.2),
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
    rhs = ConstantRhs(np.full(g.n_interior, 0.5))
    out, res = ct.newton_solve(spec, rhs, field, ct.HomotopyConfig())
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
    op = ct.DiscreteOperator(g, profile(E), rep="v", sf=E)
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
        if ev is not None and ev.conv_min_eig.min() >= 1e-8:
            start = trial
            break
        amp *= 0.5
    assert start is not None and amp > 1e-3
    rhs = ConstantRhs(np.full(g.n_interior, u_exact))
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
    rhs = ConstantRhs(np.full(g.n_interior, 0.5))
    out, res = ct.newton_solve(spec, rhs, field, ct.HomotopyConfig())
    assert res.status in (ct.ADMISSIBILITY_LOSS, ct.MAX_ITERATIONS)


def test_non_convex_trial_is_refused_before_its_geometry(monkeypatch):
    spec = geodesic_problem(E, 2.0)
    y = spec.grid.coords
    v_bad = -np.log(1.0 / (1.5 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2)))
    op = ct.DiscreteOperator(spec.grid, profile(E), rep="v", sf=E)
    # without f (diagnostics of a stored field) the state is still built
    ev = op.evaluate(v_bad, need_f=False)
    assert ev is not None and ev.conv_min_eig.min() <= 0.0

    def refuse(*args):
        raise AssertionError("geometry built for a non-convex trial")

    monkeypatch.setattr(ct, "state_from_u_slots", refuse)
    assert op.evaluate(v_bad) is None


def test_u_just_above_the_floor_is_out_of_range():
    # u = e^-28 = 6.9e-13 lies within the range margin 1e-12 of the floor 0:
    # the evaluation is None, as for any out-of-range field, not a raise
    g = cap(h=0.1)
    v = np.full(g.n_nodes, np.log(zeta_inverse(E, 0.6)))
    v[g.interior_ids[0]] = -28.0
    op, ev = ct.evaluate_stored(grids.GraphField(g, v, "v"), E)
    assert ev is None and op.evaluate(v) is None


PSI_TEMPLATE = """
space_form = {K}
curvature_order = {n}
dimension = {n}

[domain]
kind = cap
theta0 = 0.6283185307179586
h = {h}

[psi]
expr = {expr}

[boundary]
rho = 0.7

[subsolution]
rho = 0.7
"""


def psi_case(expr, K=-1, n=2, h=0.1):
    """(spec, operator, evaluation at a bumped geodesic sphere) with psi = expr."""
    pf = problems.parse_problem(PSI_TEMPLATE.format(K=K, n=n, h=h, expr=expr))
    spec, _, _ = problems.build_problem(pf)
    sf, g = spec.sf, spec.grid
    op = ct.DiscreteOperator(g, profile(sf), rep="v", sf=sf)
    u = zeta_inverse(sf, spec.subsolution_rho) * (1.0 + 0.02 * np.cos(g.coords @ np.ones(n)))
    return spec, op, op.evaluate(eta_inverse(sf, u))


def counted(psi_hat):
    """psi_hat with a list of the bundles it was called on."""
    calls = []

    def psi(bundle):
        calls.append(bundle)
        return psi_hat(bundle)

    return psi, calls


@pytest.mark.parametrize("expr", ["1", "2 + y1^2"])
def test_psi_of_chart_coordinates_is_not_differenced(expr):
    spec, op, ev = psi_case(expr)
    assert not spec.psi_reads_field
    psi, calls = counted(spec.psi_sigma)
    rhs = ct.PsiRhs(psi, spec.psi_reads_field, spec.grid.dim)
    d_val, d_p = rhs.d_val(op, ev), rhs.d_p(op, ev)
    assert calls == []
    assert np.all(d_val == 0.0) and np.all(d_p == 0.0)
    assert d_val.shape == ev.val.shape and d_p.shape == ev.p_coord.shape
    # psi of the y_i alone is evaluated once and kept
    values = rhs.evaluate(op, ev)
    assert rhs.evaluate(op, ev) is values and len(calls) == 1
    assert np.array_equal(values, rhs.psi_hat(op.bundle(ev)))


def test_psi_of_the_normal_is_differenced():
    # n = 3, psi = c nu_rad^2: the central differences in v and each p_i
    spec, op, ev = psi_case("4.529978038745476 * nu_rad^2", n=3, h=0.2)
    assert spec.psi_reads_field
    psi, calls = counted(spec.psi_sigma)
    rhs = ct.PsiRhs(psi, spec.psi_reads_field, spec.grid.dim)
    d_val, d_p = rhs.d_val(op, ev), rhs.d_p(op, ev)
    assert len(calls) == 2 + 2 * 3
    rhs.evaluate(op, ev)
    rhs.evaluate(op, ev)
    assert len(calls) == 2 + 2 * 3 + 2
    psi_at = lambda **shift: spec.psi.psi_hat(op.bundle(ev, **shift))
    s = ct.PSI_FD_STEP * np.maximum(1.0, np.abs(ev.val))
    assert np.array_equal(d_val, (psi_at(dval=s) - psi_at(dval=-s)) / (2.0 * s))
    assert np.any(d_val != 0.0)
    for i in range(3):
        dp = np.zeros_like(ev.p_coord)
        dp[:, i] = ct.PSI_FD_STEP * np.maximum(1.0, np.abs(ev.p_coord[:, i]))
        assert np.array_equal(d_p[:, i], (psi_at(dp=dp) - psi_at(dp=-dp)) / (2.0 * dp[:, i]))


# ------------------------------------------------------------ stage drivers

def run_stage1(spec, cfg, plan):
    """(v field, status, records) of the K in {0, -1} stage-1 leg run to t = 1."""
    leg = ct.stage1_leg("stage1", plan["op"], spec.sf, plan["q"], plan["epsilon"], plan["v_sub"])
    return ct.run_legs(spec.grid, [leg], plan["start"], cfg)[:3]


def test_stage1_t0_returns_subsolution():
    spec = geodesic_problem(H, 0.7)
    plan = ct.plan_stage_constants(spec)
    v0, status, records = run_stage1(spec, ct.HomotopyConfig(), plan)
    assert status == ct.CONVERGED
    assert records[0]["t"] == 0.0
    assert records[0]["newton_iterations"] == 0  # vbar solves the t=0 problem
    assert all(r.get("ordering_ok", True) for r in records)
    # invertibility sign along the auxiliary stage
    assert all(r["zero_order_negative"] for r in records)


def stage1_leg_run(label):
    """(v field, status, records, operator, eps) of a stage-1 leg run to t = 1."""
    cfg = ct.HomotopyConfig()
    if label == "stage1":
        spec, _ = k0_sphere_problem(h=0.06)
        plan = ct.plan_stage_constants(spec)
        return (*run_stage1(spec, cfg, plan), plan["op"], plan["epsilon"])
    # K = +1 starts on the same leg: the K = 0 operator with eps = delta2
    spec = geodesic_problem(S, 0.5, h=0.07)
    plan = ct.sphere_plan(spec)
    v_sub = np.log(plan["u_sub"])
    op = ct.DiscreteOperator(spec.grid, profile(E), rep="v", sf=E)
    q, start = ct._xi_ratio(op, v_sub)
    leg = ct.stage1_leg(label, op, E, q, plan["delta2"], v_sub)
    return (*ct.run_legs(spec.grid, [leg], start, cfg)[:3], op, plan["delta2"])


@pytest.mark.parametrize("label", ["stage1", "sphere-aux"])
def test_stage1_ordering_and_endpoint(label):
    v0, status, records, op, eps = stage1_leg_run(label)
    assert status == ct.CONVERGED
    assert records and all(r["stage"] == label for r in records)
    assert all(r["ordering_min_gap"] >= -1e-10 for r in records if "ordering_min_gap" in r)
    # endpoint solves G[v] = eps xi(v); xi(v) = e^{2v} for the K = 0 operator
    ev = op.evaluate(v0.values)
    resid = ev.f - eps * xi(op.sf, ev.val)
    assert np.max(np.abs(resid)) < 1e-9


@pytest.mark.parametrize("sf_case", ["euclidean", "hyperbolic"])
def test_stage1_uniqueness_probe(sf_case):
    # two admissible warm starts at interior t converge to the same solution
    if sf_case == "euclidean":
        spec, _ = k0_sphere_problem(h=0.06)
    else:
        spec = geodesic_problem(H, 0.7, h=0.06)
    cfg = ct.HomotopyConfig()
    plan = ct.plan_stage_constants(spec)
    g = spec.grid
    v_sub = plan["v_sub"]
    op = plan["op"]
    q, eps = plan["q"], plan["epsilon"]
    x_prev = v_sub[g.interior_ids]
    for t in (0.25, 0.5, 0.75):
        rhs = ct.Rhs(spec.sf, (1.0 - t) * q + t * eps)
        res_a = ct.newton_core(op, rhs, x_prev, v_sub, cfg)
        res_b = ct.newton_core(op, rhs, v_sub[g.interior_ids], v_sub, cfg)
        assert res_a.status == ct.CONVERGED and res_b.status == ct.CONVERGED
        assert np.max(np.abs(res_a.x - res_b.x)) < 1e-8
        assert np.min(res_a.x - v_sub[g.interior_ids]) >= -1e-10
        x_prev = res_a.x


def test_stage2_endpoint_consistency_and_solution():
    spec, rho_exact = k0_sphere_problem(h=0.05)
    cfg = ct.HomotopyConfig()
    field, report = ct.solve_problem(spec, cfg)
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


def test_hopf_check_matches_the_loop(rng):
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:6] = True
    mask[6:10, 2:10] = True
    l_shape = grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]))
    for g in (cap(), l_shape, grids.build_cap_domain(np.pi / 5, 0.12, n=3)):
        v, v_sub = rng.normal(size=g.n_nodes), rng.normal(size=g.n_nodes)
        assert ct.hopf_boundary_check(g, v, v_sub) == hopf_boundary_loop(g, v, v_sub)


def test_stage2_gradient_dependent_psi():
    # psi = c (1 + 0.1 nu_rad), which on the K = 0 v-path is
    # c (1 + 0.1 / sqrt(1 + |Dv|^2)): gradient dependence through the normal.
    # Boundary data = subsolution trace; sigma_2 of the subsolution
    # (1/1.472^2 = 0.4615) dominates max psi = 1.1/1.6^2 = 0.43.
    g = cap(0.07)
    rho = np.full(g.n_nodes, 1.472)

    def psi(b):
        return (1.0 / 1.6**2) * (1.0 + 0.1 * b["nu_rad"])

    spec = ct.ProblemSpec(sf=E, grid=g, psi_sigma=psi,
                          boundary_rho=rho, subsolution_rho=rho)
    rep = ct.verify_subsolution(spec)
    assert rep["ok"], rep["reasons"]
    field, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED
    assert report.final_residual < 1e-9
    # the graph moved off the subsolution (psi < curvature of the subsolution)
    assert np.max(field.values[g.interior_ids] - np.log(1.0 / 1.472)) > 1e-3


def k0_bridge_leg(nodes_across):
    """Stage 1 of the off-centre K = 0 problem and the bridge leg that follows it."""
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / (nodes_across - 1))
    g = spec.grid
    plan = ct.plan_stage_constants(spec)
    v0, status, _ = run_stage1(spec, ct.HomotopyConfig(), plan)
    assert status == ct.CONVERGED
    v_sub = plan["v_sub"]
    leg = ct.bridge_leg(plan["op"], spec.sf, plan["epsilon"], v_sub,
                        ct._rho_to_v(spec.sf, spec.boundary_rho), v_sub[g.interior_ids])
    return leg, v0.values[g.interior_ids]


def accepted_point(leg, x, t):
    """(operator, right-hand side, evaluation) of the leg's t problem at x,
    what the engine keeps of an accepted point for euler_tangent."""
    op, rhs = leg.op_at(t), leg.rhs_at(t)
    full = leg.boundary_at(t).copy()
    full[op.grid.interior_ids] = x
    return op, rhs, op.evaluate(full)


def test_euler_predictor_is_second_order():
    # x(dt) - x(0) - dt x'(0) = O(dt^2): the error quarters as dt halves
    leg, x = k0_bridge_leg(21)
    cfg = ct.HomotopyConfig()
    tangent = ct.euler_tangent(leg, 0.0, *accepted_point(leg, x, 0.0))
    assert tangent is not None
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        res = ct.newton_core(leg.op_at(dt), leg.rhs_at(dt), x + dt * tangent,
                             leg.boundary_at(dt), cfg)
        assert res.status == ct.CONVERGED
        errs.append(float(np.max(np.abs(res.x - x - dt * tangent))))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.0) & (ratios < 5.0)), (errs, ratios)


def test_euler_tangent_differences_inside_the_unit_interval():
    # at t = 1 the difference looks back: the deformed metric refuses t > 1
    spec = geodesic_problem(H, 0.7)
    plan = ct.plan_stage_constants(spec)
    op, v_sub = plan["op"], plan["v_sub"]

    def op_at(t):
        profile_deformed(t)
        return op

    def rhs_at(t):
        return ct.Rhs(spec.sf, (1.0 - t) * plan["q"] + t * plan["epsilon"])

    leg = ct.Leg("probe", op_at, rhs_at, lambda t: v_sub)
    point = accepted_point(leg, v_sub[spec.grid.interior_ids], 1.0)
    back = ct.euler_tangent(leg, 1.0, *point)
    ahead = ct.euler_tangent(replace(leg, op_at=lambda t: op), 1.0, *point)
    assert back is not None
    # the rhs is linear in t, so both differences give the same tangent
    np.testing.assert_allclose(back, ahead, rtol=1e-6, atol=1e-12)


def test_euler_tangent_evaluates_the_operator_once(monkeypatch, k0_bridge_newton):
    # J and R at t come from the accepted point's own evaluation: only the
    # t + step problem is evaluated
    _, leg, x = k0_bridge_newton
    point = accepted_point(leg, x, 0.0)
    calls = []
    evaluate = ct.DiscreteOperator.evaluate

    def counting_evaluate(self, *args, **kwargs):
        calls.append(self)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(ct.DiscreteOperator, "evaluate", counting_evaluate)
    assert ct.euler_tangent(leg, 0.0, *point) is not None
    assert len(calls) == 1


class _TangentRequested(Exception):
    pass


def test_euler_predictor_runs_only_on_demand(monkeypatch):
    def refuse(*args, **kwargs):
        raise _TangentRequested

    monkeypatch.setattr(ct, "euler_tangent", refuse)
    # data equal to the subsolution: every warm start stays admissible
    field, report = ct.solve_problem(geodesic_problem(H, 0.6, h=0.07))
    assert report.status == ct.CONVERGED
    # control: the off-centre K = 0 bridge at 41^2 does ask for a tangent
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / 40)
    with pytest.raises(_TangentRequested):
        ct.solve_problem(spec)


def test_evaluations_outside_newton_do_not_grow_with_steps(monkeypatch):
    # step records and the final report read Newton's evaluation, so outside
    # newton_core and euler_tangent only the fixed set-up evaluations remain
    count = {"outside": 0, "depth": 0}
    evaluate = ct.DiscreteOperator.evaluate

    def counting_evaluate(self, *args, **kwargs):
        count["outside"] += count["depth"] == 0
        return evaluate(self, *args, **kwargs)

    def inside(fn):
        def wrapped(*args, **kwargs):
            count["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                count["depth"] -= 1
        return wrapped

    monkeypatch.setattr(ct.DiscreteOperator, "evaluate", counting_evaluate)
    monkeypatch.setattr(ct, "newton_core", inside(ct.newton_core))
    monkeypatch.setattr(ct, "euler_tangent", inside(ct.euler_tangent))
    # off-centre K = 0 sphere, 21 nodes across
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / 20)
    _, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED and len(report.stages) > 3
    # verify_subsolution and _xi_ratio; the final report reads Newton's evaluation
    assert count["outside"] == 2
    count["outside"] = 0
    _, report = ct.solve_problem(geodesic_problem(S, 0.5, h=0.09))
    assert report.status == ct.CONVERGED and len(report.stages) > 3
    # the same two plus sphere_plan's samples of the deformed metric
    assert count["outside"] == 2 + ct.T_SAMPLES


def test_newton_starts_from_the_accepted_evaluation(monkeypatch):
    # the path's first Newton call starts from the plan's evaluation of the
    # subsolution, and a step of a leg whose operator and data stay fixed,
    # and the handoffs stage1 -> bridge -> stage2, start at the point the
    # last step accepted: Newton reads that point's evaluation instead of
    # evaluating it again
    seen, count = set(), {"repeats": 0, "recording": False}
    evaluate = ct.DiscreteOperator.evaluate

    def recording_evaluate(self, full, *args, **kwargs):
        if count["recording"]:
            key = (id(self), full.tobytes())
            count["repeats"] += key in seen
            seen.add(key)
        return evaluate(self, full, *args, **kwargs)

    def flagged(fn):
        def wrapped(*args):
            count["recording"] = True
            try:
                return fn(*args)
            finally:
                count["recording"] = False
        return wrapped

    monkeypatch.setattr(ct.DiscreteOperator, "evaluate", recording_evaluate)
    monkeypatch.setattr(ct, "newton_core", flagged(ct.newton_core))
    monkeypatch.setattr(ct, "_xi_ratio", flagged(ct._xi_ratio))
    # every warm start of this solve is admissible, so no tangent is evaluated
    _, report = ct.solve_problem(geodesic_problem(H, 0.6, h=0.07))
    assert report.status == ct.CONVERGED
    assert [r["stage"] for r in report.stages] == 2 * ["stage1"] + 2 * ["bridge"] + 2 * ["stage2"]
    assert count["repeats"] == 0


def test_step_record_blocks_serve_the_next_newton_call(monkeypatch):
    # the blocks a step record builds at the accepted point are the ones the
    # next Newton call's first Jacobian at that point reads
    calls = Counter()
    coefficients_u = linearize.coefficients_u

    def counting(state, F):
        calls[state.a.tobytes()] += 1
        return coefficients_u(state, F)

    monkeypatch.setattr(linearize, "coefficients_u", counting)
    _, report = ct.solve_problem(geodesic_problem(H, 0.6, h=0.07))
    assert report.status == ct.CONVERGED
    # one set of blocks per record and per Newton iteration, none built twice
    iterations = sum(r["newton_iterations"] for r in report.stages)
    assert iterations > 0
    assert max(calls.values()) == 1
    assert len(calls) <= len(report.stages) + iterations


def test_step_record_differences_psi_in_the_unknown_only():
    # the zero-order term reads d rhs/dv alone: 2 evaluations of a psi that
    # reads the field, not the 2 + 2n of the full derivatives
    spec, op, ev = psi_case("4.529978038745476 * nu_rad^2", n=3, h=0.2)
    psi, calls = counted(spec.psi_sigma)
    rhs = ct.Rhs(spec.sf, 0.0, ct.PsiRhs(psi, spec.psi_reads_field, spec.grid.dim), 1.0)
    records = []
    ct._record_step(records, "probe", 1.0, ct.NewtonResult(ct.CONVERGED, ev.val, 0, 0.0, [], ev),
                    rhs, None)
    assert len(calls) == 2
    zero_order = op.blocks(ev).Gu - rhs.derivatives(op, ev)[0]
    assert records[0]["zero_order_max"] == float(np.max(zero_order))


def test_failed_step_is_retried_at_half_its_length(monkeypatch):
    # dt grows 0.25 -> 0.375 -> 0.5, so from t = 0.625 the step is clipped to
    # t = 1 (length 0.375).  When it fails, the retry covers half of that
    # step, not half of the unclipped dt: halving dt alone can clip to t = 1
    # again and repeat the failed solve
    asked = []

    def op_at(t):
        asked.append(t)
        return t

    def newton_fails_once_at_one(op, rhs, x, boundary, cfg, start):
        if op == 1.0 and asked.count(1.0) == 1:
            return ct.NewtonResult(ct.MAX_ITERATIONS, x, cfg.max_newton, 1.0, [])
        return ct.NewtonResult(ct.CONVERGED, x, 1, 0.0, [])

    monkeypatch.setattr(ct, "newton_core", newton_fails_once_at_one)
    monkeypatch.setattr(ct, "_record_step", lambda *args: None)
    leg = ct.Leg("probe", op_at, lambda t: None, lambda t: None)
    _, status, _ = ct._continue_in_t(leg, np.zeros(1), ct.HomotopyConfig(), [], None)
    assert status == ct.CONVERGED
    assert asked[:4] == [0.0, 0.25, 0.625, 1.0]
    assert asked[4] - asked[2] == 0.5 * (asked[3] - asked[2])
    assert asked[-1] == 1.0


# ------------------------------------------------------------ linear solve

@pytest.fixture(scope="module")
def k0_bridge_newton():
    """Arguments of a 4-iteration Newton solve: the 21^2 off-centre K = 0
    bridge at t = 0.01, warm-started from its t = 0 point; and that leg and point."""
    leg, x = k0_bridge_leg(21)
    t = 0.01
    args = (leg.op_at(t), leg.rhs_at(t), x, leg.boundary_at(t), ct.HomotopyConfig())
    return args, leg, x


def test_lu_retries_with_default_options(monkeypatch, k0_bridge_newton):
    args, _, _ = k0_bridge_newton
    plain = ct.newton_core(*args)
    assert plain.status == ct.CONVERGED and plain.iterations > 1
    seen = []
    splu = spla.splu

    def no_unpivoted_factor(J, **options):
        seen.append(options)
        if options.get("diag_pivot_thresh") == 0.0:
            raise RuntimeError("Factor is exactly singular")
        return splu(J, **options)

    monkeypatch.setattr(spla, "splu", no_unpivoted_factor)
    res = ct.newton_core(*args)
    assert res.status == ct.CONVERGED
    assert res.iterations == plain.iterations
    # the two factors round differently; the iterates agree to rounding
    assert np.max(np.abs(res.x - plain.x)) < 1e-12
    assert seen == [ct.FAST_LU, {}] * res.iterations


class _NanFactor:
    def solve(self, b):
        return np.full_like(b, np.nan)


def test_solver_breakdown_when_both_factors_fail(monkeypatch, k0_bridge_newton):
    args, leg, x = k0_bridge_newton
    r0 = ct.newton_core(*args).history[0]
    calls = []

    def singular(J, **options):
        calls.append(options)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    res = ct.newton_core(*args)
    assert res.status == ct.SOLVER_BREAKDOWN
    assert res.iterations == 1 and res.history == [r0]
    assert calls == [ct.FAST_LU, {}]
    assert ct.euler_tangent(leg, 0.0, *accepted_point(leg, x, 0.0)) is None

    calls.clear()

    def nan_factor(J, **options):
        calls.append(options)
        return _NanFactor()

    monkeypatch.setattr(spla, "splu", nan_factor)
    res = ct.newton_core(*args)
    assert res.status == ct.SOLVER_BREAKDOWN
    assert res.iterations == 1 and res.history == [r0]
    assert calls == [ct.FAST_LU, {}]


def test_flat_residual_stops_as_stagnation(monkeypatch, k0_bridge_newton):
    # a Jacobian 100 times too large makes every full step 1% of the Newton
    # step: each is accepted, yet the residual falls by only ~1% an iteration.
    # The call stops once STAGNATION_WINDOW of them fell by less than 10%
    args, _, _ = k0_bridge_newton
    jacobian = ct._jacobian
    monkeypatch.setattr(ct, "_jacobian", lambda *a: 100.0 * jacobian(*a))
    res = ct.newton_core(*args)
    assert res.status == ct.STAGNATION
    assert res.iterations == ct.STAGNATION_WINDOW
    hist = res.history
    assert len(hist) == ct.STAGNATION_WINDOW + 1 and all(np.diff(hist) < 0)
    assert hist[-1] > ct.STAGNATION_FACTOR * hist[0] > args[-1].newton_tol


def test_failed_line_search_on_admissible_trials_names_its_cause(monkeypatch, k0_bridge_newton):
    # the reversed Newton direction raises the residual at every damping,
    # while every trial near the start stays admissible
    args, _, _ = k0_bridge_newton
    jacobian = ct._jacobian
    trials = []
    evaluate = ct.DiscreteOperator.evaluate

    def recording_evaluate(self, full, need_f=True):
        ev = evaluate(self, full, need_f)
        trials.append(ev is not None)
        return ev

    monkeypatch.setattr(ct, "_jacobian", lambda *a: -jacobian(*a))
    monkeypatch.setattr(ct.DiscreteOperator, "evaluate", recording_evaluate)
    res = ct.newton_core(*args)
    assert res.status == ct.LINE_SEARCH_FAILURE
    assert res.iterations == 1 and len(res.history) == 1
    # the start and one trial per halving down to MIN_LAMBDA, all admissible
    assert len(trials) == 1 + int(np.ceil(-np.log2(ct.MIN_LAMBDA))) and all(trials)


def test_newton_stops_at_the_rounding_floor(k0_bridge_newton):
    # from a converged state no step can reach newton_tol = 1e-16: the
    # residual is already at eps_mach (|J| |x| + |rhs|), and the full step,
    # admissible, does not lower it, so the call is Converged where it stands
    args, _, _ = k0_bridge_newton
    op, rhs, _, boundary, _ = args
    x = ct.newton_core(*args).x
    res = ct.newton_core(op, rhs, x, boundary, ct.HomotopyConfig(newton_tol=1e-16))
    assert res.status == ct.CONVERGED
    full = boundary.copy()
    full[op.grid.interior_ids] = res.x
    ev = op.evaluate(full)
    floor = ct.rounding_floor(ct._jacobian(op, ev, rhs), res.x, rhs.evaluate(op, ev))
    assert 1e-16 < res.residual <= floor < 1e-12


def _jacobian_case(case):
    """(operator, field): u, v (K = -1) and exp-chain on the 21^2 cap, or an n = 3 cap."""
    rng = np.random.default_rng(11)
    if case == "n3":
        # the edge of the grid's nested-dissection order over minimum degree on
        # A^T + A grows with the grid: equal fill at h = 0.12 (389 unknowns),
        # 12% less at h = 0.1 (757), 32% less at h = 0.07 (2,895)
        g = grids.build_cap_domain(np.pi / 5, 0.1, n=3)
        u = random_admissible_u_field(g, H, rng)
        return ct.DiscreteOperator(g, profile(H), rep="v", sf=H), eta_inverse(H, u)
    g = cap(h=2.0 * np.tan(np.pi / 5) / 20)
    if case == "exp-chain":
        op = ct.DiscreteOperator(g, profile_deformed(0.5), rep="v", sf=E)
        return op, np.log(random_admissible_u_field(g, E, rng))
    u = random_admissible_u_field(g, H, rng)
    op = ct.DiscreteOperator(g, profile(H), rep=case, sf=H)
    return op, u if case == "u" else eta_inverse(H, u)


@pytest.mark.parametrize("case", ["u", "v", "exp-chain", "n3"])
def test_fast_factor_agrees_with_the_default(case):
    op, field = _jacobian_case(case)
    ev = op.evaluate(field)
    assert ev is not None
    J = ct._jacobian(op, ev, ConstantRhs(np.zeros(op.grid.n_interior)))
    b = np.sin(np.arange(J.shape[0]) * 0.37)
    default = spla.splu(J)
    x_ref = default.solve(b)
    x, _ = ct._lu_solve(J, b)
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
    fast = spla.splu(J, **ct.FAST_LU)
    assert fast.nnz <= default.nnz
    if case == "n3":
        # nested dissection fills 0.88 x minimum degree here, node-id order 1.11 x
        mmd = spla.splu(J, **{**ct.FAST_LU, "permc_spec": "MMD_AT_PLUS_A"})
        assert fast.nnz <= 0.9 * mmd.nnz


def test_two_step_rejects_bad_subsolution():
    g = cap()
    y = g.coords
    rho_sub = 1.0 / (1.5 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2))
    spec = ct.ProblemSpec(
        sf=E, grid=g, psi_sigma=const_psi(1.0),
        boundary_rho=rho_sub, subsolution_rho=rho_sub,
    )
    field, report = ct.solve_problem(spec)
    assert field is None
    assert report.status == ct.ADMISSIBILITY_LOSS


def test_hyperbolic_two_step_recovers_geodesic_sphere():
    r = 0.6
    spec = geodesic_problem(H, r, h=0.07)
    field, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED
    u = eta(H, field.values)
    rho_num = zeta(H, u)
    assert np.max(np.abs(rho_num - r)) < 1e-10  # constants are discretely exact
    assert report.sigma_residual < 1e-10


def test_two_step_legs_first_try_the_whole_leg(monkeypatch):
    # the auxiliary linearizations are invertible at every t, so each leg's
    # first step asks for t = 1; the K = +1 legs keep DT_INIT
    two_step_legs = ct.two_step_legs
    asked = {}

    def asking(leg):
        def rhs_at(t):
            asked.setdefault(leg.label, []).append(t)
            return leg.rhs_at(t)
        return replace(leg, rhs_at=rhs_at)

    def recording_legs(spec):
        legs, start, constants = two_step_legs(spec)
        return [asking(leg) for leg in legs], start, constants

    monkeypatch.setattr(ct, "two_step_legs", recording_legs)
    # off-centre K = 0 sphere, 21 nodes across
    spec, _ = k0_sphere_problem(h=2.0 * np.tan(np.pi / 5) / 20)
    _, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED
    assert list(asked) == ["stage1", "bridge", "stage2"]
    assert all(ts[:2] == [0.0, 1.0] for ts in asked.values()), asked
    legs, _, _ = ct.sphere_legs(geodesic_problem(S, 0.5, h=0.09))
    assert [leg.first_step for leg in legs] == [ct.DT_INIT] * 4


def test_two_step_path_refinement_sweep():
    # whole-leg first steps converge at every grid of a sweep: the off-centre
    # K = 0 sphere at second order, with constant and with normal-dependent
    # psi, the K = -1 geodesic sphere to rounding
    def sweep(name, nodes_across):
        pf = problems.load_problem(PROBLEM_DIR / name)
        for nodes in nodes_across:
            h = 2.0 * np.tan(np.pi / 5) / (nodes - 1)
            spec, cfg, exact = problems.build_problem(pf, h_override=h)
            field, report = ct.solve_problem(replace(spec, coarser=None), cfg)
            assert report.status == ct.CONVERGED, (name, nodes)
            rho = zeta(spec.sf, eta(spec.sf, field.values))
            yield h, float(np.max(np.abs(rho - exact)[spec.grid.interior_ids]))

    for name in ("offcenter_sphere_k0.wg", "offcenter_sphere_k0_normal_psi.wg"):
        h, err = np.array(list(sweep(name, (17, 23, 41)))).T
        order = np.polyfit(np.log(h), np.log(err), 1)[0]
        assert 1.8 <= order <= 2.2, (name, err, order)
    for _, err in sweep("geodesic_hyperbolic.wg", (17, 41)):
        assert err <= 1e-12


# ------------------------------------------------------------ sphere path

def test_sphere_plan_constants():
    spec = geodesic_problem(S, 0.5, h=0.07)
    plan = ct.sphere_plan(spec)
    assert plan["epsilon"] > 0
    assert plan["delta2"] * float((plan["u_sub"] ** 2).max()) < 0.5 * plan["epsilon"]
    assert plan["T_margin"] > 0
    m, d1 = plan["t_exponent"], plan["delta1"]
    assert plan["g0_min"] > 2.0 * (1.0 - d1) ** m * plan["psi_hat_max"]


def test_sphere_path_recovers_geodesic_sphere():
    r = 0.5
    spec = geodesic_problem(S, r, h=0.07)
    field, report = ct.solve_problem(spec, ct.HomotopyConfig())
    assert report.status == ct.CONVERGED
    rho_num = zeta(S, field.values)
    # the path ends on G[u] = psi itself, where constant data is discretely exact
    assert np.max(np.abs(rho_num - r)) <= 1e-12
    assert report.diagnostics["final"]["min_kappa"] > 0
    # handoff: the deformation stage starts from the auxiliary solution
    deform = [rec for rec in report.stages if rec["stage"] == "sphere-deform"]
    assert deform[0]["newton_iterations"] <= 2
    labels = [key for key, _ in itertools.groupby(rec["stage"] for rec in report.stages)]
    assert labels == ["sphere-aux", "bridge", "sphere-deform", "sphere-eps"]
    assert report.final_residual <= ct.HomotopyConfig().newton_tol
    # the sphere-eps leg walks t: 0 -> 1, from the shift eps to none
    eps_t = [rec["t"] for rec in report.stages if rec["stage"] == "sphere-eps"]
    assert eps_t[0] == 0.0 and eps_t[-1] == 1.0
    assert np.all(np.diff(eps_t) > 0)


def test_sphere_eps_step_is_retried_at_half_its_length(monkeypatch):
    # the shift removal runs on the engine, so a failed sphere-eps step is
    # retried at half its length like a step of any other leg
    newton_core = ct.newton_core
    eps_calls = []

    def newton_fails_first_eps_step(op, rhs, x, boundary, cfg, start):
        if op.rep == "u":           # only the sphere-eps leg runs in u
            eps_calls.append(-rhs.c)
            if len(eps_calls) == 2:
                return ct.NewtonResult(ct.MAX_ITERATIONS, x, cfg.max_newton, 1.0, [])
        return newton_core(op, rhs, x, boundary, cfg, start)

    monkeypatch.setattr(ct, "newton_core", newton_fails_first_eps_step)
    r, cfg = 0.5, ct.HomotopyConfig()
    field, report = ct.solve_problem(geodesic_problem(S, r, h=0.09), cfg)
    assert report.status == ct.CONVERGED
    # the failed solve was the first step, t = DT_INIT
    assert eps_calls[1] == (1.0 - ct.DT_INIT) * report.constants["epsilon"]
    eps_t = [rec["t"] for rec in report.stages if rec["stage"] == "sphere-eps"]
    assert eps_t[:2] == [0.0, 0.5 * ct.DT_INIT] and eps_t[-1] == 1.0
    assert np.max(np.abs(zeta(S, field.values) - r)) <= 1e-12


def test_offcenter_sphere_path_converges_at_second_order():
    # the off-centre geodesic sphere is not discretely exact: at two nested
    # spacings the K = +1 path reaches G[u] = psi and the error falls as h^2,
    # also when all four legs read psi's normal
    for name in ("offcenter_geodesic_spherical.wg", "offcenter_geodesic_spherical_normal_psi.wg"):
        pf = problems.load_problem(PROBLEM_DIR / name)
        errors = []
        for h in (2.0 * pf.domain["h"], pf.domain["h"]):
            spec, cfg, exact = problems.build_problem(pf, h_override=h)
            field, report = ct.solve_problem(replace(spec, coarser=None), cfg)
            assert report.status == ct.CONVERGED
            assert report.final_residual <= cfg.newton_tol
            ids = spec.grid.interior_ids
            errors.append(float(np.max(np.abs(zeta(S, field.values) - exact)[ids])))
        assert 1.8 <= np.log2(errors[0] / errors[1]) <= 2.2, (name, errors)


def test_sphere_path_lists_ordering_violations(monkeypatch):
    # a sphere-deform step that dips below the subsolution must reach the report
    record_step = ct._record_step

    def record_with_gap(records, label, t, *args):
        record_step(records, label, t, *args)
        if label == "sphere-deform" and t == 0.0:
            records[-1].update(ordering_min_gap=-1e-3, ordering_ok=False)

    monkeypatch.setattr(ct, "_record_step", record_with_gap)
    _, report = ct.solve_problem(geodesic_problem(S, 0.5, h=0.09), ct.HomotopyConfig())
    assert report.status == ct.CONVERGED
    assert report.ordering_violations == [-1e-3]


def test_n3_pipeline_and_perturbed_newton():
    # full k = n = 3 stack: 27-point stencils, sigma_3, LAPACK eigensolver
    sf = H
    r = 0.7
    g = grids.build_cap_domain(np.pi / 5, 0.1, n=3)
    u0 = float(zeta_inverse(sf, r))
    psi = (profile(sf).phi_prime_u(u0) / profile(sf).phi_u(u0)) ** 3
    rho = np.full(g.n_nodes, r)
    spec = ct.ProblemSpec(sf=sf, grid=g, psi_sigma=const_psi(psi),
                          boundary_rho=rho, subsolution_rho=rho)
    field, report = ct.solve_problem(spec)
    assert report.status == ct.CONVERGED
    assert np.max(np.abs(zeta(sf, eta(sf, field.values)) - r)) < 1e-12
    # non-trivial n = 3 Newton: recover the constant from a displaced start
    op = ct.DiscreteOperator(g, profile(sf), rep="v", sf=sf)
    v_exact = field.values
    bump = np.cos(g.coords @ np.array([1.0, -0.7, 0.4]))
    start = v_exact[g.interior_ids] * (1.0 + 0.004 * bump[g.interior_ids])
    rhs = ConstantRhs(np.full(g.n_interior, psi ** (1.0 / 3.0)))
    res = ct.newton_core(op, rhs, start, v_exact, ct.HomotopyConfig())
    assert res.status == ct.CONVERGED
    assert np.max(np.abs(res.x - v_exact[g.interior_ids])) < 1e-10


@pytest.mark.parametrize("name", ["offcenter_sphere_k0.wg", "geodesic_spherical.wg"])
def test_failed_solve_returns_no_field(name):
    # one Newton iteration per step cannot reach newton_tol; both families
    # then return the report alone, never a partial field
    pf = problems.load_problem(PROBLEM_DIR / name)
    spec, cfg, _ = problems.build_problem(pf, h_override=0.09)
    cfg.max_newton = 1
    field, report = ct.solve_problem(spec, cfg)
    assert field is None
    assert report.status == ct.MAX_ITERATIONS


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
    _, report = ct.solve_problem(spec)
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


# ------------------------------------------------------------ one PsiRhs per problem

def test_psi_of_the_chart_is_computed_once_per_ladder_level():
    # the gate, sphere_plan's samples of the deformed metric, the legs, the
    # refine and the report all read the level's one PsiRhs, so a psi of
    # the chart coordinates alone is computed once on each level's grid
    pf = problems.load_problem(PROBLEM_DIR / "geodesic_spherical.wg")
    h = 2.0 * np.tan(np.pi / 5) / 48         # 49 across: the path runs at 25 across
    spec, cfg, _ = problems.build_problem(pf, h)
    levels = [level.grid.n_interior for level in ct._ladder(spec)]
    assert len(levels) > 1
    evaluate, sizes = pf.psi.evaluate, []

    def counting(bundle):
        sizes.append(len(bundle["y1"]))
        return evaluate(bundle)

    pf.psi.evaluate = counting              # coarser levels are built from pf too
    spec, cfg, _ = problems.build_problem(pf, h)
    _, report = ct.solve_problem(spec, cfg)
    assert report.status == ct.CONVERGED
    assert sorted(sizes) == sorted(levels)


def test_a_solved_spec_is_freed_without_the_cycle_collector():
    # nothing the solve leaves (the spec's PsiRhs, the field, the report)
    # refers back to the spec, so dropping them frees it and its grid at
    # once, not at the next collection
    pf = problems.load_problem(PROBLEM_DIR / "offcenter_sphere_k0.wg")
    gc.collect()
    gc.disable()
    try:
        spec, cfg, _ = problems.build_problem(pf, 2.0 * np.tan(np.pi / 5) / 40)
        field, report = ct.solve_problem(spec, cfg)
        assert field is not None and report.per_node is not None
        assert spec.psi is not None
        ref = weakref.ref(spec)
        del spec, field, report
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [2, 3])
def test_bundle_builds_the_variables_psi_may_read(n):
    # problems validates [psi] against bundle_variables: every operator that
    # evaluates psi builds exactly those variables
    grid = grids.build_cap_domain(np.pi / 5, 0.1 if n == 2 else 0.2, n=n)
    rho = 0.6 * (1.0 + 0.01 * np.cos(grid.coords @ np.ones(n)))
    ops = [ct.DiscreteOperator(grid, profile(sf), rep="u", sf=sf) for sf in (E, S, H)]
    ops += [ct.DiscreteOperator(grid, profile(sf), rep="v", sf=sf) for sf in (E, H)]
    ops.append(ct.DiscreteOperator(grid, profile_deformed(0.5), rep="v", sf=E))
    chart, field = ct.bundle_variables(n)
    assert chart == {f"y{i+1}" for i in range(n)}
    assert field == {"u", "rho", "nu_rad"} | {f"nu_tan{i+1}" for i in range(n)}
    for op in ops:
        u = zeta_inverse(op.sf, rho)
        ev = op.evaluate(u if op.rep == "u" else eta_inverse(op.sf, u), need_f=False)
        assert ev is not None
        assert set(op.bundle(ev)) == chart | field
    # every variable is one of the graph, not of the operator's unknown: the
    # u-operator and the v-operator of a leg give it the same value on the
    # same field, up to their differences' O(h^2).  K = +1 compares the
    # sphere's u-operator with the E v-operator of the deformed metric at t = 1
    h = grid.h
    for u_op, v_op in ((ops[0], ops[3]), (ops[2], ops[4]),
                       (ops[1], ct.DiscreteOperator(grid, profile_deformed(1.0), rep="v", sf=E))):
        u = zeta_inverse(u_op.sf, rho)
        by_u = u_op.bundle(u_op.evaluate(u, need_f=False))
        by_v = v_op.bundle(v_op.evaluate(eta_inverse(v_op.sf, u), need_f=False))
        for name in chart | field:
            gap = np.max(np.abs(by_u[name] - by_v[name]))
            assert gap <= 1e-3 * h**2, (u_op.sf.K, name, gap / h**2)
