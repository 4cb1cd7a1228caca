"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The pipeline problems (criteria 6-8) are solved once in session fixtures and
their reports are reused by the diagnostics criterion.
"""

import time

import numpy as np
import pytest

from weingarten import charts as ch
from weingarten import continuity as ct
from weingarten import grids, linearize
from weingarten.geometry import state_from_u_slots, v_slots_to_u
from weingarten.spaceform import (
    SpaceFormParams,
    eta,
    eta_prime,
    profile,
    xi,
    xi_prime,
    zeta,
    zeta_inverse,
)
from weingarten.symfunc import all_sigmas, f_and_derivatives, f_and_F, in_gamma_k
from conftest import random_admissible_slots, random_admissible_u_field
from reference import deformed_monotonicity_check, frame_jets, lowered_forms

E, S, H = SpaceFormParams(0), SpaceFormParams(1), SpaceFormParams(-1)
THETA0 = np.pi / 5


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def cap_grid_n(nodes_across):
    h = 2.0 * np.tan(THETA0) / (nodes_across - 1)
    return grids.build_cap_domain(THETA0, h)


def const_psi(value):
    return lambda b: np.full_like(b["u"], value)


def off_center_rho(grid, R, c3):
    z = ch.embed(grid.chart, grid.coords)
    cz = c3 * z[:, 2]
    return cz + np.sqrt(R**2 - c3**2 + cz**2)


def smaller_sphere_rho(grid, R_small, rho_boundary):
    disc = np.sqrt(R_small**2 - (rho_boundary * np.sin(THETA0)) ** 2)
    d = rho_boundary * np.cos(THETA0) - disc
    z = ch.embed(grid.chart, grid.coords)
    cz = d * z[:, 2]
    return cz + np.sqrt(R_small**2 - d**2 + cz**2)


def k0_pipeline_spec(grid, R=1.0, c3=0.3, R_small=0.9):
    rho_exact = off_center_rho(grid, R, c3)
    cz_b = c3 * np.cos(THETA0)
    rho_G = cz_b + np.sqrt(R**2 - c3**2 + cz_b**2)
    rho_sub = smaller_sphere_rho(grid, R_small, rho_G)
    spec = ct.ProblemSpec(
        sf=E, grid=grid, psi_sigma=const_psi(1.0 / R**2),
        boundary_rho=rho_exact, subsolution_rho=rho_sub,
    )
    return spec, rho_exact


def geodesic_spec(sf, r, grid):
    rho = np.full(grid.n_nodes, float(r))
    u0 = float(zeta_inverse(sf, r))
    psi = (profile(sf).phi_prime_u(u0) / profile(sf).phi_u(u0)) ** 2
    return ct.ProblemSpec(
        sf=sf, grid=grid, psi_sigma=const_psi(psi),
        boundary_rho=rho, subsolution_rho=rho,
    )


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def stage1_runs():
    """Criterion 6 solves on 33x33 grids for K = 0 and K = -1."""
    out = {}
    g = cap_grid_n(33)
    for label, spec in (
        ("K=0", k0_pipeline_spec(g)[0]),
        ("K=-1", geodesic_spec(H, 0.7, g)),
    ):
        cfg = ct.HomotopyConfig()
        plan = ct.plan_stage_constants(spec)
        v_sub = plan["v_sub"]
        leg = ct.stage1_leg("stage1", plan["op"], spec.sf, plan["q"], plan["epsilon"], v_sub)
        v0, status, records = ct.run_legs(spec.grid, [leg], v_sub[spec.grid.interior_ids], cfg)
        out[label] = {"spec": spec, "cfg": cfg, "plan": plan, "v0": v0,
                      "status": status, "records": records}
    return out


@pytest.fixture(scope="module")
def pipeline_k0():
    """Criterion 7: off-center sphere at three nested resolutions (41^2 flagship)."""
    runs = []
    for nodes in (21, 41, 81):
        g = cap_grid_n(nodes)
        spec, rho_exact = k0_pipeline_spec(g)
        t0 = time.time()
        field, rep = ct.solve_problem(spec, ct.HomotopyConfig())
        runs.append({
            "nodes": nodes, "h": g.h, "spec": spec, "field": field, "report": rep,
            "rho_exact": rho_exact, "seconds": time.time() - t0,
        })
    return runs


@pytest.fixture(scope="module")
def pipeline_curved():
    """Criterion 8: geodesic-sphere pipelines for K = -1 and K = +1."""
    g = cap_grid_n(33)
    spec_h = geodesic_spec(H, 0.6, g)
    t0 = time.time()
    field_h, rep_h = ct.solve_problem(spec_h, ct.HomotopyConfig())
    sec_h = time.time() - t0
    spec_s = geodesic_spec(S, 0.5, g)
    t0 = time.time()
    field_s, rep_s = ct.solve_problem(spec_s, ct.HomotopyConfig())
    sec_s = time.time() - t0
    return {
        "hyperbolic": {"spec": spec_h, "field": field_h, "report": rep_h, "r": 0.6,
                       "seconds": sec_h},
        "spherical": {"spec": spec_s, "field": field_s, "report": rep_s, "r": 0.5,
                      "seconds": sec_s},
    }


# ---------------------------------------------------------------- criteria

def test_criterion_01_algebraic_identities():
    rng = np.random.default_rng(101)
    g = grids.build_cap_domain(THETA0, 0.05)
    worst = 0.0
    for sf in (E, S, H):
        for _ in range(20):
            u_full = random_admissible_u_field(g, sf, rng)
            u, p, r = frame_jets(g, u_full)
            st = state_from_u_slots(u, p, r, profile(sf))
            g_down, gamma_down = lowered_forms(st)
            gg = np.einsum("nik,nkj->nij", gamma_down, gamma_down)
            inv = np.einsum("nik,nkj->nij", st.gamma_up, gamma_down)
            worst = max(worst, float(np.max(np.abs(gg - g_down))),
                        float(np.max(np.abs(inv - np.eye(2)))))
    report(1, worst < 1e-12,
           f"gamma.gamma = g and gamma_up = gamma_down^-1: max deviation {worst:.2e} (tol 1e-12)")


def test_criterion_02_sphere_oracles():
    g = grids.build_cap_domain(THETA0, 0.05)
    worst = 0.0
    for sf, r, expect in ((E, 2.0, 0.5), (H, 0.7, np.cosh(0.7) / np.sinh(0.7)),
                          (S, 0.6, np.cos(0.6) / np.sin(0.6))):
        u_full = np.full(g.n_nodes, float(zeta_inverse(sf, r)))
        u, p, rr = frame_jets(g, u_full)
        st = state_from_u_slots(u, p, rr, profile(sf))
        worst = max(worst, float(np.max(np.abs(st.kappa - expect))))
    ok_a = worst < 1e-12
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        gh = grids.build_cap_domain(THETA0, h)
        rho = off_center_rho(gh, 1.0, 0.3)
        u, p, rr = frame_jets(gh, 1.0 / rho)
        st = state_from_u_slots(u, p, rr, profile(E))
        errs.append(float(np.max(np.abs(st.kappa - 1.0))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok_b = bool(np.min(orders) >= 1.8)
    report(2, ok_a and ok_b,
           f"geodesic kappa exact to {worst:.2e}; off-center orders "
           + ", ".join(f"{o:.2f}" for o in orders) + " (>= 1.8)")


def test_criterion_03_linearization_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    n, k = 2, 2
    for sf in (E, S, H):
        amb = profile(sf)

        def G(u, p, r):
            return f_and_derivatives(state_from_u_slots(u, p, r, amb).kappa, k)[0]

        u, p, r = random_admissible_slots(rng, n, amb, count=50)
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        d = 1e-6
        fd_u = (G(u + d, p, r) - G(u - d, p, r)) / (2 * d)
        worst = max(worst, float(np.max(np.abs(fd_u - lc.Gu)) / max(1.0, np.max(np.abs(lc.Gu)))))
        for s in range(n):
            dp = np.zeros_like(p)
            dp[:, s] = d
            fd_s = (G(u, p + dp, r) - G(u, p - dp, r)) / (2 * d)
            worst = max(worst, float(np.max(np.abs(fd_s - lc.Gs[:, s])) / max(1.0, np.max(np.abs(lc.Gs)))))
        for i in range(n):
            for j in range(n):
                dr = np.zeros_like(r)
                dr[:, i, j] += d
                dr[:, j, i] += d
                fd_ij = (G(u, p, r + dr) - G(u, p, r - dr)) / (4 * d)
                worst = max(worst, float(np.max(np.abs(fd_ij - lc.Gij[:, i, j])) / max(1.0, np.max(np.abs(lc.Gij)))))
        # Gv against FD through the v-composition
        v = rng.uniform(0.4, 1.2, 50)
        p_v = rng.normal(0.0, 0.3, (50, n))
        r_v = rng.normal(0.0, 0.3, (50, n, n))
        r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
        uu, pu, ru = v_slots_to_u(v, p_v, r_v, sf)
        stv = state_from_u_slots(uu, pu, ru, amb)
        keep = stv.kappa[:, -1] > 5e-2
        v, p_v, r_v = v[keep], p_v[keep], r_v[keep]
        uu, pu, ru = v_slots_to_u(v, p_v, r_v, sf)
        stv = state_from_u_slots(uu, pu, ru, amb)
        lc_u = linearize.coefficients_u(stv, f_and_F(stv.a)[1])
        gv = linearize.coefficients_v(lc_u, uu, eta_prime(sf, v), p_v, r_v).Gu

        def Gv(vv):
            a, b, c = v_slots_to_u(vv, p_v, r_v, sf)
            return f_and_derivatives(state_from_u_slots(a, b, c, amb).kappa, k)[0]

        fd_v = (Gv(v + d) - Gv(v - d)) / (2 * d)
        worst = max(worst, float(np.max(np.abs(fd_v - gv)) / max(1.0, np.max(np.abs(gv)))))
    report(3, worst < 1e-5,
           f"analytic blocks vs central differences: max rel err {worst:.2e} (tol 1e-5)")


def test_criterion_04_zero_order_sign():
    rng = np.random.default_rng(404)
    margin = -np.inf
    total = 0
    for sf in (E, H):
        while total < (100 if sf.K == 0 else 200):
            v = rng.uniform(0.4, 1.2, 120)
            p_v = rng.normal(0.0, 0.35, (120, 2))
            r_v = rng.normal(0.0, 0.35, (120, 2, 2))
            r_v = 0.5 * (r_v + np.swapaxes(r_v, 1, 2))
            u, pu, ru = v_slots_to_u(v, p_v, r_v, sf)
            st = state_from_u_slots(u, pu, ru, profile(sf))
            keep = st.kappa[:, -1] > 5e-2
            v, p_v, r_v = v[keep], p_v[keep], r_v[keep]
            st = state_from_u_slots(u[keep], pu[keep], ru[keep], profile(sf))
            f = f_and_derivatives(st.kappa, 2)[0]
            psi_z = f / xi(sf, v)
            lc_u = linearize.coefficients_u(st, f_and_F(st.a)[1])
            gv = linearize.coefficients_v(lc_u, st.u, eta_prime(sf, v), p_v, r_v).Gu
            margin = max(margin, float(np.max(gv - psi_z * xi_prime(sf, v))))
            total += int(keep.sum())
        total = 0 if sf.K == 0 else total
    report(4, margin < 0.0,
           f"Gv - psi xi' at constructed solutions: max {margin:.3e} (strictly negative)")


def test_criterion_05_deformation_monotonicity():
    rng = np.random.default_rng(505)
    u, p, r = random_admissible_slots(rng, 2, profile(E), count=50)
    rep = deformed_monotonicity_check(u, p, r, [0.0, 0.25, 0.5, 0.75, 1.0], 2)
    report(5, rep["worst_decrease"] >= -1e-12,
           f"G^t nondecreasing on the t-lattice: worst step {rep['worst_decrease']:.2e} "
           f"(tol -1e-12), min dG/dt {rep['min_t_derivative']:.2e}")


def test_criterion_06_stage1_uniqueness_and_ordering(stage1_runs):
    worst_diff = 0.0
    worst_order = np.inf
    for label, run in stage1_runs.items():
        assert run["status"] == ct.CONVERGED, f"stage 1 failed for {label}"
        spec, cfg, plan = run["spec"], run["cfg"], run["plan"]
        g = spec.grid
        v_sub = plan["v_sub"]
        x_prev = v_sub[g.interior_ids]
        for t in (0.25, 0.5, 0.75):
            rhs = ct.Rhs(spec.sf, (1.0 - t) * plan["q"] + t * plan["epsilon"])
            res_a = ct.newton_core(plan["op"], rhs, x_prev, v_sub, cfg)
            res_b = ct.newton_core(plan["op"], rhs, v_sub[g.interior_ids], v_sub, cfg)
            assert res_a.status == ct.CONVERGED and res_b.status == ct.CONVERGED
            worst_diff = max(worst_diff, float(np.max(np.abs(res_a.x - res_b.x))))
            x_prev = res_a.x
        worst_order = min(worst_order, min(
            r["ordering_min_gap"] for r in run["records"] if "ordering_min_gap" in r
        ))
    report(6, worst_diff < 1e-8 and worst_order >= -1e-10,
           f"independent warm starts differ by {worst_diff:.2e} (tol 1e-8); "
           f"min ordering gap {worst_order:.2e} (tol -1e-10)")


def test_criterion_07_full_pipeline_euclidean(pipeline_k0):
    errs = []
    for run in pipeline_k0:
        rep = run["report"]
        assert rep.status == ct.CONVERGED, f"pipeline failed at {run['nodes']}^2"
        field = run["field"]
        rho_num = zeta(E, eta(E, field.values))
        err = float(np.max(np.abs(rho_num - run["rho_exact"])[run["spec"].grid.interior_ids]))
        errs.append(err)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    flagship = pipeline_k0[1]
    ok = (
        bool(np.min(orders) >= 1.8)
        and flagship["report"].sigma_residual <= 1e-8
        and flagship["report"].diagnostics["final"]["min_kappa"] > 0
        and flagship["seconds"] < 120.0
    )
    report(7, ok,
           f"off-center sphere errors {', '.join(f'{e:.2e}' for e in errs)}; orders "
           + ", ".join(f"{o:.2f}" for o in orders)
           + f"; 41^2: residual {flagship['report'].sigma_residual:.2e} (<= 1e-8), "
             f"{flagship['seconds']:.1f}s (< 120s)")


def test_criterion_08_full_pipeline_curved(pipeline_curved):
    hy = pipeline_curved["hyperbolic"]
    sp = pipeline_curved["spherical"]
    assert hy["report"].status == ct.CONVERGED
    assert sp["report"].status == ct.CONVERGED
    rho_h = zeta(H, eta(H, hy["field"].values))
    err_h = float(np.max(np.abs(rho_h - hy["r"])))
    h2 = hy["spec"].grid.h ** 2
    rho_s = zeta(S, sp["field"].values)
    err_s = float(np.max(np.abs(rho_s - sp["r"])))
    min_kappa_path = min(
        rec["diagnostics"]["min_kappa"]
        for rep in (hy["report"], sp["report"])
        for rec in rep.stages
    )
    tol = ct.HomotopyConfig().newton_tol
    handoffs = [r for r in hy["report"].stages if r["stage"] == "stage2"][0]["residual"]
    handoff_s = [r for r in sp["report"].stages if r["stage"] == "sphere-deform"][0]["residual"]
    ok = (
        err_h <= 10 * h2
        and err_s <= 1e-12
        and min_kappa_path > 0
        and handoffs <= tol
        and handoff_s <= tol
    )
    report(8, ok,
           f"K=-1 err {err_h:.2e} (<= C h^2); K=+1 err {err_s:.2e} "
           f"(<= 1e-12); min kappa on paths {min_kappa_path:.2e}; "
           f"handoff residuals {handoffs:.1e}, {handoff_s:.1e} (<= tol {tol:.0e})")


def test_criterion_09_concavity_and_cones():
    rng = np.random.default_rng(909)
    import itertools as it

    # f concavity, 500 trials
    a = np.abs(rng.normal(1.0, 0.5, (500, 3))) + 0.05
    b = np.abs(rng.normal(1.0, 0.5, (500, 3))) + 0.05
    fm = f_and_derivatives(0.5 * (a + b), 2)[0]
    fa = f_and_derivatives(a, 2)[0]
    fb = f_and_derivatives(b, 2)[0]
    conc_margin = float(np.min(fm - 0.5 * (fa + fb)))
    # sigma_k brute force, n <= 6, 500 trials
    worst_sigma = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        kappa = rng.normal(0.0, 1.5, n)
        e = all_sigmas(kappa)
        for k in range(1, n + 1):
            brute = sum(np.prod(c) for c in it.combinations(kappa, k))
            worst_sigma = max(worst_sigma, abs(e[k] - brute) / max(1.0, abs(brute)))
    # Gamma_k membership logic, 500 trials
    logic_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 7))
        kappa = rng.normal(0.5, 1.0, n)
        e = all_sigmas(kappa)
        for k in range(1, n + 1):
            expect = all(e[j] > 0 for j in range(1, k + 1))
            logic_ok &= bool(in_gamma_k(kappa, k)) == expect
        if np.all(kappa > 0):
            logic_ok &= bool(in_gamma_k(kappa, n))
    ok = conc_margin > -1e-12 and worst_sigma < 1e-13 and logic_ok
    report(9, ok,
           f"concavity margin {conc_margin:.1e} (> -1e-12); sigma_k vs enumeration "
           f"{worst_sigma:.1e} (< 1e-13); cone logic consistent: {logic_ok}")


def test_criterion_10_diagnostics_sanity(stage1_runs, pipeline_k0, pipeline_curved):
    reports = [run["records"] for run in stage1_runs.values()]
    reports.append(pipeline_k0[1]["report"].stages)
    reports.append(pipeline_curved["hyperbolic"]["report"].stages)
    reports.append(pipeline_curved["spherical"]["report"].stages)
    min_tau = np.inf
    min_kappa = np.inf
    max_theta = -np.inf
    c1_ok = True
    for records in reports:
        for rec in records:
            d = rec["diagnostics"]
            min_tau = min(min_tau, d["min_tau"])
            min_kappa = min(min_kappa, d["min_kappa"])
            max_theta = max(max_theta, d["max_theta"])
            c1_ok &= d["max_w_c1"] <= d["c1_bound"] + 1e-8
    ok = min_tau > 0 and min_kappa > 0 and np.isfinite(max_theta) and c1_ok
    report(10, ok,
           f"along all converged paths: min tau {min_tau:.3e} (> 0), min kappa "
           f"{min_kappa:.3e} (> 0), max Theta {max_theta:.3f} (finite), C1 check {c1_ok}")


def test_bridge_steps_stay_flat_under_refinement(pipeline_k0):
    # the Euler predictor absorbs the O(h) boundary move, so the bridge does
    # not need more steps as the grid is refined
    for run in pipeline_k0:
        bridge = [r for r in run["report"].stages if r["stage"] == "bridge"]
        assert len(bridge) <= 6, f"{run['nodes']}^2: {len(bridge)} accepted bridge steps"
