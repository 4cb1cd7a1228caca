"""solve_problem's grid ladder: the path on the coarsest grid, Newton alone on each finer one."""

from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from weingarten import continuity as ct
from weingarten import problems
from weingarten.errors import AdmissibilityError, AssemblyError
from weingarten.spaceform import eta, zeta

REPO = Path(__file__).resolve().parents[1]
PROBLEM_DIR = REPO / "problems"


def cap_h(nodes_across):
    """Spacing that puts nodes_across lattice nodes across the pi/5 cap's chart disk."""
    return 2.0 * np.tan(np.pi / 5) / (nodes_across - 1)


def build(name, nodes_across):
    return problems.build_problem(problems.load_problem(PROBLEM_DIR / name), cap_h(nodes_across))


def sup_error(spec, field, exact):
    u = field.values if field.representation == "u" else eta(spec.sf, field.values)
    return float(np.max(np.abs(zeta(spec.sf, u) - exact)[spec.grid.interior_ids]))


def path_only(spec):
    """The same problem without its ladder: the path runs on spec's own grid."""
    return replace(spec, coarser=None)


def lattice_across(grid):
    return int(np.ptp(grid.node_index[:, 0])) + 1


@pytest.mark.parametrize("name, nodes_across, ladder", [
    ("offcenter_sphere_k0.wg", 81, (21, 41, 81)),
    ("offcenter_sphere_k0.wg", 91, (23.5, 46, 91)),
    ("offcenter_sphere_k0.wg", 121, (31, 61, 121)),
    ("geodesic_spherical.wg", 49, (25, 49)),
    ("offcenter_geodesic_spherical.wg", 23, (23,)),
])
def test_ladder_halves_down_to_19_lattice_nodes_across(name, nodes_across, ladder):
    # 21 across by cap_h's count, which adds the two rim points off the
    # lattice; in 2-D the interior floor keeps exactly the lattices 19 across
    spec, _, _ = build(name, nodes_across)
    levels = ct._ladder(spec)
    assert levels[-1] is spec
    assert [s.grid.h for s in levels] == pytest.approx([cap_h(n) for n in ladder], rel=1e-12)
    assert len(levels[0].grid.interior_ids) >= ct.LADDER_MIN_INTERIOR
    assert lattice_across(levels[0].grid) >= 19
    below, _, _ = build(name, (ladder[0] + 1) / 2)
    assert len(below.grid.interior_ids) < ct.LADDER_MIN_INTERIOR
    assert lattice_across(below.grid) < 19


def reach_rule(spec):
    """Spacings of the ladder as it was once chosen: the width of each coarser
    lattice predicted from spec's grid, 19 nodes across at least."""
    reach = int(np.ptp(spec.grid.node_index[:, 0])) // 2
    spacings = [spec.grid.h]
    while 2 * (reach // 2) + 1 >= 19:
        reach //= 2
        spacings.insert(0, 2.0 * spacings[0])
    return spacings


def test_ladder_keeps_the_reach_rule_levels_on_2d_caps():
    # every integer count from 21 to 161 across, and one spacing inside each
    # window (37.06-37.22, 73.03-73.44 and 145.02-145.88 across) where the
    # prediction admitted a coarsest lattice only 17 nodes across
    pf = problems.load_problem(PROBLEM_DIR / "offcenter_sphere_k0.wg")
    built = cache(lambda h: problems.build_problem(pf, h)[0])
    narrower = []
    for nodes in [*range(21, 162), 37.1, 73.2, 145.4]:
        spec = replace(built(cap_h(nodes)), coarser=built)
        spacings = [s.grid.h for s in ct._ladder(spec)]
        reference = reach_rule(spec)
        if spacings != reference:
            assert lattice_across(built(reference[0]).grid) < 19
            assert spacings == reference[1:]
            narrower.append(nodes)
    assert narrower == [37.1, 73.2, 145.4]


def test_ladder_stops_at_a_spacing_with_no_interior_node():
    # grids raises AssemblyError on a lattice with no interior node (n = 5
    # caps with 221 interior nodes halve to one); the ladder ends there
    spec, _, _ = build("offcenter_sphere_k0.wg", 41)

    def no_interior(h):
        raise AssemblyError("domain has no interior nodes at this resolution; decrease h")

    lone = replace(spec, coarser=no_interior)
    [level] = ct._ladder(lone)
    assert level is lone


def test_n3_ladder_halves_as_n2_does(monkeypatch):
    # n = 3 ladders by the same rule as n = 2; the levels are built, not solved
    pf = problems.load_problem(PROBLEM_DIR / "offcenter_sphere_k0_n3.wg")

    def no_solve(*args):
        raise AssertionError("the ladder solves nothing")

    monkeypatch.setattr(ct, "run_legs", no_solve)
    monkeypatch.setattr(ct, "newton_core", no_solve)
    for h, ladder in [(0.07, [0.14, 0.07]), (0.05, [0.10, 0.05]), (0.04, [0.08, 0.04])]:
        spec, _, _ = problems.build_problem(pf, h)
        levels = ct._ladder(spec)
        assert levels[-1] is spec
        assert [s.grid.h for s in levels] == pytest.approx(ladder, rel=1e-12)
        assert len(levels[0].grid.interior_ids) >= ct.LADDER_MIN_INTERIOR


def test_spherical_ladder_refines_in_a_few_newton_iterations():
    # K = +1 off-centre sphere, 23 -> 45 -> 89 across: every finer level
    # converges from the prolonged field, and the error falls as h^2
    spec, cfg, exact = build("offcenter_geodesic_spherical.wg", 89)
    field, report = ct.solve_problem(spec, cfg)
    assert report.status == ct.CONVERGED and report.messages == []
    refine = [r for r in report.stages if r["stage"] == "refine"]
    assert [r["h"] for r in refine] == pytest.approx([cap_h(45), cap_h(89)], rel=1e-12)
    assert all(r["newton_iterations"] <= 4 for r in refine)
    assert all(r["ordering_ok"] and r["diagnostics"]["min_conv_eig"] > 0 for r in refine)
    assert report.final_residual <= cfg.newton_tol
    spec45, cfg45, exact45 = build("offcenter_geodesic_spherical.wg", 45)
    field45, report45 = ct.solve_problem(spec45, cfg45)
    assert report45.status == ct.CONVERGED
    order = np.log2(sup_error(spec45, field45, exact45) / sup_error(spec, field, exact))
    assert 1.8 <= order <= 2.2
    # the refined field is the path's own discrete solution
    path_field, path_report = ct.solve_problem(path_only(spec45), cfg45)
    assert not any(r["stage"] == "refine" for r in path_report.stages)
    assert np.max(np.abs(field45.values - path_field.values)) <= 1e-12


def test_hyperbolic_offcenter_sphere_converges_at_second_order():
    # K = -1 geodesic sphere of radius 1 off the axis: not discretely exact,
    # so its gate sees the error; 41 and 81 across refine on the ladder
    errors = []
    for nodes in (21, 41, 81):
        spec, cfg, exact = build("offcenter_geodesic_hyperbolic.wg", nodes)
        field, report = ct.solve_problem(spec, cfg)
        assert report.status == ct.CONVERGED and report.messages == []
        assert report.final_residual <= cfg.newton_tol
        assert sum(r["stage"] == "refine" for r in report.stages) == {21: 0, 41: 1, 81: 2}[nodes]
        assert all(r["diagnostics"]["min_conv_eig"] > 0 and r["ordering_ok"]
                   for r in report.stages)
        errors.append(sup_error(spec, field, exact))
        if nodes == 41:
            path_field, _ = ct.solve_problem(path_only(spec), cfg)
            assert np.max(np.abs(field.values - path_field.values)) <= 1e-12
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8), orders


def test_n4_offcenter_sphere_converges():
    # sigma_4 = 1 on the unit sphere of R^5 off the axis: the paper's general
    # n, on the eigen route of f_and_F; the error falls at order about 1.5
    pf = problems.load_problem(PROBLEM_DIR / "offcenter_sphere_k0_n4.wg")
    errors = []
    for h in (0.2, 0.14):
        spec, cfg, exact = problems.build_problem(pf, h)
        field, report = ct.solve_problem(spec, cfg)
        assert report.status == ct.CONVERGED
        assert all(r["diagnostics"]["min_conv_eig"] > 0 and r["ordering_ok"]
                   for r in report.stages)
        errors.append(sup_error(spec, field, exact))
    assert np.log(errors[0] / errors[1]) / np.log(0.2 / 0.14) >= 1.2, errors


def test_failed_refine_level_runs_the_path(monkeypatch):
    newton_solve = ct.newton_solve

    def fails(*args):
        out, res = newton_solve(*args)
        return out, replace(res, status=ct.MAX_ITERATIONS, ev=None)

    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    path_field, path_report = ct.solve_problem(path_only(spec), cfg)
    monkeypatch.setattr(ct, "newton_solve", fails)
    field, report = ct.solve_problem(spec, cfg)
    assert report.status == ct.CONVERGED
    assert report.messages == [
        f"level h={cap_h(41):.6g}: Newton ended MaxIterations; this level runs the path"]
    assert not any(r["stage"] == "refine" for r in report.stages)
    # the path ran twice, on the coarse level and again on the requested one
    assert [r["stage"] for r in report.stages] == 2 * [r["stage"] for r in path_report.stages]
    assert np.array_equal(field.values, path_field.values)


def test_refine_honours_max_newton():
    # the refine level's Newton solve reads the caller's cfg: one iteration
    # cannot reach newton_tol from the prolonged field, so the level falls back
    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    coarse = spec.coarser(2.0 * spec.grid.h)
    coarse_field, _ = ct.solve_problem(coarse, cfg)
    report = ct.SolveReport(ct.CONVERGED)
    assert ct._refine(spec, coarse_field, ct.HomotopyConfig(max_newton=1), report) is None
    assert report.stages == []
    assert report.messages == [
        f"level h={cap_h(41):.6g}: Newton ended MaxIterations; this level runs the path"]
    assert ct._refine(spec, coarse_field, cfg, report) is not None
    assert report.stages[-1]["stage"] == "refine" and report.stages[-1]["newton_iterations"] > 1


def test_refine_below_the_subsolution_is_an_ordering_violation():
    # ordering is in v = log(1/rho) on K = 0: against a subsolution whose rho
    # is halved inside, the refined field lies below it; the level keeps its
    # field, as a path step would, and the gap reaches the report
    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    coarse_field, _ = ct.solve_problem(spec.coarser(2.0 * spec.grid.h), cfg)
    above = spec.subsolution_rho.copy()
    above[spec.grid.interior_ids] *= 0.5
    above_spec = replace(spec, subsolution_rho=above)
    report = ct.SolveReport(ct.CONVERGED)
    refined = ct._refine(above_spec, coarse_field, cfg, report)
    assert refined is not None and report.messages == []
    [record] = report.stages
    assert record["stage"] == "refine" and not record["ordering_ok"]
    assert record["ordering_min_gap"] < -0.5
    ct._finalize_report(above_spec, refined[1], report)
    assert report.ordering_violations == [record["ordering_min_gap"]]


@pytest.mark.parametrize("failure", ["gate", "legs", "path"])
def test_failed_coarse_level_leaves_the_path_to_the_next(monkeypatch, failure):
    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    path_field, path_report = ct.solve_problem(path_only(spec), cfg)
    coarse_h = 2.0 * spec.grid.h
    verify, legs, cont = ct.verify_subsolution, ct.two_step_legs, ct._continue_in_t

    def gate_fails_on_coarse(level):
        report = verify(level)
        if level.grid.h == coarse_h:
            report.update(ok=False, reasons=["refused"])
        return report

    def legs_fail_on_coarse(level):
        # the leg builders raise when a margin of the subsolution is too thin
        if level.grid.h == coarse_h:
            raise AdmissibilityError("subsolution is not admissible")
        return legs(level)

    def path_fails_on_coarse(leg, x0, cfg, records, start):
        if leg.op_at(0.0).grid.h == coarse_h:
            return x0, ct.STAGNATION, None
        return cont(leg, x0, cfg, records, start)

    if failure == "gate":
        monkeypatch.setattr(ct, "verify_subsolution", gate_fails_on_coarse)
        message = "subsolution gate failed (refused)"
    elif failure == "legs":
        monkeypatch.setattr(ct, "two_step_legs", legs_fail_on_coarse)
        message = "subsolution is not admissible"
    else:
        monkeypatch.setattr(ct, "_continue_in_t", path_fails_on_coarse)
        message = "the path ended Stagnation"
    field, report = ct.solve_problem(spec, cfg)
    assert report.status == ct.CONVERGED
    assert report.messages == [f"level h={coarse_h:.6g}: {message}; the next level runs the path"]
    assert report.stages == path_report.stages
    assert np.array_equal(field.values, path_field.values)


def test_n3_refine_from_the_coarse_field():
    # h = 0.14 -> 0.07 on n = 3: the prolongation fills the nodes next to
    # the rim, and one Newton solve reaches the path's own field
    pf = problems.load_problem(PROBLEM_DIR / "offcenter_sphere_k0_n3.wg")
    coarse_spec, cfg, _ = problems.build_problem(pf, 0.14)
    coarse_field, coarse_report = ct.solve_problem(coarse_spec, cfg)
    spec, _, _ = problems.build_problem(pf, 0.07)
    field, report = ct.solve_problem(spec, cfg, coarse=coarse_field)
    assert report.status == ct.CONVERGED and report.messages == []
    [record] = report.stages
    assert record["stage"] == "refine" and record["h"] == 0.07
    assert record["newton_iterations"] <= 4 and record["ordering_ok"]
    assert report.final_residual <= cfg.newton_tol
    path_field, path_report = ct.solve_problem(path_only(spec), cfg)
    assert not any(r["stage"] == "refine" for r in path_report.stages)
    assert np.max(np.abs(field.values - path_field.values)) <= 1e-12
    # the default route builds the same ladder: the path at 0.14, then one refine
    ladder_field, ladder_report = ct.solve_problem(spec, cfg)
    assert ladder_report.status == ct.CONVERGED and ladder_report.messages == []
    *path, refine = ladder_report.stages
    assert path == coarse_report.stages
    assert refine["stage"] == "refine" and refine["h"] == 0.07
    assert refine["newton_iterations"] <= 4 and refine["ordering_ok"]
    assert np.max(np.abs(ladder_field.values - path_field.values)) <= 1e-12


def test_refine_only_solve_reports_converged():
    # 21 -> 41 across given the coarse field: no path runs, and the returned
    # field's status is Converged
    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    coarse_field, _ = ct.solve_problem(spec.coarser(2.0 * spec.grid.h), cfg)
    field, report = ct.solve_problem(spec, cfg, coarse=coarse_field)
    assert field is not None and report.status == ct.CONVERGED
    assert [r["stage"] for r in report.stages] == ["refine"]


@cache
def k0_refine_41():
    """(spec, cfg, coarse field): the k0 file at 41 across and its converged 21-across field."""
    spec, cfg, _ = build("offcenter_sphere_k0.wg", 41)
    coarse_field, _ = ct.solve_problem(spec.coarser(2.0 * spec.grid.h), cfg)
    return spec, cfg, coarse_field


def counted_splu(monkeypatch, wrap=lambda lu: lu):
    """Records the order of every matrix that splu factors; wrap may stand in for a factor."""
    orders = []
    splu = spla.splu

    def counting(J, **options):
        orders.append(J.shape[0])
        return wrap(splu(J, **options))

    monkeypatch.setattr(spla, "splu", counting)
    return orders


def test_refine_keeps_its_first_factor(monkeypatch):
    # the prolonged start's first full step cuts the residual more than
    # 100-fold, so the later iterations take chord steps from its factor
    spec, cfg, coarse_field = k0_refine_41()
    orders = counted_splu(monkeypatch)
    field, report = ct.solve_problem(spec, cfg, coarse=coarse_field)
    assert report.status == ct.CONVERGED
    [record] = report.stages
    assert record["stage"] == "refine"
    assert orders == [spec.grid.n_interior] * record["lu_factors"]
    assert len(orders) <= 2 and record["newton_iterations"] <= 4
    monkeypatch.undo()
    path_field, _ = ct.solve_problem(path_only(spec), cfg)
    assert np.max(np.abs(field.values - path_field.values)) <= 1e-12


class _SecondSolveFails:
    """A factor whose second solve is not finite."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        x = self.lu.solve(b)
        return np.full_like(x, np.nan) if self.solves == 2 else x


def test_a_failed_chord_step_takes_a_fresh_factor(monkeypatch):
    # the kept factor's first chord step is not finite: the factor is dropped
    # for good, and the iteration goes on as Newton with a fresh factor
    spec, cfg, coarse_field = k0_refine_41()
    plain_field, plain = ct.solve_problem(spec, cfg, coarse=coarse_field)
    kept = []

    def first_fails(lu):
        kept.append(_SecondSolveFails(lu) if not kept else lu)
        return kept[-1]

    orders = counted_splu(monkeypatch, first_fails)
    field, report = ct.solve_problem(spec, cfg, coarse=coarse_field)
    assert report.status == ct.CONVERGED and report.messages == []
    [record] = report.stages
    assert kept[0].solves == 2
    # a fresh factor for the failed chord step, then one per Newton iteration
    assert len(orders) == record["lu_factors"] == record["newton_iterations"]
    assert record["lu_factors"] == plain.stages[0]["lu_factors"] + 1
    assert np.max(np.abs(field.values - plain_field.values)) <= 1e-12
