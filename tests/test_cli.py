"""CLI subcommands: exit codes, artifacts, determinism."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from weingarten import cli, grids
from weingarten import continuity as ct
from weingarten.cli import main
from weingarten.continuity import diagnostics_monitor
from weingarten.errors import AdmissibilityError
from weingarten.problems import build_problem, load_problem
from weingarten.spaceform import SpaceFormParams
from weingarten.symfunc import f_and_F

REPO = Path(__file__).resolve().parent.parent

GEODESIC_H = """
space_form = -1
curvature_order = 2
dimension = 2

[domain]
kind = cap
theta0 = 0.6283185307179586
h = 0.08

[psi]
expr = 3.467139042295287   # coth(0.6)^2

[boundary]
rho = 0.6

[subsolution]
rho = 0.6
"""

SADDLE = """
space_form = 0
curvature_order = 2
dimension = 2

[domain]
kind = cap
theta0 = 0.6283185307179586
h = 0.1

[psi]
expr = 1

[boundary]
rho = 1/(1.5 + 2*(y1*y1 - y2*y2))

[subsolution]
rho = 1/(1.5 + 2*(y1*y1 - y2*y2))
"""

OFFCENTER = """
space_form = 0
curvature_order = 2
dimension = 2

[domain]
kind = cap
theta0 = 0.6283185307179586
h = 0.07

[psi]
expr = 1

[boundary]
rho = 0.3/sqrt(1 + y1^2 + y2^2) + sqrt(0.91 + 0.09/(1 + y1^2 + y2^2))

[subsolution]
sphere = 0.9 0 0 0.45434653266964176

[exact]
rho = 0.3/sqrt(1 + y1^2 + y2^2) + sqrt(0.91 + 0.09/(1 + y1^2 + y2^2))
"""


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="prob.wg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_solve_geodesic(problem_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem_file(GEODESIC_H), "--out", str(out)])
    assert rc == 0
    assert (out / "solution.grid").exists()
    assert (out / "report.json").exists()
    assert (out / "solution.csv").exists()
    assert (out / "run_meta.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Converged"
    assert report["final_residual"] < 1e-9
    grid, field, sf = grids.load_grid(out / "solution.grid")
    assert sf == -1
    assert field.representation == "v"
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "y1,y2,rho,kappa_min,kappa_max,residual"


def test_solve_report_deterministic(problem_file, tmp_path):
    p = problem_file(GEODESIC_H)
    rc1 = main(["solve", "--problem", p, "--out", str(tmp_path / "a")])
    rc2 = main(["solve", "--problem", p, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    ga = (tmp_path / "a" / "solution.grid").read_bytes()
    gb = (tmp_path / "b" / "solution.grid").read_bytes()
    assert ga == gb


def test_spherical_psi_reads_v_as_ln_u(problem_file, tmp_path, capsys):
    # on K = +1 psi's u is the graph's u wherever psi is read, so log(u) is
    # the v = ln u of every leg, the plan's samples of the deformed metric
    # included; rho = 0.5 (u = cot 0.5) still solves
    # psi = cot(0.5)^2 + (log(u) - ln cot 0.5)^2
    text = (REPO / "problems/geodesic_spherical.wg").read_text()
    text = text.replace("expr = 3.3506852993400433",
                        "expr = 3.3506852993400433 + (log(u) - log(1.830487721712452))^2")
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem_file(text), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["status"] == "Converged"
    rho = np.genfromtxt(out / "solution.csv", delimiter=",", names=True)["rho"]
    assert np.max(np.abs(rho - 0.5)) < 1e-9


def test_check_subsolution_saddle_exits_2(problem_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["check-subsolution", "--problem", problem_file(SADDLE), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "AdmissibilityError"
    report = json.loads((out / "subsolution.json").read_text())
    assert not report["ok"]


def test_check_subsolution_ok(problem_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["check-subsolution", "--problem", problem_file(GEODESIC_H), "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("line", [
    "dt_init = 0", "dt_min = 0", "dt_growth = 0.5", "eps_target_factor = -1e-6",
])
def test_solver_step_control_out_of_range_exits_1(problem_file, tmp_path, capsys, line):
    # step control is not a [solver] key: refused while the file is parsed,
    # before any solve could stall on it
    text = GEODESIC_H + "\n[solver]\n" + line + "\n"
    rc = main(["check-subsolution", "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ParseError"
    assert f"unknown key {line.split()[0]!r}" in payload["message"]


def test_parse_error_exit_1(problem_file, tmp_path, capsys):
    rc = main([
        "solve", "--problem", problem_file(GEODESIC_H + "\n[domain]\nbogus = 1\n"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bogus" in err


def test_assembly_error_exits_1(tmp_path, capsys):
    # a spacing that leaves the cap no interior node is refused with the
    # error JSON, not a traceback
    rc = main(["check-subsolution", "--problem", str(REPO / "problems" / "offcenter_sphere_k0.wg"),
               "--out", str(tmp_path / "o"), "--h", "2"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "AssemblyError"
    assert "no interior nodes" in payload["message"]


CAP = "kind = cap\ntheta0 = 0.6283185307179586"


@pytest.mark.parametrize("old, new, key", [
    ("space_form = -1", "space_form = hyperbolic", "space_form"),
    ("dimension = 2", "dimension = 2.0", "dimension"),
    ("curvature_order = 2", "curvature_order = two", "curvature_order"),
    ("h = 0.08", "h = 0.08.1", "h"),
    ("theta0 = 0.6283185307179586", "theta0 = pi/5", "theta0"),
    (CAP, CAP + "\ncenter = 0 0 one", "center"),
    (CAP, "kind = mask\nmask_file = none.mask\nradius = wide", "radius"),
    (CAP, "kind = mask\nmask_file = none.mask\norigin = 0 x", "origin"),
    ("[subsolution]\nrho = 0.6", "[subsolution]\nsphere = 1 0 0 zero", "sphere"),
    ("[psi]", "[solver]\nnewton_tol = tiny\n\n[psi]", "newton_tol"),
    ("[psi]", "[solver]\nmax_newton = 3.5\n\n[psi]", "max_newton"),
])
def test_non_numeric_value_exits_1(problem_file, tmp_path, capsys, old, new, key):
    # a value that does not read as a number is a SemanticError naming its
    # key, with the error JSON, not a traceback
    text = GEODESIC_H.replace(old, new, 1)
    assert text != GEODESIC_H
    rc = main(["check-subsolution", "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert repr(key) in payload["message"]


@pytest.mark.parametrize("center", ["0 0 2", "0 0 0", "0.6 0.6 0.6"])
def test_center_off_the_unit_sphere_exits_1(problem_file, tmp_path, capsys, center):
    # the chart center is a point of the sphere: another vector is a
    # SemanticError naming the key, not a traceback from the chart
    text = GEODESIC_H.replace(CAP, CAP + f"\ncenter = {center}")
    rc = main(["check-subsolution", "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert payload["message"].startswith("'center' in [domain]: chart center must be a unit vector")


@pytest.mark.parametrize("h", ["0", "nan", "inf", "-0.1"])
@pytest.mark.parametrize("route", ["file", "--h"])
def test_invalid_spacing_exits_1(problem_file, tmp_path, capsys, h, route):
    # a spacing that is not finite and > 0 is a SemanticError naming its
    # key, from the problem file and from the --h override alike
    text = GEODESIC_H.replace("h = 0.08", f"h = {h}") if route == "file" else GEODESIC_H
    extra = ["--h", h] if route == "--h" else []
    rc = main(["check-subsolution", "--problem", problem_file(text), "--out", str(tmp_path / "o"),
               *extra])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    key = "'h' in [domain]" if route == "file" else "--h"
    assert payload["message"].startswith(f"{key} must be a finite spacing > 0")


MASK_ROWS = "0000000\n0111110\n0111110\n0111110\n0111110\n0111110\n0000000\n"
MASK_HEADER = "h 0.05\norigin -0.15 -0.15\nrows 7\ncols 7\n"


def _mask_problem(problem_file, header=MASK_HEADER, domain="", rows=MASK_ROWS):
    """GEODESIC_H on a 7x7 mask domain; domain adds [domain] lines."""
    mask = Path(problem_file(header + rows, name="dom.mask"))
    text = GEODESIC_H.replace(CAP + "\nh = 0.08", f"kind = mask\nmask_file = {mask}{domain}")
    return problem_file(text)


@pytest.mark.parametrize("domain", ["", "\nh = 0.05"], ids=["no-h", "same-h"])
def test_mask_domain_reads_its_spacing_from_the_mask_file(problem_file, tmp_path, domain):
    # [domain] h is not needed for a mask domain, and may restate the header's
    out = tmp_path / "o"
    rc = main(["check-subsolution", "--problem", _mask_problem(problem_file, domain=domain),
               "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "subsolution.json").read_text())["ok"]


@pytest.mark.parametrize("header, message", [
    (MASK_HEADER.replace("h 0.05", "h 0"), "mask header 'h' must be a finite spacing > 0"),
    (MASK_HEADER.replace("h 0.05", "h nan"), "mask header 'h' must be a finite"),
    (MASK_HEADER.replace("h 0.05", "h x"), "mask header 'h' must be a finite"),
    (MASK_HEADER.replace("h 0.05\n", ""), "mask file has no 'h' header line"),
    (MASK_HEADER.replace("origin -0.15 -0.15", "origin -0.15"),
     "mask header 'origin' must be two finite numbers"),
    (MASK_HEADER.replace("rows 7", "rows 0"), "mask header 'rows' must be a positive"),
    (MASK_HEADER.replace("cols 7", "cols 7.5"), "mask header 'cols' must be a positive"),
], ids=["h-zero", "h-nan", "h-text", "h-missing", "origin-one-number", "rows-zero", "cols-fraction"])
def test_malformed_mask_header_exits_1(problem_file, tmp_path, capsys, header, message):
    # each header key is checked and named, with the error JSON, not a traceback
    rc = main(["check-subsolution", "--problem", _mask_problem(problem_file, header),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ParseError"
    assert message in payload["message"]


@pytest.mark.parametrize("rows, message", [
    (MASK_ROWS.replace("0111110", "01x1110", 1), "mask row 1 may hold only 0 and 1, got '01x1110'"),
    (MASK_ROWS.replace("0111110", "0111 10", 1), "mask row 1 may hold only 0 and 1"),
    (MASK_ROWS + "0000000\n", "mask row 7 lies past the header's 7 rows"),
    (MASK_ROWS.replace("0111110\n", "", 1), "mask file lists 6 rows, header says 7"),
    (MASK_ROWS.replace("0111110", "011111", 1), "mask row 1 has 6 columns, header says 7"),
], ids=["x-cell", "space-cell", "eighth-row", "six-rows", "short-row"])
def test_malformed_mask_rows_exit_1(problem_file, tmp_path, capsys, rows, message):
    # each row is checked and named: a cell other than 0 or 1 is not read
    # as outside, and a row past the header's count is not dropped
    rc = main(["check-subsolution", "--problem", _mask_problem(problem_file, rows=rows),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ParseError"
    assert message in payload["message"]


def test_mask_node_outside_the_radius_exits_1(problem_file, tmp_path, capsys):
    # the 7x7 mask reaches |y| = 0.21 > 0.1: a SemanticError naming the key,
    # not a traceback from the grid builder
    rc = main(["check-subsolution", "--problem",
               _mask_problem(problem_file, domain="\nradius = 0.1"), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert payload["message"].startswith("'radius' in [domain]: mask node at |y|=")


def test_mask_domain_refuses_a_different_spacing(problem_file, tmp_path, capsys):
    # the grid is the mask file's: a [domain] h other than its header's would be ignored
    rc = main(["check-subsolution", "--problem", _mask_problem(problem_file, domain="\nh = 0.07"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert payload["message"] == "'h' in [domain] (0.07) differs from the mask file's h (0.05)"


def test_mask_domain_in_three_dimensions_exits_1(problem_file, tmp_path, capsys):
    # mask files are rows x cols: a mask domain is 2-D
    text = Path(_mask_problem(problem_file)).read_text().replace(
        "curvature_order = 2\ndimension = 2", "curvature_order = 3\ndimension = 3")
    rc = main(["check-subsolution", "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert "mask domains are 2-D: dimension must be 2, got 3" in payload["message"]


@pytest.mark.parametrize("case", ["problem", "mask_file", "subsolution", "grid"])
def test_missing_input_file_exits_1(problem_file, tmp_path, capsys, case):
    # a missing input file gives the error JSON naming its path, not a traceback
    missing = tmp_path / "missing.txt"
    if case == "problem":
        command = ["check-subsolution", "--problem", str(missing)]
    elif case == "mask_file":
        text = GEODESIC_H.replace(CAP + "\nh = 0.08", "kind = mask\nmask_file = missing.txt")
        command = ["check-subsolution", "--problem", problem_file(text)]
    elif case == "subsolution":
        text = GEODESIC_H.replace("[subsolution]\nrho = 0.6", "[subsolution]\nfile = missing.txt")
        command = ["check-subsolution", "--problem", problem_file(text)]
    else:
        command = ["curvature", "--grid", str(missing)]
    rc = main([*command, "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "FileNotFoundError"
    assert str(missing) in payload["message"]


def test_relative_input_paths_follow_the_problem_file(tmp_path, monkeypatch):
    # mask_file and [subsolution] file are read next to the problem file,
    # wherever the solver runs from; the parsed raw text keeps them as written
    inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
    inputs.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    (inputs / "dom.mask").write_text(MASK_HEADER + MASK_ROWS)
    text = GEODESIC_H.replace(CAP + "\nh = 0.08", "kind = mask\nmask_file = dom.mask")
    (inputs / "rho.wg").write_text(text)
    spec = build_problem(load_problem("../inputs/rho.wg"))[0]
    grids.save_grid(inputs / "sub.grid", spec.grid,
                    grids.GraphField(spec.grid, spec.subsolution_rho, "rho"))
    (inputs / "file.wg").write_text(
        text.replace("[subsolution]\nrho = 0.6", "[subsolution]\nfile = sub.grid"))
    pf = load_problem("../inputs/file.wg")
    assert pf.raw["domain"]["mask_file"] == "dom.mask"
    assert pf.raw["subsolution"]["file"] == "sub.grid"
    out = tmp_path / "o"
    assert main(["check-subsolution", "--problem", "../inputs/file.wg", "--out", str(out)]) == 0
    assert json.loads((out / "subsolution.json").read_text())["ok"]


@pytest.mark.parametrize("command", [["solve"], ["check-subsolution"], ["lincheck"]])
def test_curvature_order_other_than_dimension_exits_1(problem_file, tmp_path, capsys, command):
    # the solver solves sigma_n(kappa) = psi only
    text = GEODESIC_H.replace("curvature_order = 2", "curvature_order = 1")
    rc = main([*command, "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert "curvature_order must equal dimension (2)" in payload["message"]


def test_solve_offcenter_and_curvature_roundtrip(problem_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem_file(OFFCENTER), "--out", str(out)])
    assert rc == 0
    out2 = tmp_path / "curv"
    rc2 = main(["curvature", "--grid", str(out / "solution.grid"), "--out", str(out2)])
    assert rc2 == 0
    summary = json.loads((out2 / "curvature.json").read_text())
    assert summary["strictly_locally_convex"]
    # converged off-center sphere: kappa == 1 up to O(h^2)
    assert abs(summary["kappa_min"] - 1.0) < 5e-3
    assert abs(summary["kappa_max"] - 1.0) < 5e-3


@pytest.mark.parametrize("k", ["3", "-1", "0"])
def test_curvature_order_outside_1_to_n_exits_1(tmp_path, capsys, k):
    g = grids.build_cap_domain(np.pi / 5, 0.1)
    path = tmp_path / "g.grid"
    grids.save_grid(path, g, grids.GraphField(g, np.full(g.n_nodes, 0.7), "rho"), space_form=-1)
    out = tmp_path / "curv"
    rc = main(["curvature", "--grid", str(path), "--out", str(out), "--k", k])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SemanticError"
    assert f"k={k} outside 1..2" in payload["message"]
    assert not (out / "curvature.json").exists()


def test_curvature_rho_grid(tmp_path):
    g = grids.build_cap_domain(np.pi / 5, 0.1)
    field = grids.GraphField(g, np.full(g.n_nodes, 0.7), "rho")
    path = tmp_path / "g.grid"
    grids.save_grid(path, g, field, space_form=-1)
    out = tmp_path / "curv"
    rc = main(["curvature", "--grid", str(path), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "curvature.json").read_text())
    expect = np.cosh(0.7) / np.sinh(0.7)
    assert summary["kappa_min"] == pytest.approx(expect, abs=1e-10)


def test_curvature_saddle_u_grid(tmp_path):
    # a non-convex u-field is evaluated and reported, not refused; the
    # library monitor still refuses it
    g = grids.build_cap_domain(np.pi / 5, 0.05)
    y = g.coords
    field = grids.GraphField(g, 2.0 + 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2), "u")
    path = tmp_path / "g.grid"
    grids.save_grid(path, g, field, space_form=0)
    out = tmp_path / "curv"
    rc = main(["curvature", "--grid", str(path), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "curvature.json").read_text())
    assert not summary["strictly_locally_convex"]
    assert summary["kappa_min"] < 0.0 < summary["kappa_max"]
    assert summary["diagnostics"] is None
    with pytest.raises(AdmissibilityError):
        diagnostics_monitor(field, SpaceFormParams(0))


def test_curvature_rho_grid_matches_diagnostics_monitor(tmp_path):
    # a stored rho field has one route: read as u = zeta^-1(rho) by the
    # u-representation operator, in the CLI and in the library monitor alike
    g = grids.build_cap_domain(np.pi / 5, 0.05)
    y = g.coords
    field = grids.GraphField(g, 0.7 + 0.05 * (y[:, 0] ** 2 + 0.5 * y[:, 1] ** 2), "rho")
    path = tmp_path / "g.grid"
    grids.save_grid(path, g, field, space_form=-1)
    out = tmp_path / "curv"
    assert main(["curvature", "--grid", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "curvature.json").read_text())
    assert summary["diagnostics"] == diagnostics_monitor(field, SpaceFormParams(-1))


def test_curvature_reproduces_solve_diagnostics(problem_file, tmp_path):
    # the stored v-field of a K = -1 solve, read back, gives the report's
    # final diagnostics: same operator, same values
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem_file(GEODESIC_H), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    out2 = tmp_path / "curv"
    assert main(["curvature", "--grid", str(out / "solution.grid"), "--out", str(out2)]) == 0
    summary = json.loads((out2 / "curvature.json").read_text())
    assert summary["diagnostics"] == report["diagnostics"]["final"]


def test_csv_rows_follow_node_ids(problem_file, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem_file(GEODESIC_H), "--out", str(out)]) == 0
    assert main(["curvature", "--grid", str(out / "solution.grid"), "--out", str(out)]) == 0
    grid = grids.load_grid(out / "solution.grid")[0]
    expect = grid.coords[np.sort(grid.interior_ids)]
    for name in ("solution.csv", "curvature.csv"):
        y = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=(0, 1))
        assert np.array_equal(y, expect)


@pytest.mark.parametrize("psi", ["3.467139042295287", "3.467139042295287 * nu_rad^2"])
def test_solution_csv_reads_the_solve_evaluation(problem_file, tmp_path, monkeypatch, psi):
    # solution.csv is written from the report's per-node columns, taken from
    # Newton's own evaluation of the returned field: after solve_problem the
    # command evaluates nothing and builds no psi bundle
    after, solved = Counter(), []
    for name in ("evaluate", "bundle"):
        def counting(self, *args, _name=name, _fn=getattr(ct.DiscreteOperator, name), **kwargs):
            after[_name] += bool(solved)
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(ct.DiscreteOperator, name, counting)
    solve_problem = cli.solve_problem

    def flagged(*args):
        solved.append(solve_problem(*args))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_problem", flagged)
    path = problem_file(GEODESIC_H.replace("3.467139042295287   # coth(0.6)^2", psi))
    out = tmp_path / "out"
    assert main(["solve", "--problem", path, "--out", str(out)]) == 0
    assert solved and after == Counter()
    # the residual column is f^n - psi_hat^n of the saved field, bit for bit
    grid, field, K = grids.load_grid(out / "solution.grid")
    op, ev = ct.evaluate_stored(field, SpaceFormParams(K))
    spec, n = build_problem(load_problem(path))[0], grid.dim
    expect = f_and_F(ev.state.a)[0] ** n - spec.psi.psi_hat(op.bundle(ev)) ** n
    residual = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, usecols=n + 3)
    assert np.array_equal(residual, expect[np.argsort(grid.interior_ids)])


def test_lincheck(problem_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["lincheck", "--problem", problem_file(GEODESIC_H), "--out", str(out),
               "--samples", "10"])
    assert rc == 0
    report = json.loads((out / "lincheck.json").read_text())
    assert report["max_rel_err"] < 1e-5


PROBLEMS = sorted(REPO.glob("problems/*.wg")) + [REPO / "perfbench/problems/hyperbolic_nu_n3.wg"]


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
def test_lincheck_on_every_problem_file(tmp_path, capsys, path):
    # the analytic blocks agree with differences of f in every space form,
    # at n = 2 and n = 3
    out = tmp_path / "out"
    assert main(["lincheck", "--problem", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "lincheck.json").read_text())
    assert report["k"] == report["dimension"]
    assert report["max_rel_err"] < report["tolerance"]


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
def test_solve_on_every_problem_file(tmp_path, capsys, path):
    # every shipped file passes its gate and converges at its own h, to its
    # [exact] graph within 0.06 h^2 (the largest ratio is about 0.052)
    out = tmp_path / "out"
    assert main(["solve", "--problem", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Converged"
    assert report["diagnostics"]["subsolution"]["ok"] and report["messages"] == []
    pf = load_problem(path)
    _, cfg, _ = build_problem(pf)
    assert report["final_residual"] <= cfg.newton_tol
    table = np.genfromtxt(out / "solution.csv", delimiter=",", names=True)
    exact = pf.exact.evaluate({f"y{i+1}": table[f"y{i+1}"] for i in range(pf.dimension)})
    assert np.max(np.abs(table["rho"] - exact)) <= 0.06 * pf.domain["h"] ** 2


def test_convergence_subcommand(problem_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "convergence", "--problem", problem_file(OFFCENTER), "--out", str(out),
        "--levels", "2", "--h", "0.09",
    ])
    assert rc == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert len(payload["levels"]) == 2
    assert payload["observed_orders"][0] > 1.7


@pytest.mark.parametrize("command, flag", [
    (["lincheck", "--samples", "1"], ["--tol", "5"]),
    (["check-subsolution"], ["--tol", "nan"]),
    (["check-subsolution"], ["--max-newton", "-3"]),
])
def test_newton_flags_only_where_newton_runs(problem_file, tmp_path, capsys, command, flag):
    # neither command solves, so a Newton setting there is a usage error,
    # not a value silently ignored
    with pytest.raises(SystemExit) as exc:
        main([*command, "--problem", problem_file(GEODESIC_H), "--out", str(tmp_path / "o"),
              *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["solve", "--tol", "inf"], "newton_tol must be finite and > 0, got inf"),
    (["solve", "--tol", "nan"], "newton_tol must be finite and > 0, got nan"),
    (["solve", "--tol", "-1"], "newton_tol must be finite and > 0, got -1.0"),
    (["solve", "--tol", "0"], "newton_tol must be finite and > 0, got 0.0"),
    (["solve", "--max-newton", "0"], "max_newton must be >= 1, got 0"),
    (["convergence", "--tol", "inf"], "newton_tol must be finite and > 0, got inf"),
    (["convergence", "--max-newton", "-2"], "max_newton must be >= 1, got -2"),
    (["convergence", "--levels", "0"], "--levels must be >= 1, got 0"),
    (["lincheck", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["lincheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
])
def test_setting_out_of_range_exits_1(problem_file, tmp_path, capsys, args, message):
    # a setting that could only stop Newton at once, never stop it, or do no
    # work is refused before anything runs or is written
    out = tmp_path / "o"
    assert main([*args, "--problem", problem_file(GEODESIC_H), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "SemanticError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("newton_tol = inf", "newton_tol must be finite and > 0, got inf"),
    ("newton_tol = 0", "newton_tol must be finite and > 0, got 0.0"),
    ("max_newton = 0", "max_newton must be >= 1, got 0"),
])
def test_solver_key_out_of_range_exits_1(problem_file, tmp_path, capsys, line, message):
    text = GEODESIC_H + "\n[solver]\n" + line + "\n"
    rc = main(["solve", "--problem", problem_file(text), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "SemanticError", "message": message}


def test_convergence_applies_max_newton(problem_file, tmp_path, capsys):
    # one Newton iteration is too few at h = 0.09, for solve and for every
    # level of a refinement study alike
    common = ["--problem", problem_file(OFFCENTER), "--h", "0.09", "--max-newton", "1"]
    assert main(["solve", *common, "--out", str(tmp_path / "solve")]) == 1
    assert "MaxIterations" in capsys.readouterr().err
    assert main(["convergence", *common, "--levels", "1", "--out", str(tmp_path / "conv")]) == 1
    assert "MaxIterations" in capsys.readouterr().err


DISK_MASK_H = 2.0 * float(np.tan(np.pi / 5)) / 40


def disk_mask_problem(problem_file):
    """GEODESIC_H on the 41^2 lattice disk of spacing DISK_MASK_H, given as a mask."""
    h = DISK_MASK_H
    idx = np.arange(41) - 20
    rows = "".join("".join("1" if i * i + j * j < 400 else "0" for j in idx) + "\n" for i in idx)
    mask = problem_file(f"h {h!r}\norigin {-20 * h!r} {-20 * h!r}\nrows 41\ncols 41\n" + rows,
                        name="disk.mask")
    return GEODESIC_H.replace(CAP + "\nh = 0.08", f"kind = mask\nmask_file = {mask}")


def test_mask_domain_gets_no_refine_record(problem_file, tmp_path):
    # a mask exists at one spacing, so a mask domain runs the path alone,
    # where the cap of the same spacing and size ladders from 21 nodes across
    text = disk_mask_problem(problem_file)
    cap_spec, _, _ = build_problem(load_problem(problem_file(GEODESIC_H, name="cap.wg")),
                                   DISK_MASK_H)
    assert cap_spec.coarser is not None
    spec, _, _ = build_problem(load_problem(problem_file(text)))
    assert spec.coarser is None
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem_file(text), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Converged"
    assert not any(rec["stage"] == "refine" for rec in report["stages"])


def test_convergence_on_a_mask_domain_solves_the_loaded_spacing(problem_file, tmp_path, capsys):
    # one level is the problem as loaded, with no spacing override
    out = tmp_path / "out"
    assert main(["convergence", "--problem", problem_file(disk_mask_problem(problem_file)),
                 "--out", str(out), "--levels", "1"]) == 0
    [level] = json.loads((out / "convergence.json").read_text())["levels"]
    assert level["h"] == DISK_MASK_H and level["error_vs_exact"] is None


def test_convergence_on_a_mask_domain_refuses_more_levels(problem_file, tmp_path, capsys):
    # more levels would need the mask at half its spacing: refused up front
    out = tmp_path / "out"
    assert main(["convergence", "--problem", problem_file(disk_mask_problem(problem_file)),
                 "--out", str(out), "--levels", "2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SemanticError" and "mask domain" in err["message"]
    assert not out.exists()


def _spy(monkeypatch, module, name):
    """Record (args, result) of every call of module.name, which keeps working."""
    calls = []
    fn = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spied)
    return calls


def test_convergence_runs_the_path_once(tmp_path, capsys, monkeypatch):
    # 41, 81 and 161 across: the first level walks its own ladder from 21
    # across, and each finer level refines the field of the level below
    legs = _spy(monkeypatch, ct, "run_legs")
    refines = _spy(monkeypatch, ct, "_refine")
    out = tmp_path / "out"
    assert main(["convergence", "--problem", str(REPO / "problems/offcenter_sphere_k0.wg"),
                 "--out", str(out), "--levels", "3"]) == 0
    assert [args[0].h for args, _ in legs] == pytest.approx([2.0 * np.tan(np.pi / 5) / 20])
    assert [args[0].grid.h for args, _ in refines] == pytest.approx(
        [2.0 * np.tan(np.pi / 5) / (across - 1) for across in (41, 81, 161)])
    orders = json.loads((out / "convergence.json").read_text())["observed_orders"]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_convergence_richardson_difference(tmp_path, capsys, monkeypatch):
    # without [exact] the study compares each level with the next on the
    # nodes they share: 21, 41 and 81 across on the k0 off-centre sphere
    text = (REPO / "problems/offcenter_sphere_k0.wg").read_text().split("\n[exact]")[0]
    problem = tmp_path / "richardson.wg"
    problem.write_text(text)
    solved = _spy(monkeypatch, cli, "solve_problem")
    out = tmp_path / "out"
    assert main(["convergence", "--problem", str(problem), "--out", str(out),
                 "--h", repr(2.0 * float(np.tan(np.pi / 5)) / 20), "--levels", "3"]) == 0
    fields = [(spec.grid, cli._field_rho(field, spec)) for (spec, *_), (field, _) in solved]
    assert len(fields) == 3
    payload = json.loads((out / "convergence.json").read_text())
    for level, (coarse, rho_c), (fine, rho_f) in zip(payload["levels"], fields, fields[1:]):
        at = {tuple(np.round(y, 9)): rho_f[j] for j, y in enumerate(fine.coords)}
        shared = [abs(rho_c[i] - at[tuple(np.round(coarse.coords[i], 9))])
                  for i in coarse.interior_ids]
        assert level["richardson_diff"] == max(shared)
    assert "richardson_diff" not in payload["levels"][-1]
    [order] = payload["observed_orders"]
    assert 1.8 <= order <= 2.2


def test_convergence_n3_offcenter_sphere(tmp_path, capsys, monkeypatch):
    # sigma_3 = 1 on the unit sphere off the axis: not discretely exact, so
    # the n = 3 error falls with h (h = 0.14 and 0.07); the path runs once,
    # at 0.14, and 0.07 refines its field
    legs = _spy(monkeypatch, ct, "run_legs")
    refines = _spy(monkeypatch, ct, "_refine")
    out = tmp_path / "out"
    assert main(["convergence", "--problem", str(REPO / "problems/offcenter_sphere_k0_n3.wg"),
                 "--out", str(out), "--levels", "2"]) == 0
    assert [args[0].h for args, _ in legs] == [0.14]
    assert [args[0].grid.h for args, _ in refines] == [0.07]
    payload = json.loads((out / "convergence.json").read_text())
    assert all(lv["error_vs_exact"] > 0 for lv in payload["levels"])
    [order] = payload["observed_orders"]
    assert order >= 1.6
