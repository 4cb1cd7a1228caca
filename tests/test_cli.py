"""CLI subcommands: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from weingarten import grids
from weingarten.cli import main
from weingarten.continuity import diagnostics_monitor
from weingarten.errors import AdmissibilityError
from weingarten.problems import build_problem, load_problem
from weingarten.spaceform import SpaceFormParams

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


def _mask_problem(problem_file, header=MASK_HEADER, domain=""):
    """GEODESIC_H on a 7x7 mask domain; domain adds [domain] lines."""
    mask = Path(problem_file(header + MASK_ROWS, name="dom.mask"))
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


def test_convergence_applies_max_newton(problem_file, tmp_path, capsys):
    # one Newton iteration is too few at h = 0.09, for solve and for every
    # level of a refinement study alike
    common = ["--problem", problem_file(OFFCENTER), "--h", "0.09", "--max-newton", "1"]
    assert main(["solve", *common, "--out", str(tmp_path / "solve")]) == 1
    assert "MaxIterations" in capsys.readouterr().err
    assert main(["convergence", *common, "--levels", "1", "--out", str(tmp_path / "conv")]) == 1
    assert "MaxIterations" in capsys.readouterr().err
