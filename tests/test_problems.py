"""Problem files: parsing, validation, lossless round trip, assembly."""

import json
from dataclasses import replace

import numpy as np
import pytest

from weingarten.errors import ParseError, SemanticError
from weingarten.problems import build_problem, load_mask, parse_problem

MINIMAL = """
space_form = 0
curvature_order = 2
dimension = 2

[domain]
kind = cap
theta0 = 0.6283185307179586
h = 0.08

[psi]
expr = 1

[boundary]
rho = 1

[subsolution]
sphere = 1 0 0 0
"""


def test_minimal_parses():
    pf = parse_problem(MINIMAL)
    assert pf.space_form == 0
    assert pf.dimension == 2
    assert pf.domain["kind"] == "cap"
    assert pf.subsolution["kind"] == "sphere"
    assert pf.exact is None


def test_unknown_key_rejected_with_location():
    bad = MINIMAL + "\n[domain]\nfoo = 1\n"
    with pytest.raises(ParseError, match="foo"):
        parse_problem(bad)


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_problem(MINIMAL + "\n[frobnicate]\nx = 1\n")


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("[psi]\nexpr = 1", "[psi]\nexpr = 1\nexpr = 2")
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem(bad)


def test_missing_required_key():
    bad = MINIMAL.replace("[psi]\nexpr = 1", "[psi]")
    with pytest.raises(SemanticError, match="expr"):
        parse_problem(bad)


def test_hemisphere_condition_enforced():
    bad = MINIMAL.replace("theta0 = 0.6283185307179586", "theta0 = 1.6")
    with pytest.raises(SemanticError, match="hemisphere"):
        parse_problem(bad)


def test_bad_space_form():
    with pytest.raises(SemanticError, match="space_form"):
        parse_problem(MINIMAL.replace("space_form = 0", "space_form = 2"))


def test_curvature_order_must_equal_dimension():
    # an omitted curvature_order means n; any other value is refused
    assert parse_problem(MINIMAL.replace("curvature_order = 2\n", "")).dimension == 2
    with pytest.raises(SemanticError, match="curvature_order must equal dimension"):
        parse_problem(MINIMAL.replace("curvature_order = 2", "curvature_order = 1"))


def test_boundary_rejects_state_variables():
    bad = MINIMAL.replace("[boundary]\nrho = 1", "[boundary]\nrho = 1 + u")
    with pytest.raises(SemanticError, match="chart coordinates"):
        parse_problem(bad)


@pytest.mark.parametrize("old, new, label", [
    ("[boundary]\nrho = 1", "[boundary]\nrho = 1 + q7", "boundary"),
    ("[subsolution]\nsphere = 1 0 0 0", "[subsolution]\nrho = 1 + gradnorm", "subsolution"),
    ("[subsolution]", "[exact]\nrho = nu_rad\n\n[subsolution]", "exact"),
])
def test_graphs_over_the_chart_reference_position_only(old, new, label):
    # [boundary], [subsolution] rho and [exact] are graphs over the chart
    with pytest.raises(SemanticError, match=rf"\[{label}\] may only reference chart coordinates"):
        parse_problem(MINIMAL.replace(old, new))


def test_psi_may_reference_state():
    ok = MINIMAL.replace("[psi]\nexpr = 1", "[psi]\nexpr = exp(-u) + rho * nu_rad")
    pf = parse_problem(ok)
    assert pf.psi.variables == {"u", "rho", "nu_rad"}


def test_psi_unknown_variable_rejected():
    # psi is psi(X, nu): besides a name of no variable (q7), the unknown of a
    # continuation leg (v) and its partials (p1, gradnorm) are refused
    for name in ("q7", "v", "p1", "gradnorm"):
        bad = MINIMAL.replace("[psi]\nexpr = 1", f"[psi]\nexpr = 1 + {name}")
        with pytest.raises(SemanticError, match=rf"unknown variable\(s\) \['{name}'\]"):
            parse_problem(bad)


def test_lossless_round_trip():
    pf = parse_problem(MINIMAL)
    payload = json.loads(pf.to_json())
    assert payload["psi"]["expr"] == "1"
    assert payload["_top"]["space_form"] == "0"
    # re-parsing the reconstruction gives the same validated object
    rebuilt = "\n".join(
        ([f"{k} = {v}" for k, v in payload["_top"].items()])
        + [
            line
            for sec, kv in payload.items()
            if sec != "_top"
            for line in [f"[{sec}]"] + [f"{k} = {v}" for k, v in kv.items()]
        ]
    )
    pf2 = parse_problem(rebuilt)
    assert pf2.raw == pf.raw


def test_build_problem_assembles():
    pf = parse_problem(MINIMAL)
    spec, cfg, exact = build_problem(pf)
    assert spec.sf.K == 0
    assert spec.grid.n_interior > 0
    assert np.allclose(spec.boundary_rho, 1.0)
    assert np.allclose(spec.subsolution_rho, 1.0)  # unit sphere at the origin
    assert exact is None


def test_build_problem_h_override():
    pf = parse_problem(MINIMAL)
    spec1, _, _ = build_problem(pf)
    spec2, _, _ = build_problem(pf, h_override=0.04)
    assert spec2.grid.n_interior > spec1.grid.n_interior


def test_solver_overrides():
    text = MINIMAL + "\n[solver]\nnewton_tol = 1e-8\nmax_newton = 11\n"
    pf = parse_problem(text)
    _, cfg, _ = build_problem(pf)
    assert cfg.newton_tol == 1e-8
    assert cfg.max_newton == 11


def test_solver_keys_are_the_config_fields():
    # [solver] accepts exactly the HomotopyConfig fields, each parsed as its type;
    # the continuation constants and the step control are not settings
    text = MINIMAL + "\n[solver]\nnewton_tol = 1\nmax_newton = 7\n"
    _, cfg, _ = build_problem(parse_problem(text))
    assert (cfg.newton_tol, cfg.max_newton) == (1.0, 7)
    assert isinstance(cfg.newton_tol, float) and isinstance(cfg.max_newton, int)
    for key in ("epsilon", "delta1", "delta2", "t_exponent", "dt_init", "dt_min",
                "dt_growth", "eps_target_factor",
                "theta_N", "boundary_match_factor", "perturb_seed", "t_samples"):
        with pytest.raises(ParseError, match="unknown key"):
            parse_problem(MINIMAL + f"\n[solver]\n{key} = 1\n")


@pytest.mark.parametrize("line", [
    "newton_tol = inf", "newton_tol = nan", "newton_tol = 0", "newton_tol = -1e-8",
    "max_newton = 0", "max_newton = -1",
])
def test_solver_values_out_of_range(line):
    # HomotopyConfig refuses them, from a [solver] key and from replace alike
    key = line.split()[0]
    with pytest.raises(SemanticError, match=f"^{key} must be"):
        build_problem(parse_problem(MINIMAL + f"\n[solver]\n{line}\n"))
    _, cfg, _ = build_problem(parse_problem(MINIMAL))
    value = float(line.split()[-1]) if key == "newton_tol" else int(line.split()[-1])
    with pytest.raises(SemanticError, match=f"^{key} must be"):
        replace(cfg, **{key: value})


def test_range_validation_at_build():
    bad = MINIMAL.replace("space_form = 0", "space_form = 1").replace(
        "[boundary]\nrho = 1", "[boundary]\nrho = 2"
    )
    pf = parse_problem(bad)
    with pytest.raises(SemanticError, match="range"):
        build_problem(pf)


def test_exact_section():
    text = MINIMAL + "\n[exact]\nrho = 1\n"
    pf = parse_problem(text)
    _, _, exact = build_problem(pf)
    assert np.allclose(exact, 1.0)


def test_sphere_builder_requires_hit():
    bad = MINIMAL.replace("sphere = 1 0 0 0", "sphere = 0.1 0 0 0.9")
    pf = parse_problem(bad)
    with pytest.raises(SemanticError, match="discriminant|non-positive"):
        build_problem(pf)


def test_mask_file_round_trip(tmp_path):
    mask_text = "h 0.05\norigin -0.2 -0.2\nrows 8\ncols 9\n"
    rows = ["011111110", "011111110", "011111110", "011111110",
            "011110000", "011110000", "011110000", "000000000"]
    path = tmp_path / "dom.mask"
    path.write_text(mask_text + "\n".join(rows) + "\n")
    mask, h, origin = load_mask(path)
    assert mask.shape == (8, 9)
    assert mask[0, 1] and not mask[0, 0]
    assert h == 0.05

    text = MINIMAL.replace(
        "kind = cap\ntheta0 = 0.6283185307179586\nh = 0.08",
        f"kind = mask\nmask_file = {path}\nh = 0.05\nradius = 2.0",
    )
    pf = parse_problem(text)
    spec, _, _ = build_problem(pf)
    assert spec.grid.n_interior > 0
