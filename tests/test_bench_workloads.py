"""Every benchmark workload (perfbench/workloads.py) passes its gate at full spacing.

Each workload is solved at seed 0 by the route of perfbench/run.py's
solve_once: load_problem, build_problem at the workload's spacing, then
solve_problem, with the sup error over interior nodes against the file's
exact solution.  The benchmark refuses a solve that misses the gate; this
catches it first.  Nothing under perfbench/ is written.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from weingarten import continuity, problems
from weingarten.spaceform import eta, zeta

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gate_at_full_spacing(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    path = tmp_path / wl.problem_file
    path.write_text(wl.render(0))
    h, sup_tol = wl.spacing(smoke=False)
    spec, cfg, exact = problems.build_problem(problems.load_problem(path), h)
    field, report = continuity.solve_problem(spec, cfg)
    assert field is not None, report.messages
    u = field.values if field.representation == "u" else eta(spec.sf, field.values)
    sup_error = float(np.max(np.abs(zeta(spec.sf, u) - exact)[spec.grid.interior_ids]))
    assert workloads.gate(report, sup_error, sup_tol, cfg.newton_tol) == []
