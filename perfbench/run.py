#!/usr/bin/env python3
"""Solver benchmark: time to a verified solution, set-up time and memory, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload k0-offcenter-81 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload k0-offcenter-81 --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Each run follows the route of `weingarten solve`: `problems.load_problem`,
`problems.build_problem(pf, h)`, `continuity.solve_problem`, in one process
with BLAS and OpenMP pinned to one thread, one solve after another (a closed
loop with one client).

--trace 0  solves while half a solve more still fits in --seconds (at least
           once) and reports the end-to-end metrics: median solve time,
           median set-up time over fresh interpreters, and the process's
           peak resident memory.
--trace 1  solves once untraced and once with every solver layer wrapped
           (see layers.py), requires the two reports to be bit-identical, and
           reports the per-layer metrics.  --seconds does not apply.
--smoke    runs both modes on every workload at a coarse spacing, checks
           that seed 0 reproduces the committed problem files and that the
           metric names match BENCHMARK.json; exits 1 on any failure.

Every solve passes the gate in workloads.py or counts as failed.  Every
report's SHA-256 is compared with the other solves of the run and with the
earlier runs of the same code and inputs in this checkout (kept in
.perfbench/report_hashes.json).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5           # timed fresh interpreters per run, after one untimed
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# what every `weingarten` CLI call pays before solving, in a fresh interpreter
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from weingarten import problems
problems.build_problem(problems.load_problem(sys.argv[2]), float(sys.argv[3]))
print(repr(time.perf_counter() - t0))
"""


class Unavailable(Exception):
    """The program under test is not in this checkout."""


def load_program():
    """Import weingarten from ./src of the checkout, never from elsewhere."""
    if not (SRC / "weingarten" / "__init__.py").is_file():
        raise Unavailable(f"no src/weingarten under {ROOT}")
    sys.path.insert(0, str(SRC))
    import weingarten

    if Path(weingarten.__file__).resolve().parent != (SRC / "weingarten").resolve():
        raise Unavailable(f"imported weingarten from {weingarten.__file__}, not {SRC}")
    return weingarten


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
    }


def source_digest():
    """Digest of the solver sources and library versions: the 'same code' key."""
    h = hashlib.sha256(json.dumps(environment(), sort_keys=True).encode())
    for path in sorted((SRC / "weingarten").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_problem(wl, seed):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{wl.name}-seed{seed}.wg"
    path.write_text(wl.render(seed))
    return path


def setup_times(path, h):
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(path), repr(h)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


class Solve(NamedTuple):
    seconds: float
    report: str | None      # report.to_json(), None if the solver raised
    sup_error: float
    reasons: list           # gate failures; empty when the solve passed


def solve_once(path, h, sup_tol):
    """load -> build -> solve, timed around solve_problem, then gated."""
    import numpy as np
    from weingarten import continuity, problems
    from weingarten.spaceform import eta, zeta

    pf = problems.load_problem(path)
    spec, cfg, exact = problems.build_problem(pf, h)
    t0 = time.perf_counter()
    try:
        field, report = continuity.solve_problem(spec, cfg)
    except ValueError as exc:       # the library's errors all derive from ValueError
        reason = f"{type(exc).__name__}: {exc}"
        return Solve(time.perf_counter() - t0, None, float("inf"), [reason])
    seconds = time.perf_counter() - t0
    sup_error = float("inf")
    if field is not None:
        u = field.values if field.representation == "u" else eta(spec.sf, field.values)
        ids = spec.grid.interior_ids
        sup_error = float(np.max(np.abs(zeta(spec.sf, u) - exact)[ids]))
    reasons = workloads.gate(report, sup_error, sup_tol, cfg.newton_tol)
    return Solve(seconds, report.to_json(), sup_error, reasons)


def check(wl, seed, h, solves):
    """Gate failures and determinism errors of one run's solves, noted on stderr."""
    failed = sum(1 for s in solves if s.reasons)
    errors = determinism_errors(
        f"{wl.name}|seed={seed}|h={h!r}|{source_digest()}",
        [hashlib.sha256(s.report.encode()).hexdigest() for s in solves if s.report],
    )
    for s in solves:
        for reason in s.reasons:
            note(f"gate: {reason}")
    for e in errors:
        note(f"determinism: {e}")
    return failed, errors


def determinism_errors(key, digests):
    """Reports of one code and input must agree within the run and across runs."""
    found = set(digests)
    errors = []
    if len(found) > 1:
        errors.append(f"{len(found)} different reports from one input in this run")
    store = WORK / "report_hashes.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if found and key in known and known[key] not in found:
        errors.append("report differs from an earlier run of the same code and input")
    elif len(found) == 1:
        known[key] = found.pop()
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        tmp.replace(store)
    return errors


def note(message):
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


def run_end_to_end(wl, seed, seconds, smoke=False):
    h, sup_tol = wl.spacing(smoke)
    path = write_problem(wl, seed)
    setup = setup_times(path, h)
    solve_once(path, wl.smoke_h, float("inf"))      # fill lazy imports and caches
    solves = []
    start = time.perf_counter()
    while True:
        solves.append(solve_once(path, h, sup_tol))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(solves) > seconds:
            break
    failed, errors = check(wl, seed, h, solves)
    times = [s.seconds for s in solves]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    note(f"{wl.name} seed {seed}: solve_s median {statistics.median(times):.4f} over "
         f"{len(times)} solves (range {min(times):.4f}-{max(times):.4f}); setup_s median "
         f"{statistics.median(setup):.4f} over {len(setup)}; peak RSS {peak_kb / 1024:.1f} MB; "
         f"sup error {solves[0].sup_error:.3e}")
    metrics = {
        "solve_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return result(not failed and not errors, len(solves), failed, metrics, END_TO_END)


def run_traced(wl, seed, smoke=False):
    from layers import SPAN_NAMES, Tracer, metric_units

    h, sup_tol = wl.spacing(smoke)
    path = write_problem(wl, seed)
    solve_once(path, wl.smoke_h, float("inf"))
    plain = solve_once(path, h, sup_tol)
    tracer = Tracer()
    tracer.install()
    for name in tracer.missing:
        note(f"trace: {name} not found; its span reads zero")
    try:
        traced = solve_once(path, h, sup_tol)
    finally:
        tracer.restore()
    failed, errors = check(wl, seed, h, [plain, traced])
    if plain.report is None or plain.report != traced.report:
        errors.append("traced report is not bit-identical to the untraced one")
        note(f"determinism: {errors[-1]}")
    metrics = tracer.metrics()
    stages = json.loads(traced.report)["stages"] if traced.report else []
    metrics.update({
        "continuity.steps_accepted": len(stages),
        "continuity.bridge_steps": sum(1 for r in stages if r["stage"] == "bridge"),
        "accuracy.sup_error": traced.sup_error,
        "tracing.overhead_s": metrics["continuity.solve_s"] - plain.seconds,
    })
    note(f"{wl.name} seed {seed}: untraced solve {plain.seconds:.4f} s, traced "
         f"{metrics['continuity.solve_s']:.4f} s")
    for span in SPAN_NAMES:
        note(f"  {span:26s} busy {metrics[span + '_s']:9.4f} s  self "
             f"{metrics[span + '_self_s']:9.4f} s  calls {metrics[span + '_calls']}")
    return result(not failed and not errors, 2, failed, metrics, metric_units())


def result(correct, attempted, failed, metrics, units):
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def smoke():
    """Both modes on every workload at the coarse spacing, plus the static checks."""
    from layers import metric_units
    from weingarten import problems

    problems_ok = True
    for wl in workloads.WORKLOADS.values():
        if wl.committed and wl.render(0) != (ROOT / wl.committed).read_text():
            note(f"smoke: seed 0 of {wl.name} differs from {wl.committed}")
            problems_ok = False
        for step in (-workloads.SEED_STEPS, workloads.SEED_STEPS):
            problems.parse_problem(wl.vary(wl.render(0), step))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names_ok = declared_e2e == END_TO_END and declared_layer == metric_units()
    names_ok &= [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    if not names_ok:
        note("smoke: BENCHMARK.json does not list the metrics and workloads this script reports")
    runs_ok = True
    for wl in workloads.WORKLOADS.values():
        for res in (
            run_end_to_end(wl, 0, 0, smoke=True),
            run_traced(wl, 0, smoke=True),
        ):
            runs_ok &= res["correct"]
    ok = problems_ok and names_ok and runs_ok
    note(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)      # before numpy loads its BLAS
    try:
        load_program()
    except Unavailable as exc:
        note(f"perfbench: {exc}")
        return 2
    note(f"environment: {json.dumps(environment())}")
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        out = run_traced(wl, args.seed)
    else:
        out = run_end_to_end(wl, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
