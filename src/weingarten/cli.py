"""Command-line interface: solve, curvature, check-subsolution, lincheck, convergence.

Artifacts are deterministic: identical inputs give bit-identical reports
(fixed iteration order, no wall clock inside payloads).  Timestamps go to a
run_meta.json sidecar only.  Nonzero exits write a machine-readable error
JSON to stderr; exit code 2 marks admissibility rejections.
"""

import argparse
import datetime
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import continuity, grids, linearize
from .continuity import (
    diagnostics_from_eval,
    evaluate_stored,
    solve_problem,
    to_plain,
    verify_subsolution,
)
from .errors import (AdmissibilityError, AssemblyError, DomainRangeError, EvaluationError,
                     ParseError, SemanticError)
from .geometry import state_from_u_slots
from .problems import build_problem, load_problem
from .spaceform import SpaceFormParams, eta, profile, zeta
from .symfunc import all_sigmas, f_and_derivatives, f_and_F

LINCHECK_TOLERANCE = 1e-5  # max relative error of the analytic blocks against FD


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="weingarten",
        description="Prescribed Weingarten-curvature radial graphs in space forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation solver on a problem file")
    _common(p_solve)
    _newton_flags(p_solve)
    p_solve.add_argument("--trace", action="store_true", help="print per-step records")

    p_check = sub.add_parser("check-subsolution", help="verify the subsolution only")
    _common(p_check)

    p_curv = sub.add_parser("curvature", help="pointwise geometry of a stored graph field")
    p_curv.add_argument("--grid", required=True, help="grid file with an attached field")
    p_curv.add_argument("--out", required=True)
    p_curv.add_argument("--k", type=int, default=None, help="sigma_k order to report (default n)")
    p_curv.add_argument("--space-form", type=int, default=None,
                        help="K if the grid file lacks a space_form header")

    p_lin = sub.add_parser("lincheck", help="finite-difference verification of the linearization")
    _common(p_lin)
    p_lin.add_argument("--samples", type=int, default=50)
    p_lin.add_argument("--seed", type=int, default=0)

    p_conv = sub.add_parser("convergence", help="refinement study on a problem file")
    _common(p_conv)
    _newton_flags(p_conv)
    p_conv.add_argument("--levels", type=int, default=3)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, SemanticError, EvaluationError, DomainRangeError, AssemblyError) as exc:
        _error_json(str(exc), kind=type(exc).__name__)
        return 1
    except OSError as exc:        # an input file that is missing or unreadable names its path
        _error_json(str(exc), kind=type(exc).__name__)
        return 1
    except AdmissibilityError as exc:
        _error_json(str(exc), kind="AdmissibilityError")
        return 2


def _common(p):
    p.add_argument("--problem", required=True, help="problem definition file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--h", type=float, default=None, help="override the grid spacing")


def _newton_flags(p):
    """The [solver] overrides, for the subcommands that run Newton."""
    p.add_argument("--tol", type=float, default=None, help="override the Newton tolerance")
    p.add_argument("--max-newton", type=int, default=None)


def _error_json(message, kind="Error"):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _load(args):
    pf = load_problem(args.problem)
    return (pf, *build_problem(pf, h_override=args.h))


def _configured(cfg, args):
    """cfg with the --tol and --max-newton overrides applied, checked as
    HomotopyConfig checks the [solver] keys."""
    overrides = {"newton_tol": args.tol, "max_newton": args.max_newton}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sidecar(out):
    (out / "run_meta.json").write_text(
        json.dumps({"timestamp": datetime.datetime.now().isoformat()}) + "\n"
    )


def _dispatch(args):
    for count in ("samples", "levels"):
        if getattr(args, count, 1) < 1:
            raise SemanticError(f"--{count} must be >= 1, got {getattr(args, count)}")
    if getattr(args, "seed", 0) < 0:
        raise SemanticError(f"--seed must be >= 0, got {args.seed}")
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "check-subsolution":
        return _cmd_check(args)
    if args.command == "curvature":
        return _cmd_curvature(args)
    if args.command == "lincheck":
        return _cmd_lincheck(args)
    if args.command == "convergence":
        return _cmd_convergence(args)
    raise AssertionError(args.command)


def _cmd_solve(args):
    pf, spec, cfg, _ = _load(args)
    cfg = _configured(cfg, args)
    out = _outdir(args)
    field, report = solve_problem(spec, cfg)
    payload = json.loads(report.to_json())
    payload["problem"] = pf.raw
    (out / "report.json").write_text(json.dumps(payload, indent=1) + "\n")
    _sidecar(out)
    if args.trace:
        for rec in report.stages:
            sys.stdout.write(
                f"{rec['stage']:>12s} t={rec['t']:.6f} iters={rec['newton_iterations']} "
                f"res={rec['residual']:.3e} min_kappa={rec['diagnostics']['min_kappa']:.3e}\n"
            )
    if field is None:
        _error_json(f"solve ended with status {report.status}", kind=report.status)
        return 2 if report.status == continuity.ADMISSIBILITY_LOSS else 1
    grids.save_grid(out / "solution.grid", spec.grid, field, space_form=spec.sf.K)
    cols = report.per_node
    _write_csv(out / "solution.csv", spec.grid, cols["rho"], cols["kappa"], "residual",
               cols["residual"])
    sys.stdout.write(
        f"Converged: residual {report.final_residual:.3e} "
        f"(sigma-level {report.sigma_residual:.3e})\n"
    )
    return 0


def _cmd_check(args):
    _, spec, _, _ = _load(args)
    out = _outdir(args)
    report = verify_subsolution(spec)
    (out / "subsolution.json").write_text(json.dumps(to_plain(report), indent=1) + "\n")
    _sidecar(out)
    if not report["ok"]:
        _error_json("; ".join(report["reasons"]), kind="AdmissibilityError")
        return 2
    sys.stdout.write(
        f"subsolution ok: convexity margin {report['convexity_margin']:.3e}, "
        f"inequality margin {report['inequality_margin']:.3e}\n"
    )
    return 0


def _cmd_curvature(args):
    grid, field, sf_header = grids.load_grid(args.grid)
    if field is None:
        raise SemanticError("grid file carries no field values")
    K = args.space_form if args.space_form is not None else sf_header
    if K is None:
        raise SemanticError("space form unknown: add a space_form header or pass --space-form")
    sf = SpaceFormParams(int(K))
    k = grid.dim if args.k is None else args.k
    if not 1 <= k <= grid.dim:
        raise SemanticError(f"curvature order k={k} outside 1..{grid.dim}")
    op, ev = evaluate_stored(field, sf)
    out = _outdir(args)
    if ev is None:
        raise AdmissibilityError("field is out of range for this space form")
    st = ev.state
    sig = all_sigmas(st.kappa)
    summary = {
        "space_form": sf.K,
        "k": k,
        "interior_nodes": int(grid.n_interior),
        "kappa_min": float(st.kappa.min()),
        "kappa_max": float(st.kappa.max()),
        "strictly_locally_convex": bool(st.kappa.min() > 0),
        "sigma_k_min": float(sig[:, k].min()),
        "sigma_k_max": float(sig[:, k].max()),
        "tau_min": float(st.tau.min()),
        "diagnostics": diagnostics_from_eval(op, ev) if ev.conv_min_eig.min() > 0 else None,
    }
    (out / "curvature.json").write_text(json.dumps(to_plain(summary), indent=1) + "\n")
    _write_csv(out / "curvature.csv", grid, op.ambient.rho_u(ev.u), st.kappa, "sigma_k", sig[:, k])
    _sidecar(out)
    sys.stdout.write(
        f"kappa in [{summary['kappa_min']:.6g}, {summary['kappa_max']:.6g}], "
        f"sigma_{k} in [{summary['sigma_k_min']:.6g}, {summary['sigma_k_max']:.6g}]\n"
    )
    return 0


def _cmd_lincheck(args):
    _, spec, _, _ = _load(args)
    out = _outdir(args)
    report = lincheck_report(spec, samples=args.samples, seed=args.seed)
    (out / "lincheck.json").write_text(json.dumps(to_plain(report), indent=1) + "\n")
    _sidecar(out)
    ok = report["max_rel_err"] < report["tolerance"]
    sys.stdout.write(
        f"lincheck {'ok' if ok else 'FAILED'}: max rel err {report['max_rel_err']:.3e} "
        f"over {report['samples']} states\n"
    )
    return 0 if ok else 1


def lincheck_report(spec, samples=50, seed=0):
    """FD verification of the analytic blocks at random admissible states."""
    rng = np.random.default_rng(seed)
    n = spec.grid.dim
    amb = profile(spec.sf)
    worst = {"Gij": 0.0, "Gs": 0.0, "Gu": 0.0}

    def G(r, p, u):
        st = state_from_u_slots(u, p, r, amb)
        return float(f_and_derivatives(st.kappa)[0][0])

    for _ in range(samples):
        u = np.array([rng.uniform(1.4, 2.5)])
        p = rng.normal(0.0, 0.4, (1, n))
        B = rng.normal(0.0, 0.4, (n, n))
        S = B @ B.T + 0.1 * np.eye(n)
        r = (S - u[0] * np.eye(n))[None]
        st = state_from_u_slots(u, p, r, amb)
        lc = linearize.coefficients_u(st, f_and_F(st.a)[1])
        gu = float(lc.Gu[0])
        d = 1e-6
        fd_u = (G(r, p, u + d) - G(r, p, u - d)) / (2 * d)
        worst["Gu"] = max(worst["Gu"], abs(fd_u - gu) / max(1.0, abs(gu)))
        fd_p = np.zeros(n)
        for s in range(n):
            dp = np.zeros((1, n))
            dp[0, s] = d
            fd_p[s] = (G(r, p + dp, u) - G(r, p - dp, u)) / (2 * d)
        worst["Gs"] = max(
            worst["Gs"],
            float(np.max(np.abs(fd_p - lc.Gs[0])) / max(1.0, np.max(np.abs(lc.Gs)))),
        )
        fd_r = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                dr = np.zeros((1, n, n))
                dr[0, i, j] += d
                dr[0, j, i] += d
                fd_r[i, j] = (G(r + dr, p, u) - G(r - dr, p, u)) / (4 * d)
        worst["Gij"] = max(
            worst["Gij"],
            float(np.max(np.abs(fd_r - lc.Gij[0])) / max(1.0, np.max(np.abs(lc.Gij)))),
        )
    return {
        "space_form": spec.sf.K,
        "k": n,
        "dimension": n,
        "samples": samples,
        "seed": seed,
        "tolerance": LINCHECK_TOLERANCE,
        "max_rel_err_Gij": worst["Gij"],
        "max_rel_err_Gs": worst["Gs"],
        "max_rel_err_Gu": worst["Gu"],
        "max_rel_err": max(worst.values()),
    }


def _cmd_convergence(args):
    pf, spec, cfg, exact = _load(args)
    if args.levels > 1 and spec.coarser is None:
        raise SemanticError(
            "convergence --levels > 1 builds the problem at halved spacings; a mask "
            "domain or a subsolution grid file exists at one spacing only")
    cfg = _configured(cfg, args)
    out = _outdir(args)
    levels = []
    rhos = []
    field = None
    for lvl in range(args.levels):
        if lvl > 0:
            spec, _, exact = build_problem(pf, h_override=spec.grid.h / 2)
        field, report = solve_problem(spec, cfg, coarse=field)   # refines the level below
        if field is None:
            _error_json(f"level h={spec.grid.h} failed with {report.status}", kind=report.status)
            return 1
        rho = _field_rho(field, spec)
        err = (
            float(np.max(np.abs(rho - exact)[spec.grid.interior_ids]))
            if exact is not None
            else None
        )
        levels.append({"h": spec.grid.h, "residual": report.final_residual, "error_vs_exact": err})
        rhos.append((spec.grid, rho))
    if exact is not None:
        seq = [lv["error_vs_exact"] for lv in levels]
    else:
        # Richardson: nested lattices share the coarse nodes
        seq = [float(np.max(np.abs(rho_c[gc.interior_ids]
                                   - rho_f[grids.nested_interior_ids(gc, gf)])))
               for (gc, rho_c), (gf, rho_f) in zip(rhos, rhos[1:])]
        for i, dv in enumerate(seq):
            levels[i]["richardson_diff"] = dv
    orders = []
    for i in range(len(seq) - 1):
        # zero error means the discrete solution is exact (constant data);
        # the order is then undefined, reported as null
        if seq[i] > 0 and seq[i + 1] > 0:
            orders.append(float(np.log2(seq[i] / seq[i + 1])))
        else:
            orders.append(None)
    payload = {"levels": levels, "observed_orders": orders}
    (out / "convergence.json").write_text(json.dumps(to_plain(payload), indent=1) + "\n")
    _sidecar(out)
    for lv in levels:
        sys.stdout.write(f"h={lv['h']:.6g} residual={lv['residual']:.3e} "
                         f"err={lv['error_vs_exact']}\n")
    sys.stdout.write(
        "observed orders: "
        + ", ".join("exact" if o is None else f"{o:.3f}" for o in orders)
        + "\n"
    )
    return 0


def _field_rho(field, spec):
    if field.representation == "rho":
        return field.values
    if field.representation == "u":
        return zeta(spec.sf, field.values)
    return zeta(spec.sf, eta(spec.sf, field.values))


def _write_csv(path, grid, rho, kappa, last_name, last):
    """One row per interior node in ascending node id: coordinates, rho,
    extreme curvatures, one more column."""
    y = grid.interior_coords()
    with open(path, "w") as fh:
        cols = [f"y{i+1}" for i in range(grid.dim)]
        fh.write(",".join(cols + ["rho", "kappa_min", "kappa_max", last_name]) + "\n")
        for i in np.argsort(grid.interior_ids):
            row = [repr(float(v)) for v in y[i]]
            row += [repr(float(rho[i])), repr(float(kappa[i].min())),
                    repr(float(kappa[i].max())), repr(float(last[i]))]
            fh.write(",".join(row) + "\n")


if __name__ == "__main__":
    sys.exit(main())
