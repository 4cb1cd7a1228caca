"""Benchmark workloads: problem files rendered from a seed, and the correctness gate.

Each workload is a problem file under ``perfbench/problems`` solved at a fixed
grid spacing.  Seed 0 renders the file verbatim; the two K = 0 / K = +1 files
are byte-for-byte copies of the repository's ``problems/`` files (the smoke
mode checks this).  Any other seed moves the off-centre offset or the geodesic
radius to one of nine values, every one of which converges and passes the gate
at the full and the smoke spacing.  The offsets are kept close (the bridge's
step count follows the offset) so that Newton work varies by a few per cent
between seeds.
"""

import math
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

PROBLEM_DIR = Path(__file__).resolve().parent / "problems"
SEED_STEPS = 4      # seeds other than 0 pick a parameter step in [-4, 4]
THETA0 = math.pi / 5


def cap_h(nodes_across):
    """Spacing that puts `nodes_across` lattice nodes across the pi/5 cap's chart disk."""
    return 2.0 * math.tan(THETA0) / (nodes_across - 1)


def _retoken(text, mapping):
    """Replace whole numeric tokens; every old token must occur."""
    for old, new in mapping.items():
        pattern = r"(?<![0-9.])" + re.escape(old) + r"(?![0-9])"
        text, hits = re.subn(pattern, new, text)
        if hits == 0:
            raise ValueError(f"token {old} not found in the problem template")
    return text


def _offcenter_k0(text, step):
    # unit sphere centred at c e3; subsolution: the R = 0.9 sphere through the
    # same boundary circle, centre d e3 on the axis (lower intersection)
    c = Decimal("0.3") + Decimal("0.002") * step
    cf = float(c)
    rho_b = cf * math.cos(THETA0) + math.sqrt(1.0 - (cf * math.sin(THETA0)) ** 2)
    d = rho_b * math.cos(THETA0) - math.sqrt(0.81 - (rho_b * math.sin(THETA0)) ** 2)
    return _retoken(text, {
        "0.3": str(c), "0.91": str(1 - c * c), "0.09": str(c * c),
        "0.45434653266964176": repr(d),
    })


def _geodesic_k1(text, step):
    # rho == r has sigma_2 = cot(r)^2 on the upper hemisphere
    r = Decimal("0.5") + Decimal("0.005") * step
    return _retoken(text, {
        "3.3506852993400433": repr(1.0 / math.tan(float(r)) ** 2), "0.5": str(r),
    })


def _hyperbolic_n3(text, step):
    # rho == r has sigma_3 = coth(r)^3 and nu_rad = 1 in hyperbolic 3-space
    r = Decimal("0.7") + Decimal("0.005") * step
    return _retoken(text, {
        "4.529978038745476": repr(1.0 / math.tanh(float(r)) ** 3), "0.7": str(r),
    })


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem_file: str           # under perfbench/problems
    committed: str | None       # repository file that seed 0 must equal
    h: float
    smoke_h: float
    sup_tol: float              # gate on max |rho - rho_exact| at h
    smoke_sup_tol: float        # the same at smoke_h
    vary: Callable[[str, int], str]     # (seed-0 text, step) -> text

    def spacing(self, smoke):
        """(h, sup_tol) at the full or the smoke spacing."""
        return (self.smoke_h, self.smoke_sup_tol) if smoke else (self.h, self.sup_tol)

    def step(self, seed):
        return 0 if seed == 0 else random.Random(seed).randint(-SEED_STEPS, SEED_STEPS)

    def render(self, seed):
        """Problem-file text for `seed`; seed 0 is the file itself."""
        text = (PROBLEM_DIR / self.problem_file).read_text()
        step = self.step(seed)
        return text if step == 0 else self.vary(text, step)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="k0-offcenter-81",
            why="K=0 two-step path, 81 across: 37 bridge steps carry most Newton work and SuperLU "
                "factor is the top layer; bridge predictor and LU work show here",
            problem_file="offcenter_sphere_k0.wg",
            committed="problems/offcenter_sphere_k0.wg",
            h=cap_h(81), smoke_h=cap_h(21),
            sup_tol=5e-5, smoke_sup_tol=1e-3,
            vary=_offcenter_k0,
        ),
        Workload(
            name="k1-geodesic-49",
            why="K=+1 metric deformation and eps schedule, 49 across: line-search operator "
                "evaluations outnumber LU factors 5 to 1, bridge idle; per-node algebra shows here",
            problem_file="geodesic_spherical.wg",
            committed="problems/geodesic_spherical.wg",
            h=cap_h(49), smoke_h=cap_h(21),
            sup_tol=1e-6, smoke_sup_tol=1e-5,
            vary=_geodesic_k1,
        ),
        Workload(
            name="n3-hyperbolic-nu",
            why="K=-1, n=3, normal-dependent psi, h=0.07: 27-point LU fill, Jacobi eigensolver, "
                "per-node diagnostic loops and expression evaluation show here",
            problem_file="hyperbolic_nu_n3.wg",
            committed=None,
            h=0.07, smoke_h=0.14,
            sup_tol=1e-12, smoke_sup_tol=1e-12,
            vary=_hyperbolic_n3,
        ),
    )
}


def gate(report, sup_error, sup_tol, newton_tol):
    """Reasons a solve misses the correctness gate; empty when it passes.

    Converged status, sup error within tolerance, final residual at most the
    Newton tolerance (twice the eps floor on K = +1, whose schedule stops
    there), and every accepted step strictly convex and ordered above the
    subsolution.  Stage records without an ordering check (the K = +1 eps
    schedule) pass that part.
    """
    from weingarten.continuity import CONVERGED

    reasons = []
    if report.status != CONVERGED:
        reasons.append(f"status {report.status}")
    if not sup_error <= sup_tol:
        reasons.append(f"sup error {sup_error:.3e} above {sup_tol:.1e}")
    eps_floor = report.constants.get("eps_floor")
    limit = 2.0 * eps_floor if eps_floor is not None else newton_tol
    if not report.final_residual <= limit:
        reasons.append(f"final residual {report.final_residual:.3e} above {limit:.3e}")
    for rec in report.stages:
        where = f"{rec['stage']} t={rec['t']:.6g}"
        if not rec["diagnostics"]["min_conv_eig"] > 0.0:
            reasons.append(f"{where}: not strictly convex")
        if not rec.get("ordering_ok", True):
            reasons.append(f"{where}: below the subsolution")
    return reasons
