"""Damped Newton solver and the constructive two-step continuation drivers.

For K in {0, -1} the drivers follow the auxiliary equations

    stage 1:   G[v] = ((1-t) G[vbar]/xi(vbar) + t eps) xi(v),    v = vbar on dOmega
    stage 2:   G[v] = (1-t) eps xi(v) + t psi(z, v, Dv)

with a bridge continuation between them that morphs the discrete boundary
data from the subsolution trace to the problem data (the two differ by O(h)
at staircase nodes), starting from a verified strictly locally convex
subsolution vbar.  For
K = +1 the driver deforms the background metric from the Euclidean model to
the upper hemisphere,

    G^t[v] = (1 - T(t)) delta2 e^{2v} + T(t) (psi^t[e^v] - eps),

whose t = 0 problem is exactly the K = 0 auxiliary equation with eps = delta2,
and finishes with the approximation schedule eps_j = eps 2^{-j} on
G[u] = psi - eps_j.  Every accepted iterate on every path is kept strictly
locally convex by the line search; failures are reported, never papered over.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla

from . import grids, linearize
from .errors import AdmissibilityError, SemanticError
from .geometry import state_from_u_slots
from .grids import GraphField
from .spaceform import (
    AmbientProfile,
    SpaceFormParams,
    eta,
    eta_inverse,
    eta_prime,
    profile,
    profile_deformed,
    ranges,
    xi,
    xi_prime,
    zeta_inverse,
)
from .symeig import eigh_descending
from .symfunc import f_and_derivatives, in_gamma_k

CONVEXITY_MARGIN = 1e-10
TANGENT_FD_STEP = 1e-6   # difference step in t for dR/dt in the Euler predictor

CONVERGED = "Converged"
STEP_FAILURE = "StepFailure"
ADMISSIBILITY_LOSS = "AdmissibilityLoss"
MAX_ITERATIONS = "MaxIterations"
SOLVER_BREAKDOWN = "SolverBreakdown"


@dataclass
class HomotopyConfig:
    """Continuation constants and step control; None means derive from margins."""

    epsilon: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    t_exponent: int | None = None
    dt_init: float = 0.25
    dt_min: float = 1e-4
    dt_growth: float = 1.5
    newton_tol: float = 1e-10
    max_newton: int = 30
    min_lambda: float = 1e-12
    armijo: float = 1e-4
    convexity_margin: float = CONVEXITY_MARGIN
    eps_target_factor: float = 1e-6
    theta_N: float = 10.0
    boundary_match_factor: float = 3.0   # tolerance = factor * h * scale
    perturb_seed: int = 0
    t_samples: int = 33


@dataclass
class ProblemSpec:
    """One Dirichlet problem: space form, order, domain, data.

    psi_sigma maps a variable bundle (dict of per-node arrays) to the
    prescribed sigma_k value; boundary_rho and subsolution_rho are full node
    arrays of radial distances (boundary slots of boundary_rho are the
    Dirichlet data; the subsolution keeps its own trace).
    """

    sf: SpaceFormParams
    k: int
    grid: grids.Grid
    psi_sigma: object
    boundary_rho: np.ndarray
    subsolution_rho: np.ndarray

    def __post_init__(self):
        n = self.grid.dim
        if self.k < 1 or self.k > n:
            raise SemanticError(f"curvature order k={self.k} outside 1..{n}")

    def psi_hat(self, bundle):
        """f-level right-hand side psi^(1/k); must be positive."""
        vals = np.asarray(self.psi_sigma(bundle), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise SemanticError("psi must be positive and finite on the domain")
        return vals ** (1.0 / self.k)


@dataclass
class NewtonResult:
    status: str
    x: np.ndarray
    iterations: int
    residual: float
    history: list


@dataclass
class SolveReport:
    status: str
    final_residual: float = np.inf
    sigma_residual: float = np.inf
    stages: list = dc_field(default_factory=list)
    constants: dict = dc_field(default_factory=dict)
    diagnostics: dict = dc_field(default_factory=dict)
    ordering_violations: list = dc_field(default_factory=list)
    messages: list = dc_field(default_factory=list)

    def to_json(self):
        def clean(o):
            if isinstance(o, (np.floating, np.integer)):
                return o.item()
            if isinstance(o, np.ndarray):
                return o.tolist()
            if isinstance(o, dict):
                return {k: clean(v) for k, v in o.items()}
            if isinstance(o, (list, tuple)):
                return [clean(v) for v in o]
            return o

        return json.dumps(
            clean(
                {
                    "status": self.status,
                    "final_residual": self.final_residual,
                    "sigma_residual": self.sigma_residual,
                    "stages": self.stages,
                    "constants": self.constants,
                    "diagnostics": self.diagnostics,
                    "ordering_violations": self.ordering_violations,
                    "messages": self.messages,
                }
            ),
            indent=1,
        )


# ---------------------------------------------------------------------------
# discrete operator over a grid

@dataclass
class OperatorEval:
    full: np.ndarray
    val: np.ndarray       # active-representation values at interior nodes
    p_coord: np.ndarray
    u: np.ndarray         # u-representation slots (frame)
    p_u: np.ndarray
    r_u: np.ndarray
    state: object
    f: np.ndarray         # operator value f(kappa)
    conv_min_eig: np.ndarray
    p_v_frame: np.ndarray | None = None
    r_v_frame: np.ndarray | None = None


class DiscreteOperator:
    """Evaluates f(kappa[field]) and its linearization over the interior nodes.

    rep "u": unknowns are u values.  rep "v": unknowns are v with u = eta(v)
    (space-form eta when sf is given, plain exp for the deformed sphere path).
    """

    def __init__(self, grid, k, ambient: AmbientProfile, rep="v", sf=None, exp_eta=False):
        self.grid = grid
        self.k = k
        self.ambient = ambient
        self.rep = rep
        self.sf = sf
        self.exp_eta = exp_eta
        if rep == "v" and sf is None and not exp_eta:
            raise SemanticError("v-representation needs a space form or exp_eta")

    def value_floor(self):
        if self.rep == "u":
            return self.ambient.u_floor
        if self.exp_eta:
            return -np.inf
        return ranges(self.sf).v_lower

    def admissible_values(self, full):
        lo = self.value_floor()
        if not np.all(np.isfinite(full)):
            return False
        if np.isfinite(lo) and np.min(full) <= lo + 1e-12:
            return False
        return True

    def evaluate(self, full, need_f=True):
        """Full geometric evaluation; returns None on range violations."""
        if not self.admissible_values(full):
            return None
        val, p_coord, hess_cov = grids.covariant_jets(self.grid, full)
        _, _, _, _, B = grids.chart_quantities(self.grid)
        p_frame = np.einsum("nij,nj->ni", B, p_coord)
        r_frame = np.einsum("nia,nab,nbj->nij", B, hess_cov, B)
        p_v = r_v = None
        if self.rep == "u":
            u, p_u, r_u = val, p_frame, r_frame
        else:
            p_v, r_v = p_frame, r_frame
            if self.exp_eta:
                u = np.exp(val)
                p_u = u[:, None] * p_v
                r_u = u[:, None, None] * r_v + u[:, None, None] * (
                    p_v[:, :, None] * p_v[:, None, :]
                )
            else:
                from .geometry import v_slots_to_u

                u, p_u, r_u = v_slots_to_u(val, p_v, r_v, self.sf)
        if np.min(u) <= self.ambient.u_floor + 1e-13:
            return None
        state = state_from_u_slots(u, p_u, r_u, self.ambient)
        S = r_u + u[:, None, None] * np.eye(self.grid.dim)
        conv = eigh_descending(S)[0][:, -1]
        f = None
        if need_f:
            if np.min(conv) <= 0.0 and self.k == self.grid.dim:
                return None
            try:
                f = f_and_derivatives(state.kappa, self.k)[0]
            except AdmissibilityError:
                return None
        return OperatorEval(
            full=full, val=val, p_coord=p_coord, u=u, p_u=p_u, r_u=r_u,
            state=state, f=f, conv_min_eig=conv, p_v_frame=p_v, r_v_frame=r_v,
        )

    def admissible(self, ev, margin):
        if ev is None:
            return False
        if self.k == self.grid.dim:
            return bool(np.min(ev.conv_min_eig) >= margin)
        return bool(np.all(in_gamma_k(ev.state.kappa, self.k)))

    def blocks(self, ev) -> linearize.LinearizedCoefficients:
        lc_u = linearize.coefficients_u(ev.state, self.k)
        if self.rep == "u":
            return lc_u
        if self.exp_eta:
            return linearize.exp_chain_blocks(lc_u, ev.u, ev.p_v_frame, ev.r_v_frame)
        return linearize.coefficients_v(
            ev.state, ev.val, ev.p_v_frame, self.sf, self.k, lc_u=lc_u
        )

    def u_values_all_nodes(self, full):
        """u at every non-exterior node (for diagnostics over the closure)."""
        if self.rep == "u":
            return full
        if self.exp_eta:
            return np.exp(full)
        return eta(self.sf, full)

    def bundle(self, ev, dval=0.0, dp=None):
        """Expression variables from first-order data; used by psi and its FD."""
        grid = self.grid
        _, _, _, _, B = grids.chart_quantities(grid)
        val = ev.val + dval
        p_coord = ev.p_coord if dp is None else ev.p_coord + dp
        p_frame = np.einsum("nij,nj->ni", B, p_coord)
        if self.rep == "u":
            u = val
            p_u = p_frame
        elif self.exp_eta:
            u = np.exp(val)
            p_u = u[:, None] * p_frame
        else:
            u = eta(self.sf, val)
            p_u = eta_prime(self.sf, val)[:, None] * p_frame
        amb = self.ambient
        phi = amb.phi_u(u)
        w = np.sqrt(phi**2 + (phi**2) ** 2 * np.einsum("ni,ni->n", p_u, p_u))
        out = {"u": u, "rho": amb.rho_u(u), "gradnorm": np.sqrt(np.einsum("ni,ni->n", p_frame, p_frame))}
        if self.rep == "v":
            out["v"] = val
        elif self.exp_eta or (self.sf is not None and self.sf.K == 1):
            # the spherical homotopy runs in v = ln u; expose that convention
            out["v"] = np.log(u)
        elif self.sf is not None:
            out["v"] = eta_inverse(self.sf, u)
        y = grid.interior_coords()
        for i in range(grid.dim):
            out[f"y{i+1}"] = y[:, i]
            out[f"p{i+1}"] = p_coord[:, i]
            out[f"nu_tan{i+1}"] = phi * p_u[:, i] / w
        out["nu_rad"] = phi / w
        return out


# ---------------------------------------------------------------------------
# right-hand sides

@dataclass
class RhsSplit:
    values: np.ndarray
    d_val: np.ndarray
    d_p: np.ndarray  # derivative w.r.t. coordinate gradient, (N, n)


class XiWeightedRhs:
    """rhs = coef(z) * xi(v); stage-1 instances and the eps-weighted stage-2 part."""

    def __init__(self, sf, coef):
        self.sf = sf
        self.coef = np.asarray(coef, dtype=float)

    def evaluate(self, op, ev) -> RhsSplit:
        xv = xi(self.sf, ev.val)
        xpv = xi_prime(self.sf, ev.val)
        n = op.grid.dim
        return RhsSplit(
            values=self.coef * xv,
            d_val=self.coef * xpv,
            d_p=np.zeros((ev.val.shape[0], n)),
        )


class PsiRhs:
    """rhs = psi_hat(bundle); derivatives by scale-aware central differences."""

    def __init__(self, psi_hat, step=1e-6):
        self.psi_hat = psi_hat
        self.step = step

    def evaluate(self, op, ev) -> RhsSplit:
        n = op.grid.dim
        vals = self.psi_hat(op.bundle(ev))
        s = self.step * np.maximum(1.0, np.abs(ev.val))
        d_val = (self.psi_hat(op.bundle(ev, dval=s)) - self.psi_hat(op.bundle(ev, dval=-s))) / (
            2.0 * s
        )
        d_p = np.zeros((ev.val.shape[0], n))
        for i in range(n):
            dp = np.zeros_like(ev.p_coord)
            sp = self.step * np.maximum(1.0, np.abs(ev.p_coord[:, i]))
            dp[:, i] = sp
            d_p[:, i] = (
                self.psi_hat(op.bundle(ev, dp=dp)) - self.psi_hat(op.bundle(ev, dp=-dp))
            ) / (2.0 * sp)
        return RhsSplit(values=vals, d_val=d_val, d_p=d_p)


class BlendRhs:
    """rhs = wa * A + wb * B for fixed weights (continuation blends)."""

    def __init__(self, wa, rhs_a, wb, rhs_b):
        self.wa, self.rhs_a, self.wb, self.rhs_b = wa, rhs_a, wb, rhs_b

    def evaluate(self, op, ev) -> RhsSplit:
        a = self.rhs_a.evaluate(op, ev)
        b = self.rhs_b.evaluate(op, ev)
        return RhsSplit(
            values=self.wa * a.values + self.wb * b.values,
            d_val=self.wa * a.d_val + self.wb * b.d_val,
            d_p=self.wa * a.d_p + self.wb * b.d_p,
        )


class ConstantRhs:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def evaluate(self, op, ev) -> RhsSplit:
        n = op.grid.dim
        z = np.zeros((ev.val.shape[0], n))
        return RhsSplit(values=self.values + 0.0 * ev.val, d_val=0.0 * ev.val, d_p=z)


# ---------------------------------------------------------------------------
# Newton iteration

def newton_core(op: DiscreteOperator, rhs, x0, boundary_full, cfg: HomotopyConfig) -> NewtonResult:
    """Damped Newton with admissibility-preserving line search.

    boundary_full is a full-node array whose boundary slots supply the
    Dirichlet data; interior slots are overwritten by the unknowns.
    """
    grid = op.grid

    def compose(x):
        full = boundary_full.copy()
        full[grid.interior_ids] = x
        return full

    x = np.asarray(x0, dtype=float).copy()
    ev = op.evaluate(compose(x))
    if ev is None or not op.admissible(ev, cfg.convexity_margin):
        return NewtonResult(ADMISSIBILITY_LOSS, x, 0, np.inf, [])
    split = rhs.evaluate(op, ev)
    R = ev.f - split.values
    rn = float(np.max(np.abs(R)))
    history = [rn]
    for it in range(1, cfg.max_newton + 1):
        if rn <= cfg.newton_tol:
            return NewtonResult(CONVERGED, x, it - 1, rn, history)
        J = _jacobian(op, ev, split)
        try:
            delta = spla.splu(J.tocsc()).solve(-R)
        except RuntimeError:
            return NewtonResult(SOLVER_BREAKDOWN, x, it, rn, history)
        if not np.all(np.isfinite(delta)):
            return NewtonResult(SOLVER_BREAKDOWN, x, it, rn, history)
        lam = 1.0
        accepted = False
        while lam >= cfg.min_lambda:
            x_t = x + lam * delta
            ev_t = op.evaluate(compose(x_t))
            if ev_t is not None and op.admissible(ev_t, cfg.convexity_margin):
                split_t = rhs.evaluate(op, ev_t)
                R_t = ev_t.f - split_t.values
                rn_t = float(np.max(np.abs(R_t)))
                if rn_t <= max(cfg.newton_tol, (1.0 - cfg.armijo * lam) * rn):
                    x, ev, split, R, rn = x_t, ev_t, split_t, R_t, rn_t
                    history.append(rn)
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            return NewtonResult(ADMISSIBILITY_LOSS, x, it, rn, history)
    status = CONVERGED if rn <= cfg.newton_tol else MAX_ITERATIONS
    return NewtonResult(status, x, cfg.max_newton, rn, history)


def _jacobian(op: DiscreteOperator, ev: OperatorEval, split: RhsSplit):
    """Sparse Jacobian of R = f - rhs over the interior unknowns."""
    A2, b1, c = linearize.to_coordinate(op.blocks(ev), op.grid)
    return linearize.assemble_jacobian(op.grid, A2, b1 - split.d_p, c - split.d_val)


def newton_solve(spec: ProblemSpec, rhs, initial: GraphField, cfg: HomotopyConfig | None = None):
    """Single Newton solve of f(kappa) = rhs in the initial field's representation.

    k < n is allowed here (Gamma_k admissibility); the continuation drivers
    require k = n.
    """
    cfg = cfg or HomotopyConfig()
    rep = initial.representation
    if rep == "rho":
        raise SemanticError("newton_solve operates on u- or v-representation fields")
    op = DiscreteOperator(spec.grid, spec.k, profile(spec.sf), rep=rep, sf=spec.sf)
    boundary_full = initial.values.copy()
    res = newton_core(op, rhs, initial.values[spec.grid.interior_ids], boundary_full, cfg)
    out = initial.copy_with(values=boundary_full)
    out.values[spec.grid.interior_ids] = res.x
    return out, res


# ---------------------------------------------------------------------------
# diagnostics

def _capital_phi_profile(amb: AmbientProfile, rho):
    ka = amb.curvature
    if ka == 0.0:
        return 0.5 * rho * rho
    if ka > 0:
        s = np.sqrt(ka)
        return (1.0 - np.cos(s * rho)) / ka
    s = np.sqrt(-ka)
    return (np.cosh(s * rho) - 1.0) / (-ka)


def diagnostics_from_eval(op: DiscreteOperator, ev: OperatorEval, theta_N=10.0):
    """Monitors from the curvature-estimate machinery; never aborts a solve."""
    st = ev.state
    kap = st.kappa
    S = ev.r_u + ev.u[:, None, None] * np.eye(op.grid.dim)
    det_S = np.linalg.det(S)
    P = np.einsum("ni,ni->n", kap, kap)
    rho = op.ambient.rho_u(ev.u)
    theta = 0.5 * np.log(P) - theta_N * np.log(st.tau) + op.ambient.u_floor * _capital_phi_profile(
        op.ambient, rho
    )
    w_c1 = np.sqrt(ev.u**2 + np.einsum("ni,ni->n", ev.p_u, ev.p_u))
    # boundary trace of the gradient test function via one-sided differences
    u_all = op.u_values_all_nodes(ev.full)
    grid = op.grid
    if grid.boundary_ids.size:
        p_bnd = grids.boundary_gradient_estimate(grid, u_all)
        from . import charts as _ch

        _, sigma_inv_b, _ = _ch.chart_metric(grid.chart, grid.coords[grid.boundary_ids])
        gn2 = np.einsum("nk,nkl,nl->n", p_bnd, sigma_inv_b, p_bnd)
        w_bnd_max = float(np.max(np.sqrt(u_all[grid.boundary_ids] ** 2 + gn2)))
    else:
        w_bnd_max = -np.inf
    c1_bound = max(float(np.max(u_all)), w_bnd_max)
    return {
        "min_kappa": float(kap.min()),
        "max_kappa": float(kap.max()),
        "min_conv_det": float(det_S.min()),
        "min_conv_eig": float(ev.conv_min_eig.min()),
        "min_tau": float(st.tau.min()),
        "max_theta": float(theta.max()),
        "max_w_c1": float(w_c1.max()),
        "c1_interior_max": float(w_c1.max()),
        "c1_bound": c1_bound,
        "c1_soft_ok": bool(w_c1.max() <= c1_bound + 1e-8),
        "min_u": float(ev.u.min()),
        "max_u": float(ev.u.max()),
    }


def diagnostics_monitor(field: GraphField, sf: SpaceFormParams, k=None, theta_N=10.0):
    """Per-field diagnostics record for stored graphs in any representation."""
    grid = field.grid
    k = k or grid.dim
    rep = field.representation
    if rep == "rho":
        u_full = zeta_inverse(sf, field.values)
        op = DiscreteOperator(grid, k, profile(sf), rep="u", sf=sf)
        ev = op.evaluate(u_full)
    else:
        op = DiscreteOperator(grid, k, profile(sf), rep=rep, sf=sf)
        ev = op.evaluate(field.values)
    if ev is None:
        raise AdmissibilityError("diagnostics require an in-range field")
    return diagnostics_from_eval(op, ev, theta_N=theta_N)


# ---------------------------------------------------------------------------
# subsolution verification

def verify_subsolution(spec: ProblemSpec, cfg: HomotopyConfig | None = None):
    """Checks convexity, the curvature inequality, and the boundary match.

    Returns a report dict; report["ok"] is the gate.  Works at the f-level:
    sigma_k(kappa[subsolution]) >= psi  iff  f >= psi^(1/k).
    """
    cfg = cfg or HomotopyConfig()
    grid = spec.grid
    sf = spec.sf
    u_sub = zeta_inverse(sf, spec.subsolution_rho)
    op = DiscreteOperator(grid, spec.k, profile(sf), rep="u", sf=sf)
    ev = op.evaluate(u_sub, need_f=False)
    report = {"ok": True, "reasons": [], "worst_node": None}
    if ev is None:
        report["ok"] = False
        report["reasons"].append("subsolution leaves the variable range of this space form")
        return report
    conv = ev.conv_min_eig
    report["convexity_margin"] = float(conv.min())
    if conv.min() <= 0.0:
        worst = int(grid.interior_ids[int(np.argmin(conv))])
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"subsolution not strictly locally convex: min eigenvalue {conv.min():.3e} at node {worst}"
        )
        return report
    f_sub = f_and_derivatives(ev.state.kappa, spec.k)[0]
    psi_hat = spec.psi_hat(op.bundle(ev))
    gap = f_sub - psi_hat
    report["inequality_margin"] = float(gap.min())
    if gap.min() < -1e-9 * max(1.0, float(np.max(np.abs(psi_hat)))):
        worst = int(grid.interior_ids[int(np.argmin(gap))])
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"sigma_k(kappa[subsolution]) < psi: f-level gap {gap.min():.3e} at node {worst}"
        )
    # boundary match at the staircase nodes, in the u variable
    u_data = zeta_inverse(sf, spec.boundary_rho)
    diff = u_sub[grid.boundary_ids] - u_data[grid.boundary_ids]
    scale = max(1.0, float(np.max(np.abs(u_data[grid.boundary_ids]))))
    tol = cfg.boundary_match_factor * grid.h * scale
    report["boundary_mismatch"] = float(np.max(np.abs(diff))) if diff.size else 0.0
    report["boundary_tolerance"] = tol
    if diff.size and np.max(np.abs(diff)) > tol:
        worst = int(grid.boundary_ids[int(np.argmax(np.abs(diff)))])
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"subsolution trace differs from boundary data by {np.max(np.abs(diff)):.3e} "
            f"(tolerance {tol:.3e}) at node {worst}"
        )
    if diff.size and np.max(diff) > 1e-9 * scale + 1e-12:
        worst = int(grid.boundary_ids[int(np.argmax(diff))])
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"subsolution exceeds the boundary data by {np.max(diff):.3e} at node {worst}; "
            "the ordering argument needs subsolution <= data"
        )
    return report


# ---------------------------------------------------------------------------
# continuation driver

def euler_tangent(op_at_t, problem_at_t, boundary_at, x, t, cfg):
    """Path tangent dx/dt = -J(x, t)^{-1} dR/dt at a solution x of the t problem.

    dR/dt is one difference of R = f - rhs in t of size TANGENT_FD_STEP, with
    the operator, right-hand side and boundary data all taken at t + step.  It
    is a forward difference unless that would leave [0, 1], which the deformed
    metric refuses.  The LU factor lives only inside this call.  Returns None
    when no tangent can be had: an inadmissible evaluation, a singular factor
    or a non-finite solve.
    """
    interior = op_at_t(t).grid.interior_ids
    step = TANGENT_FD_STEP if t + TANGENT_FD_STEP <= 1.0 else -TANGENT_FD_STEP

    def residual_at(s):
        op = op_at_t(s)
        full = boundary_at(s).copy()
        full[interior] = x
        ev = op.evaluate(full)
        if ev is None or not op.admissible(ev, cfg.convexity_margin):
            return None
        split = problem_at_t(s).evaluate(op, ev)
        return op, ev, split, ev.f - split.values

    at_t, shifted = residual_at(t), residual_at(t + step)
    if at_t is None or shifted is None:
        return None
    op, ev, split, R = at_t
    *_, R_shifted = shifted
    dR_dt = (R_shifted - R) / step
    try:
        tangent = spla.splu(_jacobian(op, ev, split).tocsc()).solve(-dR_dt)
    except RuntimeError:
        return None
    return tangent if np.all(np.isfinite(tangent)) else None


def _continue_in_t(label, problem_at_t, x0, boundary_at, op_at_t, cfg, rng=None,
                   ordering_floor=None, records=None):
    """March t: 0 -> 1 with adaptive steps and warm starts.

    problem_at_t(t) -> rhs object; op_at_t(t) -> operator (profiles may vary);
    boundary_at is a full-node array or a callable t -> array (boundary data
    may move along the path).  Returns (x, status); appends per-step records.

    A warm start that is itself inadmissible (typically moved boundary data
    breaking convexity at the ring nodes) is replaced by the Euler predictor
    x + (t_try - t) dx/dt; the tangent is computed once per accepted point and
    reused across dt halvings.  Without a tangent the step is halved as before.
    """
    records = records if records is not None else []
    if not callable(boundary_at):
        fixed = boundary_at

        def boundary_at(t):
            return fixed

    t = 0.0
    op0 = op_at_t(0.0)
    rhs0 = problem_at_t(0.0)
    res = newton_core(op0, rhs0, x0, boundary_at(0.0), cfg)
    if res.status != CONVERGED:
        return x0, res.status, records
    x = res.x
    _record_step(records, label, 0.0, res, op0, rhs0, boundary_at(0.0), cfg, ordering_floor)
    dt = cfg.dt_init
    perturbed = False
    tangent, tangent_tried = None, False
    while t < 1.0 - 1e-14:
        t_try = min(1.0, t + dt)
        op = op_at_t(t_try)
        rhs = problem_at_t(t_try)
        res = newton_core(op, rhs, x, boundary_at(t_try), cfg)
        if res.status == ADMISSIBILITY_LOSS and res.iterations == 0:
            if not tangent_tried:
                tangent_tried = True
                tangent = euler_tangent(op_at_t, problem_at_t, boundary_at, x, t, cfg)
            if tangent is not None:
                res = newton_core(op, rhs, x + (t_try - t) * tangent, boundary_at(t_try), cfg)
        if res.status == CONVERGED:
            t, x = t_try, res.x
            tangent, tangent_tried = None, False
            _record_step(records, label, t, res, op, rhs, boundary_at(t), cfg, ordering_floor)
            dt = min(cfg.dt_growth * dt, 0.5)
            continue
        dt *= 0.5
        if dt < cfg.dt_min:
            if not perturbed and rng is not None:
                # one-time tangential nudge before declaring failure
                perturbed = True
                x = x + 1e-8 * rng.standard_normal(x.shape)
                tangent, tangent_tried = None, False
                dt = cfg.dt_min * 4.0
                continue
            return x, res.status if res.status != CONVERGED else STEP_FAILURE, records
    return x, CONVERGED, records


def _record_step(records, label, t, res: NewtonResult, op, rhs, boundary_full, cfg,
                 ordering_floor):
    full = boundary_full.copy()
    full[op.grid.interior_ids] = res.x
    ev = op.evaluate(full)
    rec = {
        "stage": label,
        "t": float(t),
        "newton_iterations": int(res.iterations),
        "residual": float(res.residual),
        "diagnostics": diagnostics_from_eval(op, ev, cfg.theta_N),
    }
    # zero-order coefficient of the linearization at the accepted solution:
    # negative along the auxiliary stages by the maximum-principle sign
    split = rhs.evaluate(op, ev)
    zero_order = op.blocks(ev).Gu - split.d_val
    rec["zero_order_max"] = float(np.max(zero_order))
    rec["zero_order_negative"] = bool(np.max(zero_order) < 0.0)
    if ordering_floor is not None:
        viol = float(np.min(res.x - ordering_floor))
        rec["ordering_min_gap"] = viol
        rec["ordering_ok"] = bool(viol >= -1e-10)
    records.append(rec)


# ---------------------------------------------------------------------------
# stage drivers (K in {0, -1})

def _subsolution_v(spec):
    u_sub = zeta_inverse(spec.sf, spec.subsolution_rho)
    return eta_inverse(spec.sf, u_sub)


def _boundary_v(spec):
    u_data = zeta_inverse(spec.sf, spec.boundary_rho)
    return eta_inverse(spec.sf, u_data)


def plan_stage_constants(spec: ProblemSpec, cfg: HomotopyConfig):
    """Compute q = G[vbar]/xi(vbar) on the subsolution's own trace and pick eps."""
    if spec.sf.K not in (0, -1):
        raise SemanticError("the xi-based continuation runs for K in {0, -1}")
    if spec.k != spec.grid.dim:
        raise SemanticError("continuation drivers require k = n (Gauss curvature)")
    v_sub = _subsolution_v(spec)
    op = DiscreteOperator(spec.grid, spec.k, profile(spec.sf), rep="v", sf=spec.sf)
    ev = op.evaluate(v_sub)
    if ev is None:
        raise AdmissibilityError("subsolution is not admissible")
    q = ev.f / xi(spec.sf, ev.val)
    eps = cfg.epsilon if cfg.epsilon is not None else 0.5 * float(q.min())
    if float(q.min()) < 1.2 * eps:
        raise SemanticError(
            f"epsilon={eps:.3e} violates G[vbar] > eps xi(vbar) with 20% margin "
            f"(min ratio {q.min():.3e})"
        )
    return {"q": q, "epsilon": float(eps), "v_sub": v_sub, "op": op}


def stage1_path(spec: ProblemSpec, cfg: HomotopyConfig | None = None, plan=None, records=None):
    """Continuation to the auxiliary equation G[v] = eps xi(v); returns v0 field.

    Runs with the subsolution's own trace as boundary data (the continuous
    problem has v = vbar on the boundary); the morph to the staircase-sampled
    problem data happens afterwards in boundary_bridge_path.
    """
    cfg = cfg or HomotopyConfig()
    plan = plan or plan_stage_constants(spec, cfg)
    grid = spec.grid
    v_sub, q, eps, op = plan["v_sub"], plan["q"], plan["epsilon"], plan["op"]

    def rhs_at(t):
        return XiWeightedRhs(spec.sf, (1.0 - t) * q + t * eps)

    records = records if records is not None else []
    x, status, records = _continue_in_t(
        "stage1", rhs_at, v_sub[grid.interior_ids], v_sub, lambda t: op, cfg,
        ordering_floor=v_sub[grid.interior_ids], records=records,
    )
    full = v_sub.copy()
    full[grid.interior_ids] = x
    return GraphField(grid, full, "v"), status, records


def boundary_bridge_path(spec: ProblemSpec, cfg, plan, v0: GraphField, records=None):
    """Morph the boundary data from the subsolution trace to the problem data.

    The subsolution only matches the Dirichlet data on the true domain
    boundary; at the staircase nodes they differ by O(h).  Imposing the jump
    at once puts an O(1/h) spike into the stencil Hessians, so the data is
    moved continuously under the auxiliary equation G[v] = eps xi(v), whose
    linearization is invertible for every boundary value (the zero-order sign
    argument is boundary-independent).  Each warm start moves the whole
    boundary step into the ring nodes and loses convexity there; the engine
    then starts Newton from the Euler predictor instead, so the bridge takes a
    few steps at every grid size.
    """
    grid = spec.grid
    eps, op = plan["epsilon"], plan["op"]
    v_from = v0.values
    v_to = _boundary_v(spec)
    delta = np.zeros(grid.n_nodes)
    delta[grid.boundary_ids] = (v_to - v_from)[grid.boundary_ids]

    def boundary_at(s):
        return v_from + s * delta

    rhs = XiWeightedRhs(spec.sf, eps + np.zeros(grid.n_interior))
    records = records if records is not None else []
    x, status, records = _continue_in_t(
        "bridge", lambda s: rhs, v0.values[grid.interior_ids], boundary_at,
        lambda s: op, cfg, ordering_floor=plan["v_sub"][grid.interior_ids],
        records=records,
    )
    full = boundary_at(1.0)
    full[grid.interior_ids] = x
    return GraphField(grid, full, "v"), status, records


def stage2_path(spec: ProblemSpec, cfg: HomotopyConfig | None = None, v0: GraphField = None,
                plan=None, records=None):
    """Continuation from the auxiliary equation to G[v] = psi_hat(z, v, Dv).

    v0 must solve G[v] = eps xi(v) with the problem's boundary data (stage 1
    plus the boundary bridge); when omitted both are run here.
    """
    cfg = cfg or HomotopyConfig()
    plan = plan or plan_stage_constants(spec, cfg)
    grid = spec.grid
    eps, op = plan["epsilon"], plan["op"]
    records = records if records is not None else []
    if v0 is None:
        v0, status, records = stage1_path(spec, cfg, plan, records)
        if status != CONVERGED:
            raise AdmissibilityError(f"stage 1 failed with {status}")
        v0, status, records = boundary_bridge_path(spec, cfg, plan, v0, records)
        if status != CONVERGED:
            raise AdmissibilityError(f"boundary bridge failed with {status}")
    boundary_full = v0.values.copy()
    psi_rhs = PsiRhs(spec.psi_hat)

    def rhs_at(t):
        return BlendRhs(1.0 - t, XiWeightedRhs(spec.sf, eps), t, psi_rhs)

    x, status, records = _continue_in_t(
        "stage2", rhs_at, v0.values[grid.interior_ids], boundary_full, lambda t: op, cfg,
        ordering_floor=plan["v_sub"][grid.interior_ids], records=records,
    )
    full = boundary_full.copy()
    full[grid.interior_ids] = x
    return GraphField(grid, full, "v"), status, records


def hopf_boundary_check(grid, v_full, v_sub_full):
    """One-sided inward difference of (v - vbar) at boundary nodes; diagnostic."""
    w = v_full - v_sub_full
    out = []
    for b in grid.boundary_ids:
        idx = grid.node_index[b]
        best = -np.inf
        for off in grids._offsets(grid.dim):
            j = grid.id_grid[tuple(idx + off)] if np.all(
                (idx + off >= 0) & (idx + off < np.array(grid.lattice_shape))
            ) else -1
            if j >= 0 and grid.node_class[j] == grids.INTERIOR:
                best = max(best, (w[j] - w[b]) / (grid.h * np.linalg.norm(off)))
        if best > -np.inf:
            out.append(best)
    return float(np.min(out)) if out else np.nan


def solve_two_step(spec: ProblemSpec, cfg: HomotopyConfig | None = None):
    """Full K in {0, -1} pipeline; returns (v field, SolveReport)."""
    cfg = cfg or HomotopyConfig()
    sub_report = verify_subsolution(spec, cfg)
    if not sub_report["ok"]:
        rep = SolveReport(status=ADMISSIBILITY_LOSS)
        rep.messages = sub_report["reasons"]
        rep.diagnostics["subsolution"] = sub_report
        return None, rep
    plan = plan_stage_constants(spec, cfg)
    records = []
    v0, status, records = stage1_path(spec, cfg, plan, records)
    report = SolveReport(status=status, constants={"epsilon": plan["epsilon"]})
    report.diagnostics["subsolution"] = sub_report
    if status != CONVERGED:
        report.stages = records
        return v0, report
    v0, status, records = boundary_bridge_path(spec, cfg, plan, v0, records)
    if status != CONVERGED:
        report.status = status
        report.stages = records
        return v0, report
    v1, status, records = stage2_path(spec, cfg, v0, plan, records)
    report.status = status
    report.stages = records
    if status == CONVERGED:
        _finalize_report(spec, cfg, v1, plan["v_sub"], report)
    return v1, report


def _finalize_report(spec, cfg, v_field, v_sub_full, report):
    grid = spec.grid
    op = DiscreteOperator(grid, spec.k, profile(spec.sf), rep=v_field.representation, sf=spec.sf)
    ev = op.evaluate(v_field.values)
    psi_hat = spec.psi_hat(op.bundle(ev))
    report.final_residual = float(np.max(np.abs(ev.f - psi_hat)))
    report.sigma_residual = float(np.max(np.abs(ev.f**spec.k - psi_hat**spec.k)))
    report.diagnostics["final"] = diagnostics_from_eval(op, ev, cfg.theta_N)
    report.ordering_violations = [
        r["ordering_min_gap"] for r in report.stages if not r.get("ordering_ok", True)
    ]
    if v_sub_full is not None:
        report.diagnostics["hopf_min_inward_slope"] = hopf_boundary_check(
            grid, v_field.values, v_sub_full
        )


# ---------------------------------------------------------------------------
# spherical path (K = +1)

def sphere_plan(spec: ProblemSpec, cfg: HomotopyConfig):
    """Derive eps, delta1, delta2, T(t) = t^m from the subsolution's margins."""
    grid = spec.grid
    u_sub = zeta_inverse(spec.sf, spec.subsolution_rho)
    t_lattice = np.linspace(0.0, 1.0, cfg.t_samples)
    psi_min, psi_max = np.inf, -np.inf
    g_vals = {}
    for t in t_lattice:
        op_t = DiscreteOperator(grid, spec.k, profile_deformed(t), rep="u")
        ev_t = op_t.evaluate(u_sub)
        if ev_t is None:
            raise AdmissibilityError(f"subsolution is not admissible in the deformed metric t={t}")
        ph = spec.psi_hat(op_t.bundle(ev_t))
        psi_min = min(psi_min, float(ph.min()))
        psi_max = max(psi_max, float(ph.max()))
        g_vals[float(t)] = (ev_t.f, ph)
    g0_min = float(g_vals[0.0][0].min())
    eps = cfg.epsilon if cfg.epsilon is not None else 0.5 * min(g0_min, 0.5 * psi_min)
    if eps <= 0 or eps >= min(g0_min, 0.5 * psi_min) + 1e-15:
        raise SemanticError(f"epsilon={eps:.3e} must lie below min(G0[usub]), psi^t/2")
    delta2 = cfg.delta2 if cfg.delta2 is not None else eps / (4.0 * float((u_sub**2).max()))
    if delta2 * float((u_sub**2).max()) >= 0.5 * eps:
        raise SemanticError("delta2 max(usub^2) must stay below eps/2")
    # delta1: largest candidate with G^t[usub] > psi^t[usub] - eps/2 at 10% margin
    delta1 = cfg.delta1
    if delta1 is None:
        for cand in (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125):
            ok = True
            for t in t_lattice[t_lattice >= 1.0 - cand - 1e-12]:
                f_t, ph_t = g_vals[float(t)]
                if np.min(f_t - ph_t + 0.5 * eps) < 0.1 * (0.5 * eps):
                    ok = False
                    break
            if ok:
                delta1 = cand
                break
        if delta1 is None:
            raise SemanticError("no delta1 candidate satisfies the near-t=1 inequality")
    # T(t) = t^m with min G0 > 2 T(1-delta1) max psi^t
    m = cfg.t_exponent
    if m is None:
        m = 1
        while m < 400 and not g0_min > 2.0 * (1.0 - delta1) ** m * psi_max:
            m += 1
        if m >= 400:
            raise SemanticError("no exponent m <= 400 satisfies the T(t) inequality")
    t_margin = g0_min - 2.0 * (1.0 - delta1) ** m * psi_max
    return {
        "u_sub": u_sub,
        "epsilon": float(eps),
        "delta1": float(delta1),
        "delta2": float(delta2),
        "t_exponent": int(m),
        "g0_min": g0_min,
        "psi_hat_min": psi_min,
        "psi_hat_max": psi_max,
        "T_margin": float(t_margin),
    }


def sphere_path(spec: ProblemSpec, cfg: HomotopyConfig | None = None):
    """K = +1 driver: Euclidean auxiliary solve, metric deformation, eps schedule."""
    cfg = cfg or HomotopyConfig()
    if spec.sf.K != 1:
        raise SemanticError("sphere_path requires K = +1")
    if spec.k != spec.grid.dim:
        raise SemanticError("continuation drivers require k = n (Gauss curvature)")
    grid = spec.grid
    report = SolveReport(status=STEP_FAILURE)
    sub_report = verify_subsolution(spec, cfg)
    report.diagnostics["subsolution"] = sub_report
    if not sub_report["ok"]:
        report.status = ADMISSIBILITY_LOSS
        report.messages = sub_report["reasons"]
        return None, report
    plan = sphere_plan(spec, cfg)
    eps, delta1, delta2, m = plan["epsilon"], plan["delta1"], plan["delta2"], plan["t_exponent"]
    report.constants = {
        "epsilon": eps, "delta1": delta1, "delta2": delta2, "t_exponent": m,
        "T_margin": plan["T_margin"], "g0_min": plan["g0_min"],
        "psi_hat_min": plan["psi_hat_min"], "psi_hat_max": plan["psi_hat_max"],
    }
    u_sub = plan["u_sub"]
    v_sub = np.log(u_sub)
    u_data = zeta_inverse(spec.sf, spec.boundary_rho)
    boundary_full_v = v_sub.copy()
    boundary_full_v[grid.boundary_ids] = np.log(u_data[grid.boundary_ids])
    records = []

    # (b) t = 0: the K = 0 auxiliary equation G0[v] = delta2 e^{2v} via stage 1,
    # run against the subsolution's own trace
    op0 = DiscreteOperator(grid, spec.k, profile_deformed(0.0), rep="v", exp_eta=True)
    ev0 = op0.evaluate(v_sub)
    q0 = ev0.f / np.exp(2.0 * v_sub[grid.interior_ids])
    if float(q0.min()) <= delta2:
        report.messages.append("G0[vbar] > delta2 xi(vbar) fails; delta2 too large")
        report.status = ADMISSIBILITY_LOSS
        return None, report

    def rhs_aux(t):
        return _CoefExpSquaredRhs((1.0 - t) * q0 + t * delta2)

    x, status, records = _continue_in_t(
        "sphere-aux", rhs_aux, v_sub[grid.interior_ids], v_sub, lambda t: op0,
        cfg, ordering_floor=v_sub[grid.interior_ids], records=records,
    )
    if status != CONVERGED:
        report.status = status
        report.stages = records
        return None, report

    # boundary bridge: morph the staircase trace to the problem data while
    # staying on the invertible auxiliary equation
    delta_b = boundary_full_v - v_sub

    def boundary_at(s):
        return v_sub + s * delta_b

    x, status, records = _continue_in_t(
        "bridge", lambda s: _CoefExpSquaredRhs(delta2 + np.zeros(grid.n_interior)),
        x, boundary_at, lambda s: op0, cfg,
        ordering_floor=v_sub[grid.interior_ids], records=records,
    )
    if status != CONVERGED:
        report.status = status
        report.stages = records
        return None, report

    # (c) deform the metric: t 0 -> 1 under (7-1)
    rng = np.random.default_rng(cfg.perturb_seed)
    psi_rhs = PsiRhs(spec.psi_hat)

    def op_t(t):
        return DiscreteOperator(grid, spec.k, profile_deformed(t), rep="v", exp_eta=True)

    def rhs_t(t):
        T = t**m
        return BlendRhs(1.0, _CoefExpSquaredRhs((1.0 - T) * delta2), T,
                        _ShiftedRhs(psi_rhs, -eps))

    x, status, records = _continue_in_t(
        "sphere-deform", rhs_t, x, boundary_full_v, op_t, cfg, rng=rng,
        ordering_floor=v_sub[grid.interior_ids], records=records,
    )
    if status != CONVERGED:
        report.status = status
        report.stages = records
        return None, report

    # (d) approximation schedule on G[u] = psi_hat - eps_j at K = +1
    op_u = DiscreteOperator(grid, spec.k, profile(spec.sf), rep="u", sf=spec.sf)
    boundary_full_u = u_sub.copy()
    boundary_full_u[grid.boundary_ids] = u_data[grid.boundary_ids]
    x_u = np.exp(x)
    eps_prev = eps
    eps_j = eps
    target = cfg.eps_target_factor * plan["psi_hat_min"]
    schedule = []
    prev_change = None
    stagnated = False
    while True:
        x_new, res, ok = _eps_substep(op_u, psi_rhs, x_u, eps_prev, eps_j, boundary_full_u, cfg)
        if not ok:
            report.status = res.status
            report.stages = records
            report.messages.append(f"eps schedule stalled at eps={eps_j:.3e}")
            return None, report
        change = float(np.max(np.abs(x_new - x_u)))
        # monotonicity of the schedule is recorded, not asserted: a smaller rhs
        # need not move the whole graph one way at the discrete level
        step_min = float(np.min(x_new - x_u))
        step_max = float(np.max(x_new - x_u))
        x_u = x_new
        schedule.append({"eps": float(eps_j), "sup_change": change,
                         "step_min": step_min, "step_max": step_max,
                         "monotone_nonincreasing_u": bool(step_max <= 1e-9),
                         "monotone_nondecreasing_u": bool(step_min >= -1e-9),
                         "newton_iterations": res.iterations, "residual": res.residual})
        _record_step(records, "sphere-eps", eps_j, res, op_u, _ShiftedRhs(psi_rhs, -eps_j),
                     boundary_full_u, cfg, None)
        if prev_change is not None and change > 2.0 * prev_change and change > 100 * cfg.newton_tol:
            stagnated = True
        prev_change = change
        if eps_j <= target:
            break
        eps_prev = eps_j
        eps_j *= 0.5
    report.constants["eps_floor"] = float(eps_j)
    report.constants["eps_schedule"] = schedule
    if stagnated:
        report.messages.append("eps schedule shows non-decreasing sup changes; recorded, not fatal")
    full = boundary_full_u.copy()
    full[grid.interior_ids] = x_u
    out = GraphField(grid, full, "u")
    report.status = CONVERGED
    report.stages = records
    # residual against the target equation G[u] = psi_hat (no eps)
    ev = op_u.evaluate(full)
    psi_hat = spec.psi_hat(op_u.bundle(ev))
    report.final_residual = float(np.max(np.abs(ev.f - psi_hat)))
    report.sigma_residual = float(np.max(np.abs(ev.f**spec.k - psi_hat**spec.k)))
    report.diagnostics["final"] = diagnostics_from_eval(op_u, ev, cfg.theta_N)
    report.diagnostics["final_residual_with_eps_floor"] = float(
        np.max(np.abs(ev.f - (psi_hat - eps_j)))
    )
    return out, report


class _CoefExpSquaredRhs:
    """coef(z) * e^{2v}."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def evaluate(self, op, ev) -> RhsSplit:
        e2 = np.exp(2.0 * ev.val)
        n = op.grid.dim
        return RhsSplit(
            values=self.coef * e2,
            d_val=2.0 * self.coef * e2,
            d_p=np.zeros((ev.val.shape[0], n)),
        )


class _ShiftedRhs:
    """inner rhs plus a constant shift."""

    def __init__(self, inner, shift):
        self.inner = inner
        self.shift = shift

    def evaluate(self, op, ev) -> RhsSplit:
        s = self.inner.evaluate(op, ev)
        return RhsSplit(values=s.values + self.shift, d_val=s.d_val, d_p=s.d_p)


def _eps_substep(op_u, psi_rhs, x, eps_from, eps_to, boundary_full, cfg, depth=0):
    """Warm-started solve at eps_to, bisecting geometrically in eps on failure."""
    res = newton_core(op_u, _ShiftedRhs(psi_rhs, -eps_to), x, boundary_full, cfg)
    if res.status == CONVERGED:
        return res.x, res, True
    if depth >= 6 or eps_from <= eps_to:
        return x, res, False
    eps_mid = float(np.sqrt(eps_from * eps_to))
    x2, res2, ok = _eps_substep(op_u, psi_rhs, x, eps_from, eps_mid, boundary_full, cfg, depth + 1)
    if not ok:
        return x2, res2, False
    return _eps_substep(op_u, psi_rhs, x2, eps_mid, eps_to, boundary_full, cfg, depth + 1)


def solve_problem(spec: ProblemSpec, cfg: HomotopyConfig | None = None):
    """Dispatch on the space form; returns (field or None, SolveReport)."""
    cfg = cfg or HomotopyConfig()
    if spec.sf.K in (0, -1):
        return solve_two_step(spec, cfg)
    return sphere_path(spec, cfg)
