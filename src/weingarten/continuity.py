"""Damped Newton solver and the one continuation driver of the three space forms.

solve_problem gates the subsolution vbar, then walks in order the legs
t: 0 -> 1 that the space form's builder returns, starting from vbar, which is
verified strictly locally convex.  Every leg's right-hand side is one Rhs,

    a(t) xi(v) + b(t) (psi_hat + c(t)).

For K in {0, -1}, two_step_legs gives

    stage1:   G[v] = q^{1-t} eps^t xi(v),  q = G[vbar]/xi(vbar),  v = vbar on dOmega
    bridge:   G[v] = eps xi(v), boundary data moved from the subsolution trace
              to the problem data (the two differ by O(h) at staircase nodes)
    stage2:   G[v] = (1-t) eps xi(v) + t psi(z, v, Dv)

For K = +1, sphere_legs deforms the background metric from the Euclidean
model to the upper hemisphere,

    sphere-deform:   G^t[v] = (1 - T(t)) delta2 e^{2v} + T(t) (psi^t[e^v] - eps),

whose t = 0 problem is exactly the K = 0 auxiliary equation with
eps = delta2, so the legs before it are the K = 0 stage-1 leg (labelled
sphere-aux) and bridge leg.  The last leg removes the protective shift,

    sphere-eps:   G[u] = psi - (1 - t) eps,

on the K = +1 operator in the u-representation, started from u = e^v, so
that the path ends on the target equation G[u] = psi itself.  Every accepted
iterate on every path is kept strictly locally convex by the line search.  A
solve that does not converge returns no field, only its report.
"""

import json
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from . import charts, grids, linearize
from .errors import AdmissibilityError, SemanticError
from .geometry import state_from_u_slots, v_slots_to_u
from .grids import GraphField
from .spaceform import (
    RANGE_MARGIN,
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
from .symeig import least_eigenvalue, mm, positive_definite
from .symfunc import f_and_F

CONVEXITY_MARGIN = 1e-10  # Hess u + u sigma - margin I must be positive definite
MIN_LAMBDA = 1e-12        # the line search gives up below this damping
ARMIJO = 1e-4             # sufficient-decrease constant of the line search
STAGNATION_WINDOW = 3     # Newton stops when the residual, over this many accepted
STAGNATION_FACTOR = 0.9   # iterations, stays above this share of its earlier value
TANGENT_FD_STEP = 1e-6   # difference step in t for dR/dt in the Euler predictor
PSI_FD_STEP = 1e-6       # relative difference step of PsiRhs in v and in Dv
THETA_N = 10.0           # weight of log tau in the curvature-estimate monitor theta
BOUNDARY_MATCH_FACTOR = 3.0  # subsolution trace vs data tolerance: factor * h * scale
T_SAMPLES = 33           # t-lattice on which sphere_plan samples the deformed metric
DT_INIT = 0.25           # first step in t of a leg, unless the leg sets its own
DT_MIN = 1e-4            # a leg whose failed step halves below this stops the solve
DT_GROWTH = 1.5          # step growth after an accepted step (capped at 0.5)
# SuperLU options of the first factor: the natural column order, since the grid
# numbers its unknowns in nested-dissection order (grids.interior_ids), plus
# symmetric mode and no pivoting, which suit the almost structurally symmetric
# box stencil
FAST_LU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
           "options": {"SymmetricMode": True}}

CONVERGED = "Converged"
ADMISSIBILITY_LOSS = "AdmissibilityLoss"
LINE_SEARCH_FAILURE = "LineSearchFailure"
MAX_ITERATIONS = "MaxIterations"
SOLVER_BREAKDOWN = "SolverBreakdown"
STAGNATION = "Stagnation"


@dataclass
class HomotopyConfig:
    """Newton's stopping rule, the only [solver] keys; every continuation constant is derived."""

    newton_tol: float = 1e-10
    max_newton: int = 30


@dataclass
class ProblemSpec:
    """One Dirichlet problem for sigma_n(kappa) = psi: space form, domain, data.

    psi_sigma maps a variable bundle (dict of per-node arrays) to the
    prescribed sigma_n value; boundary_rho and subsolution_rho are full node
    arrays of radial distances (boundary slots of boundary_rho are the
    Dirichlet data; the subsolution keeps its own trace).  psi_reads_field is
    False when psi reads the chart coordinates y_i only, so that its
    derivatives in the field vanish.
    """

    sf: SpaceFormParams
    grid: grids.Grid
    psi_sigma: object
    boundary_rho: np.ndarray
    subsolution_rho: np.ndarray
    psi_reads_field: bool = True

    def psi_hat(self, bundle):
        """f-level right-hand side psi^(1/n); must be positive."""
        vals = np.asarray(self.psi_sigma(bundle), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise SemanticError("psi must be positive and finite on the domain")
        return vals ** (1.0 / self.grid.dim)


@dataclass
class NewtonResult:
    """A Converged result carries the evaluation of x.

    Failed results carry none.  Whoever keeps a result drops ev once it is
    read, so that no evaluation is alive during the next solve.
    """

    status: str
    x: np.ndarray
    iterations: int
    residual: float
    history: list
    ev: "OperatorEval | None" = None


def to_plain(o):
    """Converts numpy scalars and arrays, also inside dicts, lists and tuples, to JSON values."""
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {k: to_plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [to_plain(v) for v in o]
    return o


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
        """All fields in declaration order, the key order of report.json."""
        return json.dumps(to_plain(asdict(self)), indent=1)


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
    F: np.ndarray         # its derivative df/da, which builds the linearization
    p_v_frame: np.ndarray | None = None
    r_v_frame: np.ndarray | None = None

    @cached_property
    def conv_min_eig(self):
        """Least eigenvalue of Hess u + u sigma per node, for reports only."""
        return least_eigenvalue(self.r_u + self.u[:, None, None] * np.eye(self.r_u.shape[-1]))


class DiscreteOperator:
    """Evaluates f(kappa[field]) = sigma_n^(1/n) and its linearization over the interior nodes.

    rep "u": unknowns are u values.  rep "v": unknowns are v with u = eta(v)
    for the space form sf, over any ambient profile: the deformed sphere path
    runs eta = exp (sf K = 0) over a profile with ka = t^2.  The v-blocks come
    from the u-blocks by the chain rule, linearize.coefficients_v.
    """

    def __init__(self, grid, ambient: AmbientProfile, rep="v", sf=None):
        self.grid = grid
        self.ambient = ambient
        self.rep = rep
        self.sf = sf
        if rep == "v" and sf is None:
            raise SemanticError("v-representation needs a space form")

    def evaluate(self, full, need_f=True):
        """Full geometric evaluation; None on range violations and, when need_f
        is set, unless Hess u + u sigma - CONVEXITY_MARGIN I > 0 at every node."""
        lo = self.ambient.u_floor if self.rep == "u" else ranges(self.sf).v_lower
        if not np.all(np.isfinite(full)) or np.min(full) <= lo + RANGE_MARGIN:
            return None
        val, p_coord, hess_cov = grids.covariant_jets(self.grid, full)
        _, _, _, _, B = grids.chart_quantities(self.grid)
        p_frame = np.einsum("nij,nj->ni", B, p_coord)
        r_frame = mm(mm(B, hess_cov), B)
        p_v = r_v = None
        if self.rep == "u":
            u, p_u, r_u = val, p_frame, r_frame
        else:
            p_v, r_v = p_frame, r_frame
            u, p_u, r_u = v_slots_to_u(val, p_v, r_v, self.sf)
        if np.min(u) <= self.ambient.u_floor + RANGE_MARGIN:
            return None
        # a trial not convex by the margin is refused before its geometry is built
        if need_f and not positive_definite(
                r_u + (u - CONVEXITY_MARGIN)[:, None, None] * np.eye(self.grid.dim)):
            return None
        state = state_from_u_slots(u, p_u, r_u, self.ambient)
        f = F = None
        if need_f:
            try:
                f, F = f_and_F(state.a)
            except AdmissibilityError:
                return None
        return OperatorEval(
            full=full, val=val, p_coord=p_coord, u=u, p_u=p_u, r_u=r_u,
            state=state, f=f, F=F, p_v_frame=p_v, r_v_frame=r_v,
        )

    def blocks(self, ev) -> linearize.LinearizedCoefficients:
        lc_u = linearize.coefficients_u(ev.state, ev.F)
        if self.rep == "u":
            return lc_u
        return linearize.coefficients_v(
            lc_u, ev.u, eta_prime(self.sf, ev.val), ev.p_v_frame, ev.r_v_frame)

    def u_values_all_nodes(self, full):
        """u at every non-exterior node (for diagnostics over the closure)."""
        if self.rep == "u":
            return full
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
        else:
            u = eta(self.sf, val)
            p_u = eta_prime(self.sf, val)[:, None] * p_frame
        amb = self.ambient
        phi = amb.phi_u(u)
        w = np.sqrt(phi**2 + (phi**2) ** 2 * np.einsum("ni,ni->n", p_u, p_u))
        out = {"u": u, "rho": amb.rho_u(u), "gradnorm": np.sqrt(np.einsum("ni,ni->n", p_frame, p_frame))}
        if self.rep == "v":
            out["v"] = val
        elif self.sf is not None and self.sf.K == 1:
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

class PsiRhs:
    """rhs = psi_hat(bundle); derivatives by scale-aware central differences.

    A psi that reads no field variable (reads_field False) depends only on
    the grid's chart coordinates: evaluate computes it once and returns that
    array (read-only) from then on, and derivatives returns exactly 0
    without evaluating psi.
    """

    def __init__(self, psi_hat, reads_field):
        self.psi_hat = psi_hat
        self.reads_field = reads_field
        self._fixed = None

    def evaluate(self, op, ev):
        if self.reads_field:
            return self.psi_hat(op.bundle(ev))
        if self._fixed is None:
            self._fixed = self.psi_hat(op.bundle(ev))
            self._fixed.setflags(write=False)
        return self._fixed

    def derivatives(self, op, ev):
        n = op.grid.dim
        if not self.reads_field:
            return np.zeros(ev.val.shape[0]), np.zeros((ev.val.shape[0], n))
        s = PSI_FD_STEP * np.maximum(1.0, np.abs(ev.val))
        d_val = (self.psi_hat(op.bundle(ev, dval=s)) - self.psi_hat(op.bundle(ev, dval=-s))) / (
            2.0 * s
        )
        d_p = np.zeros((ev.val.shape[0], n))
        for i in range(n):
            dp = np.zeros_like(ev.p_coord)
            sp = PSI_FD_STEP * np.maximum(1.0, np.abs(ev.p_coord[:, i]))
            dp[:, i] = sp
            d_p[:, i] = (
                self.psi_hat(op.bundle(ev, dp=dp)) - self.psi_hat(op.bundle(ev, dp=-dp))
            ) / (2.0 * sp)
        return d_val, d_p


class Rhs:
    """rhs = a xi(v) + b (psi_hat + c), the right-hand side of every leg.

    a may vary by node; b and c are numbers, and psi is a PsiRhs.  The xi
    term is skipped when it is 0, so a leg whose space form has no xi
    (K = +1) takes a = 0, and psi is not evaluated when b = 0.

    Like PsiRhs it has two methods: evaluate gives the values at the interior
    nodes, all that a line-search trial reads, and derivatives gives
    (d_val, d_p), the derivatives in the unknown and in its coordinate
    gradient, shaped (N,) and (N, n), which only the Jacobian of an accepted
    iterate and its step record read.
    """

    def __init__(self, sf, a, psi=None, b=0.0, c=0.0):
        self.sf, self.a, self.psi, self.b, self.c = sf, a, psi, b, c
        self.xi_term = bool(np.any(a))

    def evaluate(self, op, ev):
        values = np.zeros(ev.val.shape[0])
        if self.xi_term:
            values = self.a * xi(self.sf, ev.val)
        if self.b:
            values = values + self.b * (self.psi.evaluate(op, ev) + self.c)
        return values

    def derivatives(self, op, ev):
        d_val = np.zeros(ev.val.shape[0])
        d_p = np.zeros((ev.val.shape[0], op.grid.dim))
        if self.xi_term:
            d_val = self.a * xi_prime(self.sf, ev.val)
        if self.b:
            psi_d_val, psi_d_p = self.psi.derivatives(op, ev)
            d_val = d_val + self.b * psi_d_val
            d_p = self.b * psi_d_p
        return d_val, d_p


# ---------------------------------------------------------------------------
# Newton iteration

def newton_core(op: DiscreteOperator, rhs, x0, boundary_full, cfg: HomotopyConfig) -> NewtonResult:
    """Damped Newton with admissibility-preserving line search.

    boundary_full is a full-node array whose boundary slots supply the
    Dirichlet data; interior slots are overwritten by the unknowns.

    Converged means the residual reached cfg.newton_tol, or that it is
    already at its rounding floor (see rounding_floor) and the full step,
    admissible, cannot lower it.  A call whose accepted residuals fell by
    less than 1 - STAGNATION_FACTOR over STAGNATION_WINDOW iterations stops
    as Stagnation, so that the engine halves the step instead of spending
    max_newton iterations on a flat residual.  A line search that finds no
    acceptable damping reports AdmissibilityLoss when one of its trials was
    inadmissible (as is a start at iteration 0), else LineSearchFailure.
    """
    grid = op.grid

    def compose(x):
        full = boundary_full.copy()
        full[grid.interior_ids] = x
        return full

    x = np.asarray(x0, dtype=float).copy()
    ev = op.evaluate(compose(x))
    if ev is None:
        return NewtonResult(ADMISSIBILITY_LOSS, x, 0, np.inf, [])
    b = rhs.evaluate(op, ev)
    R = ev.f - b
    rn = float(np.max(np.abs(R)))
    history = [rn]
    for it in range(1, cfg.max_newton + 1):
        if rn <= cfg.newton_tol:
            return NewtonResult(CONVERGED, x, it - 1, rn, history, ev)
        J = _jacobian(op, ev, rhs)
        delta = _lu_solve(J, -R)
        if delta is None:
            return NewtonResult(SOLVER_BREAKDOWN, x, it, rn, history)
        lam = 1.0
        accepted = inadmissible = False
        while lam >= MIN_LAMBDA:
            x_t = x + lam * delta
            ev_t = op.evaluate(compose(x_t))
            if ev_t is not None:
                b_t = rhs.evaluate(op, ev_t)
                R_t = ev_t.f - b_t
                rn_t = float(np.max(np.abs(R_t)))
                if rn_t <= max(cfg.newton_tol, (1.0 - ARMIJO * lam) * rn):
                    x, ev, b, R, rn = x_t, ev_t, b_t, R_t, rn_t
                    history.append(rn)
                    accepted = True
                    break
                if lam == 1.0 and rn <= rounding_floor(J, x, b):
                    return NewtonResult(CONVERGED, x, it - 1, rn, history, ev)
            else:
                inadmissible = True
            lam *= 0.5
        if not accepted:
            return NewtonResult(ADMISSIBILITY_LOSS if inadmissible else LINE_SEARCH_FAILURE,
                                x, it, rn, history)
        if (rn > cfg.newton_tol and len(history) > STAGNATION_WINDOW
                and rn > STAGNATION_FACTOR * history[-1 - STAGNATION_WINDOW]):
            return NewtonResult(STAGNATION, x, it, rn, history)
    if rn <= cfg.newton_tol:
        return NewtonResult(CONVERGED, x, cfg.max_newton, rn, history, ev)
    return NewtonResult(MAX_ITERATIONS, x, cfg.max_newton, rn, history)


def rounding_floor(J, x, b):
    """eps_mach (|J| |x| + |b|) in the sup norm: the residual R = f - b, of
    Jacobian J at the unknowns x, cannot be resolved below this level
    (Kelley 1995, ch. 5)."""
    J_norm = float(abs(J).sum(axis=1).max())
    return np.finfo(float).eps * (J_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b))))


def _lu_solve(J, b):
    """Solve J x = b by sparse LU; None when no finite solution can be had.

    The FAST_LU factor comes first.  Without pivoting it can meet a zero
    pivot or return a non-finite solve; then SuperLU's default options
    (COLAMD, partial pivoting) get one more try.
    """
    for options in (FAST_LU, {}):
        try:
            x = spla.splu(J, **options).solve(b)
        except RuntimeError:
            continue
        if np.all(np.isfinite(x)):
            return x
    return None


def _jacobian(op: DiscreteOperator, ev: OperatorEval, rhs):
    """Sparse Jacobian of R = f - rhs over the interior unknowns."""
    A2, b1, c = linearize.to_coordinate(op.blocks(ev), op.grid)
    d_val, d_p = rhs.derivatives(op, ev)
    return linearize.assemble_jacobian(op.grid, A2, b1 - d_p, c - d_val)


def newton_solve(spec: ProblemSpec, rhs, initial: GraphField):
    """Single Newton solve of f(kappa) = rhs in the initial field's representation."""
    rep = initial.representation
    if rep == "rho":
        raise SemanticError("newton_solve operates on u- or v-representation fields")
    op = DiscreteOperator(spec.grid, profile(spec.sf), rep=rep, sf=spec.sf)
    boundary_full = initial.values.copy()
    res = newton_core(op, rhs, initial.values[spec.grid.interior_ids], boundary_full,
                      HomotopyConfig())
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


def diagnostics_from_eval(op: DiscreteOperator, ev: OperatorEval):
    """Monitors from the curvature-estimate machinery; never aborts a solve."""
    st = ev.state
    kap = st.kappa
    S = ev.r_u + ev.u[:, None, None] * np.eye(op.grid.dim)
    det_S = np.linalg.det(S)
    P = np.einsum("ni,ni->n", kap, kap)
    rho = op.ambient.rho_u(ev.u)
    theta = 0.5 * np.log(P) - THETA_N * np.log(st.tau) + op.ambient.u_floor * _capital_phi_profile(
        op.ambient, rho
    )
    w_c1 = np.sqrt(ev.u**2 + np.einsum("ni,ni->n", ev.p_u, ev.p_u))
    # boundary trace of the gradient test function via one-sided differences
    u_all = op.u_values_all_nodes(ev.full)
    grid = op.grid
    if grid.boundary_ids.size:
        p_bnd = grids.boundary_gradient_estimate(grid, u_all)
        _, sigma_inv_b, _ = charts.chart_metric(grid.chart, grid.coords[grid.boundary_ids])
        gn2 = np.einsum("nk,nk->n", p_bnd, (sigma_inv_b @ p_bnd[..., None])[..., 0])
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
        "c1_bound": c1_bound,
        "c1_soft_ok": bool(w_c1.max() <= c1_bound + 1e-8),
        "min_u": float(ev.u.min()),
        "max_u": float(ev.u.max()),
    }


def evaluate_stored(field: GraphField, sf: SpaceFormParams):
    """(operator, evaluation without f) of a stored field in any representation.

    u and v fields are evaluated by the operator of their own representation;
    a rho field is read as u = zeta^-1(rho) on the u-representation operator.
    The evaluation is None when the field is out of range.
    """
    rep, values = field.representation, field.values
    if rep == "rho":
        rep, values = "u", zeta_inverse(sf, values)
    op = DiscreteOperator(field.grid, profile(sf), rep=rep, sf=sf)
    return op, op.evaluate(values, need_f=False)


def diagnostics_monitor(field: GraphField, sf: SpaceFormParams):
    """Per-field diagnostics record for stored graphs in any representation.

    Raises AdmissibilityError unless the field is in range and strictly
    locally convex (Hess u + u sigma > 0).
    """
    op, ev = evaluate_stored(field, sf)
    if ev is None or ev.conv_min_eig.min() <= 0.0:
        raise AdmissibilityError("diagnostics require an in-range, admissible field")
    return diagnostics_from_eval(op, ev)


# ---------------------------------------------------------------------------
# subsolution verification

def _lowest_node_at_min(grid, values):
    """Smallest node id among the interior nodes where values is least, so
    that ties do not depend on the numbering of the unknowns."""
    return int(grid.interior_ids[values == values.min()].min())


def verify_subsolution(spec: ProblemSpec):
    """Checks convexity, the curvature inequality, and the boundary match.

    Returns a report dict; report["ok"] is the gate.  Works at the f-level:
    sigma_n(kappa[subsolution]) >= psi  iff  f >= psi^(1/n).
    """
    grid = spec.grid
    op, ev = evaluate_stored(GraphField(grid, spec.subsolution_rho, "rho"), spec.sf)
    report = {"ok": True, "reasons": [], "worst_node": None}
    if ev is None:
        report["ok"] = False
        report["reasons"].append("subsolution leaves the variable range of this space form")
        return report
    conv = ev.conv_min_eig
    report["convexity_margin"] = float(conv.min())
    if conv.min() <= 0.0:
        worst = _lowest_node_at_min(grid, conv)
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"subsolution not strictly locally convex: min eigenvalue {conv.min():.3e} at node {worst}"
        )
        return report
    f_sub = f_and_F(ev.state.a)[0]
    psi_hat = spec.psi_hat(op.bundle(ev))
    gap = f_sub - psi_hat
    report["inequality_margin"] = float(gap.min())
    if gap.min() < -1e-9 * max(1.0, float(np.max(np.abs(psi_hat)))):
        worst = _lowest_node_at_min(grid, gap)
        report["ok"] = False
        report["worst_node"] = worst
        report["reasons"].append(
            f"sigma_n(kappa[subsolution]) < psi: f-level gap {gap.min():.3e} at node {worst}"
        )
    # boundary match at the staircase nodes, in the u variable
    u_data = zeta_inverse(spec.sf, spec.boundary_rho)
    diff = ev.full[grid.boundary_ids] - u_data[grid.boundary_ids]
    scale = max(1.0, float(np.max(np.abs(u_data[grid.boundary_ids]))))
    tol = BOUNDARY_MATCH_FACTOR * grid.h * scale
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
# continuation engine

@dataclass
class Leg:
    """One continuation leg t: 0 -> 1; every pipeline is a list of legs.

    op_at(t) -> operator (profiles may vary); rhs_at(t) -> right-hand side;
    boundary_at(t) -> full-node array whose boundary slots are the Dirichlet
    data (they may move along the leg).  Accepted steps record their gap to
    ordering_floor.  first_step is the first step in t the engine tries.
    """

    label: str
    op_at: object
    rhs_at: object
    boundary_at: object
    ordering_floor: np.ndarray | None = None
    first_step: float = DT_INIT


def euler_tangent(op_at_t, problem_at_t, boundary_at, x, t):
    """Path tangent dx/dt = -J(x, t)^{-1} dR/dt at a solution x of the t problem.

    dR/dt is one difference of R = f - rhs in t of size TANGENT_FD_STEP, with
    the operator, right-hand side and boundary data all taken at t + step.  It
    is a forward difference unless that would leave [0, 1], which the deformed
    metric refuses.  The LU factor lives only inside this call.  Returns None
    when no tangent can be had: an inadmissible evaluation, or no finite
    solve from either factor of _lu_solve.
    """
    interior = op_at_t(t).grid.interior_ids
    step = TANGENT_FD_STEP if t + TANGENT_FD_STEP <= 1.0 else -TANGENT_FD_STEP

    def residual_at(s):
        op, rhs = op_at_t(s), problem_at_t(s)
        full = boundary_at(s).copy()
        full[interior] = x
        ev = op.evaluate(full)
        if ev is None:
            return None
        return op, rhs, ev, ev.f - rhs.evaluate(op, ev)

    at_t, shifted = residual_at(t), residual_at(t + step)
    if at_t is None or shifted is None:
        return None
    op, rhs, ev, R = at_t
    *_, R_shifted = shifted
    dR_dt = (R_shifted - R) / step
    return _lu_solve(_jacobian(op, ev, rhs), -dR_dt)


def _continue_in_t(leg: Leg, x0, cfg, records):
    """March the leg's t: 0 -> 1 with adaptive steps and warm starts.

    Returns (x, status) and appends one record per accepted step.  A warm
    start that is itself inadmissible (typically moved boundary data breaking
    convexity at the ring nodes) is replaced by the Euler predictor
    x + (t_try - t) dx/dt; the tangent is computed once per accepted point and
    reused across dt halvings.  The first step is leg.first_step.  A failed
    step t -> t_try is retried at half its length, t_try - t, which is less
    than dt when t + dt was clipped to 1.
    """
    t = 0.0
    op0, rhs0 = leg.op_at(0.0), leg.rhs_at(0.0)
    res = newton_core(op0, rhs0, x0, leg.boundary_at(0.0), cfg)
    if res.status != CONVERGED:
        return x0, res.status
    x = res.x
    _record_step(records, leg.label, 0.0, res, op0, rhs0, leg.ordering_floor)
    dt = leg.first_step
    tangent, tangent_tried = None, False
    while t < 1.0 - 1e-14:
        t_try = min(1.0, t + dt)
        op = leg.op_at(t_try)
        rhs = leg.rhs_at(t_try)
        res = newton_core(op, rhs, x, leg.boundary_at(t_try), cfg)
        if res.status == ADMISSIBILITY_LOSS and res.iterations == 0:
            if not tangent_tried:
                tangent_tried = True
                tangent = euler_tangent(leg.op_at, leg.rhs_at, leg.boundary_at, x, t)
            if tangent is not None:
                res = newton_core(op, rhs, x + (t_try - t) * tangent, leg.boundary_at(t_try), cfg)
        if res.status == CONVERGED:
            t, x = t_try, res.x
            tangent, tangent_tried = None, False
            _record_step(records, leg.label, t, res, op, rhs, leg.ordering_floor)
            dt = min(DT_GROWTH * dt, 0.5)
            continue
        dt = 0.5 * (t_try - t)
        if dt < DT_MIN:
            return x, res.status
    return x, CONVERGED


def run_legs(grid, legs, x0, cfg, records=None):
    """Walk the legs in order, each warm-started from the previous endpoint.

    A u-representation leg after a v-representation leg starts from
    u = eta(v) in the space form of the previous operator.  Stops at the
    first leg that does not converge.  Returns (field, status, records): the
    field is the last leg's boundary data at t = 1 around its interior
    unknowns, in the representation of that leg's operator, and records
    holds every accepted step.
    """
    records = records if records is not None else []
    x, status, op = x0, CONVERGED, None
    for leg in legs:
        prev, op = op, leg.op_at(1.0)
        if prev is not None and prev.rep == "v" and op.rep == "u":
            x = eta(prev.sf, x)
        x, status = _continue_in_t(leg, x, cfg, records)
        if status != CONVERGED:
            break
    full = leg.boundary_at(1.0).copy()
    full[grid.interior_ids] = x
    return GraphField(grid, full, op.rep), status, records


def _record_step(records, label, t, res: NewtonResult, op, rhs, ordering_floor):
    """Appends the record of a Converged result from its own evaluation, then drops it."""
    ev, res.ev = res.ev, None
    rec = {
        "stage": label,
        "t": float(t),
        "newton_iterations": int(res.iterations),
        "residual": float(res.residual),
        "diagnostics": diagnostics_from_eval(op, ev),
    }
    # zero-order coefficient of the linearization at the accepted solution:
    # negative along the auxiliary stages by the maximum-principle sign
    zero_order = op.blocks(ev).Gu - rhs.derivatives(op, ev)[0]
    rec["zero_order_max"] = float(np.max(zero_order))
    rec["zero_order_negative"] = bool(np.max(zero_order) < 0.0)
    if ordering_floor is not None:
        viol = float(np.min(res.x - ordering_floor))
        rec["ordering_min_gap"] = viol
        rec["ordering_ok"] = bool(viol >= -1e-10)
    records.append(rec)


# ---------------------------------------------------------------------------
# legs shared by the pipelines

def stage1_leg(label, op, sf, q, eps, v_sub):
    """G[v] = q^{1-t} eps^t xi(v) with the subsolution's own trace as data.

    With q = G[vbar]/xi(vbar) the subsolution solves the t = 0 problem.  The
    coefficient moves geometrically: equal steps in t scale it by equal
    ratios.  A linear blend keeps it near q until late and then drops it by
    most of q/eps in the last steps, where Newton stalls on K = +1
    (q = 16 delta2 there).
    """
    return Leg(label, lambda t: op, lambda t: Rhs(sf, q ** (1.0 - t) * eps**t),
               lambda t: v_sub, ordering_floor=v_sub[op.grid.interior_ids])


def bridge_leg(op, sf, eps, v_from, v_to, ordering_floor):
    """Morph the boundary data from v_from to v_to under G[v] = eps xi(v).

    The subsolution only matches the Dirichlet data on the true domain
    boundary; at the staircase nodes they differ by O(h).  Imposing the jump
    at once puts an O(1/h) spike into the stencil Hessians, so the data is
    moved continuously under the auxiliary equation, whose linearization is
    invertible for every boundary value (the zero-order sign argument is
    boundary-independent).  Each warm start moves the whole boundary step into
    the ring nodes and loses convexity there; the engine then starts Newton
    from the Euler predictor instead, so the bridge's step count does not
    grow with the grid.
    """
    grid = op.grid
    delta = np.zeros(grid.n_nodes)
    delta[grid.boundary_ids] = (v_to - v_from)[grid.boundary_ids]
    rhs = Rhs(sf, eps)
    return Leg("bridge", lambda t: op, lambda t: rhs, lambda t: v_from + t * delta,
               ordering_floor=ordering_floor)


def _xi_ratio(op, v_full):
    """q = G[v]/xi(v) at the interior nodes, in the operator's space form."""
    ev = op.evaluate(v_full)
    if ev is None:
        raise AdmissibilityError("subsolution is not admissible")
    return ev.f / xi(op.sf, ev.val)


def evaluate_target(spec: ProblemSpec, field: GraphField):
    """(operator, evaluation, f, psi_hat) of a field on the target equation:
    the evaluation is evaluate_stored's and f = sigma_n^(1/n) is f_and_F's."""
    op, ev = evaluate_stored(field, spec.sf)
    return op, ev, f_and_F(ev.state.a)[0], spec.psi_hat(op.bundle(ev))


def _finalize_report(spec, field, report):
    """Residuals against the target equation, final diagnostics, ordering gaps.

    The final diagnostics are the last step record's.  A v field also gets
    the Hopf check against the subsolution.
    """
    _, _, f, psi_hat = evaluate_target(spec, field)
    report.final_residual = float(np.max(np.abs(f - psi_hat)))
    n = spec.grid.dim
    report.sigma_residual = float(np.max(np.abs(f**n - psi_hat**n)))
    report.diagnostics["final"] = dict(report.stages[-1]["diagnostics"])
    report.ordering_violations = [
        r["ordering_min_gap"] for r in report.stages if not r.get("ordering_ok", True)
    ]
    if field.representation == "v":
        report.diagnostics["hopf_min_inward_slope"] = hopf_boundary_check(
            spec.grid, field.values, _rho_to_v(spec.sf, spec.subsolution_rho)
        )


def hopf_boundary_check(grid, v_full, v_sub_full):
    """One-sided inward difference of (v - vbar) at boundary nodes; diagnostic.

    Each boundary node takes its steepest slope towards an interior neighbor
    in the 3^n box; the result is the least of these over the boundary.
    """
    w = v_full - v_sub_full
    offs = grids.box_offsets(grid.dim)
    offs = offs[np.any(offs != 0, axis=1)]
    ids = grids.neighbor_ids(grid, grid.boundary_ids, offs)
    inward = (ids >= 0) & (grid.node_class[ids] == grids.INTERIOR)
    slope = (w[ids] - w[grid.boundary_ids][:, None]) / (grid.h * np.linalg.norm(offs, axis=1))
    best = np.where(inward, slope, -np.inf).max(axis=1)
    best = best[best > -np.inf]
    return float(np.min(best)) if best.size else np.nan


# ---------------------------------------------------------------------------
# two-step legs (K in {0, -1}): [stage1, bridge, stage2]

def _rho_to_v(sf, rho):
    return eta_inverse(sf, zeta_inverse(sf, rho))


def plan_stage_constants(spec: ProblemSpec):
    """Compute q = G[vbar]/xi(vbar) on the subsolution's own trace and eps = min q / 2."""
    if spec.sf.K not in (0, -1):
        raise SemanticError("the xi-based continuation runs for K in {0, -1}")
    v_sub = _rho_to_v(spec.sf, spec.subsolution_rho)
    op = DiscreteOperator(spec.grid, profile(spec.sf), rep="v", sf=spec.sf)
    q = _xi_ratio(op, v_sub)
    return {"q": q, "epsilon": 0.5 * float(q.min()), "v_sub": v_sub, "op": op}


def two_step_legs(spec: ProblemSpec):
    """(legs, start, constants) of the K in {0, -1} path from the subsolution.

    The zero-order coefficient of every leg's linearization has a fixed sign,
    so the linearization is invertible at every t and nothing along the path
    asks for small steps: each leg first tries t: 0 -> 1 whole, and halves
    from there only when that step fails.
    """
    plan = plan_stage_constants(spec)
    op, eps, v_sub = plan["op"], plan["epsilon"], plan["v_sub"]
    x_sub = v_sub[spec.grid.interior_ids]
    bridge = bridge_leg(op, spec.sf, eps, v_sub, _rho_to_v(spec.sf, spec.boundary_rho), x_sub)
    v_data, psi = bridge.boundary_at(1.0), PsiRhs(spec.psi_hat, spec.psi_reads_field)
    legs = [
        stage1_leg("stage1", op, spec.sf, plan["q"], eps, v_sub),
        bridge,
        Leg("stage2", lambda t: op, lambda t: Rhs(spec.sf, (1.0 - t) * eps, psi, t),
            lambda t: v_data, ordering_floor=x_sub),
    ]
    return [replace(leg, first_step=1.0) for leg in legs], x_sub, {"epsilon": eps}


# ---------------------------------------------------------------------------
# spherical legs (K = +1): [sphere-aux, bridge, sphere-deform, sphere-eps]

def sphere_plan(spec: ProblemSpec):
    """Derive eps, delta1, delta2, T(t) = t^m from the subsolution's margins."""
    grid = spec.grid
    u_sub = zeta_inverse(spec.sf, spec.subsolution_rho)
    t_lattice = np.linspace(0.0, 1.0, T_SAMPLES)
    psi_min, psi_max = np.inf, -np.inf
    g_vals = {}
    for t in t_lattice:
        op_t = DiscreteOperator(grid, profile_deformed(t), rep="u")
        ev_t = op_t.evaluate(u_sub)
        if ev_t is None:
            raise AdmissibilityError(f"subsolution is not admissible in the deformed metric t={t}")
        ph = spec.psi_hat(op_t.bundle(ev_t))
        psi_min = min(psi_min, float(ph.min()))
        psi_max = max(psi_max, float(ph.max()))
        g_vals[float(t)] = (ev_t.f, ph)
    g0_min = float(g_vals[0.0][0].min())
    # G0[usub] > 0 (admissible) and psi_hat > 0, so 0 < eps < min(G0[usub], psi^t/2)
    eps = 0.5 * min(g0_min, 0.5 * psi_min)
    # delta2 max(usub^2) = eps/4, below eps/2
    delta2 = eps / (4.0 * float((u_sub**2).max()))
    # delta1: largest candidate with G^t[usub] > psi^t[usub] - eps/2 at 10% margin
    for delta1 in (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125):
        if all(np.min(f_t - ph_t + 0.5 * eps) >= 0.1 * (0.5 * eps)
               for t, (f_t, ph_t) in g_vals.items() if t >= 1.0 - delta1 - 1e-12):
            break
    else:
        raise SemanticError("no delta1 candidate satisfies the near-t=1 inequality")
    # T(t) = t^m with min G0 > 2 T(1-delta1) max psi^t
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
        "T_margin": float(t_margin),
        "g0_min": g0_min,
        "psi_hat_min": psi_min,
        "psi_hat_max": psi_max,
    }


def sphere_legs(spec: ProblemSpec):
    """(legs, start, constants) of the K = +1 path.

    Euclidean auxiliary solve, metric deformation, eps removal.  The t = 0
    legs are the K = 0 stage-1 and bridge legs with eps = delta2, since
    profile_deformed(0) is the Euclidean profile and eta = exp there.  The
    deformation runs the v-operator with eta = exp over the profile of
    curvature ka = t^2.  The sphere-eps leg then runs on the K = +1 operator
    in u = e^v, on G[u] = psi_hat - (1 - t) eps: its t = 0 problem is the
    deformation's endpoint and its t = 1 problem the target equation.
    """
    grid = spec.grid
    plan = sphere_plan(spec)
    eps, delta2, m = plan["epsilon"], plan["delta2"], plan["t_exponent"]
    constants = {key: val for key, val in plan.items() if key != "u_sub"}
    u_sub = plan["u_sub"]
    v_sub = np.log(u_sub)
    u_data = zeta_inverse(spec.sf, spec.boundary_rho)
    v_data = v_sub.copy()
    v_data[grid.boundary_ids] = np.log(u_data[grid.boundary_ids])
    u_bnd = u_sub.copy()
    u_bnd[grid.boundary_ids] = u_data[grid.boundary_ids]
    x_sub = v_sub[grid.interior_ids]

    # t = 0: the K = 0 auxiliary equation G0[v] = delta2 e^{2v}
    k0 = SpaceFormParams(0)
    op0 = DiscreteOperator(grid, profile(k0), rep="v", sf=k0)
    q0 = _xi_ratio(op0, v_sub)
    psi = PsiRhs(spec.psi_hat, spec.psi_reads_field)
    op_u = DiscreteOperator(grid, profile(spec.sf), rep="u", sf=spec.sf)

    def op_t(t):
        return DiscreteOperator(grid, profile_deformed(t), rep="v", sf=k0)

    def rhs_t(t):
        T = t**m
        return Rhs(k0, (1.0 - T) * delta2, psi, T, -eps)

    legs = [
        stage1_leg("sphere-aux", op0, k0, q0, delta2, v_sub),
        bridge_leg(op0, k0, delta2, v_sub, v_data, x_sub),
        Leg("sphere-deform", op_t, rhs_t, lambda t: v_data, ordering_floor=x_sub),
        Leg("sphere-eps", lambda t: op_u,
            lambda t: Rhs(spec.sf, 0.0, psi, 1.0, -(1.0 - t) * eps),
            lambda t: u_bnd),
    ]
    return legs, x_sub, constants


# ---------------------------------------------------------------------------
# the driver

def solve_problem(spec: ProblemSpec, cfg: HomotopyConfig | None = None):
    """(field, SolveReport) when every leg converges, else (None, SolveReport).

    Gates the subsolution, walks the legs of the space form's builder in
    one run_legs call, and finalizes the report against the target equation.
    """
    cfg = cfg or HomotopyConfig()
    sub = verify_subsolution(spec)
    report = SolveReport(ADMISSIBILITY_LOSS, messages=list(sub["reasons"]),
                         diagnostics={"subsolution": sub})
    if not sub["ok"]:
        return None, report
    build = sphere_legs if spec.sf.K == 1 else two_step_legs
    legs, start, report.constants = build(spec)
    field, report.status, _ = run_legs(spec.grid, legs, start, cfg, report.stages)
    if report.status != CONVERGED:
        return None, report
    _finalize_report(spec, field, report)
    return field, report
