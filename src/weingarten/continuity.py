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

On a problem that can be built at other spacings (ProblemSpec.coarser, set
for cap domains) the path runs on the coarsest grid of a ladder that halves
h down from the requested spacing while the coarser grid keeps
LADDER_MIN_INTERIOR interior unknowns (nested iteration, Hackbusch 1985).
Each finer grid prolongs the field below it and takes one Newton solve of
the target equation, whose iteration count does not grow with the grid from
such a start (Allgower, Boehmer, Potra & Rheinboldt 1986); a level whose
solve fails runs the path instead.  A caller holding the field of the
level below (a refinement study) passes it as solve_problem's coarse, and
the path does not run again.  The floor restates 19 lattice nodes across in
2-D (see LADDER_MIN_INTERIOR); in 3-D it lets h = 0.07 halve to 0.14.
A prolonged start lies in Newton's quadratic basin, so its first full step
typically cuts the residual 100-fold or more; newton_core then keeps that
step's LU factor for chord steps, and a refine level factors its fine
Jacobian once or twice instead of at every iteration.

scipy.sparse.linalg is imported inside _lu_solve, not here: it is most of
the package's import time, and the subsolution gate and the stored-field
routes never factor a matrix.
"""

import json
from dataclasses import dataclass, field as dc_field, fields, replace
from functools import cached_property

import numpy as np

from . import grids, linearize
from .errors import AdmissibilityError, AssemblyError, SemanticError
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
from .symeig import eigvals_descending, mm, positive_definite
from .symfunc import f_and_F

CONVEXITY_MARGIN = 1e-10  # Hess u + u sigma - margin I must be positive definite
MIN_LAMBDA = 1e-12        # the line search gives up below this damping
ARMIJO = 1e-4             # sufficient-decrease constant of the line search
CHORD_CUT = 0.01          # a first full step cutting the residual this much keeps its factor
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
# interior unknowns of the coarsest ladder grid.  A cap's lattice depends on
# r/h alone and changes where (r/h)^2 crosses an integer; over every such 2-D
# lattice, those 19 nodes across hold 189-241 interior nodes and those 17
# across 149-185, so in 2-D this floor keeps exactly the lattices at least 19
# across (21 with the cap's rim)
LADDER_MIN_INTERIOR = 189
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
    """Newton's stopping rule, the only [solver] keys; every continuation constant is derived.

    A newton_tol that is not finite and > 0, or a max_newton below 1, is a
    SemanticError: the [solver] keys and the command-line overrides (applied
    with dataclasses.replace) all pass through here.
    """

    newton_tol: float = 1e-10
    max_newton: int = 30

    def __post_init__(self):
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise SemanticError(f"newton_tol must be finite and > 0, got {self.newton_tol!r}")
        if self.max_newton < 1:
            raise SemanticError(f"max_newton must be >= 1, got {self.max_newton!r}")


@dataclass
class ProblemSpec:
    """One Dirichlet problem for sigma_n(kappa) = psi: space form, domain, data.

    psi_sigma maps a variable bundle (dict of per-node arrays) to the
    prescribed sigma_n value; boundary_rho and subsolution_rho are full node
    arrays of radial distances (boundary slots of boundary_rho are the
    Dirichlet data; the subsolution keeps its own trace).  psi_reads_field is
    False when psi reads the chart coordinates y_i only, so that its
    derivatives in the field vanish.  psi is the one PsiRhs of the problem, through
    which every evaluation of psi on its grid goes.  coarser, when set, builds the same
    problem at another spacing h (coarser(h) is a ProblemSpec), from which
    solve_problem's grid ladder takes its coarser levels, each with at least
    LADDER_MIN_INTERIOR interior unknowns; it alone decides whether a
    problem ladders, in any dimension.  problems.build_problem sets
    it for cap domains.  A spec without it (mask domains, a subsolution read
    from a grid file, specs built by hand) is solved on its own grid alone.
    """

    sf: SpaceFormParams
    grid: grids.Grid
    psi_sigma: object
    boundary_rho: np.ndarray
    subsolution_rho: np.ndarray
    psi_reads_field: bool = True
    coarser: object = None

    @cached_property
    def psi(self):
        # not from a bound method of the spec: a spec <-> PsiRhs cycle leaves
        # every ladder level's spec and grid to the cyclic garbage collector
        return PsiRhs(self.psi_sigma, self.psi_reads_field, self.grid.dim)


@dataclass
class NewtonResult:
    """A Converged result carries the evaluation of x.

    Failed results carry none.  The step record reads it, and the
    continuation engine keeps that of its last accepted point: euler_tangent
    takes J and R at that point from it, the next Newton call on the same
    operator starts from it, and the final report reads the last one.
    factors counts the Jacobians the call factored, which chord steps make
    fewer than its iterations.
    """

    status: str
    x: np.ndarray
    iterations: int
    residual: float
    history: list
    ev: "OperatorEval | None" = None
    factors: int = 0


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
    # rho, kappa and the sigma-level residual of the returned field at the
    # interior nodes, from Newton's evaluation: what solution.csv writes
    per_node: dict | None = dc_field(default=None, repr=False, compare=False)

    def to_json(self):
        """All fields but per_node in declaration order, the key order of report.json."""
        return json.dumps(to_plain({f.name: getattr(self, f.name) for f in fields(self)
                                    if f.name != "per_node"}), indent=1)


# ---------------------------------------------------------------------------
# discrete operator over a grid

@dataclass
class OperatorEval:
    op: "DiscreteOperator"  # the operator that made it
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
    lc: linearize.LinearizedCoefficients | None = None  # blocks a step record kept

    @cached_property
    def conv_min_eig(self):
        """Least eigenvalue of Hess u + u sigma per node, for reports only."""
        conv = self.r_u + self.u[:, None, None] * np.eye(self.r_u.shape[-1])
        return eigvals_descending(conv)[:, -1]


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
        _, B = grids.chart_quantities(self.grid)
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
            op=self, full=full, val=val, p_coord=p_coord, u=u, p_u=p_u, r_u=r_u,
            state=state, f=f, F=F, p_v_frame=p_v, r_v_frame=r_v,
        )

    def blocks(self, ev) -> linearize.LinearizedCoefficients:
        """Linearization blocks at ev, an evaluation by this operator: those
        kept in ev.lc, else built.  The step record of an accepted point keeps
        them, so euler_tangent and a Newton call that starts there read the
        record's; a trial iterate's blocks are dropped with its Jacobian."""
        if ev.lc is not None:
            return ev.lc
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
        """The variables of psi(X, nu) from first-order data (psi and its FD):
        y_i, the graph's u and rho, and its outer unit normal nu_rad, nu_tan_i."""
        grid = self.grid
        _, B = grids.chart_quantities(grid)
        val = ev.val + dval
        p_coord = ev.p_coord if dp is None else ev.p_coord + dp
        u, p_u = val, np.einsum("nij,nj->ni", B, p_coord)
        if self.rep == "v":
            u, p_u = eta(self.sf, val), eta_prime(self.sf, val)[:, None] * p_u
        amb = self.ambient
        phi = amb.phi_u(u)
        w = np.sqrt(phi**2 + (phi**2) ** 2 * np.einsum("ni,ni->n", p_u, p_u))
        out = {"u": u, "rho": amb.rho_u(u), "nu_rad": phi / w}
        y = grid.interior_coords()
        for i in range(grid.dim):
            out[f"y{i+1}"] = y[:, i]
            out[f"nu_tan{i+1}"] = phi * p_u[:, i] / w
        return out


def bundle_variables(n):
    """(chart, field): the variables of DiscreteOperator.bundle at dimension n,
    which psi may read: the chart coordinates y_i, and the graph's position
    and unit normal, psi(X, nu)."""
    chart = {f"y{i+1}" for i in range(n)}
    field = {"u", "rho", "nu_rad"} | {f"nu_tan{i+1}" for i in range(n)}
    return chart, field


# ---------------------------------------------------------------------------
# right-hand sides

class PsiRhs:
    """rhs = psi_hat(bundle) = psi_sigma(bundle)^(1/n); derivatives by scale-aware
    central differences.

    d_val differences psi in the unknown (two evaluations of psi), d_p in
    each component of its coordinate gradient (two each).  A psi that reads
    no field variable (reads_field False) depends only on the grid's chart
    coordinates: evaluate computes it once and returns that array
    (read-only) from then on, and d_val and d_p return exactly 0 without
    evaluating psi.  ProblemSpec.psi is a problem's one PsiRhs.
    """

    def __init__(self, psi_sigma, reads_field, n):
        self.psi_sigma = psi_sigma
        self.reads_field = reads_field
        self.n = n
        self._fixed = None

    def psi_hat(self, bundle):
        """f-level right-hand side psi^(1/n); must be positive."""
        vals = np.asarray(self.psi_sigma(bundle), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise SemanticError("psi must be positive and finite on the domain")
        return vals ** (1.0 / self.n)

    def evaluate(self, op, ev):
        if self.reads_field:
            return self.psi_hat(op.bundle(ev))
        if self._fixed is None:
            self._fixed = self.psi_hat(op.bundle(ev))
            self._fixed.setflags(write=False)
        return self._fixed

    def d_val(self, op, ev):
        if not self.reads_field:
            return np.zeros(ev.val.shape[0])
        s = PSI_FD_STEP * np.maximum(1.0, np.abs(ev.val))
        return (self.psi_hat(op.bundle(ev, dval=s)) - self.psi_hat(op.bundle(ev, dval=-s))) / (
            2.0 * s
        )

    def d_p(self, op, ev):
        n = op.grid.dim
        d_p = np.zeros((ev.val.shape[0], n))
        if not self.reads_field:
            return d_p
        for i in range(n):
            dp = np.zeros_like(ev.p_coord)
            sp = PSI_FD_STEP * np.maximum(1.0, np.abs(ev.p_coord[:, i]))
            dp[:, i] = sp
            d_p[:, i] = (
                self.psi_hat(op.bundle(ev, dp=dp)) - self.psi_hat(op.bundle(ev, dp=-dp))
            ) / (2.0 * sp)
        return d_p


class Rhs:
    """rhs = a xi(v) + b (psi_hat + c), the right-hand side of every leg.

    a may vary by node; b and c are numbers, and psi is a PsiRhs.  The xi
    term is skipped when it is 0, so a leg whose space form has no xi
    (K = +1) takes a = 0, and psi is not evaluated when b = 0.

    evaluate gives the values at the interior nodes, all that a line-search
    trial reads.  derivatives gives (d_val, d_p), the derivatives in the
    unknown and in its coordinate gradient, shaped (N,) and (N, n), which
    only the Jacobian of an accepted iterate reads; its step record reads
    d_val alone, which differences psi in the unknown only.
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

    def d_val(self, op, ev):
        d_val = np.zeros(ev.val.shape[0])
        if self.xi_term:
            d_val = self.a * xi_prime(self.sf, ev.val)
        if self.b:
            d_val = d_val + self.b * self.psi.d_val(op, ev)
        return d_val

    def derivatives(self, op, ev):
        d_p = np.zeros((ev.val.shape[0], op.grid.dim))
        if self.b:
            d_p = self.b * self.psi.d_p(op, ev)
        return self.d_val(op, ev), d_p


# ---------------------------------------------------------------------------
# Newton iteration

def newton_core(op: DiscreteOperator, rhs, x0, boundary_full, cfg: HomotopyConfig,
                start=None) -> NewtonResult:
    """Damped Newton with admissibility-preserving line search.

    boundary_full is a full-node array whose boundary slots supply the
    Dirichlet data; interior slots are overwritten by the unknowns.  start,
    an earlier Newton evaluation or None, is taken as the evaluation of the
    start point when op made it at that very point (same full array), so
    that a step of a leg whose operator and data stay fixed does not
    evaluate the point the last step accepted again.

    Converged means the residual reached cfg.newton_tol, or that it is
    already at its rounding floor (see rounding_floor) and the full step,
    admissible, cannot lower it.  A call whose accepted residuals fell by
    less than 1 - STAGNATION_FACTOR over STAGNATION_WINDOW iterations stops
    as Stagnation, so that the engine halves the step instead of spending
    max_newton iterations on a flat residual.  A line search that finds no
    acceptable damping reports AdmissibilityLoss when one of its trials was
    inadmissible (as is a start at iteration 0), else LineSearchFailure.

    When the first iteration's full step cuts the sup residual by CHORD_CUT
    or more, its LU factor is kept, and each later iteration first tries the
    chord step -J0^{-1} R from it (Kelley 1995, sec. 5.4), which must be
    admissible and pass the Armijo test at lambda = 1.  The factor is dropped
    for good when a chord step fails, or when it cuts the residual by less
    than CHORD_CUT (its step is still taken); the iteration then goes on as a
    Newton iteration with a fresh Jacobian.
    """
    grid = op.grid

    def compose(x):
        full = boundary_full.copy()
        full[grid.interior_ids] = x
        return full

    x = np.asarray(x0, dtype=float).copy()
    ev = start
    if ev is None or ev.op is not op or not np.array_equal(ev.full, compose(x)):
        ev = op.evaluate(compose(x))
    if ev is None:
        return NewtonResult(ADMISSIBILITY_LOSS, x, 0, np.inf, [])
    b = rhs.evaluate(op, ev)
    R = ev.f - b
    rn = float(np.max(np.abs(R)))
    history = [rn]
    factors = 0
    chord = None    # the first iteration's LU factor, while chord steps keep it

    def result(status, iterations, ev=None):
        return NewtonResult(status, x, iterations, rn, history, ev, factors)

    def trial(x_t):
        """(x_t, its evaluation, rhs, residual, sup residual), or None when inadmissible."""
        ev_t = op.evaluate(compose(x_t))
        if ev_t is None:
            return None
        b_t = rhs.evaluate(op, ev_t)
        R_t = ev_t.f - b_t
        return x_t, ev_t, b_t, R_t, float(np.max(np.abs(R_t)))

    def sufficient(step, lam):
        return step[-1] <= max(cfg.newton_tol, (1.0 - ARMIJO * lam) * rn)

    for it in range(1, cfg.max_newton + 1):
        if rn <= cfg.newton_tol:
            return result(CONVERGED, it - 1, ev)
        step = None
        if chord is not None:
            # a non-finite solve makes the trial inadmissible (evaluate refuses it)
            step = trial(x + chord.solve(-R))
            if step is None or not sufficient(step, 1.0):
                step = chord = None
        if step is None:
            J = _jacobian(op, ev, rhs)
            solved = _lu_solve(J, -R)
            if solved is None:
                return result(SOLVER_BREAKDOWN, it)
            factors += 1
            delta, chord = solved
            del solved
            if it > 1:
                chord = None    # only the first factor can be kept; hold no other
            lam = 1.0
            inadmissible = False
            while lam >= MIN_LAMBDA:
                step = trial(x + lam * delta)
                if step is None:
                    inadmissible = True
                elif sufficient(step, lam):
                    break
                elif lam == 1.0 and rn <= rounding_floor(J, x, b):
                    return result(CONVERGED, it - 1, ev)
                step = chord = None
                lam *= 0.5
            if step is None:
                return result(ADMISSIBILITY_LOSS if inadmissible else LINE_SEARCH_FAILURE, it)
        if step[-1] > CHORD_CUT * rn:
            chord = None
        x, ev, b, R, rn = step
        history.append(rn)
        if (rn > cfg.newton_tol and len(history) > STAGNATION_WINDOW
                and rn > STAGNATION_FACTOR * history[-1 - STAGNATION_WINDOW]):
            return result(STAGNATION, it)
    if rn <= cfg.newton_tol:
        return result(CONVERGED, cfg.max_newton, ev)
    return result(MAX_ITERATIONS, cfg.max_newton)


def rounding_floor(J, x, b):
    """eps_mach (|J| |x| + |b|) in the sup norm: the residual R = f - b, of
    Jacobian J at the unknowns x, cannot be resolved below this level
    (Kelley 1995, ch. 5)."""
    J_norm = float(abs(J).sum(axis=1).max())
    return np.finfo(float).eps * (J_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b))))


def _lu_solve(J, b):
    """(x, factor): J x = b solved by sparse LU, with the factor that solved it;
    None when no finite solution can be had.

    The FAST_LU factor comes first.  Without pivoting it can meet a zero
    pivot or return a non-finite solve; then SuperLU's default options
    (COLAMD, partial pivoting) get one more try.
    """
    import scipy.sparse.linalg as spla

    for options in (FAST_LU, {}):
        try:
            factor = spla.splu(J, **options)
            x = factor.solve(b)
        except RuntimeError:
            continue
        if np.all(np.isfinite(x)):
            return x, factor
    return None


def _jacobian(op: DiscreteOperator, ev: OperatorEval, rhs):
    """Sparse Jacobian of R = f - rhs over the interior unknowns."""
    A2, b1, c = linearize.to_coordinate(op.blocks(ev), op.grid)
    d_val, d_p = rhs.derivatives(op, ev)
    return linearize.assemble_jacobian(op.grid, A2, b1 - d_p, c - d_val)


def newton_solve(spec: ProblemSpec, rhs, initial: GraphField, cfg: HomotopyConfig):
    """Single Newton solve of f(kappa) = rhs in the initial field's representation.

    The initial field's boundary slots are the Dirichlet data; cfg gives the
    tolerance and the iteration cap.
    """
    rep = initial.representation
    if rep == "rho":
        raise SemanticError("newton_solve operates on u- or v-representation fields")
    op = DiscreteOperator(spec.grid, profile(spec.sf), rep=rep, sf=spec.sf)
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
        sigma_inv_b = grids.boundary_sigma_inv(grid)
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

    def refuse(worst, reason):
        report.update(ok=False, worst_node=worst)
        report["reasons"].append(reason)

    if ev is None:
        refuse(None, "subsolution leaves the variable range of this space form")
        return report
    conv = ev.conv_min_eig
    report["convexity_margin"] = float(conv.min())
    if conv.min() <= 0.0:
        worst = _lowest_node_at_min(grid, conv)
        refuse(worst, f"subsolution not strictly locally convex: min eigenvalue {conv.min():.3e} "
                      f"at node {worst}")
        return report
    f_sub = f_and_F(ev.state.a)[0]
    target = spec.psi.evaluate(op, ev)
    gap = f_sub - target
    report["inequality_margin"] = float(gap.min())
    if gap.min() < -1e-9 * max(1.0, float(np.max(np.abs(target)))):
        worst = _lowest_node_at_min(grid, gap)
        refuse(worst, f"sigma_n(kappa[subsolution]) < psi: f-level gap {gap.min():.3e} "
                      f"at node {worst}")
    # boundary match at the staircase nodes, in the u variable
    u_data = zeta_inverse(spec.sf, spec.boundary_rho)
    diff = ev.full[grid.boundary_ids] - u_data[grid.boundary_ids]
    scale = max(1.0, float(np.max(np.abs(u_data[grid.boundary_ids]))))
    tol = BOUNDARY_MATCH_FACTOR * grid.h * scale
    report["boundary_mismatch"] = float(np.max(np.abs(diff))) if diff.size else 0.0
    report["boundary_tolerance"] = tol
    if diff.size and np.max(np.abs(diff)) > tol:
        worst = int(grid.boundary_ids[int(np.argmax(np.abs(diff)))])
        refuse(worst, f"subsolution trace differs from boundary data by "
                      f"{np.max(np.abs(diff)):.3e} (tolerance {tol:.3e}) at node {worst}")
    if diff.size and np.max(diff) > 1e-9 * scale + 1e-12:
        worst = int(grid.boundary_ids[int(np.argmax(diff))])
        refuse(worst, f"subsolution exceeds the boundary data by {np.max(diff):.3e} at node "
                      f"{worst}; the ordering argument needs subsolution <= data")
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


def euler_tangent(leg: Leg, t, op, rhs, ev):
    """Path tangent dx/dt = -J(x, t)^{-1} dR/dt at an accepted point x of the leg.

    op, rhs and ev are the t problem's operator, right-hand side and Newton's
    evaluation of x, from which J and R = f - rhs at t come.  dR/dt is one
    difference of R in t of size TANGENT_FD_STEP, with the operator,
    right-hand side and boundary data all taken at t + step: the one
    evaluation of this call.  It is a forward difference unless that would
    leave [0, 1], which the deformed metric refuses.  The LU factor lives
    only inside this call.  Returns None when no tangent can be had: an
    inadmissible evaluation at t + step, or no finite solve from either
    factor of _lu_solve.
    """
    step = TANGENT_FD_STEP if t + TANGENT_FD_STEP <= 1.0 else -TANGENT_FD_STEP
    op_s, rhs_s = leg.op_at(t + step), leg.rhs_at(t + step)
    interior = op.grid.interior_ids
    full = leg.boundary_at(t + step).copy()
    full[interior] = ev.full[interior]
    ev_s = op_s.evaluate(full)
    if ev_s is None:
        return None
    dR_dt = ((ev_s.f - rhs_s.evaluate(op_s, ev_s)) - (ev.f - rhs.evaluate(op, ev))) / step
    solved = _lu_solve(_jacobian(op, ev, rhs), -dR_dt)
    return None if solved is None else solved[0]


def _continue_in_t(leg: Leg, x0, cfg, records, start):
    """March the leg's t: 0 -> 1 with adaptive steps and warm starts.

    Returns (x, status, ev), ev the Newton evaluation of the last accepted
    point (None when the leg accepted none), and appends one record per
    accepted step.  start is newton_core's for the t = 0 solve from x0: the
    previous leg's last evaluation.  Each warm start passes the evaluation
    of the point it starts from.  A warm start that is itself inadmissible
    (typically moved boundary data breaking convexity at the ring nodes) is
    replaced by the Euler predictor x + (t_try - t) dx/dt; the tangent is
    computed once per accepted point, from the Newton evaluation kept with
    it, and reused across dt halvings.  The first step is leg.first_step.  A
    failed step t -> t_try is retried at half its length, t_try - t, which
    is less than dt when t + dt was clipped to 1.
    """
    t = 0.0
    op, rhs = leg.op_at(0.0), leg.rhs_at(0.0)
    res = newton_core(op, rhs, x0, leg.boundary_at(0.0), cfg, start)
    if res.status != CONVERGED:
        return x0, res.status, None
    x, accepted = res.x, (op, rhs, res.ev)
    _record_step(records, leg.label, 0.0, res, rhs, leg.ordering_floor)
    dt = leg.first_step
    tangent, tangent_tried = None, False
    while t < 1.0 - 1e-14:
        t_try = min(1.0, t + dt)
        op = leg.op_at(t_try)
        rhs = leg.rhs_at(t_try)
        res = newton_core(op, rhs, x, leg.boundary_at(t_try), cfg, accepted[2])
        if res.status == ADMISSIBILITY_LOSS and res.iterations == 0:
            if not tangent_tried:
                tangent_tried = True
                tangent = euler_tangent(leg, t, *accepted)
            if tangent is not None:
                res = newton_core(op, rhs, x + (t_try - t) * tangent, leg.boundary_at(t_try),
                                  cfg, None)
        if res.status == CONVERGED:
            t, x, accepted = t_try, res.x, (op, rhs, res.ev)
            tangent, tangent_tried = None, False
            _record_step(records, leg.label, t, res, rhs, leg.ordering_floor)
            dt = min(DT_GROWTH * dt, 0.5)
            continue
        dt = 0.5 * (t_try - t)
        if dt < DT_MIN:
            return x, res.status, accepted[2]
    return x, CONVERGED, accepted[2]


def run_legs(grid, legs, start, cfg, records=None):
    """Walk the legs in order from start, each warm-started from the previous endpoint.

    A u-representation leg after a v-representation leg starts from
    u = eta(v) in the space form of the previous operator.  Stops at the
    first leg that does not converge.  Returns (field, status, records, ev):
    the field is the last leg's boundary data at t = 1 around its interior
    unknowns, in the representation of that leg's operator, records holds
    every accepted step, and ev, when status is Converged, is the Newton
    evaluation of the field.  Each leg starts from the evaluation its
    predecessor ended on, the first from start (the plan's evaluation of
    the subsolution), which its t = 0 Newton solve reads when made by the
    same operator on the same data (start, then stage1 -> bridge -> stage2).
    """
    records = records if records is not None else []
    x, status, op, ev = start.full[grid.interior_ids], CONVERGED, None, start
    for leg in legs:
        prev, op = op, leg.op_at(1.0)
        if prev is not None and prev.rep == "v" and op.rep == "u":
            x = eta(prev.sf, x)
        x, status, ev = _continue_in_t(leg, x, cfg, records, ev)
        if status != CONVERGED:
            break
    full = leg.boundary_at(1.0).copy()
    full[grid.interior_ids] = x
    return GraphField(grid, full, op.rep), status, records, ev


def _record_step(records, label, t, res: NewtonResult, rhs, ordering_floor):
    """Appends the record of a Converged result from its own evaluation."""
    ev = res.ev
    op = ev.op
    rec = {
        "stage": label,
        "t": float(t),
        "newton_iterations": int(res.iterations),
        "lu_factors": int(res.factors),
        "residual": float(res.residual),
        "diagnostics": diagnostics_from_eval(op, ev),
    }
    # zero-order coefficient of the linearization at the accepted solution:
    # negative along the auxiliary stages by the maximum-principle sign
    ev.lc = op.blocks(ev)
    zero_order = ev.lc.Gu - rhs.d_val(op, ev)
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
    """(q, ev): q = G[v]/xi(v) at the interior nodes, in the operator's space
    form, and ev the evaluation of v, the start the leg builders return."""
    ev = op.evaluate(v_full)
    if ev is None:
        raise AdmissibilityError("subsolution is not admissible")
    return ev.f / xi(op.sf, ev.val), ev


def _finalize_report(spec, ev, report):
    """Residuals against the target equation, final diagnostics, ordering gaps.

    ev is the final Newton evaluation, of the returned field on spec's
    grid, whose equation at t = 1 is the target equation, so its f is
    read, not computed again.  The report keeps from it the per-node
    columns of solution.csv, not the whole evaluation with its geometry and
    blocks.  The final diagnostics are the last step
    record's.  A v field also gets the Hopf check against the subsolution.
    """
    f, target = ev.f, spec.psi.evaluate(ev.op, ev)
    report.final_residual = float(np.max(np.abs(f - target)))
    n = spec.grid.dim
    residual = f**n - target**n
    report.sigma_residual = float(np.max(np.abs(residual)))
    report.per_node = {"rho": ev.op.ambient.rho_u(ev.u), "kappa": ev.state.kappa,
                       "residual": residual}
    report.diagnostics["final"] = dict(report.stages[-1]["diagnostics"])
    report.ordering_violations = [
        r["ordering_min_gap"] for r in report.stages if not r.get("ordering_ok", True)
    ]
    if ev.op.rep == "v":
        report.diagnostics["hopf_min_inward_slope"] = hopf_boundary_check(
            spec.grid, ev.full, _rho_to_v(spec.sf, spec.subsolution_rho)
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
    """Compute q = G[vbar]/xi(vbar) on the subsolution's own trace and eps = min q / 2;
    start is the evaluation of vbar that gives q."""
    if spec.sf.K not in (0, -1):
        raise SemanticError("the xi-based continuation runs for K in {0, -1}")
    v_sub = _rho_to_v(spec.sf, spec.subsolution_rho)
    op = DiscreteOperator(spec.grid, profile(spec.sf), rep="v", sf=spec.sf)
    q, start = _xi_ratio(op, v_sub)
    return {"q": q, "epsilon": 0.5 * float(q.min()), "v_sub": v_sub, "op": op, "start": start}


def two_step_legs(spec: ProblemSpec):
    """(legs, start, constants) of the K in {0, -1} path from the subsolution,
    start the subsolution's evaluation by the stage-1 operator.

    The zero-order coefficient of every leg's linearization has a fixed sign,
    so the linearization is invertible at every t and nothing along the path
    asks for small steps: each leg first tries t: 0 -> 1 whole, and halves
    from there only when that step fails.
    """
    plan = plan_stage_constants(spec)
    op, eps, v_sub = plan["op"], plan["epsilon"], plan["v_sub"]
    x_sub = v_sub[spec.grid.interior_ids]
    bridge = bridge_leg(op, spec.sf, eps, v_sub, _rho_to_v(spec.sf, spec.boundary_rho), x_sub)
    v_data, psi = bridge.boundary_at(1.0), spec.psi
    legs = [
        stage1_leg("stage1", op, spec.sf, plan["q"], eps, v_sub),
        bridge,
        Leg("stage2", lambda t: op, lambda t: Rhs(spec.sf, (1.0 - t) * eps, psi, t),
            lambda t: v_data, ordering_floor=x_sub),
    ]
    return [replace(leg, first_step=1.0) for leg in legs], plan["start"], {"epsilon": eps}


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
        op_t = DiscreteOperator(grid, profile_deformed(t), rep="u", sf=spec.sf)
        ev_t = op_t.evaluate(u_sub)
        if ev_t is None:
            raise AdmissibilityError(f"subsolution is not admissible in the deformed metric t={t}")
        ph = spec.psi.evaluate(op_t, ev_t)
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
    """(legs, start, constants) of the K = +1 path, start the subsolution's
    evaluation by the sphere-aux operator.

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
    q0, start = _xi_ratio(op0, v_sub)
    psi = spec.psi
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
    return legs, start, constants


# ---------------------------------------------------------------------------
# the driver

def _ladder(spec: ProblemSpec):
    """The specs of the grid ladder, coarsest first and spec itself last.

    The spacing doubles while the coarser level holds LADDER_MIN_INTERIOR
    interior unknowns, counted on the level as built.  A lattice of twice
    the spacing nests in the finer one and has no more interior nodes, so a
    level below the floor builds no coarser candidate, and a candidate with
    none (grids raises AssemblyError; n = 5 caps with 221 interior nodes
    halve to that) is below the floor.  A spec without coarser is its own
    ladder.
    """
    levels = [spec]
    while spec.coarser is not None and len(levels[0].grid.interior_ids) >= LADDER_MIN_INTERIOR:
        try:
            level = spec.coarser(2.0 * levels[0].grid.h)
        except AssemblyError:
            break
        if len(level.grid.interior_ids) < LADDER_MIN_INTERIOR:
            break
        levels.insert(0, level)
    return levels


def _refine(spec: ProblemSpec, coarse: GraphField, cfg, report):
    """Newton on the target equation from the prolonged coarse field.

    The prolonged field (grids.prolong, which gives every interior node a
    value) keeps the coarse field's representation, that of the path's last
    leg, and takes the level's own Dirichlet data.  Returns the level's field
    and its Newton evaluation after appending its refine record, whose
    ordering gap is against the level's subsolution, or None after appending
    the message that names the Newton status on which the level runs the
    path instead.
    """
    grid, rep = spec.grid, coarse.representation
    to_rep = _rho_to_v if rep == "v" else zeta_inverse
    start = grids.prolong(coarse.grid, coarse.values, grid)
    start[grid.boundary_ids] = to_rep(spec.sf, spec.boundary_rho)[grid.boundary_ids]
    floor = to_rep(spec.sf, spec.subsolution_rho)[grid.interior_ids]
    rhs = Rhs(spec.sf, 0.0, spec.psi, 1.0)
    field, res = newton_solve(spec, rhs, GraphField(grid, start, rep), cfg)
    if res.status != CONVERGED:
        report.messages.append(
            f"level h={grid.h:.6g}: Newton ended {res.status}; this level runs the path")
        return None
    _record_step(report.stages, "refine", 1.0, res, rhs, floor)
    report.stages[-1]["h"] = grid.h
    return field, res.ev


def solve_problem(spec: ProblemSpec, cfg: HomotopyConfig | None = None, coarse=None):
    """(field, SolveReport) when the solve converges, else (None, SolveReport).

    Gates the subsolution, then walks the grid ladder of _ladder, coarsest
    first.  A level with no field from the level below (the coarsest one, or
    one above a level that failed) runs the path: its subsolution gate, then
    the legs of the space form's builder in one run_legs call.  Every other
    level refines the field below it by one Newton solve (_refine) and runs
    the path only when that solve fails.  A level below spec's whose gate, leg
    builder or path fails leaves the path to the next level.  A returned field
    has status Converged, and the report is finalized once, against the
    target equation on spec's grid.

    coarse, when given, is a converged GraphField on the nested grid of twice
    spec's spacing (a refinement study holds the level below): spec alone is
    then the ladder, refined from coarse, and runs the path if that fails.
    """
    cfg = cfg or HomotopyConfig()
    sub = verify_subsolution(spec)
    report = SolveReport(ADMISSIBILITY_LOSS, messages=list(sub["reasons"]),
                         diagnostics={"subsolution": sub})
    if not sub["ok"]:
        return None, report
    field, ev = coarse, None
    for level in _ladder(spec) if coarse is None else [spec]:
        if field is not None:
            ev = None       # not kept while this level solves: it would raise the peak memory
            field, ev = _refine(level, field, cfg, report) or (None, None)
            if field is not None:
                continue
        where = f"level h={level.grid.h:.6g}"
        build = sphere_legs if level.sf.K == 1 else two_step_legs
        if level is spec:
            legs, start, report.constants = build(level)
        else:
            gate = verify_subsolution(level)
            try:
                if not gate["ok"]:
                    raise AdmissibilityError(f"subsolution gate failed ({'; '.join(gate['reasons'])})")
                legs, start, report.constants = build(level)
            except (AdmissibilityError, SemanticError) as exc:
                report.messages.append(f"{where}: {exc}; the next level runs the path")
                continue
        field, report.status, _, ev = run_legs(level.grid, legs, start, cfg, report.stages)
        if report.status != CONVERGED:
            field = None
            if level is not spec:
                report.messages.append(f"{where}: the path ended {report.status}; "
                                       "the next level runs the path")
    if field is None:
        return None, report
    report.status = CONVERGED
    _finalize_report(spec, ev, report)
    return field, report
