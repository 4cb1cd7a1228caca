"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the public functions of each solver module with
timing wrappers at every place they are bound: the defining module, every
weingarten module that imported the name, and the class for methods.  It must
run before `problems.build_problem`, which binds `Expression.evaluate` into
the problem spec.  `Tracer.restore()` puts every original back.

For each span the tracer accumulates busy time (wall time inside the call),
self time (busy time minus the time of spans it called) and the call count.
A span that re-enters itself is counted once, at the outermost call.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from weingarten.continuity import CONVERGED

# (module, attribute, span).  Several attributes may share one span.
SPANS = (
    ("weingarten.problems", "load_problem", "problems.load"),
    ("weingarten.problems", "build_problem", "problems.build"),
    ("weingarten.continuity", "solve_problem", "continuity.solve"),
    ("weingarten.continuity", "verify_subsolution", "continuity.verify"),
    ("weingarten.continuity", "plan_stage_constants", "continuity.plan"),
    ("weingarten.continuity", "sphere_plan", "continuity.plan"),
    ("weingarten.continuity", "newton_core", "continuity.newton"),
    ("weingarten.continuity", "DiscreteOperator.evaluate", "continuity.evaluate"),
    ("weingarten.continuity", "PsiRhs.evaluate", "continuity.psi_rhs"),
    ("weingarten.continuity", "diagnostics_from_eval", "continuity.diagnostics"),
    ("weingarten.continuity", "hopf_boundary_check", "continuity.hopf"),
    ("weingarten.grids", "covariant_jets", "grids.jets"),
    ("weingarten.grids", "boundary_gradient_estimate", "grids.boundary_gradient"),
    ("weingarten.geometry", "state_from_u_slots", "geometry.state"),
    ("weingarten.symeig", "eigh_descending", "symeig.eigh"),
    ("weingarten.symfunc", "f_and_derivatives", "symfunc.f"),
    ("weingarten.linearize", "coefficients_u", "linearize.blocks"),
    ("weingarten.linearize", "coefficients_v", "linearize.blocks"),
    ("weingarten.linearize", "exp_chain_blocks", "linearize.blocks"),
    ("weingarten.linearize", "to_coordinate", "linearize.to_coordinate"),
    ("weingarten.linearize", "assemble_jacobian", "linearize.assemble"),
    ("weingarten.expressions", "Expression.evaluate", "expressions.eval"),
    ("scipy.sparse.linalg", "splu", "lu.factor"),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in SPANS)) + ("lu.solve",)

# counters beyond the per-span calls, with their units
COUNTERS = (
    ("lu.fill_nnz", "count"),           # largest nnz(L) + nnz(U) of one factor
    ("lu.breakdowns", "count"),         # splu errors and non-finite solves
    ("linearize.jacobian_nnz", "count"),  # largest assembled Jacobian
    ("continuity.newton_failed", "count"),
    ("continuity.newton_iterations", "count"),
    ("continuity.linesearch_trials", "count"),
    ("continuity.linesearch_accepted", "count"),
)


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update(COUNTERS)
    units.update({
        "continuity.linesearch_accept_ratio": "1",
        "continuity.steps_accepted": "count",
        "continuity.bridge_steps": "count",
        "accuracy.sup_error": "1",
        "tracing.overhead_s": "s",
    })
    return units


class _TracedLU:
    """SuperLU stand-in whose solve is a span of its own."""

    def __init__(self, tracer, lu):
        self._lu = lu
        self._tracer = tracer
        self.solve = tracer.wrap("lu.solve", self._solve)

    def _solve(self, rhs, *args, **kwargs):
        out = self._lu.solve(rhs, *args, **kwargs)
        if not np.all(np.isfinite(out)):
            self._tracer.counts["lu.breakdowns"] += 1
        return out

    def __getattr__(self, name):     # everything but solve goes to the real factor
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._child = []          # child time of each open span
        self._open = Counter()    # open depth per span name
        self._patched = []        # (owner, attribute, original)
        self.missing = []         # spans whose function no longer exists

    def wrap(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._open[name] += 1
            self._child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._open[name] -= 1
                child = self._child.pop()
                self.busy[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += dt

        return traced

    # -- counting wrappers -------------------------------------------------

    def _peak(self, name, value):
        self.counts[name] = max(self.counts[name], int(value))

    def _splu(self, fn):
        def splu(*args, **kwargs):
            try:
                lu = fn(*args, **kwargs)
            except RuntimeError:
                self.counts["lu.breakdowns"] += 1
                raise
            self._peak("lu.fill_nnz", lu.nnz)
            return _TracedLU(self, lu)

        return splu

    def _assemble(self, fn):
        def assemble_jacobian(*args, **kwargs):
            J = fn(*args, **kwargs)
            self._peak("linearize.jacobian_nnz", J.nnz)
            return J

        return assemble_jacobian

    def _newton(self, fn):
        def newton_core(*args, **kwargs):
            evals = self.calls["continuity.evaluate"]
            res = fn(*args, **kwargs)
            # first evaluation is the start iterate; the rest are line-search trials
            self.counts["continuity.linesearch_trials"] += max(
                self.calls["continuity.evaluate"] - evals - 1, 0)
            self.counts["continuity.linesearch_accepted"] += max(len(res.history) - 1, 0)
            self.counts["continuity.newton_iterations"] += res.iterations
            if res.status != CONVERGED:
                self.counts["continuity.newton_failed"] += 1
            return res

        return newton_core

    # -- install / restore -------------------------------------------------

    def install(self):
        """Wrap every span at every binding site; call before build_problem."""
        import weingarten  # noqa: F401  (loads the solver modules)

        counting = {
            "splu": self._splu,
            "assemble_jacobian": self._assemble,
            "newton_core": self._newton,
        }
        for module_name, attr, span in SPANS:
            owner_name, _, name = attr.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                # the library moved on; the span reads zero instead of failing the run
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span, counting[name](original) if name in counting else original)
            self._set(owner, name, wrapped)
            if owner_name:
                continue        # methods are looked up through their class
            for mod_name, mod in list(sys.modules.items()):
                in_package = mod_name == "weingarten" or mod_name.startswith("weingarten.")
                if in_package and mod is not module:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Span busy/self times and calls, plus the counters (no report fields)."""
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}_s"] = self.busy[span]
            out[f"{span}_self_s"] = self.self_time[span]
            out[f"{span}_calls"] = self.calls[span]
        for name, _ in COUNTERS:
            out[name] = self.counts[name]
        trials = self.counts["continuity.linesearch_trials"]
        out["continuity.linesearch_accept_ratio"] = (
            self.counts["continuity.linesearch_accepted"] / trials if trials else 1.0)
        return out
