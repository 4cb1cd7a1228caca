"""Every routine in the library is on a route the library itself runs.

Independent cross-check formulas live in tests/reference.py; a top-level
function or class in src/weingarten that nothing in src/weingarten refers to
is either such a formula or dead code, and this test names it.

A reference to name N defined in module M is one of
  * an import of N from M (``from .M import N``, also in ``__init__``);
  * an attribute access ``alias.N`` where alias is bound to M by an import;
  * a load of N inside M, outside N's own body, in a scope where N is not a
    local variable (``phi`` is a local in several functions and a field of
    GeometryState, so a bare count of names or attributes would miss that
    ``spaceform.phi`` has no caller).

The other tests here pin single routes (LU, Newton, the leg driver, the
v-blocks, the statuses) and keep three-operand einsum contractions out of
the package, and batched ``@`` and eigensolves out of the Newton hot path,
where the products written out (symeig.mm) and the Newton tensor
(symfunc.f_and_F) take their place.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

from weingarten import continuity as ct
from weingarten import grids, linearize
from weingarten.spaceform import SpaceFormParams, eta_inverse, profile, zeta_inverse
from conftest import refuse_eigensolves

PACKAGE = "weingarten"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _source_module(node: ast.ImportFrom):
    """Module stem an ImportFrom reads from ("weingarten" for the package), or None."""
    if node.level == 1:
        return node.module or PACKAGE
    parts = (node.module or "").split(".")
    if node.level == 0 and parts[0] == PACKAGE:
        return parts[1] if len(parts) > 1 else PACKAGE
    return None


def _local_names(fn):
    """Names bound in one function's own scope: parameters, targets, imports."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def _global_loads(tree):
    """(name, enclosing top-level definition or None) for each load of a global."""
    out = []

    def visit(node, top, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, top, local | _local_names(child))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in local:
                    out.append((child.id, top))
            else:
                visit(child, top, local)

    for stmt in tree.body:
        visit(ast.Module(body=[stmt], type_ignores=[]), getattr(stmt, "name", None), set())
    return out


def unreferenced_definitions():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    referenced = set()
    for stem, tree in modules.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _source_module(node) is not None:
                source = _source_module(node)
                referenced |= {(source, a.name) for a in node.names}
                if source == PACKAGE:
                    aliases |= {a.asname or a.name: a.name for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                referenced.add((aliases.get(node.value.id), node.attr))
        referenced |= {(stem, name) for name, top in _global_loads(tree) if name != top}
    return [
        f"{stem}.{stmt.name}"
        for stem, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (stem, stmt.name) not in referenced
    ]


def test_every_top_level_definition_is_referenced():
    missing = unreferenced_definitions()
    assert not missing, (
        "top-level definitions nothing in src/weingarten refers to "
        "(move cross-check formulas to tests/reference.py, delete the rest): "
        + ", ".join(missing)
    )


# scipy entry points that factor a sparse matrix by LU
LU_ENTRY_POINTS = ("splu", "spsolve", "factorized")


def lu_references():
    """(module, line) of every name or attribute in src/weingarten naming an LU entry point."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in LU_ENTRY_POINTS:
                out.append((path.stem, getattr(node, "lineno", None)))
    return out


def test_one_lu_factorization_route():
    # every linear solve goes through continuity._lu_solve, whose fallback
    # to pivoted LU a second call site would bypass
    refs = lu_references()
    assert len(refs) == 1 and refs[0][0] == "continuity", refs
    tree = ast.parse((SRC / "continuity.py").read_text())
    helper = next(s for s in tree.body if getattr(s, "name", None) == "_lu_solve")
    calls = [n for n in ast.walk(helper) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "splu"]
    assert [c.lineno for c in calls] == [refs[0][1]]


def referrers(name):
    """Top-level definitions in src/weingarten, other than name itself, naming it."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if getattr(stmt, "name", None) == name:
                continue
            for node in ast.walk(stmt):
                found = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    found = node.name
                if found == name:
                    out.add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    return out


def test_newton_runs_only_on_the_engine():
    # every continuation step goes through _continue_in_t, whose step control
    # and predictor a second stepping loop around newton_core would bypass;
    # newton_solve is the single solve of the library API
    assert referrers("newton_core") == {"continuity._continue_in_t", "continuity.newton_solve"}


def test_one_driver_walks_the_legs():
    # every space form's legs are walked by the one run_legs call of
    # solve_problem, so the subsolution gate and the report finalizer run once
    assert referrers("run_legs") == {"continuity.solve_problem"}


def test_one_chain_rule_builds_the_v_blocks():
    # the benchmark's span list still names exp_chain_blocks; it must stay a
    # second name of coefficients_v, not grow back into a second route
    assert linearize.exp_chain_blocks is linearize.coefficients_v


def test_fields_off_the_newton_path_read_the_solver_routes():
    # f = sigma_n^(1/n) is f_and_F's everywhere; the eigen route is left only
    # inside f_and_F (n >= 4) and as the independent FD oracle of lincheck
    assert referrers("f_and_derivatives") == {
        "symfunc.f_and_F", "cli.lincheck_report", "cli.ImportFrom"}
    # the subsolution gate, the final report and solution.csv evaluate a
    # field through evaluate_stored, not through an operator of their own
    outside = {name for name in referrers("DiscreteOperator")
               if name.startswith("cli.") or name == "continuity.verify_subsolution"}
    assert outside == set()



# where calls to the library are looked for
CALLER_DIRS = ("src", "tests", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.cache
def _tree(path):
    return ast.parse(path.read_text())


def optional_parameters():
    """(definition, callee name, parameter, positional index or None, def node) per default.

    The callee name is what a call spells: the def's own name, or its class's
    name for an __init__.  A method's positional index leaves out self.
    """
    out = []
    for path in sorted(SRC.glob("*.py")):
        for owner in ast.walk(_tree(path)):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, DEFS):
                    continue
                method = isinstance(owner, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                label = f"{path.stem}.{owner.name + '.' if method else ''}{fn.name}"
                callee = owner.name if method and fn.name == "__init__" else fn.name
                args = fn.args
                positional = args.posonlyargs + args.args
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    out.append((label, callee, positional[i].arg, i - method, fn))
                out += [(label, callee, a.arg, None, fn)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls_by_name():
    """(call, enclosing def or None) of every call in CALLER_DIRS, keyed by the called name."""
    calls = {}

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                calls.setdefault(name, []).append((child, fn))
            visit(child, child if isinstance(child, DEFS) else fn)

    for folder in CALLER_DIRS:
        for path in sorted((SRC.parents[1] / folder).rglob("*.py")):
            visit(_tree(path), None)
    return calls


def _argument(call, param, index):
    """What a call passes for the parameter, by keyword, by position or through * / **."""
    for kw in call.keywords:
        if kw.arg in (param, None):
            return kw.value
    if index is not None and (len(call.args) > index
                              or any(isinstance(a, ast.Starred) for a in call.args)):
        return call.args[min(index, len(call.args) - 1)]
    return None


def unpassed_parameters():
    """Defaulted parameters that no call sets.

    A call that only forwards an unset parameter of its own def (a wrapper
    g(x, margin=1e-12) calling f(x, margin)) sets nothing, so the search
    runs to a fixed point.
    """
    params, calls = optional_parameters(), calls_by_name()
    unset = set()
    while True:
        found = set()
        for _, callee, param, index, fn in params:
            args = [(_argument(c, param, index), encl) for c, encl in calls.get(callee, [])]
            if not any(a is not None and (encl, getattr(a, "id", None)) not in unset
                       for a, encl in args):
                found.add((fn, param))
        if found == unset:
            break
        unset = found
    return [f"{label}({param})" for label, _, param, _, fn in params if (fn, param) in unset]


def test_every_optional_parameter_is_passed():
    # a default that no caller sets is a constant: name it as one in the
    # module instead of offering a setting nothing sets
    missing = unpassed_parameters()
    assert not missing, "defaulted parameters no call passes: " + ", ".join(missing)


README = SRC.parents[1] / "README.md"


def status_constants():
    """{name: value} of the module-level string constants of continuity, the solver statuses."""
    tree = _tree(SRC / "continuity.py")
    return {
        stmt.targets[0].id: stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    }


def returned_names():
    """Names and attributes that some return statement in src/weingarten hands back.

    A name inside a comparison (``status == ADMISSIBILITY_LOSS``) is read,
    not returned, and does not count.
    """
    found = set()

    def visit(node):
        if isinstance(node, ast.Compare):
            return
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Return) and node.value is not None:
                visit(node.value)
    return found


def readme_statuses():
    """Backticked names of the README sentence that starts with 'Solver statuses:'."""
    text = " ".join(README.read_text().split())
    sentence = text.split("Solver statuses:", 1)[1].split(".", 1)[0]
    return set(sentence.split("`")[1::2])


def test_every_status_is_returned_and_documented():
    # a status nothing returns is a promise the solver never keeps, and one
    # the README does not list cannot be looked up by a user who meets it
    statuses = status_constants()
    assert {"CONVERGED", "ADMISSIBILITY_LOSS", "STAGNATION"} <= set(statuses)
    assert sorted(set(statuses) - returned_names()) == []
    assert readme_statuses() == set(statuses.values())


def many_operand_einsums():
    """module:line of every einsum call in src/weingarten with three or more array operands."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "einsum"
                    and len(node.args) - 1 >= 3):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_einsum_with_three_operands():
    # per-node products of matrix stacks are chains of batched @; a
    # three-operand einsum over (N, n, n) stacks takes two to seven times as long
    assert many_operand_einsums() == []


def hot_path_matmuls():
    """module:line of every @ in geometry, linearize and DiscreteOperator's methods."""
    roots = [("geometry", _tree(SRC / "geometry.py")), ("linearize", _tree(SRC / "linearize.py"))]
    roots += [("continuity", s) for s in _tree(SRC / "continuity.py").body
              if isinstance(s, ast.ClassDef) and s.name == "DiscreteOperator"]
    return [f"{stem}:{node.lineno}" for stem, root in roots for node in ast.walk(root)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]


def test_no_matmul_in_the_newton_hot_path():
    # numpy's matmul loop takes two to six times as long as symeig.mm on
    # stacks of 2x2 matrices
    assert hot_path_matmuls() == []


@pytest.mark.parametrize("n", [2, 3])
def test_newton_work_runs_without_an_eigensolve(monkeypatch, n):
    # evaluation, blocks and coordinate conversion read a, never kappa, and
    # the convexity check of evaluate takes no eigenvalue
    refuse_eigensolves(monkeypatch)
    sf = SpaceFormParams(-1)
    grid = grids.build_cap_domain(np.pi / 5, 0.1 if n == 2 else 0.2, n=n)
    bump = 1.0 + 0.01 * np.cos(grid.coords @ np.linspace(1.0, -0.5, n))
    u = zeta_inverse(sf, np.full(grid.n_nodes, 0.7)) * bump
    for rep, field in (("u", u), ("v", eta_inverse(sf, u))):
        op = ct.DiscreteOperator(grid, profile(sf), rep=rep, sf=sf)
        ev = op.evaluate(field)
        assert ev is not None
        A2, b1, c = linearize.to_coordinate(op.blocks(ev), grid)
        assert np.all(np.isfinite(A2)) and np.all(np.isfinite(b1)) and np.all(np.isfinite(c))
