"""Problem-definition files: parsing, validation, and assembly into solver specs.

The format is plain key-value lines grouped into [sections]; '#' starts a
comment.  Unknown sections or keys are rejected with their line number, and
the parse keeps raw strings so the file serializes losslessly to JSON.
See the README for the full schema and an annotated example.
"""

import json
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import charts as ch
from . import grids
from .continuity import HomotopyConfig, ProblemSpec
from .errors import ParseError, SemanticError
from .expressions import Expression, parse_expression
from .spaceform import SpaceFormParams, ranges

_TOP_KEYS = {"space_form", "curvature_order", "dimension"}
# the [solver] keys are the HomotopyConfig fields, parsed as the field's type
_SOLVER_TYPES = {f.name: f.type for f in fields(HomotopyConfig)}
_SECTION_KEYS = {
    "domain": {"kind", "theta0", "h", "chart", "center", "mask_file", "origin", "radius"},
    "psi": {"expr"},
    "boundary": {"rho"},
    "subsolution": {"rho", "sphere", "file"},
    "exact": {"rho"},
    "solver": set(_SOLVER_TYPES),
}

# variables an expression may reference, per field role
_GEOM_VARS = {"rho", "u", "v", "gradnorm", "nu_rad"}


def _position_vars(n):
    """The chart coordinates: what a graph over the chart may reference."""
    return {f"y{i+1}" for i in range(n)}


def _point_vars(n):
    out = _position_vars(n)
    out |= {f"p{i+1}" for i in range(n)}
    out |= {f"nu_tan{i+1}" for i in range(n)}
    return out


@dataclass
class ProblemFile:
    """Validated problem definition; `raw` preserves the original strings."""

    space_form: int
    dimension: int
    domain: dict
    psi: Expression
    boundary: Expression
    subsolution: dict           # {"kind": "expr"|"sphere"|"file", ...}
    exact: Expression | None
    solver: dict
    raw: dict = dc_field(default_factory=dict)

    def to_json(self):
        return json.dumps(self.raw, indent=1)


def parse_problem(text) -> ProblemFile:
    """Parse and validate; raises ParseError / SemanticError with locations."""
    raw = {"_top": {}}
    section = "_top"
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            section = stripped[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ParseError(f"unknown section [{section}]", line=lineno)
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value", line=lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        allowed = _TOP_KEYS if section == "_top" else _SECTION_KEYS[section]
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in [{section}]", line=lineno)
        if key in raw.get(section, {}):
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        raw.setdefault(section, {})[key] = value
    return _validate(raw)


def _need(raw, section, key):
    if section not in raw or key not in raw[section]:
        raise SemanticError(f"missing required key {key!r} in [{section}]")
    return raw[section][key]


def _number(raw, section, key, kind=float):
    """raw[section][key] read as kind: int, float, or list (space-separated floats).

    A value that does not read as kind is a SemanticError naming the key.
    """
    text = _need(raw, section, key)
    try:
        return [float(v) for v in text.split()] if kind is list else kind(text)
    except ValueError:
        where = "" if section == "_top" else f" in [{section}]"
        expected = {int: "an integer", float: "a number", list: "a list of numbers"}[kind]
        raise SemanticError(f"{key!r}{where} must be {expected}, got {text!r}") from None


def _validate(raw) -> ProblemFile:
    top = raw.get("_top", {})
    if "space_form" not in top:
        raise SemanticError("missing required key 'space_form'")
    K = _number(raw, "_top", "space_form", int)
    if K not in (-1, 0, 1):
        raise SemanticError(f"space_form must be -1, 0 or 1, got {K}")
    n = _number(raw, "_top", "dimension", int) if "dimension" in top else 2
    if n < 2:
        raise SemanticError("dimension must be >= 2")
    # the solver solves sigma_n(kappa) = psi; the key may only restate that
    if "curvature_order" in top and _number(raw, "_top", "curvature_order", int) != n:
        raise SemanticError(
            f"curvature_order must equal dimension ({n}), got {top['curvature_order']}")

    dom_raw = raw.get("domain", {})
    kind = dom_raw.get("kind", "cap")
    if kind not in ("cap", "mask"):
        raise SemanticError(f"domain kind must be cap or mask, got {kind!r}")
    domain = {"kind": kind, "chart": dom_raw.get("chart", "gnomonic")}
    # a mask file carries its own h; [domain] h may only restate it
    if kind == "cap" or "h" in dom_raw:
        domain["h"] = _number(raw, "domain", "h")
    if domain["chart"] not in (ch.GNOMONIC, ch.PLANE):
        raise SemanticError(f"chart must be gnomonic or plane, got {domain['chart']!r}")
    if kind == "cap":
        theta0 = _number(raw, "domain", "theta0")
        if not 0.0 < theta0 < np.pi / 2:
            raise SemanticError(
                f"theta0={theta0} outside (0, pi/2): the domain may not contain a hemisphere"
            )
        domain["theta0"] = theta0
    else:
        if n != 2:
            raise SemanticError(f"mask domains are 2-D: dimension must be 2, got {n}")
        domain["mask_file"] = _need(raw, "domain", "mask_file")
        domain["radius"] = _number(raw, "domain", "radius") if "radius" in dom_raw else None
        if "origin" in dom_raw:
            domain["origin"] = _number(raw, "domain", "origin", list)
    if "center" in dom_raw:
        domain["center"] = _number(raw, "domain", "center", list)
        if len(domain["center"]) != n + 1:
            raise SemanticError(f"chart center needs {n + 1} components")

    psi = parse_expression(_need(raw, "psi", "expr"))
    bad = psi.variables - _point_vars(n) - _GEOM_VARS
    if bad:
        raise SemanticError(f"[psi] references unknown variable(s) {sorted(bad)}")
    boundary = _graph_expression(_need(raw, "boundary", "rho"), "boundary", n)

    sub_raw = raw.get("subsolution", {})
    given = [key for key in ("rho", "sphere", "file") if key in sub_raw]
    if len(given) != 1:
        raise SemanticError("[subsolution] needs exactly one of rho = / sphere = / file =")
    if given[0] == "rho":
        subsolution = {"kind": "expr",
                       "expr": _graph_expression(sub_raw["rho"], "subsolution", n)}
    elif given[0] == "sphere":
        vals = _number(raw, "subsolution", "sphere", list)
        if len(vals) != n + 2:
            raise SemanticError(
                f"[subsolution] sphere needs R and {n + 1} center components"
            )
        subsolution = {"kind": "sphere", "radius": vals[0], "center": vals[1:]}
    else:
        subsolution = {"kind": "file", "path": sub_raw["file"]}

    exact = None
    if "exact" in raw and "rho" in raw["exact"]:
        exact = _graph_expression(raw["exact"]["rho"], "exact", n)

    solver = {key: _number(raw, "solver", key, _SOLVER_TYPES[key]) for key in raw.get("solver", {})}

    return ProblemFile(
        space_form=K, dimension=n, domain=domain,
        psi=psi, boundary=boundary, subsolution=subsolution, exact=exact,
        solver=solver, raw=raw,
    )


def _graph_expression(text, label, n):
    """[boundary], [subsolution] and [exact] are graphs over the chart: position only."""
    expr = parse_expression(text)
    bad = expr.variables - _position_vars(n)
    if bad:
        raise SemanticError(f"[{label}] may only reference chart coordinates, not {sorted(bad)}")
    return expr


def load_problem(path) -> ProblemFile:
    """Parse a problem file; its mask_file and [subsolution] file are read from its directory."""
    with open(path) as fh:
        pf = parse_problem(fh.read())
    base = Path(path).parent
    if "mask_file" in pf.domain:
        pf.domain["mask_file"] = base / pf.domain["mask_file"]
    if pf.subsolution["kind"] == "file":
        pf.subsolution["path"] = base / pf.subsolution["path"]
    return pf


# ---------------------------------------------------------------------------
# mask files

# what each mask header key must be: (type, count, test, description)
_MASK_HEADER = {
    "h": (float, 1, lambda x: 0.0 < x < np.inf, "a finite spacing > 0"),
    "origin": (float, 2, np.isfinite, "two finite numbers"),
    "rows": (int, 1, lambda x: x > 0, "a positive integer"),
    "cols": (int, 1, lambda x: x > 0, "a positive integer"),
}


def load_mask(path):
    """Mask file: header lines `h`, `origin`, `rows`, `cols`, then 0/1 rows.

    A header key that is missing or malformed is a ParseError naming it.
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = {}
    i = 0
    while i < len(raw) and raw[i][0].isalpha():
        parts = raw[i].split()
        header[parts[0]] = parts[1:]
        i += 1
    values = {}
    for key, (kind, count, ok, what) in _MASK_HEADER.items():
        if key not in header:
            raise ParseError(f"mask file has no {key!r} header line")
        try:
            vals = [kind(v) for v in header[key]]
        except ValueError:
            vals = []
        if len(vals) != count or not all(ok(v) for v in vals):
            raise ParseError(f"mask header {key!r} must be {what}, got {' '.join(header[key])!r}")
        values[key] = vals
    h, origin = values["h"][0], values["origin"]
    rows, cols = values["rows"][0], values["cols"][0]
    grid_rows = raw[i : i + rows]
    if len(grid_rows) != rows:
        raise ParseError(f"mask file lists {len(grid_rows)} rows, header says {rows}")
    mask = np.zeros((rows, cols), dtype=bool)
    for r, row in enumerate(grid_rows):
        if len(row) != cols:
            raise ParseError(f"mask row {r} has {len(row)} columns, header says {cols}")
        mask[r] = np.array([c == "1" for c in row])
    return mask, h, np.asarray(origin)


# ---------------------------------------------------------------------------
# assembly

def _chart_point_env(grid):
    env = {}
    for i in range(grid.dim):
        env[f"y{i+1}"] = grid.coords[:, i]
    return env


def sphere_builder_rho(grid, radius, center):
    """Radial graph of the ambient-coordinate sphere |x - c| = R over the chart."""
    z = ch.embed(grid.chart, grid.coords)
    c = np.asarray(center, dtype=float)
    cz = z @ c
    disc = radius**2 - float(c @ c) + cz**2
    if np.any(disc <= 0.0):
        raise SemanticError("sphere builder: some rays miss the sphere (discriminant <= 0)")
    rho = cz + np.sqrt(disc)
    if np.any(rho <= 0.0):
        raise SemanticError("sphere builder produced non-positive radial values")
    return rho


def build_grid(pf: ProblemFile, h_override=None) -> grids.Grid:
    center = np.asarray(pf.domain["center"]) if "center" in pf.domain else None
    if pf.domain["kind"] == "cap":
        h = float(h_override) if h_override is not None else pf.domain["h"]
        if not 0.0 < h < np.inf:
            key = "--h" if h_override is not None else "'h' in [domain]"
            raise SemanticError(f"{key} must be a finite spacing > 0, got {h!r}")
        if pf.domain["chart"] != ch.GNOMONIC:
            raise SemanticError("cap domains use the gnomonic chart")
        return grids.build_cap_domain(pf.domain["theta0"], h, n=pf.dimension, center=center)
    if h_override is not None:
        raise SemanticError("h override is not supported for mask domains")
    mask, h, origin = load_mask(pf.domain["mask_file"])
    if pf.domain.get("h", h) != h:
        raise SemanticError(
            f"'h' in [domain] ({pf.domain['h']!r}) differs from the mask file's h ({h!r})")
    chart = (
        ch.gnomonic_chart(pf.dimension, center)
        if pf.domain["chart"] == ch.GNOMONIC
        else ch.plane_chart(pf.dimension)
    )
    return grids.build_from_mask(
        mask, h, pf.domain.get("origin", origin), chart=chart,
        max_radius=pf.domain.get("radius"),
    )


def build_problem(pf: ProblemFile, h_override=None):
    """ProblemFile -> (ProblemSpec, HomotopyConfig, exact rho array or None)."""
    grid = build_grid(pf, h_override)
    sf = SpaceFormParams(pf.space_form)
    env = _chart_point_env(grid)
    rho_data = pf.boundary.evaluate(env) + np.zeros(grid.n_nodes)
    _range_check_rho(sf, rho_data, "boundary")
    if pf.subsolution["kind"] == "expr":
        rho_sub = pf.subsolution["expr"].evaluate(env) + np.zeros(grid.n_nodes)
    elif pf.subsolution["kind"] == "sphere":
        rho_sub = sphere_builder_rho(grid, pf.subsolution["radius"], pf.subsolution["center"])
    else:
        _, fld, _ = grids.load_grid(pf.subsolution["path"])
        if fld is None or fld.representation != "rho":
            raise SemanticError("subsolution grid file must carry a rho-representation field")
        if fld.values.shape[0] != grid.n_nodes:
            raise SemanticError("subsolution grid file does not match the problem grid")
        rho_sub = fld.values
    _range_check_rho(sf, rho_sub, "subsolution")
    spec = ProblemSpec(
        sf=sf, grid=grid,
        psi_sigma=pf.psi.evaluate,
        psi_reads_field=bool(pf.psi.variables - _position_vars(grid.dim)),
        boundary_rho=rho_data, subsolution_rho=rho_sub,
    )
    cfg = HomotopyConfig(**pf.solver)
    exact = pf.exact.evaluate(env) + np.zeros(grid.n_nodes) if pf.exact is not None else None
    return spec, cfg, exact


def _range_check_rho(sf, rho, label):
    upper = ranges(sf).rho_upper
    if np.any(rho <= 0.0) or (np.isfinite(upper) and np.any(rho >= upper)):
        raise SemanticError(f"[{label}] leaves the range (0, {upper}) for K={sf.K}")
