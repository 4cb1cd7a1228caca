"""Structured lattices over chart domains with finite-difference calculus.

A Grid is a uniform lattice in chart coordinates.  Nodes are classified
interior / boundary / exterior so that every interior node's full 3^n
second-order stencil lies in interior-or-boundary; boundary nodes carry
Dirichlet values sampled at their exact chart coordinates (grid-aligned
staircase, no cut cells).

Derivatives are central second order over the 3^n box.  The covariant
Hessian is Hess_ij = d_ij - Gamma_ij^k d_k, and frame jets are its
components in the orthonormal frame sigma^{-1/2}.  Boundary nodes get a
one-sided gradient estimate for diagnostics.
"""

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import charts as ch
from .errors import AssemblyError, ParseError

INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2
DISSECTION_LEAF = 8  # nested dissection keeps node-id order in parts this small
_CLASS_NAMES = {INTERIOR: "interior", BOUNDARY: "boundary", EXTERIOR: "exterior"}


def per_grid(build):
    """build(grid) made once per grid, its arrays read-only: the one cache of
    per-grid data, kept in grid._jet_cache, which only this module touches."""
    @functools.wraps(build)
    def cached(grid):
        if build.__name__ not in grid._jet_cache:
            out = build(grid)
            for a in out if isinstance(out, tuple) else (out,):
                a.flags.writeable = False
            grid._jet_cache[build.__name__] = out
        return grid._jet_cache[build.__name__]
    return cached


@dataclass
class Grid:
    """Immutable after construction; see build_cap_domain / build_from_mask."""

    chart: ch.Chart
    h: float
    origin: np.ndarray            # chart coordinates of lattice index (0,...,0)
    lattice_shape: tuple
    status: np.ndarray            # (lattice_shape) int classification
    node_index: np.ndarray        # (N, n) lattice multi-indices of non-exterior nodes
    node_class: np.ndarray        # (N,) INTERIOR/BOUNDARY
    coords: np.ndarray            # (N, n) chart coordinates
    id_grid: np.ndarray           # lattice -> node id or -1
    interior_ids: np.ndarray      # (N_int,) in nested-dissection order, not sorted
    boundary_ids: np.ndarray      # (N_bnd,)
    box: np.ndarray               # (N_int, 3^n) node ids of the full stencil box
    _jet_cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return self.chart.dim

    @property
    def n_nodes(self):
        return self.node_class.shape[0]

    @property
    def n_interior(self):
        return self.interior_ids.shape[0]

    @per_grid
    def interior_coords(self):
        """(N_int, n) chart coordinates of the interior nodes."""
        return self.coords[self.interior_ids]


def box_offsets(n):
    """The 3^n lattice offsets of the stencil box, in lexicographic order."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=int)


def _classify(inside, n):
    """Interior = inside with full box inside; boundary = inside box-neighbors of interior."""
    interior = inside.copy()
    for off in box_offsets(n):
        if np.all(off == 0):
            continue
        interior &= np.roll(inside, shift=tuple(-off), axis=tuple(range(n)))
    # np.roll wraps around; strip the outermost layer to be safe
    edge = np.zeros_like(interior)
    sl = tuple(slice(1, -1) for _ in range(n))
    edge[sl] = True
    interior &= edge
    near_interior = np.zeros_like(interior)
    for off in box_offsets(n):
        near_interior |= np.roll(interior, shift=tuple(off), axis=tuple(range(n)))
    boundary = inside & near_interior & ~interior
    status = np.full(inside.shape, EXTERIOR, dtype=int)
    status[interior] = INTERIOR
    status[boundary] = BOUNDARY
    return status


def _dissection_order(index):
    """Nested-dissection order of lattice points (rows of index), as positions.

    Recursive coordinate bisection (George 1973), one level of every part at
    a time: each part splits its lattice box on the longest axis at the
    median plane of its points and is numbered below the plane, then above
    it, then on it; parts of at most DISSECTION_LEAF points keep their given
    order.  The 3^n box stencil couples only points whose indices differ by
    at most 1, so the plane separates the two halves on any mask, and their
    Jacobian blocks factor without fill between them.
    """
    m, n = index.shape
    coord = np.ascontiguousarray(index.T)          # (n, m), entries >= 0
    span = int(coord.max()) + 1
    lo = np.repeat(coord.min(axis=1)[:, None], m, axis=1)  # lattice box of each point's part
    hi = np.repeat(coord.max(axis=1)[:, None], m, axis=1)
    part = np.zeros(m, dtype=np.intp)   # position of the first point of each point's part
    split = np.ones(m, dtype=bool)
    while True:
        count = np.bincount(part, minlength=m)
        split &= count[part] > DISSECTION_LEAF
        pts = np.flatnonzero(split)
        if pts.size == 0:
            return np.argsort(part, kind="stable")
        ext = hi[:, pts] - lo[:, pts]
        axis = np.zeros(pts.size, dtype=np.intp)
        for a in range(1, n):
            axis[ext[a] > ext[axis, np.arange(pts.size)]] = a
        c = coord[axis, pts]
        p = part[pts]
        key = np.sort(p * span + c)     # each part's coordinates, ascending
        plane = key[np.searchsorted(key, p * span) + count[p] // 2] - p * span
        below, above, on = c < plane, c > plane, c == plane
        n_below = np.bincount(p[below], minlength=m)[p]
        n_above = np.bincount(p[above], minlength=m)[p]
        part[pts[above]] += n_below[above]
        part[pts[on]] += n_below[on] + n_above[on]
        hi[axis[below], pts[below]] = plane[below] - 1
        lo[axis[above], pts[above]] = plane[above] + 1
        split[pts[on]] = False


def _finalize(chart, h, origin, status):
    n = chart.dim
    non_ext = status != EXTERIOR
    node_index = np.argwhere(non_ext)
    node_class = status[non_ext]
    coords = origin + node_index * h
    id_grid = np.full(status.shape, -1, dtype=int)
    id_grid[tuple(node_index.T)] = np.arange(node_index.shape[0])
    interior_ids = np.flatnonzero(node_class == INTERIOR)
    boundary_ids = np.flatnonzero(node_class == BOUNDARY)
    if interior_ids.size == 0:
        raise AssemblyError("domain has no interior nodes at this resolution; decrease h")
    interior_ids = interior_ids[_dissection_order(node_index[interior_ids])]
    grid = Grid(
        chart=chart,
        h=float(h),
        origin=np.asarray(origin, dtype=float),
        lattice_shape=status.shape,
        status=status,
        node_index=node_index,
        node_class=node_class,
        coords=coords,
        id_grid=id_grid,
        interior_ids=interior_ids,
        boundary_ids=boundary_ids,
        box=None,
    )
    grid.box = neighbor_ids(grid, interior_ids, box_offsets(n))
    if np.any(grid.box < 0):
        bad = interior_ids[np.argwhere(grid.box < 0)[0, 0]]
        raise AssemblyError(f"stencil of interior node {bad} leaves the classified domain")
    return grid


def neighbor_ids(grid, nodes, offsets):
    """Node ids at lattice offsets (entries in {-1, 0, 1}) from each given node.

    Returns shape (len(nodes), len(offsets)), with -1 where the lattice point
    is exterior or off the lattice: the id lattice is read padded by one cell,
    at flat positions (node position plus offset, each dotted with the
    padded lattice's strides).
    """
    padded = np.pad(grid.id_grid, 1, constant_values=-1)
    strides = np.array(padded.strides) // padded.itemsize
    base = (grid.node_index[nodes] + 1) @ strides
    return padded.ravel()[base[:, None] + np.asarray(offsets) @ strides]


def build_cap_domain(theta0, h, n=2, center=None) -> Grid:
    """Grid over the geodesic cap dist(z, center) < theta0 in its gnomonic chart.

    theta0 >= pi/2 is rejected: the domain may not contain a hemisphere.
    The inside test runs on the integer lattice (|index|^2 against (r/h)^2),
    so the classification inherits every lattice symmetry of the disk; nodes
    landing exactly on the circle are excluded deterministically.
    """
    r = ch.cap_radius_in_chart(theta0)
    chart = ch.gnomonic_chart(n, center)
    m = int(np.ceil(r / h)) + 2
    origin = np.full(n, -m * h)
    axes = [np.arange(2 * m + 1) - m] * n
    idx = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    rr2 = np.sum(idx * idx, axis=-1)
    inside = rr2 < (r / h) ** 2 - 1e-9
    return _finalize(chart, h, origin, _classify(inside, n))


def build_from_mask(mask, h, origin, chart=None, max_radius=None) -> Grid:
    """Grid from a boolean lattice mask (True = inside Omega).

    When max_radius is given, every inside node must satisfy |y| < max_radius
    (containment in the declared chart disk) or the mask is rejected.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.ndim
    if chart is None:
        chart = ch.gnomonic_chart(n)
    if chart.dim != n:
        raise ValueError(f"mask dimension {n} does not match chart dimension {chart.dim}")
    origin = np.asarray(origin, dtype=float)
    # pad one cell so classification never touches the array edge
    padded = np.pad(mask, 1)
    origin = origin - h
    if max_radius is not None:
        idx = np.argwhere(padded)
        y = origin + idx * h
        rr = np.sqrt(np.sum(y * y, axis=-1))
        if np.any(rr >= max_radius):
            worst = float(rr.max())
            raise ValueError(
                f"mask node at |y|={worst:.6g} outside the chart disk of radius {max_radius:.6g}"
            )
    return _finalize(chart, float(h), origin, _classify(padded, n))


# ---------------------------------------------------------------------------
# fields


@dataclass
class GraphField:
    """Scalar field on a grid in one representation: values per non-exterior node."""

    grid: Grid
    values: np.ndarray
    representation: str  # "rho" | "u" | "v"

    def __post_init__(self):
        if self.representation not in ("rho", "u", "v"):
            raise ValueError(f"unknown representation {self.representation!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {self.values.shape} values for {self.grid.n_nodes} nodes"
            )

    def copy_with(self, values=None):
        return GraphField(
            self.grid, self.values.copy() if values is None else values, self.representation
        )


# ---------------------------------------------------------------------------
# finite differences

@per_grid
def _jet_weights(grid):
    """First/second-derivative stencil weights over the 3^n box."""
    n = grid.dim
    h = grid.h
    offs = box_offsets(n)
    pos = {tuple(o): j for j, o in enumerate(offs)}
    m = offs.shape[0]
    W1 = np.zeros((n, m))
    W2 = np.zeros((n, n, m))
    for k in range(n):
        ep = [0] * n
        ep[k] = 1
        em = [0] * n
        em[k] = -1
        W1[k, pos[tuple(ep)]] = 0.5 / h
        W1[k, pos[tuple(em)]] = -0.5 / h
        W2[k, k, pos[tuple(ep)]] += 1.0 / h**2
        W2[k, k, pos[tuple(em)]] += 1.0 / h**2
        W2[k, k, pos[tuple([0] * n)]] += -2.0 / h**2
    for k in range(n):
        for l in range(k + 1, n):
            for sk, sl in itertools.product((-1, 1), repeat=2):
                o = [0] * n
                o[k] = sk
                o[l] = sl
                W2[k, l, pos[tuple(o)]] = sk * sl * 0.25 / h**2
                W2[l, k, pos[tuple(o)]] = sk * sl * 0.25 / h**2
    return W1, W2


def fd_jets(grid, values):
    """(value, grad, second partials) at all interior nodes; plain coordinate jets.

    Differences are taken against the center value: every weight row sums to
    zero, so this changes nothing analytically but makes derivatives of
    constant fields vanish identically (even under FMA contraction).
    """
    values = np.asarray(values, dtype=float)
    vbox = values[grid.box]
    W1, W2 = _jet_weights(grid)
    center = vbox[:, grid.box.shape[1] // 2].copy()
    vbox = vbox - center[:, None]
    grad = vbox @ W1.T
    n = W2.shape[0]
    hess = (vbox @ W2.reshape(n * n, -1).T).reshape(-1, n, n)
    return center, grad, hess


@per_grid
def chart_quantities(grid):
    """Gamma and the frame B = sigma^{-1/2} at interior nodes."""
    y = grid.interior_coords()
    return ch.christoffel(grid.chart, y), ch.inv_sqrt_metric(grid.chart, y)


def nesting_shift(coarse, fine):
    """Integer s that puts coarse lattice index k on fine index 2k + s (spacings 2h and h)."""
    shift = (coarse.origin - fine.origin) / fine.h
    nested = np.isclose(coarse.h, 2.0 * fine.h, rtol=1e-12, atol=0.0)
    if not nested or np.any(np.abs(shift - np.rint(shift)) > 1e-9):
        raise AssemblyError("nested lattices of spacings 2h and h expected")
    return np.rint(shift).astype(int)


def nested_interior_ids(coarse, fine):
    """Fine node id of each coarse interior node (coarse lattice index k sits on
    fine index 2k + nesting_shift), an interior node of a nested cap lattice."""
    index = 2 * coarse.node_index[coarse.interior_ids] + nesting_shift(coarse, fine)
    return fine.id_grid[tuple(index.T)]


def prolong(coarse, values, fine):
    """Values at the fine grid's nodes of a field on a nested grid of twice its spacing.

    Coarse lattice index k sits on fine index 2k + nesting_shift.  Axis by
    axis, the coarse lattice (NaN off its nodes) doubles: a midpoint takes the
    4-point cubic (-1, 9, 9, -1)/16 of its neighbours on that axis, or the
    one-sided quadratic (3, 6, -1)/8 when one outer neighbour is missing, else
    NaN.  After all axes, a slot of the doubled lattice still NaN takes the
    quadratic extrapolation (3, -3, 1) of the three values beside it along
    the first axis and side that has them, read from the doubled lattice as
    the passes left it.  Filling inside the passes would change the inputs of
    later passes; filled afterwards, every slot that the passes give keeps
    its value.  The fill leaves no interior node of a nested cap lattice
    without a value (n = 2 and 3, tests/test_grids.py); any other fine node
    left without one, or off the doubled lattice, is NaN.
    """
    shift = nesting_shift(coarse, fine)
    a = np.full(coarse.lattice_shape, np.nan)
    a[tuple(coarse.node_index.T)] = values
    for axis in range(coarse.dim):
        a = np.moveaxis(a, axis, 0)
        pad = np.full((1,) + a.shape[1:], np.nan)
        p = np.concatenate([pad, a, pad])
        x0, x1, x2, x3 = p[:-3], p[1:-2], p[2:-1], p[3:]
        mid = np.where(np.isnan(x0), (3.0 * x1 + 6.0 * x2 - x3) / 8.0,
                       np.where(np.isnan(x3), (6.0 * x1 + 3.0 * x2 - x0) / 8.0,
                                (9.0 * (x1 + x2) - x0 - x3) / 16.0))
        out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
        out[0::2], out[1::2] = a, mid
        a = np.moveaxis(out, 0, axis)
    passes = np.pad(a, 3, constant_values=np.nan)

    def beside(axis, shift):
        """View of the passes' lattice shift slots along axis, read from the pad."""
        window = [slice(3, -3)] * a.ndim
        window[axis] = slice(3 + shift, passes.shape[axis] - 3 + shift)
        return passes[tuple(window)]

    for axis, side in itertools.product(range(coarse.dim), (1, -1)):
        x1, x2, x3 = (beside(axis, k * side) for k in (1, 2, 3))
        a = np.where(np.isnan(a), 3.0 * x1 - 3.0 * x2 + x3, a)
    idx = fine.node_index - shift
    inside = np.all((idx >= 0) & (idx < a.shape), axis=1)
    result = np.full(fine.n_nodes, np.nan)
    result[inside] = a[tuple(idx[inside].T)]
    return result


@per_grid
def boundary_sigma_inv(grid):
    """sigma^{-1} at the boundary nodes."""
    return ch.chart_metric(grid.chart, grid.coords[grid.boundary_ids])[1]


def covariant_jets(grid, values):
    """(value, coordinate grad, covariant Hessian) at all interior nodes."""
    val, grad, hess = fd_jets(grid, values)
    gamma, _ = chart_quantities(grid)
    hess_cov = hess - np.einsum("nijk,nk->nij", gamma, grad)
    return val, grad, hess_cov


def boundary_gradient_estimate(grid, values):
    """Coordinate gradient at boundary nodes, one-sided where needed.

    First-order accurate; used by diagnostics that need the boundary trace of
    gradient quantities.  Axes with no available neighbor contribute zero.
    """
    n = grid.dim
    h = grid.h
    ids = _boundary_axis_neighbors(grid)
    idp, idm = ids[:, :n], ids[:, n:]
    has_p, has_m = idp >= 0, idm >= 0
    vb = values[grid.boundary_ids][:, None]
    vp, vm = values[idp], values[idm]
    return np.where(has_p & has_m, (vp - vm) / (2.0 * h),
                    np.where(has_p, (vp - vb) / h, np.where(has_m, (vb - vm) / h, 0.0)))


@per_grid
def _boundary_axis_neighbors(grid):
    """Node ids of each boundary node's neighbours at +e_k, then at -e_k (-1 where none)."""
    eye = np.eye(grid.dim, dtype=int)
    return neighbor_ids(grid, grid.boundary_ids, np.concatenate([eye, -eye]))


# ---------------------------------------------------------------------------
# serialization

def save_grid(path, grid, field=None, space_form=None):
    """Plain-text grid (+ optional field) file; format documented in the README."""
    rep = field.representation if field is not None else "none"
    vals = field.values if field is not None else np.full(grid.n_nodes, np.nan)
    lines = ["# weingarten grid v1"]
    lines.append(f"chart {grid.chart.kind}")
    lines.append("center " + " ".join(repr(float(c)) for c in grid.chart.center))
    lines.append(f"dim {grid.dim}")
    lines.append(f"h {grid.h!r}")
    lines.append("origin " + " ".join(repr(float(c)) for c in grid.origin))
    lines.append("lattice " + " ".join(str(s) for s in grid.lattice_shape))
    if space_form is not None:
        lines.append(f"space_form {int(space_form)}")
    lines.append(f"representation {rep}")
    lines.append(f"nodes {grid.n_nodes}")
    for i in range(grid.n_nodes):
        idx = " ".join(str(int(v)) for v in grid.node_index[i])
        yc = " ".join(repr(float(v)) for v in grid.coords[i])
        lines.append(
            f"{i} {idx} {_CLASS_NAMES[int(grid.node_class[i])]} {yc} {float(vals[i])!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_header(path):
    """(header, rows) of a text file: blank and '#' lines skipped, each leading
    line that starts with a letter a header line `key value ...` (header[key]
    = its values), the lines after them data rows."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    i = 0
    while i < len(raw) and raw[i][0].isalpha():
        i += 1
    return {key: values for key, *values in map(str.split, raw[:i])}, raw[i:]


def header_values(header, keys, what):
    """{key: values} of each key of keys, which maps it to (type, count, test,
    description).  A key that is missing, or whose values are not count
    values of that type that pass the test, is a ParseError naming it."""
    out = {}
    for key, (kind, count, ok, description) in keys.items():
        if key not in header:
            raise ParseError(f"{what} file has no {key!r} header line")
        try:
            out[key] = [kind(v) for v in header[key]]
        except ValueError:
            out[key] = []
        if len(out[key]) != count or not all(map(ok, out[key])):
            raise ParseError(
                f"{what} header {key!r} must be {description}, got {' '.join(header[key])!r}")
    return out


def load_grid(path):
    """Inverse of save_grid.  Returns (grid, field_or_None, space_form_or_None).

    A header key that is missing or malformed, or a node row that does not
    parse, lies off the lattice or carries another id than the rebuilt
    lattice gives its index, is a ParseError naming the key or the row.
    """
    header, rows = read_header(path)
    n = header_values(header, {"dim": (int, 1, lambda x: x >= 2, "an integer >= 2")},
                      "grid")["dim"][0]
    optional = {"space_form": (int, 1, lambda x: x in (-1, 0, 1), "-1, 0 or 1"),
                "representation": (str, 1, lambda x: x in ("none", "rho", "u", "v"),
                                   "none, rho, u or v")}
    values = header_values(header, {
        "chart": (str, 1, lambda x: x in (ch.GNOMONIC, ch.PLANE), "gnomonic or plane"),
        "center": (float, n + 1, np.isfinite, f"{n + 1} finite numbers"),
        "h": (float, 1, lambda x: 0.0 < x < np.inf, "a finite spacing > 0"),
        "origin": (float, n, np.isfinite, f"{n} finite numbers"),
        "lattice": (int, n, lambda x: x > 0, f"{n} positive integers"),
        "nodes": (int, 1, lambda x: x > 0, "a positive integer"),
        **{key: spec for key, spec in optional.items() if key in header}}, "grid")
    try:
        chart = ch.Chart(values["chart"][0], n, np.array(values["center"]))
    except ValueError as exc:
        raise ParseError(f"grid header 'center': {exc}") from None
    shape, n_nodes = tuple(values["lattice"]), values["nodes"][0]
    if len(rows) != n_nodes:
        raise ParseError(f"grid file lists {len(rows)} node rows, header says {n_nodes}")
    ids, index = np.empty(n_nodes, dtype=int), np.empty((n_nodes, n), dtype=int)
    field_values = np.empty(n_nodes)
    status = np.full(shape, EXTERIOR, dtype=int)
    for r, parts in enumerate(map(str.split, rows)):
        try:
            # numpy parses each string as int() or float() would
            ids[r], index[r], field_values[r] = parts[0], parts[1 : 1 + n], parts[2 + 2 * n]
            idx = tuple(index[r])
            inside = len(parts) == 2 * n + 3 and all(0 <= i < m for i, m in zip(idx, shape))
            if not inside or status[idx] != EXTERIOR:
                raise ValueError
            status[idx] = {"interior": INTERIOR, "boundary": BOUNDARY}[parts[1 + n]]
        except (ValueError, KeyError, IndexError):
            raise ParseError(
                f"grid node row {r} must be an id, {n} lattice indices inside the lattice and "
                f"not listed before, interior or boundary, {n} coordinates and a value; "
                f"got {rows[r]!r}") from None
    grid = _finalize(chart, values["h"][0], np.array(values["origin"]), status)
    expect = grid.id_grid[tuple(index.T)]
    bad = np.flatnonzero(expect != ids)
    if bad.size:
        r = bad[0]
        raise ParseError(f"grid node row {r} has id {ids[r]}, but the lattice gives its index "
                         f"{tuple(index[r].tolist())} id {expect[r]}")
    rep = values.get("representation", ["none"])[0]
    field = None if rep == "none" else GraphField(grid, field_values[np.argsort(ids)], rep)
    return grid, field, values["space_form"][0] if "space_form" in values else None
