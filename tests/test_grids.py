"""Domain construction, stencil classification, FD calculus, serialization."""

import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp

from weingarten import charts as ch
from weingarten import grids, linearize
from weingarten.errors import AssemblyError, ParseError
from reference import boundary_gradient_loop, convexity_matrix, convexity_matrix_fast


def gradient_norm_sq(grid, values):
    """|grad u|^2 = sigma^{kl} u_k u_l at interior nodes."""
    grad = grids.fd_jets(grid, values)[1]
    sigma_inv = ch.chart_metric(grid.chart, grid.interior_coords())[1]
    return np.einsum("nk,nkl,nl->n", grad, sigma_inv, grad)


def test_cap_domain_radius():
    g = grids.build_cap_domain(np.pi / 4, 0.1)
    assert np.all(np.linalg.norm(g.coords, axis=1) < 1.0 + 1e-12)
    with pytest.raises(ValueError):
        grids.build_cap_domain(np.pi / 2, 0.1)


def test_per_grid_data_is_built_once_and_read_only(cap_grid):
    # the per-grid cache hands every caller the same arrays, which none may change
    for build in (grids.Grid.interior_coords, grids.chart_quantities, grids.boundary_sigma_inv,
                  grids._jet_weights, linearize._jacobian_pattern):
        data = build(cap_grid)
        assert build(cap_grid) is data
        assert not any(a.flags.writeable for a in (data if isinstance(data, tuple) else [data]))


def test_interior_stencils_stay_inside(cap_grid):
    klass = cap_grid.node_class[cap_grid.box]
    assert np.all((klass == grids.INTERIOR) | (klass == grids.BOUNDARY))


def test_boundary_count_scales_like_perimeter():
    counts = []
    for h in (0.1, 0.05, 0.025):
        g = grids.build_cap_domain(np.pi / 4, h)
        counts.append(len(g.boundary_ids))
    r1 = counts[1] / counts[0]
    r2 = counts[2] / counts[1]
    assert 1.5 < r1 < 3.0 and 1.5 < r2 < 3.0


def l_shape_mask():
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:6] = True
    mask[6:10, 2:10] = True
    return mask


def test_mask_domain_l_shape():
    mask = l_shape_mask()
    g = grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]))
    assert g.n_interior > 0
    klass = g.node_class[g.box]
    assert np.all((klass == grids.INTERIOR) | (klass == grids.BOUNDARY))
    # containment rule: small radius rejects, big radius accepts
    with pytest.raises(ValueError):
        grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]), max_radius=0.1)
    grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]), max_radius=2.0)


@pytest.mark.parametrize("make", [
    lambda: grids.build_cap_domain(np.pi / 5, 0.05),
    lambda: grids.build_cap_domain(np.pi / 5, 0.12, n=3),
    lambda: grids.build_from_mask(l_shape_mask(), 0.05, origin=np.array([-0.3, -0.3])),
], ids=["cap-n2", "cap-n3", "l-shape"])
def test_interior_ids_in_dissection_order(make):
    g = make()
    ids = g.interior_ids
    assert np.array_equal(np.sort(ids), np.flatnonzero(g.node_class == grids.INTERIOR))
    # top-level split: the median lattice plane across the longest axis
    idx = g.node_index[ids]
    axis = int(np.argmax(idx.max(axis=0) - idx.min(axis=0)))
    c = idx[:, axis]
    plane = np.sort(c)[c.size // 2]
    below, above = np.flatnonzero(c < plane), np.flatnonzero(c > plane)
    assert below.size > 0 and above.size > 0
    # numbered below, then above, then on the plane
    assert below.max() < above.min() and above.max() < np.flatnonzero(c == plane).min()
    # the plane separates the halves: no Jacobian entry couples them
    indptr, indices, _ = linearize._jacobian_pattern(g)
    J = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(ids.size, ids.size))
    assert J[below][:, above].nnz == 0 and J[above][:, below].nnz == 0


def test_unresolvable_domain_rejected():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    with pytest.raises(AssemblyError):
        grids.build_from_mask(mask, 0.1, origin=np.zeros(2))


def test_constant_field_has_zero_derivatives(cap_grid):
    values = np.full(cap_grid.n_nodes, 3.7)
    val, grad, hess = grids.fd_jets(cap_grid, values)
    assert np.all(val == 3.7)
    assert np.max(np.abs(grad)) == 0.0
    assert np.max(np.abs(hess)) == 0.0
    assert np.max(np.abs(grids.covariant_jets(cap_grid, values)[2])) == 0.0
    assert np.max(np.abs(gradient_norm_sq(cap_grid, values))) == 0.0


def test_gradient_at_center():
    # u = y1 has |grad u|^2 = 1 at the gnomonic center where sigma = I
    g = grids.build_cap_domain(np.pi / 4, 0.1)
    values = g.coords[:, 0].copy()
    gn2 = gradient_norm_sq(g, values)
    center = np.argmin(np.linalg.norm(g.interior_coords(), axis=1))
    assert gn2[center] == pytest.approx(1.0, abs=1e-12)


def test_fd_gradient_convergence():
    # analytic field 1/mu: relative error of the FD gradient is O(h^2)
    errs = []
    for h in (0.1, 0.05, 0.025):
        g = grids.build_cap_domain(np.pi / 4, h)
        y = g.coords
        mu = np.sqrt(1.0 + np.sum(y * y, axis=1))
        values = 1.0 / mu
        grad = grids.fd_jets(g, values)[1]
        yi = g.interior_coords()
        mui = np.sqrt(1.0 + np.sum(yi * yi, axis=1))
        exact = -yi / mui[:, None] ** 3
        errs.append(np.max(np.abs(grad - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_covariant_hessian_convergence_order():
    # second-order convergence of Hess u for a smooth non-polynomial field,
    # observed over three successive halvings
    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        g = grids.build_cap_domain(np.pi / 4, h)
        y = g.coords
        values = np.sin(y[:, 0] + 0.5 * y[:, 1]) + 0.3 * y[:, 0] * y[:, 1]
        hess = grids.covariant_jets(g, values)[2]
        yi = g.interior_coords()
        s = np.sin(yi[:, 0] + 0.5 * yi[:, 1])
        exact_pl = np.empty_like(hess)
        exact_pl[:, 0, 0] = -s
        exact_pl[:, 0, 1] = -0.5 * s + 0.3
        exact_pl[:, 1, 0] = exact_pl[:, 0, 1]
        exact_pl[:, 1, 1] = -0.25 * s
        grad = np.stack(
            [np.cos(yi[:, 0] + 0.5 * yi[:, 1]) + 0.3 * yi[:, 1],
             0.5 * np.cos(yi[:, 0] + 0.5 * yi[:, 1]) + 0.3 * yi[:, 0]],
            axis=1,
        )
        gamma = ch.christoffel(g.chart, yi)
        exact = exact_pl - np.einsum("nijk,nk->nij", gamma, grad)
        errs.append(np.max(np.abs(hess - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_first_harmonics_annihilate_convexity_operator():
    # restrictions of ambient linear functions, u = (by . y + b3)/mu, lie in
    # the kernel of Hess + sigma; the discrete residual decays at order 2
    b = np.array([0.3, -0.7, 0.55])
    errs = []
    for h in (0.1, 0.05, 0.025):
        g = grids.build_cap_domain(np.pi / 4, h)
        y = g.coords
        mu = np.sqrt(1.0 + np.sum(y * y, axis=1))
        values = (y @ b[:2] + b[2]) / mu
        conv = convexity_matrix(g, values)
        errs.append(np.max(np.abs(conv)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)
    assert errs[-1] < 5e-4


def test_convexity_fast_path_matches_direct(rng, cap_grid):
    for _ in range(20):
        k = rng.uniform(-2, 2, 2)
        values = np.cos(cap_grid.coords @ k) + 1.5
        direct = convexity_matrix(cap_grid, values)
        fast = convexity_matrix_fast(cap_grid, values)
        assert np.max(np.abs(direct - fast)) < 1e-10


def test_convexity_fast_path_plane_chart(rng):
    mask = np.ones((30, 30), dtype=bool)
    g = grids.build_from_mask(mask, 0.04, origin=np.array([-0.6, -0.6]),
                              chart=ch.plane_chart(2))
    for _ in range(10):
        k = rng.uniform(-2, 2, 2)
        values = np.cos(g.coords @ k) + 1.5
        direct = convexity_matrix(g, values)
        fast = convexity_matrix_fast(g, values)
        assert np.max(np.abs(direct - fast)) < 1e-10


def test_constant_positive_field_convexity(cap_grid):
    values = np.full(cap_grid.n_nodes, 2.0)
    conv = convexity_matrix(cap_grid, values)
    sigma = ch.chart_metric(cap_grid.chart, cap_grid.interior_coords())[0]
    assert np.max(np.abs(conv - 2.0 * sigma)) < 1e-14
    assert np.all(np.linalg.eigvalsh(conv) > 0)


def test_neighbor_ids_mark_missing_lattice_points(cap_grid):
    # the stencil box is the neighbor table of the interior nodes
    offs = grids.box_offsets(2)
    assert np.array_equal(grids.neighbor_ids(cap_grid, cap_grid.interior_ids, offs), cap_grid.box)
    # boundary nodes: -1 exactly where the lattice point is exterior
    ids = grids.neighbor_ids(cap_grid, cap_grid.boundary_ids, offs)
    assert np.all(np.any(ids < 0, axis=1))
    idx = cap_grid.node_index[cap_grid.boundary_ids][:, None, :] + offs[None, :, :]
    assert np.array_equal(ids, cap_grid.id_grid[tuple(np.moveaxis(idx, -1, 0))])
    # nodes on the lattice edge: points off the lattice read -1
    status = np.full((3, 3), grids.BOUNDARY)
    status[1, 1] = grids.INTERIOR
    g = grids._finalize(ch.gnomonic_chart(2), 0.1, np.zeros(2), status)
    corner = grids.neighbor_ids(g, [0], offs)[0].reshape(3, 3)
    expect = np.full((3, 3), -1)
    expect[1:, 1:] = [[0, 1], [3, 4]]
    assert np.array_equal(corner, expect)
    # an interior node on the lattice edge is refused, its stencil not wrapped
    # around to the opposite edge
    status[0, 1] = grids.INTERIOR
    with pytest.raises(AssemblyError):
        grids._finalize(ch.gnomonic_chart(2), 0.1, np.zeros(2), status)


def test_boundary_gradient_matches_the_loop(rng, cap_grid):
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:6] = True
    mask[6:10, 2:10] = True
    l_shape = grids.build_from_mask(mask, 0.05, origin=np.array([-0.3, -0.3]))
    for g in (cap_grid, l_shape, grids.build_cap_domain(np.pi / 5, 0.12, n=3)):
        values = rng.normal(size=g.n_nodes)
        assert np.array_equal(grids.boundary_gradient_estimate(g, values),
                              boundary_gradient_loop(g, values))


def test_grid_serialization_round_trip(tmp_path, cap_grid, rng):
    values = 1.5 + 0.1 * np.sin(cap_grid.coords[:, 0])
    field = grids.GraphField(cap_grid, values, "u")
    path = tmp_path / "g.grid"
    grids.save_grid(path, cap_grid, field, space_form=-1)
    g2, f2, sf = grids.load_grid(path)
    assert sf == -1
    assert f2.representation == "u"
    assert g2.n_nodes == cap_grid.n_nodes
    assert np.array_equal(g2.node_class, cap_grid.node_class)
    assert np.array_equal(g2.interior_ids, cap_grid.interior_ids)
    assert np.array_equal(f2.values, values)  # bit-exact floats via repr
    assert np.allclose(g2.coords, cap_grid.coords)
    assert g2.chart.kind == cap_grid.chart.kind


def _swap_ids(lines):
    # the rows of nodes 4 and 5 trade ids: each row's value would sit on the other node
    a = next(i for i, ln in enumerate(lines) if ln.startswith("4 "))
    lines[a], lines[a + 1] = "5" + lines[a][1:], "4" + lines[a + 1][1:]
    return lines


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [ln for ln in lines if not ln.startswith("dim ")],
     "grid file has no 'dim' header line"),
    (lambda lines: [("h x0.1" if ln.startswith("h ") else ln) for ln in lines],
     "grid header 'h' must be a finite spacing > 0, got 'x0.1'"),
    (lambda lines: [re.sub(" (interior|boundary) ", " inside ", ln) if ln.startswith("7 ") else ln
                    for ln in lines], "grid node row 7 must be"),
    (lambda lines: lines[:-3], "node rows, header says"),
    (_swap_ids, "grid node row 4 has id 5"),
], ids=["dim-missing", "h-text", "class-unknown", "rows-cut", "ids-swapped"])
def test_load_grid_names_the_bad_key_or_row(tmp_path, cap_grid, edit, message):
    # each malformed file is a ParseError, never a KeyError, a bare
    # ValueError, an AssemblyError or a field whose values sit on other nodes
    path = tmp_path / "g.grid"
    field = grids.GraphField(cap_grid, np.arange(cap_grid.n_nodes, dtype=float), "rho")
    grids.save_grid(path, cap_grid, field, space_form=0)
    assert np.array_equal(grids.load_grid(path)[1].values, field.values)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        grids.load_grid(path)


def test_field_representation_validation(cap_grid):
    with pytest.raises(ValueError):
        grids.GraphField(cap_grid, np.zeros(cap_grid.n_nodes), "w")
    with pytest.raises(ValueError):
        grids.GraphField(cap_grid, np.zeros(3), "u")


def test_n3_cap_domain_smoke():
    g = grids.build_cap_domain(np.pi / 5, 0.12, n=3)
    assert g.dim == 3
    assert g.box.shape[1] == 27
    values = np.full(g.n_nodes, 1.0)
    conv = convexity_matrix(g, values)
    assert np.all(np.linalg.eigvalsh(conv) > 0)


def _nested_caps(coarse_across, n):
    """Cap grids of coarse_across and 2 coarse_across - 1 nodes across the pi/5 disk."""
    h = 2.0 * np.tan(np.pi / 5) / (2 * coarse_across - 2)
    return tuple(grids.build_cap_domain(np.pi / 5, s, n=n) for s in (2.0 * h, h))


def _cubic_stencil_fits(coarse, fine):
    """Fine nodes whose tensor 4-point stencil has no exterior coarse lattice point."""
    shift = np.rint((coarse.origin - fine.origin) / fine.h).astype(int)
    rel = fine.node_index - shift
    fits = np.ones(fine.n_nodes, dtype=bool)
    for node, j in enumerate(rel):
        axes = [[j[a] // 2] if j[a] % 2 == 0 else [j[a] // 2 + d for d in (-1, 0, 1, 2)]
                for a in range(fine.dim)]
        for point in itertools.product(*axes):
            inside = all(0 <= p < s for p, s in zip(point, coarse.lattice_shape))
            if not inside or coarse.status[point] == grids.EXTERIOR:
                fits[node] = False
                break
    return fits


@pytest.mark.parametrize("n, coarse_across", [(2, 21), (3, 11)])
def test_prolong_reproduces_cubics_where_the_stencil_fits(n, coarse_across):
    coarse, fine = _nested_caps(coarse_across, n)

    def cubic(y):
        return 1.0 + 0.3 * y[:, 0] ** 3 - 0.7 * y[:, 0] ** 2 * y[:, 1] + 0.2 * y[:, 1] ** 2 \
            + 0.1 * y[:, 0] * y[:, -1] ** 2 + y[:, -1] ** 3 - 0.4 * y[:, 1]

    def quadratic(y):
        return 0.5 + y[:, 0] ** 2 - 0.3 * y[:, 0] * y[:, -1] + 0.2 * y[:, 1]

    fits = _cubic_stencil_fits(coarse, fine)
    assert fits[fine.interior_ids].mean() > 0.6
    out = grids.prolong(coarse, cubic(coarse.coords), fine)
    assert np.max(np.abs(out - cubic(fine.coords))[fits]) <= 1e-13
    # the one-sided quadratic and the (3, -3, 1) fill reproduce quadratics
    # wherever a value is given, which is at every interior node
    out = grids.prolong(coarse, quadratic(coarse.coords), fine)
    given = ~np.isnan(out)
    assert np.all(given[fine.interior_ids]) and np.all(given | ~fits)
    assert np.max(np.abs(out - quadratic(fine.coords))[given]) <= 1e-13


@pytest.mark.parametrize("coarse_across", [21, 41])
def test_prolong_gives_every_interior_node_a_value(coarse_across):
    coarse, fine = _nested_caps(coarse_across, 2)
    out = grids.prolong(coarse, np.ones(coarse.n_nodes), fine)
    assert not np.any(np.isnan(out[fine.interior_ids]))
    # coarse nodes keep their values on the fine lattice
    assert np.all(out[~np.isnan(out)] == 1.0)


@pytest.mark.parametrize("n, h", [(2, 0.07), (2, 0.05), (3, 0.14), (3, 0.1), (3, 0.07), (3, 0.05)])
def test_prolong_fills_every_interior_node_next_to_the_rim(n, h):
    # at n = 3, h = 0.07 and 0.05 the axis passes leave interior nodes next
    # to the rim without a value (30 and 24); the fill gives each one, and
    # reproduces quadratics there
    coarse, fine = (grids.build_cap_domain(np.pi / 5, s, n=n) for s in (2.0 * h, h))

    def quadratic(y):
        return 0.5 + y[:, 0] ** 2 - 0.3 * y[:, 0] * y[:, -1] + 0.2 * y[:, 1] - 0.4 * y[:, -1] ** 2

    out = grids.prolong(coarse, quadratic(coarse.coords), fine)[fine.interior_ids]
    assert not np.any(np.isnan(out))
    assert np.max(np.abs(out - quadratic(fine.interior_coords()))) <= 1e-13


def test_prolong_refuses_lattices_that_do_not_nest():
    coarse, fine = _nested_caps(21, 2)
    with pytest.raises(AssemblyError):
        grids.prolong(fine, np.ones(fine.n_nodes), fine)


@pytest.mark.parametrize("n, coarse_across", [(2, 21), (3, 11)])
def test_nested_interior_ids_pair_coarse_and_fine_nodes(n, coarse_across):
    # coarse index k sits at fine index 2k + nesting_shift: each coarse
    # interior node lands on a fine interior node at the same chart point
    coarse, fine = _nested_caps(coarse_across, n)
    ids = grids.nested_interior_ids(coarse, fine)
    assert ids.shape == coarse.interior_ids.shape
    assert np.all(ids >= 0) and np.all(fine.node_class[ids] == grids.INTERIOR)
    assert np.max(np.abs(fine.coords[ids] - coarse.interior_coords())) <= 1e-12
