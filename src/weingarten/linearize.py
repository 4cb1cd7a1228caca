"""Analytic coefficients of the linearized curvature operator and assembly.

For the u-representation operator G(r, p, u) = f(kappa[a(r, p, u)]) the
derivative blocks are closed-form:

    G^{ij} = (-phi zeta'/w) F^{kl} gamma^{ik} gamma^{jl}
    G^s    = -2 zeta'^2 (w gamma^{is} u_q + phi gamma^{qs} u_i) / (w(phi+w)) F^{ij} a_{qj}
             - (zeta'^2 u_s / w^2) F^{ij} a_{ij}
    G_u    = -2 (phi phi' zeta' g^{iq} + zeta' zeta'' u_i u_q / w^2) F^{ij} a_{qj}
             + (phi' zeta'/phi - phi phi' zeta'/w^2 + phi^2 zeta''/(zeta' w^2)) F^{ij} a_{ij}
             - (phi zeta'/w) F^{ij} g^{ij}

with w = sqrt(phi^2 + zeta'^2 |Du|^2) and F^{ij} = df/da_ij, which
symfunc.f_and_F gives from a without an eigensolve.
The v-representation blocks follow on every profile by the pointwise chain
rule u = eta(v), since eta'' = eta and eta''' = eta' for exp, sinh and cosh:

    G^{ij}_v = eta' G^{ij},   G^s_v = eta' G^s + 2 eta G^{sj} v_j,
    G_v = G^{ij} (eta v_ij + eta' v_i v_j) + eta G^s v_s + eta' G_u.

All formulas are in orthonormal frame components; `to_coordinate` converts the
blocks for assembly against plain finite-difference stencils.  The index sums
run as products of the (N, n, n) stacks by symeig.mm (written out for 2x2
stacks and for products with a vector, numpy's matmul otherwise):
G^{ij} from gamma F gamma^T, the two G^s sums as gamma^T (F a^T) p and
gamma^T (F a^T)^T p, and A2 = B G B; tests/reference.py keeps them as einsum.
scipy.sparse is imported inside assemble_jacobian, its one user, so that
importing the package does not pay for it.
"""

from dataclasses import dataclass

import numpy as np

from . import grids
from .geometry import GeometryState
from .symeig import mm


@dataclass
class LinearizedCoefficients:
    """Frame-level derivative blocks of the scalar operator at a batch of states."""

    Gij: np.ndarray   # (N, n, n) second-order block, positive definite when admissible
    Gs: np.ndarray    # (N, n) gradient block
    Gu: np.ndarray    # (N,) zero-order block


def _T(m):
    """Transpose of each matrix in an (..., n, n) stack (a view)."""
    return np.swapaxes(m, -1, -2)


def coefficients_u(state: GeometryState, F) -> LinearizedCoefficients:
    """Closed-form blocks for the u-representation operator.

    F is the (N, n, n) derivative df/da at state.a, as f_and_F returns it.
    """
    amb = state.ambient
    u, p = state.u, state.p
    phi, w = state.phi, state.w
    zp = amb.zeta_prime_u(u)
    zpp = amb.zeta_second_u(u)
    php = amb.phi_prime_u(u)
    gup, gmat_up, a = state.gamma_up, state.g_up, state.a
    Fa = mm(F, _T(a))
    trFa = np.einsum("...ii->...", Fa)

    Gij = (-phi * zp / w)[..., None, None] * mm(mm(gup, F), _T(gup))

    pc = p[..., None]         # p as a column of each stack
    Fap = mm(Fa, pc)
    gFap = mm(_T(gup), Fap)[..., 0]
    gaFp = mm(_T(gup), mm(_T(Fa), pc))[..., 0]
    Gs = (
        -2.0 * (zp**2 / (w * (phi + w)))[..., None] * (w[..., None] * gFap + phi[..., None] * gaFp)
        - (zp**2 / w**2)[..., None] * trFa[..., None] * p
    )

    t1 = np.einsum("...iq,...iq->...", (phi * php * zp)[..., None, None] * gmat_up, Fa)
    t1 = t1 + (zp * zpp / w**2) * np.einsum("...i,...i->...", p, Fap[..., 0])
    Gu = (
        -2.0 * t1
        + (php * zp / phi - phi * php * zp / w**2 + phi**2 * zpp / (zp * w**2)) * trFa
        - (phi * zp / w) * np.einsum("...ij,...ij->...", F, gmat_up)
    )
    return LinearizedCoefficients(Gij=Gij, Gs=Gs, Gu=Gu)


def coefficients_v(lc_u: LinearizedCoefficients, e, ep, p_v, r_v) -> LinearizedCoefficients:
    """Blocks of v -> G[eta(v)] from the u-blocks lc_u; e = eta(v), ep = eta'(v),
    and p_v, r_v the frame gradient and covariant Hessian of v."""
    Gij = ep[..., None, None] * lc_u.Gij
    Gs = ep[..., None] * lc_u.Gs + 2.0 * e[..., None] * np.einsum("...ij,...j->...i", lc_u.Gij, p_v)
    dr_dv = e[..., None, None] * r_v + ep[..., None, None] * (p_v[..., :, None] * p_v[..., None, :])
    Gv = (np.einsum("...ij,...ij->...", lc_u.Gij, dr_dv)
          + e * np.einsum("...s,...s->...", lc_u.Gs, p_v) + ep * lc_u.Gu)
    return LinearizedCoefficients(Gij=Gij, Gs=Gs, Gu=Gv)


# perfbench/layers.py still names this in its span list; it goes when that list next changes
exp_chain_blocks = coefficients_v


# ---------------------------------------------------------------------------
# coordinate-level blocks and sparse assembly

def to_coordinate(lc: LinearizedCoefficients, grid) -> tuple:
    """Convert frame blocks to coefficients on plain coordinate stencils.

    Returns (A2, b1, c): residual sensitivity to second partials d_kl u, first
    partials d_m u, and the node value.  The Christoffel correction of the
    covariant Hessian is folded into b1.
    """
    gamma, B = grids.chart_quantities(grid)
    A2 = mm(mm(B, lc.Gij), B)
    b1 = np.einsum("nmi,ni->nm", B, lc.Gs) - np.einsum("nij,nijm->nm", A2, gamma)
    return A2, b1, lc.Gu.copy()


@grids.per_grid
def _jacobian_pattern(grid):
    """CSC index arrays of the interior Jacobian and its box-entry map, one per grid.

    Rows and columns follow grid.interior_ids, which is in nested-dissection
    order, so the matrix is factored as stored, with no fill-reducing
    permutation of its own (continuity.FAST_LU).
    Returns (indptr, indices, perm): entry perm[j] of the row-major
    (N_int, 3^n) box entries is the j-th stored CSC value.  Box slots on
    Dirichlet nodes are dropped; the box offsets are distinct, so no two
    entries share a position.
    """
    n_int = grid.n_interior
    m = grid.box.shape[1]
    interior_slot = np.full(grid.n_nodes, -1, dtype=int)
    interior_slot[grid.interior_ids] = np.arange(n_int)
    rows = np.repeat(np.arange(n_int), m)
    cols = interior_slot[grid.box.reshape(-1)]
    keep = np.flatnonzero(cols >= 0)
    perm = keep[np.lexsort((rows[keep], cols[keep]))]
    indptr = np.zeros(n_int + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[perm], minlength=n_int), out=indptr[1:])
    return indptr, rows[perm].astype(np.int32), perm


def assemble_jacobian(grid, A2, b1, c) -> "scipy.sparse.csc_matrix":
    """Sparse CSC Jacobian over interior unknowns from coordinate-level blocks.

    Dirichlet boundary nodes are eliminated: their columns never enter (the
    boundary values are fixed data, so the corresponding increments vanish).
    The sparsity pattern is computed once per grid; each call only fills in
    the values.
    """
    import scipy.sparse as sp

    W1, W2 = grids._jet_weights(grid)
    m = grid.box.shape[1]
    entries = np.einsum("nkl,klo->no", A2, W2) + np.einsum("nm,mo->no", b1, W1)
    entries[:, m // 2] += c
    indptr, indices, perm = _jacobian_pattern(grid)
    n_int = grid.n_interior
    return sp.csc_matrix((entries.reshape(-1)[perm], indices, indptr), shape=(n_int, n_int))
