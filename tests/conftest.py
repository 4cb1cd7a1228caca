"""Shared generators for randomized admissible states and fields."""

import sys

import numpy as np
import pytest

from weingarten import grids
from weingarten.spaceform import AmbientProfile, SpaceFormParams, profile
from reference import convexity_matrix


def random_admissible_slots(rng, n, ambient: AmbientProfile, count=1,
                            u_range=(1.4, 2.5), p_scale=0.4):
    """Random (u, p, r) frame jets with Hess u + u I positive definite.

    Positive definiteness of the convexity matrix makes the state strictly
    locally convex, hence admissible in every Gamma_k.
    """
    u = rng.uniform(*u_range, count) + ambient.u_floor
    p = rng.normal(0.0, p_scale, (count, n))
    r = np.empty((count, n, n))
    for i in range(count):
        B = rng.normal(0.0, 0.4, (n, n))
        S = B @ B.T + 0.1 * np.eye(n)
        r[i] = S - u[i] * np.eye(n)
    return u, p, r


def smooth_bump(coords, rng, modes=3, scale=1.0):
    """Low-frequency trigonometric field on chart coordinates."""
    n = coords.shape[1]
    out = np.zeros(coords.shape[0])
    for _ in range(modes):
        k = rng.uniform(-2.0, 2.0, n)
        phase = rng.uniform(0, 2 * np.pi)
        out += rng.uniform(-1.0, 1.0) * np.cos(coords @ k + phase)
    return scale * out / modes


def random_admissible_u_field(grid, sf: SpaceFormParams, rng, base=None, amp=0.15):
    """Smooth u-field kept strictly locally convex by shrinking the bump."""
    amb = profile(sf)
    if base is None:
        base = 1.8 + amb.u_floor
    bump = smooth_bump(grid.coords, rng)
    for _ in range(40):
        u = base * (1.0 + amp * bump)
        if np.min(u) > amb.u_floor + 1e-6:
            conv = convexity_matrix(grid, u)
            eig = np.linalg.eigvalsh(conv)
            if eig.min() > 1e-8:
                return u
        amp *= 0.5
    raise AssertionError("could not build an admissible random field")


def refuse_eigensolves(monkeypatch):
    """Make every eigenvalue routine raise: each binding of symeig.eigh_descending
    and symeig.eigvals_descending in the package (the latter's 2x2 closed form
    calls no numpy routine), and numpy.linalg.eigh and numpy.linalg.eigvalsh
    themselves."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve where none is needed")

    for name, module in list(sys.modules.items()):
        for routine in ("eigh_descending", "eigvals_descending"):
            if name.startswith("weingarten") and hasattr(module, routine):
                monkeypatch.setattr(module, routine, refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def cap_grid():
    return grids.build_cap_domain(np.pi / 5, 0.05)


@pytest.fixture(scope="session")
def cap_grid_fine():
    return grids.build_cap_domain(np.pi / 5, 0.025)
