"""Scalar functions of the three space forms and their changes of variables.

The ambient space is modeled as (R^{n+1}, d rho^2 + phi^2(rho) sigma) with

    phi(rho) = rho, sin(rho), sinh(rho)      for K = 0, +1, -1.

Two substitutions are used throughout: rho = zeta(u) turns the convexity
condition into "Hess u + u sigma > 0", and u = eta(v) gives the variable in
which the continuation drivers run; xi(v) weights the auxiliary equation.
The solver never evaluates phi as a function of rho: AmbientProfile gives
phi, phi', zeta', zeta'' as closed forms in u, for the three space forms and
for the deformation family sin(t rho)/t, which interpolates the Euclidean
model (t = 0) to the upper hemisphere (t = 1).

All functions accept scalars or numpy arrays and enforce strict ranges with the
margin RANGE_MARGIN so that derivative formulas stay finite near endpoints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainRangeError

RANGE_MARGIN = 1e-12


@dataclass(frozen=True)
class SpaceFormParams:
    """Which space form: K in {-1, 0, +1}."""

    K: int

    def __post_init__(self):
        if self.K not in (-1, 0, 1):
            raise DomainRangeError(f"space form label K={self.K} not in {{-1, 0, 1}}")


@dataclass(frozen=True)
class VariableRanges:
    """Open ranges (0, rho_upper), (u_lower, inf), (v_lower, inf) of the three variables."""

    rho_upper: float
    u_lower: float
    v_lower: float


_RANGES = {
    0: VariableRanges(rho_upper=np.inf, u_lower=0.0, v_lower=-np.inf),
    1: VariableRanges(rho_upper=np.pi / 2, u_lower=0.0, v_lower=0.0),
    -1: VariableRanges(rho_upper=np.inf, u_lower=1.0, v_lower=0.0),
}


def ranges(sf: SpaceFormParams) -> VariableRanges:
    return _RANGES[sf.K]


def _check(name, x, lower, upper):
    x = np.asarray(x, dtype=float)
    if np.isfinite(lower):
        bad = x <= lower + RANGE_MARGIN
    else:
        bad = ~np.isfinite(x)
    if np.any(bad):
        worst = np.min(x) if np.isfinite(lower) else x[bad].flat[0]
        raise DomainRangeError(
            f"{name}={worst!r} outside ({lower}, {upper}): must exceed {lower} by margin {RANGE_MARGIN}"
        )
    if np.isfinite(upper):
        bad = x >= upper - RANGE_MARGIN
        if np.any(bad):
            raise DomainRangeError(
                f"{name}={np.max(x)!r} outside ({lower}, {upper}): must stay below {upper} by margin {RANGE_MARGIN}"
            )
    return x


def _check_rho(sf, rho):
    return _check("rho", rho, 0.0, ranges(sf).rho_upper)


def _check_u(sf, u):
    return _check("u", u, ranges(sf).u_lower, np.inf)


def _check_v(sf, v):
    return _check("v", v, ranges(sf).v_lower, np.inf)


def zeta(sf: SpaceFormParams, u):
    """rho = zeta(u): 1/u, arccot(u), arccoth(u) for K = 0, 1, -1.  Decreasing."""
    return profile(sf).rho_u(_check_u(sf, u))


def zeta_inverse(sf: SpaceFormParams, rho):
    """u with zeta(u) = rho: 1/rho, cot(rho), coth(rho)."""
    rho = _check_rho(sf, rho)
    if sf.K == 0:
        return 1.0 / rho
    if sf.K == 1:
        return np.cos(rho) / np.sin(rho)
    return np.cosh(rho) / np.sinh(rho)


def eta(sf: SpaceFormParams, v):
    """u = eta(v): exp(v), sinh(v), cosh(v) for K = 0, 1, -1; eta'' = eta for each."""
    v = _check_v(sf, v)
    if sf.K == 0:
        return np.exp(v)
    if sf.K == 1:
        return np.sinh(v)
    return np.cosh(v)


def eta_inverse(sf: SpaceFormParams, u):
    u = _check_u(sf, u)
    if sf.K == 0:
        return np.log(u)
    if sf.K == 1:
        return np.arcsinh(u)
    return np.arccosh(u)


def eta_prime(sf: SpaceFormParams, v):
    v = _check_v(sf, v)
    if sf.K == 0:
        return np.exp(v)
    if sf.K == 1:
        return np.cosh(v)
    return np.sinh(v)


def xi(sf: SpaceFormParams, v):
    """Auxiliary-equation weight: exp(2v) for K = 0, sinh(v) for K = -1."""
    if sf.K == 1:
        raise DomainRangeError("xi is defined for K in {0, -1} only; the spherical path uses its own homotopy")
    v = _check_v(sf, v)
    if sf.K == 0:
        return np.exp(2.0 * v)
    return np.sinh(v)


def xi_prime(sf: SpaceFormParams, v):
    if sf.K == 1:
        raise DomainRangeError("xi is defined for K in {0, -1} only; the spherical path uses its own homotopy")
    v = _check_v(sf, v)
    if sf.K == 0:
        return 2.0 * np.exp(2.0 * v)
    return np.cosh(v)


def _check_t(t):
    if t < 0.0 or t > 1.0:
        raise DomainRangeError(f"deformation parameter t={t} outside [0, 1]")
    return float(t)


@dataclass(frozen=True)
class AmbientProfile:
    """Closed forms of (phi, phi', zeta', zeta'') as functions of u.

    Under rho = zeta(u) the three branches and the deformation family share
    one algebra: with ka = K (space forms) or ka = t^2 (deformed metric),

        phi = 1/sqrt(u^2 + ka),  phi' = u phi,  zeta' = -phi^2,  zeta'' = 2u phi^4.

    Geometry and linearization are written once against this profile.
    """

    curvature: float

    @property
    def u_floor(self) -> float:
        return float(np.sqrt(-self.curvature)) if self.curvature < 0 else 0.0

    def check_u(self, u):
        return _check("u", u, self.u_floor, np.inf)

    def phi_u(self, u):
        return 1.0 / np.sqrt(u * u + self.curvature)

    def phi_prime_u(self, u):
        return u / np.sqrt(u * u + self.curvature)

    def zeta_prime_u(self, u):
        return -1.0 / (u * u + self.curvature)

    def zeta_second_u(self, u):
        return 2.0 * u / (u * u + self.curvature) ** 2

    def rho_u(self, u):
        """Radial distance: zeta branch for exact forms, arccot(u/t)/t for deformed."""
        ka = self.curvature
        if ka == 0.0:
            return 1.0 / u
        if ka > 0:
            t = np.sqrt(ka)
            return np.arctan2(1.0, u / t) / t
        return 0.5 * np.log((u + 1.0) / (u - 1.0))


def profile(sf: SpaceFormParams) -> AmbientProfile:
    return AmbientProfile(float(sf.K))


def profile_deformed(t) -> AmbientProfile:
    t = _check_t(t)
    return AmbientProfile(t * t)
