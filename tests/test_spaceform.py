"""Space-form scalar functions: branch values, round trips, identities."""

import numpy as np
import pytest

from weingarten.errors import DomainRangeError
from weingarten.spaceform import (
    SpaceFormParams,
    VariableRanges,
    eta,
    eta_inverse,
    eta_prime,
    profile,
    profile_deformed,
    ranges,
    xi,
    xi_prime,
    zeta,
    zeta_inverse,
)
from reference import capital_phi, phi, phi_prime, phi_t, zeta_prime, zeta_t

E = SpaceFormParams(0)
S = SpaceFormParams(1)
H = SpaceFormParams(-1)


def test_space_form_label_validation():
    with pytest.raises(DomainRangeError):
        SpaceFormParams(2)


def test_variable_ranges():
    assert ranges(E) == VariableRanges(np.inf, 0.0, -np.inf)
    assert ranges(S) == VariableRanges(np.pi / 2, 0.0, 0.0)
    assert ranges(H) == VariableRanges(np.inf, 1.0, 0.0)


def test_phi_branch_values():
    assert phi(E, 2.0) == 2.0
    assert phi_prime(E, 2.0) == 1.0
    assert phi(S, np.pi / 4) == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
    assert phi(H, 1.0) == pytest.approx(1.1752011936438014, abs=1e-12)


def test_phi_range_errors():
    with pytest.raises(DomainRangeError):
        phi(S, 1.6)
    with pytest.raises(DomainRangeError):
        phi(E, 0.0)
    with pytest.raises(DomainRangeError):
        phi(H, -0.5)


def test_zeta_branch_values():
    assert zeta(E, 2.0) == 0.5
    assert zeta(S, 1.0) == pytest.approx(np.pi / 4, abs=1e-15)


def test_zeta_round_trip_all_branches(rng):
    for sf in (E, S, H):
        hi = 1.4 if sf.K == 1 else 3.0
        rho = rng.uniform(0.1, hi, 100)
        assert np.max(np.abs(zeta(sf, zeta_inverse(sf, rho)) - rho)) < 1e-13
        u = zeta_inverse(sf, rho)
        assert np.max(np.abs(zeta_inverse(sf, zeta(sf, u)) - u)) < 1e-11
    # hyperbolic branch: u - 1 cancellation caps the round trip near 1.5e-14
    # at rho = 3 once u passes through a double; well inside the 1e-13 budget
    rho = rng.uniform(0.1, 3.0, 100)
    assert np.max(np.abs(zeta(H, zeta_inverse(H, rho)) - rho)) < 1e-13


def test_zeta_prime_negative_and_matches_fd(rng):
    for sf in (E, S, H):
        u = rng.uniform(0.5, 4.0, 50) + ranges(sf).u_lower
        zp = zeta_prime(sf, u)
        assert np.all(zp < 0)
        d = 1e-6
        fd = (zeta(sf, u + d) - zeta(sf, u - d)) / (2 * d)
        assert np.max(np.abs(fd - zp)) < 1e-8


def test_eta_values_and_identity(rng):
    assert eta(E, 0.0) == 1.0
    assert eta(H, 1.0) == pytest.approx(np.cosh(1.0), abs=1e-15)
    for sf in (E, S, H):
        v = rng.uniform(0.05, 3.0, 100)
        lhs = eta_prime(sf, v) ** 2 - eta(sf, v) ** 2
        assert np.max(np.abs(lhs - sf.K)) < 1e-12


def test_eta_round_trip(rng):
    for sf in (E, S, H):
        v = rng.uniform(0.05, 3.0, 100)
        assert np.max(np.abs(eta_inverse(sf, eta(sf, v)) - v)) < 1e-12


def test_eta_prime_positive(rng):
    for sf in (E, S, H):
        v = rng.uniform(1e-4, 3.0, 200)
        assert np.all(eta_prime(sf, v) > 0)


def test_xi_values_and_errors():
    assert xi(E, 0.0) == 1.0
    assert xi_prime(E, 0.0) == 2.0
    assert xi(H, 1.0) == pytest.approx(np.sinh(1.0), abs=1e-15)
    with pytest.raises(DomainRangeError):
        xi(S, 0.5)


def test_xi_ratio_closes_the_zero_order_sign(rng):
    # the sign argument needs xi'/xi >= eta/eta', strict for K = 0 where the
    # ambient term vanishes; for K = -1 the two ratios coincide (both coth v)
    # and strictness comes from the negative-curvature term instead.
    v = rng.uniform(0.05, 3.0, 100)
    ratio_xi_e = xi_prime(E, v) / xi(E, v)
    ratio_eta_e = eta(E, v) / eta_prime(E, v)
    assert np.all(ratio_xi_e > ratio_eta_e)
    ratio_xi_h = xi_prime(H, v) / xi(H, v)
    ratio_eta_h = eta(H, v) / eta_prime(H, v)
    assert np.max(np.abs(ratio_xi_h - ratio_eta_h)) < 1e-12


def test_phi_t_limits_and_values():
    assert phi_t(1.0, 0.7) == pytest.approx(np.sin(0.7), abs=1e-15)
    assert abs(phi_t(1e-4, 2.0) - 2.0) < 1e-6
    assert phi_t(0.0, 2.0) == 2.0
    assert zeta_t(0.5, 0.5) == pytest.approx(np.pi / 2, abs=1e-14)
    assert zeta_t(0.0, 2.0) == 0.5
    with pytest.raises(DomainRangeError):
        phi_t(1.5, 0.3)
    with pytest.raises(DomainRangeError):
        phi_t(-0.1, 0.3)


def test_phi_t_nonincreasing_in_t():
    rhos = np.linspace(0.1, 1.4, 9)
    ts = np.linspace(0.0, 1.0, 11)
    vals = np.array([[phi_t(t, r) for r in rhos] for t in ts])
    assert np.all(np.diff(vals, axis=0) <= 1e-14)


def test_capital_phi_values():
    assert capital_phi(E, 2.0) == 2.0
    assert capital_phi(S, np.pi / 2 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert capital_phi(H, 1.0) == pytest.approx(np.cosh(1.0) - 1.0, abs=1e-15)


def test_profile_matches_composition(rng):
    for sf in (E, S, H):
        amb = profile(sf)
        u = rng.uniform(0.5, 4.0, 50) + ranges(sf).u_lower
        rho = zeta(sf, u)
        assert np.max(np.abs(amb.phi_u(u) - phi(sf, rho))) < 1e-12
        assert np.max(np.abs(amb.phi_prime_u(u) - phi_prime(sf, rho))) < 1e-12
        assert np.max(np.abs(amb.zeta_prime_u(u) - zeta_prime(sf, u))) < 1e-13
        assert np.max(np.abs(amb.rho_u(u) - rho)) < 1e-13


def test_profile_deformed_interpolates(rng):
    u = rng.uniform(0.5, 3.0, 20)
    assert np.allclose(profile_deformed(0.0).phi_u(u), 1.0 / u)
    assert np.allclose(profile_deformed(1.0).phi_u(u), profile(S).phi_u(u))
    # zeta_t matches the deformed profile's rho
    amb = profile_deformed(0.5)
    assert np.max(np.abs(amb.rho_u(u) - zeta_t(0.5, u))) < 1e-14
