"""Chart metric, Christoffel symbols, square roots, embeddings."""

import numpy as np
import pytest

from weingarten import charts as ch
from reference import sqrt_metric


def test_gnomonic_center_is_flat():
    chart = ch.gnomonic_chart(2)
    sigma, sigma_inv, mu = ch.chart_metric(chart, np.zeros((1, 2)))
    assert np.allclose(sigma[0], np.eye(2))
    assert np.allclose(sigma_inv[0], np.eye(2))
    assert mu[0] == 1.0
    assert np.allclose(ch.christoffel(chart, np.zeros((1, 2)))[0], 0.0)


def test_gnomonic_metric_example():
    chart = ch.gnomonic_chart(2)
    y = np.array([[1.0, 0.0]])
    _, sigma_inv, mu = ch.chart_metric(chart, y)
    assert mu[0] ** 2 == pytest.approx(2.0)
    assert sigma_inv[0, 0, 0] == pytest.approx(4.0)
    assert sigma_inv[0, 1, 1] == pytest.approx(2.0)
    assert sigma_inv[0, 0, 1] == 0.0


def test_christoffel_example():
    chart = ch.gnomonic_chart(2)
    g = ch.christoffel(chart, np.array([[1.0, 0.0]]))[0]
    assert g[0, 0, 0] == pytest.approx(-1.0)  # Gamma_11^1 = -2 y_1 / mu^2
    assert np.allclose(g, np.swapaxes(g, 0, 1))


def test_metric_inverse_identity(rng):
    for chart in (ch.gnomonic_chart(2), ch.plane_chart(2), ch.gnomonic_chart(3)):
        y = rng.uniform(-1.2, 1.2, (100, chart.dim))
        sigma, sigma_inv, _ = ch.chart_metric(chart, y)
        prod = np.einsum("nik,nkj->nij", sigma, sigma_inv)
        assert np.max(np.abs(prod - np.eye(chart.dim))) < 1e-13


def test_sqrt_factors(rng):
    for chart in (ch.gnomonic_chart(2), ch.plane_chart(2), ch.gnomonic_chart(3)):
        y = rng.uniform(-1.2, 1.2, (60, chart.dim))
        sigma, _, _ = ch.chart_metric(chart, y)
        R = sqrt_metric(chart, y)
        B = ch.inv_sqrt_metric(chart, y)
        assert np.max(np.abs(np.einsum("nik,nkj->nij", R, R) - sigma)) < 1e-13
        ident = np.einsum("nik,nkl,nlj->nij", B, sigma, B)
        assert np.max(np.abs(ident - np.eye(chart.dim))) < 1e-12


def test_metric_compatibility_fd(rng):
    # covariant derivative of the metric vanishes: d_k sigma_ij = G_ki^l s_lj + G_kj^l s_il
    d = 1e-5
    for chart in (ch.gnomonic_chart(2), ch.plane_chart(2)):
        y0 = rng.uniform(-0.8, 0.8, (20, chart.dim))
        gamma = ch.christoffel(chart, y0)
        sigma0, _, _ = ch.chart_metric(chart, y0)
        for k in range(chart.dim):
            dy = np.zeros_like(y0)
            dy[:, k] = d
            sp, _, _ = ch.chart_metric(chart, y0 + dy)
            sm, _, _ = ch.chart_metric(chart, y0 - dy)
            d_sigma = (sp - sm) / (2 * d)
            corr = np.einsum("nil,nlj->nij", gamma[:, k, :, :], sigma0) + np.einsum(
                "njl,nil->nij", gamma[:, k, :, :], sigma0
            )
            assert np.max(np.abs(d_sigma - corr)) < 1e-8


def test_embeddings_land_on_sphere(rng):
    for chart in (ch.gnomonic_chart(2), ch.plane_chart(2), ch.gnomonic_chart(3)):
        y = rng.uniform(-1.5, 1.5, (50, chart.dim))
        z = ch.embed(chart, y)
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-13


def test_embedding_pullback_is_chart_metric(rng):
    # finite-difference pullback of the round metric equals the closed form
    d = 1e-5
    for chart in (ch.gnomonic_chart(2), ch.plane_chart(2)):
        y0 = rng.uniform(-0.7, 0.7, (10, chart.dim))
        sigma, _, _ = ch.chart_metric(chart, y0)
        jac = np.empty((10, chart.dim + 1, chart.dim))
        for k in range(chart.dim):
            dy = np.zeros_like(y0)
            dy[:, k] = d
            jac[:, :, k] = (ch.embed(chart, y0 + dy) - ch.embed(chart, y0 - dy)) / (2 * d)
        pullback = np.einsum("nai,naj->nij", jac, jac)
        assert np.max(np.abs(pullback - sigma)) < 1e-8


def test_gnomonic_center_direction():
    chart = ch.gnomonic_chart(2)
    assert np.allclose(ch.embed(chart, np.zeros((1, 2)))[0], chart.center)
    off = ch.gnomonic_chart(2, center=np.array([0.0, 1.0, 0.0]))
    assert np.allclose(ch.embed(off, np.zeros((1, 2)))[0], off.center)


def test_plane_chart_south_pole():
    chart = ch.plane_chart(2)
    z = ch.embed(chart, np.zeros((1, 2)))[0]
    assert np.allclose(z, [0.0, 0.0, -1.0])


def test_cap_radius():
    assert ch.cap_radius_in_chart(np.pi / 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ch.cap_radius_in_chart(np.pi / 2)


def test_chart_validation():
    with pytest.raises(ValueError):
        ch.Chart("mercator", 2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ch.Chart(ch.GNOMONIC, 2, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        ch.Chart(ch.GNOMONIC, 1, np.array([0.0, 1.0]))
