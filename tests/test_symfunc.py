"""Elementary symmetric functions, cones, f = sigma_n^{1/n}, eigensolvers.

The orders k other than n read the general-order f from tests/reference.py.
"""

import itertools

import numpy as np
import pytest

from weingarten.continuity import CONVEXITY_MARGIN
from weingarten.errors import AdmissibilityError
from weingarten.symeig import eigh_descending, eigvals_descending, mm, positive_definite
from weingarten.symfunc import all_sigmas, f_and_derivatives, f_and_F
from reference import F_matrix, f_k_and_gradient, in_gamma_k, sigma_km1_drop


def brute_sigma(kappa, k):
    return sum(np.prod(c) for c in itertools.combinations(kappa, k))


def test_sigma_small_cases():
    assert all_sigmas(np.array([1.0, 2.0, 3.0]))[2] == 11.0
    ones = np.ones(5)
    from math import comb

    for k in range(1, 6):
        assert all_sigmas(ones)[k] == comb(5, k)


def test_sigma_brute_force_equivalence(rng):
    for n in range(2, 7):
        kappa = rng.normal(0.0, 2.0, (200, n))
        e = all_sigmas(kappa)
        for k in range(1, n + 1):
            brute = np.array([brute_sigma(row, k) for row in kappa])
            assert np.max(np.abs(e[:, k] - brute)) < 1e-12 * np.maximum(
                1.0, np.abs(brute)
            ).max()


def test_sigma_drop_matches_brute(rng):
    for n in (2, 3, 4, 5):
        kappa = rng.normal(0.0, 1.5, (50, n))
        for k in range(1, n + 1):
            drop = sigma_km1_drop(kappa, k)
            for i in range(n):
                rows = np.delete(kappa, i, axis=1)
                brute = np.array([brute_sigma(row, k - 1) if k > 1 else 1.0 for row in rows])
                assert np.max(np.abs(drop[:, i] - brute)) < 1e-11


def test_cone_logic():
    assert in_gamma_k(np.array([3.0, -1.0]), 1)
    assert not in_gamma_k(np.array([3.0, -1.0]), 2)  # sigma_2 = -3
    assert all_sigmas(np.array([3.0, -1.0]))[2] == -3.0
    assert in_gamma_k(np.array([2.0, 1.0, 0.5]), 3)
    # the cone is open: sigma_k = 0 is outside
    assert not in_gamma_k(np.array([1.0, 0.0]), 2)


def test_convex_implies_every_cone(rng):
    kappa = np.abs(rng.normal(1.0, 0.5, (100, 4))) + 1e-3
    for k in range(1, 5):
        assert np.all(in_gamma_k(kappa, k))


def test_f_symmetric_point():
    from math import comb

    for n in (2, 3, 4):
        for k in range(1, n + 1):
            f, fi = f_k_and_gradient(np.ones(n), k)
            assert f == pytest.approx(comb(n, k) ** (1.0 / k), abs=1e-14)
            assert np.allclose(fi, fi[0])


def test_f_homogeneous(rng):
    kappa = np.abs(rng.normal(1.0, 0.4, (50, 3))) + 0.1
    for k in (1, 2, 3):
        f1, _ = f_k_and_gradient(kappa, k)
        f2, _ = f_k_and_gradient(2.0 * kappa, k)
        assert np.max(np.abs(f2 - 2.0 * f1)) < 1e-13 * np.max(np.abs(f2))


def test_f_gradient_vs_fd(rng):
    n = 4
    kappa = np.abs(rng.normal(1.5, 0.4, (30, n))) + 0.1
    for k in (2, 3):
        _, fi = f_k_and_gradient(kappa, k)
        d = 1e-6
        for i in range(n):
            dk = np.zeros(n)
            dk[i] = d
            fp, _ = f_k_and_gradient(kappa + dk, k)
            fm, _ = f_k_and_gradient(kappa - dk, k)
            fd = (fp - fm) / (2 * d)
            rel = np.abs(fd - fi[:, i]) / np.maximum(1.0, np.abs(fi[:, i]))
            assert rel.max() < 1e-7


def test_f_positive_gradient_and_cone_error(rng):
    kappa = np.abs(rng.normal(1.0, 0.5, (50, 3))) + 0.05
    _, fi = f_and_derivatives(kappa)
    assert np.all(fi > 0)
    with pytest.raises(AdmissibilityError):
        f_k_and_gradient(np.array([1.0, -2.0, 1.0]), 2)
    with pytest.raises(AdmissibilityError):
        f_and_derivatives(np.array([1.0, -2.0, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_f_of_sigma_n_is_the_product_and_its_gradient_subtracts_nothing(rng, n):
    # f is sigma_n^(1/n) of all_sigmas bit for bit, and f_i matches the
    # drop-one sums of the general-order reference on kappa spread over five
    # decades, where synthetic division e_j - kappa_i e_{j-1} loses digits
    kappa = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), (2000, n)))
    f, fi = f_and_derivatives(kappa)
    assert np.all(f == all_sigmas(kappa)[:, n] ** (1.0 / n))
    _, fi_ref = f_k_and_gradient(kappa, n)
    assert np.max(np.abs(fi - fi_ref) / fi_ref) <= 1e-14


def test_f_of_sigma_n_gradient_vs_fd(rng):
    for n in (2, 3, 4, 5):
        kappa = np.abs(rng.normal(1.5, 0.4, (30, n))) + 0.1
        _, fi = f_and_derivatives(kappa)
        d = 1e-6
        for i in range(n):
            dk = np.zeros(n)
            dk[i] = d
            fd = (f_and_derivatives(kappa + dk)[0] - f_and_derivatives(kappa - dk)[0]) / (2 * d)
            assert np.max(np.abs(fd - fi[:, i]) / np.maximum(1.0, np.abs(fi[:, i]))) < 1e-7


def test_f_concavity_spot(rng):
    n = 3
    for k in (2, 3):
        a = np.abs(rng.normal(1.0, 0.5, (500, n))) + 0.05
        b = np.abs(rng.normal(1.0, 0.5, (500, n))) + 0.05
        fm, _ = f_k_and_gradient(0.5 * (a + b), k)
        fa, _ = f_k_and_gradient(a, k)
        fb, _ = f_k_and_gradient(b, k)
        assert np.min(fm - 0.5 * (fa + fb)) > -1e-12


def test_eigh_matches_lapack_n3_up(rng):
    for n in (2, 3, 4, 6):
        a = rng.normal(0.0, 1.0, (100, n, n))
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        w, Q = eigh_descending(a)
        w_ref = np.sort(np.linalg.eigvalsh(a), axis=1)[:, ::-1]
        assert np.max(np.abs(w - w_ref)) < 1e-12
        recon = np.einsum("nik,nk,njk->nij", Q, w, Q)
        assert np.max(np.abs(recon - a)) < 1e-11
        orth = np.einsum("nki,nkj->nij", Q, Q)
        assert np.max(np.abs(orth - np.eye(n))) < 1e-13


def test_eigh_repeated_eigenvalues_n3(rng):
    R, _ = np.linalg.qr(rng.normal(0.0, 1.0, (3, 3)))
    cases = [
        (np.stack([R @ np.diag([2.0, 2.0, 1.0]) @ R.T, np.eye(3)]), [[2.0, 2.0, 1.0], [1.0, 1.0, 1.0]]),
        (2.0 * np.eye(2)[None], [[2.0, 2.0]]),
    ]
    for a, w_ref in cases:
        w, Q = eigh_descending(a)
        assert np.max(np.abs(w - w_ref)) < 1e-13
        recon = np.einsum("nik,nk,njk->nij", Q, w, Q)
        assert np.max(np.abs(recon - a)) < 1e-13
        orth = np.einsum("nki,nkj->nij", Q, Q)
        assert np.max(np.abs(orth - np.eye(a.shape[-1]))) < 1e-13


def test_eigvals_descending_matches_eigh(rng):
    # the 2x2 closed form and eigvalsh agree with LAPACK's eigh to rounding,
    # and both are exact on multiples of the identity
    for n in (2, 3, 4):
        a = rng.normal(0.0, 1.0, (300, n, n))
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        a = np.concatenate([a, np.broadcast_to(2.5 * np.eye(n), (2, n, n))])
        w, ref = eigvals_descending(a), eigh_descending(a)[0]
        assert w.shape == (302, n)
        assert np.max(np.abs(w - ref)) < 1e-13
        assert np.all(w[-2:] == 2.5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_positive_definite_agrees_with_eigvalsh(rng, n):
    # the Newton trial test S - margin I > 0, on stacks whose least
    # eigenvalue is half or twice the margin and the rest in [0.5, 2]
    margin = CONVEXITY_MARGIN
    q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (3000, n, n)))
    w = rng.uniform(0.5, 2.0, (3000, n))

    def stack(least):
        w[:, 0] = least
        s = (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)
        return 0.5 * (s + np.swapaxes(s, 1, 2)) - margin * np.eye(n)

    for least in (0.5 * margin, 2.0 * margin):
        a = stack(least)
        ref = np.linalg.eigvalsh(a)[:, 0] > 0.0
        assert np.all(ref == (least > margin))
        assert positive_definite(a) == (least > margin)
        assert all(positive_definite(a[i:i + 1]) == ref[i] for i in range(0, 3000, 97))
    # one node short of the margin in a stack of thousands
    good, bad = stack(2.0 * margin), stack(0.5 * margin)
    good[1234] = bad[1234]
    assert np.sum(np.linalg.eigvalsh(good)[:, 0] <= 0.0) == 1
    assert not positive_definite(good)
    good[1234] = np.eye(n)
    assert positive_definite(good)
    good[1234, n - 1, n - 1] = np.nan
    assert not positive_definite(good)


def test_F_matrix_identity_case():
    # a = I, k = n: f_i = 1/n at kappa = (1,...,1), so F = (1/n) I
    for n in (2, 3):
        F = F_matrix(np.eye(n)[None], n)[0]
        assert np.allclose(F, np.eye(n) / n, atol=1e-13)


def test_F_matrix_vs_fd(rng):
    n = 3
    k = 2
    for _ in range(10):
        B = rng.normal(0.0, 0.6, (n, n))
        a = B @ B.T + 0.2 * np.eye(n)
        F = F_matrix(a[None], k)[0]

        def Fval(mat):
            w = np.linalg.eigvalsh(mat)
            e2 = w[0] * w[1] + w[0] * w[2] + w[1] * w[2]
            return np.sqrt(e2)

        d = 1e-6
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                da = np.zeros((n, n))
                da[i, j] += d
                da[j, i] += d
                fd[i, j] = (Fval(a + da) - Fval(a - da)) / (4 * d)
        rel = np.max(np.abs(fd - F)) / max(1.0, np.max(np.abs(F)))
        assert rel < 1e-6


def test_F_contraction_bounded_by_f(rng):
    # sum f_i kappa_i <= f by concavity with f(0) = 0 (equality: 1-homogeneity
    # gives equality exactly; check the identity and the inequality direction)
    n, k = 3, 2
    kappa = np.abs(rng.normal(1.0, 0.5, (100, n))) + 0.05
    f, fi = f_k_and_gradient(kappa, k)
    contraction = np.einsum("ni,ni->n", fi, kappa)
    assert np.max(np.abs(contraction - f)) < 1e-12  # Euler identity
    assert np.all(contraction <= f + 1e-12)


# ------------------------------------------- F = df/da without an eigensolve

def stack_with_spread(rng, count, n, spread):
    """Random symmetric (count, n, n) stack, eigenvalues log-uniform in [1, spread]."""
    kappa = np.exp(rng.uniform(0.0, np.log(spread), (count, n)))
    Q = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    a = np.einsum("...ik,...k,...jk->...ij", Q, kappa, Q)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spread", [1e2, 1e4])
def test_f_and_F_match_the_eigen_route(rng, n, spread):
    # at spread 1e4 the eigen route itself keeps only about 12 digits of
    # F (its eigenvectors), and sigma_n of a near-singular a about as many
    a = stack_with_spread(rng, 1000, n, spread)
    f, F = f_and_F(a)
    f_ref = f_and_derivatives(eigh_descending(a)[0])[0]
    F_ref = F_matrix(a, n)
    tol = 1e-10 if spread > 1e2 else 1e-12
    assert np.max(np.abs(f - f_ref) / f_ref) <= tol
    err = np.max(np.abs(F - F_ref), axis=(-2, -1)) / np.max(np.abs(F_ref), axis=(-2, -1))
    assert np.max(err) <= tol


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("spread", [1e2, 1e4])
def test_f_and_F_from_n_4_match_lu(rng, n, spread):
    # n >= 4 takes the eigen route; the oracle is LU, not an eigensolve:
    # f = det(a)^(1/n) and F = (f/n) a^-1, the adjugate over n det(a)^(1 - 1/n).
    # f_i = f/(n kappa_i) subtracts nothing, so F keeps about 12 digits at
    # spread 1e4 (a drop-one sum by synthetic division kept 6 at n = 5)
    a = stack_with_spread(rng, 1000, n, spread)
    f, F = f_and_F(a)
    f_lu = np.linalg.det(a) ** (1.0 / n)
    assert np.max(np.abs(f - f_lu) / f_lu) <= 1e-12
    F_lu = (f_lu / n)[:, None, None] * np.linalg.inv(a)
    if spread == 1e2:
        assert np.max(np.abs(F - F_lu)) <= 1e-9
    err = np.max(np.abs(F - F_lu), axis=(-2, -1)) / np.max(np.abs(F_lu), axis=(-2, -1))
    assert np.max(err) <= 1e-10


def test_f_and_F_at_a_triple_eigenvalue():
    # every principal curvature equal, as on the n = 3 geodesic sphere
    f, F = f_and_F(1.7 * np.eye(3)[None])
    assert f[0] == pytest.approx(1.7, rel=1e-15)
    assert np.all(F[0][~np.eye(3, dtype=bool)] == 0.0)
    assert np.allclose(np.diag(F[0]), 1.0 / 3.0, rtol=1e-15, atol=0.0)


def test_f_and_F_refuses_states_outside_the_cone():
    # kappa = (3, -1, -1): sigma_1 = 1 and sigma_3 = 3 are positive, sigma_2 = -5
    with pytest.raises(AdmissibilityError):
        f_and_F(np.diag([3.0, -1.0, -1.0])[None])
    with pytest.raises(AdmissibilityError):
        f_and_F(np.diag([3.0, -1.0])[None])


def test_mm_matches_matmul(rng):
    # each entry within two roundings of its sum of |products| of @'s entry;
    # 2x2 and matrix-vector products run written out, products with three
    # or more columns (n >= 3, also from a row vector) through numpy.matmul
    for n in (2, 3, 4):
        A, B = rng.normal(size=(2, 300, n, n))
        p = rng.normal(size=(300, n, 1))
        At, Bt, pt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2), np.swapaxes(p, -1, -2)
        for X, Y in ((A, B), (At, B), (A, Bt), (At, Bt), (A, p), (At, p), (pt, A)):
            scale = np.abs(X) @ np.abs(Y)
            assert np.all(np.abs(mm(X, Y) - X @ Y) <= 1e-15 * scale)
