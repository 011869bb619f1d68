"""Tests for the orthogonal-polynomial layer."""

import mpmath
import numpy as np
import pytest

import oracles
from polybrown import checks
from polybrown import orthopoly as op

SQRT6 = np.sqrt(6.0)


# ---------------------------------------------------------------------------
# Legendre polynomials


def test_legendre_constant():
    assert op.legendre_eval(0, 0.3) == 1.0


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 50])
def test_legendre_endpoint_normalization(k):
    assert op.legendre_eval(k, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert op.legendre_eval(k, -1.0) == pytest.approx((-1.0) ** k, abs=1e-14)


def test_legendre_degree_two():
    # Bonnet by hand: Q_2(x) = (3x^2 - 1)/2
    assert op.legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        op.legendre_eval(-1, 0.0)


# ---------------------------------------------------------------------------
# (-1,-1)-Jacobi polynomials


def test_jacobi_base_cases():
    np.testing.assert_allclose(op.jacobi_m1m1_coeffs(2), [-0.25, 0.0, 0.25], atol=0)
    np.testing.assert_allclose(op.jacobi_m1m1_coeffs(3), [0.0, -0.5, 0.0, 0.5], atol=0)


def test_jacobi_degree_four_coeffs():
    # One recurrence step from the base cases: (15x^4 - 18x^2 + 3)/16.
    expected = np.array([3.0, 0.0, -18.0, 0.0, 15.0]) / 16.0
    np.testing.assert_allclose(op.jacobi_m1m1_coeffs(4), expected, atol=1e-15)
    # Cross-check against (3/14)(Q_4 - Q_2).
    xs = np.linspace(-1.0, 1.0, 11)
    ref = 3.0 / 14.0 * (op.legendre_eval(4, xs) - op.legendre_eval(2, xs))
    np.testing.assert_allclose(np.polynomial.polynomial.polyval(xs, op.jacobi_m1m1_coeffs(4)), ref, atol=1e-15)


def test_jacobi_eval_examples():
    assert op.jacobi_m1m1_eval_legendre(2, 1.0) == 0.0
    assert op.jacobi_m1m1_eval_legendre(2, -1.0) == 0.0
    assert op.jacobi_m1m1_eval_legendre(4, 0.0) == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert op.jacobi_m1m1_eval_legendre(3, 0.5) == pytest.approx(-0.1875, abs=1e-15)


@pytest.mark.parametrize("fn", [op.jacobi_m1m1_coeffs, op.jacobi_m1m1_eval_legendre, op.jacobi_m1m1_eval_recurrence])
def test_jacobi_degree_validation(fn):
    with pytest.raises(ValueError):
        fn(1, 0.0) if fn is not op.jacobi_m1m1_coeffs else fn(1)


def test_jacobi_roots_at_endpoints():
    for k in range(2, 51):
        assert op.jacobi_m1m1_eval_recurrence(k, 1.0) == 0.0
        assert op.jacobi_m1m1_eval_recurrence(k, -1.0) == 0.0
        assert op.jacobi_m1m1_eval_legendre(k, 1.0) == 0.0
        assert op.jacobi_m1m1_eval_legendre(k, -1.0) == 0.0


def test_coefficient_route_matches_stable_eval_at_low_degree():
    # Monomial Horner agrees with the Legendre route while the coefficient
    # table is still well-conditioned (it degrades rapidly past degree ~20).
    xs = np.linspace(-1.0, 1.0, 200)
    for k in range(2, 13):
        vals = np.polynomial.polynomial.polyval(xs, op.jacobi_m1m1_coeffs(k))
        ref = op.jacobi_m1m1_eval_legendre(k, xs)
        scale = np.abs(ref).max()
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale, k


# ---------------------------------------------------------------------------
# Eigenfunctions and eigenvalues


def test_eigenvalues():
    assert op.eigenvalue(1) == 0.5
    assert op.eigenvalue(2) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert op.eigenvalue(10) == pytest.approx(1.0 / 110.0, rel=1e-15)
    with pytest.raises(ValueError):
        op.eigenvalue(0)


def test_basis_e_examples():
    # Positive-leading-coefficient normalization: e_1(t) = sqrt(6) (t^2 - t).
    assert op.basis_e_eval(1, 0.5) == pytest.approx(-SQRT6 / 4.0, rel=1e-14)
    assert op.basis_e_eval(2, 0.5) == 0.0  # odd about t = 1/2
    for k in range(1, 30):
        assert op.basis_e_eval(k, 0.0) == 0.0
        assert op.basis_e_eval(k, 1.0) == 0.0
    with pytest.raises(ValueError):
        op.basis_e_eval(0, 0.5)
    with pytest.raises(ValueError):
        oracles.inner_product_mu(0, 1)


def test_basis_e_against_mpmath_beyond_max_degree():
    # e_k = sqrt(k(k+1)/(2k+1))/2 (Q_{k+1} - Q_{k-1})(2t - 1) in 50 digits; only the
    # monomial tables are capped at MAX_DEGREE, the value route stays accurate
    k, t = 200, np.arange(1, 40) / 40.0
    got = op.basis_e_eval(k, t)
    with mpmath.workdps(50):
        scale = mpmath.sqrt(mpmath.mpf(k * (k + 1)) / (2 * k + 1)) / 2
        xs = [2 * mpmath.mpf(ti) - 1 for ti in t]
        exact = [scale * (mpmath.legendre(k + 1, x) - mpmath.legendre(k - 1, x)) for x in xs]
        err = max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact)) / max(abs(e) for e in exact)
    assert float(err) < 1e-13


def test_basis_e_positive_leading_coefficient():
    basis = op.PolyBasis(20)
    for k in range(1, 20):
        coeffs = basis.e_coeffs(k)
        assert coeffs[-1] > 0.0, k
        assert len(coeffs) == k + 2  # exact degree k + 1


def test_basis_e_deriv_is_scaled_legendre():
    # e_k'(t) = sqrt(k(k+1)(2k+1)) Q_k(2t - 1); check against a finite difference.
    ts = np.linspace(0.05, 0.95, 7)
    eps = 1e-6
    for k in (1, 2, 5, 9):
        fd = (op.basis_e_eval(k, ts + eps) - op.basis_e_eval(k, ts - eps)) / (2 * eps)
        np.testing.assert_allclose(oracles.basis_e_deriv(k, ts), fd, rtol=1e-7, atol=1e-7)


def test_basis_e_over_weight_endpoints():
    # At the roots the de-singularized values are the derivative limits.
    for k in (1, 2, 6):
        vals = oracles.basis_e_over_weight(k, np.array([0.0, 0.25, 1.0]))
        assert vals[0] == oracles.basis_e_deriv(k, 0.0)
        assert vals[2] == -oracles.basis_e_deriv(k, 1.0)
        t = 0.25
        assert vals[1] == pytest.approx(op.basis_e_eval(k, t) / (t * (1 - t)), rel=1e-14)


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature


def test_gauss_legendre_closed_forms():
    nodes, weights = op.gauss_legendre(1)
    np.testing.assert_allclose(nodes, [0.0], atol=0)
    np.testing.assert_allclose(weights, [2.0], atol=0)

    nodes, weights = op.gauss_legendre(2)
    np.testing.assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-15)

    nodes, weights = op.gauss_legendre(3)
    np.testing.assert_allclose(nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-15)
    np.testing.assert_allclose(weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 40, 64])
def test_gauss_legendre_degree_exactness(n):
    nodes, weights = op.gauss_legendre(n)
    assert abs(np.sum(weights) - 2.0) < 1e-14
    assert np.all(weights > 0)
    assert np.all(np.diff(nodes) > 0)
    for m in range(2 * n):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        quad = float(np.sum(weights * nodes**m))
        assert abs(quad - exact) < 5e-14, (n, m)


def test_gauss_legendre_node_count_validation():
    for bad in (0, -3, 65):
        with pytest.raises(ValueError):
            op.gauss_legendre(bad)


# ---------------------------------------------------------------------------
# Orthogonality properties


def test_orthonormality_suite_is_the_worst_single_inner_product():
    # one basis pass per rule size gives, to the bit, the worst of the 400
    # inner products computed one pair at a time
    pairs = [oracles.inner_product_mu(i, j) - float(i == j) for i in range(1, 21) for j in range(1, 21)]
    assert checks.orthonormality(np.random.default_rng(0)) == max(abs(r) for r in pairs)


def test_derivative_l2_orthogonality():
    # e_i' e_j' is a polynomial of degree i + j: integrate exactly.
    for i in range(1, 21):
        for j in range(1, i):
            t, w = op.gauss_legendre_01((i + j) // 2 + 1)
            val = float(np.sum(w * oracles.basis_e_deriv(i, t) * oracles.basis_e_deriv(j, t)))
            assert abs(val) < 1e-10, (i, j)


def test_vanishing_time_moments():
    # integral of s^m e_n(s) ds = 0 for 0 <= m <= n - 2.
    for n in range(2, 16):
        for m in range(0, n - 1):
            t, w = op.gauss_legendre_01((m + n + 2) // 2 + 1)
            val = float(np.sum(w * t**m * op.basis_e_eval(n, t)))
            assert abs(val) < 1e-10, (n, m)


def test_eigen_ode_relation():
    # t(1-t) lambda_k e_k''(t) + e_k(t) = 0 for k <= 20
    assert checks.eigen_ode(np.random.default_rng(0)) < 1e-8


# ---------------------------------------------------------------------------
# PolyBasis tables


def test_polybasis_tables_consistent_with_stable_eval():
    # Coefficient tables on [0, 1] lose accuracy with degree; check them in
    # the regime the package actually uses them (low-degree oracles).
    basis = op.PolyBasis(16)
    ts = np.linspace(0.0, 1.0, 33)
    for k in range(1, 13):
        np.testing.assert_allclose(basis.e_eval(k, ts), op.basis_e_eval(k, ts), atol=1e-8)
        q = np.polynomial.polynomial.polyval(ts, basis.e_over_weight_coeffs(k))
        ref = oracles.basis_e_over_weight(k, ts)
        np.testing.assert_allclose(q, ref, atol=1e-8 * np.abs(ref).max())


def test_polybasis_jacobi_roots_and_degree():
    basis = op.PolyBasis(20)
    for k in range(2, 21):
        coeffs = basis.jacobi_coeffs(k)
        assert len(coeffs) == k + 1
        assert coeffs[-1] != 0.0
        assert abs(np.polynomial.polynomial.polyval(1.0, coeffs)) < 1e-10
        assert abs(np.polynomial.polynomial.polyval(-1.0, coeffs)) < 1e-10


def test_polybasis_range_checks():
    basis = op.PolyBasis(10)
    with pytest.raises(ValueError):
        basis.e_coeffs(10)
    with pytest.raises(ValueError):
        basis.jacobi_coeffs(11)
    with pytest.raises(ValueError):
        op.PolyBasis(1)
    with pytest.raises(ValueError):
        op.PolyBasis(op.MAX_DEGREE + 1)
