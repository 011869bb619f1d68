"""Tests for Brownian samplers, polynomial paths and coarsening, and for the
dense-path, parabola and arch references of `oracles`."""

import numpy as np
import pytest

import oracles
from polybrown import brownian as bm
from polybrown import orthopoly as op

SQRT6 = np.sqrt(6.0)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# (w, h_area) pair sampling


def test_sample_pair_basics():
    g = rng(5)
    w, h_area = bm.sample_pair(4.0, g)
    # determinism under a fixed seed, with w drawn before h_area
    assert (w, h_area) == tuple(rng(5).normal(0.0, np.sqrt([4.0, 4.0 / 12.0])))
    # Var(h_area) scales like length/12: check the sampling std directly
    draws = np.array([h_area for _, h_area in (bm.sample_pair(4.0, g) for _ in range(20000))])
    assert abs(np.var(draws) - 1.0 / 3.0) < 0.02
    with pytest.raises(ValueError, match="^length must be > 0$"):
        bm.sample_pair(0.0, g)


# ---------------------------------------------------------------------------
# Polynomial paths


def test_kl_degree_one_has_no_coeffs():
    w1, coeffs = bm.sample_kl_coefficients(1, rng(1))
    assert coeffs.size == 0
    t = np.linspace(0, 1, 5)
    np.testing.assert_allclose(bm.eval_polynomial_path(w1, coeffs, t), w1 * t, atol=0)


def test_kl_coefficient_law():
    w1, coeffs = bm.sample_kl_batch(6, 200_000, rng(7))
    n = w1.size
    assert abs(np.var(w1) - 1.0) < 3 * np.sqrt(2.0 / n)
    for k in range(1, 6):
        lam = op.eigenvalue(k)
        assert abs(np.var(coeffs[:, k - 1]) - lam) < 3 * lam * np.sqrt(2.0 / n), k
    assert abs(np.corrcoef(w1, coeffs[:, 0])[0, 1]) < 3 / np.sqrt(n)


def test_kl_batch_matches_single_draws():
    w1, coeffs = bm.sample_kl_batch(4, 1, rng(42))
    w1_single, coeffs_single = bm.sample_kl_coefficients(4, rng(42))
    assert w1_single == w1[0]
    np.testing.assert_array_equal(coeffs_single, coeffs[0])


def test_eval_polynomial_path_pins():
    w1, coeffs = bm.sample_kl_coefficients(5, rng(3))
    assert bm.eval_polynomial_path(w1, coeffs, 0.0) == 0.0
    assert bm.eval_polynomial_path(w1, coeffs, 1.0) == pytest.approx(w1, abs=1e-14)
    bump = bm.eval_polynomial_path(0.0, np.array([1.0]), 0.5)
    assert bump == pytest.approx(-SQRT6 / 4.0, rel=1e-14)
    for t in (1.5, np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"t out of domain \[0, 1\]"):
            bm.eval_polynomial_path(w1, coeffs, t)


def test_eval_polynomial_path_batch_matches_single_paths():
    g = rng(4)
    polys = [bm.sample_kl_coefficients(6, g) for _ in range(3)]
    w1, coeffs = np.array([w1 for w1, _ in polys]), np.stack([coeffs for _, coeffs in polys])
    assert coeffs.shape == (3, 5)
    t = np.linspace(0.0, 1.0, 17)
    values = bm.eval_polynomial_path(w1, coeffs, t)
    assert values.shape == (3, 17)
    for row, p in zip(values, polys):
        np.testing.assert_array_equal(row, bm.eval_polynomial_path(*p, t))
    np.testing.assert_array_equal(bm.eval_polynomial_path(w1, coeffs, 0.25), values[:, 4])


def test_kl_degree_validation():
    with pytest.raises(ValueError):
        bm.sample_kl_coefficients(0, rng(0))
    # no cap at MAX_DEGREE: the paths are evaluated by the stable route
    w1, coeffs = bm.sample_kl_coefficients(op.MAX_DEGREE + 1, rng(0))
    assert coeffs.size == op.MAX_DEGREE
    assert np.isfinite(bm.eval_polynomial_path(w1, coeffs, np.linspace(0.0, 1.0, 11))).all()


# ---------------------------------------------------------------------------
# Coefficient extraction


def test_extract_zero_path():
    t = np.linspace(0.0, 1.0, 101)
    for k in (1, 2, 5):
        assert oracles.extract_Ik(t, np.zeros(101), k) == 0.0


def test_extract_e1_is_orthonormal():
    t = np.linspace(0.0, 1.0, 10_001)
    values = op.basis_e_eval(1, t)
    assert abs(oracles.extract_Ik(t, values, 1) - 1.0) < 1e-4
    assert abs(oracles.extract_Ik(t, values, 2)) < 1e-4


def test_extract_round_trip():
    w1, coeffs = bm.sample_kl_coefficients(4, rng(9))
    t = np.linspace(0.0, 1.0, 10_001)
    values = bm.eval_polynomial_path(w1, coeffs, t)
    for k in (1, 2, 3):
        assert abs(oracles.extract_Ik(t, values, k) - coeffs[k - 1]) < 1e-4, k


def test_extract_handles_motion_bridging():
    # adding a drift w1 * t must not change the extracted coefficients
    w1, coeffs = bm.sample_kl_coefficients(3, rng(10))
    t = np.linspace(0.0, 1.0, 4097)
    base = bm.eval_polynomial_path(w1, coeffs, t)
    assert oracles.extract_Ik(t, base + 2.5 * t, 1) == pytest.approx(oracles.extract_Ik(t, base, 1), abs=1e-12)


def test_extract_rejects_coarse_grid():
    with pytest.raises(ValueError):
        oracles.extract_Ik(np.linspace(0.0, 1.0, 11), np.zeros(11), 1)


# ---------------------------------------------------------------------------
# Parabola and arch


def test_parabola_interpolation_constraints():
    assert oracles.parabola_eval(0.3, 1.0, 0.25, 0.0) == 0.3
    assert oracles.parabola_eval(0.3, 1.0, 0.25, 1.0) == pytest.approx(1.3, abs=1e-15)
    assert oracles.parabola_eval(0.0, 1.0, 0.25, 0.5) == pytest.approx(0.875, abs=1e-15)
    with pytest.raises(ValueError):
        oracles.parabola_eval(0.0, 1.0, 0.25, 1.2)


def test_parabola_time_integral_is_h_area():
    w, hh = -0.7, 0.31
    u, weights = op.gauss_legendre_01(4)
    bump = oracles.parabola_eval(0.0, w, hh, u) - u * w
    assert np.sum(weights * bump) == pytest.approx(hh, rel=1e-14)


def test_arch_covariance_values():
    assert oracles.arch_covariance(0.0, 0.37) == 0.0
    assert oracles.arch_covariance(0.62, 1.0) == 0.0
    assert oracles.arch_covariance(0.5, 0.5) == pytest.approx(0.0625, abs=1e-15)
    assert oracles.arch_covariance(0.25, 0.75) == pytest.approx(0.25 - 0.1875 - 3 * 0.1875 * 0.1875, abs=1e-15)
    assert oracles.arch_covariance(0.3, 0.7) == oracles.arch_covariance(0.7, 0.3)
    with pytest.raises(ValueError):
        oracles.arch_covariance(-0.1, 0.5)


def test_sample_arch_statistics():
    grid = np.linspace(0.05, 0.95, 19)
    factor = oracles.arch_cov_factor(grid)
    g = rng(21)
    draws = (factor @ g.standard_normal((grid.size, 100_000))).T
    var_mid = np.var(draws[:, 9])  # t = 0.5
    se = 0.0625 * np.sqrt(2.0 / draws.shape[0])
    assert abs(var_mid - 0.0625) < 3 * se
    means = draws.mean(axis=0)
    sds = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(means) < 3 * sds + 1e-12)


def test_arch_independent_of_parabola():
    # (w, h_area) and arch values are drawn independently by construction;
    # sample correlations at 5 grid points stay within +-0.01.
    g = rng(33)
    n = 100_000
    z = g.standard_normal((n, 2))
    w, hh = z[:, 0], z[:, 1] / np.sqrt(12.0)
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    factor = oracles.arch_cov_factor(grid)
    arch = (factor @ g.standard_normal((grid.size, n))).T
    for col in range(grid.size):
        assert abs(np.corrcoef(w, arch[:, col])[0, 1]) < 0.01
        assert abs(np.corrcoef(hh, arch[:, col])[0, 1]) < 0.01


# ---------------------------------------------------------------------------
# Coarsening


def test_coarsen_two_halves_oracle():
    w, h_area = oracles.coarsen([1.0, 0.0], [0.0, 0.0])
    assert w == 1.0
    assert h_area == pytest.approx(0.25, abs=1e-15)
    # equal-halves closed form (H1 + H2)/2 + (w1 - w2)/4
    h1, h2 = 0.11, -0.04
    w1, w2 = 0.6, -1.2
    _, h_area = oracles.coarsen([w1, w2], [h1, h2])
    assert h_area == pytest.approx((h1 + h2) / 2 + (w1 - w2) / 4, abs=1e-15)


def test_coarsen_brute_force_quadrature():
    # Riemann quadrature of the area definition on the piecewise-parabolic
    # interpolant of the sub-interval data.
    w, hh = [0.8, -0.3], [0.05, -0.12]
    m = 20_000
    u = np.linspace(0.0, 1.0, m // 2 + 1)
    first = oracles.parabola_eval(0.0, w[0], hh[0], u)
    second = oracles.parabola_eval(first[-1], w[1], hh[1], u)
    path = np.concatenate((first, second[1:]))
    t = np.linspace(0.0, 1.0, m + 1)
    w_total = path[-1]
    h_direct = np.trapezoid(path - t * w_total, t)
    out_w, out_h = oracles.coarsen(w, hh)
    assert out_w == pytest.approx(w_total, abs=1e-12)
    assert out_h == pytest.approx(h_direct, abs=1e-6)


def test_coarsen_identity_and_symmetry():
    assert oracles.coarsen([0.4], [-0.2]) == pytest.approx((0.4, -0.2), abs=1e-15)
    _, h_area = oracles.coarsen([0.7, 0.7], [0.0, 0.0])
    assert h_area == pytest.approx(0.0, abs=1e-15)


def test_coarsen_associativity():
    # the draws of four `sample_pair(0.25, g)` calls
    quarters = rng(14).normal(0.0, np.sqrt([0.25, 0.25 / 12.0]), size=(4, 2))
    w, hh = quarters[:, 0], quarters[:, 1]
    direct = oracles.coarsen(w, hh)
    halves = np.array([oracles.coarsen(w[:2], hh[:2]), oracles.coarsen(w[2:], hh[2:])])
    paired = oracles.coarsen(halves[:, 0], halves[:, 1])
    assert direct == pytest.approx(paired, abs=1e-14)


def test_coarsen_arrays_matches_scalar():
    g = rng(15)
    w = g.standard_normal((3, 8)).T * 0.1  # the 8 pieces of each of 3 paths, time-major
    hh = g.standard_normal((3, 8)).T * 0.05
    (wv,), (hv,) = bm.coarsen_arrays(w, hh, [8, 0])
    for path in range(3):
        out_w, out_h = oracles.coarsen(w[:, path], hh[:, path])
        assert wv[path] == pytest.approx(out_w, abs=1e-14)
        assert hv[path] == pytest.approx(out_h, abs=1e-14)


@pytest.mark.parametrize("n", [0, -1])
def test_coarsen_arrays_refuses_fewer_than_one_piece_a_step(n):
    with pytest.raises(ValueError, match=r"^n: expected n >= 1, got -?\d$"):
        bm.coarsen_arrays(np.zeros((4, 2)), np.zeros((4, 2)), [n, 0])


# ---------------------------------------------------------------------------
# Expansion-level properties


def test_mercer_partial_sum():
    s, t = 0.3, 0.7
    total = sum(op.eigenvalue(k) * op.basis_e_eval(k, s) * op.basis_e_eval(k, t) for k in range(1, 201))
    assert abs(total - 0.09) < 1e-3


def test_polynomial_matches_time_integrals_of_dense_path():
    # W^n built from the first coefficients of a higher-degree expansion path
    # shares its integrals of u^k dW for k <= n - 1.
    g = rng(55)
    w1, coeffs = bm.sample_kl_coefficients(12, g)
    t = np.linspace(0.0, 1.0, 4001)
    dense_vals = bm.eval_polynomial_path(w1, coeffs, t)
    for n in range(1, 7):
        trunc_vals = bm.eval_polynomial_path(w1, coeffs[: n - 1], t)
        for k in range(0, n):
            # integral u^k dW = W(1) - k * integral u^{k-1} W du  (by parts)
            def stieltjes(vals):
                if k == 0:
                    return vals[-1]
                return vals[-1] - k * np.trapezoid(t ** (k - 1) * vals, t)

            assert abs(stieltjes(trunc_vals) - stieltjes(dense_vals)) < 1e-3, (n, k)
