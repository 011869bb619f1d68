"""Tests for Brownian samplers, polynomial paths, parabolas, arches, coarsening."""

import numpy as np
import pytest

from polybrown import brownian as bm
from polybrown import orthopoly as op

SQRT6 = np.sqrt(6.0)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# IncrementPair sampling


def test_sample_pair_law():
    g = rng(11)
    n = 10**6
    w = np.empty(n)
    h = np.empty(n)
    # one batched draw with the same law as n sample_pair calls
    z = g.standard_normal((n, 2))
    w[:] = z[:, 0]
    h[:] = z[:, 1] / np.sqrt(12.0)
    assert abs(np.var(w) - 1.0) < 0.01
    assert abs(np.var(h) - 1.0 / 12.0) < 0.001
    assert abs(np.corrcoef(w, h)[0, 1]) < 0.005


def test_sample_pair_basics():
    g = rng(5)
    p = bm.sample_pair(4.0, g)
    assert p.length == 4.0
    # determinism under a fixed seed
    p2 = bm.sample_pair(4.0, rng(5))
    assert (p2.w, p2.h_area) == (p.w, p.h_area)
    # Var(h_area) scales like length/12: check the sampling std directly
    draws = np.array([bm.sample_pair(4.0, g).h_area for _ in range(20000)])
    assert abs(np.var(draws) - 1.0 / 3.0) < 0.02
    with pytest.raises(ValueError):
        bm.sample_pair(0.0, g)
    with pytest.raises(ValueError):
        bm.IncrementPair(0.0, 0.0, -1.0)


# ---------------------------------------------------------------------------
# Polynomial paths


def test_kl_degree_one_has_no_coeffs():
    p = bm.sample_kl_coefficients(1, rng(1))
    assert p.degree == 1
    assert p.coeffs.size == 0
    t = np.linspace(0, 1, 5)
    np.testing.assert_allclose(bm.eval_polynomial_path(p, t), p.w1 * t, atol=0)


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
    p = bm.sample_kl_coefficients(4, rng(42))
    assert p.w1 == w1[0]
    np.testing.assert_array_equal(p.coeffs, coeffs[0])


def test_eval_polynomial_path_pins():
    p = bm.sample_kl_coefficients(5, rng(3))
    assert bm.eval_polynomial_path(p, 0.0) == 0.0
    assert bm.eval_polynomial_path(p, 1.0) == pytest.approx(p.w1, abs=1e-14)
    bump = bm.BrownianPolynomial(w1=0.0, coeffs=np.array([1.0]))
    assert bm.eval_polynomial_path(bump, 0.5) == pytest.approx(-SQRT6 / 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        bm.eval_polynomial_path(p, 1.5)


def test_eval_polynomial_path_batch_matches_single_paths():
    g = rng(4)
    polys = [bm.sample_kl_coefficients(6, g) for _ in range(3)]
    batch = bm.BrownianPolynomial(w1=np.array([p.w1 for p in polys]), coeffs=np.stack([p.coeffs for p in polys]))
    assert batch.degree == 6
    t = np.linspace(0.0, 1.0, 17)
    values = bm.eval_polynomial_path(batch, t)
    assert values.shape == (3, 17)
    for row, p in zip(values, polys):
        np.testing.assert_array_equal(row, bm.eval_polynomial_path(p, t))
    np.testing.assert_array_equal(bm.eval_polynomial_path(batch, 0.25), values[:, 4])


def test_kl_degree_validation():
    with pytest.raises(ValueError):
        bm.sample_kl_coefficients(0, rng(0))
    with pytest.raises(ValueError):
        bm.sample_kl_coefficients(op.MAX_DEGREE + 1, rng(0))


# ---------------------------------------------------------------------------
# Coefficient extraction


def uniform_path(values):
    m = len(values) - 1
    return bm.DensePath(grid=np.linspace(0.0, 1.0, m + 1), values=np.asarray(values, dtype=float))


def test_extract_zero_path():
    path = uniform_path(np.zeros(101))
    for k in (1, 2, 5):
        assert bm.extract_Ik(path, k) == 0.0


def test_extract_e1_is_orthonormal():
    t = np.linspace(0.0, 1.0, 10_001)
    path = bm.DensePath(grid=t, values=op.basis_e_eval(1, t))
    assert abs(bm.extract_Ik(path, 1) - 1.0) < 1e-4
    assert abs(bm.extract_Ik(path, 2)) < 1e-4


def test_extract_round_trip():
    p = bm.sample_kl_coefficients(4, rng(9))
    t = np.linspace(0.0, 1.0, 10_001)
    path = bm.DensePath(grid=t, values=bm.eval_polynomial_path(p, t))
    for k in (1, 2, 3):
        assert abs(bm.extract_Ik(path, k) - p.coeffs[k - 1]) < 1e-4, k


def test_extract_handles_motion_bridging():
    # adding a drift w1 * t must not change the extracted coefficients
    p = bm.sample_kl_coefficients(3, rng(10))
    t = np.linspace(0.0, 1.0, 4097)
    base = bm.eval_polynomial_path(p, t)
    shifted = bm.DensePath(grid=t, values=base + 2.5 * t)
    unshifted = bm.DensePath(grid=t, values=base)
    assert bm.extract_Ik(shifted, 1) == pytest.approx(bm.extract_Ik(unshifted, 1), abs=1e-12)


def test_extract_rejects_coarse_grid():
    path = uniform_path(np.zeros(11))
    with pytest.raises(ValueError):
        bm.extract_Ik(path, 1)


# ---------------------------------------------------------------------------
# Parabola and arch


def test_parabola_interpolation_constraints():
    pair = bm.IncrementPair(w=1.0, h_area=0.25, length=1.0)
    assert bm.parabola_eval(0.3, pair, 0.0) == 0.3
    assert bm.parabola_eval(0.3, pair, 1.0) == pytest.approx(1.3, abs=1e-15)
    assert bm.parabola_eval(0.0, pair, 0.5) == pytest.approx(0.875, abs=1e-15)
    with pytest.raises(ValueError):
        bm.parabola_eval(0.0, pair, 1.2)


def test_parabola_time_integral_is_h_area():
    pair = bm.IncrementPair(w=-0.7, h_area=0.31, length=1.0)
    u, w = op.gauss_legendre_01(4)
    bump = bm.parabola_eval(0.0, pair, u) - u * pair.w
    assert np.sum(w * bump) == pytest.approx(pair.h_area, rel=1e-14)


def test_arch_covariance_values():
    assert bm.arch_covariance(0.0, 0.37) == 0.0
    assert bm.arch_covariance(0.62, 1.0) == 0.0
    assert bm.arch_covariance(0.5, 0.5) == pytest.approx(0.0625, abs=1e-15)
    assert bm.arch_covariance(0.25, 0.75) == pytest.approx(0.25 - 0.1875 - 3 * 0.1875 * 0.1875, abs=1e-15)
    assert bm.arch_covariance(0.3, 0.7) == bm.arch_covariance(0.7, 0.3)
    with pytest.raises(ValueError):
        bm.arch_covariance(-0.1, 0.5)


def test_sample_arch_statistics():
    grid = np.linspace(0.05, 0.95, 19)
    factor = bm.arch_cov_factor(grid)
    g = rng(21)
    draws = (factor @ g.standard_normal((grid.size, 100_000))).T
    var_mid = np.var(draws[:, 9])  # t = 0.5
    se = 0.0625 * np.sqrt(2.0 / draws.shape[0])
    assert abs(var_mid - 0.0625) < 3 * se
    means = draws.mean(axis=0)
    sds = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(means) < 3 * sds + 1e-12)


def test_sample_arch_endpoints_zero():
    path = bm.sample_arch(np.linspace(0.1, 0.9, 9), rng(2))
    assert path.grid[0] == 0.0 and path.grid[-1] == 1.0
    assert path.values[0] == 0.0 and path.values[-1] == 0.0


def test_arch_independent_of_parabola():
    # (w, h_area) and arch values are drawn independently by construction;
    # sample correlations at 5 grid points stay within +-0.01.
    g = rng(33)
    n = 100_000
    z = g.standard_normal((n, 2))
    w, hh = z[:, 0], z[:, 1] / np.sqrt(12.0)
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    factor = bm.arch_cov_factor(grid)
    arch = (factor @ g.standard_normal((grid.size, n))).T
    for col in range(grid.size):
        assert abs(np.corrcoef(w, arch[:, col])[0, 1]) < 0.01
        assert abs(np.corrcoef(hh, arch[:, col])[0, 1]) < 0.01


# ---------------------------------------------------------------------------
# Coarsening


def test_coarsen_two_halves_oracle():
    halves = [bm.IncrementPair(1.0, 0.0, 0.5), bm.IncrementPair(0.0, 0.0, 0.5)]
    out = bm.coarsen(halves)
    assert out.length == 1.0
    assert out.w == 1.0
    assert out.h_area == pytest.approx(0.25, abs=1e-15)
    # equal-halves closed form (H1 + H2)/2 + (w1 - w2)/4
    h1, h2 = 0.11, -0.04
    w1, w2 = 0.6, -1.2
    out = bm.coarsen([bm.IncrementPair(w1, h1, 0.5), bm.IncrementPair(w2, h2, 0.5)])
    assert out.h_area == pytest.approx((h1 + h2) / 2 + (w1 - w2) / 4, abs=1e-15)


def test_coarsen_brute_force_quadrature():
    # Riemann quadrature of the area definition on the piecewise-parabolic
    # interpolant of the sub-interval data.
    pieces = [bm.IncrementPair(0.8, 0.05, 0.5), bm.IncrementPair(-0.3, -0.12, 0.5)]
    m = 20_000
    u = np.linspace(0.0, 1.0, m // 2 + 1)
    first = bm.parabola_eval(0.0, pieces[0], u)
    second = bm.parabola_eval(first[-1], pieces[1], u)
    path = np.concatenate((first, second[1:]))
    t = np.linspace(0.0, 1.0, m + 1)
    w_total = path[-1]
    h_direct = np.trapezoid(path - t * w_total, t)
    out = bm.coarsen(pieces)
    assert out.w == pytest.approx(w_total, abs=1e-12)
    assert out.h_area == pytest.approx(h_direct, abs=1e-6)


def test_coarsen_identity_and_symmetry():
    p = bm.IncrementPair(0.4, -0.2, 0.25)
    assert bm.coarsen([p]) is p
    sym = bm.coarsen([bm.IncrementPair(0.7, 0.0, 0.5), bm.IncrementPair(0.7, 0.0, 0.5)])
    assert sym.h_area == pytest.approx(0.0, abs=1e-15)


def test_coarsen_associativity():
    g = rng(14)
    quarters = [bm.sample_pair(0.25, g) for _ in range(4)]
    direct = bm.coarsen(quarters)
    paired = bm.coarsen([bm.coarsen(quarters[:2]), bm.coarsen(quarters[2:])])
    assert direct.w == pytest.approx(paired.w, abs=1e-14)
    assert direct.h_area == pytest.approx(paired.h_area, abs=1e-14)


def test_coarsen_validation():
    with pytest.raises(ValueError):
        bm.coarsen([])
    with pytest.raises(ValueError):
        bm.coarsen([bm.IncrementPair(0, 0, 0.5), bm.IncrementPair(0, 0, 0.25)])


def test_coarsen_arrays_matches_scalar():
    g = rng(15)
    w = g.standard_normal((3, 8)) * 0.1
    hh = g.standard_normal((3, 8)) * 0.05
    wv, hv = bm.coarsen_arrays(w, hh)
    for row in range(3):
        pairs = [bm.IncrementPair(w[row, i], hh[row, i], 1.0 / 8) for i in range(8)]
        out = bm.coarsen(pairs)
        assert wv[row] == pytest.approx(out.w, abs=1e-14)
        assert hv[row] == pytest.approx(out.h_area, abs=1e-14)


# ---------------------------------------------------------------------------
# Expansion-level properties


def test_kl_truncation_norm():
    # E integral (B - B^N)^2 dmu = 1/(N+1); desk-scale Monte Carlo check.
    g = rng(101)
    m = 1000
    n_paths = 4000
    t = np.linspace(0.0, 1.0, m + 1)
    interior = t[1:-1]
    inv_weight = 1.0 / (interior * (1.0 - interior))
    for big_n in (2, 4, 8):
        q = np.stack([op.basis_e_over_weight(k, t) for k in range(1, big_n + 1)])
        e_vals = np.stack([op.basis_e_eval(k, interior) for k in range(1, big_n + 1)])
        total = 0.0
        for _ in range(n_paths):
            incs = g.normal(0.0, np.sqrt(1.0 / m), size=m)
            w_path = np.concatenate(([0.0], np.cumsum(incs)))
            bridge = w_path - t * w_path[-1]
            i_hat = np.trapezoid(bridge * q, t, axis=1)
            resid = bridge[1:-1] - i_hat @ e_vals
            f = resid * resid * inv_weight
            est = np.trapezoid(f, interior) + (f[0] + f[-1]) / m
            total += est
        mc = total / n_paths
        target = 1.0 / (big_n + 1)
        assert abs(mc - target) < 0.05 * target, big_n


def test_mercer_partial_sum():
    s, t = 0.3, 0.7
    total = sum(op.eigenvalue(k) * op.basis_e_eval(k, s) * op.basis_e_eval(k, t) for k in range(1, 201))
    assert abs(total - 0.09) < 1e-3


def test_polynomial_matches_time_integrals_of_dense_path():
    # W^n built from the first coefficients of a higher-degree expansion path
    # shares its integrals of u^k dW for k <= n - 1.
    g = rng(55)
    full = bm.sample_kl_coefficients(12, g)
    t = np.linspace(0.0, 1.0, 4001)
    dense_vals = bm.eval_polynomial_path(full, t)
    for n in range(1, 7):
        trunc = bm.BrownianPolynomial(w1=full.w1, coeffs=full.coeffs[: n - 1])
        trunc_vals = bm.eval_polynomial_path(trunc, t)
        for k in range(0, n):
            # integral u^k dW = W(1) - k * integral u^{k-1} W du  (by parts)
            def stieltjes(vals):
                if k == 0:
                    return vals[-1]
                return vals[-1] - k * np.trapezoid(t ** (k - 1) * vals, t)

            assert abs(stieltjes(trunc_vals) - stieltjes(dense_vals)) < 1e-3, (n, k)


def test_dense_path_validation():
    with pytest.raises(ValueError):
        bm.DensePath(grid=np.array([0.0, 0.5, 0.9]), values=np.zeros(3))
    with pytest.raises(ValueError):
        bm.DensePath(grid=np.array([0.0, 0.6, 0.5, 1.0]), values=np.zeros(4))
    p = bm.sample_brownian_dense(64, rng(1))
    assert p.values[0] == 0.0 and p.n_steps == 64
