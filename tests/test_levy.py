"""Tests for conditional Levy-area moments and the iterated-integral algebra."""

import numpy as np
import pytest

import oracles
from polybrown import levy


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Closed forms


def test_cond_mean_sq_integral_values():
    assert levy.cond_mean_sq_integral(0.0, 0.0, 1.0) == pytest.approx(1.0 / 15.0, rel=1e-15)
    assert levy.cond_mean_sq_integral(1.0, 0.0, 1.0) == pytest.approx(0.4, rel=1e-15)
    for closed_form in (levy.cond_mean_sq_integral, levy.cond_mean_L, levy.cond_var_L):
        for length in (0.0, -1.0):
            with pytest.raises(ValueError, match="nonpositive length"):
                closed_form(0.0, 0.0, length)


def test_cond_mean_L_values():
    assert levy.cond_mean_L(3.7, 0.0, 1.0) == pytest.approx(1.0 / 30.0, rel=1e-15)
    assert levy.cond_mean_L(0.0, 1.0, 1.0) == pytest.approx(19.0 / 30.0, rel=1e-15)


def test_cond_var_L_values():
    assert levy.cond_var_L(0.0, 0.0, 1.0) == pytest.approx(11.0 / 25200.0, rel=1e-15)
    assert levy.cond_var_L(1.0, 0.0, 1.0) == pytest.approx(11.0 / 25200.0 + 1.0 / 720.0, rel=1e-15)


def test_cond_var_L_scaling():
    w, hh = 0.83, -0.26
    scaled = levy.cond_var_L(w, hh, 2.0)
    expected = 16.0 * 11.0 / 25200.0 + 8.0 * (w * w / 720.0 + hh * hh / 700.0)
    assert scaled == pytest.approx(expected, rel=1e-14)


def test_cond_moments_floor():
    assert levy.cond_mean_L(0.0, 0.0, 1.0) == pytest.approx(1.0 / 30.0)
    assert levy.cond_var_L(0.0, 0.0, 1.0) >= 11.0 / 25200.0


def test_mean_sq_consistent_with_mean_L():
    # Through the integral identities:  integral W^2 du = 2 * (dW dW dt) and
    # E[.|W,H] = hW^2/3 + hWH + 2 E[L|W,H].
    g = rng(1)
    for _ in range(100):
        w, hh = g.standard_normal(2)
        h = float(g.uniform(0.1, 3.0))
        lhs = levy.cond_mean_sq_integral(w, hh, h)
        rhs = h * w * w / 3.0 + h * w * hh + 2.0 * levy.cond_mean_L(w, hh, h)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


def test_unit_interval_variance_identity():
    # 4 Var(L | W, H) at h=1 equals 11/6300 + W^2/180 + H^2/175.
    g = rng(2)
    for _ in range(100):
        w, hh = g.standard_normal(2)
        lhs = 4.0 * levy.cond_var_L(w, hh, 1.0)
        rhs = 11.0 / 6300.0 + w * w / 180.0 + hh * hh / 175.0
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_unconditional_mean_of_sq_integral():
    # E over (W, H) of the conditional mean at h=1 is 1/2.
    g = rng(3)
    n = 10**6
    z = g.standard_normal((n, 2))
    w = z[:, 0]
    hh = z[:, 1] / np.sqrt(12.0)
    vals = w * w / 3.0 + w * hh + 1.2 * hh * hh + 1.0 / 15.0
    se = np.std(vals) / np.sqrt(n)
    assert abs(np.mean(vals) - 0.5) < 3 * se


# ---------------------------------------------------------------------------
# Integral algebra


def test_triple_integrals_pins():
    ti = levy.triple_integrals_from_whl(1.0, 0.0, 0.0, 1.0)
    assert ti.i_wt == pytest.approx(0.5, rel=1e-15)
    assert ti.i_wwt == pytest.approx(1.0 / 6.0, rel=1e-15)
    with pytest.raises(ValueError):
        levy.triple_integrals_from_whl(1.0, 0.0, 0.0, 0.0)


def test_triple_integral_identities():
    g = rng(4)
    for _ in range(100):
        w, hh, ll = g.standard_normal(3)
        h = float(g.uniform(0.05, 4.0))
        ti = levy.triple_integrals_from_whl(w, hh, ll, h)
        assert ti.i_wt + ti.i_tw == pytest.approx(h * w, rel=1e-14, abs=1e-14)
        assert ti.i_wwt + ti.i_wtw + ti.i_tww == pytest.approx(0.5 * h * w * w, rel=1e-14, abs=1e-14)
        assert ti.i_wwt - 2 * ti.i_wtw + ti.i_tww == pytest.approx(6.0 * ll, rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# Discretized oracles


def test_discrete_areas_of_linear_path():
    t = np.linspace(0.0, 1.0, 10_001)
    w, hh, ll, _ = oracles.discrete_integrals(t, t.copy())
    assert w == pytest.approx(1.0, abs=1e-12)
    assert hh == pytest.approx(0.0, abs=1e-12)
    assert ll == pytest.approx(0.0, abs=1e-10)


def test_discrete_areas_of_parabola():
    t = np.linspace(0.0, 1.0, 10_001)
    w, hh, ll, _ = oracles.discrete_integrals(t, oracles.parabola_eval(0.0, 0.0, 1.0, t))
    assert w == pytest.approx(0.0, abs=1e-12)
    assert hh == pytest.approx(1.0, abs=1e-3)
    assert ll == pytest.approx(0.6, abs=1e-3)


@pytest.mark.parametrize("w,eta", [(0.0, 1.0), (1.3, -0.4), (-0.8, 0.25)])
def test_parabola_l_area_closed_form(w, eta):
    # A parabola's own space-space-time area is (3/5) h eta^2 (unit h here).
    t = np.linspace(0.0, 1.0, 10_001)
    _, hh, ll, _ = oracles.discrete_integrals(t, oracles.parabola_eval(0.0, w, eta, t))
    assert hh == pytest.approx(eta, abs=1e-3)
    assert ll == pytest.approx(0.6 * eta * eta, abs=1e-3)


def test_tower_property_for_L():
    # law of total variance: Var(E[L|W,H]) + E[Var(L|W,H)] = Var(L).
    g = rng(8)
    n = 100_000
    z = g.standard_normal((n, 2))
    w = z[:, 0]
    hh = z[:, 1] / np.sqrt(12.0)
    cond_means = 1.0 / 30.0 + 0.6 * hh * hh
    cond_vars = 11.0 / 25200.0 + w * w / 720.0 + hh * hh / 700.0
    analytic = np.var(cond_means) + np.mean(cond_vars)

    n_paths = 20_000
    m = 1000
    ls = np.empty(n_paths)
    block = 2000
    for lo in range(0, n_paths, block):
        t, values = oracles.sample_brownian_dense(m, g, (block,))
        ls[lo : lo + block] = oracles.discrete_integrals(t, values)[2]
    mc = np.var(ls)
    assert abs(mc - analytic) < 0.05 * analytic
