"""Tests for the IGBM step kernels and the array simulation driver."""

import mpmath
import numpy as np
import pytest

from polybrown import brownian as bm
from polybrown import igbm, levy

BENCH = igbm.IgbmParams(a=0.1, b=0.04, sigma=0.6, y0=0.06, horizon=5.0)


def rng(seed=0):
    return np.random.default_rng(seed)


def step(kind, y, p, w, hh, h):
    """One step of a scheme's kernel over an interval of length h."""
    return igbm.kernel_fn(kind)(y, w, hh, h, p)


LOG_ODE = igbm.SchemeKind.LOG_ODE
PARABOLA = igbm.SchemeKind.PARABOLA_ODE
LINEAR = igbm.SchemeKind.PIECEWISE_LINEAR
MILSTEIN = igbm.SchemeKind.MILSTEIN
EULER = igbm.SchemeKind.EULER_MARUYAMA


# ---------------------------------------------------------------------------
# Parameters


def test_adjusted_parameters():
    assert BENCH.a_strat == pytest.approx(0.28, rel=1e-15)


def test_param_validation():
    with pytest.raises(ValueError):
        igbm.IgbmParams(a=-0.1, b=0.0, sigma=0.1, y0=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        igbm.IgbmParams(a=0.1, b=0.0, sigma=-0.1, y0=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        igbm.IgbmParams(a=0.1, b=0.0, sigma=0.1, y0=0.0, horizon=0.0)


@pytest.mark.parametrize("name", ["a", "b", "sigma", "y0", "horizon"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_param_validation_rejects_non_finite(name, value):
    values = dict(a=0.1, b=0.04, sigma=0.6, y0=0.06, horizon=5.0)
    values[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        igbm.IgbmParams(**values)


def test_reference_parameters():
    assert igbm.REFERENCE == BENCH


def test_scheme_names():
    assert igbm.SchemeKind.from_name("log-ode") is igbm.SchemeKind.LOG_ODE
    with pytest.raises(ValueError):
        igbm.SchemeKind.from_name("heun")
    assert len(igbm.SchemeKind) == 5


# ---------------------------------------------------------------------------
# phi


def test_phi_values():
    assert igbm.phi(0.0) == 1.0
    assert igbm.phi(1.0) == pytest.approx(np.e - 1.0, rel=1e-15)
    assert igbm.phi(1e-8) == pytest.approx(1.0 + 5e-9, abs=1e-15)


def test_phi_against_mpmath():
    # within 2 ulp of 50-digit arithmetic at 0 and at log-uniform |x| in [1e-300, 20], both signs
    g = rng(5)
    xs = np.concatenate(([0.0], g.choice([-1.0, 1.0], 10_000) * 10.0 ** g.uniform(-300.0, np.log10(20.0), 10_000)))
    got = igbm.phi(xs)
    with mpmath.workdps(50):
        exact = [mpmath.expm1(x) / x if x else mpmath.mpf(1) for x in map(mpmath.mpf, xs)]
        rel = [float(abs((mpmath.mpf(v) - e) / e)) for v, e in zip(got, exact)]
    assert max(rel) <= 4.5e-16


def test_phi_monotone_and_vectorized():
    xs = np.linspace(-3.0, 3.0, 1001)
    vals = igbm.phi(xs)
    assert np.all(np.diff(vals) > 0)
    assert vals[500] == 1.0  # x = 0 exactly


# ---------------------------------------------------------------------------
# Step rules: frozen arithmetic


def test_log_ode_deterministic_limit():
    # sigma = 0 reduces to the exact linear-ODE flow regardless of (W, H).
    p = igbm.IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=1.0)
    got = step(LOG_ODE, 0.06, p, 0.33, -0.1, 0.1)
    analytic = 0.04 + (0.06 - 0.04) * np.exp(-0.01)
    assert got == pytest.approx(analytic, abs=1e-12)
    assert got == pytest.approx(0.06 * np.exp(-0.01) + 0.004 * 0.1 * igbm.phi(-0.01), abs=1e-16)


def test_log_ode_step_runs_levy_cond_mean_L(monkeypatch):
    # the third-order term of the step is whatever levy.cond_mean_L returns
    p, h = BENCH, 0.1
    y, w, hh = np.array([0.06, 0.11]), np.array([0.3, -0.2]), np.array([0.05, -0.12])
    x = -p.a_strat * h + p.sigma * w

    def expected(mean_l):
        return y * np.exp(x) + p.a * p.b * (h * (1.0 - p.sigma * hh) + p.sigma * p.sigma * mean_l) * igbm.phi(x)

    plain = step(LOG_ODE, y, p, w, hh, h)
    assert plain.tobytes() == expected(levy.cond_mean_L(w, hh, h)).tobytes()
    monkeypatch.setattr(levy, "cond_mean_L", lambda w, h_area, length: 7.0 * length + w * h_area)
    patched = step(LOG_ODE, y, p, w, hh, h)
    assert patched.tobytes() == expected(7.0 * h + w * hh).tobytes()
    assert np.all(patched != plain)


def test_log_ode_pure_geometric_when_ab_zero():
    p = igbm.IgbmParams(a=0.0, b=0.04, sigma=0.6, y0=0.06, horizon=1.0)
    expected = 0.06 * np.exp(-p.a_strat * 0.1 + 0.6 * 0.2)
    for kind in (LOG_ODE, PARABOLA, LINEAR):
        assert step(kind, 0.06, p, 0.2, 0.05, 0.1) == pytest.approx(expected, rel=1e-15), kind


def test_log_ode_one_step_self_consistency():
    # single coarse step vs a fine chain over the same coarsened data is
    # O(h^2): halving h shrinks the mean defect by roughly 4.
    n, substeps = 2000, 1000
    log_ode = igbm.kernel_fn(LOG_ODE)
    defects = {}
    for h in (0.1, 0.05):
        g = np.random.default_rng(17)
        d = h / substeps
        z = g.standard_normal((n, substeps, 2)).T
        wf = z[0] * np.sqrt(d)  # (substeps, n), time-major
        hf = z[1] * np.sqrt(d / 12.0)
        (wc,), (hc,) = bm.coarsen_arrays(wf, hf, [substeps, 0])
        y_fine = np.full(n, 0.06)
        for k in range(substeps):
            y_fine = log_ode(y_fine, wf[k], hf[k], d, BENCH)
        y_one = log_ode(np.full(n, 0.06), wc, hc, h, BENCH)
        defects[h] = np.mean(np.abs(y_one - y_fine))
    ratio = defects[0.1] / defects[0.05]
    assert 2.0 < ratio < 8.0, defects


def test_linear_step_examples():
    p = BENCH
    x = -p.a_strat * 0.1
    got = step(LINEAR, 0.06, p, 0.0, 0.123, 0.1)  # H ignored
    assert got == pytest.approx(0.06 * np.exp(x) + 0.004 * 0.1 * igbm.phi(x), abs=1e-16)
    # W chosen so the exponent vanishes: second term is exactly abh
    w0 = p.a_strat * 0.1 / p.sigma
    got = step(LINEAR, 0.06, p, w0, 0.0, 0.1)
    assert got == pytest.approx(0.06 + 0.004 * 0.1, rel=1e-14)


def test_parabola_step_degenerates_to_linear_when_flat():
    # H = 0 turns the parabola into the chord; 3-point quadrature then
    # matches the closed-form phi to near roundoff (quadrature residue grows
    # like (sigma W)^6, so keep h small for the tight bound).
    g = rng(3)
    for _ in range(200):
        w = g.normal(0.0, np.sqrt(0.01))
        y = g.uniform(0.01, 0.2)
        linear = step(LINEAR, y, BENCH, w, 0.0, 0.01)
        assert step(PARABOLA, y, BENCH, w, 0.0, 0.01) == pytest.approx(linear, abs=1e-14)


def test_parabola_step_sigma_zero_matches_exact_flow():
    p = igbm.IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=1.0)
    got = step(PARABOLA, 0.06, p, 0.5, 0.2, 0.1)
    analytic = 0.04 + (0.06 - 0.04) * np.exp(-0.01)
    assert got == pytest.approx(analytic, abs=1e-10)


def test_parabola_quadrature_adequacy():
    # replacing the 3-point rule by a composite rule changes steps by < 1e-6
    from polybrown.orthopoly import gauss_legendre_01

    nodes, weights = gauss_legendre_01(3)
    panels = 333
    g = rng(4)
    worst = 0.0
    for _ in range(200):
        h = 0.05
        w, h_area = bm.sample_pair(h, g)
        y = g.uniform(0.01, 0.2)
        growth = np.exp(-BENCH.a_strat * h + BENCH.sigma * w)
        acc = 0.0
        for j in range(panels):
            lo = j / panels
            u = lo + nodes / panels
            parab = u * w + 6.0 * u * (1.0 - u) * h_area
            acc += np.sum(weights / panels * np.exp(BENCH.a_strat * u * h - BENCH.sigma * parab))
        composite = growth * (y + BENCH.a * BENCH.b * h * acc)
        worst = max(worst, abs(step(PARABOLA, y, BENCH, w, h_area, h) - composite))
    assert worst < 1e-6


def test_milstein_step_arithmetic():
    # direct arithmetic with the Stratonovich drift ab - a~y (a~ = 0.28)
    got = step(MILSTEIN, 0.06, BENCH, 0.0, 0.0, 0.05)
    assert got == pytest.approx(0.05936, rel=1e-12)
    # large negative W forces the clamp
    assert step(MILSTEIN, 0.06, BENCH, -10.0, 0.0, 0.05) >= 0.0
    p0 = igbm.IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=1.0)
    assert step(MILSTEIN, 0.06, p0, 0.7, 0.0, 0.05) == pytest.approx(
        0.06 + 0.1 * (0.04 - 0.06) * 0.05, rel=1e-14
    )


def test_milstein_clamp_hits_zero_exactly():
    # a = 0, b = 0, sigma = 1: a~ = 1/2 and ab = 0, so W = -1, h = 1 gives
    # e = 1 - 1/2 - 1 + 1/2 = 0 and c = 0, and the unclamped step lands
    # exactly on zero; Euler clamps for any larger kick.
    p = igbm.IgbmParams(a=0.0, b=0.0, sigma=1.0, y0=1.0, horizon=1.0)
    assert step(MILSTEIN, 1.0, p, -1.0, 0.0, 1.0) == 0.0
    assert step(MILSTEIN, 1.0, p, -2.0, 0.0, 1.0) >= 0.0
    assert step(EULER, 1.0, p, -2.0, 0.0, 1.0) == 0.0


def test_euler_step_arithmetic():
    got = step(EULER, 0.06, BENCH, 0.0, 0.0, 0.05)
    assert got == pytest.approx(0.0599, rel=1e-14)
    p = igbm.IgbmParams(a=0.1, b=0.06, sigma=0.0, y0=0.06, horizon=1.0)
    assert step(EULER, 0.06, p, 1.0, 0.5, 0.25) == 0.06  # fixed point of the drift


def test_lie_bracket_constants():
    # [f1, f0] = f0' f1 - f1' f0 and the iterated bracket, with
    # f0(y) = ab - a~y, f1(y) = sigma y: both collapse to constants.
    g = rng(5)
    p = BENCH
    f0 = lambda y: p.a * p.b - p.a_strat * y
    f1 = lambda y: p.sigma * y
    f0p, f1p = -p.a_strat, p.sigma
    for y in g.uniform(-2.0, 2.0, size=20):
        bracket = f0p * f1(y) - f1p * f0(y)
        assert bracket == pytest.approx(-p.a * p.b * p.sigma, rel=1e-12)
        # second bracket of the constant field g0 = [f1, f0]:
        iterated = 0.0 * f1(y) - f1p * bracket
        assert iterated == pytest.approx(p.a * p.b * p.sigma**2, rel=1e-12)


# ---------------------------------------------------------------------------
# Simulation driver


def make_increments(paths, steps, horizon, g):
    """Time-major (steps, paths) W and H."""
    h = horizon / steps
    z = g.standard_normal((paths, steps, 2)).T
    return z[0] * np.sqrt(h), z[1] * np.sqrt(h / 12.0)


def test_simulate_requires_pairs():
    with pytest.raises(ValueError):
        igbm.simulate(LOG_ODE, BENCH, np.empty((0, 3)), np.empty((0, 3)))


def test_simulate_checks_coverage():
    # W, H and out must cover the same (steps, paths) intervals
    with pytest.raises(ValueError):
        igbm.simulate(LOG_ODE, BENCH, np.zeros((3, 4)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        igbm.simulate(LOG_ODE, BENCH, np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        igbm.simulate(LOG_ODE, BENCH, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        igbm.simulate(LOG_ODE, BENCH, np.zeros((3, 4)), np.zeros((3, 4)), out=np.empty((4, 4)))


@pytest.mark.parametrize("dtype", [int, np.float32, np.complex128, object])
def test_simulate_refuses_an_out_that_is_not_float64(dtype):
    # an int `out` truncated every stored value to 0 without a word
    out = np.zeros((4, 5), dtype=dtype)
    w, hh = make_increments(4, 5, BENCH.horizon, rng(13))
    with pytest.raises(ValueError, match=r"^w, h_area and out must be \(steps, paths\) float64 arrays of one shape$"):
        igbm.simulate(LOG_ODE, BENCH, w, hh, out=out)
    assert np.all(out == 0)


@pytest.mark.parametrize("kind", igbm.SchemeKind)
@pytest.mark.parametrize("h", [0.0, -0.1, np.nan])
def test_simulate_refuses_a_step_length_that_is_not_positive(kind, h):
    w, hh = make_increments(2, 3, BENCH.horizon, rng(13))
    out = np.full_like(w, 7.0)
    with pytest.raises(ValueError, match="^h must be > 0$"):
        igbm.simulate(kind, BENCH, w, hh, out=out, h=h)
    assert np.all(out == 7.0)  # refused before the fold


def test_simulate_folds_kernel_with_step_length_horizon_over_steps():
    w, hh = make_increments(4, 25, BENCH.horizon, rng(11))
    for kind in igbm.SchemeKind:
        y = np.full(4, BENCH.y0)
        for k in range(25):
            y = step(kind, y, BENCH, w[k], hh[k], BENCH.horizon / 25)
        assert igbm.simulate(kind, BENCH, w, hh).tobytes() == y.tobytes(), kind


def test_simulate_deterministic_limit_all_schemes():
    p = igbm.IgbmParams(a=0.3, b=0.05, sigma=0.0, y0=0.11, horizon=2.0)
    w, hh = make_increments(3, 200, 2.0, rng(6))
    analytic = p.b + (p.y0 - p.b) * np.exp(-p.a * p.horizon)
    for kind in (LOG_ODE, PARABOLA, LINEAR):
        np.testing.assert_allclose(igbm.simulate(kind, p, w, hh), analytic, rtol=1e-9, err_msg=str(kind))
    for kind in (MILSTEIN, EULER):
        np.testing.assert_allclose(igbm.simulate(kind, p, w, hh), analytic, rtol=5e-3, err_msg=str(kind))


def test_simulate_determinism():
    w, hh = make_increments(5, 50, 5.0, rng(7))
    a = igbm.simulate(LOG_ODE, BENCH, w, hh)
    b = igbm.simulate(LOG_ODE, BENCH, w, hh)
    np.testing.assert_array_equal(a, b)


def test_simulate_writes_every_step_to_out():
    w, hh = make_increments(2, 50, 5.0, rng(8))
    out = np.full((50, 2), np.nan)
    y = igbm.simulate(MILSTEIN, BENCH, w, hh, out=out)
    np.testing.assert_array_equal(out[-1], y)
    np.testing.assert_array_equal(y, igbm.simulate(MILSTEIN, BENCH, w, hh))
    for k in range(1, 50):  # row k - 1 holds y after k steps
        np.testing.assert_array_equal(out[k - 1], igbm.simulate(MILSTEIN, BENCH, w[:k], hh[:k], h=0.1))


@pytest.mark.parametrize("with_out", [False, True])
def test_simulate_refuses_non_finite_values(with_out):
    w, hh = make_increments(3, 5, 5.0, rng(12))
    out = np.empty_like(w) if with_out else None
    wild = igbm.IgbmParams(a=0.1, b=0.04, sigma=100.0, y0=0.06, horizon=5.0)
    with pytest.raises(ValueError, match="the parabola scheme"):
        igbm.simulate(PARABOLA, wild, w, hh, out=out)  # exp overflows: 0 * inf
    # e = 1 - ah = -5e199 and c = abh = 2e198: the steps go to -1e198, clamped
    # to 0, then 2e198, then -inf, which the clamp must not turn into 0
    wild = igbm.IgbmParams(a=1e200, b=0.04, sigma=0.0, y0=0.06, horizon=1.5)
    for kind in (MILSTEIN, EULER):
        with pytest.raises(ValueError, match=f"the {kind.value} scheme gave non-finite values"):
            igbm.simulate(kind, wild, np.zeros((3, 1)), np.zeros((3, 1)), out=None if out is None else np.empty((3, 1)))
    w[2, 1] = np.nan
    for kind in igbm.SchemeKind:
        with pytest.raises(ValueError, match=f"the {kind.value} scheme gave non-finite values"):
            igbm.simulate(kind, BENCH, w, hh, out=out)


def test_non_negativity_all_schemes():
    # multiplicative schemes stay positive since ab >= 0; the clamped schemes
    # stay non-negative by construction.  10^4 paths, vectorized.
    g = rng(9)
    n_paths, n_steps = 10_000, 50
    h = BENCH.horizon / n_steps
    z = g.standard_normal((n_steps, n_paths, 2))
    w = z[..., 0] * np.sqrt(h)
    hh = z[..., 1] * np.sqrt(h / 12.0)
    traj = np.empty_like(w)
    for kind in igbm.SchemeKind:
        igbm.simulate(kind, BENCH, w, hh, out=traj)
        assert traj.min() >= 0.0, kind


def test_one_step_weak_defect_ordering():
    # with common random numbers, |E[one step - fine chain]| at h = 0.1 is
    # smallest for the high-order scheme.
    g = rng(10)
    n = 200_000
    substeps = 50
    h = 0.1
    d = h / substeps
    z = g.standard_normal((n, substeps, 2)).T
    wf = z[0] * np.sqrt(d)  # (substeps, n), time-major
    hf = z[1] * np.sqrt(d / 12.0)
    (wc,), (hc,) = bm.coarsen_arrays(wf, hf, [substeps, 0])
    log_ode = igbm.kernel_fn(LOG_ODE)
    y_fine = np.full(n, BENCH.y0)
    for k in range(substeps):
        y_fine = log_ode(y_fine, wf[k], hf[k], d, BENCH)
    defects = {}
    for kind in igbm.SchemeKind:
        y1 = igbm.kernel_fn(kind)(np.full(n, BENCH.y0), wc, hc, h, BENCH)
        defects[kind] = abs(np.mean(y1 - y_fine))
    log_defect = defects.pop(igbm.SchemeKind.LOG_ODE)
    assert all(log_defect < v for v in defects.values()), (log_defect, defects)
