"""Tests for the Monte Carlo error harness."""

import numpy as np
import pytest

from polybrown import harness
from polybrown.igbm import REFERENCE, IgbmParams, SchemeKind


def small_config(**kw):
    defaults = dict(num_paths=400, step_counts=(10, 20, 40), seed=99)
    defaults.update(kw)
    return harness.default_config(**defaults)


# ---------------------------------------------------------------------------
# Configuration and plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(step_counts=(20, 10))
    with pytest.raises(ValueError):
        small_config(step_counts=(10, 10, 20))
    with pytest.raises(ValueError):
        small_config(num_paths=50)
    with pytest.raises(ValueError):
        small_config(schemes=())


def test_config_rejects_stream_key_overflow():
    # step counts key the stream's level (16 bits), path indices its low 32 bits
    small_config(step_counts=(10, (1 << 16) - 1))
    with pytest.raises(ValueError):
        small_config(step_counts=(10, 1 << 16))
    with pytest.raises(ValueError):
        small_config(num_paths=(1 << 32) + 1)
    small_config(seed=(1 << 64) - 1)
    with pytest.raises(ValueError):
        small_config(seed=1 << 64)
    with pytest.raises(ValueError):
        small_config(seed=-1)


def test_fine_substeps_rule():
    # fine mesh = min(h/10, T/1000): 1000/N substeps, floored at 10
    assert harness.fine_substeps(25) == 40
    assert harness.fine_substeps(50) == 20
    assert harness.fine_substeps(100) == 10
    assert harness.fine_substeps(200) == 10
    assert harness.fine_substeps(400) == 10


def test_path_streams_are_reproducible_and_distinct():
    g1 = harness.path_generator(7, 1, 25, 3).standard_normal(4)
    g2 = harness.path_generator(7, 1, 25, 3).standard_normal(4)
    g3 = harness.path_generator(7, 1, 25, 4).standard_normal(4)
    np.testing.assert_array_equal(g1, g2)
    assert not np.array_equal(g1, g3)


def test_path_generator_rejects_out_of_range_keys():
    harness.path_generator((1 << 64) - 1, (1 << 16) - 1, (1 << 16) - 1, (1 << 32) - 1)
    for key in ((-1, 1, 25, 3), (1 << 64, 1, 25, 3), (7, 1 << 16, 25, 3), (7, 1, 1 << 16, 3), (7, 1, 25, 1 << 32)):
        with pytest.raises(ValueError):
            harness.path_generator(*key)


def test_path_increments_scale_one_stream_per_path():
    w, hh = harness.path_increments(7, 1, 25, range(2, 5), 6, 0.2)
    assert w.shape == hh.shape == (3, 6)
    z = harness.path_generator(7, 1, 25, 3).standard_normal((6, 2))
    np.testing.assert_array_equal(w[1], z[:, 0] * np.sqrt(0.2))
    np.testing.assert_array_equal(hh[1], z[:, 1] * np.sqrt(0.2 / 12.0))


# ---------------------------------------------------------------------------
# Slope fitting


def test_fit_slope_exact_powers():
    hs = [0.4, 0.2, 0.1, 0.05]
    fit = harness.fit_slope([(h, 3.0 * h) for h in hs])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    fit = harness.fit_slope([(h, 0.2 * h**1.5) for h in hs])
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_slope_on_benchmark_shaped_data():
    # errors falling ~1000x over h in [0.005, 0.1] fit a slope near 1.5
    hs = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
    g = np.random.default_rng(0)
    errs = 0.01 * hs**1.5 * np.exp(g.normal(0.0, 0.05, hs.size))
    fit = harness.fit_slope(list(zip(hs, errs)))
    assert abs(fit.slope - 1.5) < 0.15


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        harness.fit_slope([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        harness.fit_slope([(0.1, 1.0), (0.05, 0.5), (0.02, -0.1)])
    with pytest.raises(ValueError):
        harness.fit_slope([(0.1, 1.0), (0.0, 0.5), (0.02, 0.1)])


# ---------------------------------------------------------------------------
# Error statistics on coupled blocks


def test_strong_coupling_identity():
    # fine resolution == coarse resolution for the reference scheme: S = 0
    fine, coarse = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), 20, 1, 99, 0, 400)
    np.testing.assert_array_equal(fine, coarse[SchemeKind.LOG_ODE])
    assert harness._strong_stats(fine, coarse[SchemeKind.LOG_ODE]) == (0.0, 0.0)


def test_weak_coupling_identity():
    fine, coarse = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), 20, 1, 99, 0, 400)
    err, se = harness._weak_stats(fine, coarse[SchemeKind.LOG_ODE], REFERENCE.b)
    assert err == 0.0


def test_sigma_zero_is_deterministic():
    params = IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=5.0)
    cfg = harness.ExperimentConfig(
        params=params, schemes=(SchemeKind.EULER_MARUYAMA,), step_counts=(10, 20, 40), num_paths=200, seed=1
    )
    row = harness.run_experiment(cfg, metrics=("strong",)).strong[1]
    assert row.n_steps == 20
    assert row.error > 0.0  # Euler discretizes the ODE inexactly
    assert row.std_err < 1e-12 * row.error  # identical across paths, up to summation residue


def test_strong_order_of_magnitude():
    # order-1.5 scheme: halving h scales the error by ~2^1.5
    cfg = harness.default_config(num_paths=10_000, step_counts=(50, 100), seed=5, schemes=(SchemeKind.LOG_ODE,))
    e50, e100 = (row.error for row in harness.run_experiment(cfg, metrics=("strong",)).strong)
    assert 2.2 <= e50 / e100 <= 3.5


# ---------------------------------------------------------------------------
# Experiment driver


def test_run_experiment_report_shape():
    cfg = small_config(schemes=(SchemeKind.LOG_ODE, SchemeKind.EULER_MARUYAMA))
    rep = harness.run_experiment(cfg)
    assert len(rep.strong) == 6
    assert len(rep.weak) == 6
    assert {r.metric for r in rep.slopes} == {"strong", "weak"}
    assert all(r.error >= 0 for r in rep.strong)
    hs = [r.h for r in rep.strong if r.scheme is SchemeKind.LOG_ODE]
    assert hs == [0.5, 0.25, 0.125]
    for metrics in (("strongest",), ("strong", "strong")):
        with pytest.raises(ValueError):
            harness.run_experiment(cfg, metrics=metrics)


def test_run_experiment_deterministic():
    cfg = small_config()
    rep1 = harness.run_experiment(cfg, metrics=("strong",))
    rep2 = harness.run_experiment(cfg, metrics=("strong",))
    assert rep1 == rep2


def test_slopes_left_out_are_named_in_a_warning():
    flat = IgbmParams(a=0.1, b=0.0, sigma=0.6, y0=0.0, horizon=5.0)  # y stays 0: every error is 0
    schemes = (SchemeKind.PIECEWISE_LINEAR, SchemeKind.EULER_MARUYAMA)
    cfg = harness.ExperimentConfig(params=flat, schemes=schemes, step_counts=(5, 10, 20), num_paths=100, seed=0)
    with pytest.warns(UserWarning) as record:
        rep = harness.run_experiment(cfg, metrics=("weak",))
    assert rep.slopes == ()
    zeros = "error 0 at N=5, error 0 at N=10, error 0 at N=20"
    assert [str(w.message) for w in record] == [f"no weak slope for linear, euler ({zeros})"]
    with pytest.warns(UserWarning, match=r"^no strong slope for log-ode \(fewer than 3 step counts\)$"):
        rep = harness.run_experiment(small_config(step_counts=(10, 20), schemes=(SchemeKind.LOG_ODE,)), ("strong",))
    assert rep.slopes == () and len(rep.strong) == 2


def test_block_size_does_not_change_the_report(monkeypatch):
    cfg = small_config()
    expected = harness.run_experiment(cfg)
    monkeypatch.setattr(harness, "_BLOCK", 97)  # does not divide the 400 paths
    for workers in (1, 2):
        assert harness.run_experiment(cfg, workers=workers) == expected


def test_worker_count_invariance():
    cfg = small_config(num_paths=600, step_counts=(10, 20, 40))
    rep1 = harness.run_experiment(cfg, metrics=("strong",), workers=1)
    rep2 = harness.run_experiment(cfg, metrics=("strong",), workers=2)
    assert rep1 == rep2


def test_monotone_errors_at_test_scale():
    cfg = harness.default_config(num_paths=2000, step_counts=(25, 50, 100, 200), seed=3)
    rep = harness.run_experiment(cfg, metrics=("strong",))
    for scheme in cfg.schemes:
        errs = [r.error for r in rep.strong if r.scheme is scheme]
        violations = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
        assert violations <= 1, (scheme, errs)


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_writers(tmp_path):
    cfg = small_config(schemes=(SchemeKind.PARABOLA_ODE,))
    rep = harness.run_experiment(cfg)
    strong_csv = tmp_path / "strong.csv"
    slopes_csv = tmp_path / "slopes.csv"
    harness.write_error_csv(rep.strong, strong_csv)
    harness.write_slopes_csv(rep.slopes, slopes_csv)
    lines = strong_csv.read_text().splitlines()
    assert lines[0] == "scheme,N,h,error,std_err"
    assert lines[1].startswith("parabola,10,0.5,")
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert float(fields[3]) == rep.strong[0].error  # 17 significant digits round-trip
    slopes = slopes_csv.read_text().splitlines()
    assert slopes[0] == "scheme,metric,slope,slope_stderr"
    assert len(slopes) == 3
