"""Tests for the Monte Carlo error harness."""

import itertools
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polybrown import harness
from polybrown.igbm import REFERENCE, IgbmParams, SchemeKind


def small_config(num_paths=400, step_counts=(10, 20, 40), seed=99, schemes=tuple(SchemeKind)):
    return harness.ExperimentConfig(REFERENCE, schemes, step_counts, num_paths, seed)


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
    with pytest.raises(ValueError, match="need at least one step count"):
        small_config(step_counts=())
    with pytest.raises(ValueError, match="each step count must divide the next: 10,15,30"):
        small_config(step_counts=(10, 15, 30))
    with pytest.raises(ValueError, match="schemes must be distinct: linear,linear"):
        small_config(schemes=(SchemeKind.PIECEWISE_LINEAR, SchemeKind.PIECEWISE_LINEAR))


def test_config_rejects_stream_key_overflow():
    # step counts stay below 2^16 (the harness keys its streams at level 0);
    # path indices are the stream key's low 32 bits
    small_config(step_counts=(5, (1 << 16) - 1))
    with pytest.raises(ValueError):
        small_config(step_counts=(8, 1 << 16))
    with pytest.raises(ValueError):
        small_config(num_paths=(1 << 32) + 1)
    small_config(seed=(1 << 64) - 1)
    with pytest.raises(ValueError):
        small_config(seed=1 << 64)
    with pytest.raises(ValueError):
        small_config(seed=-1)


def _assert_fine_mesh_bound(step_counts):
    # fine mesh <= min(h/10, T/1000) at every level, on a mesh every level coarsens exactly
    m = harness.fine_steps(step_counts)
    assert m >= 1000
    for n in step_counts:
        assert m % n == 0 and m // n >= 10, (step_counts, n, m)


def test_fine_steps_on_the_repo_grids():
    grids = {(25, 50, 100, 200, 400): 4000, (5, 10, 20, 40, 80, 160): 1600, (800, 1600, 3200): 32000}
    for grid, expected in grids.items():
        assert harness.fine_steps(grid) == expected
    for grid in [*grids, (10, 20, 40), (5, 10, 20), (25, 50), (3,), (1,), ((1 << 16) - 1,)]:
        _assert_fine_mesh_bound(grid)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.integers(1, 3000), st.lists(st.integers(1, 7), max_size=5))
def test_fine_steps_bound_every_level(base, ratios):
    _assert_fine_mesh_bound(tuple(itertools.accumulate([base, *ratios], lambda n, r: n * r)))


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
    w, hh = next(harness.path_increments(7, 1, 25, range(2, 5), 6, np.sqrt([0.2, 0.2 / 12.0])))
    assert w.shape == hh.shape == (3, 6)
    z = harness.path_generator(7, 1, 25, 3).standard_normal((6, 2))
    np.testing.assert_array_equal(w[1], z[:, 0] * np.sqrt(0.2))
    np.testing.assert_array_equal(hh[1], z[:, 1] * np.sqrt(0.2 / 12.0))


@settings(deadline=None, derandomize=True, max_examples=50)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**64 - 1))
def test_chunked_draws_join_to_one_draw(n, paths, seed):
    # every chunk length that divides n gives the single draw's columns, to
    # the bit, in time-major chunks; any other length is refused
    scale = np.sqrt([0.2, 0.2 / 12.0])
    whole = next(harness.path_increments(seed, 1, 25, range(paths), n, scale))
    for chunk in range(1, n + 1):
        draws = harness.path_increments(seed, 1, 25, range(paths), n, scale, chunk)
        if n % chunk:
            with pytest.raises(ValueError, match="chunk must divide"):
                next(draws)
            continue
        chunks = list(draws)
        assert all(a.shape == (paths, chunk) and a.flags.f_contiguous for pair in chunks for a in pair)
        for joined, expected in zip(map(np.hstack, zip(*chunks)), whole):
            assert joined.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Slope fitting


def test_fit_slope_exact_powers():
    hs = [0.4, 0.2, 0.1, 0.05]
    slope, _ = harness.fit_slope([(h, 3.0 * h) for h in hs])
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope, stderr = harness.fit_slope([(h, 0.2 * h**1.5) for h in hs])
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_slope_on_benchmark_shaped_data():
    # errors falling ~1000x over h in [0.005, 0.1] fit a slope near 1.5
    hs = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
    g = np.random.default_rng(0)
    errs = 0.01 * hs**1.5 * np.exp(g.normal(0.0, 0.05, hs.size))
    slope, _ = harness.fit_slope(list(zip(hs, errs)))
    assert abs(slope - 1.5) < 0.15


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
    fine, coarse = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), (20,), 20, 99, range(400))
    np.testing.assert_array_equal(fine, coarse[20, SchemeKind.LOG_ODE])
    assert harness._strong_stats(fine, coarse[20, SchemeKind.LOG_ODE]) == (0.0, 0.0)


@pytest.mark.parametrize("step_counts", [(100, 200, 400), (200, 400, 800)])
def test_block_memory_does_not_grow_with_the_fine_mesh(step_counts):
    # a 64-path block on 4000 and 8000 fine steps: held as whole arrays its W
    # and H alone would take 4 and 8 MB; streamed it is the same block
    n_fine = harness.fine_steps(step_counts)
    args = (REFERENCE, tuple(SchemeKind), step_counts, n_fine, 5, range(64))
    tracemalloc.start()
    try:
        fine, coarse = harness._simulate_block(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20
    h = REFERENCE.horizon / n_fine
    w, h_area = next(harness.path_increments(5, harness._DOMAIN_HARNESS, 0, range(64), n_fine, np.sqrt([h, h / 12.0])))
    expected_fine, expected = oracles.whole_block(REFERENCE, tuple(SchemeKind), step_counts, w, h_area)
    assert fine.tobytes() == expected_fine.tobytes()
    assert all(coarse[key].tobytes() == terminals.tobytes() for key, terminals in expected.items())


def test_weak_block_memory_stays_within_its_budget():
    # one 512-path block on the weak grid peaks at 6.05 MiB; preparing the
    # schemes over slabs of 16 steps keeps it there (32-step slabs read 6.45)
    step_counts = (5, 10, 20, 40, 80, 160)
    args = (REFERENCE, tuple(SchemeKind), step_counts, harness.fine_steps(step_counts), 1)
    harness._simulate_block(*args, range(1))  # the first block also allocates one-time caches
    tracemalloc.start()
    try:
        harness._simulate_block(*args, range(512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.15 * (1 << 20)


def test_weak_coupling_identity():
    fine, coarse = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), (20,), 20, 99, range(400))
    err, se = harness._weak_stats(fine, coarse[20, SchemeKind.LOG_ODE], REFERENCE.b)
    assert err == 0.0


def test_sigma_zero_is_deterministic():
    params = IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=5.0)
    cfg = harness.ExperimentConfig(
        params=params, schemes=(SchemeKind.EULER_MARUYAMA,), step_counts=(10, 20, 40), num_paths=200, seed=1
    )
    row = harness.run_experiment(cfg, "strong")[0][1]
    assert row.n_steps == 20
    assert row.error > 0.0  # Euler discretizes the ODE inexactly
    assert row.std_err < 1e-12 * row.error  # identical across paths, up to summation residue


def test_strong_order_of_magnitude():
    # order-1.5 scheme: halving h scales the error by ~2^1.5
    cfg = small_config(num_paths=10_000, step_counts=(50, 100), seed=5, schemes=(SchemeKind.LOG_ODE,))
    with pytest.warns(UserWarning, match=r"^no strong slope for log-ode \(fewer than 3 step counts\)$"):
        e50, e100 = (row.error for row in harness.run_experiment(cfg, "strong")[0])
    assert 2.2 <= e50 / e100 <= 3.5


# ---------------------------------------------------------------------------
# Experiment driver


def test_run_experiment_report_shape():
    cfg = small_config(schemes=(SchemeKind.LOG_ODE, SchemeKind.EULER_MARUYAMA))
    for metric in ("strong", "weak"):
        rows, slopes = harness.run_experiment(cfg, metric)
        assert len(rows) == 6
        assert [(r.scheme, r.metric) for r in slopes] == [(s, metric) for s in cfg.schemes]
        assert all(r.error >= 0 for r in rows)
        assert [r.h for r in rows if r.scheme is SchemeKind.LOG_ODE] == [0.5, 0.25, 0.125]
    for metric in ("strongest", ("strong",), ("strong", "weak")):
        with pytest.raises(ValueError):
            harness.run_experiment(cfg, metric)


def test_run_experiment_deterministic():
    cfg = small_config()
    assert harness.run_experiment(cfg, "strong") == harness.run_experiment(cfg, "strong")


def test_slopes_left_out_are_named_in_a_warning():
    flat = IgbmParams(a=0.1, b=0.0, sigma=0.6, y0=0.0, horizon=5.0)  # y stays 0: every error is 0
    schemes = (SchemeKind.PIECEWISE_LINEAR, SchemeKind.EULER_MARUYAMA)
    cfg = harness.ExperimentConfig(params=flat, schemes=schemes, step_counts=(5, 10, 20), num_paths=100, seed=0)
    with pytest.warns(UserWarning) as record:
        _, slopes = harness.run_experiment(cfg, "weak")
    assert slopes == ()
    zeros = "error 0 at N=5, error 0 at N=10, error 0 at N=20"
    assert [str(w.message) for w in record] == [f"no weak slope for linear, euler ({zeros})"]
    two_levels = small_config(step_counts=(10, 20), schemes=(SchemeKind.LOG_ODE,))
    with pytest.warns(UserWarning, match=r"^no strong slope for log-ode \(fewer than 3 step counts\)$"):
        rows, slopes = harness.run_experiment(two_levels, "strong")
    assert slopes == () and len(rows) == 2


def test_block_size_does_not_change_the_report(monkeypatch):
    cfg = small_config()
    expected = {metric: harness.run_experiment(cfg, metric) for metric in ("strong", "weak")}
    monkeypatch.setattr(harness, "_BLOCK", 97)  # does not divide the 400 paths
    for workers in (1, 2):
        assert {metric: harness.run_experiment(cfg, metric, workers) for metric in expected} == expected


def test_non_finite_terminals_raise_through_the_pool(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK", 50)  # two blocks, so two pool processes
    wild = IgbmParams(a=0.1, b=0.04, sigma=100.0, y0=0.06, horizon=5.0)
    cfg = harness.ExperimentConfig(wild, (SchemeKind.PARABOLA_ODE,), (5, 10, 20), num_paths=100, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="the parabola scheme"):
        harness.run_experiment(cfg, "strong", workers=2)


def test_no_more_pool_processes_than_blocks(monkeypatch):
    sizes, starmaps = [], []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size and each
        `starmap`'s tasks and chunk size, runs in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=None):
            starmaps.append(([task[-1] for task in tasks], chunksize))
            return list(itertools.starmap(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    one_block = small_config(num_paths=100, schemes=(SchemeKind.EULER_MARUYAMA,))
    assert harness.run_experiment(one_block, "strong", workers=8) == harness.run_experiment(one_block, "strong")
    assert sizes == []  # a single block runs in-process
    three_blocks = small_config(num_paths=1100, step_counts=(1, 2, 4), schemes=(SchemeKind.EULER_MARUYAMA,))
    expected = harness.run_experiment(three_blocks, "strong")
    for workers in (8, 2):
        assert harness.run_experiment(three_blocks, "strong", workers=workers) == expected
    assert sizes == [3, 2]
    # one block per task, in block order, handed out singly so no worker idles behind a batch
    assert starmaps == 2 * [([range(0, 512), range(512, 1024), range(1024, 1100)], 1)]


def test_pool_under_spawn_equals_the_in_process_run(monkeypatch):
    # spawned workers start from a fresh import, not a copy of the parent: macOS
    # spawns, and from Python 3.14 Linux starts workers from a forkserver
    cfg = small_config(num_paths=600, step_counts=(5, 10, 20))  # two blocks
    expected = harness.run_experiment(cfg, "strong")
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    assert harness.run_experiment(cfg, "strong", workers=2) == expected


def test_worker_count_invariance():
    cfg = small_config(num_paths=600, step_counts=(10, 20, 40))
    assert harness.run_experiment(cfg, "strong", workers=1) == harness.run_experiment(cfg, "strong", workers=2)


def test_monotone_errors_at_test_scale():
    cfg = small_config(num_paths=2000, step_counts=(25, 50, 100, 200), seed=3)
    rows, _ = harness.run_experiment(cfg, "strong")
    for scheme in cfg.schemes:
        errs = [r.error for r in rows if r.scheme is scheme]
        violations = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
        assert violations <= 1, (scheme, errs)


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_writers(tmp_path):
    cfg = small_config(schemes=(SchemeKind.PARABOLA_ODE,))
    rows, slope_rows = harness.run_experiment(cfg, "strong")
    strong_csv = tmp_path / "strong.csv"
    slopes_csv = tmp_path / "slopes.csv"
    harness.write_error_csv(rows, strong_csv)
    harness.write_slopes_csv(slope_rows, slopes_csv)
    lines = strong_csv.read_text().splitlines()
    assert lines[0] == "scheme,N,h,error,std_err"
    assert lines[1].startswith("parabola,10,0.5,")
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert float(fields[3]) == rows[0].error  # 17 significant digits round-trip
    slopes = slopes_csv.read_text().splitlines()
    assert slopes[0] == "scheme,metric,slope,slope_stderr"
    assert len(slopes) == 2 and slopes[1].startswith("parabola,strong,")
