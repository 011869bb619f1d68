"""Tests for the Monte Carlo error harness."""

import copy
import functools
import itertools
import multiprocessing
import os
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polybrown import harness, igbm
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
    # library callers get the model's and the schemes' checks too: a scheme's name or a plain
    # tuple of parameters, even one that `IgbmParams` would refuse, is no config
    for params, schemes in [
        (REFERENCE, ("log-ode",)),
        (REFERENCE, (SchemeKind.EULER_MARUYAMA, "linear")),
        ((0.1, 0.04, 0.6, 0.06, 5.0), tuple(SchemeKind)),
        ((float("nan"), 0.04, 0.6, 0.06, 5.0), tuple(SchemeKind)),
        ((-0.1, 0.04, 0.6, 0.06, 5.0), tuple(SchemeKind)),
    ]:
        with pytest.raises(ValueError, match="need IgbmParams and SchemeKinds, got"):
            harness.ExperimentConfig(params, schemes, (5, 10, 20), 100, 0)
    # the integer rules take exact integers from library callers, never a truncated float or a bool
    for bad in (dict(seed=1.5), dict(seed=True), dict(step_counts=(10.5, 21, 42)), dict(num_paths=100.7)):
        with pytest.raises(ValueError, match="expected an integer, got"):
            small_config(**bad)
    # what the rules accept, strings as from the CLI and NumPy integers, is stored as
    # the plain values they return, so the run sees the all-integer config
    plain = harness.ExperimentConfig(REFERENCE, tuple(SchemeKind), (5, 10, 20), 100, 0)
    reports = [repr(harness.run_experiment(plain, metric)) for metric in ("strong", "weak")]
    for steps, paths, seed in [(("5", "10", "20"), "100", "0"), (np.array([5, 10, 20]), np.int64(100), np.uint64(0))]:
        config = harness.ExperimentConfig(REFERENCE, list(SchemeKind), steps, paths, seed)
        assert config == plain and type(config.schemes) is tuple
        assert all(type(n) is int for n in (*config.step_counts, config.num_paths, config.seed))
        assert [repr(harness.run_experiment(config, metric)) for metric in ("strong", "weak")] == reports


def test_records_are_checked_on_every_construction_path():
    # `_replace` builds through `_make`, which a plain named tuple runs
    # without `__new__`; unpickling, as into pool workers, and `copy` call it
    config = small_config()
    with pytest.raises(ValueError, match="a must be finite"):
        REFERENCE._replace(a=float("nan"))
    with pytest.raises(ValueError, match="each step count must divide the next: 10,15"):
        config._replace(step_counts=(10, 15))
    # an integer beyond the float range is non-finite too, not an OverflowError from `float`
    for name, huge in itertools.product(REFERENCE._fields, (10**400, -(10**400))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            REFERENCE._replace(**{name: huge})
    for record in (REFERENCE, config):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(config)).params.a_strat == REFERENCE.a_strat
    # the model stores Python floats, whatever it is given: a float32 sigma kept as
    # it came would overflow in `a_strat`'s comparison with 2^512 (a warning, so an error here)
    for scalar in (np.float32, np.float64, str):
        params = IgbmParams(*map(scalar, REFERENCE))
        assert params == tuple(float(scalar(value)) for value in REFERENCE)
        assert all(type(value) is float for value in (*params, params.a_strat))


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
    assert w.shape == hh.shape == (6, 3)
    z = harness.path_generator(7, 1, 25, 3).standard_normal((6, 2))
    np.testing.assert_array_equal(w[:, 1], z[:, 0] * np.sqrt(0.2))
    np.testing.assert_array_equal(hh[:, 1], z[:, 1] * np.sqrt(0.2 / 12.0))


@settings(deadline=None, derandomize=True, max_examples=50)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**64 - 1))
def test_chunked_draws_join_to_one_draw(n, paths, seed):
    # every chunk length gives the single draw's rows, to the bit, in
    # time-major chunks of that length but the last, which holds what is left;
    # a length past n is one chunk of n
    scale = np.sqrt([0.2, 0.2 / 12.0])
    with mock.patch.object(harness, "_CHUNK", n):
        whole = next(harness.path_increments(seed, 1, 25, range(paths), n, scale))
    for chunk in range(1, n + 2):
        with mock.patch.object(harness, "_CHUNK", chunk):
            chunks = list(harness.path_increments(seed, 1, 25, range(paths), n, scale))
        widths = [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)  # [n] for chunk n + 1
        assert [len(w) for w, _ in chunks] == widths
        assert all(a.shape[1] == paths and a.flags.c_contiguous for pair in chunks for a in pair)
        for joined, expected in zip(map(np.vstack, zip(*chunks)), whole):
            assert joined.tobytes() == expected.tobytes()


def test_path_increments_refuses_empty_chunks():
    # a zero or negative length is refused, not met with a ZeroDivisionError or an empty draw
    for n_intervals in (0, -3):
        with pytest.raises(ValueError, match="must be positive"):
            next(harness.path_increments(7, 1, 25, range(3), n_intervals, [1.0]))


def test_group_size_does_not_change_the_draw(monkeypatch):
    scale = np.sqrt([0.2, 0.2 / 12.0])

    def draw():
        return [a.tobytes() for pair in harness.path_increments(7, 1, 25, range(130), 6, scale) for a in pair]

    monkeypatch.setattr(harness, "_CHUNK", 2)
    expected = draw()
    monkeypatch.setattr(harness, "_GROUP", 7)  # does not divide the 130 paths
    assert draw() == expected


def test_a_long_draw_holds_its_chunk_once(monkeypatch):
    # one chunk of 512 paths x 2000 intervals is 16 MB of (W, H); the 64-path
    # group buffer adds an eighth, where a whole-block draw buffer beside the
    # time-major chunk held it twice
    monkeypatch.setattr(harness, "_CHUNK", 2000)
    tracemalloc.start()
    try:
        for draws in harness.path_increments(1, 1, 0, range(512), 2000, [1.0, 1.0]):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * draws.nbytes


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
    # a slope from non-finite values or a single h would be NaN or infinite
    for bad in (np.nan, np.inf):
        for points in ([(1, bad), (2, 1), (4, 2)], [(bad, 1), (2, 1), (4, 2)]):
            with pytest.raises(ValueError, match="non-finite"):
                harness.fit_slope(points)
    with pytest.raises(ValueError, match="distinct h"):
        harness.fit_slope([(0.1, 1.0), (0.1, 0.5), (0.1, 0.2)])


# ---------------------------------------------------------------------------
# Error statistics on coupled blocks


def test_strong_coupling_identity():
    # fine resolution == coarse resolution for the reference scheme: S = 0
    fine, approx = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), (20,), 20, 99, range(400))
    np.testing.assert_array_equal(fine, approx)
    assert harness._strong_stats(fine, approx) == (0.0, 0.0)


@pytest.mark.parametrize("step_counts", [(100, 200, 400), (200, 400, 800)])
def test_block_memory_does_not_grow_with_the_fine_mesh(step_counts, monkeypatch):
    # a 64-path block on 4000 and 8000 fine steps: held as whole arrays its W
    # and H alone would take 4 and 8 MB; streamed it is the same block
    n_fine = harness.fine_steps(step_counts)
    args = (REFERENCE, tuple(SchemeKind), step_counts, n_fine, 5, range(64))
    tracemalloc.start()
    try:
        table = harness._simulate_block(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20
    h = REFERENCE.horizon / n_fine
    monkeypatch.setattr(harness, "_CHUNK", n_fine)  # the whole mesh in one draw
    w, h_area = next(harness.path_increments(5, harness._DOMAIN_HARNESS, 0, range(64), n_fine, np.sqrt([h, h / 12.0])))
    assert table.tobytes() == oracles.whole_block(REFERENCE, tuple(SchemeKind), step_counts, w, h_area).tobytes()


def test_chunks_keep_their_length_when_the_fine_mesh_has_no_divisor_near_it(monkeypatch):
    # M = 49 990 = 2 * 5 * 4999 has no divisor from 11 to 320: its chunks are
    # still `_CHUNK` fine steps but the last, not 10 (where a normal costs
    # about four times as much), and the block is the whole-array block
    step_counts, draw, widths = (4999,), harness.path_increments, []
    n_fine = harness.fine_steps(step_counts)

    def recording_draw(*args):
        for w, h_area in draw(*args):
            widths.append(len(w))
            yield w, h_area

    monkeypatch.setattr(harness, "path_increments", recording_draw)
    table = harness._simulate_block(REFERENCE, tuple(SchemeKind), step_counts, n_fine, 5, range(64))
    assert n_fine == 49990 and sum(widths) == n_fine
    assert set(widths[:-1]) == {harness._CHUNK}
    h = REFERENCE.horizon / n_fine
    monkeypatch.setattr(harness, "_CHUNK", n_fine)  # the whole mesh in one draw
    w, h_area = next(draw(5, harness._DOMAIN_HARNESS, 0, range(64), n_fine, np.sqrt([h, h / 12.0])))
    assert table.tobytes() == oracles.whole_block(REFERENCE, tuple(SchemeKind), step_counts, w, h_area).tobytes()


def test_block_memory_does_not_grow_with_the_coarsest_step():
    # one coarsest step of 20 000 fine steps is streamed in chunks like the
    # 10-step coarsest step of the large-N grid, not held whole (20 MB per
    # 64 paths for its W and H alone)
    peaks = []
    for step_counts in ((800, 1600, 3200), (1, 2000)):
        args = (REFERENCE, tuple(SchemeKind), step_counts, harness.fine_steps(step_counts), 1, range(64))
        harness._simulate_block(*args[:-1], range(1))  # the first block also allocates one-time caches
        tracemalloc.start()
        try:
            harness._simulate_block(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_weak_block_memory_stays_within_its_budget():
    # one 512-path block on the weak grid peaks at 4.00 MiB: its draws are
    # held once, as the time-major chunk (6.05 MiB beside a whole-block draw
    # buffer), and the schemes are prepared over slabs of 16 steps
    step_counts = (5, 10, 20, 40, 80, 160)
    args = (REFERENCE, tuple(SchemeKind), step_counts, harness.fine_steps(step_counts), 1)
    harness._simulate_block(*args, range(1))  # the first block also allocates one-time caches
    tracemalloc.start()
    try:
        harness._simulate_block(*args, range(512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * (1 << 20)


def test_weak_coupling_identity():
    fine, approx = harness._simulate_block(REFERENCE, (SchemeKind.LOG_ODE,), (20,), 20, 99, range(400))
    err, se = harness._weak_stats(fine, approx, REFERENCE.b)
    assert err == 0.0


@pytest.mark.parametrize("metric", ["strong", "weak"])
@pytest.mark.parametrize("k", [600, -600])
def test_errors_scale_exactly_with_the_level(metric, k):
    # IGBM is linear in (y0, b) jointly, so (y0, b) * 2^k scales every error
    # by 2^k exactly; unscaled, the squares over- or underflow at 2^+-600.
    # The slopes fit log(error) + k log 2, about +-416, whose rounding alone
    # (an ulp of 416 is 5.7e-14) moves a 3-point slope by up to about 8e-14
    def run(scale):
        params = IgbmParams(REFERENCE.a, REFERENCE.b * scale, REFERENCE.sigma, REFERENCE.y0 * scale, REFERENCE.horizon)
        return harness.run_experiment(harness.ExperimentConfig(params, tuple(SchemeKind), (5, 10, 20), 300, 99), metric)

    (rows, slopes), (scaled_rows, scaled_slopes) = run(1.0), run(2.0**k)
    assert [(r.error * 2.0**k, r.std_err * 2.0**k) for r in rows] == [(r.error, r.std_err) for r in scaled_rows]
    assert all(0.0 < r.error < np.inf and 0.0 < r.std_err < np.inf for r in scaled_rows)
    assert len(slopes) == len(scaled_slopes) == len(SchemeKind)
    for slope, scaled in zip(slopes, scaled_slopes):
        assert scaled.slope == pytest.approx(slope.slope, rel=0, abs=1e-13)


@pytest.mark.parametrize("j", [-3, 2])
def test_time_rescaling_keeps_every_value(j):
    # (a, sigma, T) -> (4^j a, 2^j sigma, T / 4^j) divides h by 4^j and W, H by
    # 2^j, all exactly, so every a h, sigma W and sigma H a step is built from,
    # and so every value, is unchanged bit for bit.  The slopes fit
    # log(h) - j log 4, whose rounding moves them by up to about 1e-14
    scaled = REFERENCE._replace(a=REFERENCE.a * 4.0**j, sigma=REFERENCE.sigma * 2.0**j, horizon=REFERENCE.horizon / 4.0**j)
    for metric in ("strong", "weak"):
        configs = (harness.ExperimentConfig(p, tuple(SchemeKind), (5, 10, 20), 100, 7) for p in (REFERENCE, scaled))
        (rows, slopes), (scaled_rows, scaled_slopes) = (harness.run_experiment(cfg, metric) for cfg in configs)
        assert [(r.h / 4.0**j, r.error, r.std_err) for r in rows] == [(r.h, r.error, r.std_err) for r in scaled_rows]
        assert len(slopes) == len(scaled_slopes) == len(SchemeKind)
        for slope, scaled_slope in zip(slopes, scaled_slopes):
            assert scaled_slope.slope == pytest.approx(slope.slope, rel=0, abs=1e-13)
    z = np.random.default_rng(5).standard_normal((2, 30, 4)) * np.sqrt([[[1 / 6]], [[1 / 72]]])  # 30 steps of h = 1/6
    for kind in SchemeKind:
        trajectory = harness._igbm_block(REFERENCE, kind, 30, 7, range(4))
        assert harness._igbm_block(scaled, kind, 30, 7, range(4)).tobytes() == trajectory.tobytes()
        terminals = igbm.simulate(kind, REFERENCE, *z)
        assert igbm.simulate(kind, scaled, *(z / 2.0**j)).tobytes() == terminals.tobytes()


def test_sigma_zero_is_deterministic():
    params = IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=5.0)
    cfg = harness.ExperimentConfig(
        params=params, schemes=(SchemeKind.EULER_MARUYAMA,), step_counts=(10, 20, 40), num_paths=200, seed=1
    )
    row = harness.run_experiment(cfg, "strong")[0][1]
    assert row.n_steps == 20
    assert row.error > 0.0  # Euler discretizes the ODE inexactly
    assert row.std_err < 1e-12 * row.error  # identical across paths, up to summation residue


def test_slopes_of_errors_at_the_rounding_floor_are_left_out():
    # at sigma = 0 the log-ODE, parabola and linear steps solve the ODE
    # exactly, so their errors, 2.4e-15 to 1.0e-14, are rounding below the
    # floor M eps rms(reference) = 1.2e-14 (M = 1000) and a slope through
    # them is noise; Milstein and Euler err by O(h) and keep slopes near 1
    still = IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=5.0)
    cfg = harness.ExperimentConfig(still, tuple(SchemeKind), (5, 10, 20), num_paths=200, seed=0)
    errors = r"\(error \S+ at N=5, error \S+ at N=10, error \S+ at N=20\)"
    with pytest.warns(UserWarning, match=rf"^no strong slope for log-ode, linear {errors}; parabola {errors}$"):
        rows, slopes = harness.run_experiment(cfg, "strong")
    exact = (SchemeKind.LOG_ODE, SchemeKind.PARABOLA_ODE, SchemeKind.PIECEWISE_LINEAR)
    assert all(0 < row.error < 1.1e-14 for row in rows if row.scheme in exact)
    assert [row.scheme for row in slopes] == [SchemeKind.MILSTEIN, SchemeKind.EULER_MARUYAMA]
    assert all(abs(row.slope - 1.0) < 0.05 for row in slopes)
    assert min(row.error for row in rows if row.scheme not in exact) > 7e-5


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


@functools.cache
def _run_schemes(schemes, metric):
    return harness.run_experiment(harness.ExperimentConfig(REFERENCE, schemes, (5, 10, 20), 300, 3), metric)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.permutations(list(SchemeKind)), st.integers(1, len(SchemeKind)))
def test_a_schemes_rows_do_not_depend_on_the_other_schemes(order, count):
    # each scheme's rows and slope, to the bit, whichever schemes run beside it
    # and in whichever order: they index the run's table by the scheme's place
    schemes = tuple(order[:count])
    for metric in ("strong", "weak"):
        (rows, slopes), (all_rows, all_slopes) = _run_schemes(schemes, metric), _run_schemes(tuple(SchemeKind), metric)
        assert [(r.scheme, r.n_steps) for r in rows] == [(scheme, n) for scheme in schemes for n in (5, 10, 20)]
        assert [r.scheme for r in slopes] == list(schemes)
        for scheme in schemes:
            own = [repr([r for r in table if r.scheme is scheme]) for table in (rows, slopes)]
            assert own == [repr([r for r in table if r.scheme is scheme]) for table in (all_rows, all_slopes)]


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
    with pytest.raises(ValueError, match="the parabola scheme"):
        harness.run_experiment(cfg, "strong", workers=2)


def test_no_more_pool_processes_than_blocks(monkeypatch):
    sizes, runs = [], []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, each task
        submitted and each result consumed, and runs the tasks in-process."""

        def __init__(self, processes):
            sizes.append(processes)
            runs.append([])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            events, paths, result = runs[-1], args[-1], fn(*args)
            events.append(("submit", paths))

            class Task:
                def get(self):
                    events.append(("get", paths))
                    return result

            return Task()

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # more CPUs than blocks or workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    one_block = small_config(num_paths=100, schemes=(SchemeKind.EULER_MARUYAMA,))
    assert harness.run_experiment(one_block, "strong", workers=8) == harness.run_experiment(one_block, "strong")
    assert sizes == []  # a single block runs in-process
    three_blocks = small_config(num_paths=1100, step_counts=(1, 2, 4), schemes=(SchemeKind.EULER_MARUYAMA,))
    expected = harness.run_experiment(three_blocks, "strong")
    for workers in (8, 2):
        assert harness.run_experiment(three_blocks, "strong", workers=workers) == expected
    monkeypatch.setattr(harness, "_BLOCK", 100)  # eleven blocks: more than two per process
    assert harness.run_experiment(three_blocks, "strong", workers=2) == expected
    assert sizes == [3, 2, 2]
    eleven = [range(lo, min(lo + 100, 1100)) for lo in range(0, 1100, 100)]
    blocks = [[range(0, 512), range(512, 1024), range(1024, 1100)]] * 2 + [eleven]
    for events, processes, block_ranges in zip(runs, sizes, blocks):
        # one block per task, submitted and consumed in block order, at most two per process in flight
        assert [paths for kind, paths in events if kind == "submit"] == block_ranges
        assert [paths for kind, paths in events if kind == "get"] == block_ranges
        assert max(itertools.accumulate(1 if kind == "submit" else -1 for kind, _ in events)) <= 2 * processes
    # results are consumed as they come, not after every task is handed out
    assert runs[-1].index(("get", range(0, 100))) < runs[-1].index(("submit", range(1000, 1100)))
    # the pool has no more processes than the CPUs this process may run on,
    # and a one-CPU affinity mask on a larger machine runs in-process
    for mask, pools in (({0, 1}, [2]), ({3}, [])):
        sizes.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
        assert harness.run_experiment(three_blocks, "strong", workers=8) == expected
        assert sizes == pools
    # without affinity masks the CPU count caps it: one CPU (or an unknown count) runs in-process
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, pools in ((2, [2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert harness.run_experiment(three_blocks, "strong", workers=8) == expected
        assert sizes == pools


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
