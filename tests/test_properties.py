"""Property-based tests of the simulation and coarsening algebra."""

import itertools
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polybrown import brownian as bm
from polybrown import REFERENCE, IgbmParams, SchemeKind, harness, igbm, levy, orthopoly

# Derandomized, so that a run of the suite is reproducible.
PROPERTY = settings(deadline=None, derandomize=True, max_examples=200)

bounded = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def params(draw):
    """Parameters with ab >= 0, so the exact flow keeps y >= 0."""
    return IgbmParams(
        a=draw(st.floats(0.0, 2.0)),
        b=draw(st.floats(0.0, 1.0)),
        sigma=draw(st.floats(0.0, 2.0)),
        y0=draw(st.floats(0.0, 10.0)),
        horizon=draw(st.floats(1e-6, 10.0)),
    )


@st.composite
def increments(draw, max_paths=4, max_steps=12):
    """Time-major (steps, paths) W and H."""
    paths = draw(st.integers(1, max_paths))
    steps = draw(st.integers(1, max_steps))
    data = st.lists(bounded, min_size=paths * steps, max_size=paths * steps)
    w = np.array(draw(data)).reshape(paths, steps).T
    h_area = np.array(draw(data)).reshape(paths, steps).T
    return w, h_area


@PROPERTY
@given(params(), increments())
def test_multiplicative_schemes_preserve_non_negativity(p, data):
    # log-ODE: the bracket 1 - sigma H + sigma^2 (3H^2/5 + h/30) has a
    # negative discriminant in H; parabola and linear add abh times a positive
    # integral to a non-negative multiple of y.
    w, h_area = data
    traj = np.empty_like(w)
    for kind in (SchemeKind.LOG_ODE, SchemeKind.PARABOLA_ODE, SchemeKind.PIECEWISE_LINEAR):
        igbm.simulate(kind, p, w, h_area, out=traj)
        assert np.all(traj >= 0.0), kind


@PROPERTY
@given(params(), increments(max_paths=6), st.sampled_from(list(SchemeKind)))
def test_simulate_rows_do_not_depend_on_the_batch(p, data, kind):
    # each path, a column of the time-major data, is simulated alone to the bit
    w, h_area = data
    batch, alone = np.empty_like(w), np.empty((len(w), 1))
    igbm.simulate(kind, p, w, h_area, out=batch)
    for path in range(w.shape[1]):
        igbm.simulate(kind, p, w[:, path : path + 1], h_area[:, path : path + 1], out=alone)
        assert batch[:, path].tobytes() == alone[:, 0].tobytes()


@PROPERTY
@given(params(), increments(), st.data(), st.sampled_from(list(SchemeKind)))
def test_simulate_resumes_where_it_stopped(p, data, draw, kind):
    # two calls chained through y= and h= are one call, to the bit
    w, h_area = data
    steps = len(w)
    assume(steps > 1)
    k = draw.draw(st.integers(1, steps - 1))
    h = p.horizon / steps
    parts, whole = np.empty_like(w), np.empty_like(w)
    first = igbm.simulate(kind, p, w[:k], h_area[:k], out=parts[:k], h=h)
    second = igbm.simulate(kind, p, w[k:], h_area[k:], out=parts[k:], y=first, h=h)
    assert second.tobytes() == igbm.simulate(kind, p, w, h_area, out=whole).tobytes()
    assert parts.tobytes() == whole.tobytes()


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    params(),
    st.sampled_from([1, 15, 16, 17, 53]),
    st.booleans(),
    st.sampled_from(["one step", "default", "beyond the run"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(SchemeKind)),
)
def test_simulate_is_the_one_step_kernel_folded(p, steps, with_out, slab, seed, kind):
    # however many steps each slab prepares, `simulate` is the row-by-row
    # fold of the one-step kernel, to the bit
    g = np.random.default_rng(seed)
    h = p.horizon / steps
    w = g.standard_normal((3, steps)).T * np.sqrt(h)
    h_area = g.standard_normal((3, steps)).T * np.sqrt(h / 12.0)
    kernel = igbm.kernel_fn(kind)
    ys = [np.full(3, p.y0)]
    for k in range(steps):
        ys.append(kernel(ys[-1], w[k], h_area[k], h, p))
    width = {"one step": 1, "default": igbm._SLAB, "beyond the run": steps + 1}[slab]
    out = np.empty_like(w) if with_out else None
    with mock.patch.object(igbm, "_SLAB", width):
        assert igbm.simulate(kind, p, w, h_area, out=out).tobytes() == ys[-1].tobytes()
    assert not with_out or out.tobytes() == np.stack(ys[1:]).tobytes()


@PROPERTY
@given(params(), bounded, bounded, bounded, st.floats(1e-6, 10.0), st.sampled_from(["milstein", "euler", "parabola"]))
def test_affine_steps_are_their_one_step_formulas_regrouped(p, y, w, h_area, h, name):
    # y <- e y + c regroups the terms of each formula, so it moves a step by
    # rounding only: by at most 8 eps times the sum of the terms' magnitudes
    oracle = {"milstein": oracles.milstein_step, "euler": oracles.euler_step, "parabola": oracles.parabola_step}[name]
    expected, terms = oracle(y, w, h_area, h, p)
    got = igbm.kernel_fn(SchemeKind.from_name(name))(y, w, h_area, h, p)
    assert abs(got - expected) <= 8.0 * np.finfo(float).eps * sum(abs(term) for term in terms)


@PROPERTY
@given(
    st.lists(st.tuples(bounded, bounded), min_size=1, max_size=8),
    st.floats(min_value=1e-6, max_value=10.0),
    st.sampled_from([levy.cond_mean_sq_integral, levy.cond_mean_L, levy.cond_var_L]),
)
def test_levy_closed_forms_on_arrays_equal_scalar_calls(pairs, length, closed_form):
    # the scheme calls each closed form on a whole column; each element is
    # the value the scalar call gives, to the bit
    w, h_area = np.array(pairs).T
    batch = closed_form(w, h_area, length)
    alone = np.array([closed_form(float(wi), float(hi), length) for wi, hi in pairs])
    assert batch.tobytes() == alone.tobytes()


@PROPERTY
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 10.0),
)
def test_coarsen_arrays_two_levels_equal_one(paths, groups, substeps, seed, length):
    # coarsening (groups x substeps) pieces in two stages equals coarsening
    # all of them at once
    g = np.random.default_rng(seed)
    n = groups * substeps
    w = g.standard_normal((paths, n)).T * np.sqrt(length / n)
    h_area = g.standard_normal((paths, n)).T * np.sqrt(length / n / 12.0)
    w_mid, h_mid = bm.coarsen_arrays(w, h_area, [substeps, 0])  # (groups, paths)
    w_two, h_two = bm.coarsen_arrays(w_mid, h_mid, [groups, 0])
    w_one, h_one = bm.coarsen_arrays(w, h_area, [n, 0])
    scale = np.sqrt(length) * 1e-13
    np.testing.assert_allclose(w_two, w_one, rtol=0, atol=scale)
    np.testing.assert_allclose(h_two, h_one, rtol=0, atol=scale)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 5), st.data(), st.integers(0, 2**32 - 1))
def test_carried_coarsening_over_any_split_is_one_call(paths, n, steps, data, seed):
    # the pieces of `steps` steps of n, fed in time-major runs of any lengths,
    # some shorter than a step, give one whole call's (W, H) to the bit
    g = np.random.default_rng(seed)
    w, h_area = g.standard_normal((2, steps * n, paths))  # time-major pieces
    cuts = sorted(data.draw(st.lists(st.integers(0, steps * n), max_size=6)))
    carry, parts = [n, 0], []
    for lo, hi in zip([0, *cuts], [*cuts, steps * n]):
        parts.append(bm.coarsen_arrays(w[lo:hi], h_area[lo:hi], carry))
    assert carry[1] == 0
    whole = bm.coarsen_arrays(w, h_area, [n, 0])
    for carried, expected in zip(zip(*parts), whole):
        assert np.concatenate(carried).tobytes() == expected.tobytes()


@st.composite
def divisor_chains(draw):
    """Small strictly ascending step-count grids, each count dividing the next."""
    counts = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(0, 2))):
        counts.append(counts[-1] * draw(st.integers(2, 3)))
    return tuple(counts)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(divisor_chains(), st.integers(2, 6), st.data(), st.integers(0, 2**64 - 1))
def test_block_split_does_not_change_terminals(step_counts, n, data, seed):
    # a block's values are those of its paths alone, wherever the block starts and ends
    k = data.draw(st.integers(1, n - 1))
    schemes = tuple(SchemeKind)
    args = (REFERENCE, schemes, step_counts, harness.fine_steps(step_counts), seed)
    table = harness._simulate_block(*args, range(n))
    parts = [harness._simulate_block(*args, paths) for paths in (range(k), range(k, n))]
    assert table.shape == (1 + len(schemes) * len(step_counts), n)
    assert table.tobytes() == np.concatenate(parts, axis=1).tobytes()


@settings(deadline=None, derandomize=True, max_examples=20)
@given(divisor_chains(), st.integers(1, 5), st.integers(0, 2**64 - 1))
def test_streamed_block_is_the_whole_array_block(step_counts, n, seed):
    # one fine step per chunk, chunks shorter than one coarsest step, the
    # default length, a length that leaves a one-step last chunk and one
    # chunk for the whole horizon all give the whole-array block's
    # terminals, to the bit
    schemes = tuple(SchemeKind)
    n_fine = harness.fine_steps(step_counts)
    h = REFERENCE.horizon / n_fine
    draws = harness.path_increments(seed, harness._DOMAIN_HARNESS, 0, range(n), n_fine, np.sqrt([h, h / 12.0]))
    with mock.patch.object(harness, "_CHUNK", n_fine):  # the whole mesh in one draw
        whole = oracles.whole_block(REFERENCE, schemes, step_counts, *next(draws))
    for chunk in (1, n_fine // step_counts[0] - 1, 320, n_fine - 1, n_fine):
        with mock.patch.object(harness, "_CHUNK", chunk):
            streamed = harness._simulate_block(REFERENCE, schemes, step_counts, n_fine, seed, range(n))
        assert streamed.tobytes() == whole.tobytes()


@PROPERTY
@given(st.integers(1, 300), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_basis_rows_are_the_single_evaluations(k, inner):
    # row k of the one-pass basis is e_k bitwise, at a grid point or alone,
    # and vanishes exactly at both ends
    t = np.array([0.0, *inner, 1.0])
    row = next(itertools.islice(orthopoly.basis_e_rows(t), k - 1, None))
    assert row.tobytes() == orthopoly.basis_e_eval(k, t).tobytes()
    assert row[0] == 0.0 and row[-1] == 0.0
    assert orthopoly.basis_e_eval(k, t[len(t) // 2]) == row[len(t) // 2]


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(0, 2**32 - 3))
def test_paths_block_draw_is_the_single_path_draw(seed, degree, index):
    # `paths` draws a block's (w1, I_1, ..., I_{n-1}) as one interval of
    # `path_increments` scaled by (1, sqrt(lambda_k)): each row is, bitwise,
    # that path's own draw from its stream at (domain 2, level = degree)
    block = harness._kl_block(seed, degree, range(index, index + 3))
    for i, row in enumerate(block, index):
        (w1,), (coeffs,) = bm.sample_kl_batch(degree, 1, harness.path_generator(seed, 2, degree, i))
        assert row[0] == w1
        assert row[1:].tobytes() == coeffs.tobytes()


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(0, 2**32 - 131), st.integers(1, 130))
def test_paths_draws_the_law_criterion_3_checks(seed, degree, start, count):
    # criterion 3 checks the law of `sample_kl_batch`; `polybrown paths` draws
    # any range of paths, across the groups `path_increments` fills, as the
    # rows `sample_kl_batch` draws from each path's own stream, bit for bit
    paths = range(start, start + count)
    streams = (harness.path_generator(seed, harness._DOMAIN_PATHS, degree, i) for i in paths)
    expected = np.vstack([np.column_stack(bm.sample_kl_batch(degree, 1, stream)) for stream in streams])
    assert harness._kl_block(seed, degree, paths).tobytes() == expected.tobytes()


@PROPERTY
@given(st.integers(2, 120), st.integers(0, 2**64 - 1))
def test_polynomial_path_area_is_the_first_coefficient(degree, seed):
    # the space-time area of W^n on [0, 1], integral of (W_t - t w1) dt, is
    # I_1 times the integral of e_1, -1/sqrt(6), since every e_k with k >= 2
    # integrates to 0; so Var H = lambda_1 / 6 = 1/12, the harness's scale
    (w1,), (coeffs,) = bm.sample_kl_batch(degree, 1, np.random.default_rng(seed))
    t, w = orthopoly.gauss_legendre_01(degree // 2 + 1)  # exact for the degree-n integrand
    area = float(np.sum(w * (bm.eval_polynomial_path(w1, coeffs, t) - t * w1)))
    assert abs(area - -coeffs[0] / np.sqrt(6.0)) <= 1e-14
    assert orthopoly.eigenvalue(1) / 6.0 == 1.0 / 12.0


_TWO_TESTS = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x != x


def test_passing():
    pass
"""


def test_a_failing_property_does_not_stop_the_session(tmp_path):
    # under the repo's pytest settings, where a warning is an error, a failing
    # property is one failure and the tests after it still run
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject), "--rootdir", "."]
    result = subprocess.run([*argv, "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1], result.stdout
