"""Monte Carlo strong/weak error estimation against a coupled fine reference,
with log-log slope fitting and CSV emission.

Each path's Brownian increments are drawn once, on one fine mesh for the
whole grid (`fine_steps`) that also carries the log-ODE reference, and every
level is the exact coarsening of the next finer one: the nested coupling of
multilevel Monte Carlo.  `_map_blocks` is the one place where the paths of
every command are cut into blocks and pooled.  Streams are keyed per path
(`path_generator`, at level 0) and reductions run over arrays in path order,
so results are bit-identical for any worker count or block size.  The module
is also the CLI's back end: `cli.main` imports it only once the front end has
accepted the input and claimed `--out`, then runs `_COMMANDS[command]` or `cmd_check`.
"""

import itertools
import math
import os
import warnings
from collections import namedtuple

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import MAX_LEVEL, MAX_PATHS, ExperimentConfig, brownian, checks, igbm, orthopoly
from .brownian import coarsen_arrays

__all__ = [
    "ErrorRow",
    "ExperimentConfig",
    "MAX_LEVEL",
    "MAX_PATHS",
    "SlopeRow",
    "fine_steps",
    "fit_slope",
    "path_generator",
    "path_increments",
    "run_experiment",
    "write_error_csv",
    "write_slopes_csv",
]

_BLOCK = 512  # paths per work item; fixed so work decomposition never affects values
_CHUNK = 320  # intervals per time chunk of `path_increments`, the last may be shorter; never affects values
_GROUP = 64  # paths drawn at a time into a chunk; never affects values
_DOMAIN_HARNESS = 1  # stream-key domains (see `path_generator`): strong and weak,
_DOMAIN_PATHS = 2  # paths
_DOMAIN_IGBM = 3  # and igbm-paths


def fine_steps(step_counts):
    """Steps of the fine mesh common to a divisor chain of step counts: a
    multiple of the largest, at most min(h/10, T/1000) at every level."""
    n_max = max(step_counts)
    return n_max * max(10, -(-1000 // n_max))


def path_generator(seed, domain, level, index):
    """Counter-based stream for one path: the 128-bit Philox key packs the
    master seed with (domain, level, path index), so streams are independent
    and reproducible for any work decomposition."""
    if not (0 <= seed < 1 << 64 and 0 <= domain < 1 << 16 and 0 <= level < MAX_LEVEL and 0 <= index < MAX_PATHS):
        raise ValueError("stream key component out of range")
    key = np.array([seed, (domain << 48) | (level << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_increments(seed, domain, level, indices, n_intervals, scale):
    """Yield time-major (len(scale), width, len(indices)) arrays in time order,
    n_intervals intervals in all, in chunks of min(`_CHUNK`, n_intervals) but the
    last, which may be shorter.  Entry j of an interval is a standard normal times
    scale[j], so scale (sqrt(h), sqrt(h/12)) gives the (W, H) of steps h.  Only one
    chunk is held, filled `_GROUP` paths at a time; the first is allocated before
    the streams, which stay open: one draw in all."""
    chunk = min(_CHUNK, n_intervals)
    if chunk < 1:
        raise ValueError("n_intervals must be positive")
    buffer, generators = np.empty((min(_GROUP, len(indices)), chunk, len(scale))), None
    for start in range(0, n_intervals, chunk):
        z = buffer[:, : n_intervals - start]  # the last chunk may be shorter
        out = np.empty((len(scale), z.shape[1], len(indices)))
        generators = generators or [path_generator(seed, domain, level, index) for index in indices]
        for lo in range(0, len(indices), _GROUP):
            for row, generator in zip(z, generators[lo : lo + _GROUP]):
                generator.standard_normal(row.shape, out=row)
            np.multiply(z[: len(indices) - lo].T, np.reshape(scale, (-1, 1, 1)), out=out[:, :, lo : lo + _GROUP])
        yield out
        del out  # so the next chunk is never allocated while this one is held here


def _map_blocks(fn, common, n_paths, workers=1):
    """`fn(*common, paths)` for each `_BLOCK`-path range of `range(n_paths)`,
    yielded lazily in path order: the one place where paths are cut into
    blocks and pooled.  One worker, block or CPU runs in-process; otherwise a
    pool of at most one process per block and per CPU has at most two tasks
    per process in flight, so no worker idles and few results wait."""
    ranges = (range(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(workers, -(-n_paths // _BLOCK), cpus)
    if processes <= 1:
        yield from (fn(*common, paths) for paths in ranges)
        return
    import multiprocessing  # only here: most commands never pool
    with multiprocessing.Pool(processes=processes) as pool:
        pending = []  # tasks in flight, in block order
        for paths in ranges:
            pending.append(pool.apply_async(fn, (*common, paths)))
            if len(pending) == 2 * processes:
                yield pending.pop(0).get()
        yield from (task.get() for task in pending)


def _simulate_block(params, schemes, step_counts, n_fine, seed, paths):
    """Terminal values for the range `paths`: the log-ODE reference on `n_fine`
    steps, and {(step count, scheme): terminals} on the same increments,
    coarsened exactly from the finest level down, time-major.  Time streams in
    chunks of `_CHUNK` fine steps, and each level carries its partial step
    across chunks, so memory does not grow with `n_fine` or the coarsest step."""
    fine = np.full(len(paths), params.y0)
    coarse = {(n_steps, scheme): fine for n_steps in step_counts for scheme in schemes}
    carries = {n_steps: [finer // n_steps, 0] for n_steps, finer in zip(step_counts, (*step_counts[1:], n_fine))}
    h_fine = params.horizon / n_fine
    for w, h_area in path_increments(seed, _DOMAIN_HARNESS, 0, paths, n_fine, np.sqrt([h_fine, h_fine / 12.0])):
        fine = igbm.simulate(igbm.SchemeKind.LOG_ODE, params, w, h_area, y=fine, h=h_fine)
        for n_steps in reversed(step_counts):
            w, h_area = coarsen_arrays(w, h_area, carries[n_steps])
            h = params.horizon / n_steps
            for scheme in schemes if len(w) else ():  # a chunk may end no step of this level
                coarse[n_steps, scheme] = igbm.simulate(scheme, params, w, h_area, y=coarse[n_steps, scheme], h=h)
    return fine, coarse


def _mean_se(x):
    """Sample mean of `x` and its standard error."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(x.size))


def _strong_stats(fine, approx):
    """Root-mean-square terminal gap to the coupled fine reference, with a
    delta-method standard error; (0, 0) when every gap is 0."""
    m2, se_m2 = _mean_se((approx - fine) ** 2)
    err = float(np.sqrt(m2))
    return (err, se_m2 / (2.0 * err)) if m2 else (0.0, 0.0)


def _weak_stats(fine, approx, strike):
    """Absolute gap of mean call payoffs (strike = mean-reversion level b),
    estimated with common-random-numbers differencing."""
    payoff = lambda y: np.maximum(y - strike, 0.0)
    mean, se = _mean_se(payoff(approx) - payoff(fine))
    return abs(mean), se


def fit_slope(points):
    """Ordinary least squares of log(error) against log(h).

    `points` holds at least 3 (h, error) with positive finite entries and at
    least two distinct h; returns the fitted slope and its OLS standard error.
    """
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if not all(0 < v < np.inf for pt in pts for v in pt):
        raise ValueError("nonpositive or non-finite inputs")
    x = np.log([h for h, _ in pts])
    y = np.log([e for _, e in pts])
    if np.all(x == x[0]):
        raise ValueError("need at least 2 distinct h")
    xc = x - x.mean()
    slope = float(np.sum(xc * y) / np.sum(xc * xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum(xc * xc)))
    return slope, stderr


ErrorRow = namedtuple("ErrorRow", "scheme n_steps h error std_err")
SlopeRow = namedtuple("SlopeRow", "scheme metric slope stderr")


def run_experiment(config, metric, workers=1):
    """Error rows over (scheme, N) for one metric, "strong" or "weak", and the
    fitted log-log slope rows.  One fine path and reference per sample serve
    every level and scheme, so the errors of different levels are correlated;
    each block's terminals are copied into whole-run arrays as it arrives.
    Deterministic given the seed.  The statistics run in the run's unit, a
    power of two that each row scales back from, and a row that is still not
    finite is refused.  A slope needs at least 3 step counts and errors above
    the rounding floor of M fine steps, M eps rms(reference); the schemes left
    without one are named in one UserWarning.
    """
    if metric not in ("strong", "weak"):
        raise ValueError(f"metric must be strong or weak: {metric!r}")
    common = (config.params, config.schemes, config.step_counts, fine_steps(config.step_counts), config.seed)
    fine = np.empty(n := config.num_paths)
    coarse = {(steps, scheme): np.empty(n) for steps in config.step_counts for scheme in config.schemes}
    for lo, (fine_block, coarse_block) in zip(range(0, n, _BLOCK), _map_blocks(_simulate_block, common, n, workers)):
        fine[lo : lo + _BLOCK] = fine_block
        for key, terminals in coarse_block.items():
            coarse[key][lo : lo + _BLOCK] = terminals
    # the unit is the power of two at or below the reference's largest magnitude (1/2 if it is 0):
    # in it no statistic's squares over- or underflow, and each row scales back exactly
    unit = math.ldexp(0.5, math.frexp(max(fine.max(), -fine.min()))[1])
    strike = config.params.b / unit
    stats = _strong_stats if metric == "strong" else lambda fine, approx: _weak_stats(fine, approx, strike)
    rows, slopes, unfitted = [], [], {}  # unfitted: reason -> scheme names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # each row is judged here
        for terminals in (fine, *coarse.values()):
            terminals /= unit
        floor = common[3] * np.finfo(float).eps * np.sqrt(np.mean(fine**2)) * unit
        for scheme in config.schemes:
            in_units = ((n, stats(fine, coarse[n, scheme])) for n in config.step_counts)
            grid = [ErrorRow(scheme, n, config.params.horizon / n, err * unit, se * unit) for n, (err, se) in in_units]
            if bad := [r for r in grid if not (math.isfinite(r.error) and math.isfinite(r.std_err))]:
                raise ValueError(f"the {metric} error of {scheme.value} at N={bad[0].n_steps} is not finite: {bad[0].error:g}")
            rows += grid
            unusable = ", ".join(f"error {r.error:g} at N={r.n_steps}" for r in grid if not r.error > floor)
            reason = "fewer than 3 step counts" if len(grid) < 3 else unusable
            if reason:
                unfitted.setdefault(reason, []).append(scheme.value)
            else:
                slopes.append(SlopeRow(scheme, metric, *fit_slope([(r.h, r.error) for r in grid])))
    if unfitted:
        dropped = "; ".join(f"{', '.join(names)} ({reason})" for reason, names in unfitted.items())
        warnings.warn(f"no {metric} slope for {dropped}", stacklevel=2)
    return tuple(rows), tuple(slopes)


_FLOAT = "%.17g"  # 17 significant digits, so every float64 reads back exactly
_fmt = _FLOAT.__mod__


def _write_csv(path, header, lines):
    """Write a header line and then `lines`, strings of whole lines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def write_error_csv(rows, path):
    """Write `scheme,N,h,error,std_err` rows with 17-significant-digit floats."""
    lines = (f"{r.scheme.value},{r.n_steps},{_fmt(r.h)},{_fmt(r.error)},{_fmt(r.std_err)}\n" for r in rows)
    _write_csv(path, "scheme,N,h,error,std_err", lines)


def write_slopes_csv(rows, path):
    """Write `scheme,metric,slope,slope_stderr` rows."""
    lines = (f"{r.scheme.value},{r.metric},{_fmt(r.slope)},{_fmt(r.stderr)}\n" for r in rows)
    _write_csv(path, "scheme,metric,slope,slope_stderr", lines)


def _write_long(path, header, labels, rows, first_id=0):
    """Write the long table `id,label,value` of 1-D `rows`, one line per value
    and ids from `first_id`.  The shared `labels` fill one row template with a
    `%.17g` slot per value, so each row is one `%` call on its id's copy."""
    template = "".join(f"\0,{_fmt(label)},{_FLOAT}\n" for label in labels.tolist())
    lines = (template.replace("\0", str(i)) % tuple(row.tolist()) for i, row in enumerate(rows, first_id))
    _write_csv(path, header, lines)


def _numpy_lines():
    """Manifest lines: the NumPy version and the SIMD targets of float64 exp, expm1 and log, which outputs depend on."""
    targets = opt_func_info(func_name="^(exp|expm1|log)$")
    dispatch = " ".join(f"{name}:{targets[name]['dd']['current']}" for name in sorted(targets))
    return [f"numpy = {np.__version__}\n", f"numpy_dispatch = {dispatch}\n"]


# ---------------------------------------------------------------------------
# The CLI's command bodies, each on the typed configuration of `cli.main`


def cmd_basis(cfg, out):
    ts = np.linspace(0.0, 1.0, cfg["grid"])
    rows = itertools.islice(orthopoly.basis_e_rows(ts), cfg["max_k"])
    _write_long(os.path.join(out, "basis.csv"), "k,t,e_k(t)", ts, rows, first_id=1)


def _kl_block(seed, degree, paths):
    """Rows (w1, I_1, ..., I_{degree-1}) of the paths in the range `paths`,
    drawn as one interval with scale (1, sqrt(lambda_1), ...)."""
    scale = np.sqrt(np.concatenate(([1.0], orthopoly.eigenvalue(np.arange(1, degree)))))
    (draws,) = path_increments(seed, _DOMAIN_PATHS, degree, paths, 1, scale)
    return draws[:, 0].T


def cmd_paths(cfg, out):
    # each file walks the blocks anew, redrawn from their keyed streams, so no array outlives its block
    walk = (_kl_block, (cfg["seed"], cfg["degree"]), cfg["paths"])
    ts = np.linspace(0.0, 1.0, cfg["grid"])
    values = (brownian.eval_polynomial_path(block[:, 0], block[:, 1:], ts) for block in _map_blocks(*walk))
    _write_long(os.path.join(out, "paths.csv"), "path_id,t,kl_value", ts, itertools.chain.from_iterable(values))
    coeffs = itertools.chain.from_iterable(_map_blocks(*walk))  # the k = 0 column carries the increment
    _write_long(os.path.join(out, "path_coeffs.csv"), "path_id,k,I_k", np.arange(cfg["degree"]), coeffs)


def _igbm_block(params, scheme, n_steps, seed, paths):
    """Trajectories (paths, n_steps + 1) of the range `paths`, advanced time-major chunk by chunk, transposed."""
    h = params.horizon / n_steps
    traj, k = np.empty((n_steps + 1, len(paths))), 0
    traj[0] = params.y0
    for w, h_area in path_increments(seed, _DOMAIN_IGBM, n_steps, paths, n_steps, np.sqrt([h, h / 12.0])):
        igbm.simulate(scheme, params, w, h_area, out=traj[k + 1 : k + 1 + len(w)], y=traj[k], h=h)
        k += len(w)
    return traj.T


def cmd_igbm_paths(cfg, out):
    params, (n_steps,) = cfg["params"], cfg["steps"]
    rows = _map_blocks(_igbm_block, (params, cfg["scheme"], n_steps, cfg["seed"]), cfg["paths"])
    ts = np.linspace(0.0, params.horizon, n_steps + 1)
    _write_long(os.path.join(out, "igbm_paths.csv"), "path_id,t,value", ts, itertools.chain.from_iterable(rows))


def _run_benchmark(cfg, out, metric):
    rows, slopes = run_experiment(cfg["config"], metric, workers=cfg["workers"])
    write_error_csv(rows, os.path.join(out, f"{metric}.csv"))
    write_slopes_csv(slopes, os.path.join(out, "slopes.csv"))


def cmd_check(cfg):
    failed = False
    for name, invariant, bound in checks.SUITES:
        worst = invariant(np.random.default_rng(cfg["seed"]))
        ok = worst <= bound
        failed |= not ok
        print(f"{'ok' if ok else 'FAIL'} {name} {worst:.2e} {'<=' if ok else '>'} {bound:g}")
    return 1 if failed else 0


_COMMANDS = {  # the commands that write files: name -> body(cfg, out)
    "basis": cmd_basis,
    "paths": cmd_paths,
    "igbm-paths": cmd_igbm_paths,
    "strong": lambda cfg, out: _run_benchmark(cfg, out, "strong"),
    "weak": lambda cfg, out: _run_benchmark(cfg, out, "weak"),
}
