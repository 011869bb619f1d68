"""Monte Carlo strong/weak error estimation against a coupled fine reference,
with log-log slope fitting and CSV emission.

Every path owns a counter-based random stream keyed by (seed, domain, level,
path index), so results are bit-identical for any worker count or scheduling.
Reductions run over arrays assembled in path order, which keeps them
order-independent as well.
"""

import multiprocessing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import igbm
from .brownian import coarsen_arrays

__all__ = [
    "ConvergenceReport",
    "ErrorRow",
    "ExperimentConfig",
    "SlopeFit",
    "SlopeRow",
    "default_config",
    "fine_substeps",
    "fit_slope",
    "path_generator",
    "path_increments",
    "run_experiment",
    "write_error_csv",
    "write_slopes_csv",
]

_BLOCK = 512  # paths per work item; fixed so work decomposition never affects values
_DOMAIN_HARNESS = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark configuration.  Step counts and path indices must fit the
    stream key (see `path_generator`), so a bad grid fails before any work."""

    params: igbm.IgbmParams
    schemes: tuple
    step_counts: tuple
    num_paths: int
    seed: int

    def __post_init__(self):
        if list(self.step_counts) != sorted(set(self.step_counts)):
            raise ValueError("step_counts must be strictly ascending")
        if any(not 1 <= n < 1 << 16 for n in self.step_counts):
            raise ValueError("step counts must be in [1, 2^16)")
        if self.num_paths < 100:
            raise ValueError("too few paths: need num_paths >= 100")
        if self.num_paths > 1 << 32:
            raise ValueError("too many paths: need num_paths <= 2^32")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2^64)")
        if not self.schemes:
            raise ValueError("need at least one scheme")


def default_config(num_paths, step_counts, seed=0, schemes=tuple(igbm.SchemeKind)):
    """A configuration of the reference experiment (`igbm.REFERENCE`)."""
    return ExperimentConfig(
        params=igbm.REFERENCE, schemes=tuple(schemes), step_counts=tuple(step_counts), num_paths=num_paths, seed=seed
    )


def fine_substeps(n_steps):
    """Fine substeps per coarse step so the fine mesh is min(h/10, T/1000)."""
    return max(10, int(round(1000.0 / n_steps)))


def path_generator(seed, domain, level, index):
    """Counter-based stream for one path: the 128-bit Philox key packs the
    master seed with (domain, level, path index), so streams are independent
    and reproducible for any work decomposition."""
    if not (0 <= seed < 1 << 64 and 0 <= domain < 1 << 16 and 0 <= level < 1 << 16 and 0 <= index < 1 << 32):
        raise ValueError("stream key component out of range")
    key = np.array([seed, (domain << 48) | (level << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_increments(seed, domain, level, indices, n_intervals, length):
    """(W, H) arrays of shape (len(indices), n_intervals) for intervals of
    the given length: each path's stream draws its standard normals in one
    call, W ~ N(0, length) and H ~ N(0, length/12)."""
    w = np.empty((len(indices), n_intervals))
    h_area = np.empty((len(indices), n_intervals))
    for row, index in enumerate(indices):
        z = path_generator(seed, domain, level, index).standard_normal((n_intervals, 2))
        w[row] = z[:, 0]
        h_area[row] = z[:, 1]
    w *= np.sqrt(length)
    h_area *= np.sqrt(length / 12.0)
    return w, h_area


def _simulate_block(params, schemes, n_steps, substeps, seed, lo, hi):
    """Terminal values for paths [lo, hi): fine log-ODE reference plus every
    scheme on the coarsened data of the same increments."""
    n_fine = n_steps * substeps
    w_fine, h_fine = path_increments(seed, _DOMAIN_HARNESS, n_steps, range(lo, hi), n_fine, params.horizon / n_fine)
    fine = igbm.simulate(igbm.SchemeKind.LOG_ODE, params, w_fine, h_fine)
    shape = (hi - lo, n_steps, substeps)
    w_coarse, h_coarse = coarsen_arrays(w_fine.reshape(shape), h_fine.reshape(shape))
    return fine, {scheme: igbm.simulate(scheme, params, w_coarse, h_coarse) for scheme in schemes}


def _block_task(args):
    params, schemes, n_steps, substeps, seed, lo, hi = args
    fine, coarse = _simulate_block(params, schemes, n_steps, substeps, seed, lo, hi)
    return lo, fine, coarse


def _level_terminals(config, n_steps, workers):
    """Assemble per-path terminal arrays for one step count."""
    substeps = fine_substeps(n_steps)
    n_paths = config.num_paths
    tasks = [
        (config.params, config.schemes, n_steps, substeps, config.seed, lo, min(lo + _BLOCK, n_paths))
        for lo in range(0, n_paths, _BLOCK)
    ]
    fine = np.empty(n_paths)
    coarse = {scheme: np.empty(n_paths) for scheme in config.schemes}
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_block_task, tasks)
    else:
        results = map(_block_task, tasks)
    for lo, fine_block, coarse_block in results:
        hi = lo + fine_block.size
        fine[lo:hi] = fine_block
        for scheme, vals in coarse_block.items():
            coarse[scheme][lo:hi] = vals
    return fine, coarse


def _strong_stats(fine, approx):
    """Root-mean-square terminal gap to the coupled fine reference, with a
    delta-method standard error."""
    d = (approx - fine) ** 2
    m2 = float(np.mean(d))
    err = float(np.sqrt(m2))
    if m2 == 0.0:
        return 0.0, 0.0
    se_m2 = float(np.std(d, ddof=1) / np.sqrt(d.size))
    return err, se_m2 / (2.0 * err)


def _weak_stats(fine, approx, strike):
    """Absolute gap of mean call payoffs (strike = mean-reversion level b),
    estimated with common-random-numbers differencing."""
    diff = np.maximum(approx - strike, 0.0) - np.maximum(fine - strike, 0.0)
    err = float(abs(np.mean(diff)))
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    return err, se


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float


def fit_slope(points):
    """Ordinary least squares of log(error) against log(h).

    `points` is a sequence of (h, error) with positive entries; returns the
    fitted slope, intercept, and the slope's OLS standard error.
    """
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(h <= 0 or e <= 0 for h, e in pts):
        raise ValueError("nonpositive inputs")
    x = np.log([h for h, _ in pts])
    y = np.log([e for _, e in pts])
    xc = x - x.mean()
    slope = float(np.sum(xc * y) / np.sum(xc * xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum(xc * xc))) if dof > 0 else 0.0
    return SlopeFit(slope=slope, intercept=intercept, stderr=stderr)


@dataclass(frozen=True)
class ErrorRow:
    scheme: igbm.SchemeKind
    n_steps: int
    h: float
    error: float
    std_err: float


@dataclass(frozen=True)
class SlopeRow:
    scheme: igbm.SchemeKind
    metric: str
    slope: float
    stderr: float


@dataclass(frozen=True)
class ConvergenceReport:
    strong: tuple
    weak: tuple
    slopes: tuple

    def rows(self, metric):
        return self.strong if metric == "strong" else self.weak


def run_experiment(config, metrics=("strong", "weak"), workers=1):
    """Full error grid over (scheme, N) plus fitted log-log slopes.

    Fine references and coarsened data are shared across schemes and both
    metrics at each level, so adding schemes or metrics is nearly free.
    Deterministic given the seed.
    """
    bad = [m for m in metrics if m not in ("strong", "weak")]
    if bad:
        raise ValueError(f"unknown metrics: {bad}")
    per_level = {}
    for n_steps in config.step_counts:
        fine, coarse = _level_terminals(config, n_steps, workers)
        per_level[n_steps] = (fine, coarse)

    strong_rows, weak_rows, slope_rows = [], [], []
    for scheme in config.schemes:
        points = {"strong": [], "weak": []}
        for n_steps in config.step_counts:
            fine, coarse = per_level[n_steps]
            h = config.params.horizon / n_steps
            if "strong" in metrics:
                err, se = _strong_stats(fine, coarse[scheme])
                strong_rows.append(ErrorRow(scheme, n_steps, h, err, se))
                points["strong"].append((h, err))
            if "weak" in metrics:
                err, se = _weak_stats(fine, coarse[scheme], config.params.b)
                weak_rows.append(ErrorRow(scheme, n_steps, h, err, se))
                points["weak"].append((h, err))
        for metric in metrics:
            pts = points[metric]
            if len(pts) >= 3 and all(e > 0 for _, e in pts):
                fit = fit_slope(pts)
                slope_rows.append(SlopeRow(scheme, metric, fit.slope, fit.stderr))
    return ConvergenceReport(strong=tuple(strong_rows), weak=tuple(weak_rows), slopes=tuple(slope_rows))


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    """Write a header line and one line per row (an iterable of fields)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_error_csv(rows, path):
    """Write `scheme,N,h,error,std_err` rows with 17-significant-digit floats."""
    _write_csv(
        path,
        "scheme,N,h,error,std_err",
        ((r.scheme.value, str(r.n_steps), _fmt(r.h), _fmt(r.error), _fmt(r.std_err)) for r in rows),
    )


def write_slopes_csv(rows, path):
    """Write `scheme,metric,slope,slope_stderr` rows."""
    _write_csv(
        path,
        "scheme,metric,slope,slope_stderr",
        ((r.scheme.value, r.metric, _fmt(r.slope), _fmt(r.stderr)) for r in rows),
    )
