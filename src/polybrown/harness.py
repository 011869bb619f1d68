"""Monte Carlo strong/weak error estimation against a coupled fine reference,
with log-log slope fitting and CSV emission.

Each path's Brownian increments are drawn once, on one fine mesh for the
whole grid (`fine_steps`) that also carries the log-ODE reference, and every
level is the exact coarsening of the next finer one: the nested coupling of
multilevel Monte Carlo.  Streams are keyed per path (`path_generator`, at
level 0) and reductions run over arrays in path order, so results are
bit-identical for any worker count or scheduling.
"""

import multiprocessing
import warnings
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
    "fine_steps",
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
    """Benchmark configuration, validated before any work: step counts
    ascend, stay below 2^16 and each divides the next; schemes are distinct;
    path indices and the seed fit the stream key (see `path_generator`)."""

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
        if any(finer % n for n, finer in zip(self.step_counts, self.step_counts[1:])):
            raise ValueError(f"each step count must divide the next: {','.join(map(str, self.step_counts))}")
        if self.num_paths < 100:
            raise ValueError("too few paths: need num_paths >= 100")
        if self.num_paths > 1 << 32:
            raise ValueError("too many paths: need num_paths <= 2^32")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2^64)")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must be distinct: {','.join(scheme.value for scheme in self.schemes)}")


def default_config(num_paths, step_counts, seed=0, schemes=tuple(igbm.SchemeKind)):
    """A configuration of the reference experiment (`igbm.REFERENCE`)."""
    return ExperimentConfig(
        params=igbm.REFERENCE, schemes=tuple(schemes), step_counts=tuple(step_counts), num_paths=num_paths, seed=seed
    )


def fine_steps(step_counts):
    """Steps of the fine mesh common to a divisor chain of step counts: a
    multiple of the largest, at most min(h/10, T/1000) at every level."""
    n_max = max(step_counts)
    return n_max * max(10, -(-1000 // n_max))


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


def _simulate_block(params, schemes, step_counts, n_fine, seed, lo, hi):
    """Terminal values for paths [lo, hi): the log-ODE reference on `n_fine`
    steps, and {(step count, scheme): terminals} on the same increments,
    coarsened exactly from the finest level down."""
    w, h_area = path_increments(seed, _DOMAIN_HARNESS, 0, range(lo, hi), n_fine, params.horizon / n_fine)
    fine = igbm.simulate(igbm.SchemeKind.LOG_ODE, params, w, h_area)
    coarse = {}
    for n_steps in reversed(step_counts):
        shape = (hi - lo, n_steps, w.shape[1] // n_steps)
        w, h_area = coarsen_arrays(w.reshape(shape), h_area.reshape(shape))
        coarse.update({(n_steps, scheme): igbm.simulate(scheme, params, w, h_area) for scheme in schemes})
    return fine, coarse


def _terminals(config, workers):
    """`_simulate_block` over all paths, joined in path order.  One task per
    block and at most one pool process per block; one block runs in-process."""
    n_paths = config.num_paths
    common = (config.params, config.schemes, config.step_counts, fine_steps(config.step_counts), config.seed)
    tasks = [(*common, lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]
    processes = min(workers, len(tasks))
    if processes > 1:
        with multiprocessing.Pool(processes=processes) as pool:
            blocks = pool.starmap(_simulate_block, tasks)
    else:
        blocks = [_simulate_block(*task) for task in tasks]
    fine = np.concatenate([fine_block for fine_block, _ in blocks])
    return fine, {key: np.concatenate([block[key] for _, block in blocks]) for key in blocks[0][1]}


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

    One fine path and reference per sample serve every level, scheme and
    metric, so the errors of different levels are correlated.
    Deterministic given the seed.  A slope needs at least 3 step counts and
    positive errors; the schemes left without one are named in a UserWarning,
    once per metric.
    """
    if not set(metrics) <= {"strong", "weak"} or len(set(metrics)) < len(metrics):
        raise ValueError(f"metrics must be distinct names from strong, weak: {metrics}")
    fine, coarse = _terminals(config, workers)
    stats = {"strong": _strong_stats, "weak": lambda fine, approx: _weak_stats(fine, approx, config.params.b)}
    rows = {"strong": [], "weak": []}
    slope_rows, unfitted = [], {metric: {} for metric in metrics}  # unfitted: reason -> scheme names
    for scheme in config.schemes:
        for metric in metrics:
            grid = [
                ErrorRow(scheme, n_steps, config.params.horizon / n_steps, *stats[metric](fine, coarse[n_steps, scheme]))
                for n_steps in config.step_counts
            ]
            rows[metric] += grid
            unusable = ", ".join(f"error {r.error:g} at N={r.n_steps}" for r in grid if not r.error > 0)
            reason = "fewer than 3 step counts" if len(grid) < 3 else unusable
            if reason:
                unfitted[metric].setdefault(reason, []).append(scheme.value)
            else:
                fit = fit_slope([(r.h, r.error) for r in grid])
                slope_rows.append(SlopeRow(scheme, metric, fit.slope, fit.stderr))
    for metric, reasons in unfitted.items():
        if reasons:
            dropped = "; ".join(f"{', '.join(names)} ({reason})" for reason, names in reasons.items())
            warnings.warn(f"no {metric} slope for {dropped}", stacklevel=2)
    return ConvergenceReport(strong=tuple(rows["strong"]), weak=tuple(rows["weak"]), slopes=tuple(slope_rows))


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
