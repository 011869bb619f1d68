"""Monte Carlo strong/weak error estimation against a coupled fine reference,
with log-log slope fitting and CSV emission.

Each path's Brownian increments are drawn once, on one fine mesh for the
whole grid (`fine_steps`) that also carries the log-ODE reference, and every
level is the exact coarsening of the next finer one: the nested coupling of
multilevel Monte Carlo.  `_map_blocks` is the one place where the paths of
every command are cut into blocks and pooled.  Streams are keyed per path
(`path_generator`, at level 0) and reductions run over arrays in path order,
so results are bit-identical for any worker count or block size.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import igbm
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
_CHUNK = 320  # fine steps per time chunk, unless one coarsest step is longer; never affects values
_DOMAIN_HARNESS = 1  # stream-key domains (see `path_generator`): strong and weak,
_DOMAIN_PATHS = 2  # paths
_DOMAIN_IGBM = 3  # and igbm-paths
MAX_PATHS = 1 << 32  # path indices fill 32 bits of the stream key (see `path_generator`)
MAX_LEVEL = 1 << 16  # stream levels fill 16 bits of it


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
        if any(not 1 <= n < MAX_LEVEL for n in self.step_counts):
            raise ValueError("step counts must be in [1, 2^16)")
        if any(finer % n for n, finer in zip(self.step_counts, self.step_counts[1:])):
            raise ValueError(f"each step count must divide the next: {','.join(map(str, self.step_counts))}")
        if self.num_paths < 100:
            raise ValueError("too few paths: need num_paths >= 100")
        if self.num_paths > MAX_PATHS:
            raise ValueError("too many paths: need num_paths <= 2^32")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2^64)")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if not self.step_counts:
            raise ValueError("need at least one step count")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must be distinct: {','.join(scheme.value for scheme in self.schemes)}")


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


def path_increments(seed, domain, level, indices, n_intervals, scale, chunk=None):
    """Yield arrays of shape (len(scale), len(indices), chunk) in time order,
    for n_intervals intervals in all (one chunk by default).  Entry j of an
    interval is a standard normal times scale[j], so scale (sqrt(h),
    sqrt(h/12)) gives the (W, H) of intervals of length h.  The buffer is
    allocated before the streams are built; they stay open, so the chunks
    joined are one draw.  Each (paths, chunk) array's columns are contiguous."""
    chunk = n_intervals if chunk is None else chunk
    if n_intervals % chunk:
        raise ValueError("chunk must divide n_intervals")
    z = np.empty((len(indices), chunk, len(scale)))
    generators = [path_generator(seed, domain, level, index) for index in indices]
    for _ in range(n_intervals // chunk):
        for row, generator in zip(z, generators):
            generator.standard_normal(row.shape, out=row)
        yield np.multiply(z.transpose(2, 1, 0), np.reshape(scale, (-1, 1, 1)), order="C").transpose(0, 2, 1)


def _map_blocks(fn, common, n_paths, workers=1):
    """`fn(*common, paths)` for each `_BLOCK`-path range of `range(n_paths)`,
    in path order: the one place where paths are cut into blocks and pooled.
    One worker or one block runs in-process and lazily.  Otherwise a pool of
    at most one process per block takes the blocks singly (`chunksize=1`), so
    no worker idles behind a batch, and returns every result at once."""
    ranges = (range(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK))
    processes = min(workers, -(-n_paths // _BLOCK))
    if processes <= 1:
        return (fn(*common, paths) for paths in ranges)
    import multiprocessing  # only here: most commands never pool
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.starmap(fn, [(*common, paths) for paths in ranges], chunksize=1)


def _simulate_block(params, schemes, step_counts, n_fine, seed, paths):
    """Terminal values for the range `paths`: the log-ODE reference on `n_fine`
    steps, and {(step count, scheme): terminals} on the same increments,
    coarsened exactly from the finest level down, streamed through time in
    chunks of whole coarsest steps (the most, dividing their count, within
    `_CHUNK`), so memory does not grow with `n_fine`."""
    per_step = n_fine // step_counts[0]
    chunk = per_step * max(g for g in range(1, max(1, _CHUNK // per_step) + 1) if step_counts[0] % g == 0)
    fine = np.full(len(paths), params.y0)
    coarse = {(n_steps, scheme): fine for n_steps in step_counts for scheme in schemes}
    h_fine = params.horizon / n_fine
    for w, h_area in path_increments(seed, _DOMAIN_HARNESS, 0, paths, n_fine, np.sqrt([h_fine, h_fine / 12.0]), chunk):
        fine = igbm.simulate(igbm.SchemeKind.LOG_ODE, params, w, h_area, y=fine, h=h_fine)
        for n_steps in reversed(step_counts):
            w, h_area = coarsen_arrays(*(a.reshape(len(paths), n_steps * chunk // n_fine, -1) for a in (w, h_area)))
            h = params.horizon / n_steps
            for scheme in schemes:
                coarse[n_steps, scheme] = igbm.simulate(scheme, params, w, h_area, y=coarse[n_steps, scheme], h=h)
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


def fit_slope(points):
    """Ordinary least squares of log(error) against log(h).

    `points` is a sequence of (h, error) with positive entries; returns the
    fitted slope and its OLS standard error.
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
    stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum(xc * xc)))
    return slope, stderr


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


def run_experiment(config, metric, workers=1):
    """Error rows over (scheme, N) for one metric, "strong" or "weak", and
    the fitted log-log slope rows.

    One fine path and reference per sample serve every level and scheme, so
    the errors of different levels are correlated.  Deterministic given the
    seed.  A slope needs at least 3 step counts and positive errors; the
    schemes left without one are named in one UserWarning.
    """
    if metric not in ("strong", "weak"):
        raise ValueError(f"metric must be strong or weak: {metric!r}")
    common = (config.params, config.schemes, config.step_counts, fine_steps(config.step_counts), config.seed)
    fine_blocks, coarse_blocks = zip(*_map_blocks(_simulate_block, common, config.num_paths, workers))
    fine = np.concatenate(fine_blocks)
    coarse = {key: np.concatenate([block[key] for block in coarse_blocks]) for key in coarse_blocks[0]}
    stats = _strong_stats if metric == "strong" else lambda fine, approx: _weak_stats(fine, approx, config.params.b)
    rows, slopes, unfitted = [], [], {}  # unfitted: reason -> scheme names
    for scheme in config.schemes:
        grid = [
            ErrorRow(scheme, n_steps, config.params.horizon / n_steps, *stats(fine, coarse[n_steps, scheme]))
            for n_steps in config.step_counts
        ]
        rows += grid
        unusable = ", ".join(f"error {r.error:g} at N={r.n_steps}" for r in grid if not r.error > 0)
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
