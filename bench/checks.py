"""Output checks for the benchmark workloads.

Every check reads the CSV files the CLI wrote and compares them with the
paper's properties or with a computation done here, independently of the
`polybrown` package (which this module never imports).  A failed check raises
`CheckError` with a message that names the file and the property.
"""

import csv
import hashlib
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre

SCHEME_ORDER = ("log-ode", "parabola", "linear", "milstein", "euler")

# Strong-order bands of the paper: (expected slope, half width).
STRONG_SLOPE_BANDS = {
    "log-ode": (1.5, 0.15),
    "parabola": (1.0, 0.15),
    "linear": (1.0, 0.15),
    "milstein": (1.0, 0.2),
    "euler": (0.5, 0.15),
}
WEAK_SLOPE_BANDS = {"parabola": (1.0, 0.3), "linear": (1.0, 0.3), "euler": (1.0, 0.3)}
LINEAR_OVER_PARABOLA_N = 200
LINEAR_OVER_PARABOLA_RANGE = (4.0, 12.0)

# Model defaults of the CLI (a, b, sigma, y0, T).
IGBM_DEFAULTS = (0.1, 0.04, 0.6, 0.06, 5.0)

SLOPE_SAMPLING_SIGMAS = 3.0  # slope bands widen by this many sampling SDs of the fitted slope
MEAN_SE_LIMIT = 4.0  # terminal sample mean vs closed form
VARIANCE_Z_LIMIT = 5.0  # coefficient variance vs 1/(k(k+1))
PATHS_ABS_TOL = 1e-10


class CheckError(Exception):
    """An output violates a property the benchmark checks."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Reading


class ErrorRow(NamedTuple):
    h: float
    error: float
    std_err: float


def read_error_rows(path):
    """`scheme,N,h,error,std_err` -> {(scheme, N): ErrorRow}."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader, None) == ["scheme", "N", "h", "error", "std_err"], f"{path}: bad header")
        for line in reader:
            _require(len(line) == 5, f"{path}: malformed row {line}")
            rows[(line[0], int(line[1]))] = ErrorRow(*map(float, line[2:]))
    return rows


def read_slope_rows(path):
    """`scheme,metric,slope,slope_stderr` -> {(scheme, metric): slope}."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader, None) == ["scheme", "metric", "slope", "slope_stderr"], f"{path}: bad header")
        for line in reader:
            _require(len(line) == 4, f"{path}: malformed row {line}")
            rows[(line[0], line[1])] = float(line[2])
    return rows


def read_numeric(path, header):
    """A three-column numeric CSV with the given header, as a (rows, 3) array."""
    with open(path) as fh:
        _require(fh.readline().rstrip("\n") == header, f"{path}: header is not {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == 3, f"{path}: expected 3 columns")
    return data


def csv_digest(directory):
    """SHA-256 over the names and bytes of every CSV file in `directory`."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.csv")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Convergence tables


def _complete_grid(rows, schemes, steps, path, positive):
    for scheme in schemes:
        for n in steps:
            _require((scheme, n) in rows, f"{path}: missing row {scheme}, N={n}")
            err = rows[(scheme, n)].error
            _require(math.isfinite(err), f"{path}: non-finite error at {scheme}, N={n}")
            if positive:
                _require(err > 0, f"{path}: error {err} at {scheme}, N={n} is not > 0")
    _require(len(rows) == len(schemes) * len(steps), f"{path}: unexpected extra rows")


def _ordered_at_every_n(rows, steps, path):
    for n in steps:
        errs = [rows[(scheme, n)].error for scheme in SCHEME_ORDER]
        _require(
            all(lo < hi for lo, hi in zip(errs, errs[1:])),
            f"{path}: errors at N={n} not ordered {' < '.join(SCHEME_ORDER)}: {errs}",
        )


def slope_sampling_sd(rows, scheme, steps):
    """Standard deviation of the least-squares slope of log(error) on log(h)
    that the Monte Carlo error of each point implies: the slope is
    sum_i w_i log(e_i) with w_i = (x_i - mean x) / sum (x - mean x)^2, and
    log(e_i) has standard deviation std_err_i / e_i."""
    xs = [math.log(rows[(scheme, n)].h) for n in steps]
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    return math.sqrt(
        sum(((x - mean) / sxx * rows[(scheme, n)].std_err / rows[(scheme, n)].error) ** 2 for x, n in zip(xs, steps))
    )


def _slope_in_band(slopes, rows, steps, scheme, metric, band, path):
    """The paper's band, widened by SLOPE_SAMPLING_SIGMAS sampling SDs: a rare
    large-error path (Milstein and Euler clamp at 0) moves one point of a
    1e4-path fit by up to 40 %, which alone can carry a correct slope out of
    the bare band."""
    _require((scheme, metric) in slopes, f"{path}: missing {metric} slope for {scheme}")
    slope = slopes[(scheme, metric)]
    centre, half = band
    _require(math.isfinite(slope), f"{path}: non-finite {metric} slope for {scheme}")
    margin = half + SLOPE_SAMPLING_SIGMAS * slope_sampling_sd(rows, scheme, steps)
    _require(
        abs(slope - centre) <= margin, f"{path}: {metric} slope {slope:.4f} of {scheme} outside {centre}±{margin:.3f}"
    )


def check_strong(out_dir, steps):
    """Full 5-scheme strong grid: values, slope bands, ordering, and the
    parabola-vs-linear accuracy gap at N=200."""
    out = Path(out_dir)
    rows = read_error_rows(out / "strong.csv")
    slopes = read_slope_rows(out / "slopes.csv")
    _complete_grid(rows, SCHEME_ORDER, steps, out / "strong.csv", positive=True)
    _require(len(slopes) == len(SCHEME_ORDER), f"{out / 'slopes.csv'}: expected {len(SCHEME_ORDER)} slope rows")
    for scheme, band in STRONG_SLOPE_BANDS.items():
        _slope_in_band(slopes, rows, steps, scheme, "strong", band, out / "slopes.csv")
    _ordered_at_every_n(rows, steps, out / "strong.csv")
    ratio = rows[("linear", LINEAR_OVER_PARABOLA_N)].error / rows[("parabola", LINEAR_OVER_PARABOLA_N)].error
    lo, hi = LINEAR_OVER_PARABOLA_RANGE
    _require(lo <= ratio <= hi, f"{out}: linear/parabola error ratio {ratio:.3f} at N=200 outside [{lo}, {hi}]")


def check_weak(out_dir, steps):
    """Weak grid: finite values, order-one slopes, log-ODE below parabola."""
    out = Path(out_dir)
    rows = read_error_rows(out / "weak.csv")
    slopes = read_slope_rows(out / "slopes.csv")
    _complete_grid(rows, SCHEME_ORDER, steps, out / "weak.csv", positive=False)
    for value in slopes.values():
        _require(math.isfinite(value), f"{out / 'slopes.csv'}: non-finite slope")
    for scheme, band in WEAK_SLOPE_BANDS.items():
        _slope_in_band(slopes, rows, steps, scheme, "weak", band, out / "slopes.csv")
    for n in steps:
        _require(
            rows[("log-ode", n)].error < rows[("parabola", n)].error,
            f"{out / 'weak.csv'}: log-ODE weak error not below parabola at N={n}",
        )


def check_large_n(out_dir, steps):
    """Large-N strong grid: positive values, ordering, log-ODE error falls."""
    out = Path(out_dir)
    rows = read_error_rows(out / "strong.csv")
    slopes = read_slope_rows(out / "slopes.csv")
    _complete_grid(rows, SCHEME_ORDER, steps, out / "strong.csv", positive=True)
    for value in slopes.values():
        _require(math.isfinite(value), f"{out / 'slopes.csv'}: non-finite slope")
    _ordered_at_every_n(rows, steps, out / "strong.csv")
    log_ode = [rows[("log-ode", n)].error for n in steps]
    _require(
        all(later < earlier for earlier, later in zip(log_ode, log_ode[1:])),
        f"{out / 'strong.csv'}: log-ODE error does not fall as N grows: {log_ode}",
    )


# ---------------------------------------------------------------------------
# Trajectories


def igbm_moments(t, a, b, sigma, y0):
    """Closed-form mean and variance of y_t for dy = a(b - y)dt + sigma y dW.

    The mean solves m' = a(b - m); the second moment solves
    s' = 2ab m + (sigma^2 - 2a) s with s(0) = y0^2.
    """
    c = sigma * sigma - 2.0 * a
    mean = b + (y0 - b) * math.exp(-a * t)
    growth = math.exp(c * t)
    drift_part = b * (t if c == 0.0 else (growth - 1.0) / c)
    decay_part = (y0 - b) * (growth - math.exp(-a * t)) / (c + a)
    second = growth * y0 * y0 + 2.0 * a * b * (drift_part + decay_part)
    return mean, second - mean * mean


def check_igbm_paths(path, scheme, n_steps, n_paths, params=IGBM_DEFAULTS):
    """Check one `igbm_paths.csv`; returns the terminal values y_T."""
    a, b, sigma, y0, horizon = params
    data = read_numeric(path, "path_id,t,value")
    _require(data.shape[0] == n_paths * (n_steps + 1), f"{path}: expected {n_paths} paths of {n_steps + 1} points")
    ids = data[:, 0].reshape(n_paths, n_steps + 1)
    ts = data[:, 1].reshape(n_paths, n_steps + 1)
    ys = data[:, 2].reshape(n_paths, n_steps + 1)
    _require(np.array_equal(ids, np.repeat(np.arange(n_paths), n_steps + 1).reshape(ids.shape)), f"{path}: path ids")
    grid = np.linspace(0.0, horizon, n_steps + 1)
    _require(np.allclose(ts, grid, rtol=0.0, atol=1e-12 * horizon), f"{path}: grid is not linspace(0, T, N+1)")
    _require(np.all(ys[:, 0] == y0), f"{path}: a path does not start at y0={y0}")
    _require(np.all(np.isfinite(ys)), f"{path}: non-finite trajectory value")
    if scheme in ("milstein", "euler"):
        _require(np.all(ys >= 0.0), f"{path}: {scheme} trajectory below 0")
    else:
        _require(np.all(ys > 0.0), f"{path}: {scheme} trajectory not > 0")
    return ys[:, -1]


def check_terminal_mean(terminal, label, params=IGBM_DEFAULTS):
    """Sample mean of y_T within 4 standard errors of b + (y0 - b)e^{-aT}.

    y_T is heavy-tailed at the defaults (sigma^2 T = 1.8), so the standard
    error is the larger of the closed-form one, sqrt(Var y_T / n), and the
    sample one.  The closed form bounds the lower side, where a sample that
    missed the rare large paths has both a low mean and a low sample spread;
    the sample spread bounds the upper side, where one large path lifts both.
    """
    a, b, sigma, y0, horizon = params
    mean, var = igbm_moments(horizon, a, b, sigma, y0)
    n = terminal.size
    se = max(math.sqrt(var / n), float(np.std(terminal, ddof=1)) / math.sqrt(n))
    z = (float(np.mean(terminal)) - mean) / se
    _require(abs(z) <= MEAN_SE_LIMIT, f"{label}: terminal mean is {z:+.2f} standard errors from {mean:.7f}")


def basis_matrix(degree, ts):
    """e_k(t) for k = 1..degree-1 (rows) on `ts`, built from Legendre series:
    e_k'(t) = sqrt(k(k+1)(2k+1)) P_k(2t - 1) and e_k(0) = 0."""
    x = 2.0 * np.asarray(ts) - 1.0
    rows = []
    for k in range(1, degree):
        series = np.zeros(k + 1)
        series[k] = 1.0
        antiderivative = legendre.legint(series, lbnd=-1.0)  # vanishes at x = -1, i.e. t = 0
        rows.append(0.5 * math.sqrt(k * (k + 1.0) * (2.0 * k + 1.0)) * legendre.legval(x, antiderivative))
    return np.array(rows)


def check_kl_paths(out_dir, degree, n_paths, grid):
    """`paths.csv` equals w1 t + sum_k I_k e_k(t) from `path_coeffs.csv`, and
    each coefficient's sample variance is consistent with 1/(k(k+1))."""
    out = Path(out_dir)
    values = read_numeric(out / "paths.csv", "path_id,t,kl_value")
    coeffs = read_numeric(out / "path_coeffs.csv", "path_id,k,I_k")
    _require(values.shape[0] == n_paths * grid, f"{out / 'paths.csv'}: expected {n_paths} x {grid} rows")
    _require(coeffs.shape[0] == n_paths * degree, f"{out / 'path_coeffs.csv'}: expected {n_paths} x {degree} rows")
    ks = coeffs[:, 1].reshape(n_paths, degree)
    _require(np.array_equal(ks, np.tile(np.arange(degree), (n_paths, 1))), f"{out / 'path_coeffs.csv'}: k column")
    table = coeffs[:, 2].reshape(n_paths, degree)  # column 0 is w1, column k is I_k
    ts = np.linspace(0.0, 1.0, grid)
    layout = np.stack(np.meshgrid(np.arange(n_paths), ts, indexing="ij"), axis=-1).reshape(-1, 2)
    _require(np.array_equal(values[:, :2], layout), f"{out / 'paths.csv'}: path ids or grid are not 0.. x linspace(0, 1)")
    expected = np.outer(table[:, 0], ts) + table[:, 1:] @ basis_matrix(degree, ts)
    gap = np.abs(values[:, 2].reshape(n_paths, grid) - expected)
    _require(np.all(np.isfinite(gap)), f"{out / 'paths.csv'}: non-finite value")
    worst = float(np.max(gap))
    _require(worst <= PATHS_ABS_TOL, f"{out / 'paths.csv'}: value differs from the expansion by {worst:.3e}")
    check_coefficient_variances(table, out / "path_coeffs.csv")


def check_coefficient_variances(table, label):
    """Var(w1) = 1 and Var(I_k) = 1/(k(k+1)), each within 5 sigma under the
    Wilson-Hilferty normal approximation of the chi-square law."""
    n = table.shape[0]
    dof = n - 1.0
    for k in range(table.shape[1]):
        target = 1.0 if k == 0 else 1.0 / (k * (k + 1.0))
        ratio = float(np.var(table[:, k], ddof=1)) / target
        z = (ratio ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(2.0 / (9.0 * dof))
        _require(abs(z) <= VARIANCE_Z_LIMIT, f"{label}: variance of coefficient k={k} is {z:+.2f} sigma off")


def check_check_output(stdout):
    """Every line `polybrown check` printed reads `ok <suite>`."""
    lines = stdout.splitlines()
    _require(lines and all(line.startswith("ok ") for line in lines), f"check printed a non-ok line: {stdout!r}")


def same_digest(expected, actual, label):
    _require(expected == actual, f"{label}: CSV bytes differ between runs of the same inputs")
