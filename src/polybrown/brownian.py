"""Brownian-path data: (increment, space-time area) pairs, polynomial
expansion paths, parabolas, arches, and exact coarsening of fine increments.

All samplers take an explicit numpy Generator and share no mutable state; one
stream per worker keeps results reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import orthopoly

__all__ = [
    "BrownianPolynomial",
    "DensePath",
    "IncrementPair",
    "arch_covariance",
    "arch_cov_factor",
    "coarsen",
    "eval_polynomial_path",
    "extract_Ik",
    "parabola_eval",
    "sample_arch",
    "sample_brownian_dense",
    "sample_kl_batch",
    "sample_kl_coefficients",
    "sample_pair",
]


@dataclass(frozen=True)
class IncrementPair:
    """Brownian data for one interval: increment w, rescaled space-time area
    h_area (~ N(0, length/12), independent of w), and the interval length."""

    w: float
    h_area: float
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("nonpositive length")


@dataclass(frozen=True)
class BrownianPolynomial:
    """Degree-n polynomial path on [0, 1]: w1 * t plus expansion terms I_k e_k.

    A batch of paths has w1 of shape (paths,) and coeffs (paths, n-1)."""

    w1: float
    coeffs: np.ndarray  # I_1 .. I_{n-1} along the last axis

    @property
    def degree(self):
        return np.shape(self.coeffs)[-1] + 1


@dataclass(frozen=True)
class DensePath:
    """Path values on a strictly increasing grid spanning [0, 1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid endpoints must be 0 and 1")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")

    @property
    def n_steps(self):
        return self.grid.size - 1


def sample_pair(length, rng):
    """Draw an IncrementPair: w ~ N(0, length), h_area ~ N(0, length/12), independent."""
    if not length > 0:
        raise ValueError("nonpositive length")
    w = rng.normal(0.0, np.sqrt(length))
    h_area = rng.normal(0.0, np.sqrt(length / 12.0))
    return IncrementPair(w=w, h_area=h_area, length=length)


def sample_kl_batch(degree, count, rng):
    """Vectorized coefficient draws: returns (w1[count], coeffs[count, degree-1]).

    w1 ~ N(0, 1); column k-1 holds I_k ~ N(0, 1/(k(k+1))), all independent.
    Each row is drawn w1-first so a single-row batch matches
    sample_kl_coefficients stream-for-stream.
    """
    if degree < 1:
        raise ValueError("degree out of range: need degree >= 1")
    z = rng.standard_normal((count, degree))
    w1 = z[:, 0]
    ks = np.arange(1, degree)
    coeffs = z[:, 1:] * np.sqrt(1.0 / (ks * (ks + 1.0)))
    return w1, coeffs


def sample_kl_coefficients(degree, rng):
    """Draw the expansion coefficients of a degree-n polynomial path."""
    if not 1 <= degree <= orthopoly.MAX_DEGREE:
        raise ValueError(f"degree out of range: need 1 <= degree <= {orthopoly.MAX_DEGREE}")
    w1, coeffs = sample_kl_batch(degree, 1, rng)
    return BrownianPolynomial(w1=float(w1[0]), coeffs=coeffs[0])


def eval_polynomial_path(poly, t):
    """Evaluate W^n(t) = w1 * t + sum_k I_k e_k(t) for t in [0, 1].

    For a batch of paths the result has shape (paths,) + shape(t); each e_k
    is evaluated once for the whole batch.
    """
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0) or np.any(ta > 1.0):
        raise ValueError("t out of domain [0, 1]")
    coeffs = np.asarray(poly.coeffs, dtype=float)
    out = np.multiply.outer(poly.w1, ta)
    for k in range(1, coeffs.shape[-1] + 1):
        out = out + np.multiply.outer(coeffs[..., k - 1], orthopoly.basis_e_eval(k, ta))
    return out if np.ndim(out) else float(out)


def extract_Ik(path, k):
    """Trapezoidal estimate of the k-th expansion coefficient of a dense path.

    The path is reduced to its bridge first (subtracting t times the total
    increment), so motions and bridges are both accepted.  The polynomial
    factor e_k/(t(1-t)) is evaluated in de-singularized form.
    """
    if path.n_steps < 16:
        raise ValueError("grid too coarse: need at least 16 steps")
    t = path.grid
    bridge = path.values - path.values[0] - t * (path.values[-1] - path.values[0])
    return float(np.trapezoid(bridge * orthopoly.basis_e_over_weight(k, t), t))


def parabola_eval(start_value, pair, u):
    """Value of the Brownian parabola at interval fraction u in [0, 1].

    start + u*w + 6 u(1-u) * h_area; matches the interval's increment and
    time integral.
    """
    ua = np.asarray(u, dtype=float)
    if np.any(ua < 0.0) or np.any(ua > 1.0):
        raise ValueError("u out of range [0, 1]")
    out = start_value + ua * pair.w + 6.0 * ua * (1.0 - ua) * pair.h_area
    return out if np.ndim(u) else float(out)


def arch_covariance(s, t):
    """Covariance of the standard Brownian arch: min(s,t) - st - 3st(1-s)(1-t)."""
    sa = np.asarray(s, dtype=float)
    ta = np.asarray(t, dtype=float)
    if np.any(sa < 0.0) or np.any(sa > 1.0) or np.any(ta < 0.0) or np.any(ta > 1.0):
        raise ValueError("s, t out of domain [0, 1]")
    out = np.minimum(sa, ta) - sa * ta - 3.0 * sa * ta * (1.0 - sa) * (1.0 - ta)
    return out if (np.ndim(s) or np.ndim(t)) else float(out)


def arch_cov_factor(grid):
    """Symmetric factor F with F F^T = arch covariance on an interior grid.

    Tries Cholesky first; on failure falls back to a symmetric
    eigendecomposition with eigenvalues below 1e-12 clamped to zero.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    if g[0] <= 0.0 or g[-1] >= 1.0:
        raise ValueError("grid must lie strictly inside (0, 1)")
    cov = arch_covariance(g[:, None], g[None, :])
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        if vals.min() < -1e-10:
            raise ValueError("covariance matrix not PSD within tolerance")
        vals = np.where(vals < 1e-12, 0.0, vals)
        return vecs * np.sqrt(vals)


def sample_arch(grid, rng, factor=None):
    """Draw the standard Brownian arch on an interior grid.

    Returns a DensePath with the endpoints 0 and 1 appended (arch values
    there are exactly zero).  Pass a precomputed `factor` from
    arch_cov_factor to amortize the factorization across draws.
    """
    g = np.asarray(grid, dtype=float)
    if factor is None:
        factor = arch_cov_factor(g)
    z = rng.standard_normal(g.size)
    vals = factor @ z
    full_grid = np.concatenate(([0.0], g, [1.0]))
    full_vals = np.concatenate(([0.0], vals, [0.0]))
    return DensePath(grid=full_grid, values=full_vals)


def coarsen(pairs):
    """Combine consecutive equal-length IncrementPairs into one interval.

    Exact algebra: with sub-length d, total h = n d, prefix_i the increment
    accumulated before piece i,

        w = sum_i w_i
        h_area = (d/h) * sum_i (prefix_i + h_area_i + w_i/2) - w/2

    which is the space-time area definition applied to the concatenation.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    if len(pairs) == 1:
        return pairs[0]
    d = pairs[0].length
    if any(abs(p.length - d) > 1e-12 * d for p in pairs):
        raise ValueError("unequal lengths")
    w = np.array([p.w for p in pairs])
    hh = np.array([p.h_area for p in pairs])
    prefix = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    w_total = float(np.sum(w))
    h = d * len(pairs)
    h_area = float(np.sum(prefix + hh + 0.5 * w) / len(pairs) - 0.5 * w_total)
    return IncrementPair(w=w_total, h_area=h_area, length=h)


def coarsen_arrays(w_fine, h_fine):
    """Vectorized `coarsen` of equal-length pieces along the last axis,
    (..., n) -> (...,), in the weighted form w = sum_i w_i and
    h_area = mean_i h_area_i + sum_i (n-1-2i)/(2n) w_i, accumulated piece by
    piece: no full-size temporaries, and each element uses its own row only."""
    n = w_fine.shape[-1]
    w, h_sum, tilt = (np.zeros(w_fine.shape[:-1]) for _ in range(3))
    for i in range(n):
        w += w_fine[..., i]
        h_sum += h_fine[..., i]
        tilt += (n - 1 - 2 * i) / (2 * n) * w_fine[..., i]
    return w, h_sum / n + tilt


def sample_brownian_dense(n_steps, rng):
    """Standard Brownian motion sampled on the uniform grid {i/n_steps}."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    dt = 1.0 / n_steps
    incs = rng.normal(0.0, np.sqrt(dt), size=n_steps)
    vals = np.concatenate(([0.0], np.cumsum(incs)))
    return DensePath(grid=np.linspace(0.0, 1.0, n_steps + 1), values=vals)
