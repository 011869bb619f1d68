"""Brownian-path data: (increment, space-time area) pairs, polynomial
expansion paths, and exact coarsening of fine increments.

All samplers take an explicit numpy Generator and share no mutable state; one
stream per worker keeps results reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import orthopoly

__all__ = [
    "IncrementPair",
    "coarsen_arrays",
    "eval_polynomial_path",
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
    Each row is drawn w1-first, the order in which `polybrown paths` draws.
    """
    if degree < 1:
        raise ValueError("degree out of range: need degree >= 1")
    z = rng.standard_normal((count, degree))
    w1 = z[:, 0]
    ks = np.arange(1, degree)
    coeffs = z[:, 1:] * np.sqrt(orthopoly.eigenvalue(ks))
    return w1, coeffs


def sample_kl_coefficients(degree, rng):
    """One path's (w1, coeffs), the single row of `sample_kl_batch`.  Kept
    because `bench/trace.py` wraps it by name; the CLI draws through `harness`."""
    w1, coeffs = sample_kl_batch(degree, 1, rng)
    return w1[0], coeffs[0]


def eval_polynomial_path(w1, coeffs, t):
    """Evaluate W^n(t) = w1 * t + sum_k I_k e_k(t) for t in [0, 1], with
    I_1 .. I_{n-1} along the last axis of `coeffs`.

    For w1 of shape (paths,) and coeffs (paths, n-1) the result has shape
    (paths,) + shape(t).  One pass of `orthopoly.basis_e_rows` gives each e_k
    once for the whole batch, so a degree-n path costs O(n * size(t)).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t out of domain [0, 1]")
    out = np.multiply.outer(w1, t)
    for column, e_k in zip(np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0), orthopoly.basis_e_rows(t)):
        out = out + np.multiply.outer(column, e_k)
    return out


def coarsen_arrays(w_fine, h_fine):
    """Exact (W, H) of intervals made of n equal-length pieces along the last
    axis, (..., n) -> (...,), in the weighted form w = sum_i w_i and
    h_area = mean_i h_area_i + sum_i (n-1-2i)/(2n) w_i, accumulated piece by
    piece: no full-size temporaries, and each element uses its own row only."""
    n = w_fine.shape[-1]
    w, h_sum, tilt = (np.zeros(w_fine.shape[:-1]) for _ in range(3))
    for i in range(n):
        w += w_fine[..., i]
        h_sum += h_fine[..., i]
        tilt += (n - 1 - 2 * i) / (2 * n) * w_fine[..., i]
    return w, h_sum / n + tilt
