"""Brownian-path data: (increment, space-time area) pairs, polynomial
expansion paths, and exact coarsening of fine increments.

All samplers take an explicit numpy Generator and share no mutable state; one
stream per worker keeps results reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import orthopoly

__all__ = [
    "BrownianPolynomial",
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


@dataclass(frozen=True)
class BrownianPolynomial:
    """Degree-n polynomial path on [0, 1]: w1 * t plus expansion terms I_k e_k.

    A batch of paths has w1 of shape (paths,) and coeffs (paths, n-1)."""

    w1: float
    coeffs: np.ndarray  # I_1 .. I_{n-1} along the last axis

    @property
    def degree(self):
        return np.shape(self.coeffs)[-1] + 1


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
