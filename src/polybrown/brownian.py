"""Brownian-path data: (increment, space-time area) pairs, polynomial
expansion paths, and exact coarsening of fine increments.

All samplers take an explicit numpy Generator and share no mutable state;
streams are keyed per path by `harness.path_generator`.
"""

import numpy as np

from . import integer_in, orthopoly, positive_length

__all__ = [
    "coarsen_arrays",
    "eval_polynomial_path",
    "kl_scale",
    "pair_scale",
    "sample_kl_batch",
    "sample_kl_coefficients",
    "sample_pair",
]


def pair_scale(length):
    """(sqrt(length), sqrt(length/12)): the standard deviations of an interval's independent w and h_area."""
    return np.sqrt([positive_length(length, "length"), length / 12.0])


def kl_scale(degree):
    """(1, sqrt(lambda_1), ..., sqrt(lambda_{degree-1})): the standard deviations of a path's independent w1, I_k."""
    return np.sqrt(np.concatenate(([1.0], orthopoly.eigenvalue(np.arange(1, integer_in(degree, "degree", 1))))))


def sample_pair(length, rng):
    """Draw one interval's (w, h_area), in that order, as two floats with `pair_scale(length)`."""
    w_scale, h_scale = pair_scale(length).tolist()  # two scalar draws, several times faster than one of an array
    return rng.normal(0.0, w_scale), rng.normal(0.0, h_scale)


def sample_kl_batch(degree, count, rng):
    """Vectorized coefficient draws (w1[count], coeffs[count, degree-1]): rows of standard normals
    times `kl_scale(degree)`, each drawn w1-first, the order in which `polybrown paths` draws."""
    scale, count = kl_scale(degree), integer_in(count, "count", 0)
    z = rng.standard_normal((count, len(scale))) * scale
    return z[:, 0], z[:, 1:]


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
    if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails both
        raise ValueError("t out of domain [0, 1]")
    out = np.multiply.outer(w1, t)
    for column, e_k in zip(np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0), orthopoly.basis_e_rows(t)):
        out = out + np.multiply.outer(column, e_k)
    return out


def coarsen_arrays(w_fine, h_fine, carry):
    """Exact (W, H) of steps of n equal pieces, time-major: (pieces, ...) ->
    (whole steps, ...), with w = sum_i w_i and h_area = mean_i h_area_i +
    sum_i (n-1-2i)/(2n) w_i summed in ascending i without full-size temporaries.
    `carry` = [n, seen, *sums], [n, 0] to start, carries the partial last step's
    sums to the next call, so pieces fed in runs of any length coarsen as one run."""
    (n, seen, *sums), pieces = carry, len(w_fine)
    n = integer_in(n, "n", 1)
    w, h_sum, tilt = (np.zeros((-(-(seen + pieces) // n),) + w_fine.shape[1:]) for _ in range(3))
    for acc, partial in zip((w, h_sum, tilt), sums):
        acc[: len(partial)] = partial
    for i in sorted({(seen + k) % n for k in range(min(n, pieces))}):  # the positions held, ascending as in one call
        j = (i - seen) % n  # the first piece at position i, which falls in step int(i < seen)
        steps = slice(int(i < seen), int(i < seen) + len(range(j, pieces, n)))
        w[steps] += w_fine[j::n]
        h_sum[steps] += h_fine[j::n]
        tilt[steps] += (n - 1 - 2 * i) / (2 * n) * w_fine[j::n]
    done, carry[1] = divmod(seen + pieces, n)
    carry[2:] = (a[done:].copy() for a in (w, h_sum, tilt))  # copies, so the whole-step sums are not kept
    return w[:done], h_sum[:done] / n + tilt[:done]
