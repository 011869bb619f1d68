"""Closed-form conditional moments of the space-space-time Levy area and the
algebra relating (W, H, L) to third-order Stratonovich iterated integrals,
plus discretized oracles for testing them against dense paths.  The closed
forms take W and H as scalars or broadcasting arrays and the interval length
as a positive scalar; the log-ODE scheme of `igbm` runs `cond_mean_L`."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TripleIntegrals",
    "cond_mean_L",
    "cond_mean_sq_integral",
    "cond_var_L",
    "discrete_levy_areas",
    "discrete_triple_integrals",
    "triple_integrals_from_whl",
]


@dataclass(frozen=True)
class TripleIntegrals:
    """Second- and third-order Stratonovich iterated integrals over one interval.

    i_wwt = dW dW dt, i_wtw = dW dt dW, i_tww = dt dW dW (inner to outer),
    i_wt = dW dt, i_tw = dt dW.
    """

    i_wwt: float
    i_wtw: float
    i_tww: float
    i_wt: float
    i_tw: float


def _check_positive_length(length):
    if not length > 0:
        raise ValueError("nonpositive length")


def cond_mean_sq_integral(w, h_area, length):
    """E[ integral of (W_{s,u})^2 du | W, H ] = hW^2/3 + hWH + 2 E[L | W, H]."""
    _check_positive_length(length)
    return length * w * w / 3.0 + length * w * h_area + 2.0 * cond_mean_L(w, h_area, length)


def cond_mean_L(w, h_area, length):
    """E[ L | W, H ] = h^2/30 + 3hH^2/5; W does not enter."""
    _check_positive_length(length)
    return length * length / 30.0 + 0.6 * length * h_area * h_area


def cond_var_L(w, h_area, length):
    """Var( L | W, H ) = 11 h^4 / 25200 + h^3 (W^2/720 + H^2/700)."""
    _check_positive_length(length)
    return 11.0 / 25200.0 * length**4 + length**3 * (w * w / 720.0 + h_area * h_area / 700.0)


def triple_integrals_from_whl(w, h_area, l_area, length):
    """The five integral identities expressing iterated integrals via (W, H, L)."""
    _check_positive_length(length)
    h = length
    base = h * w * w / 6.0
    cross = 0.5 * h * w * h_area
    return TripleIntegrals(
        i_wwt=base + cross + l_area,
        i_wtw=base - 2.0 * l_area,
        i_tww=base - cross + l_area,
        i_wt=0.5 * h * w + h * h_area,
        i_tw=0.5 * h * w - h * h_area,
    )


def _require_dense(path):
    if path.n_steps < 1000:
        raise ValueError("grid too coarse: need at least 1000 steps")


def _discrete_core(grid, values):
    """Discretized integrals for values sampled on a shared grid.

    `values` may be 1-d or (paths, grid) 2-d; reductions run over the last
    axis.  Stratonovich dW factors use midpoint values, dt factors use the
    trapezoidal rule.
    """
    t = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    h = t[-1] - t[0]
    rel = v - v[..., :1]
    dv = np.diff(v, axis=-1)
    mid_rel = 0.5 * (rel[..., :-1] + rel[..., 1:])
    mid_t = 0.5 * (t[:-1] + t[1:]) - t[0]
    dt = np.diff(t)

    w = rel[..., -1]
    i_wt = np.trapezoid(rel, t, axis=-1)
    i_tw = np.sum(mid_t * dv, axis=-1)
    i_wwt = np.trapezoid(0.5 * rel * rel, t, axis=-1)

    # cumulative inner integrals, then one more midpoint-dW layer
    inner_wt = np.cumsum(mid_rel * dt, axis=-1)  # integral of rel dv up to each node
    inner_wt_full = np.concatenate((np.zeros(v.shape[:-1] + (1,)), inner_wt), axis=-1)
    i_wtw = np.sum(0.5 * (inner_wt_full[..., :-1] + inner_wt_full[..., 1:]) * dv, axis=-1)

    inner_tw = np.cumsum(mid_t * dv, axis=-1)  # integral of (v - s) dW up to each node
    inner_tw_full = np.concatenate((np.zeros(v.shape[:-1] + (1,)), inner_tw), axis=-1)
    i_tww = np.sum(0.5 * (inner_tw_full[..., :-1] + inner_tw_full[..., 1:]) * dv, axis=-1)

    h_area = i_wt / h - 0.5 * w
    l_area = (i_wwt - 2.0 * i_wtw + i_tww) / 6.0
    return {
        "w": w,
        "h_area": h_area,
        "l_area": l_area,
        "i_wt": i_wt,
        "i_tw": i_tw,
        "i_wwt": i_wwt,
        "i_wtw": i_wtw,
        "i_tww": i_tww,
        "length": h,
    }


def discrete_levy_areas(path):
    """(W, H, L) of a dense path by direct discretization of the definitions."""
    _require_dense(path)
    out = _discrete_core(path.grid, path.values)
    return float(out["w"]), float(out["h_area"]), float(out["l_area"])


def discrete_triple_integrals(path):
    """Direct discretizations of the five iterated integrals of a dense path."""
    _require_dense(path)
    out = _discrete_core(path.grid, path.values)
    return TripleIntegrals(
        i_wwt=float(out["i_wwt"]),
        i_wtw=float(out["i_wtw"]),
        i_tww=float(out["i_tww"]),
        i_wt=float(out["i_wt"]),
        i_tw=float(out["i_tw"]),
    )
