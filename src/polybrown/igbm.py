"""Five discretization schemes for inhomogeneous geometric Brownian motion

    dy = a (b - y) dt + sigma y dW,

over per-interval (W, H) data.  The equation is affine in y, so every scheme
is one affine step  y <- e y + c  with e and c built from (W, H, h) alone;
Milstein and Euler clamp the result at zero but keep a non-finite value, so in
every scheme a value that is not finite stays so.  `simulate` folds a scheme over a
time-major (steps, paths) batch: `prepare` computes (e, c) a slab of steps at a
time, and the step advances y a row at a time, so values equal `kernel_fn`'s
one-step kernel bit for bit.  The high-order scheme uses the closed form that the
constant Lie brackets of this equation admit; no generic ODE solver is
involved.
"""

import numpy as np

from . import REFERENCE, IgbmParams, SchemeKind, levy
from .orthopoly import gauss_legendre_01

__all__ = ["REFERENCE", "IgbmParams", "SchemeKind", "kernel_fn", "phi", "simulate"]


def phi(x):
    """(e^x - 1)/x as expm1(x)/x, and 1 at the removable singularity x = 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


_GL3_NODES, _GL3_WEIGHTS = gauss_legendre_01(3)


def _prepare_log_ode(w, h_area, h, p):
    """The high-order step  y e^x + ab (h (1 - sigma H) + sigma^2 E[L | W, H])
    phi(x), with x = -a~h + sigma W: the constant Lie brackets -ab*sigma and
    ab*sigma^2 carry the area H and the conditional-mean estimate
    `levy.cond_mean_L` of the third-order area."""
    x = -p.a_strat * h + p.sigma * w
    correction = h * (1.0 - p.sigma * h_area) + p.sigma * p.sigma * levy.cond_mean_L(w, h_area, h)
    return np.exp(x), p.a * p.b * correction * phi(x)


def _prepare_parabola(w, h_area, h, p):
    """The parabola-driven step  growth y + growth abh acc, with the drift
    integral acc along the parabola by 3-point Gauss-Legendre quadrature."""
    acc = 0.0
    for u, v in zip(_GL3_NODES, _GL3_WEIGHTS):
        parab = u * w + 6.0 * u * (1.0 - u) * h_area
        acc = acc + v * np.exp(p.a_strat * u * h - p.sigma * parab)
    growth = np.exp(-p.a_strat * h + p.sigma * w)
    return growth, growth * (p.a * p.b * h * acc)


def _prepare_linear(w, h_area, h, p):
    """The piecewise-linear (chord-driven) step  y e^x + abh phi(x), which ignores H."""
    x = -p.a_strat * h + p.sigma * w
    return np.exp(x), p.a * p.b * h * phi(x)


def _prepare_milstein(w, h_area, h, p):
    """The Milstein step  y + (ab - a~y) h + sigma y W + sigma^2 y W^2 / 2; clamped at zero."""
    e = 1.0 - p.a_strat * h + p.sigma * w + 0.5 * p.sigma * p.sigma * w * w
    return e, np.broadcast_to(p.a * p.b * h, np.shape(w))


def _prepare_euler(w, h_area, h, p):
    """The Euler-Maruyama step in Ito form  y + a (b - y) h + sigma y W; clamped at zero."""
    return 1.0 - p.a * h + p.sigma * w, np.broadcast_to(p.a * p.b * h, np.shape(w))


# kind -> (prepare, clamped): `prepare` gives the (e, c) of the step y <- e y + c
_SCHEMES = {
    SchemeKind.LOG_ODE: (_prepare_log_ode, False),
    SchemeKind.PARABOLA_ODE: (_prepare_parabola, False),
    SchemeKind.PIECEWISE_LINEAR: (_prepare_linear, False),
    SchemeKind.MILSTEIN: (_prepare_milstein, True),
    SchemeKind.EULER_MARUYAMA: (_prepare_euler, True),
}
_SLAB = 16  # steps per `prepare` call in `simulate`; never affects values


def _advance(y, e, c, clamped):
    y = y * e + c
    return np.maximum(y, 0.0) + 0.0 * y if clamped else y  # 0 * y is NaN at +-inf, which the clamp keeps


def kernel_fn(kind):
    """A SchemeKind's one-step kernel(y, w, h_area, h, params)."""
    prepare, clamped = _SCHEMES[kind]
    return lambda y, w, h_area, h, p: _advance(y, *prepare(w, h_area, h, p), clamped)


def simulate(kind, p, w, h_area, out=None, y=None, h=None):
    """Fold the chosen scheme over the rows of time-major (steps, paths) arrays
    of per-interval increments W and space-time areas H, from `y` (y0) with
    step length `h` (horizon / steps), so a run cut into pieces can resume.

    Returns the terminal values (paths,); a (steps, paths) `out` also receives
    y after every step.  Each path depends on its own column of data only, so
    its values do not depend on the batch it is in.  Raises ValueError, naming
    the scheme, if a terminal is not finite: a non-finite y stays so to the end.
    """
    w = np.asarray(w, dtype=float)
    h_area = np.asarray(h_area, dtype=float)
    if w.ndim != 2 or w.shape != h_area.shape or (out is not None and out.shape != w.shape):
        raise ValueError("w, h_area and out must be (steps, paths) arrays of one shape")
    if len(w) == 0:
        raise ValueError("need at least one step")
    prepare, clamped = _SCHEMES[kind]
    h = p.horizon / len(w) if h is None else h
    y = np.full(w.shape[1], p.y0) if y is None else y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the terminals are judged below
        for k in range(0, len(w), _SLAB):
            e, c = prepare(w[k : k + _SLAB], h_area[k : k + _SLAB], h, p)
            for k1, (e_k, c_k) in enumerate(zip(e, c), k):
                y = _advance(y, e_k, c_k, clamped)
                if out is not None:
                    out[k1] = y
    if not np.all(np.isfinite(y)):
        raise ValueError(f"the {kind.value} scheme gave non-finite values")
    return y
