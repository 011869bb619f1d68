"""Five discretization schemes for inhomogeneous geometric Brownian motion

    dy = a (b - y) dt + sigma y dW,

as array kernels over per-interval (W, H) increment data, and `simulate`,
which folds a kernel over a (paths, steps) batch.  The high-order scheme uses
the closed form that the constant Lie brackets of this equation admit; no
generic ODE solver is involved.
"""

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from . import levy
from .orthopoly import gauss_legendre_01

__all__ = [
    "REFERENCE",
    "IgbmParams",
    "SchemeKind",
    "kernel_fn",
    "phi",
    "simulate",
]


@dataclass(frozen=True)
class IgbmParams:
    """Model parameters: mean-reversion speed a >= 0, level b, volatility
    sigma >= 0, initial value y0, and time horizon T."""

    a: float
    b: float
    sigma: float
    y0: float
    horizon: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")

    @property
    def a_strat(self):
        """Drift speed in Stratonovich form: a + sigma^2 / 2."""
        return self.a + 0.5 * self.sigma**2

    @property
    def b_strat(self):
        """Drift level in Stratonovich form: 2ab / (2a + sigma^2); satisfies
        a_strat * b_strat = a * b."""
        denom = 2.0 * self.a + self.sigma**2
        if denom == 0.0:
            return self.b
        return 2.0 * self.a * self.b / denom


# The reference experiment's parameters, the defaults of the CLI and harness.
REFERENCE = IgbmParams(a=0.1, b=0.04, sigma=0.6, y0=0.06, horizon=5.0)


class SchemeKind(enum.Enum):
    """The five step rules, keyed by their CLI names."""

    LOG_ODE = "log-ode"
    PARABOLA_ODE = "parabola"
    PIECEWISE_LINEAR = "linear"
    MILSTEIN = "milstein"
    EULER_MARUYAMA = "euler"

    @classmethod
    def from_name(cls, name):
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown scheme '{name}' (choose from: {valid})") from None


def phi(x):
    """(e^x - 1)/x as expm1(x)/x, and 1 at the removable singularity x = 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


# Array kernels: one step of each scheme, for ndarray or scalar y / w / h_area.

_GL3_NODES, _GL3_WEIGHTS = gauss_legendre_01(3)


def _kernel_log_ode(y, w, h_area, h, a, b, sigma, a_strat, b_strat):
    """One high-order step:  y e^x + ab (h (1 - sigma H) + sigma^2 E[L | W, H])
    phi(x), with x = -a~h + sigma W.

    The constant Lie brackets -ab*sigma and ab*sigma^2 carry the area H and
    the conditional-mean estimate `levy.cond_mean_L` of the third-order area.
    """
    x = -a_strat * h + sigma * w
    correction = h * (1.0 - sigma * h_area) + sigma * sigma * levy.cond_mean_L(w, h_area, h)
    return y * np.exp(x) + a * b * correction * phi(x)


def _kernel_parabola(y, w, h_area, h, a, b, sigma, a_strat, b_strat):
    """One parabola-driven step; the drift integral along the parabola is
    computed by 3-point Gauss-Legendre quadrature."""
    growth = np.exp(-a_strat * h + sigma * w)
    acc = 0.0
    for u, v in zip(_GL3_NODES, _GL3_WEIGHTS):
        parab = u * w + 6.0 * u * (1.0 - u) * h_area
        acc = acc + v * np.exp(a_strat * u * h - sigma * parab)
    return growth * (y + a * b * h * acc)


def _kernel_linear(y, w, h_area, h, a, b, sigma, a_strat, b_strat):
    """One piecewise-linear (chord-driven) step; ignores the area term."""
    x = -a_strat * h + sigma * w
    return y * np.exp(x) + a * b * h * phi(x)


def _kernel_milstein(y, w, h_area, h, a, b, sigma, a_strat, b_strat):
    """One Milstein step, clamped at zero to preserve non-negativity."""
    step = y + a_strat * (b_strat - y) * h + sigma * y * w + 0.5 * sigma * sigma * y * w * w
    return np.maximum(step, 0.0)


def _kernel_euler(y, w, h_area, h, a, b, sigma, a_strat, b_strat):
    """One Euler-Maruyama step in Ito form, clamped at zero."""
    step = y + a * (b - y) * h + sigma * y * w
    return np.maximum(step, 0.0)


_KERNELS = {
    SchemeKind.LOG_ODE: _kernel_log_ode,
    SchemeKind.PARABOLA_ODE: _kernel_parabola,
    SchemeKind.PIECEWISE_LINEAR: _kernel_linear,
    SchemeKind.MILSTEIN: _kernel_milstein,
    SchemeKind.EULER_MARUYAMA: _kernel_euler,
}


def kernel_fn(kind):
    """The array kernel implementing a SchemeKind:
    kernel(y, w, h_area, h, a, b, sigma, a_strat, b_strat) -> next y."""
    return _KERNELS[kind]


def simulate(kind, p, w, h_area, record=False):
    """Fold the chosen scheme over the columns of (paths, steps) arrays of
    per-interval increments W and space-time areas H, from y0 with step
    length horizon / steps.

    Returns the terminal values (paths,), or with `record` the trajectories
    (paths, steps + 1) including y0.  Each row depends on its own row of
    data only, so a path's values do not depend on the batch it is in.
    Raises ValueError, naming the scheme, if any returned value is not finite.
    """
    w = np.asarray(w, dtype=float)
    h_area = np.asarray(h_area, dtype=float)
    if w.ndim != 2 or w.shape != h_area.shape:
        raise ValueError("w and h_area must be (paths, steps) arrays of one shape")
    paths, steps = w.shape
    if steps == 0:
        raise ValueError("need at least one step")
    kernel = _KERNELS[kind]
    h = p.horizon / steps
    par = (p.a, p.b, p.sigma, p.a_strat, p.b_strat)
    y = np.full(paths, p.y0)
    if record:
        traj = np.empty((paths, steps + 1))
        traj[:, 0] = y
    for k in range(steps):
        y = kernel(y, w[:, k], h_area[:, k], h, *par)
        if record:
            traj[:, k + 1] = y
    out = traj if record else y
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the {kind.value} scheme gave non-finite values")
    return out
