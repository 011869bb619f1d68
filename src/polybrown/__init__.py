"""Polynomial Brownian paths, Levy-area conditional moments, and high-order
discretization schemes for inhomogeneous geometric Brownian motion.  The package
holds the model's definitions that need no NumPy, so the CLI checks a run before
NumPy loads; it imports no submodule, so not NumPy: write `from polybrown import harness`."""

import enum
import math
from dataclasses import dataclass, fields

__version__ = "0.1.0"
MAX_PATHS = 1 << 32  # path indices fill 32 bits of the stream key (see `harness.path_generator`)
MAX_LEVEL = 1 << 16  # stream levels fill 16 bits of it


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


# The reference experiment's parameters, the defaults of the CLI and harness.
REFERENCE = IgbmParams(a=0.1, b=0.04, sigma=0.6, y0=0.06, horizon=5.0)


class SchemeKind(enum.Enum):
    """The five step rules of `igbm`, keyed by their CLI names."""

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
