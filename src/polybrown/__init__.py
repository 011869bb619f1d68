"""Polynomial Brownian paths, Levy-area conditional moments, and high-order
discretization schemes for inhomogeneous geometric Brownian motion.  The package
holds what needs no NumPy: the model, the study and each integer rule of a run,
so the CLI checks a run before NumPy loads.  It imports no submodule, so not
NumPy: write `from polybrown import harness`."""

import enum
import math
from dataclasses import dataclass, fields

__version__ = "0.1.0"
MAX_PATHS = 1 << 32  # path indices fill 32 bits of the stream key (see `harness.path_generator`)
MAX_LEVEL = 1 << 16  # stream levels fill 16 bits of it


def u64(text):
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def path_count(text):
    value = positive_int(text)
    if value > MAX_PATHS:
        raise ValueError("too many paths: need paths <= 2^32")
    return value


def stream_level(text):
    value = positive_int(text)
    if value >= MAX_LEVEL:
        raise ValueError("must be below 2^16, the number of stream levels")
    return value


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark configuration, validated before any work: step counts
    ascend, stay below 2^16 and each divides the next; schemes are distinct;
    path indices and the seed fit the stream key of `harness.path_generator`."""

    params: IgbmParams
    schemes: tuple
    step_counts: tuple
    num_paths: int
    seed: int

    def __post_init__(self):
        steps = ",".join(map(str, self.step_counts))
        if list(self.step_counts) != sorted(set(self.step_counts)):
            raise ValueError(f"step counts must be strictly ascending: {steps}")
        for n in self.step_counts:
            stream_level(n)
        if any(finer % n for n, finer in zip(self.step_counts, self.step_counts[1:])):
            raise ValueError(f"each step count must divide the next: {steps}")
        if self.num_paths < 100:
            raise ValueError("too few paths: need paths >= 100")
        path_count(self.num_paths)
        u64(self.seed)
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if not self.step_counts:
            raise ValueError("need at least one step count")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must be distinct: {','.join(scheme.value for scheme in self.schemes)}")
