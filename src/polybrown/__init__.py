"""Polynomial Brownian paths, Levy-area conditional moments, and high-order
discretization schemes for inhomogeneous geometric Brownian motion.  The package
holds what needs no NumPy: the model, the study and each integer rule of a run,
so the CLI checks a run before NumPy loads.  It imports no submodule, so not
NumPy: write `from polybrown import harness`."""

import enum
import math
from collections import namedtuple

__version__ = "0.1.0"
MAX_PATHS = 1 << 32  # path indices fill 32 bits of the stream key (see `harness.path_generator`)
MAX_LEVEL = 1 << 16  # stream levels fill 16 bits of it


def _integer(value):
    """A str from the CLI, read by `int`, or an exact integer (`__index__`) from a library caller, not a bool."""
    if not isinstance(value, str) and (isinstance(value, bool) or not hasattr(type(value), "__index__")):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def u64(text):
    value = _integer(text)
    if not 0 <= value < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def positive_int(text):
    value = _integer(text)
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


def _float(value):
    """`float(value)`, but a signed inf, not an OverflowError, for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class IgbmParams(namedtuple("IgbmParams", "a b sigma y0 horizon")):
    """Model parameters, each stored as a Python float: mean-reversion speed a >= 0,
    level b, volatility sigma >= 0, initial value y0, and time horizon T.  Checked in
    `__new__`, which `_make`, and so `_replace`, unpickling and `copy`, run too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = tuple.__new__(cls, map(_float, super().__new__(cls, *args, **kwargs)))
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        return self

    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def a_strat(self):
        """Drift speed in Stratonovich form: a + sigma^2 / 2; inf once sigma^2 overflows, where `**` raises."""
        return self.a + 0.5 * (self.sigma**2 if self.sigma < 2.0**512 else math.inf)


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


class ExperimentConfig(namedtuple("ExperimentConfig", "params schemes step_counts num_paths seed")):
    """Benchmark configuration, checked before any work and stored as its rules return it:
    an `IgbmParams`, a tuple of distinct `SchemeKind`s, ascending step counts below 2^16
    that each divide the next, and path and seed ints within `harness.path_generator`'s key."""

    __slots__ = ()

    def __new__(cls, params, schemes, step_counts, num_paths, seed):
        step_counts = tuple(map(stream_level, step_counts))
        steps = ",".join(map(str, step_counts))
        if list(step_counts) != sorted(set(step_counts)):
            raise ValueError(f"step counts must be strictly ascending: {steps}")
        if any(finer % n for n, finer in zip(step_counts, step_counts[1:])):
            raise ValueError(f"each step count must divide the next: {steps}")
        if _integer(num_paths) < 100:
            raise ValueError("too few paths: need paths >= 100")
        self = super().__new__(cls, params, tuple(schemes), step_counts, path_count(num_paths), u64(seed))
        if not (isinstance(self.params, IgbmParams) and all(isinstance(kind, SchemeKind) for kind in self.schemes)):
            raise ValueError(f"need IgbmParams and SchemeKinds, got {self.params!r} and {self.schemes!r}")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if not self.step_counts:
            raise ValueError("need at least one step count")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must be distinct: {','.join(scheme.value for scheme in self.schemes)}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))
