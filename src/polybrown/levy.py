"""Closed-form conditional moments of the space-space-time Levy area and the
algebra relating (W, H, L) to third-order Stratonovich iterated integrals.
The closed forms take W and H as scalars or broadcasting arrays and the
interval length as a positive scalar; the log-ODE scheme of `igbm` runs
`cond_mean_L`."""

from collections import namedtuple

__all__ = [
    "TripleIntegrals",
    "cond_mean_L",
    "cond_mean_sq_integral",
    "cond_var_L",
    "triple_integrals_from_whl",
]


# Second- and third-order Stratonovich iterated integrals over one interval: i_wwt = dW dW dt,
# i_wtw = dW dt dW, i_tww = dt dW dW (inner to outer), i_wt = dW dt, i_tw = dt dW.
TripleIntegrals = namedtuple("TripleIntegrals", "i_wwt i_wtw i_tww i_wt i_tw")


def _check_positive_length(length):
    if not length > 0:
        raise ValueError("nonpositive length")


def cond_mean_sq_integral(w, h_area, length):
    """E[ integral of (W_{s,u})^2 du | W, H ] = hW^2/3 + hWH + 2 E[L | W, H]."""
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
