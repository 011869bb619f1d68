"""Exact invariants of the package, each defined once.

Every function measures one property on fixed grids or on draws from the
numpy Generator it is given (deterministic suites ignore it) and returns the
worst residual it finds, where 0 is perfect.  `SUITES` pairs each with the
bound `polybrown check` holds it to; the tests call the same functions with
their own bounds.
"""

import numpy as np

from . import REFERENCE, SchemeKind, brownian, igbm, levy, orthopoly


def _worst(residuals):
    """Largest |r| over scalars and arrays; a NaN anywhere makes it NaN."""
    return float(np.max(np.abs(np.concatenate([np.ravel(r) for r in residuals]))))


def orthonormality(g):
    """max |<e_i, e_j> - delta_ij| under the bridge weight, i, j <= 20; each pair
    on the n-node rule, n = ceil((i + j + 1)/2), exact for its degree i + j."""
    degree = np.add.outer(np.arange(1, 21), np.arange(1, 21))
    residuals = []
    for n in range(2, 22):
        t, w = orthopoly.gauss_legendre_01(n)
        e = np.array([e_k for e_k, _ in zip(orthopoly.basis_e_rows(t), range(20))])
        gram = np.sum(w * e[:, None] * (e / (t * (1.0 - t)))[None], axis=-1)
        residuals.append((gram - np.eye(20))[(degree + 2) // 2 == n])
    return _worst(residuals)


def evaluation_routes(g):
    """Largest relative gap between the recurrence and Legendre-difference
    values of P_k^(-1,-1), k = 2..50, on 200 points of [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, 200)
    gaps = []
    for k in range(2, 51):
        a = orthopoly.jacobi_m1m1_eval_recurrence(k, xs)
        b = orthopoly.jacobi_m1m1_eval_legendre(k, xs)
        denom = np.maximum(np.abs(a), np.abs(b))
        mask = denom != 0  # keeps NaN
        gaps.append((a - b)[mask] / denom[mask])
    return _worst(gaps)


def quadrature(g):
    """Gauss-Legendre rules with 3, 8 and 21 nodes: the weight sum against 2
    and the integral of every monomial of degree < 2n against its exact value."""
    residuals = []
    for n in (3, 8, 21):
        nodes, weights = orthopoly.gauss_legendre(n)
        residuals.append(np.sum(weights) - 2.0)
        for m in range(2 * n):
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            residuals.append(np.sum(weights * nodes**m) - exact)
    return _worst(residuals)


def eigen_ode(g):
    """t(1-t) lambda_k e_k''(t) + e_k(t) = 0 for k <= 20 on 101 points.  With
    x = 2t - 1, t(1-t) e_k''(t) = -k * norm * (x Q_k - Q_{k-1}) / 2, which is
    division-free."""
    ts = np.linspace(0.0, 1.0, 101)
    xs = 2.0 * ts - 1.0
    residuals = []
    for k in range(1, 21):
        norm = np.sqrt(k * (k + 1.0) * (2.0 * k + 1.0))
        weighted_second = -0.5 * k * norm * (xs * orthopoly.legendre_eval(k, xs) - orthopoly.legendre_eval(k - 1, xs))
        residuals.append(orthopoly.eigenvalue(k) * weighted_second + orthopoly.basis_e_eval(k, ts))
    return _worst(residuals)


def phi(g):
    """phi(0) = 1, and phi strictly increasing on 401 points of [-2, 2]: the
    residual also counts the steps that do not increase, NaN steps included."""
    steps = np.diff(igbm.phi(np.linspace(-2.0, 2.0, 401)))
    return _worst([igbm.phi(0.0) - 1.0, np.count_nonzero(~(steps > 0))])


def phi_series(g):
    """Largest relative gap between phi and its degree-10 Taylor polynomial
    sum x^k / (k+1)!, by Horner's rule, on 2001 points of [-1e-3, 1e-3]."""
    xs = np.linspace(-1e-3, 1e-3, 2001)
    series = np.polyval(1.0 / np.cumprod(np.arange(1.0, 12.0))[::-1], xs)
    return _worst([(igbm.phi(xs) - series) / series])


def levy_algebra(g):
    """The shuffle, area and integration-by-parts identities of
    `levy.triple_integrals_from_whl` on 100 draws of W, H, L ~ N(0, 1) and
    h ~ U(0.05, 4), relative to max(1, hW^2), max(1, |L|) and max(1, h|W|)."""
    residuals = []
    for _ in range(100):
        w, hh, ll = g.standard_normal(3)
        h = float(g.uniform(0.05, 4.0))
        ti = levy.triple_integrals_from_whl(w, hh, ll, h)
        residuals += [
            (ti.i_wwt + ti.i_wtw + ti.i_tww - 0.5 * h * w * w) / max(1.0, h * w * w),
            (ti.i_wwt - 2 * ti.i_wtw + ti.i_tww - 6.0 * ll) / max(1.0, abs(ll)),
            (ti.i_wt + ti.i_tw - h * w) / max(1.0, h * abs(w)),
        ]
    return _worst(residuals)


def coarsen_associativity(g):
    """`coarsen_arrays` of four quarter intervals at once against coarsening
    the two halves first, on 100 draws."""
    w, h_area = g.standard_normal((100, 4, 2)).T * brownian.pair_scale(0.25)[:, None, None]
    direct = brownian.coarsen_arrays(w, h_area, [4, 0])
    paired = brownian.coarsen_arrays(*brownian.coarsen_arrays(w, h_area, [2, 0]), [2, 0])
    return _worst(a - b for a, b in zip(direct, paired))


def coarsen_halves(g):
    """A unit increment over the first half and none over the second has
    space-time area 1/4."""
    _, h_area = brownian.coarsen_arrays(np.array([1.0, 0.0]), np.zeros(2), [2, 0])
    return _worst([h_area - 0.25])


def schemes(g):
    """One sigma = 0 step of the log-ODE, parabola and linear schemes against
    the exact flow, and the constant Lie brackets -ab*sigma and ab*sigma^2 of
    the reference parameters at 20 points drawn from U(-2, 2)."""
    p = REFERENCE._replace(sigma=0.0, horizon=0.1)  # one step of h = 0.1
    flow = p.b + (p.y0 - p.b) * np.exp(-p.a * p.horizon)  # the sigma = 0 flow b + (y0 - b) e^(-ah)
    kinds = (SchemeKind.LOG_ODE, SchemeKind.PARABOLA_ODE, SchemeKind.PIECEWISE_LINEAR)
    residuals = [igbm.simulate(kind, p, [[0.3]], [[-0.1]]) - flow for kind in kinds]
    r = REFERENCE
    y = g.uniform(-2.0, 2.0, size=20)
    bracket = -r.a_strat * (r.sigma * y) - r.sigma * (r.a * r.b - r.a_strat * y)  # f0 = ab - a~y, f1 = sigma y
    return _worst(residuals + [bracket + r.a * r.b * r.sigma, -r.sigma * bracket - r.a * r.b * r.sigma**2])


# (name, invariant, bound): `polybrown check` passes a suite when worst <= bound.
SUITES = (
    ("orthonormality", orthonormality, 1e-10),
    ("evaluation-routes", evaluation_routes, 1e-10),
    ("quadrature", quadrature, 1e-14),
    ("eigen-ode", eigen_ode, 1e-8),
    ("phi", phi, 0.0),
    ("phi-series", phi_series, 1e-14),
    ("levy-algebra", levy_algebra, 1e-14),
    ("coarsen-associativity", coarsen_associativity, 1e-14),
    ("coarsen-halves", coarsen_halves, 1e-15),
    ("schemes", schemes, 1e-12),
)
