"""Discretised references the tests hold `polybrown` to.

The derivative of the basis and its quotient by the bridge weight, dense
Brownian paths, trapezoidal extraction of expansion coefficients, the
weighted inner product of the basis one pair at a time, the Brownian parabola
and arch, the prefix-sum coarsening of (W, H) pairs, direct discretisations
of the iterated integrals, a harness block simulated on whole arrays, the
Milstein, Euler and parabola steps in their one-step formulas' own order of
operations, and the lines of a long CSV table formatted one value at a time.
Nothing in `polybrown` runs them; they check the closed forms and the exact
algebra it does run.
A path is the pair of plain arrays `(grid, values)`, with values along the
last axis (leading axes index paths); an interval is its increment `w` and
rescaled space-time area `h_area`.
"""

import numpy as np

from polybrown import brownian, igbm, levy, orthopoly


def sample_brownian_dense(n_steps, rng, size=()):
    """Standard Brownian motion on the uniform grid {i/n_steps}: (grid,
    values), values of shape size + (n_steps + 1,)."""
    incs = rng.normal(0.0, np.sqrt(1.0 / n_steps), size=tuple(size) + (n_steps,))
    values = np.concatenate((np.zeros(incs.shape[:-1] + (1,)), np.cumsum(incs, axis=-1)), axis=-1)
    return np.linspace(0.0, 1.0, n_steps + 1), values


def basis_e_deriv(k, t):
    """e_k'(t) = sqrt(k(k+1)(2k+1)) * Q_k(2t - 1)."""
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    return k * orthopoly._e_norm(k) * orthopoly.legendre_eval(k, 2.0 * t - 1.0)


def basis_e_over_weight(k, t):
    """The degree k-1 polynomial e_k(t) / (t (1 - t)).

    Interior points divide the stable e_k values by t(1-t); at the roots the
    value is the derivative limit +-e_k'.
    """
    t = np.asarray(t, dtype=float)
    e_k = orthopoly.basis_e_eval(k, t)
    slope = k * orthopoly._e_norm(k)  # e_k'(1); e_k'(0) = (-1)^k e_k'(1), as Q_k(+-1) = (+-1)^k exactly
    limits = np.where(t < 0.5, (-1) ** k * slope, -slope)
    return np.divide(e_k, t * (1.0 - t), out=limits, where=(t != 0.0) & (t != 1.0))


def extract_Ik(grid, values, k):
    """Trapezoidal estimate of the k-th expansion coefficient of dense paths.

    The path is reduced to its bridge first (subtracting t times the total
    increment), so motions and bridges are both accepted.  The polynomial
    factor e_k/(t(1-t)) is evaluated in de-singularized form.
    """
    if grid.size < 17:
        raise ValueError("grid too coarse: need at least 16 steps")
    bridge = values - values[..., :1] - grid * (values[..., -1:] - values[..., :1])
    return np.trapezoid(bridge * basis_e_over_weight(k, grid), grid, axis=-1)


def inner_product_mu(i, j):
    """The weighted inner product  integral_0^1 e_i(t) e_j(t) / (t(1-t)) dt.

    The integrand is a polynomial of degree i + j (the weight cancels one of
    e_j's roots at each end), so a ceil((i+j+1)/2)-node Gauss-Legendre rule
    integrates it exactly.  Values come from the stable evaluators; the nodes
    are interior so the division never touches the singularity.
    """
    if i < 1 or j < 1:
        raise ValueError("index out of range: i, j must be >= 1")
    t, w = orthopoly.gauss_legendre_01((i + j + 1 + 1) // 2)
    return float(np.sum(w * orthopoly.basis_e_eval(i, t) * basis_e_over_weight(j, t)))


def parabola_eval(start, w, h_area, u):
    """The Brownian parabola of an interval at fractions u in [0, 1]:
    start + u w + 6 u(1-u) h_area, which matches the interval's increment and
    time integral."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("u out of range [0, 1]")
    return start + u * w + 6.0 * u * (1.0 - u) * h_area


def milstein_step(y, w, h_area, h, p):
    """One Milstein step in Taylor form, y + a~(b~ - y) h + sigma y W +
    sigma^2 y W^2 / 2 clamped at zero, with the Stratonovich level
    b~ = 2ab / (2a + sigma^2) (b when a = sigma = 0).  Returns the step and
    its terms y, abh, a~yh, sigma y W and sigma^2 y W^2 / 2."""
    denom = 2.0 * p.a + p.sigma**2
    b_strat = p.b if denom == 0.0 else 2.0 * p.a * p.b / denom
    value = np.maximum(y + p.a_strat * (b_strat - y) * h + p.sigma * y * w + 0.5 * p.sigma * p.sigma * y * w * w, 0.0)
    return value, (y, p.a * p.b * h, p.a_strat * y * h, p.sigma * y * w, 0.5 * p.sigma * p.sigma * y * w * w)


def euler_step(y, w, h_area, h, p):
    """One Euler-Maruyama step in Ito form, y + a (b - y) h + sigma y W
    clamped at zero.  Returns the step and its terms y, abh, ayh and sigma y W."""
    value = np.maximum(y + p.a * (p.b - y) * h + p.sigma * y * w, 0.0)
    return value, (y, p.a * p.b * h, p.a * y * h, p.sigma * y * w)


def parabola_step(y, w, h_area, h, p):
    """One parabola-driven step as growth (y + abh acc), with acc the 3-point
    Gauss-Legendre integral of exp(a~uh - sigma parabola(u)) over u in [0, 1].
    Returns the step and its terms growth y and growth abh acc."""
    acc = 0.0
    for u, v in zip(*orthopoly.gauss_legendre_01(3)):
        acc = acc + v * np.exp(p.a_strat * u * h - p.sigma * parabola_eval(0.0, w, h_area, u))
    growth = np.exp(-p.a_strat * h + p.sigma * w)
    c = p.a * p.b * h * acc
    return growth * (y + c), (growth * y, growth * c)


def arch_covariance(s, t):
    """Covariance of the standard Brownian arch: min(s,t) - st - 3st(1-s)(1-t)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(s > 1.0) or np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("s, t out of domain [0, 1]")
    return np.minimum(s, t) - s * t - 3.0 * s * t * (1.0 - s) * (1.0 - t)


def arch_cov_factor(grid):
    """Cholesky factor F, F F^T = the arch covariance on a strictly
    increasing grid inside (0, 1); an arch is F times standard normals."""
    return np.linalg.cholesky(arch_covariance(grid[:, None], grid[None, :]))


def coarsen(w, h_area):
    """(w, h_area) of one interval from the 1-d arrays of its n equal pieces,
    in prefix-sum form: with prefix_i the increment accumulated before piece i,

        w = sum_i w_i
        h_area = (1/n) sum_i (prefix_i + h_area_i + w_i/2) - w/2

    which is the space-time area definition applied to the concatenation.
    `polybrown.brownian.coarsen_arrays` computes the same in weighted form.
    """
    w, h_area = np.asarray(w, dtype=float), np.asarray(h_area, dtype=float)
    prefix = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    w_total = np.sum(w)
    return w_total, np.sum(prefix + h_area + 0.5 * w) / w.size - 0.5 * w_total


def discrete_integrals(grid, values):
    """(W, H, L) and the five iterated integrals (a `levy.TripleIntegrals`)
    of dense paths, by direct discretization of the definitions.

    Reductions run over the last axis of `values`.  Stratonovich dW factors
    use midpoint values, dt factors use the trapezoidal rule.
    """
    t, v = grid, values
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
    return w, h_area, l_area, levy.TripleIntegrals(i_wwt=i_wwt, i_wtw=i_wtw, i_tww=i_tww, i_wt=i_wt, i_tw=i_tw)


def whole_block(params, schemes, step_counts, w, h_area):
    """The harness's block on whole time-major (fine steps, paths) arrays W
    and H: the log-ODE reference over every fine step, then each level
    coarsened from the next finer one over the whole horizon.  Returns the
    reference terminals and {(step count, scheme): terminals}."""
    fine = igbm.simulate(igbm.SchemeKind.LOG_ODE, params, w, h_area)
    coarse = {}
    for n_steps in reversed(step_counts):
        w, h_area = brownian.coarsen_arrays(w, h_area, [len(w) // n_steps, 0])
        coarse.update({(n_steps, scheme): igbm.simulate(scheme, params, w, h_area) for scheme in schemes})
    return fine, coarse


def long_table_lines(labels, rows, first_id=0):
    """The `id,label,value` lines of 1-D `rows` over the shared `labels`, one
    value at a time: 17 significant digits, ids from `first_id`."""
    return "".join(
        f"{i},{'%.17g' % label},{'%.17g' % v}\n"
        for i, row in enumerate(rows, first_id)
        for label, v in zip(labels.tolist(), row.tolist())
    )
