"""Orthogonal-polynomial machinery: Legendre and (-1,-1)-Jacobi polynomials,
the orthonormal bridge eigenfunctions e_k built from them, and Gauss-Legendre
quadrature rules used throughout the package."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "PolyBasis",
    "QuadratureRule",
    "basis_e_deriv",
    "basis_e_eval",
    "basis_e_over_weight",
    "eigenvalue",
    "gauss_legendre",
    "gauss_legendre_01",
    "inner_product_mu",
    "jacobi_m1m1_coeffs",
    "jacobi_m1m1_eval_legendre",
    "jacobi_m1m1_eval_recurrence",
    "legendre_eval",
]

# Caps the monomial coefficient tables (`jacobi_m1m1_coeffs`, `PolyBasis`),
# which become ill-conditioned well before it, and the `gauss_legendre` node
# count.  The value routes (`basis_e_eval`) stay accurate far beyond it.
MAX_DEGREE = 64


def _as_array(x):
    return np.asarray(x, dtype=float)


def _match(x, out):
    """Return a scalar when the input was scalar, else the array."""
    return out if np.ndim(x) else float(out)


def legendre_eval(k, x):
    """Evaluate the Legendre polynomial Q_k on [-1, 1] by the Bonnet recurrence."""
    if k < 0:
        raise ValueError("degree out of range: k must be >= 0")
    xa = _as_array(x)
    return _match(x, _legendre_pair(k, xa)[0] if k else np.ones_like(xa))


def _legendre_pair(k, xa):
    """Return (Q_k, Q_{k-1}) evaluated at an array, k >= 1."""
    prev, cur = np.ones_like(xa), xa.copy()
    for n in range(2, k + 1):
        prev, cur = cur, ((2 * n - 1) * xa * cur - (n - 1) * prev) / n
    return cur, prev


def jacobi_m1m1_eval_legendre(k, x):
    """Evaluate P_k^(-1,-1)(x) as a rescaled difference of Legendre polynomials.

    Uses P_{n+1} = n/(4n+2) * (Q_{n+1} - Q_{n-1}) with n = k - 1, which is
    numerically stable at high degree and exactly zero at x = +-1.
    """
    if k < 2:
        raise ValueError("degree out of range: k must be >= 2")
    xa = _as_array(x)
    n = k - 1
    q_n, q_prev = _legendre_pair(n, xa)
    q_next = ((2 * n + 1) * xa * q_n - n * q_prev) / (n + 1)  # one more Bonnet step
    return _match(x, n / (4.0 * n + 2.0) * (q_next - q_prev))


def jacobi_m1m1_eval_recurrence(k, x):
    """Evaluate P_k^(-1,-1)(x) by the three-term recurrence in value space.

    n(n+2) P_{n+2} = (n+1)(2n+1) x P_{n+1} - n(n+1) P_n, seeded with the
    degree-2 and degree-3 base cases.
    """
    if k < 2:
        raise ValueError("degree out of range: k must be >= 2")
    xa = _as_array(x)
    p_lo = 0.25 * (xa - 1.0) * (xa + 1.0)
    if k == 2:
        return _match(x, p_lo)
    p_hi = 0.5 * xa * (xa - 1.0) * (xa + 1.0)
    for n in range(2, k - 1):
        p_lo, p_hi = p_hi, ((n + 1) * (2 * n + 1) * xa * p_hi - n * (n + 1) * p_lo) / (n * (n + 2))
    return _match(x, p_hi)


def jacobi_m1m1_coeffs(k):
    """Monomial coefficients (ascending) of P_k^(-1,-1) on [-1, 1].

    Built by the same three-term recurrence applied in coefficient space.
    Only trustworthy for moderate degree; see MAX_DEGREE note.
    """
    if k < 2:
        raise ValueError("degree out of range: k must be >= 2")
    if k > MAX_DEGREE:
        raise ValueError(f"degree out of range: k must be <= {MAX_DEGREE}")
    p_lo = np.array([-0.25, 0.0, 0.25])
    if k == 2:
        return p_lo
    p_hi = np.array([0.0, -0.5, 0.0, 0.5])
    for n in range(2, k - 1):
        x_p_hi = np.concatenate(([0.0], p_hi))
        padded = np.concatenate((p_lo, [0.0, 0.0]))
        p_lo, p_hi = p_hi, ((n + 1) * (2 * n + 1) * x_p_hi - n * (n + 1) * padded) / (n * (n + 2))
    return p_hi


def eigenvalue(k):
    """Variance of the k-th expansion coefficient: 1 / (k (k + 1))."""
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    return 1.0 / (k * (k + 1.0))


def _e_norm(k):
    # Normalizing constant sqrt(k (k+1) (2k+1)) / k.
    return np.sqrt(k * (k + 1.0) * (2.0 * k + 1.0)) / k


def basis_e_eval(k, t):
    """Evaluate the orthonormal eigenfunction e_k at t in [0, 1].

    e_k(t) = sqrt(k(k+1)(2k+1))/k * P_{k+1}^(-1,-1)(2t - 1), with positive
    leading coefficient.  Evaluated via the Legendre-difference route, so
    e_k(0) = e_k(1) = 0 exactly.
    """
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    ta = _as_array(t)
    return _match(t, _e_norm(k) * jacobi_m1m1_eval_legendre(k + 1, 2.0 * ta - 1.0))


def basis_e_deriv(k, t):
    """Evaluate e_k'(t) = sqrt(k(k+1)(2k+1)) * Q_k(2t - 1)."""
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    ta = _as_array(t)
    return _match(t, k * _e_norm(k) * legendre_eval(k, 2.0 * ta - 1.0))


def basis_e_over_weight(k, t):
    """Evaluate the degree k-1 polynomial e_k(t) / (t (1 - t)).

    Interior points divide the stable e_k values by t(1-t); at the roots the
    value is the derivative limit +-e_k'.
    """
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    ta = np.atleast_1d(_as_array(t)).copy()
    out = np.empty_like(ta)
    at0 = ta == 0.0
    at1 = ta == 1.0
    interior = ~(at0 | at1)
    if interior.any():
        ti = ta[interior]
        out[interior] = basis_e_eval(k, ti) / (ti * (1.0 - ti))
    if at0.any():
        out[at0] = basis_e_deriv(k, 0.0)
    if at1.any():
        out[at1] = -basis_e_deriv(k, 1.0)
    return _match(t, out if np.ndim(t) else out[0])


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre(n):
    """Gauss-Legendre rule with n nodes, exact for polynomials of degree 2n - 1.

    Nodes are found by Newton iteration on Q_n from Chebyshev-like initial
    guesses, to a 1e-15 update tolerance, then symmetrized about zero.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"unsupported node count: need 1 <= n <= {MAX_DEGREE}")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4.0 * i - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        q, q_prev = _legendre_pair(n, x)
        dq = n * (x * q - q_prev) / (x * x - 1.0)
        dx = q / dq
        x -= dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry (middle node -> 0 for odd n)
    q, q_prev = _legendre_pair(n, x)
    dq = n * (x * q - q_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dq * dq)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return QuadratureRule(nodes=x[order], weights=w[order])


def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    rule = gauss_legendre(n)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


def inner_product_mu(i, j):
    """The weighted inner product  integral_0^1 e_i(t) e_j(t) / (t(1-t)) dt.

    The integrand is a polynomial of degree i + j (the weight cancels one of
    e_j's roots at each end), so a ceil((i+j+1)/2)-node Gauss-Legendre rule
    integrates it exactly.  Values come from the stable evaluators; the nodes
    are interior so the division never touches the singularity.
    """
    if i < 1 or j < 1:
        raise ValueError("index out of range: i, j must be >= 1")
    t, w = gauss_legendre_01((i + j + 1 + 1) // 2)
    return float(np.sum(w * basis_e_eval(i, t) * basis_e_over_weight(j, t)))


def _shift_to_unit(coeffs_x):
    """Rebase ascending coefficients from x in [-1,1] to t in [0,1] via x = 2t - 1."""
    poly = np.polynomial.polynomial.Polynomial(coeffs_x)
    return poly(np.polynomial.polynomial.Polynomial([-1.0, 2.0])).coef


def _divide_unit_roots(coeffs_t):
    """Divide the roots t and (1 - t) out of an ascending coefficient vector."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(coeffs_t))))
    q, r = np.polynomial.polynomial.polydiv(coeffs_t, [0.0, 1.0])
    if np.max(np.abs(r)) > tol:
        raise ValueError("polynomial has no root at 0")
    q, r = np.polynomial.polynomial.polydiv(q, [1.0, -1.0])
    if np.max(np.abs(r)) > tol:
        raise ValueError("polynomial has no root at 1")
    return q


class PolyBasis:
    """Precomputed coefficient tables for P_k^(-1,-1), e_k and e_k/(t(1-t)).

    Immutable after construction; safe for concurrent reads.  Coefficients are
    ascending monomial vectors: `jacobi_coeffs[k]` lives on [-1, 1], the e
    tables on [0, 1].  Stable evaluation (basis_e_eval) should be preferred
    above degree ~20; the tables exist for coefficient-level operations.
    """

    def __init__(self, max_degree=20):
        if not 2 <= max_degree <= MAX_DEGREE:
            raise ValueError(f"degree out of range: need 2 <= max_degree <= {MAX_DEGREE}")
        self.max_degree = max_degree
        self._jacobi = {k: jacobi_m1m1_coeffs(k) for k in range(2, max_degree + 1)}
        self._e = {}
        self._e_over_weight = {}
        for k in range(1, max_degree):
            coeffs = _e_norm(k) * _shift_to_unit(self._jacobi[k + 1])
            self._e[k] = coeffs
            self._e_over_weight[k] = _divide_unit_roots(coeffs)

    def jacobi_coeffs(self, k):
        if k not in self._jacobi:
            raise ValueError(f"degree out of range: need 2 <= k <= {self.max_degree}")
        return self._jacobi[k]

    def e_coeffs(self, k):
        if k not in self._e:
            raise ValueError(f"index out of range: need 1 <= k <= {self.max_degree - 1}")
        return self._e[k]

    def e_over_weight_coeffs(self, k):
        if k not in self._e_over_weight:
            raise ValueError(f"index out of range: need 1 <= k <= {self.max_degree - 1}")
        return self._e_over_weight[k]

    def e_eval(self, k, t):
        """Horner evaluation of e_k from its [0, 1] coefficient table."""
        return np.polynomial.polynomial.polyval(_as_array(t), self.e_coeffs(k))
