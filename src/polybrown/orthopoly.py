"""Orthogonal-polynomial machinery: Legendre and (-1,-1)-Jacobi polynomials,
the orthonormal bridge eigenfunctions e_k built from them, and Gauss-Legendre
quadrature rules used throughout the package."""

import itertools

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "PolyBasis",
    "basis_e_deriv",
    "basis_e_eval",
    "basis_e_over_weight",
    "basis_e_rows",
    "eigenvalue",
    "gauss_legendre",
    "gauss_legendre_01",
    "jacobi_m1m1_coeffs",
    "jacobi_m1m1_eval_legendre",
    "jacobi_m1m1_eval_recurrence",
    "legendre_eval",
]

# Caps the monomial coefficient tables (`jacobi_m1m1_coeffs`, `PolyBasis`),
# which become ill-conditioned well before it, and the `gauss_legendre` node
# count.  The value routes (`basis_e_rows`) stay accurate far beyond it.
MAX_DEGREE = 64


def _legendre(x):
    """Yield Q_0(x), Q_1(x), ... by the Bonnet recurrence, the one source of
    every Legendre, Jacobi and e_k value in this module."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x
    yield prev
    for n in itertools.count(2):
        yield cur
        prev, cur = cur, ((2 * n - 1) * x * cur - (n - 1) * prev) / n


def _jacobi(x):
    """Yield P_2^(-1,-1)(x), P_3^(-1,-1)(x), ... as P_{n+1} = n/(4n+2) *
    (Q_{n+1} - Q_{n-1}), which is numerically stable at high degree and
    exactly zero at x = +-1."""
    q = _legendre(x)
    q_prev, q_n = next(q), next(q)
    for n, q_next in enumerate(q, start=1):
        yield n / (4.0 * n + 2.0) * (q_next - q_prev)
        q_prev, q_n = q_n, q_next


def legendre_eval(k, x):
    """Evaluate the Legendre polynomial Q_k on [-1, 1] by the Bonnet recurrence."""
    if k < 0:
        raise ValueError("degree out of range: k must be >= 0")
    return next(itertools.islice(_legendre(x), k, None))


def jacobi_m1m1_eval_legendre(k, x):
    """Evaluate P_k^(-1,-1)(x) as a rescaled difference of Legendre polynomials."""
    if k < 2:
        raise ValueError("degree out of range: k must be >= 2")
    return next(itertools.islice(_jacobi(x), k - 2, None))


def jacobi_m1m1_eval_recurrence(k, x):
    """Evaluate P_k^(-1,-1)(x) by the three-term recurrence in value space.

    n(n+2) P_{n+2} = (n+1)(2n+1) x P_{n+1} - n(n+1) P_n, seeded with the
    degree-2 and degree-3 base cases.
    """
    if k < 2:
        raise ValueError("degree out of range: k must be >= 2")
    x = np.asarray(x, dtype=float)
    p_lo = 0.25 * (x - 1.0) * (x + 1.0)
    if k == 2:
        return p_lo
    p_hi = 0.5 * x * (x - 1.0) * (x + 1.0)
    for n in range(2, k - 1):
        p_lo, p_hi = p_hi, ((n + 1) * (2 * n + 1) * x * p_hi - n * (n + 1) * p_lo) / (n * (n + 2))
    return p_hi


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
    """Variance of the k-th expansion coefficient, 1 / (k (k + 1)), for an
    index k >= 1 or an array of them."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("index out of range: k must be >= 1")
    return 1.0 / (k * (k + 1.0))


def _e_norm(k):
    # Normalizing constant sqrt(k (k+1) (2k+1)) / k.
    return np.sqrt(k * (k + 1.0) * (2.0 * k + 1.0)) / k


def basis_e_rows(t):
    """Yield e_1(t), e_2(t), ... in one pass of the recurrence, so the first
    n rows cost O(n * size(t)).

    e_k(t) = sqrt(k(k+1)(2k+1))/k * P_{k+1}^(-1,-1)(2t - 1), with positive
    leading coefficient; e_k(0) = e_k(1) = 0 exactly.
    """
    for k, p in enumerate(_jacobi(2.0 * t - 1.0), start=1):
        yield _e_norm(k) * p


def basis_e_eval(k, t):
    """Evaluate the orthonormal eigenfunction e_k at t in [0, 1]: row k of
    `basis_e_rows`."""
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    return next(itertools.islice(basis_e_rows(t), k - 1, None))


def basis_e_deriv(k, t):
    """Evaluate e_k'(t) = sqrt(k(k+1)(2k+1)) * Q_k(2t - 1)."""
    if k < 1:
        raise ValueError("index out of range: k must be >= 1")
    return k * _e_norm(k) * legendre_eval(k, 2.0 * t - 1.0)


def basis_e_over_weight(k, t):
    """Evaluate the degree k-1 polynomial e_k(t) / (t (1 - t)).

    Interior points divide the stable e_k values by t(1-t); at the roots the
    value is the derivative limit +-e_k'.
    """
    t = np.asarray(t, dtype=float)
    e_k = basis_e_eval(k, t)
    slope = k * _e_norm(k)  # e_k'(1); e_k'(0) = (-1)^k e_k'(1), as Q_k(+-1) = (+-1)^k exactly
    limits = np.where(t < 0.5, (-1) ** k * slope, -slope)
    return np.divide(e_k, t * (1.0 - t), out=limits, where=(t != 0.0) & (t != 1.0))


def gauss_legendre(n):
    """Gauss-Legendre rule with n nodes on [-1, 1], exact for polynomials of
    degree 2n - 1: returns (nodes, weights), nodes ascending.

    Nodes are found by Newton iteration on Q_n from Chebyshev-like initial
    guesses, to a 1e-15 update tolerance, then symmetrized about zero.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"unsupported node count: need 1 <= n <= {MAX_DEGREE}")

    def q_and_slope(x):  # Q_n(x) and Q_n'(x) = n (x Q_n - Q_{n-1}) / (x^2 - 1)
        q_prev, q = itertools.islice(_legendre(x), n - 1, n + 1)
        return q, n * (x * q - q_prev) / (x * x - 1.0)

    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (4.0 * i - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        q, dq = q_and_slope(x)
        dx = q / dq
        x -= dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry (middle node -> 0 for odd n)
    _, dq = q_and_slope(x)
    w = 2.0 / ((1.0 - x * x) * dq * dq)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return x[order], w[order]


def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = gauss_legendre(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


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
        return np.polynomial.polynomial.polyval(t, self.e_coeffs(k))
