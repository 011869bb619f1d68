"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  The heavy Monte Carlo fixtures (criteria 7-9) are shared
and desk-scale, and run on 2 worker processes, which changes no value
(criterion 10): the whole suite runs in under a minute.
"""

import numpy as np
import pytest

import oracles
from polybrown import brownian as bm
from polybrown import checks, harness, levy
from polybrown import orthopoly as op
from polybrown.igbm import REFERENCE, SchemeKind

SEED = 20_240_601


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. orthonormality


def test_criterion_1_orthonormality():
    worst = checks.orthonormality(np.random.default_rng(SEED))
    _report(1, worst < 1e-10, f"max |<e_i,e_j> - delta_ij| = {worst:.2e} (i,j <= 20)")


# ---------------------------------------------------------------------------
# 2. evaluation cross-check


def test_criterion_2_evaluation_routes():
    worst = checks.evaluation_routes(np.random.default_rng(SEED))
    _report(2, worst < 1e-10, f"max relative route disagreement = {worst:.2e} (k <= 50)")


# ---------------------------------------------------------------------------
# 3. coefficient law


def test_criterion_3_coefficient_law():
    n = 10**6
    w1, coeffs = bm.sample_kl_batch(6, n, np.random.default_rng(SEED))
    ok = True
    details = []
    for k in range(1, 6):
        lam = op.eigenvalue(k)
        se = lam * np.sqrt(2.0 / (n - 1))
        gap = abs(np.var(coeffs[:, k - 1]) - lam)
        ok &= gap < 3 * se
        details.append(f"Var(I_{k}) gap {gap / se:.1f} se")
    cols = np.column_stack((w1, coeffs))
    corr = np.corrcoef(cols, rowvar=False)
    off = np.abs(corr[np.triu_indices_from(corr, k=1)])
    ok &= bool(np.max(off) < 0.005)
    details.append(f"max |corr| = {np.max(off):.4f}")
    _report(3, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. KL truncation norm


def test_criterion_4_truncation_norm():
    g = np.random.default_rng(SEED + 1)
    m = 1000
    n_paths = 10_000
    block = 500
    t = np.linspace(0.0, 1.0, m + 1)
    interior = t[1:-1]
    inv_weight = 1.0 / (interior * (1.0 - interior))
    ok = True
    details = []
    for big_n in (2, 4, 8):
        e_vals = np.stack([op.basis_e_eval(k, interior) for k in range(1, big_n + 1)])
        total = 0.0
        for _ in range(n_paths // block):
            _, w_path = oracles.sample_brownian_dense(m, g, (block,))
            i_hat = np.stack([oracles.extract_Ik(t, w_path, k) for k in range(1, big_n + 1)], axis=-1)
            bridge = w_path - np.outer(w_path[:, -1], t)
            resid = bridge[:, 1:-1] - i_hat @ e_vals
            f = resid * resid * inv_weight
            est = np.trapezoid(f, interior, axis=1) + (f[:, 0] + f[:, -1]) / m
            total += float(np.sum(est))
        mc = total / n_paths
        target = 1.0 / (big_n + 1)
        rel = abs(mc - target) / target
        ok &= rel < 0.05
        details.append(f"N={big_n}: {mc:.4f} vs {target:.4f} ({rel * 100:.1f}%)")
    _report(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. conditional-moment oracle


def test_criterion_5_conditional_moments():
    m = 1000
    n_draws = 100_000
    block = 5000
    grid = np.arange(1, m) / m
    full_t = np.concatenate(([0.0], grid, [1.0]))
    factor = oracles.arch_cov_factor(grid)
    g = np.random.default_rng(SEED + 2)
    ok = True
    details = []
    for w, hh in ((0.7, -0.1), (-1.2, 0.3)):
        parab = oracles.parabola_eval(0.0, w, hh, grid)
        sq = np.empty(n_draws)
        for lo in range(0, n_draws, block):
            draws = parab + (factor @ g.standard_normal((grid.size, block))).T
            full = np.concatenate((np.zeros((block, 1)), draws, np.full((block, 1), w)), axis=1)
            sq[lo : lo + block] = np.trapezoid(full * full, full_t, axis=1)
        # mean of the squared-path integral vs the closed form
        se_sq = np.std(sq, ddof=1) / np.sqrt(n_draws)
        gap_sq = abs(np.mean(sq) - levy.cond_mean_sq_integral(w, hh, 1.0))
        ok &= gap_sq < 3 * se_sq + 2e-4  # 3 MC se plus the O(m^-1) grid bias
        # the same draws give L through the integral identities
        l_draws = 0.5 * (sq - w * w / 3.0 - w * hh)
        se_l = np.std(l_draws, ddof=1) / np.sqrt(n_draws)
        gap_l = abs(np.mean(l_draws) - levy.cond_mean_L(w, hh, 1.0))
        ok &= gap_l < 3 * se_l + 1e-4
        var_rel = abs(np.var(l_draws, ddof=1) - levy.cond_var_L(w, hh, 1.0)) / levy.cond_var_L(w, hh, 1.0)
        ok &= var_rel < 0.05
        details.append(f"(W,H)=({w},{hh}): mean {gap_sq / se_sq:.1f} se, L {gap_l / se_l:.1f} se, var {var_rel * 100:.1f}%")
    _report(5, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Levy-area algebra


def test_criterion_6_levy_algebra():
    g = np.random.default_rng(SEED + 3)
    worst_path = 0.0
    for _ in range(100):
        w, hh, ll, direct = oracles.discrete_integrals(*oracles.sample_brownian_dense(100_000, g))
        pred = levy.triple_integrals_from_whl(w, hh, ll, 1.0)
        for name in ("i_wwt", "i_wtw", "i_tww", "i_wt", "i_tw"):
            a, b = getattr(direct, name), getattr(pred, name)
            worst_path = max(worst_path, abs(a - b) / max(abs(a), 0.05))
    worst_exact = checks.levy_algebra(g)  # the next 100 draws of g, each identity on its own scale
    ok = worst_path < 0.02 and worst_exact < 1e-14
    _report(6, ok, f"pathwise rel gap {worst_path:.4f} (100 paths, m=1e5); exact residue {worst_exact:.1e}")


# ---------------------------------------------------------------------------
# 7-8. strong convergence (shared run)


@pytest.fixture(scope="module")
def strong_report():
    cfg = harness.ExperimentConfig(REFERENCE, tuple(SchemeKind), (25, 50, 100, 200, 400), 10_000, SEED)
    return harness.run_experiment(cfg, "strong", workers=2)


STRONG_BANDS = {
    SchemeKind.LOG_ODE: (1.5, 0.15),
    SchemeKind.PARABOLA_ODE: (1.0, 0.15),
    SchemeKind.PIECEWISE_LINEAR: (1.0, 0.15),
    SchemeKind.MILSTEIN: (1.0, 0.2),
    SchemeKind.EULER_MARUYAMA: (0.5, 0.15),
}


def test_criterion_7_strong_slopes(strong_report):
    # The slope bands are asserted as stated; fit standard errors are
    # reported alongside (the clamped schemes fit noisily at desk scale).
    ok = True
    details = []
    _, slopes = strong_report
    for row in slopes:
        center, width = STRONG_BANDS[row.scheme]
        ok &= abs(row.slope - center) < width
        details.append(f"{row.scheme.value} {row.slope:.3f}+-{row.stderr:.3f} (want {center}+-{width})")
    _report(7, ok, "; ".join(details))


def test_criterion_8_error_ordering(strong_report):
    rows, _ = strong_report
    at_200 = {r.scheme: r.error for r in rows if r.n_steps == 200}
    order = [
        SchemeKind.LOG_ODE,
        SchemeKind.PARABOLA_ODE,
        SchemeKind.PIECEWISE_LINEAR,
        SchemeKind.MILSTEIN,
        SchemeKind.EULER_MARUYAMA,
    ]
    errs = [at_200[s] for s in order]
    ordered = all(a < b for a, b in zip(errs, errs[1:]))
    ratio = at_200[SchemeKind.PIECEWISE_LINEAR] / at_200[SchemeKind.PARABOLA_ODE]
    ok = ordered and 4.0 <= ratio <= 12.0
    _report(8, ok, f"S_200 = {['%.2e' % e for e in errs]}, linear/parabola = {ratio:.2f}")


# ---------------------------------------------------------------------------
# 9. weak convergence


@pytest.fixture(scope="module")
def weak_report():
    cfg = harness.ExperimentConfig(REFERENCE, tuple(SchemeKind), (5, 10, 20, 40, 80, 160), 100_000, SEED)
    return harness.run_experiment(cfg, "weak", workers=2)


# (band, fit window): each scheme's slope is fitted on the sub-grid where the
# 1e5-path estimator resolves its rate.  The high-order scheme's smallest-h
# errors sit at the Monte Carlo noise floor, and the clamped Milstein scheme
# carries a transient at h >= 0.5, so those points are excluded from the
# respective fits (they are still reported in weak.csv).
WEAK_CHECKS = {
    SchemeKind.LOG_ODE: ((2.0, 0.3), (5, 10, 20, 40)),
    SchemeKind.PARABOLA_ODE: ((1.0, 0.3), (5, 10, 20, 40, 80, 160)),
    SchemeKind.PIECEWISE_LINEAR: ((1.0, 0.3), (5, 10, 20, 40, 80, 160)),
    SchemeKind.MILSTEIN: ((1.0, 0.3), (20, 40, 80, 160)),
}


def test_criterion_9_weak_slopes(weak_report):
    rows, _ = weak_report
    ok = True
    details = []
    for scheme in (s for s in SchemeKind if s in WEAK_CHECKS):
        (center, width), window = WEAK_CHECKS[scheme]
        slope, stderr = harness.fit_slope([(r.h, r.error) for r in rows if r.scheme is scheme and r.n_steps in window])
        ok &= abs(slope - center) < width
        details.append(f"{scheme.value} {slope:.3f}+-{stderr:.3f} on N{list(window)} (want {center}+-{width})")
    euler, _ = harness.fit_slope([(r.h, r.error) for r in rows if r.scheme is SchemeKind.EULER_MARUYAMA])
    details.append(f"euler {euler:.3f} (reported)")
    _report(9, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(tmp_path):
    cfg = harness.ExperimentConfig(REFERENCE, tuple(SchemeKind), (25, 50), 612, SEED)

    def emit(name, workers):
        written = b""
        for metric in ("strong", "weak"):
            rows, _ = harness.run_experiment(cfg, metric, workers=workers)
            harness.write_error_csv(rows, tmp_path / f"{metric}_{name}.csv")
            written += (tmp_path / f"{metric}_{name}.csv").read_bytes()
        return written

    first = emit("a", 1)
    rerun = emit("b", 1)
    split = emit("c", 8)
    ok = first == rerun and first == split
    _report(10, ok, f"rerun identical: {first == rerun}; workers 1 vs 8 identical: {first == split}")
