"""Command-line entry point.

Subcommands: basis, paths, igbm-paths, strong, weak, check.  Flag values
override an optional plain-text `key = value` configuration file; every run
echoes its effective configuration into a manifest next to the CSV outputs.
All randomness flows from the single --seed flag.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, brownian, harness, igbm, levy, orthopoly
from .harness import _fmt, _write_csv

_DOMAIN_PATHS = 2
_DOMAIN_IGBM = 3


def _u64(text):
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _steps_list(text):
    steps = tuple(_positive_int(part) for part in str(text).split(","))
    return steps


def _schemes_list(text):
    return tuple(igbm.SchemeKind.from_name(part.strip()) for part in str(text).split(","))


def _float(text):
    return float(text)


def _str(text):
    return str(text)


# per-subcommand defaults (as strings; converted after merging)
_IGBM_DEFAULTS = {f.name: str(getattr(igbm.REFERENCE, f.name)) for f in dataclasses.fields(igbm.IgbmParams)}

_DEFAULTS = {
    "basis": {"seed": "0", "out": "out", "max_k": "8", "grid": "201"},
    "paths": {"seed": "0", "out": "out", "degree": "4", "paths": "10", "grid": "201"},
    "igbm-paths": {"seed": "0", "out": "out", "scheme": "log-ode", "steps": "500", "paths": "10", **_IGBM_DEFAULTS},
    "strong": {
        "seed": "0",
        "out": "out",
        "paths": "10000",
        "steps": "25,50,100,200,400",
        "schemes": "log-ode,parabola,linear,milstein,euler",
        "workers": "1",
        **_IGBM_DEFAULTS,
    },
    "weak": {
        "seed": "0",
        "out": "out",
        "paths": "100000",
        "steps": "5,10,20,40,80,160",
        "schemes": "log-ode,parabola,linear,milstein,euler",
        "workers": "1",
        **_IGBM_DEFAULTS,
    },
    "check": {"seed": "0"},
}

_CONVERTERS = {
    "seed": _u64,
    "out": _str,
    "max_k": _positive_int,
    "grid": _positive_int,
    "degree": _positive_int,
    "paths": _positive_int,
    "scheme": igbm.SchemeKind.from_name,
    "schemes": _schemes_list,
    "steps": _steps_list,
    "workers": _positive_int,
    "a": _float,
    "b": _float,
    "sigma": _float,
    "y0": _float,
    "horizon": _float,
}


class UsageError(Exception):
    pass


def _load_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def _effective_config(command, args):
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _load_config_file(config_path)
        unknown = sorted(set(file_values) - set(merged))
        if unknown:
            raise UsageError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        merged.update(file_values)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    typed = {}
    for key, raw in merged.items():
        try:
            typed[key] = _CONVERTERS[key](raw)
        except ValueError as exc:
            raise UsageError(f"invalid value for {key}: {exc}") from None
    return merged, typed


def _prepare_out(strings, command):
    out = strings["out"]
    try:
        os.makedirs(out, exist_ok=True)
        manifest = os.path.join(out, "manifest.txt")
        lines = [f"command = {command}", f"artifact_version = {__version__}"]
        lines += [f"{key} = {strings[key]}" for key in sorted(strings)]
        with open(manifest, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write to output directory: {exc}") from None
    return out


def _igbm_params(cfg):
    return igbm.IgbmParams(**{key: cfg[key] for key in _IGBM_DEFAULTS})


# ---------------------------------------------------------------------------
# Subcommands


def cmd_basis(strings, cfg):
    out = _prepare_out(strings, "basis")
    ts = np.linspace(0.0, 1.0, cfg["grid"])
    table = [orthopoly.basis_e_eval(k, ts) for k in range(1, cfg["max_k"] + 1)]
    rows = ((str(k), _fmt(t), _fmt(v)) for k, vals in enumerate(table, start=1) for t, v in zip(ts, vals))
    _write_csv(os.path.join(out, "basis.csv"), "k,t,e_k(t)", rows)
    return 0


def cmd_paths(strings, cfg):
    degree = cfg["degree"]
    polys = [
        brownian.sample_kl_coefficients(degree, harness.path_generator(cfg["seed"], _DOMAIN_PATHS, degree, path_id))
        for path_id in range(cfg["paths"])
    ]
    out = _prepare_out(strings, "paths")
    batch = brownian.BrownianPolynomial(w1=np.array([p.w1 for p in polys]), coeffs=np.stack([p.coeffs for p in polys]))
    ts = np.linspace(0.0, 1.0, cfg["grid"])
    values = brownian.eval_polynomial_path(batch, ts)
    rows = ((str(i), _fmt(t), _fmt(v)) for i, row in enumerate(values) for t, v in zip(ts, row))
    _write_csv(os.path.join(out, "paths.csv"), "path_id,t,kl_value", rows)
    table = np.column_stack((batch.w1, batch.coeffs))  # the k = 0 column carries the increment
    rows = ((str(i), str(k), _fmt(ik)) for i, row in enumerate(table) for k, ik in enumerate(row))
    _write_csv(os.path.join(out, "path_coeffs.csv"), "path_id,k,I_k", rows)
    return 0


def cmd_igbm_paths(strings, cfg):
    if len(cfg["steps"]) != 1:
        raise UsageError("igbm-paths expects a single --steps value")
    n_steps = cfg["steps"][0]
    params = _igbm_params(cfg)
    w, h_area = harness.path_increments(
        cfg["seed"], _DOMAIN_IGBM, n_steps, range(cfg["paths"]), n_steps, params.horizon / n_steps
    )
    traj = igbm.simulate(cfg["scheme"], params, w, h_area, record=True)
    out = _prepare_out(strings, "igbm-paths")
    ts = np.linspace(0.0, params.horizon, n_steps + 1)
    rows = ((str(i), _fmt(t), _fmt(v)) for i, row in enumerate(traj) for t, v in zip(ts, row))
    _write_csv(os.path.join(out, "igbm_paths.csv"), "path_id,t,value", rows)
    return 0


def _run_benchmark(strings, cfg, metric):
    config = harness.ExperimentConfig(
        params=_igbm_params(cfg),
        schemes=cfg["schemes"],
        step_counts=cfg["steps"],
        num_paths=cfg["paths"],
        seed=cfg["seed"],
    )
    out = _prepare_out(strings, metric)
    report = harness.run_experiment(config, metrics=(metric,), workers=cfg["workers"])
    harness.write_error_csv(report.rows(metric), os.path.join(out, f"{metric}.csv"))
    harness.write_slopes_csv(report.slopes, os.path.join(out, "slopes.csv"))
    return 0


def cmd_strong(strings, cfg):
    return _run_benchmark(strings, cfg, "strong")


def cmd_weak(strings, cfg):
    return _run_benchmark(strings, cfg, "weak")


# ---------------------------------------------------------------------------
# check: fast invariant suites


def _check_orthonormality():
    for i in range(1, 21):
        for j in range(1, 21):
            target = 1.0 if i == j else 0.0
            if abs(orthopoly.inner_product_mu(i, j) - target) >= 1e-10:
                return f"inner product ({i},{j}) off target"
    return None


def _check_evaluation_routes():
    xs = np.linspace(-1.0, 1.0, 200)
    for k in range(2, 51):
        a = orthopoly.jacobi_m1m1_eval_recurrence(k, xs)
        b = orthopoly.jacobi_m1m1_eval_legendre(k, xs)
        denom = np.maximum(np.abs(a), np.abs(b))
        mask = denom > 0
        if np.max(np.abs(a - b)[mask] / denom[mask]) >= 1e-10:
            return f"evaluation routes disagree at k={k}"
    return None


def _check_quadrature():
    for n in (3, 8, 21):
        rule = orthopoly.gauss_legendre(n)
        if abs(float(np.sum(rule.weights)) - 2.0) > 1e-14:
            return f"weights at n={n} do not sum to 2"
        for m in range(2 * n):
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            if abs(float(np.sum(rule.weights * rule.nodes**m)) - exact) > 5e-14:
                return f"rule n={n} inexact at degree {m}"
    return None


def _check_eigen_ode():
    ts = np.linspace(0.0, 1.0, 101)
    xs = 2.0 * ts - 1.0
    for k in range(1, 21):
        norm = np.sqrt(k * (k + 1.0) * (2.0 * k + 1.0))
        weighted_second = -0.5 * k * norm * (xs * orthopoly.legendre_eval(k, xs) - orthopoly.legendre_eval(k - 1, xs))
        residual = orthopoly.eigenvalue(k) * weighted_second + orthopoly.basis_e_eval(k, ts)
        if np.max(np.abs(residual)) >= 1e-8:
            return f"eigen-ODE residual too large at k={k}"
    return None


def _check_phi():
    if igbm.phi(0.0) != 1.0:
        return "phi(0) != 1"
    xs = np.linspace(-2.0, 2.0, 401)
    if not np.all(np.diff(igbm.phi(xs)) > 0):
        return "phi not monotone"
    for x in (9.9e-6, 1.01e-5, -9.9e-6, -1.01e-5):
        if abs(igbm.phi(x) - np.expm1(x) / x) > 1e-13:
            return "phi branches disagree"
    return None


def _check_levy_algebra(seed):
    g = np.random.default_rng(seed)
    for _ in range(100):
        w, hh, ll = g.standard_normal(3)
        h = float(g.uniform(0.05, 4.0))
        ti = levy.triple_integrals_from_whl(w, hh, ll, h)
        if abs(ti.i_wwt + ti.i_wtw + ti.i_tww - 0.5 * h * w * w) > 1e-13 * max(1.0, abs(w) ** 2 * h):
            return "shuffle identity violated"
        if abs(ti.i_wwt - 2 * ti.i_wtw + ti.i_tww - 6.0 * ll) > 1e-13 * max(1.0, abs(ll)):
            return "area identity violated"
        if abs(ti.i_wt + ti.i_tw - h * w) > 1e-13 * max(1.0, h * abs(w)):
            return "integration-by-parts identity violated"
    return None


def _check_coarsen(seed):
    g = np.random.default_rng(seed)
    quarters = [brownian.sample_pair(0.25, g) for _ in range(4)]
    direct = brownian.coarsen(quarters)
    paired = brownian.coarsen([brownian.coarsen(quarters[:2]), brownian.coarsen(quarters[2:])])
    if abs(direct.h_area - paired.h_area) > 1e-14 or abs(direct.w - paired.w) > 1e-14:
        return "coarsen not associative"
    halves = [brownian.IncrementPair(1.0, 0.0, 0.5), brownian.IncrementPair(0.0, 0.0, 0.5)]
    if abs(brownian.coarsen(halves).h_area - 0.25) > 1e-15:
        return "two-halves oracle violated"
    return None


def _check_schemes(seed):
    p = igbm.IgbmParams(a=0.1, b=0.04, sigma=0.0, y0=0.06, horizon=0.1)  # one step of h = 0.1
    analytic = 0.04 + 0.02 * np.exp(-0.01)
    for kind in (igbm.SchemeKind.LOG_ODE, igbm.SchemeKind.PARABOLA_ODE, igbm.SchemeKind.PIECEWISE_LINEAR):
        if abs(igbm.simulate(kind, p, [[0.3]], [[-0.1]])[0] - analytic) > 1e-10:
            return f"{kind.value} misses the deterministic flow"
    bench = igbm.REFERENCE
    g = np.random.default_rng(seed)
    for y in g.uniform(-2.0, 2.0, size=20):
        bracket = -bench.a_strat * (bench.sigma * y) - bench.sigma * (bench.a_strat * (bench.b_strat - y))
        if abs(bracket + bench.a * bench.b * bench.sigma) > 1e-12:
            return "first Lie bracket is not -ab*sigma"
        if abs(-bench.sigma * bracket - bench.a * bench.b * bench.sigma**2) > 1e-12:
            return "iterated Lie bracket is not ab*sigma^2"
    return None


def cmd_check(strings, cfg):
    seed = cfg["seed"]
    suites = [
        ("orthonormality", _check_orthonormality),
        ("evaluation-routes", _check_evaluation_routes),
        ("quadrature", _check_quadrature),
        ("eigen-ode", _check_eigen_ode),
        ("phi", _check_phi),
        ("levy-algebra", lambda: _check_levy_algebra(seed)),
        ("coarsen", lambda: _check_coarsen(seed)),
        ("schemes", lambda: _check_schemes(seed)),
    ]
    failures = 0
    for name, suite in suites:
        message = suite()
        if message is None:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {message}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing


_HANDLERS = {
    "basis": cmd_basis,
    "paths": cmd_paths,
    "igbm-paths": cmd_igbm_paths,
    "strong": cmd_strong,
    "weak": cmd_weak,
    "check": cmd_check,
}

_HELP = {
    "seed": "master seed; all randomness derives from it",
    "out": "output directory for CSVs and the manifest",
    "config": "plain-text key = value configuration file (flags override)",
    "max_k": "largest eigenfunction index to tabulate",
    "grid": "number of grid points on [0, 1]",
    "degree": "polynomial path degree",
    "paths": "number of sample paths",
    "scheme": "scheme name for trajectory output",
    "schemes": "comma-separated scheme names",
    "steps": "comma-separated step counts",
    "workers": "worker processes (outputs are invariant to this)",
    "a": "mean-reversion speed",
    "b": "mean-reversion level",
    "sigma": "volatility",
    "y0": "initial value",
    "horizon": "time horizon T",
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="polybrown", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"polybrown {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=f"run the {command} command")
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=_HELP[key] + f" (default {defaults[key]})")
        if command != "check":
            p.add_argument("--config", default=None, help=_HELP["config"])
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        strings, typed = _effective_config(args.command, args)
        return _HANDLERS[args.command](strings, typed)
    except (UsageError, ValueError) as exc:
        print(f"polybrown: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
