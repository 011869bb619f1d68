"""Command-line entry point.

Subcommands: basis, paths, igbm-paths, strong, weak, check.  Flag values
override an optional plain-text `key = value` configuration file; every run
echoes its effective configuration, the Python and NumPy versions and the
OpenBLAS thread count into a manifest next to the CSV outputs.  All randomness
flows from the single --seed flag.
"""

import argparse
import contextlib
import dataclasses
import errno
import itertools
import os
import pathlib
import sys
import tempfile

# before NumPy loads: polybrown calls no BLAS, so one OpenBLAS thread spares a core and keeps fork() safe.
# The manifest records the count OpenBLAS reads, which is not this default if NumPy has loaded already.
_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", None if "numpy" in sys.modules else "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, brownian, checks, harness, igbm, orthopoly  # noqa: E402
from .harness import _DOMAIN_IGBM, _DOMAIN_PATHS, _FLOAT, _fmt, _write_csv  # noqa: E402


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


def _path_count(text):
    value = _positive_int(text)
    if value > harness.MAX_PATHS:
        raise ValueError("too many paths: need paths <= 2^32")
    return value


def _level(text):
    value = _positive_int(text)
    if value >= harness.MAX_LEVEL:
        raise ValueError("must be below 2^16, the number of stream levels")
    return value


def _directory(text):
    if not text:
        raise ValueError("expected a directory name, got ''")
    return text


def _steps_list(text):
    return tuple(_level(part) for part in str(text).split(","))


def _schemes_list(text):
    return tuple(igbm.SchemeKind.from_name(part.strip()) for part in str(text).split(","))


# per-subcommand defaults (as strings; converted after merging)
_IGBM_DEFAULTS = {f.name: str(getattr(igbm.REFERENCE, f.name)) for f in dataclasses.fields(igbm.IgbmParams)}
_SCHEMES = ",".join(kind.value for kind in igbm.SchemeKind)
_BENCHMARK_DEFAULTS = {"seed": "0", "out": "out", "schemes": _SCHEMES, "workers": "1", **_IGBM_DEFAULTS}

_DEFAULTS = {
    "basis": {"out": "out", "max_k": "8", "grid": "201"},
    "paths": {"seed": "0", "out": "out", "degree": "4", "paths": "10", "grid": "201"},
    "igbm-paths": {"seed": "0", "out": "out", "scheme": "log-ode", "steps": "500", "paths": "10", **_IGBM_DEFAULTS},
    "strong": {"paths": "10000", "steps": "25,50,100,200,400", **_BENCHMARK_DEFAULTS},
    "weak": {"paths": "100000", "steps": "5,10,20,40,80,160", **_BENCHMARK_DEFAULTS},
    "check": {"seed": "0"},
}

# option -> (converter, help)
_OPTIONS = {
    "seed": (_u64, "master seed; all randomness derives from it"),
    "out": (_directory, "output directory for CSVs and the manifest"),
    "max_k": (_positive_int, "largest eigenfunction index to tabulate"),
    "grid": (_positive_int, "number of grid points on [0, 1]"),
    "degree": (_level, "polynomial path degree"),
    "paths": (_path_count, "number of sample paths"),
    "scheme": (igbm.SchemeKind.from_name, "scheme name for trajectory output"),
    "schemes": (_schemes_list, "comma-separated scheme names"),
    "steps": (_steps_list, "comma-separated step counts"),
    "workers": (_positive_int, "worker processes (outputs are invariant to this)"),
    "a": (float, "mean-reversion speed"),
    "b": (float, "mean-reversion level"),
    "sigma": (float, "volatility"),
    "y0": (float, "initial value"),
    "horizon": (float, "time horizon T"),
}


def _load_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    return values


def _effective_config(command, args):
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _load_config_file(config_path)
        unknown = sorted(set(file_values) - set(merged))
        if unknown:
            raise ValueError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        merged.update(file_values)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    typed = {}
    for key, raw in merged.items():
        try:
            typed[key] = _OPTIONS[key][0](raw)
        except ValueError as exc:
            raise ValueError(f"invalid value for {key}: {exc}") from None
    return merged, typed


@contextlib.contextmanager
def _output(strings, command):
    """Yield a fresh staging directory for the CSVs.  `main` enters it before
    the command works, in the deepest existing entry on the path of `--out`,
    so a file there is refused first.  Once the command returns, the manifest
    is written there too and every file is renamed into `--out`, manifest
    last; the staging directory is always removed.  A failed run leaves
    `--out` as it found it and makes no directory.  An OSError, here or in
    the command, is a usage error naming `--out`."""
    out = strings["out"]
    path = pathlib.Path(out).absolute()
    base = next(entry for entry in (path, *path.parents) if entry.exists())
    try:
        with tempfile.TemporaryDirectory(prefix=".polybrown-", dir=base, ignore_cleanup_errors=True) as staging:
            yield staging
            names = [*sorted(os.listdir(staging)), "manifest.txt"]
            lines = [f"artifact_version = {__version__}\n", f"python = {sys.version.split()[0]}\n"]
            lines += [f"numpy = {np.__version__}\n", f"openblas_num_threads = {_OPENBLAS_THREADS}\n"]
            lines += [f"{key} = {strings[key]}\n" for key in sorted(strings)]
            _write_csv(os.path.join(staging, "manifest.txt"), f"command = {command}", lines)
            for name in names:  # a directory in the way is refused before the first rename
                if os.path.isdir(dest := os.path.join(out, name)):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), staging, None, dest)
            os.makedirs(out, exist_ok=True)
            for name in names:
                os.replace(os.path.join(staging, name), os.path.join(out, name))
    except OSError as exc:
        raise ValueError(f"cannot write to output directory: {exc.filename2 or out}: {exc.strerror or exc}") from None


def _write_long(path, header, labels, rows, first_id=0):
    """Write the long table `id,label,value` of 1-D `rows`, one line per value
    and ids from `first_id`.  The shared `labels` fill one row template with a
    `%.17g` slot per value, so each row is one `%` call on its id's copy."""
    template = "".join(f"\0,{_fmt(label)},{_FLOAT}\n" for label in labels.tolist())
    lines = (template.replace("\0", str(i)) % tuple(row.tolist()) for i, row in enumerate(rows, first_id))
    _write_csv(path, header, lines)


def _igbm_params(cfg):
    return igbm.IgbmParams(**{key: cfg[key] for key in _IGBM_DEFAULTS})


# ---------------------------------------------------------------------------
# Subcommands


def cmd_basis(cfg, out):
    ts = np.linspace(0.0, 1.0, cfg["grid"])
    rows = itertools.islice(orthopoly.basis_e_rows(ts), cfg["max_k"])
    _write_long(os.path.join(out, "basis.csv"), "k,t,e_k(t)", ts, rows, first_id=1)


def _kl_block(seed, degree, paths):
    """Rows (w1, I_1, ..., I_{degree-1}) of the paths in the range `paths`,
    drawn as one interval with scale (1, sqrt(lambda_1), ...)."""
    scale = np.sqrt(np.concatenate(([1.0], orthopoly.eigenvalue(np.arange(1, degree)))))
    (draws,) = harness.path_increments(seed, _DOMAIN_PATHS, degree, paths, 1, scale)
    return draws[:, :, 0].T


def cmd_paths(cfg, out):
    table = np.empty((cfg["paths"], cfg["degree"]))  # the k = 0 column carries the increment
    ts = np.linspace(0.0, 1.0, cfg["grid"])

    def block_values(paths):  # draws the block's rows of the table, then evaluates its paths
        block = table[paths.start : paths.stop] = _kl_block(cfg["seed"], cfg["degree"], paths)
        return brownian.eval_polynomial_path(block[:, 0], block[:, 1:], ts)

    values = itertools.chain.from_iterable(harness._map_blocks(block_values, (), len(table)))
    _write_long(os.path.join(out, "paths.csv"), "path_id,t,kl_value", ts, values)
    _write_long(os.path.join(out, "path_coeffs.csv"), "path_id,k,I_k", np.arange(cfg["degree"]), table)


def _igbm_block(cfg, params, paths):
    """Trajectories (paths, steps + 1) of the paths in the range `paths`.  The
    one-chunk draw is unpacked, which ends it and frees its buffer early."""
    n_steps = cfg["steps"][0]
    scale = np.sqrt([params.horizon / n_steps, params.horizon / n_steps / 12.0])
    (draws,) = harness.path_increments(cfg["seed"], _DOMAIN_IGBM, n_steps, paths, n_steps, scale)
    return igbm.simulate(cfg["scheme"], params, *draws, record=True)


def cmd_igbm_paths(cfg, out):
    if len(cfg["steps"]) != 1:
        raise ValueError("igbm-paths expects a single --steps value")
    params = _igbm_params(cfg)
    rows = itertools.chain.from_iterable(harness._map_blocks(_igbm_block, (cfg, params), cfg["paths"]))
    ts = np.linspace(0.0, params.horizon, cfg["steps"][0] + 1)
    _write_long(os.path.join(out, "igbm_paths.csv"), "path_id,t,value", ts, rows)


def _run_benchmark(cfg, out, metric):
    config = harness.ExperimentConfig(
        params=_igbm_params(cfg),
        schemes=cfg["schemes"],
        step_counts=cfg["steps"],
        num_paths=cfg["paths"],
        seed=cfg["seed"],
    )
    rows, slopes = harness.run_experiment(config, metric, workers=cfg["workers"])
    harness.write_error_csv(rows, os.path.join(out, f"{metric}.csv"))
    harness.write_slopes_csv(slopes, os.path.join(out, "slopes.csv"))


def cmd_check(cfg):
    failed = False
    for name, invariant, bound in checks.SUITES:
        worst = invariant(np.random.default_rng(cfg["seed"]))
        ok = worst <= bound
        failed |= not ok
        print(f"{'ok' if ok else 'FAIL'} {name} {worst:.2e} {'<=' if ok else '>'} {bound:g}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing


_WRITERS = {
    "basis": cmd_basis,
    "paths": cmd_paths,
    "igbm-paths": cmd_igbm_paths,
    "strong": lambda cfg, out: _run_benchmark(cfg, out, "strong"),
    "weak": lambda cfg, out: _run_benchmark(cfg, out, "weak"),
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="polybrown", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"polybrown {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=f"run the {command} command")
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=_OPTIONS[key][1] + f" (default {defaults[key]})")
        if command != "check":
            p.add_argument("--config", default=None, help="plain-text key = value configuration file (flags override)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        strings, typed = _effective_config(args.command, args)
        if args.command == "check":
            return cmd_check(typed)
        with _output(strings, args.command) as out:
            _WRITERS[args.command](typed, out)
        return 0
    except (ValueError, MemoryError) as exc:
        print(f"polybrown: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
