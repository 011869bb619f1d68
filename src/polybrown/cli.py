"""Command-line entry point.

Subcommands: basis, paths, igbm-paths, strong, weak, check.  Flag values
override an optional plain-text `key = value` configuration file; every run
echoes its effective configuration, the Python and NumPy versions, the SIMD
targets NumPy dispatches to and the OpenBLAS thread count into a manifest next
to the CSV outputs.  All randomness flows from the single --seed flag.  This
front end parses, answers --help and --version and refuses bad input without
NumPy; only then does `main` import the back end, `harness`, to run the command.
"""

import argparse
import contextlib
import errno
import os
import pathlib
import sys
import tempfile

from . import REFERENCE, ExperimentConfig, IgbmParams, SchemeKind, __version__
from . import path_count, positive_int, stream_level, u64

# before NumPy loads: polybrown calls no BLAS, so one OpenBLAS thread spares a core and keeps fork() safe.
# The manifest records the count OpenBLAS reads, which is not this default if NumPy has loaded already.
_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", None if "numpy" in sys.modules else "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _directory(text):
    if not text:
        raise ValueError("expected a directory name, got ''")
    return text


def _comma_list(convert):
    return lambda text: tuple(convert(part.strip()) for part in text.split(","))


# per-subcommand defaults (as strings; converted after merging)
_IGBM_DEFAULTS = {name: str(value) for name, value in zip(IgbmParams._fields, REFERENCE)}
_SCHEMES = ",".join(kind.value for kind in SchemeKind)
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
    "seed": (u64, "master seed; all randomness derives from it"),
    "out": (_directory, "output directory for CSVs and the manifest"),
    "max_k": (positive_int, "largest eigenfunction index to tabulate"),
    "grid": (positive_int, "number of grid points on [0, 1]"),
    "degree": (stream_level, "polynomial path degree"),
    "paths": (path_count, "number of sample paths"),
    "scheme": (SchemeKind.from_name, "scheme name for trajectory output"),
    "schemes": (_comma_list(SchemeKind.from_name), "comma-separated scheme names"),
    "steps": (_comma_list(stream_level), "comma-separated step counts"),
    "workers": (positive_int, "worker processes, at most one per CPU (outputs are invariant to this)"),
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
    if _IGBM_DEFAULTS.keys() <= typed.keys():  # one IgbmParams checks the model before NumPy loads
        typed["params"] = IgbmParams(**{key: typed.pop(key) for key in _IGBM_DEFAULTS})
    if "schemes" in typed:  # strong and weak: one ExperimentConfig checks the study
        typed["config"] = ExperimentConfig(*(typed[key] for key in ("params", "schemes", "steps", "paths", "seed")))
    if command == "igbm-paths" and len(typed["steps"]) != 1:
        raise ValueError("igbm-paths expects a single --steps value")
    return merged, typed


@contextlib.contextmanager
def _output(strings, command):
    """Yield a fresh staging directory for the CSVs.  `main` enters it before
    the back end loads, in the deepest existing entry on the path of `--out`,
    so a file there is refused first, without NumPy.  Once the command
    returns, the manifest is written there too, with the NumPy build the
    outputs depend on, and every file is renamed into `--out`, manifest
    last; the staging directory is always removed.  A failed run leaves
    `--out` as it found it and makes no directory.  An OSError, here or in
    the command, is a usage error naming `--out`."""
    out = strings["out"]
    path = pathlib.Path(out).absolute()
    base = next(entry for entry in (path, *path.parents) if entry.exists())
    try:
        with tempfile.TemporaryDirectory(prefix=".polybrown-", dir=base, ignore_cleanup_errors=True) as staging:
            yield staging
            from . import harness  # loaded by the command already
            names = [*sorted(os.listdir(staging)), "manifest.txt"]
            lines = [f"artifact_version = {__version__}\n", f"python = {sys.version.split()[0]}\n"]
            lines += [*harness._numpy_lines(), f"openblas_num_threads = {_OPENBLAS_THREADS}\n"]
            lines += [f"{key} = {strings[key]}\n" for key in sorted(strings)]
            harness._write_csv(os.path.join(staging, "manifest.txt"), f"command = {command}", lines)
            for name in names:  # a directory in the way is refused before the first rename
                if os.path.isdir(dest := os.path.join(out, name)):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), staging, None, dest)
            os.makedirs(out, exist_ok=True)
            for name in names:
                os.replace(os.path.join(staging, name), os.path.join(out, name))
    except OSError as exc:
        raise ValueError(f"cannot write to output directory: {exc.filename2 or out}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# Argument parsing


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
    args = _build_parser().parse_args(argv)
    try:
        strings, typed = _effective_config(args.command, args)
        if args.command == "check":
            from . import harness  # the back end, and NumPy with it, loads only for accepted input
            return harness.cmd_check(typed)
        with _output(strings, args.command) as out:
            from . import harness  # and once `--out` is claimed
            harness._COMMANDS[args.command](typed, out)
        return 0
    except (ValueError, MemoryError) as exc:
        print(f"polybrown: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
