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
import dataclasses
import errno
import os
import pathlib
import sys
import tempfile

from . import MAX_LEVEL, MAX_PATHS, REFERENCE, IgbmParams, SchemeKind, __version__

# before NumPy loads: polybrown calls no BLAS, so one OpenBLAS thread spares a core and keeps fork() safe.
# The manifest records the count OpenBLAS reads, which is not this default if NumPy has loaded already.
_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", None if "numpy" in sys.modules else "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
    if value > MAX_PATHS:
        raise ValueError("too many paths: need paths <= 2^32")
    return value


def _level(text):
    value = _positive_int(text)
    if value >= MAX_LEVEL:
        raise ValueError("must be below 2^16, the number of stream levels")
    return value


def _directory(text):
    if not text:
        raise ValueError("expected a directory name, got ''")
    return text


def _steps_list(text):
    return tuple(_level(part) for part in str(text).split(","))


def _schemes_list(text):
    return tuple(SchemeKind.from_name(part.strip()) for part in str(text).split(","))


# per-subcommand defaults (as strings; converted after merging)
_IGBM_DEFAULTS = {f.name: str(getattr(REFERENCE, f.name)) for f in dataclasses.fields(IgbmParams)}
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
    "seed": (_u64, "master seed; all randomness derives from it"),
    "out": (_directory, "output directory for CSVs and the manifest"),
    "max_k": (_positive_int, "largest eigenfunction index to tabulate"),
    "grid": (_positive_int, "number of grid points on [0, 1]"),
    "degree": (_level, "polynomial path degree"),
    "paths": (_path_count, "number of sample paths"),
    "scheme": (SchemeKind.from_name, "scheme name for trajectory output"),
    "schemes": (_schemes_list, "comma-separated scheme names"),
    "steps": (_steps_list, "comma-separated step counts"),
    "workers": (_positive_int, "worker processes, at most one per CPU (outputs are invariant to this)"),
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
    return merged, typed


@contextlib.contextmanager
def _output(strings, command, harness):
    """Yield a fresh staging directory for the CSVs.  `main` enters it before
    the command works, in the deepest existing entry on the path of `--out`,
    so a file there is refused first.  Once the command returns, the loaded
    back end `harness` writes the manifest there too, with the NumPy build the
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
        from . import harness  # the back end, and NumPy with it, loads only for a valid configuration
        if args.command == "check":
            return harness.cmd_check(typed)
        with _output(strings, args.command, harness) as out:
            harness._COMMANDS[args.command](typed, out)
        return 0
    except (ValueError, MemoryError) as exc:
        print(f"polybrown: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
