"""Tests for the command-line interface."""

import contextlib
import errno
import functools
import hashlib
import importlib
import io
import json
import math
import multiprocessing
import os
import pkgutil
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.introspect import opt_func_info

import oracles
import polybrown
from polybrown import checks, cli, harness, igbm, orthopoly


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# basis / paths / igbm-paths


def test_basis_csv_matches_library(tmp_path):
    out = tmp_path / "o"
    assert run(["basis", "--max-k", "2", "--grid", "3", "--out", str(out)]) == 0
    lines = (out / "basis.csv").read_text().splitlines()
    assert lines[0] == "k,t,e_k(t)"
    assert len(lines) == 1 + 2 * 3
    k, t, val = lines[2].split(",")
    assert (k, t) == ("1", "0.5")
    assert float(val) == orthopoly.basis_e_eval(1, 0.5)
    manifest = (out / "manifest.txt").read_text()
    assert "command = basis" in manifest
    assert "artifact_version" in manifest
    assert "seed" not in manifest  # the table is deterministic
    threads = cli._OPENBLAS_THREADS  # its value is tested in fresh processes below
    targets = (f"{name}:{opt_func_info(func_name=name)[name]['dd']['current']}" for name in ("exp", "expm1", "log"))
    dispatch = " ".join(targets)
    versions = f"python = {sys.version.split()[0]}\nnumpy = {np.__version__}\nnumpy_dispatch = {dispatch}\n"
    versions += f"openblas_num_threads = {threads}\n"
    assert f"artifact_version = {polybrown.__version__}\n{versions}" in manifest
    with pytest.raises(SystemExit):
        run(["basis", "--seed", "5", "--out", str(out)])


def test_paths_csv_and_sidecar(tmp_path):
    out = tmp_path / "o"
    assert run(["paths", "--degree", "3", "--paths", "2", "--grid", "9", "--seed", "5", "--out", str(out)]) == 0
    values = (out / "paths.csv").read_text().splitlines()
    coeffs = (out / "path_coeffs.csv").read_text().splitlines()
    assert values[0] == "path_id,t,kl_value"
    assert len(values) == 1 + 2 * 9
    assert coeffs[0] == "path_id,k,I_k"
    assert len(coeffs) == 1 + 2 * 3  # w1 row plus I_1, I_2 per path
    # paths start at zero and end at the recorded increment
    first_rows = [r.split(",") for r in values[1 : 1 + 9]]
    assert float(first_rows[0][2]) == 0.0
    w1 = float(coeffs[1].split(",")[2])
    assert float(first_rows[-1][2]) == pytest.approx(w1, abs=1e-14)


def test_igbm_paths_csv(tmp_path):
    out = tmp_path / "o"
    assert run(["igbm-paths", "--scheme", "log-ode", "--steps", "20", "--paths", "3", "--out", str(out)]) == 0
    lines = (out / "igbm_paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,t,value"
    assert len(lines) == 1 + 3 * 21
    assert lines[1].split(",")[2] == "0.059999999999999998"  # y0
    vals = np.array([float(r.split(",")[2]) for r in lines[1:]])
    assert np.all(vals >= 0.0)


def test_igbm_paths_rejects_step_lists(tmp_path):
    assert run(["igbm-paths", "--steps", "10,20", "--out", str(tmp_path / "o")]) == 2


_EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
_CSV_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def _long_tables(draw):
    """(labels, rows): float labels, or integer ones as `path_coeffs.csv`
    uses, over a (rows, labels) float table."""
    width = draw(st.integers(0, 5))
    labels = draw(st.one_of(st.just(np.arange(width)), hnp.arrays(float, width, elements=_CSV_FLOATS)))
    return labels, draw(hnp.arrays(float, (draw(st.integers(0, 4)), width), elements=_CSV_FLOATS))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_long_tables(), st.sampled_from([0, 1]))
def test_long_table_writes_the_per_value_lines(tmp_path_factory, table, first_id):
    labels, rows = table
    path = tmp_path_factory.mktemp("long") / "table.csv"
    harness._write_long(path, "id,label,value", labels, (row for row in rows), first_id)
    assert path.read_text() == "id,label,value\n" + oracles.long_table_lines(labels, rows, first_id)


# ---------------------------------------------------------------------------
# strong / weak benchmarks (smoke scale)


def test_strong_smoke_and_determinism(tmp_path):
    args = ["strong", "--paths", "200", "--steps", "10,20,40", "--schemes", "log-ode,euler", "--seed", "42"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "strong.csv").read_bytes() == (out2 / "strong.csv").read_bytes()
    assert (out1 / "slopes.csv").read_bytes() == (out2 / "slopes.csv").read_bytes()
    lines = (out1 / "strong.csv").read_text().splitlines()
    assert lines[0] == "scheme,N,h,error,std_err"
    assert len(lines) == 1 + 2 * 3
    slopes = (out1 / "slopes.csv").read_text().splitlines()
    assert slopes[0] == "scheme,metric,slope,slope_stderr"
    assert all(r.split(",")[1] == "strong" for r in slopes[1:])


def test_workers_do_not_change_output(tmp_path):
    base = ["strong", "--paths", "600", "--steps", "10,20,40", "--schemes", "milstein", "--seed", "7"]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert (out1 / "strong.csv").read_bytes() == (out2 / "strong.csv").read_bytes()


def test_weak_smoke(tmp_path):
    out = tmp_path / "o"
    assert run(["weak", "--paths", "200", "--steps", "5,10,20", "--schemes", "linear", "--out", str(out)]) == 0
    lines = (out / "weak.csv").read_text().splitlines()
    assert lines[0] == "scheme,N,h,error,std_err"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# configuration handling


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# benchmark config\npaths = 200\nsteps = 10,20\nschemes = euler\nseed = 9\n")
    out = tmp_path / "o"
    assert run(["strong", "--config", str(cfg), "--steps", "10,20,40", "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "paths = 200" in manifest  # from file
    assert "steps = 10,20,40" in manifest  # flag overrides file
    assert "seed = 9" in manifest
    lines = (out / "strong.csv").read_text().splitlines()
    assert len(lines) == 4


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pathz = 200\n")
    assert run(["strong", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_missing_file(tmp_path):
    assert run(["strong", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_invalid_flags_give_usage_errors(tmp_path, capsys):
    positive = "expected a positive integer, got '0'"
    seed = "invalid value for seed: seed must fit in an unsigned 64-bit integer"
    heun = "invalid value for scheme: unknown scheme 'heun' (choose from: log-ode, parabola, linear, milstein, euler)"
    for argv, message in [
        (["strong", "--steps", "0"], f"invalid value for steps: {positive}"),
        (["strong", "--paths", "0"], f"invalid value for paths: {positive}"),
        (["paths", "--degree", "0"], f"invalid value for degree: {positive}"),
        (["strong", "--paths", "50"], "too few paths: need paths >= 100"),
        (["igbm-paths", "--scheme", "heun"], heun),
        (["strong", "--seed", "-1"], seed),
        (["strong", "--seed", str(1 << 64)], seed),
    ]:
        assert run([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"polybrown: error: {message}\n", argv
    # the run's input is checked before `--out` is claimed
    assert run(["strong", "--steps", "10,15,30", "--out", "/dev/null/o"]) == 2
    assert capsys.readouterr().err == "polybrown: error: each step count must divide the next: 10,15,30\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["strong", "weak", "igbm-paths"])
@pytest.mark.parametrize("flag", ["--a", "--b", "--sigma", "--y0", "--horizon"])
def test_non_finite_parameters_refused_before_output(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    argv = [command, flag, "nan", "--paths", "100", "--steps", "5" if command == "igbm-paths" else "5,10,20"]
    assert run(argv + ["--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()  # neither the manifest nor a CSV


@pytest.mark.parametrize(
    "argv",
    [
        ["strong", "--sigma", "100", "--paths", "100", "--steps", "5,10,20"],
        ["igbm-paths", "--scheme", "parabola", "--sigma", "100", "--steps", "5", "--paths", "3"],
    ],
)
def test_non_finite_results_refused_without_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "polybrown: error: the parabola scheme gave non-finite values\n"
    assert list(tmp_path.iterdir()) == []  # no NaN table, not even a manifest, and no staging directory


def test_non_finite_errors_refused_without_output(tmp_path, capsys):
    # Euler's terminals stay finite, near 6e152, while the reference stays
    # near b, so the squared gaps overflow even in the reference's unit; with
    # two step counts no slope fit refuses the row either
    out = tmp_path / "o"
    argv = ["strong", "--a", "3e154", "--schemes", "euler", "--paths", "100", "--steps", "5,10"]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "polybrown: error: the strong error of euler at N=10 is not finite: inf\n"
    assert list(tmp_path.iterdir()) == []


def test_steps_through_minus_inf_refused_without_output(tmp_path, capsys):
    # Euler's steps overflow to -inf, which its clamp at zero keeps
    argv = ["strong", "--a", "1e200", "--schemes", "euler", "--paths", "100", "--steps", "5,10"]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "polybrown: error: the euler scheme gave non-finite values\n"
    assert list(tmp_path.iterdir()) == []


EXTREMES = (0.0, 1e-320, 6e-200, 3.0, 1e154, 3e154, 1e200, 1e308)
SIGNED = st.sampled_from(EXTREMES + tuple(-value for value in EXTREMES[1:]))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.sampled_from(["strong", "weak"]),
    st.sampled_from(EXTREMES),
    SIGNED,
    st.sampled_from(EXTREMES),
    SIGNED,
    st.sampled_from(EXTREMES[1:]),
)
def test_extreme_parameters_give_finite_tables_or_one_error_line(metric, a, b, sigma, y0, horizon):
    # every legal model at subnormal to near-overflow magnitudes: a run
    # either writes finite tables or refuses with one line and no output,
    # and NumPy warns of nothing; the `=` form passes negative numbers
    values = {"a": a, "b": b, "sigma": sigma, "y0": y0, "horizon": horizon}
    argv = [metric, "--paths", "100", "--steps", "2,4,8", *(f"--{key}={value!r}" for key, value in values.items())]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, stderr = Path(tmp) / "o", io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run([*argv, "--out", str(out)])
        assert [w for w in caught if not str(w.message).startswith(f"no {metric} slope")] == []
        if code == 2:
            assert re.fullmatch(r"polybrown: error: [^\n]*\n", stderr.getvalue())
            assert list(Path(tmp).iterdir()) == []
        else:
            assert code == 0 and stderr.getvalue() == ""
            for name, first in ((f"{metric}.csv", 1), ("slopes.csv", 2)):  # the columns after the names
                rows = [line.split(",")[first:] for line in (out / name).read_text().splitlines()[1:]]
                assert all(math.isfinite(float(value)) for row in rows for value in row), (name, rows)


def test_failing_worker_ends_the_pool_and_leaves_out_as_found(tmp_path, capsys):
    # three blocks on two workers: the pool lives in the generator the run
    # walks, and a worker's error closes it with no process left behind
    out = tmp_path / "o"
    argv = ["strong", "--paths", "1100", "--steps", "5,10,20", "--workers", "2", "--out", str(out)]
    assert run(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert run([*argv, "--sigma", "100"]) == 2
    assert capsys.readouterr().err == "polybrown: error: the parabola scheme gave non-finite values\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o"]  # no staging directory left
    assert multiprocessing.active_children() == []


def test_failed_run_removes_every_directory_it_made_for_out(tmp_path, capsys, monkeypatch):
    # `--out fx/a/b` in an empty directory needs three directories; a refused
    # run makes none of them, and keeps a parent that was already there
    monkeypatch.chdir(tmp_path)
    argv = ["igbm-paths", "--scheme", "parabola", "--sigma", "100", "--steps", "5", "--paths", "3", "--out"]
    assert run([*argv, "fx/a/b"]) == 2
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "kept").mkdir()
    assert run([*argv, "kept/a/b"]) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []
    assert capsys.readouterr().err.count("the parabola scheme gave non-finite values") == 2


TOO_MANY = str(harness.MAX_PATHS + 1)
TOO_HIGH = str(harness.MAX_LEVEL)


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            pytest.param([command, "--paths", TOO_MANY], "paths: too many paths: need paths <= 2^32", id=command)
            for command in ("paths", "igbm-paths", "strong", "weak")
        ),
        pytest.param(["igbm-paths", "--steps", TOO_HIGH], "steps: must be below 2^16", id="igbm-paths-steps"),
        pytest.param(["paths", "--degree", TOO_HIGH], "degree: must be below 2^16", id="paths-degree"),
    ],
)
def test_path_counts_beyond_the_stream_keys_refused_before_output(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert f"polybrown: error: invalid value for {message}" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_refused_before_output(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 15.6 TiB for an array with shape (4294967296, 500) and data type float64"

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "path_increments", out_of_memory)
    out = tmp_path / "o"
    for command in ("igbm-paths", "paths"):
        assert run([command, "--paths", str(harness.MAX_PATHS), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"polybrown: error: {message}\n"
        assert list(tmp_path.iterdir()) == []  # neither --out nor a staging directory


def test_paths_beyond_the_coefficient_tables(tmp_path):
    # up to the largest degree the CLI accepts: one recurrence pass over the
    # basis keeps degree 65535 at about a second
    for degree, paths in ((200, 3), (harness.MAX_LEVEL - 1, 1)):
        out = tmp_path / str(degree)
        assert run(["paths", "--degree", str(degree), "--paths", str(paths), "--grid", "11", "--out", str(out)]) == 0
        coeffs = (out / "path_coeffs.csv").read_text().splitlines()
        assert len(coeffs) == 1 + paths * degree
        values = [line.split(",") for line in (out / "paths.csv").read_text().splitlines()[1:]]
        assert float(values[0][2]) == 0.0
        assert values[10][2] == coeffs[1].split(",")[2]  # e_k(1) = 0 exactly, so W(1) is the increment


# SHA-256 of CSVs written at the commit before the basis moved to one
# recurrence pass, of log-ODE and linear trajectories written at the commit
# before every scheme became one affine step y <- e y + c, of three-block
# `paths` CSVs written at the commit before `paths` dropped its whole-run
# coefficient table, and of 700-step trajectories (three time chunks) written
# at the commit before `igbm-paths` streamed its draws: rewriting an evaluation
# route, a step or a walk over the blocks or through time must not change a
# byte of them.  The trajectories depend on the SIMD target NumPy dispatches
# float64 `exp` to, so the table is keyed by it (NumPy 2.4.6; X86_V3 recorded
# under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
_TARGET = opt_func_info(func_name="exp")["exp"]["dd"]["current"]
_SAME_ON_BOTH_TARGETS = {
    ("basis",): {"basis.csv": "35e8a071ee8cf031c65b86728166c7df907db733eb55e89275c01b1ea5558e19"},
    ("paths", "--degree", "20", "--paths", "3", "--grid", "11", "--seed", "1"): {
        "paths.csv": "486df5083adf2300e6c5a29a4f863a224af3698d1c68faafb5f9503dc82598c3",
        "path_coeffs.csv": "fc86dec532137dd874a37aadac3a36fdeae59331aebdc129d67f4af75fc6524a",
    },
    ("paths", "--degree", "7", "--paths", "1100", "--grid", "11", "--seed", "2"): {
        "paths.csv": "019b22d9a5014a1916b044ff9120709a60fb51dc849c4bc20eb8f84d105629bf",
        "path_coeffs.csv": "17a0616ab409b1c584ced9890db0ffeb00b1e075125e6147eb6479c0fa271206",
    },
}
_TRAJECTORIES = (
    ("igbm-paths", "--scheme", "log-ode", "--steps", "37", "--paths", "13", "--seed", "4"),
    ("igbm-paths", "--scheme", "linear", "--steps", "37", "--paths", "13", "--seed", "4"),
    ("igbm-paths", "--scheme", "log-ode", "--steps", "700", "--paths", "13", "--seed", "4"),
    ("igbm-paths", "--scheme", "parabola", "--steps", "700", "--paths", "13", "--seed", "4"),
)
_TRAJECTORY_DIGESTS = {  # target -> the igbm_paths.csv digest of each of _TRAJECTORIES
    "X86_V4": (
        "d0ab66ebf19ac3e019c80bbe85163d9186c2c235c3f20d030fa68525a3ef9dcc",
        "3b4fa9ac3e12941d21e3b3f9f55714498320cb5e1f05481516a722e3ac7cece8",
        "2868c69e14dd37464e4d8b5e642a2981050704d96948fba8cc6c3db7e051b1ad",
        "8d14f3b234a5a9c26f0cd9fc468d1290cb102f4e77e510cddb6f0be2049871e1",
    ),
    "X86_V3": (
        "df879ded52e87ab4e7771880eee9b43911a43c7f6d88c833ad0bbc679c831e90",
        "76facfc02533f7fca5f4a7b6a58a91e1495d79e021e933a0cddeee1d053f12c5",
        "3ff960068d4a5cf0abf1bfb73de41dd607ac34392c0128aad5780302b00ac53e",
        "0f14d88c552c6cee8788168ed8e60f48cbef3053e2074434373da891c7fef401",
    ),
}
_DIGESTS = {
    target: {**_SAME_ON_BOTH_TARGETS, **{argv: {"igbm_paths.csv": d} for argv, d in zip(_TRAJECTORIES, digests)}}
    for target, digests in _TRAJECTORY_DIGESTS.items()
}


@pytest.mark.parametrize(
    "argv",
    [*_SAME_ON_BOTH_TARGETS, *_TRAJECTORIES],
    ids=[
        "basis",
        "paths",
        "paths-three-blocks",
        "igbm-paths-log-ode",
        "igbm-paths-linear",
        "igbm-paths-log-ode-three-chunks",
        "igbm-paths-parabola-three-chunks",
    ],
)
def test_basis_and_paths_keep_their_bytes(tmp_path, argv):
    assert _TARGET in _DIGESTS, f"no bytes recorded for NumPy's {_TARGET} dispatch target"
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _DIGESTS[_TARGET][argv]}
    assert digests == _DIGESTS[_TARGET][argv], f"bytes differ from those recorded for NumPy's {_TARGET} dispatch target"


@pytest.mark.parametrize(
    "argv, csv",
    [(["basis"], "basis.csv"), (["strong", "--paths", "100", "--steps", "5,10,20"], "strong.csv")],
    ids=["basis", "strong"],
)
def test_unwritable_csv_is_a_usage_error(tmp_path, capsys, argv, csv):
    out = tmp_path / "o"
    (out / csv).mkdir(parents=True)
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"polybrown: error: cannot write to output directory: {out / csv}: Is a directory"]


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran")


@pytest.mark.parametrize("out", ["afile", "afile/o"])
@pytest.mark.parametrize("command", ["basis", "paths", "igbm-paths", "strong", "weak"])
def test_file_on_the_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    # main claims --out before the command starts, so no command draws,
    # simulates or writes when a file stands on the path of --out
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    for name in ("path_increments", "run_experiment"):
        monkeypatch.setattr(harness, name, _no_work)
    monkeypatch.setattr(harness, "_write_long", _no_work)
    assert run([command, "--out", out]) == 2
    assert capsys.readouterr().err == f"polybrown: error: cannot write to output directory: {out}: Not a directory\n"
    assert os.listdir() == ["afile"]


def test_unusable_out_is_named_in_the_usage_error(tmp_path, capsys, monkeypatch):
    # the error names the --out given, never the staging directory, and a
    # refused run leaves none behind
    monkeypatch.chdir(tmp_path)

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(tmp_path / ".polybrown-0eblensp"))

    monkeypatch.setattr(tempfile, "mkdtemp", read_only)
    assert run(["basis", "--out", "o"]) == 2
    assert capsys.readouterr().err == "polybrown: error: cannot write to output directory: o: Read-only file system\n"
    assert os.listdir() == []


def test_directory_in_the_way_leaves_the_earlier_run_as_found(tmp_path, capsys):
    # every destination is checked before the first rename, so a directory
    # named like one output file keeps the other files of the earlier run
    out = tmp_path / "o"
    argv = ["strong", "--paths", "100", "--steps", "5,10,20", "--out", str(out)]
    assert run([*argv, "--seed", "1"]) == 0
    (out / "strong.csv").unlink()
    (out / "strong.csv").mkdir()
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert run([*argv, "--seed", "2"]) == 2
    message = f"polybrown: error: cannot write to output directory: {out / 'strong.csv'}: Is a directory\n"
    assert capsys.readouterr().err == message
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o"]  # no staging directory left


@pytest.mark.parametrize("command", ["basis", "paths", "igbm-paths", "strong", "weak"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_out_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, command, source):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "path_increments", _no_work)
    monkeypatch.setattr(harness, "_write_long", _no_work)
    Path("empty.cfg").write_text("out =\n")
    assert run([command, *(["--out", ""] if source == "flag" else ["--config", "empty.cfg"])]) == 2
    assert capsys.readouterr().err == "polybrown: error: invalid value for out: expected a directory name, got ''\n"
    assert os.listdir() == ["empty.cfg"]


def test_bad_grid_refused_before_output(tmp_path):
    out = tmp_path / "o"
    assert run(["strong", "--steps", f"10,20,{1 << 16}", "--out", str(out)]) == 2
    assert run(["igbm-paths", "--steps", "10,20", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--schemes", "linear,linear"], "schemes must be distinct: linear,linear"),
        (["--steps", "10,15,30"], "each step count must divide the next: 10,15,30"),
        (["--steps", "20,10"], "step counts must be strictly ascending: 20,10"),
        (["--paths", "50"], "too few paths: need paths >= 100"),
    ],
)
def test_repeated_schemes_and_non_chain_grids_refused_before_output(tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    argv = ["strong", "--paths", "100", "--steps", "5,10,20", *flags, "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"polybrown: error: {message}\n"
    assert not out.exists()


def _assert_paths_do_not_depend_on_path_count(tmp_path, argv, name, rows_per_path):
    # 2 paths make one partial block; 1100 and 1300 end in partial third blocks of 512
    for count in (2, 1100, 1300):
        assert run([*argv, "--paths", str(count), "--out", str(tmp_path / str(count))]) == 0
    few, many, most = ((tmp_path / str(count) / name).read_text().splitlines() for count in (2, 1100, 1300))
    assert many[: len(few)] == few
    assert most[: len(many)] == many
    assert [int(line.split(",")[0]) for line in many[1:]] == [i for i in range(1100) for _ in range(rows_per_path)]


def test_igbm_paths_do_not_depend_on_path_count(tmp_path):
    argv = ["igbm-paths", "--scheme", "parabola", "--steps", "30", "--seed", "3"]
    _assert_paths_do_not_depend_on_path_count(tmp_path, argv, "igbm_paths.csv", 31)


@pytest.mark.parametrize("name, rows_per_path", [("paths.csv", 7), ("path_coeffs.csv", 5)])
def test_paths_do_not_depend_on_path_count(tmp_path, name, rows_per_path):
    argv = ["paths", "--degree", "5", "--grid", "7", "--seed", "3"]
    _assert_paths_do_not_depend_on_path_count(tmp_path, argv, name, rows_per_path)


def test_paths_memory_does_not_grow_with_the_path_count(tmp_path):
    # each file redraws its blocks, so 12 blocks peak no higher than 3 would
    # (a whole-run coefficient table read 11.2 against 4.6 MiB)
    def peak(paths):
        argv = ["paths", "--degree", "200", "--grid", "3", "--paths", str(paths), "--out", str(tmp_path / str(paths))]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first run also allocates one-time caches
    assert peak(6000) <= 1.1 * peak(1100)


def test_trajectory_memory_is_its_trajectories_and_one_chunk():
    # 64 paths of 20 000 steps: the trajectories take 10.2 MB, and the draws,
    # streamed one chunk at a time, add about 1 MiB, where a whole-run draw
    # added 29 MiB
    args = (igbm.REFERENCE, igbm.SchemeKind.LOG_ODE, 20_000, 1)
    harness._igbm_block(*args, range(1))  # the first block also allocates one-time caches
    tracemalloc.start()
    try:
        traj = harness._igbm_block(*args, range(64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= traj.nbytes + (2 << 20)


@pytest.mark.parametrize("command", ["paths", "igbm-paths"])
def test_block_size_does_not_change_the_trajectories(tmp_path, monkeypatch, command):
    # the trajectory commands' counterpart of test_block_size_does_not_change_the_report:
    # a patched block size reaches every command, and 20 paths in blocks of 7 keep every byte
    def csvs(out):
        assert run([command, "--paths", "20", "--seed", "5", "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.glob("*.csv")}

    expected = csvs(tmp_path / "one-block")
    monkeypatch.setattr(harness, "_BLOCK", 7)
    assert csvs(tmp_path / "three-blocks") == expected


def _no_space_on(name):
    """An `open` whose files with names starting `name` take one line from
    `writelines` and then fail as a full disk would."""

    def fail_after_one_line(fh, lines):
        fh.write(next(iter(lines)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.basename(path).startswith(name):
            fh.writelines = functools.partial(fail_after_one_line, fh)
        return fh

    return open_


@pytest.mark.parametrize(
    "argv, failing",
    [
        pytest.param(["igbm-paths", "--steps", "5", "--paths", "3"], "igbm_paths.csv", id="igbm-paths"),
        pytest.param(["paths", "--degree", "4", "--paths", "3", "--grid", "5"], "path_coeffs.csv", id="paths"),
        pytest.param(["strong", "--paths", "100", "--steps", "5,10,20"], "slopes.csv", id="strong"),
        pytest.param(["weak", "--paths", "100", "--steps", "5,10,20"], "slopes.csv", id="weak"),
        pytest.param(["igbm-paths", "--steps", "5", "--paths", "3"], "manifest.txt", id="manifest"),
    ],
)
def test_failed_run_leaves_the_output_directory_as_found(tmp_path, capsys, monkeypatch, argv, failing):
    # a full disk while writing the last CSV, or the manifest, leaves neither
    # a new directory (nor its parents), nor a changed or partial file in an
    # old one, nor a staging directory in either
    earlier = tmp_path / "earlier"
    assert run([*argv, "--seed", "1", "--out", str(earlier)]) == 0
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    assert failing in before and "manifest.txt" in before
    monkeypatch.setattr(harness, "open", _no_space_on(failing), raising=False)  # every file is written by harness
    for out in (tmp_path / "new" / "nested", earlier):
        assert run([*argv, "--seed", "2", "--out", str(out)]) == 2
        message = f"polybrown: error: cannot write to output directory: {out}: No space left on device\n"
        assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == [earlier]
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before


def _run_in_1_gib(argv):
    """Run argv in a child process whose address space is capped at 1 GiB."""

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # set here, not left to cli: a `python -c "from polybrown import harness ..."`
    # child never imports cli, and on a many-core host the stack and buffer of
    # every OpenBLAS thread would count against the 1 GiB
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space)


def test_path_increments_allocates_before_it_builds_streams():
    # 2^32 streams would fill the address space over many seconds; the
    # 64 GiB time-major chunk is refused at once
    draw = "from polybrown import harness; next(harness.path_increments(0, 1, 0, range(1 << 32), 1, [1.0, 1.0]))"
    result = _run_in_1_gib([sys.executable, "-c", draw])
    assert "MemoryError: Unable to allocate 64.0 GiB for an array with shape (2, 1, 4294967296)" in result.stderr


CHECK_LINE = re.compile(r"(ok|FAIL) (\S+) (\S+) (<=|>) (\S+)")


def check_lines(capsys):
    lines = capsys.readouterr().out.splitlines()
    parsed = [CHECK_LINE.fullmatch(line) for line in lines]
    assert all(parsed), lines
    return [m.groups() for m in parsed]


def test_check_command(capsys):
    assert run(["check"]) == 0
    lines = check_lines(capsys)
    assert [name for _, name, *_ in lines] == [name for name, _, _ in checks.SUITES]
    for (status, _, worst, relation, bound), (_, _, expected_bound) in zip(lines, checks.SUITES):
        assert (status, relation) == ("ok", "<=")
        assert float(worst) <= float(bound) == expected_bound


def test_check_fails_loudly_and_runs_every_suite(capsys, monkeypatch):
    rows = orthopoly.basis_e_rows
    monkeypatch.setattr(orthopoly, "basis_e_rows", lambda t: (e_k + 1e-9 for e_k in rows(t)))
    assert run(["check", "--seed", "3"]) == 1
    lines = check_lines(capsys)
    assert [name for _, name, *_ in lines] == [name for name, _, _ in checks.SUITES]
    failed = [line for line in lines if line[0] == "FAIL"]
    assert failed == [line for line in lines if line[1] == "orthonormality"]
    assert failed[0][3] == ">" and float(failed[0][2]) > 1e-10


def test_check_fails_on_nan(capsys, monkeypatch):
    rows = orthopoly.basis_e_rows

    def nan_in_e3_on_the_5_node_rule(t):
        return (np.nan * e_k if k == 3 and np.size(t) == 5 else e_k for k, e_k in enumerate(rows(t), start=1))

    monkeypatch.setattr(orthopoly, "basis_e_rows", nan_in_e3_on_the_5_node_rule)
    assert np.isnan(checks.orthonormality(np.random.default_rng(0)))
    assert run(["check"]) == 1
    assert [line for line in check_lines(capsys) if line[0] == "FAIL"] == [("FAIL", "orthonormality", "nan", ">", "1e-10")]


def test_suites_propagate_nan(monkeypatch):
    """NaN at the ends of e_k or in one step of phi is a failure, not a pass."""
    basis_e = orthopoly.basis_e_eval
    monkeypatch.setattr(orthopoly, "basis_e_eval", lambda k, t: np.where((t == 0) | (t == 1), np.nan, basis_e(k, t)))
    assert np.isnan(checks.eigen_ode(np.random.default_rng(0)))
    phi = checks.igbm.phi
    monkeypatch.setattr(checks.igbm, "phi", lambda x: np.where(np.asarray(x) == 1.0, np.nan, phi(x)))
    assert checks.phi(np.random.default_rng(0)) == 2.0  # the steps into and out of x = 1


def test_dropped_slopes_are_named_on_stderr(tmp_path):
    argv = ["weak", "--b", "0", "--y0", "0", "--schemes", "linear,euler", "--paths", "100", "--steps", "5,10,20"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    command = [sys.executable, "-m", "polybrown", *argv, "--out", str(tmp_path / "o")]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    assert result.returncode == 0
    zeros = "error 0 at N=5, error 0 at N=10, error 0 at N=20"
    assert f"UserWarning: no weak slope for linear, euler ({zeros})\n" in result.stderr
    assert (tmp_path / "o" / "slopes.csv").read_text() == "scheme,metric,slope,slope_stderr\n"


def _run_python(*argv, **env):
    """Run `python *argv` on this checkout's sources; OPENBLAS_NUM_THREADS
    is removed from the child's environment unless given in `env`."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env = dict(base, PYTHONPATH=str(Path(cli.__file__).parents[1]), **env)
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
def test_cli_process_starts_with_one_thread(tmp_path):
    """The CLI pins OpenBLAS to one thread before NumPy loads, unless the
    user has set a count.  Importing the CLI loads no NumPy, so the threads
    are counted once `main` has loaded it with the back end to run a command."""
    code = (
        "import os, sys; import polybrown.cli; print('numpy' in sys.modules); "
        "polybrown.cli.main(['basis', '--max-k', '1', '--grid', '2', '--out', sys.argv[1]]); "
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    )
    assert _run_python("-c", code, str(tmp_path / "a")) == "False\nTrue 1 1\n"
    assert _run_python("-c", code, str(tmp_path / "b"), OPENBLAS_NUM_THREADS="2").split()[:3] == ["False", "True", "2"]


# SHA-256 of the help texts at 80 columns (Python 3.11), recorded at the commit
# before the CLI parsed its arguments without loading NumPy
_HELP_DIGESTS = {
    (): "b7c1d9ab8a4201993ef6a97a7ce5aadb10aac909883641baec0db43cdf3bdd69",
    ("basis",): "c5e75c396164f17d40568b0e1563e1f60ff8c5708494a8793f1a5ec5b39dd021",
    ("paths",): "88ddcc5aab6e48ce3632e5fcd86e08ef7c8f08b0df4bf07177c580e2883156d5",
    ("igbm-paths",): "b3da55c531efabd33b5ca6c51ce4e919121e8d2aa15f495250af0e7c2283516b",
    ("strong",): "1b016300bd4c88f853483e0d3a9c781c498bc1353ffe85baddca5bc059717983",
    ("weak",): "66ed320d1ea33d0a9ae978a5668f9a2bb945e1d5ffc2b46713092545c9aaff85",
    ("check",): "ae2363cf8f1b2b544eb6ac67c2b2d36fae0d65f2f55c2e5cdf68407c4cd4face",
}


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        *(pytest.param([*command, "--help"], 0, False, id=" ".join([*command, "help"])) for command in _HELP_DIGESTS),
        pytest.param(["--version"], 0, False, id="version"),
        pytest.param(["strong", "--frob"], 2, False, id="unknown-option"),
        pytest.param(["strong", "--paths", "0"], 2, False, id="paths-0"),
        pytest.param(["strong", "--a", "nan"], 2, False, id="a-nan"),
        pytest.param(["basis", "--config", "missing.cfg"], 2, False, id="unreadable-config"),
        pytest.param(["strong", "--paths", "50"], 2, False, id="too-few-paths"),
        pytest.param(["weak", "--steps", "20,10"], 2, False, id="descending-steps"),
        pytest.param(["strong", "--steps", "10,15,30"], 2, False, id="non-chain-steps"),
        pytest.param(["strong", "--schemes", "linear,linear"], 2, False, id="repeated-schemes"),
        pytest.param(["igbm-paths", "--steps", "10,20"], 2, False, id="igbm-paths-two-steps"),
        pytest.param(["basis", "--out", "/dev/null/o"], 2, False, id="unusable-out"),
        pytest.param(["basis", "--max-k", "1", "--grid", "2"], 0, True, id="basis"),
    ],
)
def test_cli_answers_and_refuses_without_numpy(tmp_path, argv, code, loads_numpy):
    """`--help`, `--version` and the refusal of a bad option, value,
    configuration file, step grid, scheme list or `--out` come from the front
    end, before NumPy loads; a command that computes loads it.  No process
    loads `dataclasses`.  The help texts keep their bytes, and a refused run
    writes nothing."""
    probe = "import sys; from polybrown import cli\ntry:\n    code = cli.main()\n"
    probe += "except SystemExit as exc:\n    code = exc.code\n"
    probe += "print(code, 'numpy' in sys.modules, 'dataclasses' in sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), COLUMNS="80")
    command = [sys.executable, "-c", probe, *argv]
    result = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert result.stderr.decode().splitlines()[-1] == f"{code} {loads_numpy} False"
    if argv[-1] == "--help":
        digest = hashlib.sha256(result.stdout).hexdigest()
        assert digest == _HELP_DIGESTS[tuple(argv[:-1])], result.stdout.decode()
    assert os.listdir(tmp_path) == (["out"] if loads_numpy else [])


@pytest.mark.parametrize(
    "entry, env, threads",
    [
        # NumPy loaded first, so OpenBLAS read no count, whatever cli sets later
        (["-c", "import sys, numpy, polybrown.cli; sys.exit(polybrown.cli.main(sys.argv[1:]))"], {}, "None"),
        (["-m", "polybrown"], {}, "1"),
        (["-m", "polybrown"], {"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ],
    ids=["numpy-first", "cli", "user-set"],
)
def test_manifest_records_the_thread_count_openblas_read(tmp_path, entry, env, threads):
    _run_python(*entry, "basis", "--max-k", "1", "--grid", "2", "--out", str(tmp_path / "o"), **env)
    assert f"\nopenblas_num_threads = {threads}\n" in (tmp_path / "o" / "manifest.txt").read_text()


def test_commands_without_a_pool_never_import_multiprocessing(tmp_path):
    commands = [
        ["igbm-paths", "--steps", "4", "--paths", "3", "--out", str(tmp_path / "i")],
        ["paths", "--degree", "4", "--paths", "3", "--grid", "5", "--out", str(tmp_path / "p")],
        ["basis", "--max-k", "2", "--grid", "3", "--out", str(tmp_path / "b")],
        ["strong", "--paths", "100", "--steps", "5,10,20", "--workers", "2", "--out", str(tmp_path / "s")],  # one block
        ["check"],
    ]
    code = f"import sys; from polybrown import cli; codes = [cli.main(argv) for argv in {commands!r}]; "
    code += "print(codes, 'multiprocessing' in sys.modules)"
    assert _run_python("-c", code).splitlines()[-1] == "[0, 0, 0, 0, 0] False"


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--max-k", "2", "--grid", "3"],
        ["paths", "--degree", "4", "--paths", "3", "--grid", "5"],
        ["igbm-paths", "--steps", "4", "--paths", "3"],
        ["strong", "--paths", "100", "--steps", "5,10,20"],
        ["check"],
    ],
    ids=lambda argv: argv[0],
)
def test_bench_tracer_runs_a_command(tmp_path, argv):
    """`bench/trace.py` wraps polybrown's functions by name and calls them as
    the commands do, so removing one of them from `src/` or changing how it
    is called would break `bench/run.py --trace 1`.  Its `igbm.simulate.steps`
    counts the steps simulated: --steps for igbm-paths; M + 5 sum(N) for the
    one block of strong (M = 1000 fine steps, N = 5, 10, 20); one per scheme
    for the three one-step runs of check."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if argv != ["check"]:  # check writes no files and takes no --out
        argv = [*argv, "--out", str(tmp_path / "o")]
    tracer = [sys.executable, str(root / "bench" / "trace.py"), str(tmp_path / "r.json"), str(tmp_path / "s.npz")]
    result = subprocess.run([*tracer, "traced", "--", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    steps = {"basis": 0, "paths": 0, "igbm-paths": 4, "strong": 1000 + 5 * (5 + 10 + 20), "check": 3}[argv[0]]
    assert json.loads((tmp_path / "r.json").read_text())["metrics"]["igbm.simulate.steps"] == steps


def test_every_exported_name_resolves():
    """A name deleted from a module must leave its `__all__` too, or
    `from polybrown.<module> import *` fails."""
    for info in pkgutil.iter_modules(polybrown.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"polybrown.{info.name}")
            missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
            assert not missing, (info.name, missing)


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
