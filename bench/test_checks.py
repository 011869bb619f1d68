"""Each benchmark check accepts a real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py

The convergence tables are real outputs of the benchmark's own commands at
seed 1 (`bench/fixtures/`); the trajectory, expansion and `check` outputs are
made here by small CLI runs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH / "fixtures"
STRONG_STEPS = (25, 50, 100, 200, 400)
WEAK_STEPS = (5, 10, 20, 40, 80, 160)
LARGE_N_STEPS = (800, 1600, 3200)


def polybrown(*argv):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    return subprocess.run([sys.executable, "-m", "polybrown", *argv], env=env, capture_output=True, text=True)


def copy_fixture(name, tmp_path):
    return Path(shutil.copytree(FIXTURES / name, tmp_path / name))


def edit_error(path, scheme, n, new_value):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[:2] == [scheme, str(n)]:
            fields[3] = new_value
            lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def error_of(path, scheme, n):
    return checks.read_error_rows(path)[(scheme, n)].error


# ---------------------------------------------------------------------------
# Convergence tables


@pytest.mark.parametrize(
    "name, table, steps, check",
    [
        ("strong", "strong.csv", STRONG_STEPS, lambda d: checks.check_strong(d, STRONG_STEPS)),
        ("weak", "weak.csv", WEAK_STEPS, lambda d: checks.check_weak(d, WEAK_STEPS)),
        ("large-n", "strong.csv", LARGE_N_STEPS, lambda d: checks.check_large_n(d, LARGE_N_STEPS)),
    ],
)
def test_table_checks_reject_nan_error(tmp_path, name, table, steps, check):
    out = copy_fixture(name, tmp_path)
    check(out)
    edit_error(out / table, "linear", steps[0], "nan")
    with pytest.raises(checks.CheckError, match="non-finite"):
        check(out)


@pytest.mark.parametrize(
    "name, steps, check",
    [
        ("strong", STRONG_STEPS, lambda d: checks.check_strong(d, STRONG_STEPS)),
        ("large-n", LARGE_N_STEPS, lambda d: checks.check_large_n(d, LARGE_N_STEPS)),
    ],
)
def test_strong_checks_reject_swapped_scheme_order(tmp_path, name, steps, check):
    out = copy_fixture(name, tmp_path)
    table = out / "strong.csv"
    n = steps[-1]
    linear, milstein = error_of(table, "linear", n), error_of(table, "milstein", n)
    edit_error(table, "linear", n, repr(milstein))
    edit_error(table, "milstein", n, repr(linear))
    with pytest.raises(checks.CheckError, match="not ordered"):
        check(out)


def test_strong_check_rejects_slope_outside_band(tmp_path):
    out = copy_fixture("strong", tmp_path)
    slopes = out / "slopes.csv"
    slopes.write_text(slopes.read_text().replace("log-ode,strong,1.", "log-ode,strong,2."))
    with pytest.raises(checks.CheckError, match="slope"):
        checks.check_strong(out, STRONG_STEPS)


def test_weak_check_rejects_log_ode_above_parabola(tmp_path):
    out = copy_fixture("weak", tmp_path)
    table = out / "weak.csv"
    edit_error(table, "log-ode", 40, repr(2.0 * error_of(table, "parabola", 40)))
    with pytest.raises(checks.CheckError, match="log-ODE weak error"):
        checks.check_weak(out, WEAK_STEPS)


def test_large_n_check_rejects_log_ode_error_growth(tmp_path):
    out = copy_fixture("large-n", tmp_path)
    table = out / "strong.csv"
    edit_error(table, "log-ode", 3200, repr(2.0 * error_of(table, "log-ode", 1600)))
    with pytest.raises(checks.CheckError):
        checks.check_large_n(out, LARGE_N_STEPS)


# ---------------------------------------------------------------------------
# Trajectories

TRAJ_STEPS, TRAJ_PATHS = 100, 200


@pytest.fixture(scope="module")
def euler_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("igbm")
    argv = ["igbm-paths", "--scheme", "euler", "--steps", str(TRAJ_STEPS), "--paths", str(TRAJ_PATHS)]
    assert polybrown(*argv, "--seed", "1", "--out", str(out)).returncode == 0
    return out / "igbm_paths.csv"


def test_trajectory_check_rejects_negative_value(euler_paths, tmp_path):
    checks.check_igbm_paths(euler_paths, "euler", TRAJ_STEPS, TRAJ_PATHS)
    lines = euler_paths.read_text().splitlines()
    path_id, t, _ = lines[TRAJ_STEPS // 2].split(",")
    lines[TRAJ_STEPS // 2] = f"{path_id},{t},-0.001"
    corrupted = tmp_path / "igbm_paths.csv"
    corrupted.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="below 0"):
        checks.check_igbm_paths(corrupted, "euler", TRAJ_STEPS, TRAJ_PATHS)


def test_trajectory_check_rejects_wrong_start(euler_paths, tmp_path):
    corrupted = tmp_path / "igbm_paths.csv"
    corrupted.write_text(euler_paths.read_text().replace("0,0,0.059999999999999998", "0,0,0.061", 1))
    with pytest.raises(checks.CheckError, match="start at y0"):
        checks.check_igbm_paths(corrupted, "euler", TRAJ_STEPS, TRAJ_PATHS)


def test_terminal_mean_check_rejects_five_standard_error_shift(euler_paths):
    terminal = checks.check_igbm_paths(euler_paths, "euler", TRAJ_STEPS, TRAJ_PATHS)
    checks.check_terminal_mean(terminal, "euler")
    mean, var = checks.igbm_moments(5.0, 0.1, 0.04, 0.6, 0.06)
    se = max(np.sqrt(var / terminal.size), np.std(terminal, ddof=1) / np.sqrt(terminal.size))
    shifted = terminal - np.mean(terminal) + mean + 5.0 * se  # centred on the closed form, then moved 5 SE
    with pytest.raises(checks.CheckError, match="standard errors"):
        checks.check_terminal_mean(shifted, "euler")


def test_closed_form_moments_match_sampling():
    rng = np.random.default_rng(0)
    a, b, sigma, y0, t = 0.1, 0.04, 0.0, 0.06, 5.0
    mean, var = checks.igbm_moments(t, a, b, sigma, y0)
    assert mean == pytest.approx(b + (y0 - b) * np.exp(-a * t))
    assert var == pytest.approx(0.0, abs=1e-15)  # deterministic flow when sigma = 0
    # sigma > 0: Euler on a fine grid over many paths
    sigma, n, paths = 0.3, 400, 200_000
    y = np.full(paths, y0)
    h = t / n
    for _ in range(n):
        y = y + a * (b - y) * h + sigma * y * rng.normal(0.0, np.sqrt(h), paths)
    mean, var = checks.igbm_moments(t, a, b, sigma, y0)
    assert np.mean(y) == pytest.approx(mean, rel=5e-3)
    assert np.var(y) == pytest.approx(var, rel=5e-2)


KL_DEGREE, KL_PATHS, KL_GRID = 20, 200, 51


@pytest.fixture(scope="module")
def kl_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("paths")
    argv = ["paths", "--degree", str(KL_DEGREE), "--paths", str(KL_PATHS), "--grid", str(KL_GRID), "--seed", "1"]
    assert polybrown(*argv, "--out", str(out)).returncode == 0
    return out


def test_paths_check_rejects_perturbed_value(kl_paths, tmp_path):
    checks.check_kl_paths(kl_paths, KL_DEGREE, KL_PATHS, KL_GRID)
    out = Path(shutil.copytree(kl_paths, tmp_path / "paths"))
    lines = (out / "paths.csv").read_text().splitlines()
    path_id, t, value = lines[KL_GRID + 7].split(",")
    lines[KL_GRID + 7] = f"{path_id},{t},{float(value) + 1e-9!r}"
    (out / "paths.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="differs from the expansion"):
        checks.check_kl_paths(out, KL_DEGREE, KL_PATHS, KL_GRID)


def test_coefficient_variance_check_rejects_wrong_scale(kl_paths):
    table = checks.read_numeric(kl_paths / "path_coeffs.csv", "path_id,k,I_k")[:, 2].reshape(KL_PATHS, KL_DEGREE)
    checks.check_coefficient_variances(table, "coefficients")
    table[:, 3] *= 1.5  # Var(I_3) off by a factor 2.25
    with pytest.raises(checks.CheckError, match="k=3"):
        checks.check_coefficient_variances(table, "coefficients")


def test_check_output_check_rejects_failed_suite():
    result = polybrown("check", "--seed", "1")
    assert result.returncode == 0
    checks.check_check_output(result.stdout)
    with pytest.raises(checks.CheckError, match="non-ok"):
        checks.check_check_output(result.stdout.replace("ok phi", "FAIL phi: phi(0) != 1"))


# ---------------------------------------------------------------------------
# Determinism


def test_digest_rejects_one_byte_difference(tmp_path):
    first = copy_fixture("strong", tmp_path / "a")
    second = copy_fixture("strong", tmp_path / "b")
    checks.same_digest(checks.csv_digest(first), checks.csv_digest(second), "rerun")
    data = bytearray((second / "strong.csv").read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    (second / "strong.csv").write_bytes(bytes(data))
    with pytest.raises(checks.CheckError, match="differ"):
        checks.same_digest(checks.csv_digest(first), checks.csv_digest(second), "rerun")


# ---------------------------------------------------------------------------
# Judging an operation


def judged(op, code, out_dir, stdout=""):
    totals = run.Totals()
    run.judge("trajectories", op, 1, out_dir, run.Outcome(code, 1.0, 1.0, 1.0, stdout), totals)
    return totals


def test_failed_check_command_marks_run_incorrect(tmp_path):
    op = run.Op("check", ["check", "--seed", "1"], check=lambda _, out: checks.check_check_output(out))
    totals = judged(op, 1, tmp_path, "ok phi\nFAIL levy: area variance\n")
    assert (totals.attempted, totals.failed) == (1, 1)
    assert totals.errors and "exit 1, expected 0" in totals.errors[0]


def test_crashed_command_marks_run_incorrect(tmp_path):
    op = run.Op("igbm-euler", ["igbm-paths", "--scheme", "euler"])
    totals = judged(op, -9, tmp_path)
    assert totals.failed == 1 and totals.errors


def test_accepted_nan_parameter_is_a_failed_operation_only(tmp_path):
    op = run.Op("strong-a-nan", ["strong", "--a", "nan"], expect_exit=2)
    (tmp_path / "slopes.csv").write_text("scheme,metric,slope,slope_stderr\n")
    totals = judged(op, 0, tmp_path)
    assert (totals.attempted, totals.failed, totals.errors) == (1, 1, [])
    refused = judged(op, 2, tmp_path / "empty")
    assert (refused.failed, refused.errors) == (0, [])
