"""Tests for the command-line interface."""

import numpy as np
import pytest

from polybrown import cli, orthopoly


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
    assert run(["strong", "--steps", "0", "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["strong", "--paths", "50", "--out", str(tmp_path / "o")]) == 2  # too few paths
    assert run(["igbm-paths", "--scheme", "heun", "--out", str(tmp_path / "o")]) == 2
    assert run(["strong", "--seed", str(1 << 64), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["strong", "weak", "igbm-paths"])
@pytest.mark.parametrize("flag", ["--a", "--b", "--sigma", "--y0", "--horizon"])
def test_non_finite_parameters_refused_before_output(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    argv = [command, flag, "nan", "--paths", "100", "--steps", "5" if command == "igbm-paths" else "5,10,20"]
    assert run(argv + ["--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()  # neither the manifest nor a CSV


def test_bad_grid_refused_before_output(tmp_path):
    out = tmp_path / "o"
    assert run(["strong", "--steps", f"10,20,{1 << 16}", "--out", str(out)]) == 2
    assert run(["igbm-paths", "--steps", "10,20", "--out", str(out)]) == 2
    assert run(["igbm-paths", "--steps", str(1 << 16), "--out", str(out)]) == 2
    assert run(["paths", "--degree", "65", "--out", str(out)]) == 2
    assert not out.exists()


def test_igbm_paths_do_not_depend_on_path_count(tmp_path):
    base = ["igbm-paths", "--scheme", "parabola", "--steps", "30", "--seed", "3"]
    assert run(base + ["--paths", "2", "--out", str(tmp_path / "a")]) == 0
    assert run(base + ["--paths", "5", "--out", str(tmp_path / "b")]) == 0
    few = (tmp_path / "a" / "igbm_paths.csv").read_text().splitlines()
    many = (tmp_path / "b" / "igbm_paths.csv").read_text().splitlines()
    assert many[: len(few)] == few


def test_check_command():
    assert run(["check"]) == 0


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
