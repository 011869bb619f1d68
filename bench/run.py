"""Convergence benchmark for the polybrown CLI.

    python3 bench/run.py --workload {convergence,trajectories,all}
                         --seed N --seconds S --trace {0,1}

Untraced (`--trace 0`), each workload's commands run as `python -m polybrown`
subprocesses from this checkout's `src/`; the run reports wall time, CPU
(worker processes included) and peak RSS per round of commands, set-up time
from `--help`, and the source line count.  Traced (`--trace 1`), each command
runs in-process under `bench/trace.py`, once plain and once with every module
wrapped, and the run reports per-layer times and counts plus the tracing
overhead.  Every output is checked (see `checks.py`); the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # every run ends within 180 s
HELP_CALLS = 10  # per batch; one batch before the rounds and one after


@dataclass
class Op:
    """One CLI command of a workload.  `expect_exit` 2 marks a command that
    must be refused with a usage error and write no CSV."""

    name: str
    argv: list
    check: object = None  # check(out_dir, stdout) raises checks.CheckError
    expect_exit: int = 0
    path_steps: int = 0  # sample-path points the command requests

    def argv_for(self, out_dir, workers=None):
        argv = list(self.argv)
        if argv[0] != "check":  # the only command without --out
            argv += ["--out", str(out_dir)]
        if workers is not None and "--workers" in argv:
            argv[argv.index("--workers") + 1] = str(workers)
        return argv


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    failed: bool = False
    detail: str = ""


@dataclass
class Totals:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Workloads

SCHEMES = checks.SCHEME_ORDER
STRONG_STEPS = (25, 50, 100, 200, 400)
WEAK_STEPS = (5, 10, 20, 40, 80, 160)
WEAK_PATHS = 10_000
LARGE_N_STEPS = (800, 1600, 3200)
TRAJ_STEPS, TRAJ_PATHS = 500, 200
KL_DEGREE, KL_PATHS, KL_GRID = 20, 500, 201


def _steps(steps):
    return ",".join(str(n) for n in steps)


def _grid_op(name, command, paths, steps, seed, workers, check):
    argv = [command, "--paths", str(paths), "--steps", _steps(steps), "--workers", str(workers), "--seed", str(seed)]
    return Op(name, argv, check=check, path_steps=paths * sum(steps) * len(SCHEMES))


# The convergence commands run two workers, not the CLI default of one: a
# single process stays on one vCPU, whose speed drifts by tens of percent over
# minutes on a shared host, while the pool spreads the blocks over both (see
# README).  Outputs do not depend on the worker count.


def convergence_ops(seed):
    """The three harness experiments: the paper's strong study at the CLI's
    defaults, the weak study, and the strong study at large N."""
    return [
        _grid_op("strong", "strong", 10_000, STRONG_STEPS, seed, 2, lambda d, _: checks.check_strong(d, STRONG_STEPS)),
        _grid_op("weak", "weak", WEAK_PATHS, WEAK_STEPS, seed, 2, lambda d, _: checks.check_weak(d, WEAK_STEPS)),
        _grid_op("large-n", "strong", 1024, LARGE_N_STEPS, seed, 2, lambda d, _: checks.check_large_n(d, LARGE_N_STEPS)),
    ]


def _trajectory_check(scheme):
    def check(out_dir, _stdout):
        terminal = checks.check_igbm_paths(Path(out_dir) / "igbm_paths.csv", scheme, TRAJ_STEPS, TRAJ_PATHS)
        checks.check_terminal_mean(terminal, f"{out_dir}/igbm_paths.csv")

    return check


def trajectories_ops(seed):
    ops = [
        Op(
            f"igbm-{scheme}",
            ["igbm-paths", "--scheme", scheme, "--steps", str(TRAJ_STEPS), "--paths", str(TRAJ_PATHS), "--seed", str(seed)],
            check=_trajectory_check(scheme),
            path_steps=TRAJ_PATHS * TRAJ_STEPS,
        )
        for scheme in SCHEMES
    ]
    ops.append(
        Op(
            "paths",
            ["paths", "--degree", str(KL_DEGREE), "--paths", str(KL_PATHS), "--grid", str(KL_GRID), "--seed", str(seed)],
            check=lambda d, _: checks.check_kl_paths(d, KL_DEGREE, KL_PATHS, KL_GRID),
            path_steps=KL_PATHS * KL_GRID,
        )
    )
    ops.append(Op("check", ["check", "--seed", str(seed)], check=lambda _, out: checks.check_check_output(out)))
    # Non-finite model parameters must be refused; the inputs do not depend on the seed.
    ops.append(Op("strong-a-nan", ["strong", "--a", "nan", "--paths", "100", "--steps", "5,10,20", "--seed", "0"], expect_exit=2))
    return ops


WORKLOADS = {
    "convergence": convergence_ops,
    "trajectories": trajectories_ops,
}

# ---------------------------------------------------------------------------
# Running commands


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Bytecode is cached under the work directory whatever the caller's
    # environment says, so start-up is that of an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(argv, stdout_path, deadline):
    """Run argv to its end; wall time, CPU and peak RSS include every process
    it started and waited for (pool workers)."""
    with open(stdout_path, "w") as out, open(str(stdout_path) + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=Path(stdout_path).read_text(),
    )


def polybrown(argv):
    return [sys.executable, "-m", "polybrown", *argv]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def source_files():
    return sorted((SRC / "polybrown").glob("*.py"))


def source_hash():
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_determinism(workload, op, seed, out_dir):
    """Compare the CSV bytes with every earlier run of the same command line
    (workers aside) on the same source; the first run records them."""
    argv = op.argv_for("OUT", workers=0)
    key = json.dumps([workload, argv, seed, source_hash()]).encode()
    record = WORK / "digests" / hashlib.sha256(key).hexdigest()
    digest = checks.csv_digest(out_dir)
    if record.exists():
        checks.same_digest(record.read_text(), digest, f"{workload}/{op.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}")
        tmp.write_text(digest)
        os.replace(tmp, record)


def judge(workload, op, seed, out_dir, outcome, totals):
    """Count the operation and check its outputs."""
    totals.attempted += 1
    csvs = list(Path(out_dir).glob("*.csv"))
    if outcome.code != op.expect_exit or (op.expect_exit != 0 and csvs):
        totals.failed += 1
        outcome.failed = True
        outcome.detail = f"exit {outcome.code}, expected {op.expect_exit}" + (", CSV written" if csvs else "")
        if op.expect_exit == 0:  # only a command that must be refused may fail and leave the run correct
            totals.errors.append(f"{workload}/{op.name}: {outcome.detail}")
        return
    if op.check is None:
        return
    try:
        op.check(out_dir, outcome.stdout)
        check_determinism(workload, op, seed, out_dir)
    except (checks.CheckError, OSError, ValueError) as exc:
        totals.errors.append(f"{workload}/{op.name}: {exc}")


def workers_invariance(seed, deadline, totals):
    """Untimed: a small strong run gives the same CSV bytes on 1 and 2 workers."""
    digests = []
    for workers in (1, 2):
        out = fresh_dir(WORK / "convergence" / f"workers-{workers}")
        argv = ["strong", "--paths", "1100", "--steps", "5,10,20", "--seed", str(seed)]
        outcome = spawn(polybrown(argv + ["--workers", str(workers), "--out", str(out)]), out.parent / f"w{workers}.out", deadline)
        if outcome.code != 0:
            totals.errors.append(f"strong/workers-{workers}: exit {outcome.code}")
            return
        digests.append(checks.csv_digest(out))
    try:
        checks.same_digest(digests[0], digests[1], "strong with --workers 1 and 2")
    except checks.CheckError as exc:
        totals.errors.append(str(exc))


def help_times(commands, deadline):
    """Wall times of HELP_CALLS calls of `polybrown <command> --help`,
    cycling over the workload's commands."""
    scratch = WORK / "help"
    times = []
    for i in range(HELP_CALLS):
        command = commands[i % len(commands)]
        outcome = spawn(polybrown([command, "--help"]), scratch / "help.out", deadline)
        if outcome.code != 0:
            raise RuntimeError(f"polybrown {command} --help exited {outcome.code}")
        times.append(outcome.wall_s)
    return times


def run_untraced(workload, seed, seconds, deadline, totals):
    ops = WORKLOADS[workload](seed)
    commands = list(dict.fromkeys(op.argv[0] for op in ops))
    fresh_dir(WORK / "help")
    spawn(polybrown([commands[0], "--help"]), WORK / "help" / "warm.out", deadline)  # fills the bytecode cache
    setup = help_times(commands, deadline)
    base = WORK / workload
    rounds = []
    started = time.perf_counter()
    while not rounds or (
        time.perf_counter() - started + statistics.median(r[0] for r in rounds) <= seconds
        and time.monotonic() + max(r[0] for r in rounds) < deadline
    ):
        wall = cpu = rss = 0.0
        for op in ops:
            out = fresh_dir(base / op.name)
            outcome = spawn(polybrown(op.argv_for(out)), base / f"{op.name}.out", deadline)
            judge(workload, op, seed, out, outcome, totals)
            wall, cpu, rss = wall + outcome.wall_s, cpu + outcome.cpu_s, max(rss, outcome.maxrss_mb)
            note = f" FAILED ({outcome.detail})" if outcome.failed else ""
            print(f"  {op.name}: {outcome.wall_s:.3f} s wall, {outcome.cpu_s:.3f} s cpu, {outcome.maxrss_mb:.1f} MB{note}")
        rounds.append((wall, cpu, rss))
    setup += help_times(commands, deadline)  # a second batch, seconds after the first
    print("  setup: " + " ".join(f"{t:.4f}" for t in setup))
    if workload == "convergence":
        workers_invariance(seed, deadline, totals)
    run_s = statistics.median(r[0] for r in rounds)
    lines = sum(path.read_bytes().count(b"\n") for path in source_files())
    return {
        "run_s": (run_s, "s"),
        "path_steps_per_s": (sum(op.path_steps for op in ops) / run_s, "1/s"),
        "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r[2] for r in rounds), "MB"),
        "setup_s": (min(setup), "s"),
        "src_lines": (lines, "lines"),
    }


_LAYER_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "untraced_run_s": "s", "ns_per_element": "ns", "bytes_in": "bytes", "bytes_written": "bytes"}


def _layer_unit(name):
    return _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def run_traced(workload, seed, deadline, totals):
    """Each command in-process, once plain and once traced (workers 1)."""
    ops = WORKLOADS[workload](seed)
    base = fresh_dir(WORK / "trace" / workload)
    runner = [sys.executable, str(BENCH_DIR / "trace.py")]
    summed = {}
    plain_s = traced_s = 0.0
    bytes_written = 0
    for op in ops:
        results = {}
        for mode in ("plain", "traced"):
            out = fresh_dir(base / op.name)
            result_path = base / f"{op.name}.{mode}.json"
            argv = runner + [str(result_path), str(base / f"{op.name}.spans.npz"), mode, "--"]
            outcome = spawn(argv + op.argv_for(out, workers=1), base / f"{op.name}.{mode}.out", deadline)
            results[mode] = json.loads(result_path.read_text()) if result_path.exists() else {"run_s": 0.0}
        judge(workload, op, seed, out, outcome, totals)
        plain_s += results["plain"]["run_s"]
        traced_s += results["traced"]["run_s"]
        bytes_written += sum(path.stat().st_size for path in out.iterdir() if path.is_file())
        for name, value in results["traced"].get("metrics", {}).items():
            summed[name] = summed.get(name, 0) + value
        print(f"  {op.name}: {results['plain']['run_s']:.3f} s plain, {results['traced']['run_s']:.3f} s traced")
    elements = summed.get("igbm.fine_kernel.elements", 0)
    summed["igbm.fine_kernel.ns_per_element"] = summed.get("igbm.fine_kernel.s", 0.0) / elements * 1e9 if elements else 0.0
    summed["cli.bytes_written"] = bytes_written
    summed["trace.untraced_run_s"] = plain_s
    summed["trace.overhead_s"] = traced_s - plain_s
    return {name: (value, _layer_unit(name)) for name, value in sorted(summed.items())}


def run_workload(workload, seed, seconds, trace, deadline):
    totals = Totals()
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    if trace:
        metrics = run_traced(workload, seed, deadline, totals)
    else:
        metrics = run_untraced(workload, seed, seconds, deadline, totals)
    for name, (value, unit) in metrics.items():
        print(f"  {workload} {name} = {value:.6g} {unit}")
    print(f"  {workload} attempted = {totals.attempted}, failed = {totals.failed}")
    for error in totals.errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    return totals, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polybrown" / "cli.py").is_file():
        print(f"bench: no polybrown sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline += DEADLINE_S * (len(names) - 1)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        totals, values = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        correct = correct and not totals.errors
        attempted += totals.attempted
        failed += totals.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: {"value": value, "unit": unit} for key, (value, unit) in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
