"""Run one `polybrown` command in-process, optionally traced, and report it.

    python3 bench/trace.py RESULT.json SPANS.npz {traced,plain} -- <polybrown argv>

The package is imported from the checkout's `src/` (set PYTHONPATH).  When
`traced`, wrappers are installed under the names the callers look them up by
(`polybrown.harness.kernel_fn`, `polybrown.harness.coarsen_arrays`, module
attributes such as `polybrown.brownian.sample_pair`), every call becomes a
span in memory, and at the end the spans go to SPANS.npz and the per-layer
aggregates to RESULT.json.  The exit code is the command's.
"""

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Spans (name, parent, start, end) kept in compact arrays, plus running
    totals per span name."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by child spans]
        self.stats = {}  # name -> [total s, self s, calls, count]

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` adds to
        the name's count."""
        if name not in self.stats:
            self.names.append(name)
            self.stats[name] = [0.0, 0.0, 0, 0]
        name_id = self.names.index(name)
        stats = self.stats[name]
        stack, clock = self._stack, time.perf_counter
        starts, ends, names, parents = self.span_start, self.span_end, self.span_name, self.span_parent

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                ends[index] = end
                if stack:
                    stack[-1][1] += duration
                stats[0] += duration
                stats[1] += duration - frame[1]
                stats[2] += 1
            if count is not None:
                stats[3] += count(args, result)
            return result

        return traced

    def write_spans(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class _CountedGenerator:
    """A path's random stream whose normal draws are spans of their own;
    `install` sets the traced `standard_normal` and `normal` on the class, so
    that making one per path costs one small object."""

    def __init__(self, generator):
        self._generator = generator

    def __getattr__(self, name):
        return getattr(self._generator, name)


def install(tracer):
    """Wrap the public entry points of every polybrown module."""
    from polybrown import brownian, cli, harness, igbm, levy, orthopoly

    phase = {"fine": True}  # harness: kernels fetched before coarsening are the fine reference

    path_generator = tracer.wrap("harness.path_generator", harness.path_generator)
    size = lambda args, result: int(np.size(result))
    _CountedGenerator.standard_normal = tracer.wrap(
        "harness.normals", lambda self, *args, **kwargs: self._generator.standard_normal(*args, **kwargs), size
    )
    _CountedGenerator.normal = tracer.wrap(
        "harness.normals", lambda self, *args, **kwargs: self._generator.normal(*args, **kwargs), size
    )

    def counted_path_generator(*args, **kwargs):
        phase["fine"] = True
        return _CountedGenerator(path_generator(*args, **kwargs))

    harness.path_generator = counted_path_generator
    harness.run_experiment = tracer.wrap("harness.run_experiment", harness.run_experiment)
    harness.fit_slope = tracer.wrap("harness.fit_slope", harness.fit_slope)
    harness.write_error_csv = tracer.wrap("harness.write_csv", harness.write_error_csv)
    harness.write_slopes_csv = tracer.wrap("harness.write_csv", harness.write_slopes_csv)

    elements = lambda args, result: int(np.size(args[1]))
    fine_kernel = tracer.wrap("igbm.fine_kernel", igbm.kernel_fn(igbm.SchemeKind.LOG_ODE), elements)
    coarse_kernels = {
        kind: tracer.wrap(f"igbm.coarse_kernel.{kind.value}", igbm.kernel_fn(kind), elements)
        for kind in igbm.SchemeKind
    }

    def kernel_fn(kind):
        if phase["fine"] and kind is igbm.SchemeKind.LOG_ODE:
            return fine_kernel
        return coarse_kernels[kind]

    harness.kernel_fn = kernel_fn

    coarsen_arrays = tracer.wrap(
        "brownian.coarsen_arrays", harness.coarsen_arrays, lambda args, result: int(args[0].nbytes + args[1].nbytes)
    )

    def coarsen_then_coarse_phase(*args, **kwargs):
        phase["fine"] = False
        return coarsen_arrays(*args, **kwargs)

    harness.coarsen_arrays = coarsen_then_coarse_phase
    igbm.simulate = tracer.wrap("igbm.simulate", igbm.simulate, lambda args, result: len(args[2]))
    igbm.phi = tracer.wrap("igbm.phi", igbm.phi)

    for name in ("sample_pair", "eval_polynomial_path", "sample_kl_coefficients"):
        setattr(brownian, name, tracer.wrap(f"brownian.{name}", getattr(brownian, name)))

    orthopoly.basis_e_eval = tracer.wrap("orthopoly.basis_e_eval", orthopoly.basis_e_eval)
    timed_init = tracer.wrap("orthopoly.PolyBasis", orthopoly.PolyBasis.__init__)

    class PolyBasis(orthopoly.PolyBasis):
        __init__ = timed_init

    orthopoly.PolyBasis = PolyBasis

    for name in levy.__all__:
        value = getattr(levy, name)
        if callable(value) and not isinstance(value, type):
            setattr(levy, name, tracer.wrap(f"levy.{name}", value))

    cli.main = tracer.wrap("cli.main", cli.main)


def layer_metrics(tracer):
    """The per-layer figures of one traced command (zero for layers it never
    called)."""
    total, self_s, calls, count = (Counter({name: v[i] for name, v in tracer.stats.items()}) for i in range(4))
    coarse = [name for name in tracer.stats if name.startswith("igbm.coarse_kernel.")]
    metrics = {
        "harness.run_experiment.s": total["harness.run_experiment"],
        "harness.self_s": self_s["harness.run_experiment"],
        "harness.path_generator.calls": calls["harness.path_generator"],
        "harness.path_generator.s": total["harness.path_generator"],
        "harness.normals.count": count["harness.normals"],
        "harness.normals.s": total["harness.normals"],
        "harness.fit_slope.s": total["harness.fit_slope"],
        "harness.write_csv.s": total["harness.write_csv"],
        "igbm.fine_kernel.calls": calls["igbm.fine_kernel"],
        "igbm.fine_kernel.elements": count["igbm.fine_kernel"],
        "igbm.fine_kernel.s": total["igbm.fine_kernel"],
        "igbm.coarse_kernel.elements": sum(count[name] for name in coarse),
        "igbm.simulate.s": total["igbm.simulate"],
        "igbm.simulate.steps": count["igbm.simulate"],
        "igbm.phi.s": total["igbm.phi"],
        "brownian.coarsen_arrays.calls": calls["brownian.coarsen_arrays"],
        "brownian.coarsen_arrays.s": total["brownian.coarsen_arrays"],
        "brownian.coarsen_arrays.bytes_in": count["brownian.coarsen_arrays"],
        "brownian.sample_pair.calls": calls["brownian.sample_pair"],
        "brownian.sample_pair.s": total["brownian.sample_pair"],
        "brownian.eval_polynomial_path.s": total["brownian.eval_polynomial_path"],
        "brownian.sample_kl_coefficients.s": total["brownian.sample_kl_coefficients"],
        "orthopoly.basis_e_eval.calls": calls["orthopoly.basis_e_eval"],
        "orthopoly.basis_e_eval.s": total["orthopoly.basis_e_eval"],
        "orthopoly.PolyBasis.s": total["orthopoly.PolyBasis"],
        # levy functions call no other wrapped layer, so their self times add up to the outermost levy time
        "levy.s": sum(self_s[name] for name in tracer.stats if name.startswith("levy.")),
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }
    metrics.update({f"{name}.s": total[name] for name in coarse})
    return metrics


def main(argv):
    result_path, spans_path, mode, separator, *command = argv
    if separator != "--" or mode not in ("traced", "plain"):
        raise SystemExit(__doc__)
    from polybrown import cli

    tracer = Tracer()
    if mode == "traced":
        install(tracer)
    start = time.perf_counter()
    code = cli.main(command)
    run_s = time.perf_counter() - start
    result = {"exit": code, "run_s": run_s}
    if mode == "traced":
        result["metrics"] = layer_metrics(tracer)
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
