"""Benchmark of mfteams on seeded workloads, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload lifted_exact --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): lifted_exact, meanfield_large_n and
shared_kernel_long.  Everything runs in this one process with one worker and
single-threaded BLAS.  After an untimed warm-up pass the workload repeats
while another pass fits in --seconds.

Times are wall-clock seconds scaled to a reference host speed: a short
calibration loop runs before and after every operation, and each operation's
time is multiplied by CAL_REF_S over the mean of the two calibrations.  On a
shared machine host speed drifts by tens of percent within a minute; the
scaling removes most of that drift while keeping the unit.  The unscaled
times are reported too.

With --trace 0 the result reports end-to-end metrics: medians over passes of
the pass time and of its solve and rollout parts, the median set-up time of
fresh interpreters, peak RSS, and the share of operations that succeeded.
With --trace 1 untraced and traced passes alternate; the result reports
per-layer self times, call counts and sizes from the traced passes (span
times are unscaled), and the tracing overhead against the untraced passes.
The spans of the last traced pass are written to .bench_out/ under the
repository root.

The last line of standard output is the result as one JSON object; the line
before it is a JSON object with the environment, the sample counts, the
metrics that apply to only some workloads, and every failure.  Exits 2
without a result when the mfteams sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mfteams"
SETUP_SAMPLES = 5
# Median time of one Calibration call on a 2-core x86-64 Linux VM, Python 3.11, numpy 2.4.
CAL_REF_S = 0.030
SINGLE_THREAD = {
    "MFTEAMS_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CATEGORIES = ("solve", "rollout", "exact_eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, load the models and make the inputs (times set-up)")
    return parser.parse_args(argv)


class Calibration:
    """A fixed mix of the kinds of work the package does: streaming over an
    array larger than a core's L2 cache, building many small tuples, and
    small numpy calls.  Calling it returns the seconds it took."""

    def __init__(self):
        import numpy as np

        self.data = np.ones(1_000_000)  # 8 MB, kept for the whole run
        self.points = np.linspace(0.0, 1.0, 130).reshape(65, 2)
        self.slots = [None] * 30_000

    def __call__(self):
        import numpy as np

        # The collector is off and each new tuple replaces one just freed, so
        # the time does not depend on how many objects the run holds alive
        # (such as recorded spans).
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0.0
            for _ in range(6):
                np.multiply(self.data, 1.0, out=self.data)
                total += float(self.data.sum())
            slots = self.slots
            for _ in range(4):
                for i in range(len(slots)):
                    slots[i] = (i, 2 * i)
                total += sum(a for a, _ in slots)
            for i in range(300):
                total += int(np.abs(self.points - self.points[i % 65]).sum(axis=1).argmin())
            return time.perf_counter() - start
        finally:
            gc.enable()


class Outcome:
    """One operation of one pass: raw and scaled time and, if it failed, why."""

    def __init__(self, op, seconds, layer=None, message=None, known=False):
        self.op, self.seconds, self.scaled = op, seconds, seconds
        self.layer, self.message, self.known = layer, message, known

    @property
    def failed(self):
        return self.message is not None


def failing_layer(exc, default):
    """The package module of the innermost frame that raised, else `default`."""
    layer, tb = default, exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == PACKAGE:
            layer = path.stem
        tb = tb.tb_next
    return layer


def pass_time(outcomes, category=None, scaled=True):
    return sum(o.scaled if scaled else o.seconds for o in outcomes
               if o.op.category is not None and category in (None, o.op.category))


def metric(value, unit):
    return {"value": value, "unit": unit}


class Bench:
    """One benchmark run: a workload's operations, inputs and scratch space."""

    def __init__(self, args, workloads, checks, inputs, workdir):
        self.args, self.inputs, self.workdir = args, inputs, workdir
        self.ops = workloads.WORKLOADS[args.workload](inputs)
        self.known = workloads.KNOWN_DEFECTS.get(args.workload, {})
        self.cache = {}
        self.calibrate = Calibration()
        self._new_pass = workloads.Pass
        self._check_failed = checks.CheckFailed

    def run_op(self, op, p):
        sink = io.StringIO()
        known = op.name in self.known
        gc.collect()  # every operation starts from the same collector state
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                out = op.run(p)
        except Exception as exc:  # a failing operation is recorded, the pass goes on
            return Outcome(op, time.perf_counter() - start, failing_layer(exc, op.layer),
                           f"{type(exc).__name__}: {exc}", known)
        seconds = time.perf_counter() - start
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                op.check(p, out)
        except self._check_failed as exc:
            return Outcome(op, seconds, exc.layer, str(exc), known)
        except Exception as exc:  # a check that cannot read the output fails it
            return Outcome(op, seconds, failing_layer(exc, op.layer),
                           f"check raised {type(exc).__name__}: {exc}", known)
        return Outcome(op, seconds)

    def run_pass(self):
        """Run every operation once, each between two calibrations."""
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            p = self._new_pass(self.inputs, Path(tmp), self.cache)
            outcomes = []
            before = self.calibrate()
            for op in self.ops:
                outcome = self.run_op(op, p)
                after = self.calibrate()
                outcome.scaled = outcome.seconds * CAL_REF_S / ((before + after) / 2)
                outcomes.append(outcome)
                before = after
        return outcomes

    def setup_seconds(self):
        """Scaled and raw wall time of a fresh interpreter that imports
        mfteams, loads and validates the models and makes the seeded inputs."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        before = self.calibrate()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        return seconds * CAL_REF_S / ((before + self.calibrate()) / 2), seconds

    def repeat(self, run_one):
        """Call run_one while the next call is expected to end within
        --seconds, judged by the median call so far; call it at least once."""
        start = time.perf_counter()
        took = []
        while not took or time.perf_counter() - start + statistics.median(took) <= self.args.seconds:
            begin = time.perf_counter()
            run_one()
            took.append(time.perf_counter() - begin)

    def untraced(self):
        setup = [self.setup_seconds() for _ in range(SETUP_SAMPLES)]
        self.run_pass()  # warm-up, untimed
        passes = []
        self.repeat(lambda: passes.append(self.run_pass()))
        walls = [pass_time(outs) for outs in passes]
        parts = {c: statistics.median(pass_time(outs, c) for outs in passes) for c in CATEGORIES}
        outcomes = [o for outs in passes for o in outs]
        ok = sum(not o.failed for o in outcomes)
        summary = {
            "wall_s": metric(statistics.median(walls), "s"),
            "solve_s": metric(parts["solve"], "s"),
            "rollout_s": metric(parts["rollout"], "s"),
            "setup_s": metric(statistics.median(s for s, _ in setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": metric(ok / len(outcomes), "ratio"),
        }
        info = {
            # With few passes the 90th percentile is close to the slowest pass.
            "wall_s_p90": statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0],
            "exact_eval_s": parts["exact_eval"],
            "samples": {"wall_s": len(walls), "setup_s": len(setup)},
            "wall_samples_s": walls,
            "unscaled": {
                "wall_s": statistics.median(pass_time(outs, scaled=False) for outs in passes),
                "setup_s": statistics.median(raw for _, raw in setup),
                **{f"{op.name}_s": statistics.median(outs[i].seconds for outs in passes)
                   for i, op in enumerate(self.ops)},
            },
        }
        return summary, info, passes

    def traced(self):
        import mfteams
        import tracing

        tracer = tracing.Tracer({layer: getattr(mfteams, layer) for layer in tracing.LAYERS})
        plain, traced, summaries = [], [], []

        def pair():
            plain.append(self.run_pass())
            tracer.reset()
            tracer.install()
            try:
                traced.append(self.run_pass())
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())

        self.run_pass()  # warm-up, untimed
        self.repeat(pair)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{self.args.workload}.csv")
        passes = plain + traced
        base = statistics.median(pass_time(outs) for outs in plain)
        with_spans = statistics.median(pass_time(outs) for outs in traced)
        summary = {name: metric(statistics.median(s[name] for s in summaries), tracing.unit_of(name))
                   for name in summaries[0]}
        for layer in tracing.LAYERS:
            failed = sum(o.failed and o.layer == layer for outs in passes for o in outs)
            summary[f"{layer}.failed"] = metric(failed / len(passes), "count/pass")
        summary["trace.overhead_s"] = metric(with_spans - base, "s")
        summary["trace.overhead_share"] = metric((with_spans - base) / base, "ratio")
        info = {
            "samples": {"traced_passes": len(traced), "untraced_passes": len(plain)},
            "untraced_wall_s": base,
            "traced_wall_s": with_spans,
        }
        return summary, info, passes


def environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": int(os.environ["MFTEAMS_WORKERS"]),
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no mfteams sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mfteams

    if Path(mfteams.__file__).resolve().parent != PACKAGE:
        print(f"error: imported mfteams from {mfteams.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
        inputs = workloads.prepare(args.seed, workdir)
        if args.setup_only:
            return 0
        bench = Bench(args, workloads, checks, inputs, workdir)
        summary, extra, passes = bench.traced() if args.trace else bench.untraced()
    outcomes = [o for outs in passes for o in outs]
    failures = [o for o in outcomes if o.failed]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "calibration_ref_s": CAL_REF_S,
        "passes": len(passes),
        "operations_per_pass": len(bench.ops),
        "failed_ratio": len(failures) / len(outcomes),
        "failures": sorted({(o.op.name, o.layer, o.message, o.known) for o in failures}),
        **extra,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": all(o.known for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
