"""One benchmark process: set up, run one workload, report as JSON.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  It prints READY once rydpacket is imported and the
first round of the workload's inputs exists (run.py times the launch up
to that line), then a single JSON line with what it measured.

--mode loop: a closed loop with one client runs whole rounds of ops
until --seconds of op time have passed (and at least 11 ops, so the
latency tail has 10 ops beyond it).  Each op is timed from outside the
program and checked after the clock stops.  Rounds after the first are
drawn from the seeded generator as the loop reaches them, outside the
op timing.  Between ops, at least every CAL_EVERY_S of op time, the
loop times a fixed calibration kernel (see calibration_kernel); each op
is reported with the mean of the two calibrations around it.

--mode plain / --mode traced: the first trace_ops ops of the first
round, once each, untraced or with every layer wrapped (tracing.py),
calibrated as in the loop.  The tracer is installed for the op alone, so
checks, input preparation and calibrations stay outside the spans and
outside the wall time.  run.py starts one plain and two traced processes
and compares them.

--mode setup: time the calibration kernel for SETUP_CAL_S after READY,
report it and stop (run.py times several launches; the loop launch
reports the same calibration).
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 11
CAL_EVERY_S = 0.3         # op time between two calibrations
CAL_SHARE = 0.03          # a calibration lasts this share of the op time it follows,
CAL_MIN_RUNS = 3          # and runs the kernel at least this often
SETUP_CAL_S = 0.1         # calibration time after READY, for scaling set-up time


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "loop", "plain", "traced"), required=True)
    p.add_argument("--root", required=True)
    return p.parse_args(argv)


class Runner:
    """Runs and checks the ops of one workload, keeping the failures."""

    def __init__(self, workload, reference, compare):
        self.wl = workload
        self.reference = reference      # op index -> stored record (default seed only)
        self.compare = compare
        self.errors: list[str] = []
        self.attempted = 0

    def attempt(self, index, op, tracer=None):
        """Run one op, then check it; return the op's own latency in seconds.

        A tracer, if given, is installed for the op alone.
        """
        self.attempted += 1
        if self.wl.prepare:
            self.wl.prepare(op)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, msg = self.wl.run(op), None
        except Exception as e:   # an op that raises counts as failed; the loop goes on
            out, msg = None, f"raised {type(e).__name__}: {e}"
        lat = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if msg is None:
            msg = self.check(index, op, out)
        if msg is not None:
            self.errors.append(f"{op['label']}: {msg}")
        return lat

    def check(self, index, op, out):
        try:
            msg = self.wl.check(op, out)
            if msg is None and index in self.reference:
                msg = self.compare(self.wl.record(op, out), self.reference[index])
        except Exception as e:   # a check that cannot run is a failed check
            msg = f"check raised {type(e).__name__}: {e}"
        return msg


def calibration_kernel():
    """A fixed task of the same kind as the program's hot path, independent of it.

    An adaptive RK45 solve (scipy) of an 8-state complex linear ODE with a
    Gaussian envelope and a numpy right-hand side: interpreter, small
    numpy calls and the scipy stepper, like rydpacket's pulse and
    schedule loops.  It never calls rydpacket, so a change to the program
    cannot change its work; its time tracks how fast the shared machine
    runs this process at the moment.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    k = np.arange(8)
    h = np.cos(np.add.outer(k, 2 * k)) + 1j * np.sin(np.multiply.outer(k, k))
    h = h + h.conj().T
    y0 = np.ones(8, dtype=complex) / np.sqrt(8.0)

    def rhs(t, y):
        return 0.5j * np.exp(-t * t / 50.0) * (h @ y)

    return lambda: solve_ivp(rhs, (-5.0, 5.0), y0, method="RK45", rtol=1e-8, atol=1e-10)


def calibrate(kernel, min_s=0.0):
    """Mean wall time of one kernel run, in seconds.

    The kernel runs at least CAL_MIN_RUNS times and for at least min_s,
    so that a long op, during which the machine's speed changes many
    times, is scaled by an average over a longer stretch.  The worker
    must have no other thread: work the program left running would slow
    the kernel and so make the program's scaled times look faster.
    """
    if len(os.listdir("/proc/self/task")) != 1:
        raise RuntimeError("the worker must be single-threaded while it calibrates")
    runs, t0 = 0, time.perf_counter()
    while runs < CAL_MIN_RUNS or time.perf_counter() - t0 < min_s:
        kernel()
        runs += 1
    return (time.perf_counter() - t0) / runs


class Calibration:
    """Times the kernel between ops, at least every CAL_EVERY_S of op time."""

    def __init__(self):
        self.kernel = calibration_kernel()
        self.times = [calibrate(self.kernel)]
        self.segment: list[int] = []    # per op: index of the calibration before it
        self.since = 0.0

    def after(self, latency):
        self.segment.append(len(self.times) - 1)
        self.since += latency
        if self.since >= CAL_EVERY_S:
            self.times.append(calibrate(self.kernel, CAL_SHARE * self.since))
            self.since = 0.0

    def per_op(self):
        """Mean of the calibrations just before and just after each op."""
        if self.segment[-1] == len(self.times) - 1:
            self.times.append(calibrate(self.kernel, CAL_SHARE * self.since))
        return [(self.times[j] + self.times[j + 1]) / 2 for j in self.segment]


def loop(runner, make_round, ops, seconds):
    """Run rounds until `seconds` of op time; ops is round 0, later ones are drawn."""
    latencies, cal, r = [], Calibration(), 0
    size = len(ops)
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        if r:
            ops = make_round(r)
        for i, op in enumerate(ops):
            latencies.append(runner.attempt(r * size + i, op))
            cal.after(latencies[-1])
        r += 1
    return {"latencies_s": latencies, "op_cal_s": cal.per_op(), "cal_s": cal.times,
            "rounds": r}


def trace_pass(runner, ops, traced, spans_path):
    """Each op once; with traced, every layer wrapped and the spans summarised."""
    from tracing import LAYERS, Tracer, layer_metrics

    tracer = Tracer() if traced else None
    latencies, cal = [], Calibration()
    for i, op in enumerate(ops):
        latencies.append(runner.attempt(i, op, tracer))
        cal.after(latencies[-1])
    result = {"wall_s": sum(latencies), "latencies_s": latencies, "op_cal_s": cal.per_op(),
              "ops": len(ops)}
    if tracer is not None:
        tracer.write(spans_path)
        layers = layer_metrics(tracer)
        result["layers"] = layers
        result["layers_self_s"] = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        result["signature"] = tracer.signature()
    return result


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import rydpacket
    from rydpacket import cli, gates, manifold  # noqa: F401  (the layers the ops call)
    t_import = time.perf_counter() - t0
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(rydpacket.__file__).startswith(src + os.sep):
        print(f"rydpacket imported from {rydpacket.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(args.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        t1 = time.perf_counter()
        rng = np.random.default_rng(args.seed)
        first = wl.make_round(rng, workdir, 0)
        t_inputs = time.perf_counter() - t1
        print("READY", flush=True)
        if args.mode in ("setup", "loop"):
            ready_cal = calibrate(calibration_kernel(), SETUP_CAL_S)
        if args.mode == "setup":
            print(json.dumps({"ready_cal_s": ready_cal}), flush=True)
            return 0

        reference = {}
        if args.seed == workloads.DEFAULT_SEED:
            stored = workloads.load_reference(os.path.join(HERE, "reference.json"))
            reference = dict(enumerate(stored.get(args.workload, [])))
        runner = Runner(wl, reference, workloads.compare_reference)
        result = {"import_s": t_import, "inputs_s": t_inputs}
        if args.mode == "loop":
            result["ready_cal_s"] = ready_cal
            result.update(loop(runner, lambda r: wl.make_round(rng, workdir, r), first,
                               args.seconds))
        else:
            spans = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result.update(trace_pass(runner, first[:wl.trace_ops], args.mode == "traced",
                                     spans))
        result.update({
            "attempted": runner.attempted,
            "failed": len(runner.errors),
            "errors": runner.errors[:20],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
