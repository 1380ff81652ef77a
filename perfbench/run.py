"""Benchmark of rydpacket: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify_full --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The workloads (verify_full,
compile_ideal, scenarios_cli) and why each exists are described in
workloads.py.  This process only launches and times fresh interpreters
(worker.py), one at a time; it never imports rydpacket itself.

--trace 0 prints the end-to-end metrics:
  setup_s      median over five launches of a fresh interpreter until
               `import rydpacket` is done and the first round of inputs
               is generated
  ops_per_s    ops completed per second of (scaled) op time in the
               timed phase
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with at least 10 ops
               beyond it (the percentile and op count are printed)
  peak_rss_mb  peak resident memory of the workload process

All times are given at a fixed machine speed.  The machine this
benchmark was written on shares its cores with other tenants, and the
speed it gives one process swings by up to a factor of two over seconds
to minutes, for the program and for any other code alike.  So the
worker times a fixed calibration kernel (an RK45 solve in scipy that
never calls rydpacket; worker.calibration_kernel) between ops, and each
op's latency is scaled by CAL_REF_S / (the mean of the calibrations just
before and after it); each launch's set-up time is scaled by a
calibration the worker makes right after READY.  A change to rydpacket
moves these figures as it moves the raw ones, while most of the
machine's swings cancel.  The raw figures and the median calibration
time are printed too, as `raw ...` lines and in the context line.

--trace 1 prints the per-layer metrics of a traced run (see tracing.py):
three fresh processes run the same ops, one untraced and two traced.
The two traced ones must agree on every exact count, the seven layers'
self time must cover at least 99% of the traced wall time, and
trace.overhead_s is the traced minus the untraced op time, both scaled
like the op latencies (the other times of a traced run are not scaled).

Every op's result is checked; error_rate (ops that raised, returned
non-finite values or failed a check, over ops attempted) is printed and
is the `failed` / `attempted` pair of the result line.  The run context
(machine, nproc, versions, BLAS threads, seed, op count) is printed as a
JSON line before the result.
"""

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 5          # setup_s is the median over this many launches
# Op times are reported as if the calibration kernel took this long, about
# its time on a 2-vCPU Xeon VM at 2.1 GHz when the host is quiet.
CAL_REF_S = 0.011
BLAS_THREADS = 1            # one client and small matrices; never above nproc
DEADLINE_S = 170.0          # a run must end within 180 s
ACCOUNTED_MIN = 0.99        # share of traced wall time the layers' self time must cover


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, mode, deadline):
    """Start worker.py; return (seconds until READY, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker did not finish in time")
    if proc.returncode != 0 or first.strip() != "READY":
        fail(f"worker exited with code {proc.returncode}", proc.returncode or 1)
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def tail(latencies):
    """(latency, percentile) at the highest percentile with >= 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    return lat[n - 11], 100.0 * (n - 10) / n


def scaled(result):
    """A worker's op latencies at the reference machine speed, in seconds."""
    return [t * CAL_REF_S / c for t, c in zip(result["latencies_s"], result["op_cal_s"])]


def op_timings(latencies):
    """The op metrics from op latencies in seconds."""
    tail_s, _ = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
    }


def trace_problems(plain, first, second):
    """What the three passes of a traced run disagree on, as messages."""
    problems = []
    a, b = first["signature"], second["signature"]
    for part in a:
        if a[part] != b[part]:
            problems.append(f"{part} differ between two traced runs")
    share = first["layers_self_s"] / first["wall_s"]
    if not ACCOUNTED_MIN <= share <= 1.0 + 1e-9:
        problems.append(f"layer spans cover {share:.4f} of the traced wall time")
    if plain["ops"] != first["ops"]:
        problems.append("the untraced and traced passes ran different ops")
    return problems


def context(args, result, raw=None):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": result["attempted"],
        "rounds": result.get("rounds"),
        "calibration_ref_ms": 1e3 * CAL_REF_S,
        "calibration_ms": 1e3 * statistics.median(result["cal_s"]) if "cal_s" in result else None,
        "raw": raw,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    src = os.path.join(ROOT, "src", "rydpacket")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        fail(f"no rydpacket sources under {os.path.join(ROOT, 'src')}", 2)
    # byte-compile once so no timed launch pays for it
    if not compileall.compile_dir(src, quiet=1):
        fail("rydpacket sources do not compile", 2)

    if args.trace:
        passes = [launch(args, mode, deadline)[1] for mode in ("plain", "traced", "traced")]
        plain, first, second = passes
        result = {"attempted": sum(p["attempted"] for p in passes),
                  "failed": sum(p["failed"] for p in passes),
                  "errors": [e for p in passes for e in p["errors"]]}
    else:
        setups = [launch(args, "setup", deadline) for _ in range(SETUP_LAUNCHES - 1)]
        t_ready, result = launch(args, "loop", deadline)
        ready = [t for t, _ in setups] + [t_ready]
        ready_cal = [r["ready_cal_s"] for _, r in setups] + [result["ready_cal_s"]]

    for err in result["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    correct = result["failed"] == 0
    if args.trace:
        print(json.dumps({"context": context(args, result)}))
        problems = trace_problems(plain, first, second)
        for problem in problems:
            print(f"TRACE CHECK FAILED {problem}", file=sys.stderr)
        correct = correct and not problems
        values = dict(first["layers"])
        values["setup.import_s"] = first["import_s"]
        values["setup.inputs_s"] = first["inputs_s"]
        values["trace.wall_s"] = first["wall_s"]
        values["trace.overhead_s"] = sum(scaled(first)) - sum(scaled(plain))
        values["trace.accounted_share"] = first["layers_self_s"] / first["wall_s"]
        values["trace.ops"] = first["ops"]
    else:
        raw = op_timings(result["latencies_s"])
        raw["setup_s"] = statistics.median(ready)
        values = op_timings(scaled(result))
        values["setup_s"] = statistics.median(
            [t * CAL_REF_S / c for t, c in zip(ready, ready_cal)])
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        print(json.dumps({"context": context(args, result, raw)}))
        for name, value in raw.items():
            print(f"raw {name} = {value!r}")
    declared = declared_metrics(args.trace)
    if set(values) != set(declared):
        fail(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            n = len(result["latencies_s"])
            note = f"  (p{tail(result['latencies_s'])[1]:.1f} of {n} ops)"
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    print(f"error_rate = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
