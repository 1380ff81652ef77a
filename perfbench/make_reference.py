"""Regenerate reference.json: op results of every workload at the default seed.

    python3 perfbench/make_reference.py

Runs each op of the first REFERENCE_ROUNDS rounds once, in the same
environment as a benchmark worker, checks it, and stores what the
workload records (full-model fidelities and pulse counts; scenario exit
codes and observables but norm_error).  Benchmark runs at the default
seed compare against these values within max(1e-10 * |reference|,
1e-12).  Regenerate only when a change is meant to alter these numbers,
and say so in CHANGES.md.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    import numpy as np
    import workloads

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        if wl.record is None:
            continue
        workdir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
        try:
            rng = np.random.default_rng(workloads.DEFAULT_SEED)
            ops = [op for r in range(workloads.REFERENCE_ROUNDS)
                   for op in wl.make_round(rng, workdir, r)]
            records = []
            for op in ops:
                if wl.prepare:
                    wl.prepare(op)
                out = wl.run(op)
                msg = wl.check(op, out)
                if msg is not None:
                    sys.exit(f"{name} {op['label']}: {msg}")
                records.append(wl.record(op, out))
            reference[name] = records
            print(f"{name}: {len(records)} ops", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if "--child" in sys.argv:
        build()
    else:
        sys.path.insert(0, HERE)
        from run import worker_env
        sys.exit(subprocess.run([sys.executable, __file__, "--child"], cwd=ROOT,
                                env=worker_env()).returncode)
