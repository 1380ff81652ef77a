"""The benchmark's stored seed-0 results, replayed in-process.

perfbench/run.py at the default seed checks every op's result against
perfbench/reference.json.  This test draws the same ops from the same
seeded generator, runs and checks each as a benchmark worker does
(untimed), and compares its record with the stored one, so a change
that moves a stored value fails here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = workloads.load_reference(str(PERFBENCH / "reference.json"))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_default_seed_ops_match_the_stored_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    stored = REFERENCE[name]
    rng = np.random.default_rng(workloads.DEFAULT_SEED)
    ops = []
    r = 0
    while len(ops) < len(stored):
        ops += wl.make_round(rng, str(tmp_path), r)
        r += 1
    mismatches = []
    for i, (op, want) in enumerate(zip(ops, stored)):
        if wl.prepare:
            wl.prepare(op)
        out = wl.run(op)
        msg = wl.check(op, out) or workloads.compare_reference(wl.record(op, out), want)
        if msg is not None:
            mismatches.append(f"op {i} ({op['label']}): {msg}")
    assert not mismatches, "\n".join(mismatches)
