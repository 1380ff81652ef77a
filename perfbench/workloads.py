"""Workloads of the rydpacket benchmark: inputs, ops and correctness checks.

Every workload turns a seed into *rounds* of op inputs.  A round has a
fixed structure (which kinds of target or config, in which order); the
seed only draws the values (matrix entries, nbar, overrides, pulse
parameters).  The timed phase runs whole rounds, one op at a time, so
every run of a workload sees the same mix of op kinds and its median
and throughput do not depend on where the clock happened to stop.
Each round is drawn fresh from the seeded generator when the loop needs
it: no input is replayed, so a cache only gains where the workload
itself repeats work.

The program only ever receives matrices and configs: Haar targets are
made here from numpy QR of a complex Gaussian, never by the program.

Why each workload exists, and what it predicts for the two planned
changes (ROADMAP item 2: a per-schedule propagator cache for pulses;
ROADMAP item 3: one executor for timed programs):

verify_full
    compile_unitary, then process_fidelity(mode="exact", pulses="full")
    on Haar targets with d in {2, 3, 4} and two-level-sparse targets
    with d in {4, 8}.  Over 99% of its time is in pulse.integrate_pulse
    (RK45), once per pulse per probe, and every pulse of a gate has the
    same shape: pulse.reuse_ratio is high.  Item 2 should raise
    ops_per_s and lower op_p50_ms here by a large factor.  Item 3 should
    leave it flat, since the executor loop is a small share.  d = 8 Haar
    (about a minute per op) stays out until a faster route exists.

compile_ideal
    decompose_unitary, compile_unitary, a schedule_to_json /
    schedule_from_json round trip, and process_fidelity(mode="taylor1",
    pulses="ideal") on Haar targets with d in {4, 8, 16}.  It never
    calls the ODE solver (pulse.integrate.calls is 0).  Most of its time
    is the per-primitive loop of gates.simulate_schedule, plus JSON.
    Item 3 should move it; item 2 must leave it flat (within bounds).

scenarios_cli
    In-process rydpacket.cli.main(["run", ...]) over every registered
    scenario with seeded overrides, and over seeded declarative YAML
    configs (waits, shifts, single detuned / phased pulses on g and e,
    small gate events), with traces and artifacts written to a
    temporary directory.  It uses the same pulse layer differently:
    traced pulses need dense output and almost every pulse has its own
    shape, so pulse.reuse_ratio is low.  A cache from item 2 should
    gain little here; a change that slows single traced pulses, the
    free-flight path, revival scans, kernels or the cli / scenarios
    parsing and reporting shows here.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from rydpacket import cli, gates, manifold

# The seed whose full-model fidelities and scenario observables are
# stored in reference.json.
DEFAULT_SEED = 0
REL_TOL = 1e-10           # the tolerances the frozen tests use:
ABS_TOL = 1e-12           # rel for O(1) values, abs for values near zero
DESIGN_FIDELITY_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-9
NORM_TOL = 1e-8

NBARS = (176, 178, 180, 182, 184)
REFERENCE_ROUNDS = 2      # rounds of the default seed stored in reference.json


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random U(d): QR of a complex Gaussian with phase-fixed R."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))[None, :]


def two_level_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Identity except for one Haar U(2) block on a random slot pair."""
    a, b = sorted(int(x) for x in rng.choice(d, size=2, replace=False))
    U = np.eye(d, dtype=complex)
    U[np.ix_([a, b], [a, b])] = haar_unitary(rng, 2)
    return U


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x))))


def _reconstruction_error(U: np.ndarray, spec) -> float:
    ops = gates.decompose_unitary(U, spec)
    return float(np.max(np.abs(gates.compose_ops(ops, spec) - U)))


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)
    return got == want


# ---------------------------------------------------------------------------
# verify_full

# (kind, d) of the ops of one round: 6 Haar d=2, 12 two-level d=4, 2 Haar
# d=3, 2 two-level d=8, 1 Haar d=4.  The two-level d = 4 targets are the
# middle of the cost order and over half of the ops, so the median and
# the tail percentile both fall inside that one class for any number of
# whole rounds, and a run's figures rest on many ops, not on two.
_H2, _T4, _H3, _T8, _H4 = (("haar", 2), ("two_level", 4), ("haar", 3),
                           ("two_level", 8), ("haar", 4))
VERIFY_ROUND = (_T4, _H2, _T4, _H3, _T4, _H2, _T4, _T8, _T4, _H2, _T4, _H4,
                _T4, _H2, _T4, _T8, _T4, _H2, _T4, _H3, _T4, _H2, _T4)


def verify_round(rng, workdir, r):
    ops = []
    for kind, d in VERIFY_ROUND:
        nbar = int(rng.choice(NBARS))
        U = haar_unitary(rng, d) if kind == "haar" else two_level_unitary(rng, d)
        ops.append({"label": f"{kind}_d{d}", "nbar": nbar, "U": U})
    return ops


def verify_op(op):
    spec = manifold.ManifoldSpec(nbar=op["nbar"], d=op["U"].shape[0])
    schedule = gates.compile_unitary(op["U"], spec)
    fid = gates.process_fidelity(schedule, op["U"], mode="exact", pulses="full")
    return {"spec": spec, "schedule": schedule, "fidelity": fid}


def verify_check(op, out):
    fid = out["fidelity"]
    if not (math.isfinite(fid) and 0.0 <= fid <= 1.0 + 1e-9):
        return f"full-model fidelity {fid!r} is not a probability"
    if not out["schedule"].primitives:
        return "compiled schedule is empty"
    err = _reconstruction_error(op["U"], out["spec"])
    if not err <= RECONSTRUCTION_TOL:
        return f"decompose/compose reconstruction error {err:.3e}"
    return None


def verify_record(op, out):
    return {"fidelity": out["fidelity"],
            "pulses": out["schedule"].manifold_pulse_count()}


# ---------------------------------------------------------------------------
# compile_ideal

COMPILE_ROUND = (4, 8, 16, 4, 8, 16)


def compile_round(rng, workdir, r):
    return [{"label": f"haar_d{d}", "nbar": int(rng.choice(NBARS)),
             "U": haar_unitary(rng, d)} for d in COMPILE_ROUND]


def compile_op(op):
    spec = manifold.ManifoldSpec(nbar=op["nbar"], d=op["U"].shape[0])
    factors = gates.decompose_unitary(op["U"], spec)
    schedule = gates.compile_unitary(op["U"], spec)
    text = gates.schedule_to_json(schedule)
    back = gates.schedule_from_json(text)
    fid = gates.process_fidelity(back, op["U"], mode="taylor1", pulses="ideal")
    return {"spec": spec, "factors": factors, "text": text, "back": back,
            "fidelity": fid}


def compile_check(op, out):
    d = op["U"].shape[0]
    fid = out["fidelity"]
    if not (math.isfinite(fid) and 1.0 - DESIGN_FIDELITY_TOL <= fid <= 1.0 + 1e-9):
        return f"design-model fidelity {fid!r} below 1 - {DESIGN_FIDELITY_TOL:g}"
    if len(out["factors"]) > d * (d - 1) // 2 + (d + 1) // 2:
        return f"{len(out['factors'])} factors exceed the d(d-1)/2 + ceil(d/2) bound"
    err = float(np.max(np.abs(gates.compose_ops(out["factors"], out["spec"]) - op["U"])))
    if not err <= RECONSTRUCTION_TOL:
        return f"decompose/compose reconstruction error {err:.3e}"
    if gates.schedule_to_json(out["back"]) != out["text"]:
        return "schedule JSON does not survive a round trip"
    return None


# ---------------------------------------------------------------------------
# scenarios_cli

# Scenarios whose run produces a time series; only these get --trace
# (the cli exits 2 when --trace is asked of a scenario without one).
TRACED_SCENARIOS = {"shift_gate_demo", "fig2_dark_packet", "revival_recovery"}
# revival_recovery fails its recovery-deficit band on purpose: at
# nbar = 180, d = 8 about 15% of the autocorrelation stays unrecovered
# (the strict xfail of the test suite).  That FAIL is the right answer.
EXPECTED_FAILS = {"revival_recovery": {"revival_recovery_deficit"}}
EXPECTED_ARTIFACTS = {"compile_random_unitary": "schedule.json",
                      "dispersion_nbar_scaling": "nbar_scaling.csv"}
REGISTERED = ("time_scales", "qft_roundtrip", "shift_gate_demo", "kernel_identity",
              "rabi_dft_ratio", "fig2_dark_packet", "two_level_vs_full",
              "revival_recovery", "dispersion_nbar_scaling", "pulse_constraints",
              "compile_random_unitary")
# Declarative templates per round and how often each appears.  Single
# pulses dominate so that most integrations have a shape of their own.
DECLARATIVE_ROUND = (("flight", 18), ("pulse_g", 45), ("pulse_e", 45),
                     ("pulse_pair", 36), ("gate_pulse", 9), ("gate", 9))


def _scenario_overrides(rng, name):
    """Seeded overrides, kept inside the ranges where every check holds."""
    params, seed = {}, int(rng.integers(0, 2**31 - 1))
    if name in ("time_scales", "kernel_identity", "rabi_dft_ratio", "fig2_dark_packet",
                "two_level_vs_full", "dispersion_nbar_scaling", "pulse_constraints"):
        params["d"] = int(rng.integers(4, 13))
    if name == "compile_random_unitary":
        params["d"] = int(rng.integers(3, 5))   # full-model fidelity >= 0.9 holds for d <= 4
    if name == "qft_roundtrip":
        params["n_states"] = int(rng.integers(200, 1001))
    if name == "shift_gate_demo":
        params["n_states"] = int(rng.integers(2, 7))
    if name == "kernel_identity":
        params["n_pairs"] = int(rng.integers(50, 151))
    if name == "revival_recovery":
        params["window"] = float(rng.uniform(0.01, 0.04))
    cfg = {"scenario": name, "params": params}
    if name in ("qft_roundtrip", "shift_gate_demo", "kernel_identity",
                "compile_random_unitary"):
        cfg["seed"] = seed
    return cfg


def _quantity(value, unit):
    return f"{float(value)!r} {unit}"


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _pulse_event(rng, d, target, area=None, detuning=0.0, phase=0.0):
    ev = {"fwhm": _quantity(rng.uniform(0.1, 0.35) / d, "kepler"),
          "target": target,
          "slot": int(rng.integers(-((d - 1) // 2), d // 2 + 1))}
    ev["area"] = "pi" if area is None else float(area)
    if detuning:
        ev["detuning"] = float(detuning)
    if phase:
        ev["phase"] = float(phase)
    return {"pulse": ev}


def _declarative(rng, template):
    nbar = int(rng.integers(170, 191))
    gated = template in ("gate_pulse", "gate")
    d = int(rng.integers(3, 6)) if gated else int(rng.integers(3, 9))
    level_step = 1.0 / nbar**3           # 2 pi / t_kepler, the level spacing in au
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    state_kind = int(rng.integers(0, 3))
    if state_kind == 0:
        initial = "uniform_packet"
    elif state_kind == 1:
        initial = {"packet": int(rng.integers(-((d - 1) // 2), d // 2 + 1))}
    else:
        initial = {"amplitudes": {"basis": "packet", "values": _pairs(z / np.linalg.norm(z))}}
    events = []
    if gated:
        U = two_level_unitary(rng, d)
        events.append({"gate": {"unitary": [_pairs(row) for row in U]}})
    if template == "flight":
        events += [{"wait": _quantity(rng.uniform(0.1, 3.0), "kepler")},
                   {"shift": int(rng.integers(1, d))},
                   {"wait": float(rng.uniform(0.0, 2.0) * nbar**3)}]
    elif template == "pulse_g":
        events.append(_pulse_event(rng, d, "g"))
        events.append({"wait": _quantity(rng.uniform(0.05, 1.0), "kepler")})
    elif template == "pulse_e":
        events.append(_pulse_event(rng, d, "e", area=rng.uniform(0.3, 3.5),
                                   detuning=rng.uniform(-2.0, 2.0) * level_step,
                                   phase=rng.uniform(0.0, 2.0 * math.pi)))
        events.append({"shift": int(rng.integers(1, d))})
    elif template == "pulse_pair":
        events.append(_pulse_event(rng, d, "g", phase=rng.uniform(0.0, 2.0 * math.pi)))
        events.append({"wait": _quantity(rng.uniform(0.05, 0.5), "kepler")})
        events.append(_pulse_event(rng, d, "e", area=rng.uniform(0.3, 3.5),
                                   detuning=rng.uniform(-1.0, 1.0) * level_step))
    elif template == "gate_pulse":
        events.append({"wait": _quantity(rng.uniform(0.05, 0.5), "kepler")})
        events.append(_pulse_event(rng, d, str(rng.choice(["g", "e"]))))
    else:
        events.append({"shift": int(rng.integers(1, d))})
    cfg = {"manifold": {"nbar": nbar, "d": d},
           "spectrum": str(rng.choice(["exact", "exact", "exact", "taylor2", "taylor3"])),
           "initial_state": initial,
           "events": events}
    traced = template != "gate" or bool(rng.integers(0, 2))
    outputs = {"trace_points": int(rng.integers(20, 81)) if traced else 0}
    if rng.integers(0, 2):
        outputs["observables"] = ["autocorrelation"]
    cfg["outputs"] = outputs
    return cfg, traced


def scenario_round(rng, workdir, r):
    """Write the YAML configs of round r into workdir."""
    art = os.path.join(workdir, "artifacts")
    trace = os.path.join(workdir, "trace.csv")
    items = [(name, _scenario_overrides(rng, name), name in TRACED_SCENARIOS)
             for name in REGISTERED]
    for template, count in DECLARATIVE_ROUND:
        for _ in range(count):
            cfg, traced = _declarative(rng, template)
            items.append(("declarative_" + template, cfg, traced))
    # spread each kind over the whole round, so that the median and the
    # tail sample the machine across the run, not in one short stretch
    items = [items[i] for i in rng.permutation(len(items))]
    ops = []
    for i, (label, cfg, traced) in enumerate(items):
        path = os.path.join(workdir, f"r{r}_{i:03d}_{label}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, default_flow_style=None, sort_keys=False)
        argv = ["run", path, "--artifacts", art] + (["--trace", trace] if traced else [])
        name = cfg.get("scenario", "declarative")
        ops.append({"label": label, "argv": argv, "scenario": name,
                    "trace": trace if traced else None,
                    "artifact": (os.path.join(art, EXPECTED_ARTIFACTS[name])
                                 if name in EXPECTED_ARTIFACTS else None)})
    return ops


def scenario_prepare(op):
    """Remove last op's outputs so the check sees this op's own files."""
    for path in (op["trace"], op["artifact"]):
        if path and os.path.exists(path):
            os.remove(path)


def scenario_op(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    return {"rc": rc, "report": out.getvalue(), "stderr": err.getvalue()}


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)\.(\S+): ")
_NUMPY_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


def _value(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return float(text)      # nan and inf have no literal form


def parse_report(report: str):
    """(failed check names, observables) from a `rydpacket run` report."""
    fails, obs = set(), {}
    for line in report.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            if m.group(1) == "FAIL":
                fails.add(m.group(3))
        elif line.startswith("  ") and not line.startswith("  param ") and " = " in line:
            key, text = line.strip().split(" = ", 1)
            m = _NUMPY_SCALAR.match(text)
            obs[key] = _value(m.group(1) if m else text)
    return fails, obs


def _read_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def scenario_check(op, out):
    expected_rc = 1 if op["scenario"] in EXPECTED_FAILS else 0
    if out["rc"] != expected_rc:
        return f"exit code {out['rc']} (expected {expected_rc}): {out['stderr'].strip()}"
    fails, obs = parse_report(out["report"])
    if fails != EXPECTED_FAILS.get(op["scenario"], set()):
        return f"failed checks {sorted(fails)}"
    if not obs:
        return "report lists no observables"
    for key, value in obs.items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"observable {key} = {value!r}"
    if not obs.get("norm_error", 0.0) <= NORM_TOL:
        return f"norm drifted by {obs['norm_error']!r}"
    if op["trace"]:
        if not os.path.exists(op["trace"]):
            return "no trace written"
        header, data = _read_trace(op["trace"])
        if header[0] != "t_au" or data.ndim != 2 or data.shape[0] < 2 or not _finite(data):
            return "trace CSV is empty or not finite"
        if "norm_error" in header and not np.max(data[:, header.index("norm_error")]) <= NORM_TOL:
            return "trace shows norm drift"
    if op["artifact"] and not os.path.exists(op["artifact"]):
        return f"artifact {os.path.basename(op['artifact'])} not written"
    return None


def scenario_record(op, out):
    # norm_error is rounding noise, held to NORM_TOL by scenario_check
    obs = parse_report(out["report"])[1]
    obs.pop("norm_error", None)
    return {"rc": out["rc"], "observables": obs}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_round: Callable        # (rng, workdir, r) -> op inputs of round r, drawn from rng
    run: Callable               # op -> output; the only part that is timed
    check: Callable             # (op, output) -> failure message or None
    record: Callable | None     # (op, output) -> what reference.json stores, if anything
    prepare: Callable | None = None   # op -> None, before the clock starts
    trace_ops: int | None = None      # ops of the first round a traced run uses (None: all)


WORKLOADS = {
    # the first 12 ops hold every kind of target; three passes over the
    # whole 23-op round would not fit a run's time limit on a slow machine
    "verify_full": Workload(verify_round, verify_op, verify_check, verify_record,
                            trace_ops=12),
    # design-model results are checked by invariants alone: no stored values
    "compile_ideal": Workload(compile_round, compile_op, compile_check, None),
    "scenarios_cli": Workload(scenario_round, scenario_op, scenario_check, scenario_record,
                              scenario_prepare),
}


def compare_reference(record: dict, want: dict) -> str | None:
    """Mismatch between a recorded op result and its stored reference."""
    for key, value in want.items():
        got = record.get(key)
        if isinstance(value, dict):
            if not isinstance(got, dict) or set(got) != set(value):
                return f"{key}: keys differ from the reference"
            for sub, v in value.items():
                if not _close(got[sub], v):
                    return f"{key}.{sub} = {got[sub]!r}, reference {v!r}"
        elif not _close(got, value):
            return f"{key} = {got!r}, reference {value!r}"
    return None


def load_reference(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
