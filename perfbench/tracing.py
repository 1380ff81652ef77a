"""Per-layer tracing of rydpacket from outside the package.

Tracer.install() wraps every public function and every public method of
the layer modules (manifold, basis, evolution, pulse, gates, scenarios,
cli).  A function imported by name into another module is patched there
too, so calls between layers are seen where they are made.  Each call
becomes a span (name, start, end, parent); spans stay in memory and are
summarised and written out when the run ends.  A layer's self time is
its spans' durations minus the time covered by their child spans.

The solver statistics that integrate_pulse discards (sol.nfev, sol.t)
are read by wrapping rydpacket.pulse.solve_ivp and credited to the
innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("manifold", "basis", "evolution", "pulse", "gates", "scenarios", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pulse_keys: list[tuple] = []   # one per integrate_pulse call
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _exit(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, out)
                return out
            finally:
                self._exit()
        return traced

    # -- install ----------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("rydpacket")
        modules = [pkg] + [importlib.import_module(f"rydpacket.{m}")
                           for m in LAYERS + ("constants",)]
        for layer in LAYERS:
            mod = importlib.import_module(f"rydpacket.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(f"{layer}.{name}", obj, HOOKS.get(f"{layer}.{name}"))
                    for other in modules:
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{name}.{meth}", fn))
        pulse = importlib.import_module("rydpacket.pulse")
        self._patch(pulse, "solve_ivp", self._counting_solver(pulse.solve_ivp))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counting_solver(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            caller = self.spans[self.stack[-1]][0] if self.stack else "none"
            self.counts[f"{caller}.rk_steps"] += len(sol.t) - 1
            self.counts[f"{caller}.rhs_evals"] += int(sol.nfev)
            return sol
        return counted

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def signature(self) -> dict:
        """The exact counts of the run: calls per span name, counters, distinct pulses."""
        return {"calls": {name: row["calls"] for name, row in sorted(self.summary().items())},
                "counts": dict(sorted(self.counts.items())),
                "distinct_pulses": len(set(self.pulse_keys))}

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


# -- counters taken at layer boundaries ------------------------------------


def _integrate_key(tracer, args, kwargs, out):
    state = args[0]
    pulse = args[1] if len(args) > 1 else kwargs["pulse"]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    tracer.pulse_keys.append((state.spec.nbar, state.spec.d, mode, pulse.fwhm,
                              pulse.peak_rabi, pulse.carrier_detuning))


def _count(metric, measure):
    def after(tracer, args, kwargs, out):
        tracer.counts[metric] += measure(args, kwargs, out)
    return after


HOOKS = {
    "pulse.integrate_pulse": _integrate_key,
    "gates.decompose_unitary": _count("gates.decompose.factors", lambda a, k, out: len(out)),
    "gates.compile_unitary": _count(
        "gates.compile.pulses",
        lambda a, k, out: sum(type(p).__name__ == "ManifoldPiPulse" for p in out.primitives)),
    "gates.schedule_to_json": _count("gates.json.bytes", lambda a, k, out: len(out)),
    "gates.schedule_from_json": _count("gates.json.bytes",
                                       lambda a, k, out: len(a[0] if a else k["text"])),
    "gates.probe_states": _count("gates.process_fidelity.probes", lambda a, k, out: len(out)),
    "evolution.revival_scan": _count(
        "evolution.revival_scan.grid_points",
        lambda a, k, out: len(a[2] if len(a) > 2 else k["t_grid"])),
}

# metric prefix -> (span names whose self time it sums, span names whose calls it counts)
GROUPS = {
    "pulse.integrate": (("pulse.integrate_pulse",), ("pulse.integrate_pulse",)),
    "pulse.two_level_oracle": (("pulse.two_level_oracle",), ("pulse.two_level_oracle",)),
    "pulse.calibration": (("pulse.pi_pulse_peak_rabi",), ("pulse.pi_pulse_peak_rabi",)),
    # StoragePulse.matrix runs only inside the per-primitive loop
    "gates.simulate": (("gates.simulate_schedule", "gates.StoragePulse.matrix"),
                       ("gates.simulate_schedule",)),
    "gates.decompose": (("gates.decompose_unitary",), ("gates.decompose_unitary",)),
    "gates.compile": (("gates.compile_unitary",), ("gates.compile_unitary",)),
    "gates.json": (("gates.schedule_to_json", "gates.schedule_from_json"),
                   ("gates.schedule_to_json", "gates.schedule_from_json")),
    "gates.process_fidelity": (("gates.process_fidelity",), ("gates.process_fidelity",)),
    # packet_to_energy_matrix builds its matrix through energy_to_packet_matrix
    "basis.dft_matrix": (("basis.energy_to_packet_matrix", "basis.packet_to_energy_matrix"),
                         ("basis.energy_to_packet_matrix",)),
    # detunings dispatches to exact_detunings / taylor_detunings
    "manifold.detunings": (("manifold.detunings", "manifold.exact_detunings",
                            "manifold.taylor_detunings"), ("manifold.detunings",)),
    "evolution.revival_scan": (("evolution.revival_scan",), ("evolution.revival_scan",)),
    "evolution.kernel": (("evolution.evolution_kernel", "evolution.apply_kernel"),
                         ("evolution.evolution_kernel", "evolution.apply_kernel")),
    "scenarios.run": (("scenarios.run_scenario",), ("scenarios.run_scenario",)),
    "cli.main": (("cli.main",), ("cli.main",)),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run (values only; BENCHMARK.json has the units)."""
    rows = tracer.summary()
    m: dict[str, float] = {}
    for prefix, (self_names, call_names) in GROUPS.items():
        m[f"{prefix}.self_s"] = sum(rows[n]["self_s"] for n in self_names if n in rows)
        m[f"{prefix}.calls"] = sum(rows[n]["calls"] for n in call_names if n in rows)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self_s"] for n, r in rows.items()
                                   if n.split(".")[0] == layer)
    m["pulse.rk_steps"] = tracer.counts.get("pulse.integrate_pulse.rk_steps", 0)
    m["pulse.rhs_evals"] = tracer.counts.get("pulse.integrate_pulse.rhs_evals", 0)
    for key in ("gates.decompose.factors", "gates.compile.pulses", "gates.json.bytes",
                "gates.process_fidelity.probes", "evolution.revival_scan.grid_points"):
        m[key] = tracer.counts.get(key, 0)
    calls = m["pulse.integrate.calls"]
    m["pulse.integrate.ms_per_call"] = 1e3 * m["pulse.integrate.self_s"] / calls if calls else 0.0
    m["pulse.rhs_per_step"] = (m["pulse.rhs_evals"] / m["pulse.rk_steps"]
                               if m["pulse.rk_steps"] else 0.0)
    distinct = len(set(tracer.pulse_keys))
    m["pulse.reuse_ratio"] = calls / distinct if distinct else 0.0
    return {k: m[k] for k in sorted(m)}
