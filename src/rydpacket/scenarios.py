"""Scenario registry and declarative experiment runner.

Every headline number the package claims is wrapped in a named scenario
that re-derives it and prints machine-checkable PASS/FAIL lines, so one
CLI call reproduces and judges any figure quoted in the README.  Ad-hoc
experiments are driven by a strict declarative config (a mapping, loaded
from YAML by the CLI): manifold, initial state, event list, outputs.
Unknown fields are rejected; physical quantities are bare numbers in
atomic units or strings with an explicit unit tag ("0.89 ns", "1
kepler").

Output determinism: for a fixed config and seed, reports and traces are
byte-identical across runs.  Floats are printed with repr so no
precision is lost in regression comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .basis import (
    AmplitudeVector,
    energy_delta,
    energy_to_packet_matrix,
    iqft_packet_to_energy,
    packet_amplitudes_at,
    packet_delta,
    packet_to_energy_matrix,
    uniform_energy,
    uniform_packet,
)
from .constants import AU_TIME_NS, LN2, TIME_UNITS, is_finite_number
from .evolution import (
    TraceRecord,
    autocorrelation,
    evolution_kernel,
    find_autocorr_peak,
    revival_scan,
    shift_fidelity,
)
from .gates import (
    ProgramError,
    Wait,
    compile_unitary,
    compose_ops,
    decompose_unitary,
    next_core_crossing,
    process_fidelity,
    random_two_level_unitary,
    run_program,
    schedule_to_json,
)
from .manifold import SPECTRUM_MODES, ManifoldSpec, detunings, time_scales
from .pulse import (
    PulseSpec,
    SimulationState,
    check_input_area,
    check_input_fwhm,
    core_rabi_dft,
    pi_pulse_peak_rabi,
    rabi_profile,
    support_half_width,
    validate_pulse,
    two_level_oracle,
)


class ConfigError(ValueError):
    """A config that cannot be run: bad field, bad type, bad unit."""


class ScenarioError(RuntimeError):
    """A valid config whose simulation failed while running."""


# ---------------------------------------------------------------------------
# quantity and config parsing

MANIFOLD_UNITS = ("kepler", "revival", "superrevival")


def parse_quantity(value, where: str, spec: ManifoldSpec | None = None) -> float:
    """Parse a time quantity into atomic units.

    Bare numbers are already atomic units.  Strings must be
    'NUMBER unit' with unit one of the SI tags (s, ms, us, ns, ps, fs),
    'au', or a manifold-relative tag (kepler, revival, superrevival)
    which needs a manifold for scale.  The result must be finite.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a quantity, got a boolean")
    if isinstance(value, (int, float)):
        return _finite(value, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a number or 'NUMBER unit' string, "
                          f"got {_received(value)}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{where}: quantity must look like '0.89 ns', got {_received(value)}")
    try:
        num = float(parts[0])
    except ValueError:
        raise ConfigError(f"{where}: bad number in {value!r}") from None
    unit = parts[1]
    if unit in TIME_UNITS:
        return _finite(num * TIME_UNITS[unit], where)
    if unit in MANIFOLD_UNITS:
        if spec is None:
            raise ConfigError(f"{where}: unit {unit!r} needs a manifold context")
        ts = time_scales(spec)
        return _finite(num * {"kepler": ts.t_kepler, "revival": ts.t_revival,
                              "superrevival": ts.t_superrevival}[unit], where)
    raise ConfigError(f"{where}: unknown unit {unit!r}")


def _received(value) -> str:
    """repr of a config value for an error message.  A string that reads
    as a finite number gets a note: YAML 1.1 (PyYAML) loads an exponent
    without a dot or without a sign, such as 1e-9, as a string."""
    try:
        numeric = isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        numeric = False
    if numeric:
        return f"the string {value!r} (YAML reads a number such as 1e-9 as text; write 1.0e-9)"
    return repr(value)


def _finite(value, where: str) -> float:
    """A config number as a float; ConfigError unless it is a finite
    number (constants.is_finite_number)."""
    if is_finite_number(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {_received(value)}")
    raise ConfigError(f"{where}: must be finite, got {_received(value)}")


def _is_pair(value) -> bool:
    """An [re, im] list of exactly two finite numbers."""
    return isinstance(value, list) and len(value) == 2 and all(map(is_finite_number, value))


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping")
    return dict(value)


def _check_keys(mapping: Mapping, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {_received(value)}")
    return value


def unitary_from_obj(obj) -> np.ndarray:
    """Build a complex square matrix from parsed JSON.

    Accepts either a bare list of rows or {"matrix": rows}; each entry
    is a finite real number or a [re, im] pair of them.
    """
    if isinstance(obj, Mapping):
        _check_keys(obj, {"matrix"}, "unitary")
        obj = obj.get("matrix")
    if not isinstance(obj, list) or not obj:
        raise ConfigError("unitary: expected a non-empty list of rows")

    def entry(x, where):
        if is_finite_number(x):
            return complex(x)
        if _is_pair(x):
            return complex(*x)
        raise ConfigError(f"{where}: matrix entries are finite numbers or [re, im] pairs")

    d = len(obj)
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ConfigError(f"unitary row {r}: expected {d} entries")
        rows.append([entry(x, f"unitary[{r}][{c}]") for c, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def read_text(path) -> str:
    """The text of an input file, read as UTF-8.

    A file that cannot be opened or read (missing, a directory, no
    permission) or that is not UTF-8 is a ConfigError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None


def load_unitary_file(path) -> np.ndarray:
    """Read a matrix from a JSON file (see unitary_from_obj)."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except ValueError as e:     # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
    return unitary_from_obj(obj)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CheckResult:
    """One acceptance check: a named pass/fail with its evidence."""

    name: str
    passed: bool
    detail: str

    def line(self, scenario: str) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {scenario}.{self.name}: {self.detail}"


@dataclass
class ScenarioResult:
    name: str
    params: dict
    checks: list = field(default_factory=list)
    observables: dict = field(default_factory=dict)
    trace: TraceRecord | None = None
    artifacts: dict = field(default_factory=dict)   # filename -> text

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        good = sum(c.passed for c in self.checks)
        return f"{tag} {self.name} ({good}/{len(self.checks)} checks)"

    def report(self) -> str:
        lines = [f"scenario: {self.name}"]
        for k in sorted(self.params):
            lines.append(f"  param {k} = {self.params[k]!r}")
        for c in self.checks:
            lines.append(c.line(self.name))
        for k, v in self.observables.items():
            lines.append(f"  {k} = {v!r}")
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"


def _band(name: str, value: float, lo: float, hi: float) -> CheckResult:
    ok = lo <= value <= hi
    word = "in" if ok else "outside"
    return CheckResult(name, ok, f"{value:.6g} {word} [{lo:.6g}, {hi:.6g}]")


def _near(name: str, value: float, target: float, rel_tol: float,
          unit: str = "") -> CheckResult:
    err = abs(value / target - 1.0)
    tail = f" {unit}" if unit else ""
    return CheckResult(
        name, err <= rel_tol,
        f"{value:.6g}{tail} vs {target:g}{tail}, rel err {err:.3g} (tol {rel_tol:g})",
    )


def _below(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, value <= bound, f"{value:.3e} <= {bound:.0e}")


# ---------------------------------------------------------------------------
# registry

Runner = Callable[[dict], ScenarioResult]


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    defaults: dict
    runner: Runner


REGISTRY: dict[str, Scenario] = {}


def _scenario(name: str, summary: str, **defaults):
    def deco(fn: Runner) -> Runner:
        REGISTRY[name] = Scenario(name=name, summary=summary,
                                  defaults=defaults, runner=fn)
        return fn
    return deco


def list_scenarios() -> list[str]:
    return list(REGISTRY)


def describe(name: str) -> str:
    if name not in REGISTRY:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(REGISTRY)}"
        )
    sc = REGISTRY[name]
    lines = [f"{sc.name}: {sc.summary}", "defaults:"]
    for k, v in sc.defaults.items():
        lines.append(f"  {k}: {v!r}")
    d = sc.defaults
    if {"fwhm_factor", "nbar", "d"} <= set(d):
        ts = time_scales(ManifoldSpec(nbar=d["nbar"], d=d["d"]))
        fwhm = d["fwhm_factor"] * ts.t_kepler / d["d"]
        lines.append(
            f"  pulse fwhm: {fwhm:.6g} au = {fwhm * AU_TIME_NS * 1e3:.6g} ps"
        )
    return "\n".join(lines) + "\n"


def _coerce_param(key: str, value, default):
    """value as the type of the scenario's default: an int, a float or
    a list of ints."""
    where = f"config.params.{key}"
    if isinstance(default, int):
        return _require_int(value, where)
    if isinstance(default, float):
        return _finite(value, where)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of integers, got {_received(value)}")
    return [_require_int(x, f"{where}[{i}]") for i, x in enumerate(value)]


def run_scenario(config) -> ScenarioResult:
    """Run a registered scenario by name/config, or a declarative config.

    config is a scenario name, a mapping {scenario, params?, seed?}, or a
    declarative mapping {manifold, initial_state, events, ...}.
    """
    if isinstance(config, str):
        config = {"scenario": config}
    if not isinstance(config, Mapping):
        raise ConfigError("config must be a scenario name or a mapping")
    if "scenario" in config:
        return _run_named(dict(config))
    return _run_declarative(dict(config))


def _run_named(cfg: dict) -> ScenarioResult:
    _check_keys(cfg, {"scenario", "params", "seed"}, "config")
    name = cfg["scenario"]
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(REGISTRY)}"
        )
    sc = REGISTRY[name]
    params = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in sc.defaults.items()}
    overrides = _require_mapping(cfg.get("params", {}) or {}, "config.params")
    for k, v in overrides.items():
        if k not in params:
            raise ConfigError(
                f"config.params: {k!r} is not a parameter of {name}; "
                f"known: {', '.join(sorted(params))}"
            )
        params[k] = _coerce_param(k, v, sc.defaults[k])
    if "seed" in cfg:
        if "seed" not in params:
            raise ConfigError(f"scenario {name} is deterministic; drop the seed field")
        params["seed"] = _require_int(cfg["seed"], "config.seed")
    return sc.runner(params)


def _spec_of(nbar, d) -> ManifoldSpec:
    """ManifoldSpec(nbar, d) of config values; ConfigError unless valid."""
    try:
        return ManifoldSpec(nbar=int(nbar), d=int(d))
    except ValueError as e:
        raise ConfigError(f"manifold: {e}") from None


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(dim): QR of a complex Gaussian, R's diagonal phases
    moved into Q.  Same draws, bit for bit, as scipy's unitary_group.rvs
    with the same generator."""
    # scipy's order of operations: dividing by sqrt(2) instead would move the last bits
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    q *= (diag / abs(diag))[np.newaxis, :]
    return q


# Largest count a config may set (states, pairs, Haar draws, grid and
# trace points, a dimension): every default and benchmark draw is
# <= 1000.  Far beyond it a count sizes an array numpy cannot allocate
# or a loop that never ends; up to it a run may still be slow.
MAX_COUNT = 10**6


def _in_range(params: dict, key: str, lo) -> None:
    """ConfigError naming config.params.<key> unless
    lo <= params[key] <= MAX_COUNT."""
    if not lo <= params[key] <= MAX_COUNT:
        raise ConfigError(f"config.params.{key}: must be in {lo} .. {MAX_COUNT}, "
                          f"got {params[key]!r}")


def _nonempty(params: dict, key: str) -> None:
    if not params[key]:
        raise ConfigError(f"config.params.{key}: must list at least one value")


def _param_fwhm(spec: ManifoldSpec, params: dict) -> float:
    """The pulse FWHM fwhm_factor t_kepler / d of a scenario; ConfigError
    unless it lies within the input bounds (pulse.FWHM_RANGE_KEPLER).
    The scenarios calibrate these pulses to area pi, within the area
    bound by construction."""
    fwhm = params["fwhm_factor"] * time_scales(spec).t_kepler / spec.d
    try:
        check_input_fwhm(spec, fwhm)
    except ValueError as e:
        raise ConfigError(f"config.params.fwhm_factor: {e}") from None
    return fwhm


def _random_packet_states(rng, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# named scenarios


@_scenario(
    "time_scales",
    "orbit, revival and super-revival periods in SI units",
    nbar=180, d=8,
)
def _run_time_scales(params: dict) -> ScenarioResult:
    spec = _spec_of(params["nbar"], params["d"])
    ts = time_scales(spec)
    checks = [
        _near("kepler_period_si", ts.t_kepler_ns, 0.89, 0.01, "ns"),
        _near("revival_period_si", ts.t_revival_ns, 106.0, 0.01, "ns"),
        _near("superrevival_period_si", ts.t_superrevival_ns / 1e3, 14.0, 0.03, "us"),
    ]
    ratio = ts.t_revival / ts.t_kepler / (2.0 * spec.nbar / 3.0)
    checks.append(CheckResult(
        "revival_ratio_identity", abs(ratio - 1.0) <= 1e-12,
        f"t_revival / t_kepler vs 2 nbar / 3, rel err {abs(ratio - 1.0):.3e}",
    ))
    obs = {
        "t_kepler_au": ts.t_kepler,
        "t_revival_au": ts.t_revival,
        "t_superrevival_au": ts.t_superrevival,
        "t_kepler_ns": ts.t_kepler_ns,
        "t_revival_ns": ts.t_revival_ns,
        "t_superrevival_us": ts.t_superrevival_ns / 1e3,
        "kepler_regime_ok": spec.kepler_regime_ok,
    }
    return ScenarioResult("time_scales", params, checks, obs)


@_scenario(
    "qft_roundtrip",
    "basis-change round trip, unitarity and norm preservation on random states",
    n_states=1000, d_min=2, d_max=16, seed=1,
)
def _run_qft_roundtrip(params: dict) -> ScenarioResult:
    _in_range(params, "n_states", 1)
    _in_range(params, "d_min", 2)
    _in_range(params, "d_max", params["d_min"])
    rng = np.random.default_rng(params["seed"])
    worst_round = worst_parseval = worst_unitary = 0.0
    for d in range(int(params["d_min"]), int(params["d_max"]) + 1):
        F = energy_to_packet_matrix(d)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(
            F @ F.conj().T - np.eye(d)))))
        states = _random_packet_states(rng, int(params["n_states"]), d)
        bt = states @ F.T
        back = bt @ F.conj()
        worst_round = max(worst_round, float(np.max(np.abs(back - states))))
        worst_parseval = max(worst_parseval, float(np.max(np.abs(
            np.linalg.norm(bt, axis=1) - 1.0))))
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    had_err = float(np.max(np.abs(energy_to_packet_matrix(2) - had)))
    checks = [
        _below("roundtrip_error", worst_round, 1e-12),
        _below("parseval_error", worst_parseval, 1e-12),
        _below("dft_unitarity", worst_unitary, 1e-12),
        _below("hadamard_at_d2", had_err, 1e-15),
    ]
    obs = {
        "max_roundtrip_error": worst_round,
        "max_parseval_error": worst_parseval,
        "max_unitarity_error": worst_unitary,
        "hadamard_error_d2": had_err,
    }
    return ScenarioResult("qft_roundtrip", params, checks, obs)


@_scenario(
    "shift_gate_demo",
    "free flight for n t_kepler / d cyclically permutes the packet slots",
    nbar=180, ds=(4, 5, 8), n_states=4, seed=2,
)
def _run_shift_gate(params: dict) -> ScenarioResult:
    _nonempty(params, "ds")
    _in_range(params, "n_states", 1)
    rng = np.random.default_rng(params["seed"])
    nbar = int(params["nbar"])
    worst_perm = worst_delta = 0.0
    for d in params["ds"]:
        spec = _spec_of(nbar, d)
        ts = time_scales(spec)
        Fi = packet_to_energy_matrix(spec.d)
        states = _random_packet_states(rng, int(params["n_states"]), spec.d)
        for n in range(spec.d):
            t = n * ts.t_kepler / spec.d
            ker = evolution_kernel(spec, t, mode="taylor1")
            want_ker = np.zeros(spec.d)
            want_ker[n] = 1.0
            worst_delta = max(worst_delta, float(np.max(np.abs(ker.entries - want_ker))))
            for bt0 in states:
                got = packet_amplitudes_at(Fi @ bt0, spec, t, mode="taylor1")
                worst_perm = max(worst_perm, float(np.max(np.abs(
                    got - np.roll(bt0, n)))))
    checks = [
        _below("permutation_error", worst_perm, 1e-12),
        _below("kernel_delta_error", worst_delta, 1e-12),
    ]
    spec8 = _spec_of(nbar, 8)
    obs = {
        "max_permutation_error": worst_perm,
        "max_kernel_delta_error": worst_delta,
        "exact_shift_fidelity_n=1": shift_fidelity(spec8, 1),
        "exact_shift_fidelity_n=8": shift_fidelity(spec8, 8),
    }
    ts8 = time_scales(spec8)
    b0 = packet_to_energy_matrix(8)[:, spec8.slot_index(0)]
    grid = np.linspace(0.0, ts8.t_kepler, 161)
    trace = revival_scan(spec8, b0, grid)
    return ScenarioResult("shift_gate_demo", params, checks, obs, trace=trace)


@_scenario(
    "kernel_identity",
    "circulant convolution over slots equals direct free-flight evolution",
    nbar=180, d=8, n_pairs=100, seed=3,
)
def _run_kernel_identity(params: dict) -> ScenarioResult:
    _in_range(params, "n_pairs", 1)
    spec = _spec_of(params["nbar"], params["d"])
    ts = time_scales(spec)
    rng = np.random.default_rng(params["seed"])
    F = energy_to_packet_matrix(spec.d)
    eye = np.eye(spec.d)
    worst = worst_unitary = 0.0
    for _ in range(int(params["n_pairs"])):
        bt0 = _random_packet_states(rng, 1, spec.d)[0]
        t = float(rng.uniform(0.0, 2.0 * ts.t_revival))
        ker = evolution_kernel(spec, t)
        direct = packet_amplitudes_at(F.conj().T @ bt0, spec, t)
        M = ker.as_matrix()
        worst = max(worst, float(np.max(np.abs(direct - M @ bt0))))
        worst_unitary = max(worst_unitary, float(np.max(np.abs(
            M @ M.conj().T - eye))))
    u_step = evolution_kernel(spec, ts.t_kepler / spec.d).entries
    checks = [
        _below("convolution_matches_direct", worst, 1e-12),
        _below("kernel_unitarity", worst_unitary, 1e-12),
    ]
    obs = {
        "max_identity_error": worst,
        "max_unitarity_error": worst_unitary,
        "one_step_weight_sq": float(abs(u_step[1]) ** 2),
        "one_step_leak": 1.0 - float(abs(u_step[1]) ** 2),
    }
    return ScenarioResult("kernel_identity", params, checks, obs)


@_scenario(
    "rabi_dft_ratio",
    "slot-space Rabi spectrum: sidebands are ~1% of the core component",
    nbar=180, d=8,
)
def _run_rabi_dft_ratio(params: dict) -> ScenarioResult:
    spec = _spec_of(params["nbar"], params["d"])
    prof = rabi_profile(spec, 1.0)
    mags = np.abs(prof.dft)
    k0 = spec.slot_index(0)
    rp = float(mags[spec.slot_index(1)] / mags[k0])
    rm = float(mags[spec.slot_index(-1)] / mags[k0])
    checks = [
        _band("sideband_ratio_plus", rp, 0.005, 0.02),
        _band("sideband_ratio_minus", rm, 0.005, 0.02),
    ]
    obs = {
        "ratio_plus": rp,
        "ratio_minus": rm,
        "core_dft": float(mags[k0]),
    }
    for i, k in enumerate(spec.k_values):
        obs[f"dft_abs_k={k}"] = float(mags[i])
    return ScenarioResult("rabi_dft_ratio", params, checks, obs)


def _fig2_pipeline(params: dict, n_trace: int):
    """Carve the core slot out of a uniform slot superposition.

    Starts one slot step before the pulse center, drives one calibrated
    pi pulse toward the ground storage level while slot 0 crosses the
    core, and coasts one slot step past it.  Returns the final state,
    the pulse, and the trace of the whole run (None for n_trace = 0).
    """
    spec = _spec_of(params["nbar"], params["d"])
    d = spec.d
    step = time_scales(spec).t_kepler / d
    fwhm = _param_fwhm(spec, params)
    pulse = PulseSpec(
        fwhm=fwhm,
        peak_rabi=pi_pulse_peak_rabi(spec, fwhm),
        carrier_detuning=params["detuning"],
        center_time=0.0,
        target="g",
    )
    if pulse.t_start <= -step:
        raise ConfigError("config.params.fwhm_factor: too large, the pulse support "
                          "swallows the lead-in")
    b0 = np.zeros(d, dtype=complex)
    b0[spec.slot_index(0)] = 1.0          # uniform slot amplitudes
    state, trace = run_program(SimulationState(spec=spec, b_energy=b0, t=-step),
                               [pulse, Wait(step - pulse.t_end)], n_trace=n_trace)
    return spec, pulse, state, trace


@_scenario(
    "fig2_dark_packet",
    "carve a dark slot: pi pulse empties the core slot into the ground level",
    nbar=180, d=8, fwhm_factor=0.5 * LN2, detuning=0.0, trace_points=161,
)
def _run_fig2(params: dict) -> ScenarioResult:
    _in_range(params, "trace_points", 2)
    spec, _, state, trace = _fig2_pipeline(params, n_trace=params["trace_points"])
    d = spec.d
    aligned = state.packet_amplitudes(aligned=True)
    pops = np.abs(aligned) ** 2
    hole = float(pops[spec.slot_index(0)])
    pg = float(abs(state.b_g) ** 2)
    neigh0 = 2.0 / d
    neigh1 = float(pops[spec.slot_index(1)] + pops[spec.slot_index(-1)])
    loss_abs = neigh0 - neigh1
    loss_rel = loss_abs / neigh0
    checks = [
        _below("core_slot_emptied", hole, 0.02 / d),
        CheckResult("ground_transfer", pg >= 0.90 / d,
                    f"{pg:.6g} >= {0.90 / d:.6g}"),
        _band("neighbor_loss_relative", loss_rel, 0.02, 0.08),
    ]
    i_mid = int(np.argmin(np.abs(trace.t_au)))
    obs = {
        "final_core_slot_population": hole,
        "final_ground_population": pg,
        "neighbor_loss_relative": loss_rel,
        "neighbor_loss_absolute": loss_abs,
        "ground_excess_relative": pg * d - 1.0,
        "mid_pulse_core_population": float(
            trace.packet_populations[i_mid, spec.slot_index(0)]),
        "norm_error": float(abs(state.norm() - 1.0)),
    }
    for i, k in enumerate(spec.k_values):
        obs[f"final_pop_k={k}"] = float(pops[i])
    return ScenarioResult("fig2_dark_packet", params, checks, obs, trace=trace)


@_scenario(
    "two_level_vs_full",
    "closed two-level rotation tracks the full multi-level pulse dynamics",
    nbar=180, d=8, fwhm_factor=0.5 * LN2, detuning=0.0,
)
def _run_two_level_vs_full(params: dict) -> ScenarioResult:
    spec, pulse, state, _ = _fig2_pipeline(params, n_trace=0)
    aligned = state.packet_amplitudes(aligned=True)
    pg_full = float(abs(state.b_g) ** 2)
    hole_full = float(abs(aligned[spec.slot_index(0)]) ** 2)
    og, obt = two_level_oracle(
        0.0 + 0.0j, 1.0 / math.sqrt(spec.d) + 0.0j, pulse,
        core_rabi_dft(spec, pulse.peak_rabi))
    pg_two = float(abs(og) ** 2)
    hole_two = float(abs(obt) ** 2)
    d_pg = abs(pg_full - pg_two)
    d_hole = abs(hole_full - hole_two)
    checks = [
        _below("ground_population_delta", d_pg, 0.05),
        _below("core_population_delta", d_hole, 0.05),
    ]
    obs = {
        "ground_full": pg_full,
        "ground_two_level": pg_two,
        "core_full": hole_full,
        "core_two_level": hole_two,
        "delta_ground": d_pg,
        "delta_core": d_hole,
    }
    return ScenarioResult("two_level_vs_full", params, checks, obs)


@_scenario(
    "revival_recovery",
    "localized packet decays per orbit, then re-forms near the revival time",
    nbar=180, d=8, window=0.02, grid_per_kepler=160,
)
def _run_revival(params: dict) -> ScenarioResult:
    if not params["window"] > 0:
        raise ConfigError(f"config.params.window: must be > 0, got {params['window']!r}")
    _in_range(params, "grid_per_kepler", 1)
    spec = _spec_of(params["nbar"], params["d"])
    ts = time_scales(spec)
    b = packet_to_energy_matrix(spec.d)[:, spec.slot_index(0)]
    decay = 1.0 - autocorrelation(b, spec, ts.t_kepler)

    w = float(params["window"])
    per = int(params["grid_per_kepler"])

    def scan(t0: float, t1: float) -> TraceRecord:
        # find_autocorr_peak refines over three samples; a window so wide
        # that the count passes MAX_COUNT (or overflows) is clipped there
        n = int(round(min((t1 - t0) / ts.t_kepler * per, MAX_COUNT))) + 1
        if not 3 <= n <= MAX_COUNT:
            raise ConfigError(
                f"config.params.grid_per_kepler: {per} per Kepler period gives "
                f"{n if n <= MAX_COUNT else 'too many'} grid point(s) over "
                f"{(t1 - t0) / ts.t_kepler:.6g} t_kepler; the peak search needs "
                f"3 .. {MAX_COUNT} (change grid_per_kepler or window)")
        return revival_scan(spec, b, np.linspace(t0, t1, n))

    trace = scan((1.0 - w) * ts.t_revival, (1.0 + w) * ts.t_revival)
    t_peak, v_peak = find_autocorr_peak(trace)
    deficit = 1.0 - v_peak

    th_peak, vh_peak = find_autocorr_peak(scan(0.47 * ts.t_revival, 0.55 * ts.t_revival))

    checks = [
        _band("one_period_decay", decay, 0.03, 0.08),
        _below("revival_peak_location",
               abs(t_peak / ts.t_revival - 1.0), 0.01),
        _band("revival_recovery_deficit", deficit, 0.01, 0.06),
    ]
    obs = {
        "one_period_decay": decay,
        "revival_peak_t_over_t_revival": t_peak / ts.t_revival,
        "revival_peak_value": v_peak,
        "revival_recovery_deficit": deficit,
        "half_revival_peak_t_over_t_revival": th_peak / ts.t_revival,
        "half_revival_peak_value": vh_peak,
        "half_revival_deficit": 1.0 - vh_peak,
    }
    return ScenarioResult("revival_recovery", params, checks, obs, trace=trace)


@_scenario(
    "dispersion_nbar_scaling",
    "one-orbit dispersion loss falls off as the inverse square of nbar",
    nbars=(90, 180, 360), d=8,
)
def _run_nbar_scaling(params: dict) -> ScenarioResult:
    nbars = [int(n) for n in params["nbars"]]
    if len(nbars) < 2 or sorted(nbars) != nbars:
        raise ConfigError("config.params.nbars: need an ascending list of >= 2 values")
    d = int(params["d"])
    decays = []
    for nbar in nbars:
        spec = _spec_of(nbar, d)
        ts = time_scales(spec)
        b = packet_to_energy_matrix(d)[:, spec.slot_index(0)]
        decays.append(1.0 - autocorrelation(b, spec, ts.t_kepler))
    ratio = decays[-1] / decays[-2]
    slope = float(np.polyfit(np.log(nbars), np.log(decays), 1)[0])
    checks = [
        _band(f"decay_ratio_{nbars[-1]}_over_{nbars[-2]}", ratio,
              1.0 / 6.0, 1.0 / 2.5),
        _band("log_log_slope", slope, -2.5, -1.5),
    ]
    obs = {"decay_ratio": ratio, "log_log_slope": slope}
    rows = ["nbar,decay,decay_times_nbar_sq"]
    for nbar, dec in zip(nbars, decays):
        obs[f"decay_nbar={nbar}"] = dec
        rows.append(f"{nbar},{dec!r},{dec * nbar * nbar!r}")
    artifacts = {"nbar_scaling.csv": "\n".join(rows) + "\n"}
    return ScenarioResult("dispersion_nbar_scaling", params, checks, obs,
                          artifacts=artifacts)


@_scenario(
    "pulse_constraints",
    "slot addressing needs a transform-limited pulse shorter than one slot transit",
    nbar=180, d=8, fwhm_factor=0.5 * LN2,
)
def _run_pulse_constraints(params: dict) -> ScenarioResult:
    spec = _spec_of(params["nbar"], params["d"])
    ts = time_scales(spec)
    fwhm = _param_fwhm(spec, params)
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
    rep = validate_pulse(spec, pulse)
    tbp_target = 4.0 * LN2 / math.pi
    too_long = validate_pulse(
        spec, PulseSpec(fwhm=1.2 * ts.t_kepler / spec.d, peak_rabi=1.0))
    checks = [
        _below("transform_limit_product",
               abs(rep.time_bandwidth_product - tbp_target), 1e-12),
        CheckResult("core_transit", rep.core_transit_ok,
                    f"fwhm / transit = {rep.fwhm_over_transit:.6g} < 1"),
        _near("spectral_width_figure", rep.bandwidth_ratio, 1.3, 0.05,
              "d/t_kepler"),
        CheckResult("overlong_pulse_flagged", not too_long.core_transit_ok,
                    f"fwhm / transit = {too_long.fwhm_over_transit:.6g} rejected"),
    ]
    obs = {
        "fwhm_au": pulse.fwhm,
        "fwhm_ps": pulse.fwhm * AU_TIME_NS * 1e3,
        "pi_peak_rabi_au": pulse.peak_rabi,
        "fwhm_over_transit": rep.fwhm_over_transit,
        "spectral_fwhm_au": rep.spectral_fwhm,
        "spectral_hwhm_au": rep.spectral_hwhm,
        "bandwidth_ratio": rep.bandwidth_ratio,
        "time_bandwidth_product": rep.time_bandwidth_product,
    }
    return ScenarioResult("pulse_constraints", params, checks, obs)


@_scenario(
    "compile_random_unitary",
    "decompose random unitaries into two-level factors and run one as pulses",
    nbar=180, d=4, haar_count=50, haar_dims=(2, 4, 8), seed=7,
)
def _run_compile_random(params: dict) -> ScenarioResult:
    _in_range(params, "haar_count", 1)
    _nonempty(params, "haar_dims")
    nbar = int(params["nbar"])
    rng = np.random.default_rng(params["seed"])
    worst_err = 0.0
    worst_count_margin = -10**9
    for dim in params["haar_dims"]:
        spec_h = _spec_of(nbar, dim)
        bound = dim * (dim - 1) // 2 + (dim + 1) // 2     # decompose_unitary's bound
        for _ in range(int(params["haar_count"])):
            U = haar_unitary(dim, rng)
            ops = decompose_unitary(U, spec_h)
            V = compose_ops(ops, spec_h)
            worst_err = max(worst_err, float(np.max(np.abs(V - U))))
            worst_count_margin = max(worst_count_margin, len(ops) - bound)
    checks = [
        _below("haar_reconstruction_error", worst_err, 1e-9),
        CheckResult("haar_factor_count", worst_count_margin <= 0,
                    f"worst count minus d(d-1)/2 + ceil(d/2) bound: {worst_count_margin}"),
    ]

    spec = _spec_of(params["nbar"], params["d"])
    target = random_two_level_unitary(spec, int(params["seed"]))
    schedule = compile_unitary(target, spec)
    fid_ideal = process_fidelity(schedule, target, mode="taylor1", pulses="ideal")
    fid_full = process_fidelity(schedule, target, mode="exact", pulses="full")
    checks.append(CheckResult("ideal_model_exact", fid_ideal >= 1.0 - 1e-6,
                              f"taylor1 + instantaneous swaps: {fid_ideal!r}"))
    checks.append(CheckResult("full_model_fidelity", fid_full >= 0.9,
                              f"exact spectrum + integrated pulses: {fid_full!r}"))
    ts = time_scales(spec)
    obs = {
        "max_reconstruction_error": worst_err,
        "process_fidelity_ideal": fid_ideal,
        "process_fidelity_full": fid_full,
        "schedule_pulses": schedule.manifold_pulse_count(),
        "schedule_duration_au": schedule.duration(),
        "schedule_duration_kepler": schedule.duration() / ts.t_kepler,
    }
    artifacts = {"schedule.json": schedule_to_json(schedule)}
    return ScenarioResult("compile_random_unitary", params, checks, obs,
                          artifacts=artifacts)


# ---------------------------------------------------------------------------
# declarative configs

_TOP_KEYS = {"manifold", "spectrum", "initial_state", "events", "outputs", "seed"}


def _parse_initial_state(value, spec: ManifoldSpec) -> np.ndarray:
    """Initial manifold amplitudes in the level basis."""
    where = "config.initial_state"
    d = spec.d
    if value is None:
        raise ConfigError(f"{where}: required")
    if isinstance(value, str):
        if value == "uniform_packet":
            return iqft_packet_to_energy(uniform_packet(spec)).values
        if value == "uniform_energy":
            return uniform_energy(spec).values
        raise ConfigError(
            f"{where}: unknown state {value!r}; use uniform_packet, "
            "uniform_energy, or a mapping"
        )
    m = _require_mapping(value, where)
    if set(m) == {"packet"}:
        k = _require_int(m["packet"], f"{where}.packet")
        if k not in spec.k_values:
            raise ConfigError(f"{where}.packet: slot {k} not in {list(spec.k_values)}")
        return iqft_packet_to_energy(packet_delta(spec, k)).values
    if set(m) == {"energy"}:
        j = _require_int(m["energy"], f"{where}.energy")
        if j not in spec.j_values:
            raise ConfigError(f"{where}.energy: level {j} not in {list(spec.j_values)}")
        return energy_delta(spec, j).values
    if set(m) == {"amplitudes"}:
        sub = _require_mapping(m["amplitudes"], f"{where}.amplitudes")
        _check_keys(sub, {"basis", "values"}, f"{where}.amplitudes")
        basis = sub.get("basis")
        vals = sub.get("values")
        if basis not in ("energy", "packet"):
            raise ConfigError(f"{where}.amplitudes.basis: 'energy' or 'packet'")
        if not (isinstance(vals, list) and len(vals) == d and all(map(_is_pair, vals))):
            raise ConfigError(f"{where}.amplitudes.values: need {d} [re, im] pairs, "
                              "each a list of exactly two finite numbers")
        try:
            amp = AmplitudeVector(basis=basis, values=np.array([complex(*p) for p in vals]))
        except ValueError as e:
            raise ConfigError(f"{where}.amplitudes: {e}") from None
        return (iqft_packet_to_energy(amp) if basis == "packet" else amp).values
    raise ConfigError(
        f"{where}: expected one of the keys packet, energy, amplitudes"
    )


def _parse_pulse_event(sub: dict, spec: ManifoldSpec, clock: float, where: str) -> PulseSpec:
    _check_keys(sub, {"fwhm", "area", "peak_rabi", "detuning", "phase",
                      "target", "slot", "center"}, where)
    if "fwhm" not in sub:
        raise ConfigError(f"{where}: fwhm is required")
    fwhm = parse_quantity(sub["fwhm"], f"{where}.fwhm", spec)
    try:
        check_input_fwhm(spec, fwhm)
    except ValueError as e:
        raise ConfigError(f"{where}.fwhm: {e}") from None
    if ("area" in sub) == ("peak_rabi" in sub):
        raise ConfigError(f"{where}: give exactly one of area, peak_rabi")
    pi_peak = pi_pulse_peak_rabi(spec, fwhm)
    if "area" in sub:
        area = math.pi if sub["area"] == "pi" else _finite(sub["area"], f"{where}.area")
        # area / pi first: an area of +-100 pi gives a peak at the edge
        # check_input_area puts on a peak, to the bit
        peak = pi_peak * (area / math.pi)
        checked = (area, math.pi)           # the area as given, in radians
    else:
        peak = _finite(sub["peak_rabi"], f"{where}.peak_rabi")
        checked = (peak, pi_peak)
    try:
        check_input_area(*checked)
    except ValueError as e:
        key = "area" if "area" in sub else "peak_rabi"
        raise ConfigError(f"{where}.{key}: {e}") from None
    detuning = _finite(sub.get("detuning", 0.0), f"{where}.detuning")
    phase = _finite(sub.get("phase", 0.0), f"{where}.phase")
    target = sub.get("target", "g")
    if target not in ("g", "e"):
        raise ConfigError(f"{where}.target: 'g' or 'e'")
    half = support_half_width(fwhm)
    if "center" in sub and "slot" in sub:
        raise ConfigError(f"{where}: give center or slot, not both")
    if "center" in sub:
        center = parse_quantity(sub["center"], f"{where}.center", spec)
        if center - half < clock - 1e-9:
            raise ConfigError(
                f"{where}.center: pulse support starts before the clock "
                f"({center - half:.6g} < {clock:.6g})"
            )
    else:
        slot = _require_int(sub.get("slot", 0), f"{where}.slot")
        if slot not in spec.k_values:
            raise ConfigError(f"{where}.slot: {slot} not in {list(spec.k_values)}")
        center = next_core_crossing(spec, slot, clock + half)
    return PulseSpec(fwhm=fwhm, peak_rabi=peak, carrier_detuning=detuning,
                     phase=phase, center_time=center, target=target)


def _parse_gate_event(sub: dict, spec: ManifoldSpec, where: str):
    _check_keys(sub, {"unitary", "file"}, where)
    if ("unitary" in sub) == ("file" in sub):
        raise ConfigError(f"{where}: give exactly one of unitary, file")
    U = (unitary_from_obj(sub["unitary"]) if "unitary" in sub
         else load_unitary_file(sub["file"]))
    try:
        return compile_unitary(U, spec)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _run_declarative(cfg: dict) -> ScenarioResult:
    _check_keys(cfg, _TOP_KEYS, "config")
    man = _require_mapping(cfg.get("manifold"), "config.manifold")
    _check_keys(man, {"nbar", "d"}, "config.manifold")
    if "nbar" not in man or "d" not in man:
        raise ConfigError("config.manifold: nbar and d are required")
    spec = _spec_of(_require_int(man["nbar"], "config.manifold.nbar"),
                    _require_int(man["d"], "config.manifold.d"))
    mode = cfg.get("spectrum", "exact")
    if mode not in SPECTRUM_MODES:
        raise ConfigError(
            f"config.spectrum: {mode!r} not one of {', '.join(SPECTRUM_MODES)}"
        )
    outputs = _require_mapping(cfg.get("outputs", {}) or {}, "config.outputs")
    _check_keys(outputs, {"trace_points", "observables"}, "config.outputs")
    trace_points = _require_int(outputs.get("trace_points", 0),
                                "config.outputs.trace_points")
    if not 0 <= trace_points <= MAX_COUNT:
        raise ConfigError(f"config.outputs.trace_points: must be in 0 .. {MAX_COUNT}")
    if trace_points == 1:
        raise ConfigError("config.outputs.trace_points: use 0 (off) or >= 2")
    requested = outputs.get("observables", [])
    if not isinstance(requested, list):
        raise ConfigError("config.outputs.observables: expected a list")
    for name in requested:
        if name not in ("autocorrelation",):
            raise ConfigError(
                f"config.outputs.observables: unknown observable {name!r}"
            )
    events = cfg.get("events", [])
    if not isinstance(events, list):
        raise ConfigError("config.events: expected a list")

    step = time_scales(spec).t_kepler / spec.d
    b0 = _parse_initial_state(cfg.get("initial_state"), spec)

    # lower each event to one program item; the clock places slot pulses
    program: list = []
    clock = 0.0
    for i, ev in enumerate(events):
        where = f"config.events[{i}]"
        ev = _require_mapping(ev, where)
        if len(ev) != 1:
            raise ConfigError(f"{where}: exactly one of wait, shift, pulse, gate")
        kind, payload = next(iter(ev.items()))
        if kind == "wait":
            dt = parse_quantity(payload, f"{where}.wait", spec)
            if dt < 0:
                raise ConfigError(f"{where}.wait: must be >= 0")
            program.append(Wait(dt))
            clock += dt
        elif kind == "shift":
            dt = (_require_int(payload, f"{where}.shift") % spec.d) * step
            program.append(Wait(dt))
            clock += dt
        elif kind == "pulse":
            pulse = _parse_pulse_event(_require_mapping(payload, where), spec, clock, where)
            program.append(pulse)
            clock = pulse.t_end
        elif kind == "gate":
            sched = _parse_gate_event(_require_mapping(payload, where), spec, where)
            program.append(sched)
            clock += sched.duration()
        else:
            raise ConfigError(f"{where}: unknown event {kind!r}")

    try:
        state, trace = run_program(SimulationState(spec=spec, b_energy=b0), program,
                                   mode=mode, n_trace=trace_points)
    except ProgramError as e:
        raise ScenarioError(f"config.events[{e.index}]: {e}") from None

    pops_packet = np.abs(state.packet_amplitudes(mode=mode)) ** 2
    pops_energy = np.abs(state.b_energy) ** 2
    norm_err = abs(state.norm() - 1.0)
    checks = [_below("norm_conserved", norm_err, 1e-8)]
    obs = {
        "t_end_au": state.t,
        "pop_g": float(abs(state.b_g) ** 2),
        "pop_e": float(abs(state.b_e) ** 2),
        "norm_error": float(norm_err),
    }
    for i, k in enumerate(spec.k_values):
        obs[f"pop_k={k}"] = float(pops_packet[i])
    for i, j in enumerate(spec.j_values):
        obs[f"pop_j={j}"] = float(pops_energy[i])
    if "autocorrelation" in requested:
        w = detunings(spec, mode)
        obs["autocorrelation"] = float(
            abs(np.sum(np.conj(b0) * state.b_energy * np.exp(-1j * w * state.t))) ** 2)
    params = {"nbar": spec.nbar, "d": spec.d, "spectrum": mode,
              "events": len(events)}
    return ScenarioResult("declarative", params, checks, obs, trace=trace)
