"""Scenario registry, config parsing, declarative runs, and the CLI."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from rydpacket import ManifoldSpec, cli, list_scenarios, run_scenario, time_scales
from rydpacket.basis import packet_to_energy_matrix
from rydpacket.cli import main
from rydpacket.constants import LN2, TIME_UNITS, is_finite_number
from rydpacket.gates import decompose_unitary, random_two_level_unitary, schedule_from_json
from rydpacket.manifold import MAX_NBAR, SPECTRUM_MODES
from rydpacket.pulse import FWHM_RANGE_KEPLER, MAX_PULSE_AREA, PulseSpec, pi_pulse_peak_rabi
from rydpacket.scenarios import (
    MAX_COUNT,
    ConfigError,
    ScenarioError,
    _in_range,
    _parse_initial_state,
    _parse_pulse_event,
    describe,
    haar_unitary,
    parse_quantity,
    unitary_from_obj,
)

CANONICAL = [
    "time_scales",
    "qft_roundtrip",
    "shift_gate_demo",
    "kernel_identity",
    "rabi_dft_ratio",
    "fig2_dark_packet",
    "two_level_vs_full",
    "revival_recovery",
    "dispersion_nbar_scaling",
    "pulse_constraints",
    "compile_random_unitary",
]


def _dump_unitary(path, U):
    rows = [[[z.real, z.imag] for z in row] for row in np.asarray(U)]
    path.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------
# registry and config plumbing


def test_registry_lists_canonical_scenarios():
    names = list_scenarios()
    for name in CANONICAL:
        assert name in names


def test_describe_output():
    text = describe("fig2_dark_packet")
    assert "fig2_dark_packet" in text
    assert "nbar" in text and "fwhm_factor" in text
    assert "pulse fwhm" in text and "ps" in text
    with pytest.raises(ConfigError):
        describe("no_such_scenario")


def test_run_scenario_by_name():
    res = run_scenario("time_scales")
    assert res.passed
    assert res.name == "time_scales"
    report = res.report()
    assert report.endswith("PASS time_scales (4/4 checks)\n")
    assert "PASS time_scales.kepler_period_si" in report


def test_run_scenario_rejects_bad_configs():
    with pytest.raises(ConfigError):
        run_scenario("no_such_scenario")
    with pytest.raises(ConfigError):
        run_scenario({"scenario": "time_scales", "bogus": 1})
    with pytest.raises(ConfigError):
        run_scenario({"scenario": "time_scales", "params": {"bogus": 1}})
    with pytest.raises(ConfigError):
        run_scenario({"scenario": "time_scales", "params": {"nbar": "many"}})
    with pytest.raises(ConfigError):
        # deterministic scenario: a seed field is a config mistake
        run_scenario({"scenario": "time_scales", "seed": 3})
    with pytest.raises(ConfigError):
        run_scenario(42)


def test_seeded_scenario_reproducible():
    cfg = {"scenario": "shift_gate_demo", "seed": 9}
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.report() == r2.report()
    r3 = run_scenario({"scenario": "shift_gate_demo", "seed": 10})
    assert r3.report() != r1.report()


def test_param_override():
    res = run_scenario({
        "scenario": "qft_roundtrip",
        "params": {"n_states": 20, "d_max": 6},
        "seed": 4,
    })
    assert res.passed
    assert res.params["n_states"] == 20


def test_parse_quantity():
    spec = ManifoldSpec(nbar=180, d=8)
    ts = time_scales(spec)
    assert parse_quantity(3, "q") == 3.0
    assert parse_quantity(2.5, "q") == 2.5
    assert parse_quantity("2 ns", "q") == 2.0 * TIME_UNITS["ns"]
    assert parse_quantity("7 au", "q") == 7.0
    assert parse_quantity("1.5 kepler", "q", spec) == pytest.approx(
        1.5 * ts.t_kepler, rel=1e-15)
    assert parse_quantity("0.5 revival", "q", spec) == pytest.approx(
        0.5 * ts.t_revival, rel=1e-15)
    for bad in ["3ns", "x ns", "1 lightyear", True, [1], "1 kepler ish",
                math.nan, math.inf, "nan ns", "-inf au", "1e308 s", 10**400]:
        with pytest.raises(ConfigError):
            parse_quantity(bad, "q")
    for bad in ["inf kepler", "nan revival", "1e300 superrevival"]:
        with pytest.raises(ConfigError):
            parse_quantity(bad, "q", spec)
    with pytest.raises(ConfigError):
        parse_quantity("1 kepler", "q")      # no manifold context


def test_unitary_from_obj():
    U = unitary_from_obj([[0, 1], [1, 0]])
    np.testing.assert_array_equal(U, np.array([[0, 1], [1, 0]], dtype=complex))
    U2 = unitary_from_obj({"matrix": [[[0, 1], 0], [0, [0, -1]]]})
    np.testing.assert_array_equal(U2, np.diag([1j, -1j]))
    for bad in [[], [[1, 0]], [[1, "x"], [0, 1]], {"rows": [[1]]},
                [[math.nan, 0], [0, 1]], [[1, 0], [0, [0, math.inf]]]]:
        with pytest.raises(ConfigError):
            unitary_from_obj(bad)


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_haar_unitary_matches_scipy(seed, d):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(haar_unitary(d, rng_a),
                                  unitary_group.rvs(d, random_state=rng_b))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ---------------------------------------------------------------------------
# declarative configs


def _decl(nbar=180, d=8, **kw):
    cfg = {"manifold": {"nbar": nbar, "d": d}}
    cfg.update(kw)
    return cfg


def test_declarative_empty_events_keeps_state():
    res = run_scenario(_decl(initial_state={"packet": 0}, events=[]))
    assert res.passed
    assert res.name == "declarative"
    assert res.observables["pop_k=0"] == pytest.approx(1.0, abs=1e-12)
    assert res.observables["t_end_au"] == 0.0
    assert res.trace is None


def test_declarative_initial_state_forms():
    res = run_scenario(_decl(initial_state="uniform_energy", events=[]))
    assert res.observables["pop_k=0"] == pytest.approx(1.0, abs=1e-12)
    res2 = run_scenario(_decl(initial_state={"energy": 1}, events=[]))
    assert res2.observables["pop_j=1"] == pytest.approx(1.0, abs=1e-12)
    amp = {"basis": "packet",
           "values": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}
    res3 = run_scenario(_decl(initial_state={"amplitudes": amp}, events=[]))
    # values are in ascending slot order: first entry is k = -3
    assert res3.observables["pop_k=-3"] == pytest.approx(1.0, abs=1e-12)
    for bad in ["vortex", {"packet": 99}, {"energy": 99},
                {"amplitudes": {"basis": "x", "values": amp["values"]}}]:
        with pytest.raises(ConfigError):
            run_scenario(_decl(initial_state=bad, events=[]))


@pytest.mark.parametrize("d", [2, 5, 8])
def test_declarative_initial_states_are_the_hand_built_vectors(d):
    # every form gives the vector the runner once built by hand, bit for bit;
    # a packet delta is the DFT column up to the sign of its zero imaginary
    # parts (the product writes +0 where the matrix column holds -0)
    spec = ManifoldSpec(nbar=180, d=d)
    P = packet_to_energy_matrix(d)
    flat = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    rng = np.random.default_rng(d)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    z /= np.linalg.norm(z)
    pairs = [[x.real, x.imag] for x in z]
    cases = [("uniform_packet", P @ flat), ("uniform_energy", flat),
             ({"amplitudes": {"basis": "energy", "values": pairs}}, z),
             ({"amplitudes": {"basis": "packet", "values": pairs}}, P @ z)]
    cases += [({"energy": int(j)}, np.eye(d, dtype=complex)[i])
              for i, j in enumerate(spec.j_values)]
    for form, want in cases:
        assert _parse_initial_state(form, spec).tobytes() == want.tobytes(), form
    for i, k in enumerate(spec.k_values):
        np.testing.assert_array_equal(_parse_initial_state({"packet": int(k)}, spec), P[:, i])


def test_declarative_shift_moves_packet():
    res = run_scenario(_decl(
        spectrum="taylor1",
        initial_state={"packet": 0},
        events=[{"shift": 3}],
    ))
    assert res.passed
    assert res.observables["pop_k=3"] == pytest.approx(1.0, abs=1e-10)
    ts = time_scales(ManifoldSpec(nbar=180, d=8))
    assert res.observables["t_end_au"] == pytest.approx(
        3 * ts.t_kepler / 8, rel=1e-12)


def test_declarative_wait_with_autocorrelation():
    res = run_scenario(_decl(
        initial_state={"packet": 0},
        events=[{"wait": "1 kepler"}],
        outputs={"observables": ["autocorrelation"]},
    ))
    assert res.passed
    # one orbit of real dispersion: packet partly delocalized
    assert res.observables["autocorrelation"] == pytest.approx(
        1.0 - 0.06664277805837804, rel=1e-10)
    assert res.observables["pop_k=0"] < 1.0


def test_declarative_pulse_extracts_core_slot():
    spec = ManifoldSpec(nbar=180, d=8)
    ts = time_scales(spec)
    fwhm_au = 0.25 * LN2 * ts.t_kepler / 8
    res = run_scenario(_decl(
        spectrum="taylor1",
        initial_state={"packet": 0},
        events=[{"pulse": {"fwhm": fwhm_au, "area": "pi", "slot": 0}}],
    ))
    assert res.passed
    assert res.observables["pop_g"] > 0.98
    assert res.observables["norm_error"] < 1e-8


def test_declarative_gate_event():
    res = run_scenario(_decl(
        d=4,
        spectrum="taylor1",
        initial_state={"packet": 1},
        events=[{"gate": {"unitary": [[0, 0, 0, 1], [1, 0, 0, 0],
                                      [0, 1, 0, 0], [0, 0, 1, 0]]}}],
    ))
    assert res.passed
    assert res.observables["pop_k=2"] == pytest.approx(1.0, abs=1e-9)
    assert res.observables["pop_g"] == pytest.approx(0.0, abs=1e-12)


def test_align_revival_is_gone(tmp_path, capsys):
    # padding a gate to whole revival times was an option of the config
    # format and of `compile`; both now reject it
    cfg = tmp_path / "gate.yaml"
    cfg.write_text(yaml.safe_dump(_decl(d=4, initial_state={"packet": 0}, events=[
        {"gate": {"unitary": np.eye(4).tolist(), "align_revival": True}}])))
    assert main(["run", str(cfg)]) == 2
    assert "'align_revival'" in capsys.readouterr().err
    ufile = tmp_path / "u4.json"
    _dump_unitary(ufile, np.eye(4))
    with pytest.raises(SystemExit) as exit_:
        main(["compile", str(ufile), "--align-revival"])
    assert exit_.value.code == 2


def test_declarative_gate_needs_empty_storage():
    spec = ManifoldSpec(nbar=180, d=8)
    ts = time_scales(spec)
    fwhm_au = 0.25 * LN2 * ts.t_kepler / 8
    with pytest.raises(ScenarioError):
        run_scenario(_decl(
            spectrum="taylor1",
            initial_state={"packet": 0},
            events=[
                {"pulse": {"fwhm": fwhm_au, "area": 0.5 * np.pi, "slot": 0}},
                {"gate": {"unitary": np.eye(8).tolist()}},
            ],
        ))


def test_declarative_config_errors():
    base = dict(initial_state={"packet": 0})
    bad_events = [
        [{"wait": "1 kepler", "shift": 1}],                    # two keys
        [{"teleport": 1}],                                     # unknown event
        [{"pulse": {"fwhm": "0.02 kepler"}}],                  # no area/peak
        [{"pulse": {"fwhm": "0.02 kepler", "area": "pi",
                    "peak_rabi": 1.0}}],                       # both
        [{"pulse": {"fwhm": "0.02 kepler", "area": "pi",
                    "slot": 0, "center": 0.0}}],               # slot and center
        [{"pulse": {"fwhm": "0.02 kepler", "area": "pi",
                    "center": -1e9}}],                         # in the past
        [{"wait": -1.0}],
        [{"gate": {"unitary": np.eye(8).tolist(),
                   "file": "x.json"}}],                        # both sources
        [{"gate": {"unitary": (2.0 * np.eye(8)).tolist()}}],   # not unitary
    ]
    for events in bad_events:
        with pytest.raises(ConfigError):
            run_scenario(_decl(events=events, **base))
    with pytest.raises(ConfigError):
        run_scenario(_decl(events=[], outputs={"trace_points": 1}, **base))
    with pytest.raises(ConfigError):
        run_scenario(_decl(events=[], outputs={"observables": ["entropy"]}, **base))
    with pytest.raises(ConfigError):
        run_scenario(_decl(events=[], spectrum="cubic", **base))
    with pytest.raises(ConfigError):
        run_scenario({"manifold": {"nbar": 180}, "initial_state": "uniform_packet"})


def test_declarative_pulse_area_is_bounded(tmp_path, capsys):
    # an area of 1e308 used to reach the pulse integrator and die there with a
    # ZeroDivisionError traceback (exit 1)
    base = dict(initial_state={"packet": 0}, d=4)
    for pulse, field in [({"area": 1.0e308}, "area"), ({"area": -101 * math.pi}, "area"),
                         ({"peak_rabi": 1.0e300}, "peak_rabi")]:
        events = [{"pulse": {"fwhm": "0.02 kepler", "slot": 0, **pulse}}]
        with pytest.raises(ConfigError, match=rf"events\[0\]\.{field}: pulse area"):
            run_scenario(_decl(events=events, **base))
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(
        "manifold: {nbar: 180, d: 4}\n"
        "initial_state: {packet: 0}\n"
        "events:\n"
        "  - pulse: {fwhm: 0.02 kepler, area: 1.0e+308, slot: 0}\n"
    )
    assert main(["run", str(cfg)]) == 2
    assert "events[0].area: pulse area" in capsys.readouterr().err


def test_declarative_pulse_center_within_clock_tolerance():
    # a centre up to 1e-9 au before 4 sigma past the clock is accepted;
    # the pulse then starts at the clock instead of flying backwards
    spec = ManifoldSpec(nbar=180, d=8)
    fwhm_au = 0.25 * LN2 * time_scales(spec).t_kepler / 8
    center = 4.0 * PulseSpec(fwhm=fwhm_au, peak_rabi=1.0).sigma - 5e-10
    assert PulseSpec(fwhm=fwhm_au, peak_rabi=1.0, center_time=center).t_start < 0.0
    res = run_scenario(_decl(
        initial_state={"packet": 0},
        events=[{"pulse": {"fwhm": fwhm_au, "area": "pi", "center": center}},
                {"wait": "0.1 kepler"}],
        outputs={"trace_points": 5},
    ))
    assert res.passed
    assert res.observables["pop_g"] > 0.0
    assert np.all(np.diff(res.trace.t_au) > 0)


def test_declarative_trace():
    res = run_scenario(_decl(
        initial_state={"packet": 0},
        events=[{"wait": "0.5 kepler"}],
        outputs={"trace_points": 33},
    ))
    assert res.trace is not None
    assert res.trace.t_au[0] == 0.0
    assert res.trace.t_au[-1] == pytest.approx(
        0.5 * time_scales(ManifoldSpec(180, 8)).t_kepler, rel=1e-12)
    assert res.trace.packet_populations.shape[1] == 8


# ---------------------------------------------------------------------------
# command line


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    for name in CANONICAL:
        assert name in out


def test_cli_describe(capsys):
    assert main(["describe", "fig2_dark_packet"]) == 0
    assert "pulse fwhm" in capsys.readouterr().out
    assert main(["describe", "nope"]) == 2


def test_cli_run_pass_and_fail(capsys):
    assert main(["run", "time_scales"]) == 0
    assert "PASS time_scales (4/4 checks)" in capsys.readouterr().out
    assert main(["run", "nope"]) == 2


def test_cli_run_yaml_with_trace(tmp_path, capsys):
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(
        "manifold: {nbar: 180, d: 8}\n"
        "initial_state: {packet: 0}\n"
        "events:\n"
        "  - wait: 0.5 kepler\n"
        "outputs: {trace_points: 17}\n"
    )
    trace = tmp_path / "out.csv"
    assert main(["run", str(cfg), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("t_au,t_si_ns,pop_g,pop_e,pop_k=")
    assert len(lines) == 18
    capsys.readouterr()
    # --trace is single-source only
    assert main(["run", str(cfg), str(cfg), "--trace", str(trace)]) == 2


def test_cli_run_invalid_yaml(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: time_scales\nbogus: 3\n")
    assert main(["run", str(bad)]) == 2
    notmap = tmp_path / "list.yaml"
    notmap.write_text("- 1\n- 2\n")
    assert main(["run", str(notmap)]) == 2
    capsys.readouterr()
    # libyaml and PyYAML's own scanner word the reason differently
    unclosed = tmp_path / "unclosed.yaml"
    unclosed.write_text("manifold: {nbar: 180, d: 4\nevents: []\n")
    assert main(["run", str(unclosed)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {unclosed}: not valid YAML (")


@pytest.mark.parametrize("text, key, line", [
    ("manifold: {nbar: 180, d: 4}\nmanifold: {nbar: 200, d: 3}\nevents: []\n", "manifold", 2),
    ("scenario: time_scales\nscenario: rabi_dft_ratio\n", "scenario", 2),
    ("manifold: {nbar: 180, d: 4}\n"
     "events:\n"
     "  - pulse:\n"
     "      fwhm: 0.02 kepler\n"
     "      area: pi\n"
     "      slot: 0\n"
     "      area: 2.0\n", "area", 7),
], ids=["top-level", "scenario", "pulse-event"])
def test_cli_run_rejects_duplicate_keys(tmp_path, capsys, text, key, line):
    # PyYAML keeps the last value: these once ran d = 3, the second
    # scenario or an area of 2 rad, with exit 0
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: duplicate key {key!r} on line {line}\n")


def _seeded_configs(n, seed):
    """YAML texts of declarative configs over the value types configs use."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(n):
        d = int(rng.integers(2, 9))
        z = rng.normal(size=d) * 10.0 ** rng.integers(-300, 300, size=d)
        events = []
        for _ in range(int(rng.integers(0, 5))):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                events.append({"wait": f"{rng.uniform(0, 3)!r} kepler" if rng.integers(0, 2)
                               else float(rng.uniform(0, 1e7))})
            elif kind == 1:
                events.append({"shift": int(rng.integers(-d, d))})
            elif kind == 2:
                events.append({"pulse": {"fwhm": f"{rng.uniform(0.01, 0.1)!r} kepler",
                                         "area": "pi" if rng.integers(0, 2) else -0.0,
                                         "target": str(rng.choice(["g", "e"])),
                                         "slot": int(rng.integers(0, d)),
                                         "phase": float(rng.normal())}})
            else:
                U = haar_unitary(d, rng)
                events.append({"gate": {"unitary": [[[float(u.real), float(u.imag)] for u in row]
                                                    for row in U],
                                        "align_revival": bool(rng.integers(0, 2))}})
        cfg = {"manifold": {"nbar": int(rng.integers(20, 5000)), "d": d},
               "spectrum": str(rng.choice(list(SPECTRUM_MODES))),
               "initial_state": {"amplitudes": {"basis": "packet",
                                                "values": [[float(x), math.inf] for x in z]}},
               "events": events,
               "outputs": {"trace_points": int(rng.integers(0, 100)),
                           "observables": ["autocorrelation"] if rng.integers(0, 2) else []}}
        texts.append(yaml.safe_dump(cfg, sort_keys=bool(rng.integers(0, 2)),
                                    default_flow_style=[None, False, True][rng.integers(0, 3)]))
    return texts


@pytest.mark.parametrize("base", [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if yaml.__with_libyaml__ else []), ids=lambda b: b.__name__)
def test_config_loader_matches_safe_load(base):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.M | re.S)
    assert texts
    texts += _seeded_configs(50, seed=11)
    # an explicit key may override one a merge key (<<) brings in
    texts.append("base: &b {nbar: 180, d: 4}\nmanifold:\n  <<: *b\n  d: 3\n")
    loader = type("Loader", (cli._UniqueKeys, base), {})
    for text in texts:
        got, want = yaml.load(text, Loader=loader), yaml.safe_load(text)
        assert repr(got) == repr(want)      # values, types and key order


def test_cli_run_parallel(capsys):
    assert main(["run", "time_scales", "rabi_dft_ratio", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS time_scales" in out and "PASS rabi_dft_ratio" in out
    assert main(["run", "time_scales", "--jobs", "0"]) == 2


def test_cli_artifacts(tmp_path, capsys):
    adir = tmp_path / "arts"
    assert main(["run", "dispersion_nbar_scaling", "--artifacts", str(adir)]) == 0
    capsys.readouterr()
    table = (adir / "nbar_scaling.csv").read_text().splitlines()
    assert table[0] == "nbar,decay,decay_times_nbar_sq"
    assert len(table) == 4


def test_cli_compile_verify_roundtrip(tmp_path, capsys):
    spec = ManifoldSpec(nbar=180, d=4)
    U = random_two_level_unitary(spec, 3)
    ufile = tmp_path / "u4.json"
    _dump_unitary(ufile, U)
    sfile = tmp_path / "sched.json"
    assert main(["compile", str(ufile), "-o", str(sfile)]) == 0
    doc = json.loads(sfile.read_text())
    assert doc["d"] == 4 and doc["nbar"] == 180

    assert main(["verify", str(sfile), str(ufile),
                 "--spectrum", "taylor1", "--pulses", "ideal",
                 "--min-fidelity", "0.999999"]) == 0
    out = capsys.readouterr().out
    assert "PASS verify" in out

    # the full model cannot hit an impossibly tight bound
    assert main(["verify", str(sfile), str(ufile),
                 "--min-fidelity", "0.9999999"]) == 1
    assert "FAIL verify" in capsys.readouterr().out


def test_cli_compile_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["compile", str(missing)]) == 2
    notu = tmp_path / "notu.json"
    notu.write_text("[[1, 1], [0, 1]]")
    assert main(["compile", str(notu)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["non-utf8", "directory", "not-json"])
@pytest.mark.parametrize("entry", ["run", "gate-file", "compile", "verify"])
def test_cli_unreadable_input_is_config_error(tmp_path, capsys, entry, bad):
    # non-UTF-8 text and a directory each once ended in a
    # UnicodeDecodeError or IsADirectoryError traceback
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    elif bad == "not-json":
        path.write_text("[[1, 0], [0, 1]")    # neither JSON nor YAML
    else:
        path.write_bytes(b"caf\xe9\n")       # Latin-1
    if entry == "run":
        argv = ["run", str(path)]
    elif entry == "gate-file":
        cfg = tmp_path / "gate.yaml"
        cfg.write_text(yaml.safe_dump(_decl(d=4, initial_state={"packet": 0},
                                            events=[{"gate": {"file": str(path)}}])))
        argv = ["run", str(cfg)]
    elif entry == "compile":
        argv = ["compile", str(path)]
    else:
        ufile = tmp_path / "u.json"
        _dump_unitary(ufile, np.eye(4))
        argv = ["verify", str(path), str(ufile)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_cli_verify_dimension_mismatch(tmp_path, capsys):
    spec = ManifoldSpec(nbar=180, d=4)
    U = random_two_level_unitary(spec, 3)
    ufile = tmp_path / "u4.json"
    _dump_unitary(ufile, U)
    sfile = tmp_path / "sched.json"
    assert main(["compile", str(ufile), "-o", str(sfile)]) == 0
    # a target of the wrong size, or of the right size but not unitary:
    # 2 U once printed process_fidelity = 3.99 and PASS, and the zero
    # matrix passed a --min-fidelity 0 check
    bad = tmp_path / "bad.json"
    for target in (np.eye(2), 2.0 * U, np.zeros((4, 4))):
        _dump_unitary(bad, target)
        capsys.readouterr()
        assert main(["verify", str(sfile), str(bad), "--min-fidelity", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
def test_cli_verify_rejects_min_fidelity_outside_unit_interval(tmp_path, capsys, value):
    # nan once printed threshold = nan and FAIL with exit 1
    sfile, ufile, _ = _compiled_schedule(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(sfile), str(ufile), "--min-fidelity", value]) == 2
    assert "--min-fidelity" in capsys.readouterr().err


def _compiled_schedule(tmp_path):
    """(schedule file, unitary file, schedule doc) of a compiled d = 4 gate."""
    ufile = tmp_path / "u4.json"
    _dump_unitary(ufile, random_two_level_unitary(ManifoldSpec(nbar=180, d=4), 3))
    sfile = tmp_path / "sched.json"
    assert main(["compile", str(ufile), "-o", str(sfile)]) == 0
    return sfile, ufile, json.loads(sfile.read_text())


def test_cli_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; options of one call must
    # not leak into the next
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(yaml.safe_dump(_decl(d=4, initial_state={"packet": 0},
                                        events=[{"wait": "0.5 kepler"}],
                                        outputs={"trace_points": 5})))
    trace = tmp_path / "out.csv"
    assert main(["run", str(cfg), "--trace", str(trace)]) == 0
    trace.unlink()
    assert main(["run", str(cfg)]) == 0
    assert list(tmp_path.glob("*.csv")) == []

    sfile, ufile, _ = _compiled_schedule(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(sfile), str(ufile),
                 "--pulses", "ideal", "--spectrum", "taylor1"]) == 0
    assert "PASS verify (ideal pulses, taylor1 spectrum)" in capsys.readouterr().out
    main(["verify", str(sfile), str(ufile)])
    assert "verify (full pulses, exact spectrum)" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("nbar", 2), ("d", 1), ("pulse_fwhm_au", 0.0), ("peak_rabi_au", math.nan),
    # pulse areas beyond 100 pi once ended in a traceback from the pulse
    # integrator: 300 pi pulses drift off unitary, 1e300 overflows
    ("peak_rabi_au", lambda calibrated: 300.0 * calibrated), ("peak_rabi_au", 1e300),
], ids=["nbar-2", "d-1", "pulse_fwhm_au-0.0", "peak_rabi_au-nan",
        "peak_rabi_au-300pi", "peak_rabi_au-1e300"])
def test_cli_verify_rejects_bad_schedule_header(tmp_path, capsys, field, value):
    sfile, ufile, doc = _compiled_schedule(tmp_path)
    doc[field] = value(doc[field]) if callable(value) else value
    sfile.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(sfile), str(ufile)]) == 2
    assert "config error" in capsys.readouterr().err


def test_pulse_fwhm_bound_solves_at_both_ends(tmp_path, capsys):
    # schedule JSON and declarative pulses at either end of the accepted
    # FWHM range run through the full model
    spec = ManifoldSpec(nbar=180, d=4)
    t_kepler = time_scales(spec).t_kepler
    sfile, ufile, doc = _compiled_schedule(tmp_path)
    for factor in FWHM_RANGE_KEPLER:
        fwhm = factor * t_kepler
        doc.update(pulse_fwhm_au=fwhm, peak_rabi_au=pi_pulse_peak_rabi(spec, fwhm))
        sfile.write_text(json.dumps(doc))
        assert main(["verify", str(sfile), str(ufile), "--min-fidelity", "0"]) == 0
        for area in ("pi", 100 * math.pi):
            res = run_scenario(_decl(d=4, initial_state={"packet": 0},
                                     events=[{"pulse": {"fwhm": fwhm, "area": area}}]))
            assert res.passed


@pytest.mark.parametrize("fwhm", [1e-300, 1e-160, 1e-150, 1e150, 1e200])
def test_cli_verify_rejects_fwhm_outside_bound(tmp_path, capsys, fwhm):
    # with the calibrated pi-pulse peak Rabi frequency, each of these once
    # ended in a traceback from the pulse integrator (exit 1):
    # ZeroDivisionError, RuntimeError or OverflowError
    sfile, ufile, doc = _compiled_schedule(tmp_path)
    doc.update(pulse_fwhm_au=fwhm,
               peak_rabi_au=pi_pulse_peak_rabi(ManifoldSpec(nbar=180, d=4), fwhm))
    sfile.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(sfile), str(ufile)]) == 2
    assert "pulse FWHM" in capsys.readouterr().err


def test_pulse_fwhm_outside_bound_is_a_config_error(tmp_path, capsys):
    spec = ManifoldSpec(nbar=180, d=4)
    lo, hi = (f * time_scales(spec).t_kepler for f in FWHM_RANGE_KEPLER)
    ufile = tmp_path / "u4.json"
    _dump_unitary(ufile, random_two_level_unitary(spec, 3))
    for fwhm in (lo * (1 - 1e-9), hi * (1 + 1e-9), 1e-300, 1e200):
        with pytest.raises(ConfigError, match=r"events\[0\]\.fwhm: pulse FWHM"):
            run_scenario(_decl(d=4, initial_state={"packet": 0},
                               events=[{"pulse": {"fwhm": fwhm, "area": "pi"}}]))
        capsys.readouterr()
        assert main(["compile", str(ufile), "--fwhm", f"{fwhm!r} au"]) == 2
        assert "--fwhm: pulse FWHM" in capsys.readouterr().err


def test_cli_verify_rejects_nan_wait(tmp_path, capsys):
    # a NaN duration once reached the simulation and printed fidelity nan
    sfile, ufile, doc = _compiled_schedule(tmp_path)
    next(p for p in doc["primitives"] if p["type"] == "wait")["duration_au"] = math.nan
    sfile.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(sfile), str(ufile)]) == 2
    assert "config error" in capsys.readouterr().err


_NAN_AMPLITUDES = {"amplitudes": {"basis": "packet",
                                  "values": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}}


@pytest.mark.parametrize("events, initial", [
    ([{"wait": "nan ns"}], None),
    ([{"wait": math.nan}], None),
    ([{"wait": "inf kepler"}], None),
    ([{"pulse": {"fwhm": "inf ns", "area": "pi"}}], None),
    ([{"pulse": {"fwhm": "0.02 kepler", "area": math.nan}}], None),
    ([{"pulse": {"fwhm": "0.02 kepler", "peak_rabi": math.inf}}], None),
    ([{"pulse": {"fwhm": "0.02 kepler", "area": "pi", "detuning": math.nan}}], None),
    ([{"pulse": {"fwhm": "0.02 kepler", "area": "pi", "phase": -math.inf}}], None),
    ([], _NAN_AMPLITUDES),
], ids=["wait-nan-ns", "wait-nan", "wait-inf-kepler", "fwhm-inf", "area-nan",
        "peak-rabi-inf", "detuning-nan", "phase-inf", "amplitudes-nan"])
def test_cli_run_rejects_non_finite_config(tmp_path, capsys, events, initial):
    # each once printed nan results with exit 0, died with a traceback
    # or hung in the pulse integrator
    cfg = _decl(d=4, initial_state=initial or {"packet": 0}, events=events)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_run_rejects_non_finite_scenario_param(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"scenario": "fig2_dark_packet",
                                    "params": {"detuning": math.nan}}))
    assert main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_nbar_bound_itself_compiles_and_verifies(tmp_path, capsys):
    ufile, sfile = tmp_path / "u4.json", tmp_path / "sched.json"
    _dump_unitary(ufile, random_two_level_unitary(ManifoldSpec(nbar=180, d=4), 3))
    assert main(["compile", str(ufile), "--nbar", str(MAX_NBAR), "-o", str(sfile)]) == 0
    assert main(["verify", str(sfile), str(ufile)]) == 0
    assert "PASS verify (full pulses, exact spectrum)" in capsys.readouterr().out


@pytest.mark.parametrize("nbar", [MAX_NBAR + 1, 10**160, 10**400],
                         ids=["bound+1", "1e160", "1e400"])
@pytest.mark.parametrize("entry", ["schedule-json", "yaml-manifold", "compile", "nbars",
                                   "shift_gate_demo", "compile_random_unitary"])
def test_nbar_beyond_bound_is_a_config_error(tmp_path, capsys, entry, nbar):
    # 1e160 and 1e400 once ended in OverflowError tracebacks (exit 1)
    if entry == "schedule-json":
        sfile, ufile, doc = _compiled_schedule(tmp_path)
        doc["nbar"] = nbar
        sfile.write_text(json.dumps(doc))
        argv = ["verify", str(sfile), str(ufile)]
    elif entry == "compile":
        ufile = tmp_path / "u4.json"
        _dump_unitary(ufile, random_two_level_unitary(ManifoldSpec(nbar=180, d=4), 3))
        argv = ["compile", str(ufile), "--nbar", str(nbar)]
    else:
        cfg = {"yaml-manifold": _decl(nbar=nbar, d=4, initial_state={"packet": 0},
                                      events=[{"wait": "1 kepler"}]),
               "nbars": {"scenario": "dispersion_nbar_scaling",
                         "params": {"nbars": [180, nbar]}},
               "shift_gate_demo": {"scenario": entry, "params": {"nbar": nbar}},
               "compile_random_unitary": {"scenario": entry, "params": {"nbar": nbar}}}[entry]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv = ["run", str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"nbar must be <= {MAX_NBAR}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nbar", "d"])
@pytest.mark.parametrize("value", [math.inf, 1e400, 180.5, 4.0, "180", True],
                         ids=["inf", "1e400", "180.5", "4.0", "string", "bool"])
def test_declarative_manifold_needs_integers(tmp_path, capsys, field, value):
    # inf and 1e400 (read as inf) once ended in an OverflowError traceback,
    # and 180.5 ran silently as nbar 180
    cfg = _decl(d=4, initial_state={"packet": 0}, events=[{"wait": "1 kepler"}])
    cfg["manifold"][field] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path)]) == 2
    assert f"config.manifold.{field}: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("fwhm_kepler", np.geomspace(FWHM_RANGE_KEPLER[0], FWHM_RANGE_KEPLER[1], 29))
def test_pulse_area_edge_is_one_rule_for_configs_and_schedule_json(fwhm_kepler):
    # a pulse at +-100 pi is accepted and the next float past it rejected,
    # by a declarative pulse (given by peak Rabi frequency or by area) and
    # by schedule JSON alike
    spec = ManifoldSpec(nbar=180, d=4)
    fwhm = float(fwhm_kepler) * time_scales(spec).t_kepler
    pi_peak = pi_pulse_peak_rabi(spec, fwhm)
    doc = {"nbar": 180, "d": 4, "pulse_fwhm_au": fwhm, "primitives": []}

    def json_accepts(peak):
        try:
            schedule_from_json(json.dumps(dict(doc, peak_rabi_au=peak)))
        except ValueError as e:
            assert "pulse area" in str(e)
            return False
        return True

    def config_accepts(**strength):
        try:
            _parse_pulse_event(dict(fwhm=fwhm, **strength), spec, 0.0, "ev")
        except ConfigError as e:
            assert "pulse area" in str(e)
            return False
        return True

    edge = MAX_PULSE_AREA / math.pi * pi_peak
    past = math.nextafter(edge, math.inf)
    assert json_accepts(edge) and not json_accepts(past)
    for sign in (1.0, -1.0):
        assert config_accepts(peak_rabi=sign * edge)
        assert not config_accepts(peak_rabi=sign * past)
        assert config_accepts(area=sign * MAX_PULSE_AREA)
        assert not config_accepts(area=sign * math.nextafter(MAX_PULSE_AREA, math.inf))


def test_pulse_area_edge_gives_a_peak_schedule_json_accepts():
    # an area of +-100 pi once gave a peak one ulp past the bound on the
    # peak for about 1 in 3 calibrated pi peaks, so the declarative pulse
    # ran while schedule JSON holding its peak was refused; `area: pi`
    # gives the calibrated pi peak itself
    rng = np.random.default_rng(22)
    lo, hi = np.log(FWHM_RANGE_KEPLER)
    for _ in range(200):
        d = int(rng.integers(2, 17))
        spec = ManifoldSpec(nbar=int(rng.integers(d + 2, 2000)), d=d)
        fwhm = float(np.exp(rng.uniform(lo, hi))) * time_scales(spec).t_kepler
        pi_peak = pi_pulse_peak_rabi(spec, fwhm)
        doc = {"nbar": spec.nbar, "d": d, "pulse_fwhm_au": fwhm, "primitives": []}
        assert _parse_pulse_event({"fwhm": fwhm, "area": "pi"}, spec, 0.0, "ev").peak_rabi == pi_peak
        for sign in (1.0, -1.0):
            peak = _parse_pulse_event({"fwhm": fwhm, "area": sign * MAX_PULSE_AREA},
                                      spec, 0.0, "ev").peak_rabi
            assert peak == sign * (MAX_PULSE_AREA / math.pi * pi_peak)
            schedule_from_json(json.dumps(dict(doc, peak_rabi_au=abs(peak))))


@pytest.mark.parametrize("scenario, params, key", [
    ("qft_roundtrip", "{n_states: 0}", "n_states"),             # once a traceback
    ("qft_roundtrip", "{d_min: 0, d_max: 3}", "d_min"),         # once a traceback
    ("qft_roundtrip", "{d_min: 5, d_max: 4}", "d_max"),         # once PASS over no d
    ("revival_recovery", "{window: -0.5}", "window"),           # once a traceback
    ("revival_recovery", "{window: 0.0}", "window"),            # once FAILs off one point
    ("revival_recovery", "{grid_per_kepler: 0}", "grid_per_kepler"),
    ("revival_recovery", "{window: 1.0e-5}", "grid_per_kepler"),      # one grid point
    # a window of 1 or more starts the scan at or before t = 0; 1.5 once
    # reported a revival peak at 5.4e-17 t_revival and FAILed (exit 1)
    ("revival_recovery", "{window: 1}", "window"),
    ("revival_recovery", "{window: 1.5}", "window"),
    ("compile_random_unitary", "{haar_count: 0}", "haar_count"),      # once PASS, margin -1e9
    ("compile_random_unitary", "{haar_count: -3}", "haar_count"),
    ("compile_random_unitary", "{haar_dims: []}", "haar_dims"),       # once PASS over none
    ("kernel_identity", "{n_pairs: 0}", "n_pairs"),                   # once PASS over none
    ("shift_gate_demo", "{ds: []}", "ds"),
    ("shift_gate_demo", "{n_states: 0}", "n_states"),
    ("fig2_dark_packet", "{fwhm_factor: 0.0}", "fwhm_factor"),        # once a traceback
    ("two_level_vs_full", "{fwhm_factor: -1.0}", "fwhm_factor"),
    ("pulse_constraints", "{fwhm_factor: 0.0}", "fwhm_factor"),
    # counts that size arrays are bounded by MAX_COUNT; 1e400 states once
    # ended in numpy's "Maximum allowed dimension exceeded" traceback
    ("qft_roundtrip", "{n_states: 1%s}" % ("0" * 400), "n_states"),
    ("qft_roundtrip", "{n_states: 1000001}", "n_states"),
    ("qft_roundtrip", "{d_max: 1000001}", "d_max"),
    ("shift_gate_demo", "{n_states: 1000001}", "n_states"),
    ("kernel_identity", "{n_pairs: 1000001}", "n_pairs"),
    ("compile_random_unitary", "{haar_count: 1000001}", "haar_count"),
    ("revival_recovery", "{grid_per_kepler: 1000001}", "grid_per_kepler"),
    ("revival_recovery", "{window: 1.0e+300}", "window"),             # once an OverflowError
    ("fig2_dark_packet", "{trace_points: 1000001}", "trace_points"),
    ("fig2_dark_packet", "{trace_points: 1}", "trace_points"),
], ids=lambda v: re.sub(r"[{} ]", "", str(v))[:40])
def test_named_scenario_param_out_of_bounds_is_a_config_error(tmp_path, capsys,
                                                              scenario, params, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"scenario: {scenario}\nparams: {params}\n")
    assert main(["run", str(path)]) == 2
    assert f"config error: config.params.{key}:" in capsys.readouterr().err


def test_revival_window_inside_the_bound_reports_as_before(tmp_path, capsys):
    # the bound on window leaves an in-range window's scan as it was: the
    # peak the parent commit reported for window 0.05 (it FAILs the
    # recovery depth check, as the default window does; exit 1)
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: revival_recovery\nparams: {window: 0.05}\n")
    assert main(["run", str(path)]) == 1
    obs = dict(line.strip().split(" = ") for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ") and not line.startswith("  param "))
    assert float(obs["revival_peak_t_over_t_revival"]) == pytest.approx(1.0077868180023266,
                                                                        rel=1e-12)
    assert float(obs["revival_peak_value"]) == pytest.approx(0.8445870274884678, rel=1e-12)


@pytest.mark.parametrize("text, said", [
    # YAML 1.1 reads an exponent without a dot, or without a sign, as text
    ("scenario: pulse_constraints\nparams: {fwhm_factor: 1e-9}\n",
     "config.params.fwhm_factor: expected a number, got the string '1e-9' "
     "(YAML reads a number such as 1e-9 as text; write 1.0e-9)"),
    ("scenario: kernel_identity\nparams: {n_pairs: 1.0e+2}\n",
     "config.params.n_pairs: expected an integer, got 100.0"),
    ("scenario: kernel_identity\nparams: {n_pairs: ten}\n",
     "config.params.n_pairs: expected an integer, got 'ten'"),
    ("manifold: {nbar: 180, d: 4}\ninitial_state: uniform_packet\nevents:\n"
     "  - wait: 1e5\n",
     "config.events[0].wait: quantity must look like '0.89 ns', got the string '1e5' "
     "(YAML reads a number such as 1e-9 as text; write 1.0e-9)"),
    ("manifold: {nbar: 180, d: 4}\ninitial_state: uniform_packet\nevents:\n"
     "  - pulse: {fwhm: 0.02 kepler, area: 1.0E3, slot: 0}\n",
     "config.events[0].area: expected a number, got the string '1.0E3'"),
], ids=["exponent-float", "float-for-int", "word-for-int", "exponent-wait", "unsigned-exponent"])
def test_config_error_says_what_it_received(tmp_path, capsys, text, said):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert said in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one finite-number rule for every input reader, and bounded counts

_BIG = 10**400      # an int beyond the float range


def _amplitudes(values):
    return _decl(d=len(values), events=[],
                 initial_state={"amplitudes": {"basis": "packet", "values": values}})


@pytest.mark.parametrize("case", ["compile-unitary", "verify-schedule", "verify-unitary",
                                  "run-gate-unitary", "run-amplitudes", "amplitudes-bool",
                                  "amplitudes-three-numbers"])
def test_cli_rejects_what_is_not_a_finite_number(tmp_path, capsys, case):
    # the first five once ended in an OverflowError traceback (exit 1); the
    # last two ran as if the pairs read [1, 0], [0, 0] (exit 0)
    sfile, ufile, doc = _compiled_schedule(tmp_path)
    bad_u = tmp_path / "bad_u.json"
    rows = json.loads(ufile.read_text())
    rows[0][0] = _BIG
    bad_u.write_text(json.dumps(rows))
    gate = np.eye(4).tolist()
    gate[1][1] = _BIG
    configs = {
        "run-gate-unitary": _decl(d=4, initial_state={"packet": 0},
                                  events=[{"gate": {"unitary": gate}}]),
        "run-amplitudes": _amplitudes([[_BIG, 0], [0, 0], [0, 0], [1, 0]]),
        "amplitudes-bool": _amplitudes([[True, 0], [0, False]]),
        "amplitudes-three-numbers": _amplitudes([[1, 0, 5], [0, 0]]),
    }
    if case in configs:
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(configs[case]))
        argv = ["run", str(path)]
    elif case == "verify-schedule":
        next(p for p in doc["primitives"] if p["type"] == "wait")["duration_au"] = _BIG
        sfile.write_text(json.dumps(doc))
        argv = ["verify", str(sfile), str(ufile)]
    else:
        argv = ["compile", str(bad_u)] if case == "compile-unitary" else [
            "verify", str(sfile), str(bad_u)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("route, value, said", [
    ("run", _BIG, "got an integer of 401 digits"),
    ("run", 1000001, "got 1000001"),
    ("run", -10**19, "got -10000000000000000000"),
    ("verify", _BIG, "got an integer of 401 digits"),
    ("verify", "1e400", "got '1e400'"),
], ids=["run-401-digits", "run-short", "run-20-digits", "verify-401-digits", "verify-string"])
def test_config_error_shortens_a_long_integer(tmp_path, capsys, route, value, said):
    # an out-of-range integer of 401 digits was printed in full; one of up
    # to SHOWN_DIGITS digits, and every other value, is printed as before
    if route == "run":
        path = tmp_path / "cfg.yaml"
        path.write_text(f"scenario: qft_roundtrip\nparams: {{n_states: {value}}}\n")
        argv = ["run", str(path)]
        where = "config.params.n_states: must be in 1 .. 1000000, "
    else:
        sfile, ufile, doc = _compiled_schedule(tmp_path)
        next(p for p in doc["primitives"] if p["type"] == "wait")["duration_au"] = value
        sfile.write_text(json.dumps(doc))
        argv = ["verify", str(sfile), str(ufile)]
        where = "duration_au must be a finite number, "
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(where + said + "\n")
    assert len(err) < 300


@pytest.mark.parametrize("digits", ["json", "yaml"])
def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys, digits):
    # Python refuses to read an int of more than 4300 digits; the JSON and
    # YAML readers once let that ValueError out as a traceback
    if digits == "json":
        path = tmp_path / "u.json"
        path.write_text("[[" + "9" * 5000 + "]]")
        argv = ["compile", str(path)]
    else:
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: kernel_identity\nparams: {n_pairs: " + "9" * 5000 + "}\n")
        argv = ["run", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: not valid")


# adversarial input values: ints far past the float range, bools,
# non-finite floats, numeric strings, None and short lists of numbers
_ADVERSARIAL = st.one_of(
    st.integers(-10**400, 10**400),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(st.floats().map(repr), st.integers(-10**400, 10**400).map(str),
              st.sampled_from(["nan", "inf", "1e-9", "1.0 ns", "-inf kepler"])),
    st.none(),
    st.lists(st.one_of(st.integers(-10**400, 10**400), st.floats(), st.booleans()),
             min_size=1, max_size=3),
)
_SCHEDULE_FIELDS = [(None, "pulse_fwhm_au"), (None, "peak_rabi_au"),
                    (None, "recorded_global_phase"), ("wait", "duration_au"),
                    ("manifold_pi_pulse", "phase"), ("storage_pulse", "theta")]


def _read_unitary_entry(value):
    # read, then checked for unitarity as compile and verify check it (d = 2
    # on Python scalars, d = 3 with numpy)
    for rows in ([[value, 0.0], [0.0, 1.0]], [[value, 0, 0], [0, 1, 0], [0, 0, 1]]):
        U = unitary_from_obj(rows)
        decompose_unitary(U, ManifoldSpec(nbar=180, d=len(U)))
    return is_finite_number(value) or (
        isinstance(value, list) and len(value) == 2 and all(map(is_finite_number, value)))


def _read_amplitude_pair(value):
    # a list is the pair itself, anything else its real part
    pair = value if isinstance(value, list) else [value, 0.0]
    _parse_initial_state({"amplitudes": {"basis": "energy", "values": [pair, [0, 0]]}},
                         ManifoldSpec(nbar=180, d=2))
    return len(pair) == 2 and all(map(is_finite_number, pair))


_SCHEDULE_JSON = json.dumps({
    "nbar": 180, "d": 4, "pulse_fwhm_au": 2.5e5, "peak_rabi_au": 1e-5,
    "primitives": [{"type": "wait", "duration_au": 1.0},
                   {"type": "manifold_pi_pulse", "slot": 0, "target": "g", "phase": 0.0},
                   {"type": "storage_pulse", "theta": 0.1, "phi": 0.0, "detuning_area": 0.0,
                    "phase_g": 0.0, "phase_e": 0.0}]})


def _read_schedule_field(value, field):
    kind, key = field
    doc = json.loads(_SCHEDULE_JSON)
    obj = doc if kind is None else next(p for p in doc["primitives"] if p["type"] == kind)
    obj[key] = value
    schedule_from_json(json.dumps(doc))
    return is_finite_number(value)


def _read_quantity(value):
    parse_quantity(value, "where", ManifoldSpec(nbar=180, d=4))
    return is_finite_number(value) or isinstance(value, str)


@settings(max_examples=300, deadline=None)
@given(value=_ADVERSARIAL, reader=st.sampled_from(["unitary", "amplitude", "schedule",
                                                   "quantity"]),
       field=st.sampled_from(_SCHEDULE_FIELDS))
def test_input_readers_accept_a_value_or_raise_a_config_error(value, reader, field):
    # each reader either accepts the value (and then it is a finite
    # number, or a pair of them where a pair is read) or raises
    # ConfigError / ValueError, never another exception
    read = {"unitary": _read_unitary_entry, "amplitude": _read_amplitude_pair,
            "schedule": lambda v: _read_schedule_field(v, field),
            "quantity": _read_quantity}[reader]
    try:
        accepted_as_number = read(value)
    except ValueError:      # ConfigError is one
        return
    assert accepted_as_number


def test_count_bound_itself_is_accepted():
    _in_range({"n": MAX_COUNT}, "n", 1)
    with pytest.raises(ConfigError, match=r"config.params.n: must be in 1 \.\. 1000000"):
        _in_range({"n": MAX_COUNT + 1}, "n", 1)


# ---------------------------------------------------------------------------
# config rejections no other test reaches

_NO_FWHM = {"pulse": {"area": "pi"}}
_PULSE = {"fwhm": "0.02 kepler", "area": "pi"}


@pytest.mark.parametrize("cfg, said", [
    ({"manifold": [180, 8], "initial_state": "uniform_packet"},
     "config.manifold: expected a mapping"),
    ({"scenario": "time_scales", "params": [180]}, "config.params: expected a mapping"),
    (_decl(initial_state="uniform_packet", outputs=[1]), "config.outputs: expected a mapping"),
    (_decl(initial_state="uniform_packet", events=[5]), "config.events[0]: expected a mapping"),
    (_decl(initial_state="uniform_packet", events={"wait": 1.0}),
     "config.events: expected a list"),
    (_decl(initial_state="uniform_packet", outputs={"observables": "autocorrelation"}),
     "config.outputs.observables: expected a list"),
    (_decl(initial_state="uniform_packet", outputs={"trace_points": -1}),
     "config.outputs.trace_points: must be in 0 .. 1000000"),
    (_decl(initial_state="uniform_packet", outputs={"trace_points": MAX_COUNT + 1}),
     "config.outputs.trace_points: must be in 0 .. 1000000"),
    (_decl(events=[]), "config.initial_state: required"),
    (_decl(d=4, events=[], initial_state={"amplitudes": {
        "basis": "packet", "values": [[1, 0]] * 3}}), "need 4 [re, im] pairs"),
    (_decl(d=4, events=[], initial_state={"amplitudes": {
        "basis": "packet", "values": [[1, 0]] * 4}}), "amplitudes not normalized"),
    (_decl(initial_state="uniform_packet", events=[_NO_FWHM]),
     "config.events[0]: fwhm is required"),
    (_decl(initial_state="uniform_packet", events=[{"pulse": dict(_PULSE, target="x")}]),
     "config.events[0].target: 'g' or 'e'"),
    (_decl(initial_state="uniform_packet", events=[{"pulse": dict(_PULSE, slot=99)}]),
     "config.events[0].slot: 99 not in"),
    (_decl(initial_state="uniform_packet", events=[{"pulse": dict(_PULSE, slot=1.5)}]),
     "config.events[0].slot: expected an integer"),
    ({"scenario": "fig2_dark_packet", "params": {"fwhm_factor": 1.0}},
     "config.params.fwhm_factor: too large, the pulse support swallows the lead-in"),
    ({"scenario": "dispersion_nbar_scaling", "params": {"nbars": [360, 180]}},
     "config.params.nbars: need an ascending list"),
], ids=["manifold", "params", "outputs", "event", "events", "observables", "trace-points",
        "trace-points-bound", "initial-state", "amplitude-count", "amplitude-norm", "fwhm",
        "target", "slot", "slot-type", "lead-in", "nbars"])
def test_config_rejection_names_the_field(cfg, said):
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert said in str(err.value)


def test_cli_trace_of_a_scenario_without_one(tmp_path, capsys):
    assert main(["run", "time_scales", "--trace", str(tmp_path / "t.csv")]) == 2
    assert "config error: time_scales produced no trace" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_cli_compile_into_a_missing_directory(tmp_path, capsys):
    _, ufile, _ = _compiled_schedule(tmp_path)
    capsys.readouterr()
    assert main(["compile", str(ufile), "-o", str(tmp_path / "no" / "s.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_gate_after_a_pulse_into_storage_is_a_failed_run(tmp_path, capsys):
    # a valid config whose program fails as it runs: exit 1, not 2
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(_decl(d=4, initial_state={"packet": 0}, events=[
        {"pulse": {"fwhm": "0.02 kepler", "area": "pi", "slot": 0}},
        {"gate": {"unitary": np.eye(4).tolist()}}])))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "run failed: config.events[1]: ") 
