"""Two-level decomposition, pulse schedules, and process fidelity."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from rydpacket import (
    ManifoldSpec,
    SimulationState,
    Wait,
    compile_unitary,
    process_fidelity,
    run_program,
    shift_matrix,
    time_scales,
)
from rydpacket.basis import energy_to_packet_matrix, packet_to_energy_matrix
from rydpacket.constants import AU_TIME_NS, LN2
from rydpacket.gates import (
    DEFAULT_GATE_FWHM_FACTOR,
    GateSchedule,
    ManifoldPiPulse,
    ProgramError,
    StoragePulse,
    TwoLevelOp,
    compose_ops,
    decompose_unitary,
    merge_same_pair,
    probe_states,
    random_two_level_unitary,
    schedule_from_json,
    schedule_operator,
    schedule_to_json,
    zyz_angles,
)
import rydpacket.basis as basis_mod
import rydpacket.gates as gates_mod
import rydpacket.manifold as manifold_mod
import rydpacket.pulse as pulse_mod
from rydpacket.manifold import detunings
from rydpacket.pulse import FWHM_RANGE_KEPLER, PulseSpec, integrate_pulse, pi_pulse_peak_rabi
from rydpacket.scenarios import haar_unitary

# frozen reference values (nbar = 180, exact spectrum, full pulse model)
WAIT_ONE_PERIOD_FID_D8 = 0.9333572219416217    # Wait(t_kepler) vs identity, d = 8
WAIT_REVIVAL_FID_D4 = 0.9739029028426681       # Wait(t_revival) vs identity, d = 4
TWO_LEVEL_D4_FULL_FID = 0.9761740789170084     # compiled seed-7 block, d = 4
# SHA-256 of schedule_to_json(compile_unitary(_haar(d, d))) at nbar = 180,
# as json.dumps(doc, indent=2) wrote it
SCHEDULE_JSON_SHA256 = {
    2: "309ad9e2477971595bbe8512cd0fd765b89ab7dff354748b23fe876d6824506b",
    4: "f9bb08f2f32a40e17f1295ad913bebb35780fc46015963168ca6a68a4c1fcc11",
    8: "1bbda8cde52c2b5c94b0b6ecf1cf234e23b87ca2c8f5f287370e4be8018000b8",
    16: "c60b76909eea551fb534c54d827c5861e995626d7dbef9a505f2d2b51f937c3e",
}


def _haar(d, seed):
    return unitary_group.rvs(d, random_state=np.random.default_rng(seed))


def _spec(d=8):
    return ManifoldSpec(nbar=180, d=d)


def _packet_state(spec, bt, t=0.0):
    """State whose lab-frame packet amplitudes at clock t are bt."""
    w = detunings(spec, "exact")
    return SimulationState(spec, np.exp(1j * w * t) * (packet_to_energy_matrix(spec.d) @ bt), t=t)


def test_two_level_op_validation():
    with pytest.raises(ValueError):
        TwoLevelOp(k=1, k2=1, u2=np.eye(2))
    with pytest.raises(ValueError):
        TwoLevelOp(k=0, k2=1, u2=np.eye(3))
    with pytest.raises(ValueError):
        TwoLevelOp(k=0, k2=1, u2=np.array([[1, 0], [0, 2.0]]))


def test_embed_places_block():
    spec = _spec(4)
    u2 = np.array([[0, 1j], [1j, 0]])
    op = TwoLevelOp(k=-1, k2=2, u2=u2)
    U = op.embed(spec)
    a, b = spec.slot_index(-1), spec.slot_index(2)
    assert U[a, a] == 0 and U[a, b] == 1j and U[b, a] == 1j and U[b, b] == 0
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_([a, b], [a, b])] = False
    np.testing.assert_array_equal(U[mask], np.eye(4, dtype=complex)[mask])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_decompose_haar_reconstructs(d):
    spec = _spec(d)
    U = _haar(d, 100 + d)
    ops = decompose_unitary(U, spec)
    np.testing.assert_allclose(compose_ops(ops, spec), U, atol=1e-12)
    assert len(ops) <= d * (d - 1) // 2 + math.ceil(d / 2)


def _assert_decomposes(U, spec):
    ops = decompose_unitary(U, spec)
    np.testing.assert_allclose(compose_ops(ops, spec), U, atol=1e-12)
    assert len(ops) <= spec.d * (spec.d - 1) // 2 + math.ceil(spec.d / 2)
    return ops


_phases = st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 8), perm_seed=st.integers(0, 2**32 - 1), phases=_phases)
def test_decompose_permutations_and_diagonals(d, perm_seed, phases):
    # permutations are the zero-rich inputs where Givens elimination meets
    # exact zeros; a diagonal needs no rotation, only paired phases
    spec = _spec(d)
    D = np.diag(np.exp(1j * np.array(phases[:d])))
    ops = _assert_decomposes(D, spec)
    assert len(ops) <= math.ceil(d / 2)
    perm = np.random.default_rng(perm_seed).permutation(d)
    _assert_decomposes(np.eye(d)[perm] @ D, spec)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 8), log_eps=st.floats(-16.0, -12.0), pair_seed=st.integers(0, 2**32 - 1),
       phases=_phases)
def test_decompose_near_skip_threshold(d, log_eps, pair_seed, phases):
    # a rotation by eps around the 1e-14 below which an entry is skipped
    # instead of rotated: either branch reconstructs the input
    spec = _spec(d)
    a, b = np.random.default_rng(pair_seed).choice(d, size=2, replace=False)
    eps = 10.0 ** log_eps
    R = np.eye(d, dtype=complex)
    R[np.ix_([a, b], [a, b])] = [[math.cos(eps), -math.sin(eps)], [math.sin(eps), math.cos(eps)]]
    _assert_decomposes(np.diag(np.exp(1j * np.array(phases[:d]))) @ R, spec)


def test_decompose_identity_is_empty():
    spec = _spec(6)
    assert decompose_unitary(np.eye(6), spec) == []


def test_decompose_rejects_bad_input():
    spec = _spec(4)
    with pytest.raises(ValueError):
        decompose_unitary(np.eye(3), spec)
    with pytest.raises(ValueError):
        decompose_unitary(np.eye(4) * 1.5, spec)


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_two_level_sparse_yields_single_factor(seed):
    spec = _spec(4)
    U = random_two_level_unitary(spec, seed)
    ops = merge_same_pair(decompose_unitary(U, spec))
    assert len(ops) == 1
    np.testing.assert_allclose(compose_ops(ops, spec), U, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_zyz_reconstruction(seed):
    u = _haar(2, 40 + seed)
    alpha, beta, gamma, delta = zyz_angles(u)

    def rz(b):
        return np.diag([np.exp(-0.5j * b), np.exp(0.5j * b)])

    ry = np.array([[math.cos(gamma / 2), -math.sin(gamma / 2)],
                   [math.sin(gamma / 2), math.cos(gamma / 2)]])
    rebuilt = np.exp(1j * alpha) * rz(beta) @ ry @ rz(delta)
    np.testing.assert_allclose(rebuilt, u, atol=1e-12)


def test_zyz_diagonal_edge_case():
    u = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    alpha, beta, gamma, delta = zyz_angles(u)
    assert gamma == pytest.approx(0.0, abs=1e-12)
    rebuilt = np.exp(1j * alpha) * np.diag(
        [np.exp(-0.5j * beta), np.exp(0.5j * beta)])
    np.testing.assert_allclose(rebuilt, u, atol=1e-12)


def _storage_exponential(p):
    """The StoragePulse docstring's formula, through scipy's expm."""
    h = np.array([[p.detuning_area, p.theta * np.exp(1j * p.phi)],
                  [p.theta * np.exp(-1j * p.phi), -p.detuning_area]])
    return np.diag([np.exp(1j * p.phase_g), np.exp(1j * p.phase_e)]) @ expm(0.5j * h)


def test_storage_pulse_matrix_is_exponential():
    for theta, phi, chi, pg, pe in [
        (math.pi, 0.0, 0.0, 0.0, 0.0),
        (1.3, 0.4, 0.0, 0.0, 0.0),
        (0.9, -0.2, 0.7, 0.3, -1.2),
        (0.0, 0.0, 0.0, 0.5, 0.5),
        (0.0, 0.3, -0.8, 0.1, 2.0),
    ]:
        p = StoragePulse(theta=theta, phi=phi, detuning_area=chi,
                         phase_g=pg, phase_e=pe)
        np.testing.assert_allclose(p.matrix(), _storage_exponential(p), atol=1e-12)
        np.testing.assert_allclose(p.matrix() @ p.matrix().conj().T,
                                   np.eye(2), atol=1e-12)


def test_wait_rejects_negative():
    with pytest.raises(ValueError):
        Wait(duration=-1.0)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_wait_rejects_non_finite(duration):
    with pytest.raises(ValueError):
        Wait(duration=duration)


@pytest.mark.parametrize("name", ["theta", "phi", "detuning_area", "phase_g", "phase_e"])
def test_storage_pulse_rejects_non_finite(name):
    # a NaN field once built, and process_fidelity then returned NaN
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=name):
            StoragePulse(**{name: value})


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_manifold_pulse_rejects_non_finite_phase(phase):
    with pytest.raises(ValueError, match="phase"):
        ManifoldPiPulse(slot=0, target="g", phase=phase)


def test_two_level_op_rejects_nan():
    with pytest.raises(ValueError):
        TwoLevelOp(k=0, k2=1, u2=np.full((2, 2), np.nan))


def test_nan_unitary_is_rejected():
    # NaN fails every comparison, so a NaN matrix once passed the
    # unitarity check and compiled to an empty schedule (the identity)
    spec = _spec(4)
    U = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        decompose_unitary(U, spec)
    with pytest.raises(ValueError):
        compile_unitary(U, spec)


def _schedule_doc():
    spec = _spec(4)
    return json.loads(schedule_to_json(compile_unitary(random_two_level_unitary(spec, 3), spec)))


@pytest.mark.parametrize("field, value", [
    ("nbar", 2), ("d", 1), ("nbar", 180.5), ("pulse_fwhm_au", -1.0),
    ("peak_rabi_au", math.inf), ("recorded_global_phase", math.nan),
])
def test_schedule_from_json_rejects_bad_header(field, value):
    doc = _schedule_doc()
    doc[field] = value
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(doc))


@pytest.mark.parametrize("prim", [
    {"type": "wait", "duration_au": math.nan},
    {"type": "manifold_pi_pulse", "slot": 0, "target": "x", "phase": 0.0},
    {"type": "manifold_pi_pulse", "slot": 7, "target": "g", "phase": 0.0},
    {"type": "manifold_pi_pulse", "slot": 0, "target": "g", "phase": math.inf},
    {"type": "storage_pulse", "theta": math.nan, "phi": 0.0, "detuning_area": 0.0,
     "phase_g": 0.0, "phase_e": 0.0},
])
def test_schedule_from_json_rejects_bad_primitive(prim):
    doc = _schedule_doc()
    doc["primitives"] = [prim]
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(doc))


def test_schedule_json_roundtrip():
    spec = _spec(4)
    sched = compile_unitary(_haar(4, 3), spec)
    text = schedule_to_json(sched)
    doc = json.loads(text)
    assert doc["nbar"] == 180 and doc["d"] == 4
    back = schedule_from_json(text)
    assert back == sched


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _schedules(draw):
    d = draw(st.integers(2, 8))
    spec = ManifoldSpec(nbar=draw(st.integers(max(4, d + 1), 10_000)), d=d)
    primitive = st.one_of(
        st.builds(Wait, duration=st.floats(0.0, 1e12)),
        st.builds(ManifoldPiPulse, slot=st.sampled_from([int(k) for k in spec.k_values]),
                  target=st.sampled_from(["g", "e"]), phase=_finite),
        st.builds(StoragePulse, theta=_finite, phi=_finite, detuning_area=_finite,
                  phase_g=_finite, phase_e=_finite),
    )
    # schedule JSON holds a pulse FWHM within FWHM_RANGE_KEPLER Kepler periods
    fwhm = draw(st.floats(*FWHM_RANGE_KEPLER)) * time_scales(spec).t_kepler
    # schedule JSON holds a pulse to an area of at most 100 pi
    area_over_pi = draw(st.floats(1e-6, 100.0))
    return GateSchedule(nbar=spec.nbar, d=d, pulse_fwhm=fwhm,
                        peak_rabi=area_over_pi * pi_pulse_peak_rabi(spec, fwhm),
                        primitives=draw(st.lists(primitive, max_size=12)),
                        recorded_global_phase=draw(_finite))


@settings(max_examples=50, deadline=None)
@given(sched=_schedules())
def test_schedule_json_roundtrip_property(sched):
    # every field survives the JSON text bit for bit
    text = schedule_to_json(sched)
    assert schedule_from_json(text) == sched
    assert schedule_to_json(schedule_from_json(text)) == text


def _schedule_json_oracle(schedule):
    """The document schedule_to_json writes, built as a dict and laid
    out by json.dumps."""
    prims = []
    for p in schedule.primitives:
        if isinstance(p, Wait):
            prims.append({"type": "wait", "duration_au": p.duration,
                          "duration_si_ns": p.duration * AU_TIME_NS})
        elif isinstance(p, ManifoldPiPulse):
            prims.append({"type": "manifold_pi_pulse", "slot": p.slot,
                          "target": p.target, "phase": p.phase})
        else:
            prims.append({"type": "storage_pulse", "theta": p.theta, "phi": p.phi,
                          "detuning_area": p.detuning_area, "phase_g": p.phase_g,
                          "phase_e": p.phase_e})
    return json.dumps({
        "nbar": schedule.nbar,
        "d": schedule.d,
        "pulse_fwhm_au": schedule.pulse_fwhm,
        "pulse_fwhm_si_ns": schedule.pulse_fwhm * AU_TIME_NS,
        "peak_rabi_au": schedule.peak_rabi,
        "recorded_global_phase": schedule.recorded_global_phase,
        "primitives": prims,
    }, indent=2)


@settings(max_examples=50, deadline=None)
@given(sched=_schedules())
def test_schedule_to_json_matches_json_dumps(sched):
    assert schedule_to_json(sched) == _schedule_json_oracle(sched)


_EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308)


@pytest.mark.parametrize("sched", [
    GateSchedule(nbar=180, d=4, pulse_fwhm=1.0e5, peak_rabi=2.0e-6),
    GateSchedule(nbar=180, d=4, pulse_fwhm=3, peak_rabi=2, recorded_global_phase=1,
                 primitives=[Wait(5), ManifoldPiPulse(slot=-1, target="e", phase=1),
                             StoragePulse(theta=1, phi=-2, detuning_area=3, phase_g=0,
                                          phase_e=4)]),
    # the largest duration overflows duration_si_ns, which json writes as Infinity
    GateSchedule(nbar=180, d=4, pulse_fwhm=5e-324, peak_rabi=1.7976931348623157e308,
                 recorded_global_phase=-0.0,
                 primitives=[*(Wait(v) for v in _EXTREMES),
                             *(ManifoldPiPulse(slot=0, target="g", phase=v) for v in _EXTREMES),
                             StoragePulse(*_EXTREMES, *_EXTREMES[:2])]),
], ids=["empty", "int-fields", "extreme-floats"])
def test_schedule_to_json_fixed_cases(sched):
    assert schedule_to_json(sched) == _schedule_json_oracle(sched)


@pytest.mark.parametrize("d", sorted(SCHEDULE_JSON_SHA256))
def test_compiled_schedule_json_is_frozen(d):
    text = schedule_to_json(compile_unitary(_haar(d, d), _spec(d)))
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_JSON_SHA256[d]


def test_shift_targets_compile_to_free_flight():
    spec = _spec(8)
    ts = time_scales(spec)
    for n in range(8):
        sched = compile_unitary(shift_matrix(8, n), spec)
        assert sched.manifold_pulse_count() == 0
        assert sched.duration() == pytest.approx(n * ts.t_kepler / 8, rel=1e-12)
        bt0 = np.zeros(8, dtype=complex)
        bt0[2] = 1.0
        out, _ = run_program(_packet_state(spec, bt0), [sched], mode="taylor1", pulses="ideal")
        np.testing.assert_allclose(out.packet_amplitudes(mode="taylor1"), np.roll(bt0, n), atol=1e-9)
        assert abs(out.b_g) ** 2 + abs(out.b_e) ** 2 == 0.0


def test_empty_schedule_identity_fidelity():
    spec = _spec(4)
    sched = compile_unitary(np.eye(4), spec)
    assert sched.primitives == []
    assert process_fidelity(sched, np.eye(4)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d", [4, 5])
def test_compiled_haar_exact_in_design_model(d):
    # ideal swaps + linear spectrum is the model the compiler assumes
    spec = _spec(d)
    U = _haar(d, 60 + d)
    sched = compile_unitary(U, spec)
    fid = process_fidelity(sched, U, mode="taylor1", pulses="ideal")
    assert fid >= 1.0 - 1e-9


def test_compiled_two_level_design_model_d5():
    spec = _spec(5)
    U = random_two_level_unitary(spec, 11)
    sched = compile_unitary(U, spec)
    assert sched.manifold_pulse_count() == 4
    fid = process_fidelity(sched, U, mode="taylor1", pulses="ideal")
    assert fid >= 1.0 - 1e-9


def test_compiled_two_level_full_model_frozen():
    spec = _spec(4)
    ts = time_scales(spec)
    U = random_two_level_unitary(spec, 7)
    sched = compile_unitary(U, spec)
    assert sched.manifold_pulse_count() == 4
    # fragment padding lands the schedule on whole orbits
    n_orbits = sched.duration() / ts.t_kepler
    assert n_orbits == pytest.approx(round(n_orbits), abs=1e-9)
    fid_ideal = process_fidelity(sched, U, mode="taylor1", pulses="ideal")
    assert fid_ideal >= 1.0 - 1e-9
    fid_full = process_fidelity(sched, U, mode="exact", pulses="full")
    assert fid_full == pytest.approx(TWO_LEVEL_D4_FULL_FID, rel=1e-10)


def test_wait_schedule_frozen_fidelities():
    spec8 = _spec(8)
    ts8 = time_scales(spec8)
    sched = GateSchedule(nbar=180, d=8, pulse_fwhm=1.0, peak_rabi=1.0,
                         primitives=[Wait(ts8.t_kepler)])
    fid = process_fidelity(sched, np.eye(8))
    assert fid == pytest.approx(WAIT_ONE_PERIOD_FID_D8, rel=1e-12)

    spec4 = _spec(4)
    ts4 = time_scales(spec4)
    sched_rev = GateSchedule(nbar=180, d=4, pulse_fwhm=1.0, peak_rabi=1.0,
                             primitives=[Wait(ts4.t_revival)])
    fid_rev = process_fidelity(sched_rev, np.eye(4))
    assert fid_rev == pytest.approx(WAIT_REVIVAL_FID_D4, rel=1e-12)
    assert fid_rev >= 0.96


def _reference_run(sched, bt0, mode, pulses, b_g=0j, b_e=0j):
    """The per-primitive loop: integrate_pulse for each full pulse, the
    lab-frame swap at the pulse centre for each ideal one, and each
    storage pulse on its own as a matrix exponential."""
    spec = sched.spec
    F = energy_to_packet_matrix(spec.d)
    w = detunings(spec, mode)
    core = spec.slot_index(0)
    state = _packet_state(spec, bt0)
    state.b_g, state.b_e = b_g, b_e
    sigma = PulseSpec(fwhm=sched.pulse_fwhm, peak_rabi=1.0).sigma
    for prim in sched.primitives:
        if isinstance(prim, Wait):
            state.t += prim.duration
        elif isinstance(prim, StoragePulse):
            state.b_g, state.b_e = _storage_exponential(prim) @ np.array([state.b_g, state.b_e])
        elif pulses == "full":
            state = integrate_pulse(state, PulseSpec(
                fwhm=sched.pulse_fwhm, peak_rabi=sched.peak_rabi, phase=prim.phase,
                center_time=state.t + 4.0 * sigma, target=prim.target), mode=mode)
        else:
            center = state.t + 4.0 * sigma
            bt = F @ (state.b_energy * np.exp(-1j * w * center))
            ph = np.exp(1j * prim.phase)
            stored = state.b_g if prim.target == "g" else state.b_e
            new_stored = 1j * ph * bt[core]
            bt[core] = 1j * np.conj(ph) * stored
            state.b_energy = np.exp(1j * w * center) * (F.conj().T @ bt)
            if prim.target == "g":
                state.b_g = new_stored
            else:
                state.b_e = new_stored
            state.t = center + 4.0 * sigma
    return state


@pytest.mark.parametrize("pulses", ["full", "ideal"])
def test_schedule_operator_matches_per_primitive_loop(pulses):
    # a d = 4 Haar schedule with a distinct optical phase on every pulse
    spec = _spec(4)
    sched = compile_unitary(_haar(4, 23), spec)
    sched.primitives = [replace(p, phase=0.7 * i) if isinstance(p, ManifoldPiPulse) else p
                        for i, p in enumerate(sched.primitives)]
    rng = np.random.default_rng(5)
    bt0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    bt0 /= np.linalg.norm(bt0)

    ref = _reference_run(sched, bt0, "exact", pulses)
    out, _ = run_program(_packet_state(spec, bt0), [sched], mode="exact", pulses=pulses)
    assert sched.manifold_pulse_count() >= 20
    np.testing.assert_allclose(out.packet_amplitudes(), ref.packet_amplitudes(), rtol=0, atol=1e-10)
    assert out.b_g == pytest.approx(ref.b_g, abs=1e-10)
    assert out.b_e == pytest.approx(ref.b_e, abs=1e-10)
    assert out.t == ref.t
    assert out.norm() == pytest.approx(ref.norm(), abs=1e-10)


_angles = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def _operator_cases(draw):
    """(schedule, mode, pulses, initial vector over (g, e, levels)):
    random primitives, with runs of storage pulses before, between and
    after the manifold pulses.  Full-model draws share one spec, pulse
    shape and spectrum, so one cached propagator serves them all."""
    pulses = draw(st.sampled_from(["ideal"] * 5 + ["full"]))
    if pulses == "full":
        spec, mode, max_pulses = _spec(4), "exact", 3
    else:
        d = draw(st.integers(2, 8))
        spec = ManifoldSpec(nbar=draw(st.integers(100, 300)), d=d)
        mode, max_pulses = draw(st.sampled_from(["exact", "taylor1"])), 8
    t_kepler = time_scales(spec).t_kepler
    fwhm = DEFAULT_GATE_FWHM_FACTOR * t_kepler / spec.d
    storage_run = st.lists(st.builds(StoragePulse, theta=_angles, phi=_angles,
                                     detuning_area=_angles, phase_g=_angles,
                                     phase_e=_angles), max_size=3)
    prims = draw(storage_run)
    for _ in range(draw(st.integers(0, max_pulses))):
        prims.append(Wait(draw(st.floats(0.0, 2.0)) * t_kepler))
        prims.append(ManifoldPiPulse(slot=draw(st.sampled_from([int(k) for k in spec.k_values])),
                                     target=draw(st.sampled_from(["g", "e"])),
                                     phase=draw(_angles)))
        prims += draw(storage_run)
    sched = GateSchedule(nbar=spec.nbar, d=spec.d, pulse_fwhm=fwhm,
                         peak_rabi=pi_pulse_peak_rabi(spec, fwhm), primitives=prims)
    v0 = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=spec.d + 2,
                                max_size=spec.d + 2)))
    norm = np.linalg.norm(v0)
    return sched, mode, pulses, v0 / norm if norm > 1e-3 else np.eye(spec.d + 2)[0]


_NO_PULSES = GateSchedule(nbar=180, d=3, pulse_fwhm=1e5, peak_rabi=1e-6, primitives=[
    StoragePulse(theta=1.1, phi=0.3, detuning_area=-0.7, phase_g=0.2), Wait(1e6),
    StoragePulse(theta=0.4, detuning_area=2.0, phase_e=-1.3)])


@settings(max_examples=60, deadline=None)
@given(case=_operator_cases())
@example(case=(_NO_PULSES, "exact", "ideal", np.full(5, 1 / math.sqrt(5), dtype=complex)))
@example(case=(_NO_PULSES, "exact", "full", np.full(5, 1 / math.sqrt(5), dtype=complex)))
def test_schedule_operator_matches_per_primitive_loop_property(case):
    sched, mode, pulses, v0 = case
    M, t_end = schedule_operator(sched, mode, pulses)
    v = M @ v0
    ref = _reference_run(sched, energy_to_packet_matrix(sched.d) @ v0[2:], mode, pulses,
                         b_g=v0[0], b_e=v0[1])
    assert t_end == ref.t == sched.duration()
    np.testing.assert_allclose(v, np.concatenate(([ref.b_g, ref.b_e], ref.b_energy)),
                               rtol=0, atol=1e-10)


def test_schedule_duration_is_the_operator_clock():
    # duration() and schedule_operator's final clock come from one walk
    for d in (2, 3, 4, 5, 8):
        for nbar in (170, 180, 190):
            spec = ManifoldSpec(nbar=nbar, d=d)
            for seed in range(5):
                sched = compile_unitary(_haar(d, seed), spec)
                assert sched.duration() == schedule_operator(sched, pulses="ideal")[1]


def test_padding_cost_grows_with_orbits():
    spec = _spec(4)
    ts = time_scales(spec)
    fids = []
    for m in range(1, 7):
        sched = GateSchedule(nbar=180, d=4, pulse_fwhm=1.0, peak_rabi=1.0,
                             primitives=[Wait(m * ts.t_kepler)])
        fids.append(process_fidelity(sched, np.eye(4)))
    assert all(a >= b for a, b in zip(fids, fids[1:]))
    assert fids[0] > 0.99 and fids[-1] < 0.81


def test_merge_same_pair_fuses_and_drops_identity():
    u = _haar(2, 9)
    a = TwoLevelOp(k=0, k2=1, u2=u)
    b = TwoLevelOp(k=0, k2=1, u2=u.conj().T)
    assert merge_same_pair([a, b]) == []
    # same pair listed in swapped order still fuses
    c = TwoLevelOp(k=1, k2=0, u2=np.array([[0, 1], [1, 0]], dtype=complex))
    merged = merge_same_pair([a, c])
    assert len(merged) == 1
    spec = _spec(4)
    np.testing.assert_allclose(
        compose_ops(merged, spec), compose_ops([a, c], spec), atol=1e-12)


def test_probe_states_properties():
    spec = _spec(8)
    probes = probe_states(spec)
    assert len(probes) == 2 * 8 + 1
    for p in probes:
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
    for i in range(8):
        np.testing.assert_array_equal(probes[i], np.eye(8)[i])
    # every probe has flat level populations
    for p in probes:
        b = packet_to_energy_matrix(8) @ p
        np.testing.assert_allclose(np.abs(b) ** 2, 1.0 / 8.0, atol=1e-12)


def test_run_program_single_state_design_model():
    spec = _spec(4)
    U = _haar(4, 17)
    sched = compile_unitary(U, spec)
    rng = np.random.default_rng(2)
    bt0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    bt0 /= np.linalg.norm(bt0)
    out, _ = run_program(_packet_state(spec, bt0), [sched], mode="taylor1", pulses="ideal")
    assert abs(np.vdot(U @ bt0, out.packet_amplitudes(mode="taylor1"))) ** 2 == pytest.approx(
        1.0, abs=1e-12)
    assert abs(out.b_g) ** 2 + abs(out.b_e) ** 2 < 1e-16
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the executor for timed programs


def _mixed_program(spec, t0):
    """Wait, a phased pulse on g, a detuned pulse on e, a compiled gate
    and a final wait.  The pulses are weak enough (area 1e-6) to leave
    the storage population below the gate's 1e-12 bound."""
    ts = time_scales(spec)
    step = ts.t_kepler / spec.d
    fwhm = 0.25 * LN2 * step
    peak = 1e-6 / math.pi * pi_pulse_peak_rabi(spec, fwhm)
    sched = compile_unitary(_haar(spec.d, 41), spec)
    return [
        Wait(0.37 * step),
        PulseSpec(fwhm=fwhm, peak_rabi=peak, phase=0.9, target="g",
                  center_time=t0 + 2.0 * step),
        PulseSpec(fwhm=fwhm, peak_rabi=peak, phase=-0.4, target="e",
                  carrier_detuning=0.6 * 2.0 * math.pi / ts.t_kepler,
                  center_time=t0 + 3.5 * step),
        sched,
        Wait(1.3 * step),
    ]


def _program_reference(state, program, mode, pulses):
    """Step by step: integrate_pulse per pulse, and the gate through the
    lab-frame packet amplitudes -> F^H -> schedule operator -> back."""
    spec = state.spec
    F = energy_to_packet_matrix(spec.d)
    w = detunings(spec, mode)
    state = state.copy()
    for item in program:
        if isinstance(item, Wait):
            state.t += item.duration
        elif isinstance(item, PulseSpec):
            state = integrate_pulse(state, item, mode=mode)
        else:
            M, t_end = schedule_operator(item, mode, pulses)
            b = F.conj().T @ state.packet_amplitudes(mode=mode)
            v = M @ np.concatenate(([state.b_g, state.b_e], b))
            bt_out = F @ (v[2:] * np.exp(-1j * w * t_end))
            state.t += t_end
            state.b_energy = np.exp(1j * w * state.t) * (F.conj().T @ bt_out)
            state.b_g, state.b_e = v[0], v[1]
    return state


@pytest.mark.parametrize("pulses", ["full", "ideal"])
def test_run_program_mixed_matches_step_by_step(pulses):
    spec = _spec(4)
    rng = np.random.default_rng(8)
    bt0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    t0 = 3.21 * time_scales(spec).t_kepler
    start = _packet_state(spec, bt0 / np.linalg.norm(bt0), t=t0)
    program = _mixed_program(spec, t0)
    ref = _program_reference(start, program, "exact", pulses)
    out, trace = run_program(start, program, mode="exact", pulses=pulses)
    assert trace is None
    np.testing.assert_allclose(out.b_energy, ref.b_energy, rtol=0, atol=1e-10)
    np.testing.assert_allclose(out.packet_amplitudes(), ref.packet_amplitudes(),
                               rtol=0, atol=1e-10)
    assert abs(out.b_g - ref.b_g) <= 1e-10 and abs(out.b_e - ref.b_e) <= 1e-10
    assert out.t == pytest.approx(ref.t, rel=1e-15)
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_run_program_leaves_input_state_alone():
    spec = _spec(4)
    t0 = 0.5 * time_scales(spec).t_kepler
    start = _packet_state(spec, np.full(4, 0.5, dtype=complex), t=t0)
    before = (start.b_energy.copy(), start.b_g, start.b_e, start.t)
    out, _ = run_program(start, _mixed_program(spec, t0))
    np.testing.assert_array_equal(start.b_energy, before[0])
    assert (start.b_g, start.b_e, start.t) == before[1:]
    assert out.t > start.t


def test_run_program_trace_joins_segments_once():
    spec = _spec(4)
    program = _mixed_program(spec, 0.0)
    _, trace = run_program(_packet_state(spec, np.full(4, 0.5, dtype=complex)),
                           program, n_trace=9)
    # wait, flight to the pulse, pulse, flight, pulse, gate (no samples),
    # wait: four segment boundaries are shared, the gate breaks the chain
    assert len(trace.t_au) == 6 * 9 - 4
    assert np.all(np.diff(trace.t_au) > 0)
    assert trace.t_au[0] == 0.0
    assert trace.t_au[-1] == pytest.approx(
        program[2].t_end + program[3].duration() + program[4].duration, rel=1e-15)
    assert np.max(trace.norm_error) <= 1e-8


def test_run_program_trace_norm_error_is_drift_from_one():
    # flight and pulse samples alike record |norm(t) - 1|, here 0.5
    spec = _spec(4)
    step = time_scales(spec).t_kepler / spec.d
    fwhm = 0.25 * LN2 * step
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm),
                      center_time=2.0 * step)
    state = _packet_state(spec, np.full(4, 0.25, dtype=complex))
    _, trace = run_program(state, [Wait(step), pulse, Wait(step)], n_trace=5)
    assert len(trace.t_au) == 4 * 5 - 3
    np.testing.assert_allclose(trace.norm_error, 0.5, rtol=0, atol=1e-8)


def test_run_program_rejects_bad_items():
    spec = _spec(4)
    start = SimulationState(spec, np.zeros(4, dtype=complex), b_g=1.0)
    sched = compile_unitary(_haar(4, 3), spec)
    with pytest.raises(ProgramError) as err:       # a gate needs empty storage
        run_program(start, [Wait(1.0), sched])
    assert err.value.index == 1
    assert isinstance(err.value, ValueError)
    late = PulseSpec(fwhm=1e5, peak_rabi=1e-6, center_time=1e6)
    with pytest.raises(ProgramError) as err:       # the clock never runs backwards
        run_program(start, [Wait(2e6), late])
    assert err.value.index == 1
    with pytest.raises(ValueError):
        run_program(start, [], n_trace=1)


# ---------------------------------------------------------------------------
# cached per-manifold constants and the scalar 2 x 2 checks


_CACHES = (basis_mod._dft_matrix, manifold_mod._time_scales, manifold_mod._detunings,
           gates_mod._probe_matrices, pulse_mod._propagator)


def _clear_caches():
    """Empty every cache of per-manifold constants and pulse propagators."""
    for cached in _CACHES:
        cached.cache_clear()


def test_caches_share_one_bound():
    assert {c.cache_parameters()["maxsize"] for c in _CACHES} == {manifold_mod.CACHE_SIZE}


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_probe_matrices_are_cached_and_read_only(d):
    spec = _spec(d)
    probes, energy = gates_mod._probe_matrices(spec)
    assert gates_mod._probe_matrices(_spec(d))[0] is probes
    for a in (probes, energy):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    listed = probe_states(spec)
    assert isinstance(listed, list) and len(listed) == 2 * d + 1
    assert np.array_equal(probes, np.stack(listed, axis=1))
    assert np.array_equal(energy, packet_to_energy_matrix(d) @ np.stack(listed, axis=1))


def _fidelity_formula(M, t_end, spec, U, mode):
    """process_fidelity from the operator, with the DFT matrix, the
    detunings and the probes computed here."""
    d, n = spec.d, float(spec.nbar)
    labels = np.arange(-((d - 1) // 2), d // 2 + 1)
    kk, jj = np.meshgrid(labels, labels, indexing="ij")
    F = np.exp(2j * np.pi * jj * kk / d) / np.sqrt(d)
    j = labels.astype(float)
    w = (-1.0 / (2.0 * (n + j) ** 2) + 1.0 / (2.0 * n**2) if mode == "exact"
         else 2.0 * math.pi * (j / (2.0 * math.pi * n**3)))
    probes = [np.eye(d, dtype=complex)[i] for i in range(d)]
    probes += [F @ (np.exp(-2j * np.pi * labels * m / (d + 1)) / np.sqrt(d)) for m in range(d + 1)]
    probes = np.stack(probes, axis=1)
    out = F @ (np.exp(-1j * w * t_end)[:, None] * (M[2:, 2:] @ (F.conj().T @ probes)))
    return float(np.mean(np.abs(np.sum((U @ probes).conj() * out, axis=0)) ** 2))


@pytest.mark.parametrize("pulses", ["ideal", "full"])
@pytest.mark.parametrize("mode", ["exact", "taylor1"])
def test_cached_constants_leave_operator_and_fidelity_bit_equal(mode, pulses):
    # seeded Haar targets, d = 2..8: the operator and the fidelity with
    # every cache emptied first equal the ones read from warm caches, and
    # the fidelity equals the formula computed here from the operator
    rng = np.random.default_rng(12)
    for d in range(2, 9):
        spec = ManifoldSpec(nbar=int(rng.choice([176, 180, 184])), d=d)
        U = haar_unitary(d, rng)
        sched = compile_unitary(U, spec)
        _clear_caches()
        M_cold, t_cold = schedule_operator(sched, mode, pulses)
        _clear_caches()
        f_cold = process_fidelity(sched, U, mode, pulses)
        M, t_end = schedule_operator(sched, mode, pulses)
        assert np.array_equal(M, M_cold) and t_end == t_cold
        assert process_fidelity(sched, U, mode, pulses) == f_cold
        assert f_cold == _fidelity_formula(M, t_end, spec, U, mode)


def _numpy_unitarity_error(V):
    """The d x d check's measure: max |V V^dagger - 1|."""
    return float(np.max(np.abs(V @ V.conj().T - np.eye(2))))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_size=st.floats(-13.0, -6.0),
       kind=st.sampled_from(["scale", "shrink", "random"]))
@example(seed=0, log_size=math.log10(0.5e-9), kind="scale")
@example(seed=0, log_size=math.log10(2e-9), kind="scale")
@example(seed=1, log_size=math.log10(0.5e-9), kind="shrink")
@example(seed=1, log_size=math.log10(2e-9), kind="shrink")
def test_unitary_2x2_scalar_check_matches_numpy(seed, log_size, kind):
    # a unitary perturbed by s: (1 +- s) U U^dagger for the scalings, one
    # random direction of size s otherwise
    rng = np.random.default_rng(seed)
    U = haar_unitary(2, rng)
    s = 10.0 ** log_size
    if kind == "scale":
        V = math.sqrt(1.0 + s) * U
    elif kind == "shrink":
        V = math.sqrt(1.0 - s) * U
    else:
        Z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        V = U + s * Z / np.max(np.abs(Z))
    err = _numpy_unitarity_error(V)
    try:
        gates_mod._unitary(V, 2)
        accepted = True
    except ValueError as e:
        assert str(e) == "matrix is not unitary within 1e-9"
        accepted = False
    if err <= 0.5e-9:
        assert accepted
    if err >= 2e-9:
        assert not accepted
    if abs(err - 1e-9) > 1e-15:       # away from rounding at the tolerance itself
        assert accepted == (err <= 1e-9)
    if kind != "random":          # a scaling moves the diagonal of U U^dagger by s
        assert abs(err - s) <= 1e-15 + 1e-6 * s


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                 complex(0.0, math.inf), 1.5e308 * (1 + 1j)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_unitary_2x2_rejects_non_finite(bad, where):
    U = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
    gates_mod._unitary(U, 2)
    U[where] = bad
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        gates_mod._unitary(U, 2)
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        TwoLevelOp(k=0, k2=1, u2=U)


@pytest.mark.parametrize("shape", [(2,), (4,), (1, 2), (2, 1), (2, 3), (3, 3), (1, 2, 2), ()])
def test_unitary_2x2_rejects_wrong_shape(shape):
    U = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        gates_mod._unitary(U, 2)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        TwoLevelOp(k=0, k2=1, u2=U)


def _shift_oracle(U, d):
    """The n of the first SHIFT-by-n within 1e-9 of U, over all d
    candidates, or None: the search the one-candidate test replaced."""
    for n in range(d):
        if np.max(np.abs(U - shift_matrix(d, n))) <= 1e-9:
            return n
    return None


def _near_identity(d, eps, rng):
    """exp(i eps H) for a random Hermitian H with largest entry 1: a
    unitary about eps away from the identity."""
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = H + H.conj().T
    vals, vecs = np.linalg.eigh(H / np.max(np.abs(H)))
    return (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_shift_shortcut_matches_search_over_all_shifts(d):
    spec = _spec(d)
    t_kepler = time_scales(spec).t_kepler
    rng = np.random.default_rng(d)
    targets = []
    for n in range(d):
        S = shift_matrix(d, n)
        targets += [S @ _near_identity(d, eps, rng) for eps in (0.0, 1e-11, 3e-10, 5e-9, 1e-6)]
        targets.append(1j * S)
    targets += [_haar(d, 100 + d), np.eye(d)[rng.permutation(d)]]
    found = 0
    for U in targets:
        n = _shift_oracle(U, d)
        sched = compile_unitary(U, spec)
        if n is None:
            assert sched.manifold_pulse_count() > 0
        else:
            found += 1
            assert sched.primitives == ([Wait(duration=n * t_kepler / d)] if n else [])
    assert found >= 3 * d


def test_merge_same_pair_identity_test_matches_numpy():
    # two factors on one pair whose product lies about eps from the
    # identity: merged, and dropped when every entry is within 1e-12
    rng = np.random.default_rng(5)
    kept_counts = []
    for eps in (0.0, 1e-14, 4e-13, 9e-13, 2e-12, 1e-11, 1e-3):
        for _ in range(20):
            u2 = haar_unitary(2, rng)
            ops = [TwoLevelOp(k=0, k2=1, u2=u2),
                   TwoLevelOp(k=0, k2=1, u2=_near_identity(2, eps, rng) @ u2.conj().T)]
            product = ops[1].u2 @ ops[0].u2
            kept = np.max(np.abs(product - np.eye(2))) > 1e-12
            assert len(merge_same_pair(ops)) == int(kept)
            kept_counts.append(kept)
    assert 0 < sum(kept_counts) < len(kept_counts)
