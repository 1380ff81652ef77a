"""Two-level decomposition, pulse schedules, and process fidelity."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
from rydpacket.constants import LN2
from rydpacket.gates import (
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
from rydpacket.manifold import detunings
from rydpacket.pulse import PulseSpec, integrate_pulse, pi_pulse_peak_rabi

# frozen reference values (nbar = 180, exact spectrum, full pulse model)
WAIT_ONE_PERIOD_FID_D8 = 0.9333572219416217    # Wait(t_kepler) vs identity, d = 8
WAIT_REVIVAL_FID_D4 = 0.9739029028426681       # Wait(t_revival) vs identity, d = 4
TWO_LEVEL_D4_FULL_FID = 0.9761740789170084     # compiled seed-7 block, d = 4


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


def test_storage_pulse_matrix_is_exponential():
    for theta, phi, chi, pg, pe in [
        (math.pi, 0.0, 0.0, 0.0, 0.0),
        (1.3, 0.4, 0.0, 0.0, 0.0),
        (0.9, -0.2, 0.7, 0.3, -1.2),
        (0.0, 0.0, 0.0, 0.5, 0.5),
    ]:
        p = StoragePulse(theta=theta, phi=phi, detuning_area=chi,
                         phase_g=pg, phase_e=pe)
        h = np.array([[chi, theta * np.exp(1j * phi)],
                      [theta * np.exp(-1j * phi), -chi]])
        expect = np.diag([np.exp(1j * pg), np.exp(1j * pe)]) @ expm(0.5j * h)
        np.testing.assert_allclose(p.matrix(), expect, atol=1e-12)
        np.testing.assert_allclose(p.matrix() @ p.matrix().conj().T,
                                   np.eye(2), atol=1e-12)


def test_wait_rejects_negative():
    with pytest.raises(ValueError):
        Wait(duration=-1.0)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_wait_rejects_non_finite(duration):
    with pytest.raises(ValueError):
        Wait(duration=duration)


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
    return GateSchedule(nbar=spec.nbar, d=d, pulse_fwhm=draw(st.floats(1e-300, 1e300)),
                        peak_rabi=draw(st.floats(1e-300, 1e300)),
                        primitives=draw(st.lists(primitive, max_size=12)),
                        recorded_global_phase=draw(_finite))


@settings(max_examples=50, deadline=None)
@given(sched=_schedules())
def test_schedule_json_roundtrip_property(sched):
    # every field survives the JSON text bit for bit
    text = schedule_to_json(sched)
    assert schedule_from_json(text) == sched
    assert schedule_to_json(schedule_from_json(text)) == text


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


def _reference_run(sched, bt0, mode, pulses):
    """The per-primitive loop: integrate_pulse for each full pulse, the
    lab-frame swap at the pulse centre for each ideal one."""
    spec = sched.spec
    F = energy_to_packet_matrix(spec.d)
    w = detunings(spec, mode)
    core = spec.slot_index(0)
    state = _packet_state(spec, bt0)
    sigma = PulseSpec(fwhm=sched.pulse_fwhm, peak_rabi=1.0).sigma
    for prim in sched.primitives:
        if isinstance(prim, Wait):
            state.advance(prim.duration)
        elif isinstance(prim, StoragePulse):
            state.b_g, state.b_e = prim.matrix() @ np.array([state.b_g, state.b_e])
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


def test_align_revival_pads_duration():
    spec = _spec(4)
    ts = time_scales(spec)
    U = random_two_level_unitary(spec, 7)
    plain = compile_unitary(U, spec)
    aligned = compile_unitary(U, spec, align_revival=True)
    assert aligned.duration() > plain.duration()
    n_rev = aligned.duration() / ts.t_revival
    assert n_rev == pytest.approx(round(n_rev), abs=1e-9)


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
            state.advance(item.duration)
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
