"""Two-level decomposition, pulse schedules, and process fidelity."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from rydpacket import (
    GateSchedule,
    ManifoldPiPulse,
    ManifoldSpec,
    PulseSpec,
    StoragePulse,
    TwoLevelOp,
    Wait,
    compile_two_level,
    compile_unitary,
    compose_ops,
    decompose_unitary,
    detunings,
    energy_to_packet_matrix,
    integrate_pulse,
    merge_same_pair,
    probe_states,
    process_fidelity,
    random_two_level_unitary,
    schedule_from_json,
    schedule_to_json,
    shift_matrix,
    simulate_schedule,
    state_from_packet,
    time_scales,
    zyz_angles,
)

# frozen reference values (nbar = 180, exact spectrum, full pulse model)
WAIT_ONE_PERIOD_FID_D8 = 0.9333572219416217    # Wait(t_kepler) vs identity, d = 8
WAIT_REVIVAL_FID_D4 = 0.9739029028426681       # Wait(t_revival) vs identity, d = 4
TWO_LEVEL_D4_FULL_FID = 0.9761740789170084     # compiled seed-7 block, d = 4


def _haar(d, seed):
    return unitary_group.rvs(d, random_state=np.random.default_rng(seed))


def _spec(d=8):
    return ManifoldSpec(nbar=180, d=d)


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


def test_shift_targets_compile_to_free_flight():
    spec = _spec(8)
    ts = time_scales(spec)
    for n in range(8):
        sched = compile_unitary(shift_matrix(8, n), spec)
        assert sched.manifold_pulse_count() == 0
        assert sched.duration() == pytest.approx(n * ts.t_kepler / 8, rel=1e-12)
        bt0 = np.zeros(8, dtype=complex)
        bt0[2] = 1.0
        out, info = simulate_schedule(sched, bt0, mode="taylor1", pulses="ideal")
        np.testing.assert_allclose(out, np.roll(bt0, n), atol=1e-9)
        assert info["storage_leak"] == 0.0


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


def test_compile_two_level_matches_compile_unitary():
    spec = _spec(4)
    op = TwoLevelOp(k=0, k2=1, u2=_haar(2, 5))
    a = compile_two_level(op, spec)
    b = compile_unitary(op.embed(spec), spec)
    assert a == b


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
    state = state_from_packet(spec, bt0)
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
    out, info = simulate_schedule(sched, bt0, mode="exact", pulses=pulses)
    assert sched.manifold_pulse_count() >= 20
    np.testing.assert_allclose(out, ref.packet_amplitudes(), rtol=0, atol=1e-10)
    assert info["b_g"] == pytest.approx(ref.b_g, abs=1e-10)
    assert info["b_e"] == pytest.approx(ref.b_e, abs=1e-10)
    assert info["t_end"] == ref.t
    assert info["norm"] == pytest.approx(ref.norm(), abs=1e-10)


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
    from rydpacket import packet_to_energy_matrix

    for p in probes:
        b = packet_to_energy_matrix(8) @ p
        np.testing.assert_allclose(np.abs(b) ** 2, 1.0 / 8.0, atol=1e-12)


def test_simulate_schedule_single_state_design_model():
    spec = _spec(4)
    U = _haar(4, 17)
    sched = compile_unitary(U, spec)
    rng = np.random.default_rng(2)
    bt0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    bt0 /= np.linalg.norm(bt0)
    out, info = simulate_schedule(sched, bt0, mode="taylor1", pulses="ideal")
    assert abs(np.vdot(U @ bt0, out)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert info["storage_leak"] < 1e-16
    assert info["norm"] == pytest.approx(1.0, abs=1e-12)


def test_align_revival_pads_duration():
    spec = _spec(4)
    ts = time_scales(spec)
    U = random_two_level_unitary(spec, 7)
    plain = compile_unitary(U, spec)
    aligned = compile_unitary(U, spec, align_revival=True)
    assert aligned.duration() > plain.duration()
    n_rev = aligned.duration() / ts.t_revival
    assert n_rev == pytest.approx(round(n_rev), abs=1e-9)
