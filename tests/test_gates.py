"""Two-level decomposition, pulse schedules, and process fidelity."""

import hashlib
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import re
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
from rydpacket.basis import energy_to_packet_matrix, packet_amplitudes_at, packet_to_energy_matrix
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
    schedule_factors,
    schedule_from_json,
    schedule_operator,
    schedule_to_json,
    zyz_angles,
)
import rydpacket
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
# The three SHA-256 tables below were taken under OpenBLAS's SkylakeX
# kernels (the pytest report header names the run's core; each digest
# test's failure message repeats it).  Their inputs (a LAPACK QR), the
# compile (zgemm row updates, a LAPACK det), the fold (a zgemm per pulse
# into its run's product, one per factor into M) and, for exact/full,
# the pulse propagator's solve (batched step matrix products) round as
# the BLAS kernel does, so the digests hold on that kernel only: under
# OPENBLAS_CORETYPE=Haswell 18 tests of this file fail, and 19 under
# Nehalem, every one a digest test.  The fidelities and every other
# frozen value pass under all three.
#
# SHA-256 of schedule_to_json(compile_unitary(_haar(d, d))) at nbar = 180,
# as json.dumps(doc, indent=2) wrote it (SkylakeX kernels)
SCHEDULE_JSON_SHA256 = {
    2: "309ad9e2477971595bbe8512cd0fd765b89ab7dff354748b23fe876d6824506b",
    4: "f9bb08f2f32a40e17f1295ad913bebb35780fc46015963168ca6a68a4c1fcc11",
    8: "1bbda8cde52c2b5c94b0b6ecf1cf234e23b87ca2c8f5f287370e4be8018000b8",
    16: "c60b76909eea551fb534c54d827c5861e995626d7dbef9a505f2d2b51f937c3e",
}
# SHA-256 over (k, k2, u2 bytes) of every factor of decompose_unitary at
# nbar = 180, for _haar(d, d) and random_two_level_unitary(spec, d)
# (SkylakeX kernels)
FACTOR_SHA256 = {
    ("haar", 2): "3005c305cb416712c7f06bbc4449945b554024348eab7bd6b55c2a9f2afb2b49",
    ("haar", 3): "95fa28ccea1246ffc3e83d6fbc8c72194e000ca877e62476110c0af7d7a97e3d",
    ("haar", 4): "fefdb77ba00275907b957bb317a4d7e512d5fbf65545f2e0ab07833ab233c61d",
    ("haar", 8): "4eff1d2492134653af2edd71c96ad96286fc71824989e8f7a367d47f2af85e62",
    ("haar", 16): "b6536c80a3080c19882d1e1da4e270c732ce49370b33c976fa6a1f237aab5295",
    ("two_level", 4): "d0768083c36116918890bb9b7c24e9c57b0f02d572637c399104ca6a3cfdb4b8",
    ("two_level", 8): "eff126dc0d59ba542e2c9a3c28ef8bb75e73c2473b957b70df5d7839b8e408cc",
}
# SHA-256 over M.tobytes(), then t_end as float64 bytes, of
# schedule_operator(compile_unitary(_haar(d, d)), mode, pulses) at nbar = 180
# (SkylakeX kernels), M's rows and columns taken to the (g, e, levels)
# order they were frozen in
SCHEDULE_OPERATOR_SHA256 = {
    ("taylor1", "ideal", 2): "1dbe0d6d42c27003dfef21be39f8db575c33d8fea4c0c36f9c56a29f7e0aae14",
    ("taylor1", "ideal", 4): "b8b2cce49898b5ac9dc119f0ed17f6b5ebce8cb9c18fd32da855f7e443d729d1",
    ("taylor1", "ideal", 8): "8dd4a03f7fc2d9c547eddc4c2d67bcdd180115b6e2c66e92a93c8b9dc54decfb",
    ("taylor1", "ideal", 16): "8e492988870631ed787181280f97aeaff47e55486cbf95730f8738a5278cac44",
    ("exact", "full", 2): "377fc8c37a633eed5f3ec0e82d9431a6028c12d03617fee92613befb1454b734",
    ("exact", "full", 4): "dc0e92992141cf2f30233e85fb5af9fb77ebfdd02e5bcde73cc3e5dfad0ec588",
    ("exact", "full", 8): "06ed10b8e67cc0ab1b2021d5a32260695d95a54d482ac39ea9b952a28f2222c4",
    ("exact", "full", 16): "0de7c14ecdbe1902dc395e927d49b58cde199b07174807d02658260e9cd2fea8",
}


def _digest_kernel(core):
    """Failure message of a digest test: the kernel it ran under."""
    return f"digests frozen under OpenBLAS core SkylakeX; this run's core: {core}"


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
    # just outside UNITARITY_TOL: factors built inside gates skip this
    # check, the public constructor does not
    with pytest.raises(ValueError, match="not unitary"):
        TwoLevelOp(k=0, k2=1, u2=np.array([[1.0, 0.0], [0.0, 1.0 + 2e-9]]))


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


@pytest.mark.parametrize("kind, d", sorted(FACTOR_SHA256))
def test_decompose_factors_are_frozen(kind, d, blas_core):
    spec = _spec(d)
    U = _haar(d, d) if kind == "haar" else random_two_level_unitary(spec, d)
    h = hashlib.sha256()
    for op in decompose_unitary(U, spec):
        h.update(f"{op.k},{op.k2}:".encode())
        h.update(op.u2.tobytes())
    assert h.hexdigest() == FACTOR_SHA256[kind, d], _digest_kernel(blas_core)


def _unitarity_error(u):
    return np.max(np.abs(u @ u.conj().T - np.eye(len(u))))


@pytest.mark.parametrize("d", range(2, 17))
def test_factors_built_from_a_checked_target_stay_unitary(d, monkeypatch):
    # factors built inside gates skip TwoLevelOp's unitarity check; they
    # hold it far inside UNITARITY_TOL
    spec = _spec(d)
    merged = []
    merge = gates_mod.merge_same_pair

    def recording_merge(ops):
        out = merge(ops)
        merged.extend(out)
        return out

    monkeypatch.setattr(gates_mod, "merge_same_pair", recording_merge)
    for seed in (500 + d, 600 + d):
        for U in (_haar(d, seed), random_two_level_unitary(spec, seed)):
            for op in decompose_unitary(U, spec):
                assert _unitarity_error(op.u2) <= 1e-12
            compile_unitary(U, spec)
    assert merged
    for op in merged:
        assert _unitarity_error(op.u2) <= 1e-12


def test_givens_rotation_rounds_as_numpy_division():
    # _givens builds a rotation from Python scalars; the frozen factors
    # were made by numpy's complex128 / float, so a change of either
    # rounding fails here, not only as a digest mismatch
    rng = np.random.default_rng(20)
    z = (10.0 ** rng.uniform(-14, 2, size=(20000, 2))
         * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(20000, 2))))
    # exact zeros of either sign, as permutation and diagonal targets give
    parts = (0.0, -0.0, 1.0, -1.0, 0.6)
    edges = [complex(a, b) for a in parts for b in parts]
    pairs = [*map(tuple, z.tolist()), *((x, y) for x in edges for y in edges if y)]
    for x, y in pairs:
        X, Y = np.complex128(x), np.complex128(y)
        nrm = math.hypot(abs(X), abs(Y))
        want = np.array([[np.conj(X) / nrm, np.conj(Y) / nrm], [-Y / nrm, X / nrm]],
                        dtype=complex)
        assert gates_mod._givens(x, y).tobytes() == want.tobytes(), (x, y)


@pytest.mark.parametrize("d", range(2, 17))
def test_compose_ops_matches_embed_product(d):
    # the reference: each op as its embedded d x d, multiplied on the left
    spec = _spec(d)
    for U in (_haar(d, 300 + d), random_two_level_unitary(spec, 300 + d)):
        ops = decompose_unitary(U, spec)
        # the same factors with the slot order reversed
        flipped = [TwoLevelOp(k=op.k2, k2=op.k, u2=op.u2[::-1, ::-1]) for op in ops]
        for seq in (ops, flipped):
            want = np.eye(d, dtype=complex)
            for op in seq:
                want = op.embed(spec) @ want
            assert np.max(np.abs(compose_ops(seq, spec) - want)) <= 1e-14


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


def _zyz_one_factor(u):
    """zyz_angles of one 2 x 2 in numpy scalars: the reference that the
    batched arithmetic must match bit for bit."""
    alpha = 0.5 * np.angle(np.linalg.det(u))
    su = u * np.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-12 and abs(su[1, 0]) > 1e-12:
        s, dmb = -2.0 * np.angle(su[0, 0]), 2.0 * np.angle(su[1, 0])
        beta, delta = 0.5 * (s + dmb), 0.5 * (s - dmb)
    elif abs(su[1, 0]) <= 1e-12:
        beta, delta = -2.0 * np.angle(su[0, 0]), 0.0
    else:
        beta, delta = 2.0 * np.angle(su[1, 0]), 0.0
    return float(alpha), float(beta), float(gamma), float(delta)


def test_zyz_angles_of_a_stack_equal_each_factor_alone():
    # Haar factors, the negated factors compile_unitary realizes, and
    # diagonal and anti-diagonal ones, which take the two 1e-12 branches
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(40, 2)))
    stack = np.concatenate([
        unitary_group.rvs(2, size=200, random_state=rng),
        -np.array([op.u2 for op in decompose_unitary(_haar(16, 5), _spec(16))]),
        np.einsum("ni,ij->nij", phases, np.eye(2)),
        np.einsum("ni,ij->nij", phases, np.array([[0, 1], [1, 0]])),
    ])
    angles = zyz_angles(stack)
    assert angles.dtype == float and angles.shape == (len(stack), 4)
    rows = [tuple(a) for a in angles.tolist()]
    assert rows == [zyz_angles(u) for u in stack] == [_zyz_one_factor(u) for u in stack]
    assert all(type(x) is float for x in zyz_angles(stack[0]))
    gammas = angles[-80:, 2].tolist()
    assert gammas[:40] == [0.0] * 40 and gammas[40:] == [math.pi] * 40
    assert zyz_angles(np.zeros((0, 2, 2))).shape == (0, 4)


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


def test_storage_pulse_checks_each_field_when_the_sum_is_not_finite():
    big = 1.7976931348623157e308
    # finite fields whose sum overflows
    assert StoragePulse(theta=big, phi=big, detuning_area=-big).phi == big
    # inf - inf sums to NaN; the first bad field is named
    with pytest.raises(ValueError, match="theta must be finite, got inf"):
        StoragePulse(theta=math.inf, phi=-math.inf)
    # an int too large for a float raises as math.isfinite does, even
    # where the ints cancel
    with pytest.raises(OverflowError):
        StoragePulse(theta=10**400, phi=-10**400)


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


_GOOD_PRIMITIVES = {
    "wait": {"type": "wait", "duration_au": 0.0},
    "manifold_pi_pulse": {"type": "manifold_pi_pulse", "slot": 0, "target": "g", "phase": 0.0},
    "storage_pulse": {"type": "storage_pulse", "theta": 0.0, "phi": 0.0, "detuning_area": 0.0,
                      "phase_g": 0.0, "phase_e": 0.0},
}


@pytest.mark.parametrize("prim", [
    {"type": "wait", "duration_au": math.nan},
    {"type": "manifold_pi_pulse", "slot": 0, "target": "x", "phase": 0.0},
    {"type": "manifold_pi_pulse", "slot": 7, "target": "g", "phase": 0.0},
    {"type": "manifold_pi_pulse", "slot": 0, "target": "g", "phase": math.inf},
    {"type": "storage_pulse", "theta": math.nan, "phi": 0.0, "detuning_area": 0.0,
     "phase_g": 0.0, "phase_e": 0.0},
    {"type": "wait", "duration_au": -1.0},
    {"type": "manifold_pi_pulse", "slot": 0, "target": ["g"], "phase": 0.0},
])
def test_schedule_from_json_rejects_bad_primitive(prim):
    # alone, and with one message after good primitives of its kind,
    # which the reader keeps one object for
    doc = _schedule_doc()
    good = _GOOD_PRIMITIVES[prim["type"]]
    messages = []
    for primitives in ([prim], [good, good, prim]):
        doc["primitives"] = primitives
        with pytest.raises(ValueError) as err:
            schedule_from_json(json.dumps(doc))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("kind, key, attr", [
    ("wait", "duration_au", "duration"), ("manifold_pi_pulse", "phase", "phase"),
    ("storage_pulse", "theta", "theta"), ("storage_pulse", "phase_e", "phase_e"),
])
@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, -math.inf])
def test_schedule_from_json_names_the_bad_number(kind, key, attr, value):
    doc = _schedule_doc()
    prim = next(p for p in doc["primitives"] if p["type"] == kind)
    # alone, and after the same primitive with a good value
    for lead in ([], [prim]):
        doc["primitives"] = [*lead, dict(prim, **{key: value})]
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a finite number, "
                                                       f"got {value!r}")):
            schedule_from_json(json.dumps(doc))
    # an integer is a number too, read as it stands, apart from an equal float
    doc["primitives"] = [dict(prim, **{key: 1.0}), dict(prim, **{key: 1})]
    got = [getattr(p, attr) for p in schedule_from_json(json.dumps(doc)).primitives]
    assert [(type(v), v) for v in got] == [(float, 1.0), (int, 1)]


@pytest.mark.parametrize("peak", [0.0, -0.0, -1.0])
def test_schedule_from_json_needs_a_positive_peak(peak):
    with pytest.raises(ValueError, match="peak_rabi_au must be positive"):
        schedule_from_json(json.dumps(dict(_schedule_doc(), peak_rabi_au=peak)))


def test_schedule_from_json_rejects_an_unknown_primitive():
    doc = _schedule_doc()
    doc["primitives"].append({"type": "laser_show"})
    with pytest.raises(ValueError, match="unknown primitive type 'laser_show'"):
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


def test_schedule_header_is_fixed_at_construction():
    # assigning nbar or d once left spec on the old manifold; spec names
    # the manifold that the cached run products are keyed on
    sched = GateSchedule(nbar=180, d=4, pulse_fwhm=1.0e5, peak_rabi=2.0e-6,
                         primitives=[Wait(1.0)])
    for name, value in (("nbar", 190), ("d", 8), ("spec", ManifoldSpec(nbar=180, d=8))):
        with pytest.raises(AttributeError, match=f"^GateSchedule.{name} is fixed at construction$"):
            setattr(sched, name, value)
    assert (sched.nbar, sched.d, sched.spec) == (180, 4, ManifoldSpec(nbar=180, d=4))
    sched.primitives = [Wait(2.0)]
    sched.pulse_fwhm, sched.peak_rabi, sched.recorded_global_phase = 2.0e5, 1.0e-6, 0.5
    assert sched == GateSchedule(180, 4, 2.0e5, 1.0e-6, [Wait(2.0)], 0.5)


def test_schedule_spec_is_built_once_at_construction():
    # spec was once a new, checked ManifoldSpec on every access
    sched = GateSchedule(nbar=180, d=4, pulse_fwhm=1.0e5, peak_rabi=2.0e-6,
                         primitives=[Wait(1.0)])
    assert sched.spec is sched.spec
    assert sched.spec == ManifoldSpec(nbar=180, d=4)
    # the constructor, repr, equality, JSON and replace are as they were
    assert repr(sched) == ("GateSchedule(nbar=180, d=4, pulse_fwhm=100000.0, peak_rabi=2e-06, "
                           "primitives=[Wait(duration=1.0)], recorded_global_phase=0.0)")
    assert sched == GateSchedule(180, 4, 1.0e5, 2.0e-6, [Wait(1.0)])
    assert schedule_to_json(replace(sched)) == schedule_to_json(sched)
    moved = replace(sched, d=8)
    assert moved.spec == ManifoldSpec(nbar=180, d=8) and moved != sched
    for nbar, d in ((3, 2), (180, 1), (8, 8), (10**7, 4)):
        with pytest.raises(ValueError):
            GateSchedule(nbar=nbar, d=d, pulse_fwhm=1.0, peak_rabi=1.0)


_EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308)


@pytest.mark.parametrize("sched", [
    GateSchedule(nbar=180, d=4, pulse_fwhm=1.0e5, peak_rabi=2.0e-6),
    GateSchedule(nbar=180, d=4, pulse_fwhm=3, peak_rabi=2, recorded_global_phase=1,
                 primitives=[Wait(5), ManifoldPiPulse(slot=-1, target="e", phase=1),
                             StoragePulse(theta=1, phi=-2, detuning_area=3, phase_g=0,
                                          phase_e=4)]),
    # AU_TIME_NS < 1, so even the largest duration has a finite
    # duration_si_ns (4.35e+300)
    GateSchedule(nbar=180, d=4, pulse_fwhm=5e-324, peak_rabi=1.7976931348623157e308,
                 recorded_global_phase=-0.0,
                 primitives=[*(Wait(v) for v in _EXTREMES),
                             *(ManifoldPiPulse(slot=0, target="g", phase=v) for v in _EXTREMES),
                             StoragePulse(*_EXTREMES, *_EXTREMES[:2])]),
    # a float subclass goes through _json_scalar, not its own repr
    GateSchedule(nbar=180, d=4, pulse_fwhm=np.float64(3.5), peak_rabi=2.0,
                 primitives=[Wait(np.float64(2.5)),
                             ManifoldPiPulse(slot=1, target="g", phase=np.float64(-0.5)),
                             StoragePulse(theta=np.float64(0.25), phase_e=np.float64(1e-300))]),
    # GateSchedule leaves its header unchecked: non-finite header fields
    # are written by json.dumps, as Infinity and NaN
    GateSchedule(nbar=180, d=4, pulse_fwhm=math.inf, peak_rabi=math.nan,
                 recorded_global_phase=-math.inf,
                 primitives=[Wait(1.0), ManifoldPiPulse(slot=0, target="e"),
                             StoragePulse(theta=1.0)]),
], ids=["empty", "int-fields", "extreme-floats", "float-subclass-fields",
        "non-finite-header"])
def test_schedule_to_json_fixed_cases(sched):
    assert schedule_to_json(sched) == _schedule_json_oracle(sched)


# equal as numbers, written differently: a primitive object may stand for
# only one of them
_SHARED_VALUES = (0, 0.0, -0.0, 1, 1.0, 2.5, -2.5, 5e-324, 7)


def _repeating_primitives(seed, n=80):
    """Seeded primitives drawn from a few values, so that equal waits and
    pulses repeat: Wait(0), Wait(0.0) and Wait(-0.0) all occur."""
    rng = np.random.default_rng(seed)
    ks = [int(k) for k in _spec(4).k_values]

    def value():
        return _SHARED_VALUES[rng.integers(len(_SHARED_VALUES))]

    prims = []
    for kind in rng.integers(3, size=n):
        if kind == 0:
            prims.append(Wait(abs(value())))
        elif kind == 1:
            prims.append(ManifoldPiPulse(slot=ks[rng.integers(4)],
                                         target="ge"[rng.integers(2)], phase=value()))
        else:
            prims.append(StoragePulse(*(value() for _ in range(5))))
    for v in (0, 0.0, -0.0):
        prims.insert(rng.integers(len(prims) + 1), Wait(v))
    return prims


def _written_key(p):
    """The fields of p as the writer tells them apart: type and sign of
    zero included."""
    return (type(p),) + tuple((type(v), v, math.copysign(1.0, v) if v == 0 else 0.0)
                              for v in vars(p).values())


@pytest.mark.parametrize("seed", range(8))
def test_schedule_json_of_repeated_primitives(seed):
    prims = _repeating_primitives(seed)
    spec = _spec(4)
    fwhm = 0.05 * time_scales(spec).t_kepler
    sched = GateSchedule(nbar=180, d=4, pulse_fwhm=fwhm, primitives=prims,
                         peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
    text = schedule_to_json(sched)
    assert text == _schedule_json_oracle(sched)
    back = schedule_from_json(text)
    assert schedule_to_json(back) == text
    # the reader keeps one object per distinct wait and manifold pulse,
    # and never one object for two primitives written differently
    for kind in (Wait, ManifoldPiPulse):
        parsed = [p for p in back.primitives if type(p) is kind]
        by_key = {}
        for p in parsed:
            assert by_key.setdefault(_written_key(p), p) is p
        assert len({id(p) for p in parsed}) == len(by_key)


@pytest.mark.parametrize("seed", range(4))
def test_schedule_json_of_one_object_held_many_times(seed):
    # a schedule that holds one object several times writes the bytes of
    # a schedule of distinct equal objects
    pool = _repeating_primitives(seed, n=12)
    rng = np.random.default_rng(100 + seed)
    shared = [pool[i] for i in rng.integers(len(pool), size=60)]
    distinct = [replace(p) for p in shared]
    assert len({id(p) for p in distinct}) == 60 > len({id(p) for p in shared})
    header = dict(nbar=180, d=4, pulse_fwhm=3.5, peak_rabi=2.0)
    text = schedule_to_json(GateSchedule(**header, primitives=shared))
    assert text == schedule_to_json(GateSchedule(**header, primitives=distinct))
    assert text == _schedule_json_oracle(GateSchedule(**header, primitives=distinct))


def test_compiled_schedule_holds_one_object_per_distinct_primitive():
    d = 16
    sched = compile_unitary(_haar(d, d), _spec(d))
    for kind in (Wait, ManifoldPiPulse):
        held = [p for p in sched.primitives if type(p) is kind]
        assert len({id(p) for p in held}) == len(set(held)) < len(held)


@pytest.mark.parametrize("d", sorted(SCHEDULE_JSON_SHA256))
def test_compiled_schedule_json_is_frozen(d, blas_core):
    text = schedule_to_json(compile_unitary(_haar(d, d), _spec(d)))
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_JSON_SHA256[d], (
        _digest_kernel(blas_core))


@pytest.mark.parametrize("mode, pulses, d", sorted(SCHEDULE_OPERATOR_SHA256))
def test_compiled_schedule_operator_is_frozen(mode, pulses, d, blas_core):
    M, t_end = schedule_operator(compile_unitary(_haar(d, d), _spec(d)), mode, pulses)
    order = np.r_[0, d + 1, 1:d + 1]
    h = hashlib.sha256(M[np.ix_(order, order)].tobytes())
    h.update(np.float64(t_end).tobytes())
    assert h.hexdigest() == SCHEDULE_OPERATOR_SHA256[mode, pulses, d], _digest_kernel(blas_core)


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


@pytest.mark.parametrize("d", [2, 4])
def test_compile_unitary_takes_the_fwhm_range_schedule_json_takes(d):
    # a FWHM that schedule_from_json would refuse is refused when
    # compiling; the two ends of the range compile and round-trip
    spec = _spec(d)
    t_kepler = time_scales(spec).t_kepler
    U = _haar(d, 30 + d)
    lo, hi = FWHM_RANGE_KEPLER
    for fwhm in (1e-300, 1e-9 * t_kepler, 20.0 * t_kepler):
        with pytest.raises(ValueError, match="outside 1e-06 .. 10 t_kepler"):
            compile_unitary(U, spec, fwhm)
    for fwhm in (lo * t_kepler, hi * t_kepler):
        text = schedule_to_json(compile_unitary(U, spec, fwhm))
        assert schedule_to_json(schedule_from_json(text)) == text


@pytest.mark.parametrize("fwhm", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_schedule_clock_checks_the_pulse_fwhm(fwhm):
    # the clock reads the half-width through a per-FWHM cache
    # (pulse.support_half_width), which checks the FWHM as PulseSpec does
    good = GateSchedule(nbar=180, d=4, pulse_fwhm=2.5e5, peak_rabi=1.0,
                        primitives=[ManifoldPiPulse(0, "g")])
    assert good.duration() == 2.0 * PulseSpec(fwhm=2.5e5, peak_rabi=1.0).half_width
    for _ in range(2):
        with pytest.raises(ValueError, match="pulse FWHM must be positive and finite"):
            replace(good, pulse_fwhm=fwhm).clock()


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
            state, _ = integrate_pulse(state, PulseSpec(
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
    """(schedule, mode, pulses, initial vector over (g, levels, e)):
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
    ref = _reference_run(sched, energy_to_packet_matrix(sched.d) @ v0[1:-1], mode, pulses,
                         b_g=v0[0], b_e=v0[-1])
    assert t_end == ref.t == sched.duration()
    np.testing.assert_allclose(v, np.concatenate(([ref.b_g], ref.b_energy, [ref.b_e])),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("pulses", ["full", "ideal"])
def test_schedule_factors_are_the_pulses_and_storage_runs_in_order(pulses):
    # one factor per run of manifold pulses and per run of storage pulses
    # (a wait leaves either run whole), each on its rows of
    # (g, levels, e): 'g' or 'e' for manifold pulses all on that storage
    # level, 'all' for a run that mixes them; their product, embedded
    # factor by factor, is schedule_operator's M
    d = 4
    sched = compile_unitary(_haar(d, 23), _spec(d))
    sched.primitives = ([Wait(1.0), StoragePulse(theta=0.3), ManifoldPiPulse(1, "g"), Wait(2.0),
                         ManifoldPiPulse(0, "g", 0.4), StoragePulse(phi=0.2)]
                        + sched.primitives + [StoragePulse(theta=0.1), ManifoldPiPulse(2, "e")])
    factors, t_end = schedule_factors(sched, "exact", pulses)
    rows = []
    for is_pulse, run in itertools.groupby(
            (p for p in sched.primitives if not isinstance(p, Wait)),
            key=lambda p: isinstance(p, ManifoldPiPulse)):
        targets = {p.target for p in run} if is_pulse else {"storage"}
        rows.append(targets.pop() if len(targets) == 1 else "all")
    assert [r for r, _ in factors] == rows
    assert {"g", "e", "all", "storage"} <= set(rows)
    assert t_end == sched.duration()
    index = {"g": np.arange(d + 1), "e": np.arange(1, d + 2), "all": np.arange(d + 2),
             "storage": np.array([0, d + 1])}
    M = np.eye(d + 2, dtype=complex)
    for r, K in factors:
        assert K.shape == (len(index[r]),) * 2
        E = np.eye(d + 2, dtype=complex)
        E[np.ix_(index[r], index[r])] = K
        M = E @ M
    np.testing.assert_allclose(schedule_operator(sched, "exact", pulses)[0], M,
                               rtol=0, atol=1e-13)


def _run_factors(sched, mode="exact", pulses="full"):
    return [K for rows, K in schedule_factors(sched, mode, pulses)[0] if rows != "storage"]


@pytest.mark.parametrize("kind", ["haar", "two_level"])
def test_targets_of_one_timeline_share_every_run_factor(kind):
    # a pulse acts on whichever slot is at the core and the angles sit in
    # the storage pulses, so Haar targets of one (nbar, d), and two-level
    # targets on one slot pair, compile to the same runs of manifold
    # pulses: the second schedule reads every run factor from the cache
    d = 8
    spec = _spec(d)
    if kind == "haar":
        targets = [_haar(d, 40), _haar(d, 41)]
    else:
        targets = [TwoLevelOp(k=-1, k2=2, u2=_haar(2, seed)).embed(spec) for seed in (40, 41)]
    first, second = (compile_unitary(U, spec) for U in targets)
    assert first.primitives != second.primitives
    gates_mod._run_product.cache_clear()
    shared = _run_factors(first)
    assert gates_mod._run_product.cache_info()[:2] == (0, len(shared))    # hits, misses
    again = _run_factors(second)
    assert gates_mod._run_product.cache_info()[:2] == (len(again), len(shared))
    assert len(again) == len(shared) > 0
    assert all(a is b for a, b in zip(again, shared))
    for K in again:
        _assert_read_only(K)


def test_run_cache_keeps_phases_zero_and_minus_zero_apart():
    # 0.0 == -0.0, so a key holding the phase alone would merge them
    spec = _spec(4)
    fwhm = DEFAULT_GATE_FWHM_FACTOR * time_scales(spec).t_kepler / 4
    header = dict(nbar=180, d=4, pulse_fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))

    def run_factor(phase):
        sched = GateSchedule(**header, primitives=[Wait(1.0), ManifoldPiPulse(0, "g", phase)])
        (K,) = _run_factors(sched, pulses="ideal")
        return K

    gates_mod._run_product.cache_clear()
    plus, minus = run_factor(0.0), run_factor(-0.0)
    assert plus is not minus
    assert gates_mod._run_product.cache_info()[:2] == (0, 2)
    assert run_factor(-0.0) is minus and run_factor(0.0) is plus


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
            state, _ = integrate_pulse(state, item, mode=mode)
        else:
            M, t_end = schedule_operator(item, mode, pulses)
            b = F.conj().T @ state.packet_amplitudes(mode=mode)
            v = M @ np.concatenate(([state.b_g], b, [state.b_e]))
            bt_out = F @ (v[1:-1] * np.exp(-1j * w * t_end))
            state.t += t_end
            state.b_energy = np.exp(1j * w * state.t) * (F.conj().T @ bt_out)
            state.b_g, state.b_e = v[0], v[-1]
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


def _flight_rows_oracle(state, t1, n, mode):
    # the rows gates._flight_trace built before evolution.trace_rows
    grid = np.linspace(state.t, t1, n)
    return {"t_au": grid,
            "packet_populations": np.abs(packet_amplitudes_at(
                state.b_energy, state.spec, grid, mode)) ** 2,
            "pop_g": np.full(n, abs(state.b_g) ** 2),
            "pop_e": np.full(n, abs(state.b_e) ** 2),
            "norm_error": np.full(n, abs(state.norm() - 1.0))}


@pytest.mark.parametrize("mode", ["exact", "taylor1", "taylor3"])
@pytest.mark.parametrize("d, scale, seed", [(2, 1.0, 0), (5, 1.0, 1), (8, 0.5, 2), (7, 1.3, 3)])
def test_flight_trace_rows_match_the_old_row_builder(d, scale, seed, mode):
    # every column bit-equal but norm_error, now taken per sample over the
    # packet populations instead of once over the level amplitudes
    spec = _spec(d)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    v *= scale / np.linalg.norm(v)
    t0 = rng.uniform(0.0, 5.0) * time_scales(spec).t_kepler
    state = SimulationState(spec, v[2:], b_g=complex(v[0]), b_e=complex(v[1]), t=t0)
    dt = rng.uniform(0.1, 3.0) * time_scales(spec).t_kepler
    _, trace = run_program(state, [Wait(dt)], mode=mode, n_trace=23)
    want = _flight_rows_oracle(state, t0 + dt, 23, mode)
    for column in ("t_au", "packet_populations", "pop_g", "pop_e"):
        np.testing.assert_array_equal(getattr(trace, column), want[column])
    np.testing.assert_allclose(trace.norm_error, want["norm_error"], rtol=0, atol=1e-15)


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
    empty = SimulationState(spec, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ProgramError, match="schedule is for") as err:   # another manifold
        run_program(empty, [Wait(1.0), compile_unitary(_haar(8, 3), _spec(8))])
    assert err.value.index == 1


# ---------------------------------------------------------------------------
# cached per-manifold constants and the scalar 2 x 2 checks


def _package_caches():
    """Every lru_cache-wrapped function of rydpacket's modules, each once."""
    found = {}
    for info in pkgutil.iter_modules(rydpacket.__path__):
        module = importlib.import_module(f"rydpacket.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_parameters"):
                found[id(obj)] = obj
    return tuple(found.values())


_CACHES = _package_caches()


def _clear_caches():
    """Empty every cache of the package."""
    for cached in _CACHES:
        cached.cache_clear()


def test_caches_share_one_bound():
    # every cache keyed on arguments keeps CACHE_SIZE entries; one of no
    # arguments (cli.build_parser) holds a single entry whatever its bound
    keyed = [c for c in _CACHES if inspect.signature(c).parameters]
    assert {gates_mod._run_product, gates_mod._identity, pulse_mod._propagator} <= set(keyed)
    assert {c.cache_parameters()["maxsize"] for c in keyed} == {manifold_mod.CACHE_SIZE}


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


def _assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 0


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_kernels_are_cached_and_read_only(d):
    spec = _spec(d)
    fwhm = DEFAULT_GATE_FWHM_FACTOR * time_scales(spec).t_kepler / d
    rabi = pi_pulse_peak_rabi(spec, fwhm)
    U0, kernels = pulse_mod._propagator(spec, "exact", fwhm, rabi, 0.0)
    swap = gates_mod._swap_kernels(d)
    eye = gates_mod._identity(d + 2)
    for a in (U0, kernels, swap, eye):
        _assert_read_only(a)
    assert gates_mod._identity(d + 2) is eye and np.array_equal(eye, np.eye(d + 2))
    assert pulse_mod.pulse_propagator(spec, PulseSpec(fwhm=fwhm, peak_rabi=rabi)) is U0
    assert gates_mod._swap_kernels(d) is swap
    # each kernel in both orientations: the storage row and column first, then last
    for K2 in (kernels, swap):
        assert K2.shape == (2, d + 1, d + 1)
        assert np.array_equal(K2[1], np.roll(K2[0], -1, axis=(0, 1)))
    assert np.array_equal(kernels[0], U0)
    # the ideal kernel swaps storage and the core slot k = 0 with a factor i
    core = np.zeros(d, dtype=complex)
    core[spec.slot_index(0)] = 1.0
    bt = packet_to_energy_matrix(d) @ core
    np.testing.assert_allclose(swap[0] @ np.r_[0.0, bt], np.r_[1j, np.zeros(d)], atol=1e-15)
    np.testing.assert_allclose(swap[0] @ np.r_[1.0, np.zeros(d)], np.r_[0.0, 1j * bt], atol=1e-15)
    # compiled schedules compute the pi-pulse Rabi frequency once per
    # (manifold, FWHM)
    gates_mod._pi_peak_rabi.cache_clear()
    assert compile_unitary(_haar(d, 1), spec).peak_rabi == rabi
    assert compile_unitary(_haar(d, 2), _spec(d), fwhm).peak_rabi == rabi
    assert gates_mod._pi_peak_rabi.cache_info()[:2] == (1, 1)      # hits, misses


def test_compiled_json_is_bit_equal_with_cold_and_warm_caches():
    # Haar, two-level and shift targets, d = 2..8: compile_unitary with
    # every cache emptied first writes the same JSON as with warm caches
    rng = np.random.default_rng(21)
    for d in range(2, 9):
        spec = ManifoldSpec(nbar=int(rng.choice([176, 180, 184])), d=d)
        for U in (haar_unitary(d, rng), random_two_level_unitary(spec, d), shift_matrix(d, 1)):
            _clear_caches()
            cold = schedule_to_json(compile_unitary(U, spec))
            assert schedule_to_json(compile_unitary(U, spec)) == cold
            assert schedule_to_json(schedule_from_json(cold)) == cold


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
    out = F @ (np.exp(-1j * w * t_end)[:, None] * (M[1:-1, 1:-1] @ (F.conj().T @ probes)))
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


def _public_operator_fidelity(schedule, U, mode, pulses):
    """The reference probe average: process_fidelity's formula on
    schedule_operator's level block M[1:-1, 1:-1], with the cached
    probes."""
    spec = schedule.spec
    M, t_end = schedule_operator(schedule, mode, pulses)
    F = energy_to_packet_matrix(spec.d)
    probes, probes_energy = gates_mod._probe_matrices(spec)
    b = M[1:-1, 1:-1] @ probes_energy
    out = F @ (np.exp(-1j * detunings(spec, mode) * t_end)[:, None] * b)
    fids = np.abs(np.sum((U @ probes).conj() * out, axis=0)) ** 2
    return float(np.mean(fids))


@pytest.mark.parametrize("mode, pulses", [("exact", "full"), ("taylor1", "ideal")])
def test_process_fidelity_is_the_public_operators_probe_average(mode, pulses):
    # bit for bit the average over the public operator's level block, on
    # compiled Haar and two-level targets, as compiled and as parsed back
    # from JSON
    rng = np.random.default_rng(24)
    cases = [("haar", d) for d in (2, 3, 4, 8)] + [("two_level", d) for d in (4, 8)]
    for kind, d in cases:
        for _ in range(2):
            spec = ManifoldSpec(nbar=int(rng.choice([176, 180, 184])), d=d)
            U = (haar_unitary(d, rng) if kind == "haar"
                 else random_two_level_unitary(spec, int(rng.integers(1000))))
            sched = compile_unitary(U, spec)
            for s in (sched, schedule_from_json(schedule_to_json(sched))):
                assert (process_fidelity(s, U, mode, pulses)
                        == _public_operator_fidelity(s, U, mode, pulses))


# What err carries besides s, in units of machine epsilon: up to 8 from
# the Haar U's own U U^dagger - 1 (QR and the phase fix; the largest in
# 3e4 seeds), and about 5 from rounding the scaling V = sqrt(1 +- s) U
# and the 2-term complex dot products of V V^dagger.  For d = 3, 4 and 8
# the whole excess stays below 8 (the largest in 3e3 seeds per d).
_SCALED_ERR_ROUNDING = 16 * np.finfo(float).eps


def _numpy_unitarity_error(V):
    """The reference measure of the d x d check: max |V V^dagger - 1|,
    with numpy's own identity and reductions."""
    return float(np.max(np.abs(V @ V.conj().T - np.eye(len(V)))))


def _perturbed_unitary(d, seed, s, kind):
    """A Haar U(d) perturbed by s: (1 +- s) U U^dagger for the scalings,
    one random direction of size s otherwise."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(d, rng)
    if kind == "scale":
        return math.sqrt(1.0 + s) * U
    if kind == "shrink":
        return math.sqrt(1.0 - s) * U
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return U + s * Z / np.max(np.abs(Z))


def _accepts(V):
    """Whether _unitary(V, len(V)) lets V through; it names the tolerance
    when it does not."""
    try:
        gates_mod._unitary(V, len(V))
    except ValueError as e:
        assert str(e) == "matrix is not unitary within 1e-9"
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_size=st.floats(-13.0, -6.0),
       kind=st.sampled_from(["scale", "shrink", "random"]))
@example(seed=0, log_size=math.log10(0.5e-9), kind="scale")
@example(seed=0, log_size=math.log10(2e-9), kind="scale")
@example(seed=1, log_size=math.log10(0.5e-9), kind="shrink")
@example(seed=1, log_size=math.log10(2e-9), kind="shrink")
@example(seed=8118, log_size=-10.0, kind="shrink")     # |err - s| is 6 ulp of 1 here
def test_unitary_2x2_scalar_check_matches_numpy(seed, log_size, kind):
    s = 10.0 ** log_size
    V = _perturbed_unitary(2, seed, s, kind)
    err = _numpy_unitarity_error(V)
    accepted = _accepts(V)
    if err <= 0.5e-9:
        assert accepted
    if err >= 2e-9:
        assert not accepted
    if abs(err - 1e-9) > 1e-15:       # away from rounding at the tolerance itself
        assert accepted == (err <= 1e-9)
    if kind != "random":          # a scaling moves the diagonal of U U^dagger by s
        assert abs(err - s) <= _SCALED_ERR_ROUNDING + 1e-6 * s


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([3, 4, 8]), seed=st.integers(0, 2**32 - 1),
       log_size=st.floats(-13.0, -6.0), kind=st.sampled_from(["scale", "shrink", "random"]))
@example(d=3, seed=0, log_size=math.log10(0.5e-9), kind="scale")
@example(d=4, seed=0, log_size=math.log10(2e-9), kind="scale")
@example(d=8, seed=1, log_size=math.log10(0.5e-9), kind="shrink")
@example(d=8, seed=1, log_size=math.log10(2e-9), kind="shrink")
@example(d=4, seed=2, log_size=-9.0, kind="scale")          # at the tolerance itself
def test_unitary_dxd_check_matches_numpy(d, seed, log_size, kind):
    # the d x d check decides as the reference measure does, on every
    # matrix, the ones at the tolerance included
    s = 10.0 ** log_size
    V = _perturbed_unitary(d, seed, s, kind)
    err = _numpy_unitarity_error(V)
    assert _accepts(V) == (err <= 1e-9)
    if kind != "random":          # a scaling moves the diagonal of U U^dagger by s
        assert abs(err - s) <= _SCALED_ERR_ROUNDING + 1e-6 * s


_NON_FINITE = [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
               complex(0.0, math.inf), 1.5e308 * (1 + 1j)]


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_unitary_2x2_rejects_non_finite(bad, where):
    U = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
    gates_mod._unitary(U, 2)
    U[where] = bad
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        gates_mod._unitary(U, 2)
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        TwoLevelOp(k=0, k2=1, u2=U)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("where", ["first", "corner", "inner", "last"])
@pytest.mark.parametrize("d", [3, 4, 8])
def test_unitary_dxd_rejects_non_finite(d, where, bad):
    # one bad entry of a unitary: the entry itself, or its overflow in
    # U U^dagger, must fail the check, without a warning (an error under
    # this suite's filter) from the product
    U = energy_to_packet_matrix(d).copy()
    gates_mod._unitary(U, d)
    U[{"first": (0, 0), "corner": (0, d - 1), "inner": (d // 2, 1),
       "last": (d - 1, d - 1)}[where]] = bad
    with pytest.raises(ValueError, match="not unitary within 1e-9"):
        gates_mod._unitary(U, d)


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
    t_slot = time_scales(spec).t_slot
    rng = np.random.default_rng(d)
    targets = []
    for n in range(d):
        S = shift_matrix(d, n)
        targets += [S @ _near_identity(d, eps, rng) for eps in (0.0, 1e-11, 3e-10, 5e-9, 1e-6)]
        targets.append(1j * S)
    targets += [_haar(d, 100 + d), np.eye(d)[rng.permutation(d)]]
    # some of their columns are those of the identity
    targets += [random_two_level_unitary(spec, seed) for seed in range(3)]
    found = 0
    for U in targets:
        n = _shift_oracle(U, d)
        sched = compile_unitary(U, spec)
        if n is None:
            assert sched.manifold_pulse_count() > 0
        else:
            found += 1
            assert sched.primitives == ([Wait(duration=n * t_slot)] if n else [])
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
