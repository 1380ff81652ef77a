"""Level <-> packet basis changes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpacket import ManifoldSpec, time_scales
from rydpacket.basis import (
    AmplitudeVector,
    energy_delta,
    energy_to_packet_matrix,
    iqft_packet_to_energy,
    packet_amplitudes_at,
    packet_delta,
    packet_to_energy_matrix,
    qft_energy_to_packet,
    uniform_energy,
    uniform_packet,
)


def _random_state(seed: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def test_hadamard_at_d2():
    F = energy_to_packet_matrix(2)
    np.testing.assert_allclose(
        F, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_and_parseval(d, seed):
    b = _random_state(seed, d)
    F = energy_to_packet_matrix(d)
    bt = F @ b
    assert abs(np.linalg.norm(bt) - 1.0) < 1e-12
    np.testing.assert_allclose(packet_to_energy_matrix(d) @ bt, b, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 16))
def test_dft_unitary(d):
    F = energy_to_packet_matrix(d)
    np.testing.assert_allclose(F @ F.conj().T, np.eye(d), atol=1e-12)
    np.testing.assert_allclose(packet_to_energy_matrix(d), F.conj().T, atol=0)


def test_amplitude_vector_validation():
    with pytest.raises(ValueError):
        AmplitudeVector(basis="energy", values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        AmplitudeVector(basis="position", values=np.array([1.0, 0.0]))
    for bad in ([np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0]):    # NaN compares false
        with pytest.raises(ValueError):
            AmplitudeVector(basis="packet", values=np.array(bad))
    v = AmplitudeVector(basis="packet", values=np.array([1.0, 0.0]))
    assert v.d == 2
    np.testing.assert_allclose(v.populations(), [1.0, 0.0])


def test_reference_states():
    spec = ManifoldSpec(nbar=180, d=8)
    assert energy_delta(spec, 2).populations()[spec.slot_index(2)] == 1.0
    assert packet_delta(spec, -1).basis == "packet"
    np.testing.assert_allclose(uniform_energy(spec).populations(), np.full(8, 1 / 8))
    np.testing.assert_allclose(uniform_packet(spec).populations(), np.full(8, 1 / 8))


def test_uniform_energy_is_core_packet():
    # flat level amplitudes add up coherently only at the core slot
    spec = ManifoldSpec(nbar=180, d=8)
    bt = qft_energy_to_packet(uniform_energy(spec))
    expect = np.zeros(8)
    expect[spec.slot_index(0)] = 1.0
    np.testing.assert_allclose(bt.populations(), expect, atol=1e-15)


def test_qft_iqft_roundtrip():
    spec = ManifoldSpec(nbar=180, d=6)
    b = AmplitudeVector(basis="energy", values=_random_state(5, 6))
    back = iqft_packet_to_energy(qft_energy_to_packet(b))
    np.testing.assert_allclose(back.values, b.values, atol=1e-12)
    assert back.basis == "energy"


def test_packet_amplitudes_at_zero_time():
    spec = ManifoldSpec(nbar=180, d=8)
    b = _random_state(11, 8)
    np.testing.assert_allclose(
        packet_amplitudes_at(b, spec, 0.0),
        energy_to_packet_matrix(8) @ b, atol=1e-15)


def test_packet_amplitudes_at_shifts_on_harmonic_spectrum():
    spec = ManifoldSpec(nbar=180, d=8)
    ts = time_scales(spec)
    bt0 = _random_state(12, 8)
    b = packet_to_energy_matrix(8) @ bt0
    for n in range(8):
        got = packet_amplitudes_at(b, spec, n * ts.t_kepler / 8, mode="taylor1")
        np.testing.assert_allclose(got, np.roll(bt0, n), atol=1e-12)


def test_packet_amplitudes_at_rejects_wrong_size():
    spec = ManifoldSpec(nbar=180, d=8)
    with pytest.raises(ValueError):
        packet_amplitudes_at(np.ones(4) / 2.0, spec, 0.0)


def test_packet_amplitudes_at_broadcasts_over_times_and_states():
    spec = ManifoldSpec(nbar=180, d=8)
    rng = np.random.default_rng(4)
    b = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    t = rng.uniform(0.0, 1e8, size=5)
    one_each = np.array([packet_amplitudes_at(b[i], spec, t[i]) for i in range(5)])
    np.testing.assert_allclose(packet_amplitudes_at(b, spec, t), one_each, rtol=0, atol=1e-12)
    grid = packet_amplitudes_at(b[0], spec, t, mode="taylor2")
    assert grid.shape == (5, 8)
    np.testing.assert_allclose(grid[3], packet_amplitudes_at(b[0], spec, t[3], mode="taylor2"),
                               rtol=0, atol=1e-12)
