"""Pulse envelopes, calibration, and storage <-> slot transfer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpacket import (
    ManifoldSpec,
    PulseSpec,
    SimulationState,
    core_rabi_dft,
    detunings,
    integrate_pulse,
    pi_pulse_peak_rabi,
    rabi_profile,
    state_from_packet,
    time_scales,
    two_level_oracle,
    validate_pulse,
)
from rydpacket.constants import LN2
from rydpacket.pulse import pulse_propagator

# frozen reference values, nbar = 180, d = 8
CORE_DFT_UNIT = 2.817534145809115         # Omega~_0 for Omega_peak = 1
SIDEBAND_RATIO = 0.010859263886339095     # |Omega~_1| / Omega~_0
TBP_GAUSSIAN = 0.8825424006106063         # 4 ln2 / pi
BANDWIDTH_RATIO_HALF_TRANSIT = 1.2732395447351628   # 4 / pi


def _spec():
    return ManifoldSpec(nbar=180, d=8)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(fwhm=0.0, peak_rabi=1.0)
    with pytest.raises(ValueError):
        PulseSpec(fwhm=1.0, peak_rabi=1.0, target="x")


def test_envelope_shape():
    p = PulseSpec(fwhm=10.0, peak_rabi=1.0, center_time=3.0)
    assert p.envelope(3.0) == 1.0
    assert p.envelope(3.0 + 5.0) == pytest.approx(0.5, abs=1e-15)
    assert p.envelope(3.0 - 5.0) == pytest.approx(0.5, abs=1e-15)
    assert p.envelope(p.t_end + 1e-9) == 0.0
    assert p.envelope(p.t_start - 1e-9) == 0.0
    assert p.sigma == pytest.approx(10.0 / (2.0 * math.sqrt(2.0 * LN2)), rel=1e-15)


def test_envelope_area_matches_quadrature():
    p = PulseSpec(fwhm=7.3, peak_rabi=1.0, center_time=-2.0)
    t = np.linspace(p.t_start, p.t_end, 200001)
    numeric = np.trapezoid(p.envelope(t), t)
    area = p.envelope_area()
    assert isinstance(area, float)
    assert area == pytest.approx(numeric, rel=1e-9)


def test_rabi_profile_scaling():
    spec = _spec()
    prof = rabi_profile(spec, 2.5)
    j0 = spec.slot_index(0)
    assert prof.omega_j[j0] == pytest.approx(2.5, rel=1e-15)
    # higher levels have weaker core overlap
    assert np.all(np.diff(prof.omega_j) < 0)
    expect = 2.5 * ((180.0 + 4.0) / 180.0) ** -1.5
    assert prof.omega_j[spec.slot_index(4)] == pytest.approx(expect, rel=1e-15)


def test_rabi_dft_frozen():
    spec = _spec()
    prof = rabi_profile(spec, 1.0)
    d0 = prof.dft_at(0)
    assert d0.imag == pytest.approx(0.0, abs=1e-13)
    assert d0.real == pytest.approx(CORE_DFT_UNIT, rel=1e-12)
    assert core_rabi_dft(spec, 1.0) == pytest.approx(CORE_DFT_UNIT, rel=1e-12)
    assert core_rabi_dft(spec, 3.0) == pytest.approx(3.0 * CORE_DFT_UNIT, rel=1e-12)
    ratio = abs(prof.dft_at(1)) / d0.real
    assert ratio == pytest.approx(SIDEBAND_RATIO, rel=1e-12)


def test_pi_calibration_closed_form():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
    g1, c1 = two_level_oracle(1.0, 0.0, pulse, core_rabi_dft(spec, pulse.peak_rabi))
    assert abs(g1) < 1e-12
    assert abs(c1) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert c1 == pytest.approx(1j, abs=1e-12)
    # phase of the field rotates the transferred amplitude
    pulse_ph = PulseSpec(fwhm=fwhm, peak_rabi=pulse.peak_rabi, phase=0.7)
    _, c2 = two_level_oracle(1.0, 0.0, pulse_ph, core_rabi_dft(spec, pulse.peak_rabi))
    assert c2 == pytest.approx(1j * np.exp(-0.7j), abs=1e-12)


def test_two_level_oracle_detuned():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    omega0 = core_rabi_dft(spec, pi_pulse_peak_rabi(spec, fwhm))
    far = PulseSpec(fwhm=fwhm, peak_rabi=1.0, carrier_detuning=40.0 / fwhm)
    g1, c1 = two_level_oracle(1.0, 0.0, far, omega0)
    assert abs(g1) ** 2 + abs(c1) ** 2 == pytest.approx(1.0, abs=1e-8)
    assert abs(c1) ** 2 < 0.05


def test_full_model_approaches_oracle_for_short_pulses():
    # residual storage population after a pi pulse shrinks with the pulse
    spec = _spec()
    ts = time_scales(spec)
    residuals = []
    for factor in (0.5 * LN2, 0.25 * LN2, 0.125 * LN2):
        fwhm = factor * ts.t_kepler / spec.d
        pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
        state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex),
                                b_g=1.0 + 0.0j, t=pulse.t_start)
        out = integrate_pulse(state, pulse)
        assert out.norm() == pytest.approx(1.0, abs=1e-8)
        residuals.append(abs(out.b_g) ** 2)
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-3


def test_validate_pulse_frozen_figures():
    spec = _spec()
    ts = time_scales(spec)
    transit = ts.t_kepler / spec.d
    rep = validate_pulse(spec, PulseSpec(fwhm=0.5 * LN2 * transit, peak_rabi=1.0))
    assert rep.core_transit_ok
    assert rep.bandwidth_ok
    assert rep.fwhm_over_transit == pytest.approx(0.5 * LN2, rel=1e-12)
    assert rep.time_bandwidth_product == pytest.approx(TBP_GAUSSIAN, rel=1e-12)
    assert rep.bandwidth_ratio == pytest.approx(BANDWIDTH_RATIO_HALF_TRANSIT, rel=1e-12)
    assert rep.spectral_fwhm == pytest.approx(
        4.0 * LN2 / (math.pi * 0.5 * LN2 * transit), rel=1e-15)
    assert rep.spectral_hwhm == pytest.approx(0.5 * rep.spectral_fwhm, rel=0)

    slow = validate_pulse(spec, PulseSpec(fwhm=2.0 * transit, peak_rabi=1.0))
    assert not slow.core_transit_ok
    assert not slow.bandwidth_ok

    fast = validate_pulse(spec, PulseSpec(fwhm=0.05 * transit, peak_rabi=1.0))
    assert fast.core_transit_ok
    assert not fast.bandwidth_ok          # spectrum spills past the manifold


def test_state_from_packet_roundtrip_at_nonzero_time():
    spec = _spec()
    ts = time_scales(spec)
    rng = np.random.default_rng(31)
    bt = rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
    bt /= np.linalg.norm(bt)
    t = 0.3 * ts.t_kepler
    state = state_from_packet(spec, bt, t=t)
    np.testing.assert_allclose(state.packet_amplitudes(), bt, atol=1e-12)
    assert state.t == t
    # the co-moving frame differs once the flight phases are nonzero
    assert not np.allclose(state.packet_amplitudes(aligned=True), bt, atol=1e-6)


def test_advance_rejects_negative():
    spec = _spec()
    state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex), b_g=1.0)
    with pytest.raises(ValueError):
        state.advance(-1.0)


def test_integrate_pulse_rejects_late_clock():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=1.0, center_time=0.0)
    state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex),
                            b_g=1.0, t=pulse.t_start + fwhm)
    with pytest.raises(ValueError):
        integrate_pulse(state, pulse)


def test_integrate_pulse_trace():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
    state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex),
                            b_g=1.0, t=pulse.t_start)
    out = integrate_pulse(state, pulse)                 # bare state, no trace
    assert isinstance(out, SimulationState)

    state2 = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex),
                             b_g=1.0, t=pulse.t_start)
    out2, trace = integrate_pulse(state2, pulse, n_trace=41)
    assert out2.b_g == out.b_g
    assert trace.t_au[0] == pulse.t_start and trace.t_au[-1] == pulse.t_end
    assert trace.packet_populations.shape == (41, spec.d)
    assert trace.pop_g[0] == pytest.approx(1.0, abs=1e-12)
    assert trace.pop_g[-1] == pytest.approx(abs(out.b_g) ** 2, abs=1e-10)
    np.testing.assert_array_equal(trace.pop_e, 0.0)
    assert np.max(trace.norm_error) < 1e-8
    total = trace.pop_g + trace.pop_e + trace.packet_populations.sum(axis=1)
    np.testing.assert_allclose(total, 1.0, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 6),
    mode=st.sampled_from(["exact", "taylor1", "taylor2"]),
    target=st.sampled_from(["g", "e"]),
    center_kepler=st.floats(0.0, 20.0),
    phase=st.floats(-10.0, 10.0),
    detuning_steps=st.floats(-2.0, 2.0),
    area_factor=st.floats(0.3, 1.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_conjugated_propagator_matches_integrate_pulse(
        d, mode, target, center_kepler, phase, detuning_steps, area_factor, seed):
    # the RWA equations are covariant under a shift of t_c and phi:
    # a pulse at (t_c, phi) acts as Q^-1 U0 Q, Q = diag(1, e^{i phi} e^{-i Delta_j t_c})
    spec = ManifoldSpec(nbar=180, d=d)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=area_factor * pi_pulse_peak_rabi(spec, fwhm),
                      carrier_detuning=detuning_steps * 2.0 * math.pi / ts.t_kepler,
                      phase=phase, center_time=center_kepler * ts.t_kepler, target=target)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    v /= np.linalg.norm(v)
    state = SimulationState(spec=spec, b_energy=v[2:], b_g=v[0], b_e=v[1], t=pulse.t_start)
    ref = integrate_pulse(state, pulse, mode=mode)

    deltas = detunings(spec, mode) + pulse.carrier_detuning
    q = np.concatenate(([1.0], np.exp(1j * phase) * np.exp(-1j * deltas * pulse.center_time)))
    P = q.conj()[:, None] * pulse_propagator(spec, pulse, mode) * q[None, :]
    stored, other = (v[0], v[1]) if target == "g" else (v[1], v[0])
    out = P @ np.concatenate(([stored], v[2:]))
    got_g, got_e = (out[0], other) if target == "g" else (other, out[0])
    assert abs(got_g - ref.b_g) <= 1e-10
    assert abs(got_e - ref.b_e) <= 1e-10
    assert np.max(np.abs(out[1:] - ref.b_energy)) <= 1e-10


def test_pulse_propagator_is_cached_unitary_and_shape_only():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm))
    U0 = pulse_propagator(spec, pulse)
    assert U0.shape == (spec.d + 1, spec.d + 1)
    assert np.max(np.abs(U0.conj().T @ U0 - np.eye(spec.d + 1))) <= 1e-8
    assert not U0.flags.writeable
    # centre, phase and target are not part of the shape
    moved = PulseSpec(fwhm=fwhm, peak_rabi=pulse.peak_rabi, center_time=3.0 * ts.t_kepler,
                      phase=1.1, target="e")
    assert pulse_propagator(spec, moved) is U0
    assert pulse_propagator(spec, pulse, mode="taylor1") is not U0
