"""Pulse envelopes, calibration, and storage <-> slot transfer."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rydpacket
import rydpacket.pulse as pulse_mod
from rydpacket import ManifoldSpec, SimulationState, time_scales
from rydpacket.basis import packet_amplitudes_at, packet_to_energy_matrix
from rydpacket.constants import LN2
from rydpacket.manifold import SPECTRUM_MODES, detunings
from rydpacket.pulse import (
    ATOL,
    FWHM_RANGE_KEPLER,
    RTOL,
    Coupling,
    PulseSpec,
    _solve_pulse,
    _step_operators,
    core_rabi_dft,
    integrate_pulse,
    pi_pulse_peak_rabi,
    pulse_propagator,
    rabi_profile,
    solve_ivp,
    two_level_oracle,
    validate_pulse,
)

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


@pytest.mark.parametrize("field,value", [
    ("fwhm", math.nan), ("fwhm", math.inf), ("peak_rabi", math.nan),
    ("carrier_detuning", -math.inf), ("phase", math.nan), ("center_time", math.inf),
])
def test_pulse_spec_rejects_non_finite(field, value):
    # a non-finite field used to hang integrate_pulse, or (center_time) return an
    # unchanged state at clock inf
    with pytest.raises(ValueError, match=field.replace("fwhm", "FWHM")):
        PulseSpec(**{"fwhm": 1.0, "peak_rabi": 1.0, field: value})


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
    d0 = prof.dft[spec.slot_index(0)]
    assert d0.imag == pytest.approx(0.0, abs=1e-13)
    assert d0.real == pytest.approx(CORE_DFT_UNIT, rel=1e-12)
    assert core_rabi_dft(spec, 1.0) == pytest.approx(CORE_DFT_UNIT, rel=1e-12)
    assert core_rabi_dft(spec, 3.0) == pytest.approx(3.0 * CORE_DFT_UNIT, rel=1e-12)
    ratio = abs(prof.dft[spec.slot_index(1)]) / d0.real
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


def test_two_level_oracle_detuned_fails_loudly():
    # a NaN coupling: the resonant closed form returns NaN, the detuned
    # solve raises instead of handing back the input amplitudes
    resonant = PulseSpec(fwhm=1.0, peak_rabi=1.0)
    assert all(map(np.isnan, two_level_oracle(1.0, 0.0, resonant, math.nan)))
    detuned = PulseSpec(fwhm=1.0, peak_rabi=1.0, carrier_detuning=3.0)
    with pytest.raises(RuntimeError, match="pulse integration failed"):
        two_level_oracle(1.0, 0.0, detuned, math.nan)


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


def test_packet_amplitudes_at_nonzero_clock():
    spec = _spec()
    ts = time_scales(spec)
    rng = np.random.default_rng(31)
    bt = rng.normal(size=spec.d) + 1j * rng.normal(size=spec.d)
    bt /= np.linalg.norm(bt)
    t = 0.3 * ts.t_kepler
    # level amplitudes whose lab-frame packet amplitudes at clock t are bt
    b = np.exp(1j * detunings(spec) * t) * (packet_to_energy_matrix(spec.d) @ bt)
    state = SimulationState(spec=spec, b_energy=b, t=t)
    np.testing.assert_allclose(state.packet_amplitudes(), bt, atol=1e-12)
    assert state.t == t
    # the co-moving frame differs once the flight phases are nonzero
    assert not np.allclose(state.packet_amplitudes(aligned=True), bt, atol=1e-6)


def test_integrate_pulse_rejects_late_clock():
    spec = _spec()
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / spec.d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=1.0, center_time=0.0)
    state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex),
                            b_g=1.0, t=pulse.t_start + fwhm)
    with pytest.raises(ValueError):
        integrate_pulse(state, pulse)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 8),
    mode=st.sampled_from(SPECTRUM_MODES),
    target=st.sampled_from(["g", "e"]),
    phase=st.floats(-10.0, 10.0),
    detuning_steps=st.floats(-2.0, 2.0),
    area_factor=st.floats(0.3, 1.2),
    n_trace=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrate_pulse_trace(d, mode, target, phase, detuning_steps, area_factor, n_trace, seed):
    # the trace samples the dense output of the same solve: the step grid
    # and every field of the final state are bit-equal with it on and off
    spec = ManifoldSpec(nbar=180, d=d)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=area_factor * pi_pulse_peak_rabi(spec, fwhm),
                      carrier_detuning=detuning_steps * 2.0 * math.pi / ts.t_kepler,
                      phase=phase, center_time=ts.t_kepler, target=target)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    v /= np.linalg.norm(v)
    state = SimulationState(spec=spec, b_energy=v[2:], b_g=complex(v[0]), b_e=complex(v[1]),
                            t=pulse.t_start)
    grids = []

    def capture(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        grids.append(sol.t)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse_mod, "solve_ivp", capture)
        out = integrate_pulse(state, pulse, mode=mode)                  # bare state, no trace
        out2, trace = integrate_pulse(state, pulse, mode=mode, n_trace=n_trace)
    assert isinstance(out, SimulationState)
    assert grids[0].tobytes() == grids[1].tobytes()
    assert (np.r_[out2.b_g, out2.b_e, out2.t, out2.b_energy].tobytes()
            == np.r_[out.b_g, out.b_e, out.t, out.b_energy].tobytes())
    assert trace.t_au[0] == pulse.t_start and trace.t_au[-1] == pulse.t_end
    assert trace.packet_populations.shape == (n_trace, d)
    assert trace.pop_g[0] == pytest.approx(abs(v[0]) ** 2, abs=1e-12)
    assert trace.pop_e[0] == pytest.approx(abs(v[1]) ** 2, abs=1e-12)
    assert trace.pop_g[-1] == pytest.approx(abs(out.b_g) ** 2, abs=1e-10)
    assert trace.pop_e[-1] == pytest.approx(abs(out.b_e) ** 2, abs=1e-10)
    assert np.max(trace.norm_error) < 1e-8
    total = trace.pop_g + trace.pop_e + trace.packet_populations.sum(axis=1)
    np.testing.assert_allclose(total, 1.0, atol=1e-8)


def _pulse_rows_oracle(state, pulse, mode, n_trace):
    # the row builder integrate_pulse carried before evolution.trace_rows,
    # on the dense output of the same solve
    spec = state.spec
    store_g = pulse.target == "g"
    y0 = np.concatenate(([state.b_g if store_g else state.b_e], state.b_energy))
    sol = _solve_pulse(pulse, rabi_profile(spec, pulse.peak_rabi).omega_j,
                       detunings(spec, mode) + pulse.carrier_detuning, y0, dense_output=True)
    ts = np.linspace(pulse.t_start, pulse.t_end, n_trace)
    Y = sol.sol(ts)
    pops = np.abs(packet_amplitudes_at(Y[1:].T, spec, ts, mode)) ** 2
    pop_s = np.abs(Y[0, :]) ** 2
    norm_err = np.abs(np.sqrt(pop_s + pops.sum(axis=1) +
                              (abs(state.b_e) ** 2 if store_g else abs(state.b_g) ** 2)) - 1.0)
    return {"t_au": ts, "packet_populations": pops,
            "pop_g": pop_s if store_g else np.full_like(ts, abs(state.b_g) ** 2),
            "pop_e": np.full_like(ts, abs(state.b_e) ** 2) if store_g else pop_s,
            "norm_error": norm_err}


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 6),
    mode=st.sampled_from(SPECTRUM_MODES),
    target=st.sampled_from(["g", "e"]),
    phase=st.floats(-10.0, 10.0),
    detuning_steps=st.floats(-2.0, 2.0),
    area_factor=st.floats(0.3, 1.2),
    n_trace=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_pulse_trace_rows_match_the_old_row_builder(
        d, mode, target, phase, detuning_steps, area_factor, n_trace, seed):
    # every column bit-equal but norm_error, now summed over (g, e, slots)
    # in that order: within a few ulp
    spec = ManifoldSpec(nbar=180, d=d)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=area_factor * pi_pulse_peak_rabi(spec, fwhm),
                      carrier_detuning=detuning_steps * 2.0 * math.pi / ts.t_kepler,
                      phase=phase, center_time=ts.t_kepler, target=target)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    v /= np.linalg.norm(v)
    state = SimulationState(spec=spec, b_energy=v[2:], b_g=complex(v[0]), b_e=complex(v[1]),
                            t=pulse.t_start)
    _, trace = integrate_pulse(state, pulse, mode=mode, n_trace=n_trace)
    want = _pulse_rows_oracle(state, pulse, mode, n_trace)
    for column in ("t_au", "packet_populations", "pop_g", "pop_e"):
        np.testing.assert_array_equal(getattr(trace, column), want[column])
    np.testing.assert_allclose(trace.norm_error, want["norm_error"], rtol=0, atol=1e-15)


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


def _full_support_propagator(spec, pulse, mode):
    """U0 of the pulse shape as one solve over its whole support, the
    identity carried from -T to T: the reference the half-support solve
    is held to."""
    shape = PulseSpec(fwhm=pulse.fwhm, peak_rabi=pulse.peak_rabi,
                      carrier_detuning=pulse.carrier_detuning)
    omega = rabi_profile(spec, shape.peak_rabi).omega_j
    deltas = detunings(spec, mode) + shape.carrier_detuning
    return _solve_pulse(shape, omega, deltas, np.eye(spec.d + 1, dtype=complex)).y[..., -1]


def _assert_half_support_propagator(spec, pulse, mode):
    # U0 = X^T X within 2e-11 of the full-support solve, and symmetric to
    # rounding (the coupling of a shape centred at 0 obeys A(-t) = A(t)^T).
    # The two differ by up to 1.2e-11 (d = 2, 1.2 pi, detuned -0.5 level
    # spacings), where each is 1.5e-11 or less off DOP853 at rtol 1e-13.
    U0 = pulse_propagator(spec, pulse, mode)
    assert np.max(np.abs(U0 - _full_support_propagator(spec, pulse, mode))) <= 2e-11
    assert np.max(np.abs(U0 - U0.T)) <= 4 * np.finfo(float).eps * np.max(np.abs(U0))


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 8),
    mode=st.sampled_from(SPECTRUM_MODES),
    detuning_steps=st.floats(-2.0, 2.0),
    area_factor=st.floats(0.3, 1.2),
)
@example(d=2, mode="exact", detuning_steps=-0.5, area_factor=1.2)
def test_half_support_propagator_matches_the_full_support_solve(
        d, mode, detuning_steps, area_factor):
    spec = ManifoldSpec(nbar=180, d=d)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / d
    _assert_half_support_propagator(spec, PulseSpec(
        fwhm=fwhm, peak_rabi=area_factor * pi_pulse_peak_rabi(spec, fwhm),
        carrier_detuning=detuning_steps * 2.0 * math.pi / ts.t_kepler), mode)


@pytest.mark.parametrize("d, fwhm_kepler", [(16, None), (8, FWHM_RANGE_KEPLER[0]),
                                            (8, FWHM_RANGE_KEPLER[1])])
def test_half_support_propagator_at_d16_and_the_fwhm_range_ends(d, fwhm_kepler):
    spec = ManifoldSpec(nbar=180, d=d)
    t_kepler = time_scales(spec).t_kepler
    fwhm = 0.25 * LN2 * t_kepler / d if fwhm_kepler is None else fwhm_kepler * t_kepler
    _assert_half_support_propagator(
        spec, PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm)), "exact")


@pytest.mark.parametrize("mode", ["exact", "taylor1"])
@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_propagator_solve_ends_at_the_centre_on_the_full_support_grid(d, mode):
    spec, fwhm, rabi = _gate_pulse(d)
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=rabi)
    solves = []

    def capture(coupling, t_span, y0, **kwargs):
        solves.append(solve_ivp(coupling, t_span, y0, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse_mod, "solve_ivp", capture)
        pulse_mod._propagator.cache_clear()     # force a fresh U0 solve
        pulse_propagator(spec, pulse, mode)
        (half,) = solves
        _full_support_propagator(spec, pulse, mode)
    full = solves[1]
    assert (half.t[0], half.t[-1]) == (pulse.t_start, pulse.center_time)
    n = len(half.t) - 1
    np.testing.assert_array_equal(half.t[:-1], full.t[:n])
    assert full.t[n - 1] < pulse.center_time <= full.t[n]


def _magnus4_propagator(nbar, d, mode, fwhm, peak_rabi, steps):
    """U0 of the resonant pulse shape centred at t = 0 with phi = 0, by a
    4th-order Magnus integrator on fixed steps, built from the equations
    of the pulse module docstring and nothing of the package.

    The slow amplitudes (storage, levels) obey y' = i G(t) y with G
    Hermitian, nonzero in the storage row and column only:
    G[0, j] = f(t) Omega_j e^{-i Delta_j t} / 2.  Each step of size h
    samples G at the two Gauss points G1, G2 and applies exp(i H) with
    H = h (G1 + G2) / 2 + i sqrt(3) h^2 [G2, G1] / 12 (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)), exponentiated exactly
    through numpy.linalg.eigh.
    """
    n = float(nbar)
    j = np.arange(-((d - 1) // 2), d // 2 + 1).astype(float)
    omega = peak_rabi * ((n + j) / n) ** -1.5
    # 'taylor1': 2 pi j / t_kepler with t_kepler = 2 pi nbar^3
    delta = (-1.0 / (2.0 * (n + j) ** 2) + 1.0 / (2.0 * n**2) if mode == "exact"
             else j / n**3)
    ln2 = math.log(2.0)
    half = 4.0 * fwhm / (2.0 * math.sqrt(2.0 * ln2))      # the support, 4 sigma
    h = 2.0 * half / steps
    left = -half + h * np.arange(steps)

    def generator(t):
        G = np.zeros((len(t), d + 1, d + 1), dtype=complex)
        G[:, 0, 1:] = (0.5 * np.exp(-4.0 * ln2 * t**2 / fwhm**2)[:, None] * omega
                       * np.exp(-1j * np.outer(t, delta)))
        G[:, 1:, 0] = G[:, 0, 1:].conj()
        return G

    G1 = generator(left + (0.5 - math.sqrt(3.0) / 6.0) * h)
    G2 = generator(left + (0.5 + math.sqrt(3.0) / 6.0) * h)
    H = 0.5 * h * (G1 + G2) + 1j * math.sqrt(3.0) / 12.0 * h**2 * (G2 @ G1 - G1 @ G2)
    lam, V = np.linalg.eigh(H)
    U = np.eye(d + 1, dtype=complex)
    for step in (V * np.exp(1j * lam)[:, None, :]) @ V.conj().transpose(0, 2, 1):
        U = step @ U
    return U


def _gate_pulse(d):
    """The manifold, FWHM and pi-pulse peak Rabi frequency of the default
    compiled-gate pulse at nbar = 180."""
    spec = ManifoldSpec(nbar=180, d=d)
    fwhm = 0.25 * LN2 * time_scales(spec).t_kepler / d
    return spec, fwhm, pi_pulse_peak_rabi(spec, fwhm)


@pytest.mark.parametrize("mode", ["exact", "taylor1"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_pulse_propagator_matches_magnus_oracle(d, mode):
    # an integrator that shares no code or method with solve_ivp (the
    # largest difference is about 6e-12, at d = 2)
    spec, fwhm, rabi = _gate_pulse(d)
    U0 = pulse_propagator(spec, PulseSpec(fwhm=fwhm, peak_rabi=rabi), mode)
    oracle = _magnus4_propagator(spec.nbar, d, mode, fwhm, rabi, steps=2000)
    assert np.max(np.abs(oracle - U0)) <= 1e-10


@pytest.mark.parametrize("d", [2, 4, 8])
def test_magnus_oracle_converges_at_fourth_order(d):
    # each doubling of the step count moves the result about 16 times
    # less (at d = 2 by 1.2e-11 from 500 to 1000 steps, 7e-13 from 1000
    # to 2000)
    spec, fwhm, rabi = _gate_pulse(d)
    U = [_magnus4_propagator(spec.nbar, d, "exact", fwhm, rabi, steps)
         for steps in (500, 1000, 2000)]
    coarse, fine = np.max(np.abs(U[1] - U[0])), np.max(np.abs(U[2] - U[1]))
    assert fine <= 1e-12
    assert coarse >= 8.0 * fine


def _dop853(coupling, t_span, y0, t_eval=None):
    """scipy's DOP853 at rtol 1e-13, atol 1e-15 on the coupling's ODE
    through a plain right-hand side: the oracle the in-package stepper is
    checked against.  The state at t_eval (default: t_span's end), shaped
    y0.shape + (len(t_eval),)."""
    cp, n = coupling, np.shape(y0)[0]

    def rhs(t, y):
        f = math.exp(cp.rate * (t - cp.center) ** 2)
        e = np.exp(1j * cp.deltas * t)
        Y = y.reshape(n, -1)
        dY = np.empty_like(Y)
        dY[0] = f * ((cp.w_in * e.conj()) @ Y[1:])
        dY[1:] = (f * cp.w_out * e)[:, None] * Y[0]
        return dY.ravel()

    t_eval = [t_span[1]] if t_eval is None else t_eval
    ref = scipy.integrate.solve_ivp(rhs, t_span, np.ravel(y0).astype(complex), method="DOP853",
                                    t_eval=t_eval, rtol=1e-13, atol=1e-15)
    assert ref.success
    return ref.y.reshape(np.shape(y0) + (len(t_eval),))


def _error_norms(coupling, t, y):
    """RMS error norm of every step of a solve_ivp grid t with states y
    (y0.shape + (len(t),)), recomputed from the step operators."""
    _, err_ops, _ = _step_operators(coupling, t[:-1], np.diff(t))
    Y = np.moveaxis(y, -1, 0).reshape(len(t), y.shape[0], -1)
    scale = ATOL + RTOL * np.maximum(np.abs(Y[:-1]), np.abs(Y[1:]))
    err = (err_ops @ Y[:-1]) / scale
    return np.sqrt(np.mean(np.abs(err.reshape(len(t) - 1, -1)) ** 2, axis=1))


def _pulse_solves(spec, pulse, mode, v):
    """The (coupling, t_span, y0, kwargs) of every solve_ivp call made by
    integrate_pulse, a fresh pulse_propagator and the detuned oracle."""
    calls = []

    def capture(coupling, t_span, y0, **kwargs):
        calls.append((coupling, t_span, y0, kwargs))
        return solve_ivp(coupling, t_span, y0, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse_mod, "solve_ivp", capture)
        pulse_mod._propagator.cache_clear()     # force a fresh U0 solve
        integrate_pulse(SimulationState(spec=spec, b_energy=v[2:], b_g=v[0], b_e=v[1],
                                        t=pulse.t_start), pulse, mode=mode)
        pulse_propagator(spec, pulse, mode)
        two_level_oracle(v[0], v[2], pulse, core_rabi_dft(spec, pulse.peak_rabi))
    return calls


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 8),
    mode=st.sampled_from(SPECTRUM_MODES),
    target=st.sampled_from(["g", "e"]),
    center_kepler=st.floats(0.0, 20.0),
    phase=st.floats(-10.0, 10.0),
    # the oracle solves detuned pulses only; a tiny step count would underflow to zero detuning
    detuning_steps=st.floats(-2.0, 2.0).filter(lambda x: abs(x) >= 1e-3),
    area_factor=st.floats(0.3, 1.2),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_ivp_matches_dop853_and_accepts_every_step(
        d, mode, target, center_kepler, phase, detuning_steps, area_factor, dense, seed):
    # on the package's own couplings (a state vector, the propagator's
    # identity matrix, the detuned two-level oracle): the final state, and
    # the dense output, within 1e-10 of DOP853 at rtol 1e-13; every step
    # of the returned grid passes the error test
    spec = ManifoldSpec(nbar=180, d=d)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / d
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=area_factor * pi_pulse_peak_rabi(spec, fwhm),
                      carrier_detuning=detuning_steps * 2.0 * math.pi / ts.t_kepler,
                      phase=phase, center_time=center_kepler * ts.t_kepler, target=target)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    v /= np.linalg.norm(v)
    calls = _pulse_solves(spec, pulse, mode, v)
    assert [np.ndim(y0) for _, _, y0, _ in calls] == [1, 2, 1]
    for coupling, t_span, y0, kwargs in calls:
        kwargs = dict(kwargs, dense_output=dense and np.ndim(y0) == 1)
        got = solve_ivp(coupling, t_span, y0, **kwargs)
        assert got.success
        assert (got.t[0], got.t[-1]) == t_span
        assert got.nfev >= 2 + 6 * (len(got.t) - 1)
        assert np.max(np.abs(got.y[..., -1] - _dop853(coupling, t_span, y0)[..., -1])) <= 1e-10
        assert np.max(_error_norms(coupling, got.t, got.y)) < 1
        if kwargs["dense_output"]:
            t_eval = np.linspace(*t_span, 37)
            assert np.max(np.abs(got.sol(t_eval) - _dop853(coupling, t_span, y0, t_eval))) <= 1e-10
        else:
            assert got.sol is None


def _edge_pulses():
    """The edge pulses of the accuracy table, d = 8 at nbar = 180."""
    spec = ManifoldSpec(nbar=180, d=8)
    t_kepler = time_scales(spec).t_kepler
    fwhm = 0.25 * LN2 * t_kepler / 8
    pi_rabi = pi_pulse_peak_rabi(spec, fwhm)
    return spec, {
        "pi": PulseSpec(fwhm=fwhm, peak_rabi=pi_rabi),
        "1.2pi_detuned_1.7_spacings": PulseSpec(
            fwhm=fwhm, peak_rabi=1.2 * pi_rabi, carrier_detuning=1.7 * 2.0 * math.pi / t_kepler),
        "detuned_40_per_fwhm": PulseSpec(fwhm=fwhm, peak_rabi=pi_rabi,
                                         carrier_detuning=40.0 / fwhm),
        "10pi": PulseSpec(fwhm=fwhm, peak_rabi=10.0 * pi_rabi),
        "100pi": PulseSpec(fwhm=fwhm, peak_rabi=100.0 * pi_rabi),
        "fwhm_10_t_kepler": PulseSpec(fwhm=10.0 * t_kepler,
                                      peak_rabi=pi_pulse_peak_rabi(spec, 10.0 * t_kepler)),
        "fwhm_1e-6_t_kepler": PulseSpec(fwhm=1e-6 * t_kepler,
                                        peak_rabi=pi_pulse_peak_rabi(spec, 1e-6 * t_kepler)),
    }


# Largest error of integrate_pulse against DOP853 over the states of
# test_edge_pulses_are_no_less_accurate, with the stepper that replayed
# scipy RK45's step controller
EDGE_PULSE_ERROR = {
    "pi": 7.8e-12, "1.2pi_detuned_1.7_spacings": 1.5e-11, "detuned_40_per_fwhm": 2.8e-11,
    "10pi": 2.2e-10, "100pi": 2.4e-9, "fwhm_10_t_kepler": 2.4e-11, "fwhm_1e-6_t_kepler": 7.9e-12,
}


@pytest.mark.parametrize("name", sorted(EDGE_PULSE_ERROR))
def test_edge_pulses_are_no_less_accurate(name):
    # pulses at the ends of the input ranges (area, detuning, FWHM), on the
    # storage level, a uniform level state and three random states
    spec, pulses = _edge_pulses()
    pulse = pulses[name]
    states = [np.r_[1.0, np.zeros(8)], np.r_[0.0, np.full(8, 8 ** -0.5)]]
    for seed in range(3):
        v = (np.random.default_rng(seed).normal(size=9)
             + 1j * np.random.default_rng(seed + 100).normal(size=9))
        states.append(v / np.linalg.norm(v))
    Y = np.array(states, dtype=complex).T
    omega = rabi_profile(spec, pulse.peak_rabi).omega_j
    coupling = Coupling(rate=-4.0 * LN2 / pulse.fwhm**2, center=pulse.center_time,
                        w_in=0.5j * omega, w_out=0.5j * omega,
                        deltas=detunings(spec) + pulse.carrier_detuning)
    want = _dop853(coupling, (pulse.t_start, pulse.t_end), Y)[..., -1]
    for y, w in zip(Y.T, want.T):
        out = integrate_pulse(SimulationState(spec=spec, b_energy=y[1:], b_g=y[0],
                                              t=pulse.t_start), pulse)
        assert np.max(np.abs(np.r_[out.b_g, out.b_energy] - w)) <= EDGE_PULSE_ERROR[name]


def _flat(w, deltas, rate=0.0):
    w = np.asarray(w, dtype=complex)
    return Coupling(rate=rate, center=0.0, w_in=0.5j * w, w_out=0.5j * w,
                    deltas=np.asarray(deltas, dtype=float))


def test_solve_ivp_stops_on_nan_rhs():
    # scipy's RK45 loops forever when the first derivative is NaN (its
    # initial step is NaN); this stepper fails at once
    y0 = np.ones(3, dtype=complex)
    sol = solve_ivp(_flat([np.nan, 1.0], [1.0, 2.0]), (0.0, 1.0), y0, max_step=0.01)
    assert not sol.success
    assert "step size" in sol.message
    assert sol.t.tolist() == [0.0]
    pulse = PulseSpec(fwhm=0.1, peak_rabi=1.0)
    with pytest.raises(RuntimeError, match="pulse integration failed"):
        _solve_pulse(pulse, np.array([np.nan]), np.array([1.0]), y0[:2])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_solve_ivp_fails_on_overflowing_first_step():
    # a derivative that overflows makes the initial step 0; that ends the run
    # with success False (it used to divide by zero)
    y0 = np.ones(3, dtype=complex)
    sol = solve_ivp(_flat([1e308, 1e308], [1.0, 2.0]), (0.0, 1.0), y0, max_step=0.01)
    assert (sol.success, sol.t.tolist(), sol.nfev) == (False, [0.0], 2)
    assert "step size" in sol.message
    # the pulse of a declarative `area: 1.0e+308` event, run past the config check
    spec = ManifoldSpec(nbar=180, d=4)
    fwhm = 0.02 * time_scales(spec).t_kepler
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm) * 1e308 / math.pi)
    state = SimulationState(spec=spec, b_energy=np.full(4, 0.5, dtype=complex), t=pulse.t_start)
    with pytest.raises(RuntimeError, match="pulse integration failed"):
        integrate_pulse(state, pulse)


def test_solve_ivp_grid_ramps_to_the_cap():
    # zero derivative: scipy's smallest first step, no error, x10 growth to
    # the cap, then steps of the cap summed in order, the last cut at t1
    y0 = np.ones(3, dtype=complex)
    sol = solve_ivp(_flat([0.0, 0.0], [1.0, -1.0]), (0.0, 1.0), y0, max_step=0.01)
    assert sol.success
    h = np.diff(sol.t)
    np.testing.assert_allclose(h[:4], [1e-6, 1e-5, 1e-4, 1e-3], rtol=1e-9)
    cap_steps = np.add.accumulate(np.r_[sol.t[4], np.full(len(h) - 5, 0.01)])
    np.testing.assert_array_equal(sol.t[4:-1], cap_steps)
    assert sol.t[-1] == 1.0 and 0 < h[-1] <= 0.01
    assert sol.nfev == 2 + 6 * len(h)
    np.testing.assert_array_equal(sol.y, 1.0)
    # weak enough that one step covers the interval
    sol = solve_ivp(_flat([1e-14, 1e-14], [1.0, -1.0]), (0.0, 1.0), y0, max_step=math.inf)
    assert sol.success and sol.t.tolist() == [0.0, 1.0] and sol.nfev == 8


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_solve_ivp_fails_on_nan_midway():
    # the detuning phase overflows to NaN after t = 1: a NaN error norm ends
    # the run with success False, not with a NaN state
    y0 = np.ones(3, dtype=complex)
    sol = solve_ivp(_flat([1e-20, 1e-20], [1.7e308, 1.0]), (0.0, 2.0), y0, max_step=0.05)
    assert (sol.success, sol.t.tolist(), sol.sol) == (False, [0.0], None)
    assert "not finite" in sol.message
    np.testing.assert_array_equal(sol.y[:, -1], y0)
    # the same through integrate_pulse, on a support that starts at t = 0
    spec = ManifoldSpec(nbar=180, d=2)
    shape = PulseSpec(fwhm=1.0, peak_rabi=1e-20)
    pulse = PulseSpec(fwhm=1.0, peak_rabi=1e-20, carrier_detuning=1.7e308,
                      center_time=shape.half_width)
    state = SimulationState(spec=spec, b_energy=np.full(2, 0.5 ** 0.5, dtype=complex), t=0.0)
    with pytest.raises(RuntimeError, match="pulse integration failed"):
        integrate_pulse(state, pulse)


def test_solve_ivp_rejects_bad_calls():
    y0 = np.ones(3, dtype=complex)
    for t_span in ((1.0, 0.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="t_span must be increasing"):
            solve_ivp(_flat([1.0, 1.0], [1.0, -1.0]), t_span, y0, max_step=0.01)
    with pytest.raises(ValueError, match="dense output needs a state vector"):
        solve_ivp(_flat([1.0, 1.0], [1.0, -1.0]), (0.0, 1.0), np.eye(3), max_step=0.01,
                  dense_output=True)


@pytest.mark.parametrize("bad", ["nan", "off-unitary"])
def test_pulse_propagator_rejects_an_off_unitary_solve_and_caches_nothing(bad):
    # a solve that reports success with a NaN or non-unitary X fails the
    # 1e-8 unitarity check of U0 = X^T X; the failure is not cached, so the
    # next call solves afresh
    spec, fwhm, rabi = _gate_pulse(4)
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=rabi)
    X = np.full((5, 5), np.nan + 0j) if bad == "nan" else 1.01 * np.eye(5, dtype=complex)

    def bad_solve(coupling, t_span, y0, **kwargs):
        return SimpleNamespace(t=np.array(t_span), y=np.stack((y0, X), axis=-1),
                               nfev=8, success=True, message="", sol=None)

    pulse_mod._propagator.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse_mod, "solve_ivp", bad_solve)
        with pytest.raises(RuntimeError, match="pulse propagator is off unitary by "
                                               + ("nan" if bad == "nan" else "4.060e-02")):
            pulse_propagator(spec, pulse)
    assert pulse_mod._propagator.cache_info().currsize == 0
    U0 = pulse_propagator(spec, pulse)
    assert pulse_mod._propagator.cache_info().misses == 2
    assert np.max(np.abs(U0.conj().T @ U0 - np.eye(5))) <= 1e-8


def test_integrate_pulse_rejects_a_nan_state():
    # a solve that reports success with a NaN state fails the norm check
    spec = _spec()
    pulse = PulseSpec(fwhm=100.0, peak_rabi=1e-3)
    state = SimulationState(spec=spec, b_energy=np.zeros(spec.d, dtype=complex), b_g=1.0,
                            t=pulse.t_start)

    def nan_solve(coupling, t_span, y0, **kwargs):
        return SimpleNamespace(t=np.array(t_span), y=np.full(np.shape(y0) + (2,), np.nan + 0j),
                               nfev=8, success=True, message="", sol=None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulse_mod, "solve_ivp", nan_solve)
        with pytest.raises(RuntimeError, match="norm drifted by nan"):
            integrate_pulse(state, pulse)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(rydpacket.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # nor importlib.metadata (which pulls in email, csv and more) until
    # __version__ is read, nor concurrent.futures outside run --jobs
    code = ("import sys, rydpacket, rydpacket.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') "
            "or m in ('importlib.metadata', 'concurrent.futures'))); "
            "print(type(rydpacket.__version__).__name__)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["[]", "str"]
