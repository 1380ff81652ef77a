"""Pulse envelopes, calibration, and storage <-> slot transfer."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import rydpacket
import rydpacket.pulse as pulse_mod
from rydpacket import ManifoldSpec, SimulationState, time_scales
from rydpacket.basis import packet_to_energy_matrix
from rydpacket.constants import LN2
from rydpacket.manifold import SPECTRUM_MODES, detunings
from rydpacket.pulse import (
    Coupling,
    PulseSpec,
    _solve_pulse,
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


def _scipy_rk45(coupling, t_span, y0, **kwargs):
    """scipy's RK45 on the coupling's ODE through a plain right-hand side:
    the reference the in-package stepper is checked against."""
    cp, n = coupling, np.shape(y0)[0]

    def rhs(t, y):
        f = math.exp(cp.rate * (t - cp.center) ** 2)
        e = np.exp(1j * cp.deltas * t)
        Y = y.reshape(n, -1)
        dY = np.empty_like(Y)
        dY[0] = f * ((cp.w_in * e.conj()) @ Y[1:])
        dY[1:] = (f * cp.w_out * e)[:, None] * Y[0]
        return dY.ravel()

    return scipy.integrate.solve_ivp(rhs, t_span, np.ravel(y0), method="RK45", **kwargs)


def _assert_matches_rk45(coupling, t_span, y0, **kwargs):
    """solve_ivp against scipy's RK45: the same step count, rhs calls,
    first and last time, outcome and message; states within 1e-14 (every
    step state where the grids are equal; where the error controller sets
    a step, step times may differ in rounding).  Returns both solutions."""
    got = solve_ivp(coupling, t_span, y0, **kwargs)
    ref = _scipy_rk45(coupling, t_span, y0, **kwargs)
    assert (got.success, got.message) == (ref.success, ref.message)
    assert len(got.t) == len(ref.t)
    assert got.nfev == ref.nfev
    assert (got.t[0], got.t[-1]) == (ref.t[0], ref.t[-1])
    y = got.y.reshape(-1, len(got.t))
    assert np.max(np.abs(y[:, -1] - ref.y[:, -1])) <= 1e-14
    if np.array_equal(got.t, ref.t):
        assert np.max(np.abs(y - ref.y)) <= 1e-14
    if kwargs.get("dense_output"):
        t_eval = np.linspace(*t_span, 37)
        assert np.max(np.abs(got.sol(t_eval) - ref.sol(t_eval))) <= 1e-14
    else:
        assert got.sol is None
    return got, ref


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
def test_solve_ivp_matches_scipy_rk45(
        d, mode, target, center_kepler, phase, detuning_steps, area_factor, dense, seed):
    # on the package's own couplings (a state vector, the propagator's
    # identity matrix, the detuned two-level oracle) the batched stepper
    # takes scipy's RK45 steps
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
        got, _ = _assert_matches_rk45(coupling, t_span, y0, **kwargs)
        assert got.success


def _flat(w, deltas, rate=0.0):
    w = np.asarray(w, dtype=complex)
    return Coupling(rate=rate, center=0.0, w_in=0.5j * w, w_out=0.5j * w,
                    deltas=np.asarray(deltas, dtype=float))


def test_solve_ivp_stops_on_nan_rhs():
    # scipy's RK45 loops forever when the first derivative is NaN (its
    # initial step is NaN); this stepper fails at once
    y0 = np.ones(3, dtype=complex)
    sol = solve_ivp(_flat([np.nan, 1.0], [1.0, 2.0]), (0.0, 1.0), y0,
                    rtol=1e-10, atol=1e-12, max_step=0.01)
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
    sol = solve_ivp(_flat([1e308, 1e308], [1.0, 2.0]), (0.0, 1.0), y0,
                    rtol=1e-10, atol=1e-12, max_step=0.01)
    assert (sol.success, sol.t.tolist(), sol.nfev) == (False, [0.0], 2)
    assert "step size" in sol.message
    # the pulse of a declarative `area: 1.0e+308` event, run past the config check
    spec = ManifoldSpec(nbar=180, d=4)
    fwhm = 0.02 * time_scales(spec).t_kepler
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=pi_pulse_peak_rabi(spec, fwhm) * 1e308 / math.pi)
    state = SimulationState(spec=spec, b_energy=np.full(4, 0.5, dtype=complex), t=pulse.t_start)
    with pytest.raises(RuntimeError, match="pulse integration failed"):
        integrate_pulse(state, pulse)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("coupling,t_span,max_step", [
    # zero derivative: smallest first step, no error, x10 growth to the cap
    (_flat([0.0, 0.0], [1.0, -1.0]), (0.0, 1.0), 0.01),
    # weak enough that one step covers the interval
    (_flat([1e-14, 1e-14], [1.0, -1.0]), (0.0, 1.0), math.inf),
    # the detuning phase overflows to NaN half way: rejections down to the
    # smallest step, then failure
    (_flat([1e-20, 1e-20], [1.7e308, 1.0]), (0.0, 2.0), 0.05),
], ids=["zero", "slow", "nan_midway"])
def test_solve_ivp_matches_scipy_rk45_on_edge_cases(coupling, t_span, max_step):
    y0 = np.ones(3, dtype=complex)
    got, ref = _assert_matches_rk45(coupling, t_span, y0, rtol=1e-10, atol=1e-12,
                                    max_step=max_step)
    np.testing.assert_array_equal(got.t, ref.t)
    assert (len(got.t) == 2) == (max_step == math.inf)


def _controller_stepped():
    # taylor3, 1.2 pi, 1.7 level spacings off resonance: mid-pulse steps are
    # set by the error controller, not by max_step
    spec = ManifoldSpec(nbar=180, d=8)
    ts = time_scales(spec)
    fwhm = 0.25 * LN2 * ts.t_kepler / 8
    pulse = PulseSpec(fwhm=fwhm, peak_rabi=1.2 * pi_pulse_peak_rabi(spec, fwhm),
                      carrier_detuning=1.7 * 2.0 * math.pi / ts.t_kepler,
                      phase=0.4)
    v = np.r_[0.0, 0.0, np.full(8, 8 ** -0.5)].astype(complex)
    return _pulse_solves(spec, pulse, "taylor3", v)


@pytest.mark.parametrize("case", ["controller_steps", "rejections", "propagator"])
def test_solve_ivp_replays_rk45_controller(case):
    # the batch replay paths, with scipy's RK45 as the oracle: steps whose size
    # the controller sets (a guessed grid is right one step at a time),
    # rejected steps, and the propagator's matrix state
    if case == "rejections":
        coupling, t_span = _flat([3.0, 3.0, 3.0], [-1.0, 0.3, 2.0], rate=-0.5), (-6.0, 6.0)
        y0, kwargs = np.array([1, 0, 0, 0], dtype=complex), dict(rtol=1e-10, atol=1e-12,
                                                                 max_step=math.inf)
    else:
        calls = _controller_stepped()
        coupling, t_span, y0, kwargs = calls[0 if case == "controller_steps" else 1]
    kwargs = dict(kwargs, dense_output=np.ndim(y0) == 1)
    got, ref = _assert_matches_rk45(coupling, t_span, y0, **kwargs)
    assert got.success
    if case == "rejections":
        assert ref.nfev > 2 + 6 * (len(ref.t) - 1)
    else:       # mid-pulse steps shorter than max_step: set by the error controller
        h = np.diff(ref.t)
        assert np.min(h[h.size // 4: -h.size // 4]) < 0.99 * kwargs["max_step"]


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(rydpacket.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, rydpacket, rydpacket.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
