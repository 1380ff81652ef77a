"""Short optical pulses coupling a storage level to the manifold.

A transform-limited Gaussian pulse couples one dispersion-free storage
level (ground 'g' or auxiliary 'e') to all d manifold levels at once.
In the rotating-wave picture the slow amplitudes obey

    db_s/dt = (i/2) f(t) e^{+i phi} sum_j Omega_j exp(-i Delta_j t) b_j
    db_j/dt = (i/2) f(t) e^{-i phi} Omega_j exp(+i Delta_j t) b_s

with Delta_j = omega_j0 + Delta_0 (Delta_0 the carrier detuning from
the mean level) and f(t) the field-amplitude envelope

    f(t) = exp(-4 ln2 (t - t_c)^2 / tau_p^2),   FWHM tau_p,

truncated to |t - t_c| <= 4 sigma, sigma = tau_p / (2 sqrt(2 ln2)).
The per-level Rabi frequencies follow the radial matrix element scaling
Omega_j = Omega_peak ((nbar + j)/nbar)^(-3/2).

Because a packet crosses the core in about t_kepler / d, a pulse
shorter than that interacts mainly with the packet slot at the core.
Its DFT weight Omega~_0 = sum_j Omega_j / sqrt(d) then drives a plain
two-level rotation between the storage level and that slot, with pulse
area theta = Omega~_0 * integral of f.  The neighboring DFT weights
Omega~_{+-1} are two orders of magnitude down at nbar = 180, d = 8,
which is what makes slot addressing clean.

Times are absolute: the same clock orders pulses and free flight, so
which slot sits at the core when the pulse arrives is decided by t_c
alone.  All quantities in atomic units.

The equations are covariant under a shift of t_c and phi: with
c_s = b_s and c_j = e^{i phi} e^{-i Delta_j t_c} b_j, the c amplitudes
obey the same equations for the pulse centred at t = 0 with phi = 0.
So a pulse acts on (b_s, b_j) as Q^-1 U0 Q, with
Q = diag(1, e^{i phi} e^{-i Delta_j t_c}) and U0 the propagator of the
pulse shape alone.  pulse_propagator builds U0 with one matrix solve
and caches it, so every pulse of one shape, at any centre and phase,
costs a (d+1) x (d+1) product; integrate_pulse integrates one state
through one pulse on the absolute clock and stays the reference route.
gates.run_program drives single pulses (PulseSpec items) through
integrate_pulse and compiled schedules through the cached U0.

Every ODE here (integrate_pulse, pulse_propagator and the detuned
two_level_oracle) goes through one stepper, solve_ivp: the
Dormand-Prince 5(4) pair with Shampine's dense output, written to take
the same steps with the same arithmetic as scipy.integrate's RK45, so
scipy is not needed at run time.
"""

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .basis import energy_to_packet_matrix, packet_amplitudes_at
from .constants import LN2, TWO_PI
from .manifold import ManifoldSpec, detunings, time_scales

TRUNCATION_SIGMAS = 4.0        # envelope support half-width, in sigma
NORM_TOLERANCE = 1e-8          # allowed norm drift per integration
PROPAGATOR_CACHE_SIZE = 256    # pulse shapes whose U0 is kept per process


@dataclass(frozen=True)
class PulseSpec:
    """One Gaussian pulse. Times and frequencies in atomic units."""

    fwhm: float                  # field-amplitude FWHM tau_p
    peak_rabi: float             # Omega_peak, the j = 0 Rabi frequency at envelope peak
    carrier_detuning: float = 0.0   # Delta_0, carrier offset from the mean level
    phase: float = 0.0           # optical phase phi of the field
    center_time: float = 0.0     # t_c on the simulation clock
    target: str = "g"            # storage level it couples: 'g' or 'e'

    def __post_init__(self):
        if not (math.isfinite(self.fwhm) and self.fwhm > 0):
            raise ValueError(f"pulse FWHM must be positive and finite, got {self.fwhm}")
        for name in ("peak_rabi", "carrier_detuning", "phase", "center_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite, got {getattr(self, name)}")
        if self.target not in ("g", "e"):
            raise ValueError(f"pulse target must be 'g' or 'e', got {self.target!r}")

    @property
    def sigma(self) -> float:
        return self.fwhm / (2.0 * math.sqrt(2.0 * LN2))

    @property
    def half_width(self) -> float:
        """Half-width of the envelope support, TRUNCATION_SIGMAS sigma."""
        return TRUNCATION_SIGMAS * self.sigma

    @property
    def t_start(self) -> float:
        return self.center_time - self.half_width

    @property
    def t_end(self) -> float:
        return self.center_time + self.half_width

    def envelope(self, t):
        """Field-amplitude envelope f(t), zero outside the support."""
        t = np.asarray(t, dtype=float)
        f = np.exp(-4.0 * LN2 * (t - self.center_time) ** 2 / self.fwhm**2)
        return np.where(np.abs(t - self.center_time) <= self.half_width, f, 0.0)

    def envelope_area(self) -> float:
        """Integral of f over the truncated support (analytic)."""
        s = self.sigma
        return s * math.sqrt(2.0 * math.pi) * math.erf(TRUNCATION_SIGMAS / math.sqrt(2.0))


@dataclass(frozen=True)
class RabiProfile:
    """Per-level Rabi frequencies and their slot-space DFT."""

    spec: ManifoldSpec
    omega_j: np.ndarray = field(repr=False)

    @property
    def dft(self) -> np.ndarray:
        """Omega~_k = sum_j Omega_j exp(-i 2 pi j k / d) / sqrt(d)."""
        F = energy_to_packet_matrix(self.spec.d)
        return F.conj() @ self.omega_j.astype(complex)

    def dft_at(self, k: int) -> complex:
        return complex(self.dft[self.spec.slot_index(k)])


def rabi_profile(spec: ManifoldSpec, omega_ref: float) -> RabiProfile:
    """Rabi frequencies Omega_j = omega_ref ((nbar+j)/nbar)^(-3/2)."""
    n = float(spec.nbar)
    j = spec.j_values.astype(float)
    return RabiProfile(spec=spec, omega_j=omega_ref * ((n + j) / n) ** -1.5)


def core_rabi_dft(spec: ManifoldSpec, omega_peak: float) -> float:
    """Omega~_0 for the scaling profile; real and positive."""
    prof = rabi_profile(spec, omega_peak)
    return float(prof.omega_j.sum() / np.sqrt(spec.d))


def pi_pulse_peak_rabi(spec: ManifoldSpec, fwhm: float) -> float:
    """Peak Rabi frequency that makes the pulse a resonant pi pulse.

    Solves Omega~_0 * integral(f) = pi with the truncated-Gaussian area,
    so a storage <-> core-slot swap is complete in the two-level limit.
    """
    probe = PulseSpec(fwhm=fwhm, peak_rabi=1.0)
    unit_dft = core_rabi_dft(spec, 1.0)
    return math.pi / (unit_dft * probe.envelope_area())


@dataclass(frozen=True)
class PulseReport:
    """Constraint diagnostics from validate_pulse."""

    core_transit_ok: bool            # tau_p < t_kepler / d
    fwhm_over_transit: float         # tau_p / (t_kepler / d)
    spectral_fwhm: float             # field-amplitude spectrum FWHM, ordinary freq (a.u.^-1)
    spectral_hwhm: float             # half of the above
    bandwidth_ratio: float           # spectral_hwhm / (d / t_kepler)
    bandwidth_ok: bool               # ratio within a factor of 2 of unity
    time_bandwidth_product: float    # tau_p * spectral_fwhm (= 4 ln2 / pi, exact)
    kepler_regime_ok: bool


def validate_pulse(spec: ManifoldSpec, pulse: PulseSpec) -> PulseReport:
    """Check a pulse against the slot-addressing constraints.

    The hard requirement is tau_p < t_kepler / d: a longer pulse sees
    more than one packet slot cross the core.  The spectral width is
    reported two ways.  spectral_fwhm is the true FWHM of the Gaussian
    field-amplitude spectrum, 4 ln2 / (pi tau_p) in ordinary frequency;
    spectral_hwhm is its half-width, 2 ln2 / (pi tau_p), which is the
    conventional single-sided bandwidth figure and should sit near
    d / t_kepler (about 1.27 d / t_kepler for tau_p = 0.5 ln2 t_kepler/d)
    for the pulse to cover the manifold without spilling far outside it.
    """
    ts = time_scales(spec)
    transit = ts.t_kepler / spec.d
    fwhm_freq = 4.0 * LN2 / (math.pi * pulse.fwhm)
    hwhm_freq = 0.5 * fwhm_freq
    ratio = hwhm_freq / (spec.d / ts.t_kepler)
    return PulseReport(
        core_transit_ok=pulse.fwhm < transit,
        fwhm_over_transit=pulse.fwhm / transit,
        spectral_fwhm=fwhm_freq,
        spectral_hwhm=hwhm_freq,
        bandwidth_ratio=ratio,
        bandwidth_ok=0.5 <= ratio <= 2.0,
        time_bandwidth_product=pulse.fwhm * fwhm_freq,
        kepler_regime_ok=spec.kepler_regime_ok,
    )


def two_level_oracle(
    b_g0: complex,
    bt0_0: complex,
    pulse: PulseSpec,
    omega_tilde0: float,
) -> tuple[complex, complex]:
    """Storage and core-slot amplitudes after the pulse, two-level model.

    Resonant pulses (carrier_detuning = 0) use the closed-form rotation
    by theta = Omega~_0 * integral(f):

        b_g'  = cos(theta/2) b_g + i e^{+i phi} sin(theta/2) bt_0
        bt_0' = i e^{-i phi} sin(theta/2) b_g + cos(theta/2) bt_0

    Detuned pulses integrate the same two-amplitude system numerically,
    with integrate_pulse's solver settings; a failed solve raises
    RuntimeError.
    """
    if pulse.carrier_detuning == 0.0:
        theta = omega_tilde0 * pulse.envelope_area()
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        ph = np.exp(1j * pulse.phase)
        return (
            c * b_g0 + 1j * ph * s * bt0_0,
            1j * np.conj(ph) * s * b_g0 + c * bt0_0,
        )

    d0 = pulse.carrier_detuning

    def rhs(t, y):
        f = pulse.envelope(t)
        coep = 0.5j * f * omega_tilde0
        return np.array([
            coep * np.exp(1j * (pulse.phase - d0 * t)) * y[1],
            coep * np.exp(1j * (d0 * t - pulse.phase)) * y[0],
        ])

    sol = _solve_pulse(rhs, pulse, np.array([d0]), np.array([b_g0, bt0_0], dtype=complex))
    return complex(sol.y[0, -1]), complex(sol.y[1, -1])


@dataclass
class SimulationState:
    """Slow amplitudes of storage levels plus manifold, with a clock.

    b_energy holds the interaction-picture level amplitudes: free flight
    leaves them constant, all spectrum phases enter through the explicit
    time t (see packet_amplitudes).  b_g and b_e are the dispersion-free
    storage amplitudes.
    """

    spec: ManifoldSpec
    b_energy: np.ndarray
    b_g: complex = 0.0 + 0.0j
    b_e: complex = 0.0 + 0.0j
    t: float = 0.0

    def copy(self) -> "SimulationState":
        return SimulationState(self.spec, self.b_energy.copy(), self.b_g, self.b_e, self.t)

    def norm(self) -> float:
        return float(
            np.sqrt(abs(self.b_g) ** 2 + abs(self.b_e) ** 2 + np.sum(np.abs(self.b_energy) ** 2))
        )

    def advance(self, dt: float) -> None:
        """Free flight: the clock moves, the slow amplitudes do not."""
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self.t += dt

    def packet_amplitudes(self, mode: str = "exact", aligned: bool = False) -> np.ndarray:
        """Manifold packet amplitudes at the current clock time.

        aligned=False gives lab-frame slot amplitudes (slot k = 0 is
        whatever is at the core right now).  aligned=True drops the
        free-flight phases, giving the co-moving labels under which a
        packet keeps the slot it was created in; this is the natural
        frame for before/after population comparisons.
        """
        return packet_amplitudes_at(self.b_energy, self.spec, 0.0 if aligned else self.t, mode)


def integrate_pulse(
    state: SimulationState,
    pulse: PulseSpec,
    mode: str = "exact",
    n_trace: int = 0,
):
    """Drive one pulse, full model: all d levels coupled to the storage.

    The state's clock must not be past the pulse support start.  Returns
    the post-pulse state (clock at the support end).  With n_trace > 0
    also returns a TraceRecord of populations sampled across the pulse
    (packet populations on the slot grid of each sample time).

    Integration uses the package's Dormand-Prince 5(4) stepper
    (solve_ivp, the steps of scipy's RK45) with rtol 1e-10, atol 1e-12
    and a max step bounded by both the envelope and the fastest
    detuning phase; norm drift beyond 1e-8 raises.
    """
    if state.t > pulse.t_start + 1e-9 * pulse.fwhm:
        raise ValueError(
            f"clock t={state.t} already past pulse support start {pulse.t_start}"
        )
    spec = state.spec
    deltas = detunings(spec, mode) + pulse.carrier_detuning
    omega = rabi_profile(spec, pulse.peak_rabi).omega_j
    ph = np.exp(1j * pulse.phase)
    i_deltas = 1j * deltas
    w_in = 0.5j * ph * omega               # levels -> storage
    w_out = 0.5j * np.conj(ph) * omega     # storage -> levels
    a, tc = -4.0 * LN2 / pulse.fwhm**2, pulse.center_time
    n = spec.d + 1

    store_g = pulse.target == "g"

    def rhs(t, y):
        f = math.exp(a * (t - tc) ** 2)
        e = np.exp(i_deltas * t)
        dy = np.empty(n, dtype=complex)
        dy[0] = f * (w_in @ (e.conj() * y[1:]))
        dy[1:] = w_out * e * (f * y[0])
        return dy

    y0 = np.concatenate(([state.b_g if store_g else state.b_e], state.b_energy))
    norm_in = state.norm()
    sol = _solve_pulse(rhs, pulse, deltas, y0, dense_output=n_trace > 0)

    out = state.copy()
    yf = sol.y[:, -1]
    if store_g:
        out.b_g = complex(yf[0])
    else:
        out.b_e = complex(yf[0])
    out.b_energy = yf[1:]
    out.t = pulse.t_end
    drift = abs(out.norm() - norm_in)
    if drift > NORM_TOLERANCE:
        raise RuntimeError(f"norm drifted by {drift:.3e} during pulse integration")

    if n_trace <= 0:
        return out

    from .evolution import TraceRecord

    ts = np.linspace(pulse.t_start, pulse.t_end, n_trace)
    Y = sol.sol(ts)
    pops = np.abs(packet_amplitudes_at(Y[1:].T, spec, ts, mode)) ** 2
    pop_s = np.abs(Y[0, :]) ** 2
    # |norm(t) - 1|, as on flight segments and in the reports' norm_error
    norm_err = np.abs(np.sqrt(pop_s + pops.sum(axis=1) +
                              (abs(state.b_e) ** 2 if store_g else abs(state.b_g) ** 2)) - 1.0)
    trace = TraceRecord(
        spec=spec,
        t_au=ts,
        packet_populations=pops,
        pop_g=pop_s if store_g else np.full_like(ts, abs(state.b_g) ** 2),
        pop_e=np.full_like(ts, abs(state.b_e) ** 2) if store_g else pop_s,
        norm_error=norm_err,
    )
    return out, trace


def _solve_pulse(rhs, pulse: PulseSpec, deltas: np.ndarray, y0: np.ndarray,
                 dense_output: bool = False):
    """RK45 over the pulse support, max step bounded by the envelope and
    the fastest detuning phase."""
    max_step = min(pulse.fwhm / 50.0, TWO_PI / (10.0 * float(np.max(np.abs(deltas)))))
    sol = solve_ivp(rhs, (pulse.t_start, pulse.t_end), y0, rtol=1e-10, atol=1e-12,
                    max_step=max_step, dense_output=dense_output)
    if not sol.success:
        raise RuntimeError(f"pulse integration failed: {sol.message}")
    return sol


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) with
# Shampine's quartic dense output (Math. Comp. 46, 135 (1986)): the
# tableau, step controller and interpolant of scipy.integrate's RK45.  The
# stage weights are complex, so np.dot need not convert them on every call.
_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
], dtype=complex)
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84], dtype=complex)
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40], dtype=complex)
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_STAGES = [(c, a[:s]) for s, (c, a) in enumerate(zip(_C, _A)) if s > 0]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5        # -1 / (order of the error estimate + 1)


def _rms(x: np.ndarray) -> float:
    """RMS norm of a complex vector, summed as numpy.linalg.norm sums it."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """First step size from the local derivative scale (Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.4), as scipy's select_initial_step."""
    interval = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def solve_ivp(fun, t_span, y0, rtol, atol, max_step, dense_output=False):
    """Integrate dy/dt = fun(t, y) over t_span = (t0, t1), t1 > t0, with RK45.

    fun returns a complex array shaped like y.  Steps, rhs calls and
    results are those of scipy.integrate.solve_ivp(method="RK45") with
    the same arguments: same initial step, RMS error norm, step
    controller (a step after a rejection may not grow) and dense output.
    A step that would fall below ten ulps of t, or a NaN step size, ends
    the run with success False.  Returns a namespace with t (accepted
    times), y (n, len(t)), nfev, success, message and sol: with
    dense_output, a callable giving y at a 1-D array of times (shape
    (n, len(times))), else None.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y = np.asarray(y0, dtype=complex)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, max_step, rtol, atol)
    nfev = 2
    K = np.empty((7, y.size), dtype=complex)
    KT = K.T
    abs_y = np.abs(y)
    ts, ys, Qs = [t], [y], []
    message = None
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while h_abs >= min_step:        # False for a NaN step size too
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s, (c, a) in enumerate(_STAGES, start=1):
                K[s] = fun(t + c * h, y + np.dot(KT[:, :s], a) * h)
            y_new = y + h * np.dot(KT[:, :6], _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += 6
            abs_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_new) * rtol
            error_norm = _rms(np.dot(KT, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        else:
            message = "Required step size is less than spacing between numbers."
            break
        if dense_output:
            Qs.append(KT.dot(_P))
        t, y, f, abs_y = t_new, y_new, f_new, abs_new
        ts.append(t)
        ys.append(y)
    ts = np.array(ts)
    return SimpleNamespace(
        t=ts, y=np.vstack(ys).T, nfev=nfev, success=message is None,
        message=message or "The solver successfully reached the end of the integration interval.",
        sol=_DenseSolution(ts, ys, Qs) if dense_output else None)


class _DenseSolution:
    """Shampine's quartic interpolant on each accepted step."""

    def __init__(self, ts, ys, Qs):
        self.ts, self.ys, self.Qs = ts, ys, Qs

    def __call__(self, t):
        t = np.asarray(t)
        order = np.argsort(t)
        t_sorted = t[order]
        # a time on a step boundary belongs to the earlier step
        segs = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, len(self.Qs) - 1)
        out = np.empty((self.ys[0].size, t.size), dtype=complex)
        cuts = np.flatnonzero(np.diff(segs)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, t.size]):
            k = segs[lo]
            h = self.ts[k + 1] - self.ts[k]
            x = (t_sorted[lo:hi] - self.ts[k]) / h
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            out[:, order[lo:hi]] = h * np.dot(self.Qs[k], p) + self.ys[k][:, None]
        return out


_PROPAGATORS: OrderedDict = OrderedDict()     # shape key -> U0, least recently used first
_PROPAGATORS_LOCK = threading.Lock()


def pulse_propagator(spec: ManifoldSpec, pulse: PulseSpec, mode: str = "exact") -> np.ndarray:
    """U0, the (d+1) x (d+1) propagator over (storage, levels) of the
    pulse shape centred at t = 0 with phi = 0.

    Only the shape matters (fwhm, peak Rabi frequency, carrier
    detuning): center_time, phase and target are ignored, since the
    same U0 serves either storage level at any centre and phase (see
    the module docstring for the conjugation).  U0 comes from one RK45
    solve of the flattened matrix equation with integrate_pulse's
    settings, is rejected unless max|U0^dagger U0 - 1| <= 1e-8, and is
    kept in a bounded process-wide cache.  The returned array is
    read-only.
    """
    key = (spec.nbar, spec.d, mode, pulse.fwhm, pulse.peak_rabi, pulse.carrier_detuning)
    with _PROPAGATORS_LOCK:
        U0 = _PROPAGATORS.get(key)
        if U0 is not None:
            _PROPAGATORS.move_to_end(key)
            return U0

    shape = replace(pulse, center_time=0.0, phase=0.0)
    deltas = detunings(spec, mode) + shape.carrier_detuning
    omega = rabi_profile(spec, shape.peak_rabi).omega_j
    i_deltas = 1j * deltas
    w = 0.5j * omega
    a = -4.0 * LN2 / shape.fwhm**2
    n = spec.d + 1

    def rhs(t, y):
        Y = y.reshape(n, n)
        f = math.exp(a * t * t)
        e = np.exp(i_deltas * t)
        dY = np.empty((n, n), dtype=complex)
        dY[0] = (f * w * e.conj()) @ Y[1:]
        dY[1:] = (f * w * e)[:, None] * Y[0]
        return dY.ravel()

    sol = _solve_pulse(rhs, shape, deltas, np.eye(n, dtype=complex).ravel())
    U0 = sol.y[:, -1].reshape(n, n).copy()     # not a view that keeps every step alive
    err = float(np.max(np.abs(U0.conj().T @ U0 - np.eye(n))))
    if not err <= NORM_TOLERANCE:
        raise RuntimeError(f"pulse propagator is off unitary by {err:.3e}")
    U0.flags.writeable = False
    with _PROPAGATORS_LOCK:
        _PROPAGATORS[key] = U0
        if len(_PROPAGATORS) > PROPAGATOR_CACHE_SIZE:
            _PROPAGATORS.popitem(last=False)
    return U0
