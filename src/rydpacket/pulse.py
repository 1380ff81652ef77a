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
pulse shape alone.  The shape also has time-reversal symmetry: with
t_c = 0, phi = 0, real Omega_j and Delta_j and an envelope even about
t = 0, the generator A(t) of y' = A y obeys A(-t) = A(t)^T, so
U(-t, 0) = U(t, 0)^-T and, with X = U(0, -T) the propagator from the
support start to the centre, U0 = U(T, -T) = U(T, 0) U(0, -T) = X^T X,
a symmetric matrix.  pulse_propagator builds U0 with one matrix solve
over the first half of the support and caches it, so every pulse of
one shape, at any centre and phase, costs a (d+1) x (d+1) product;
integrate_pulse integrates one state through one pulse on the absolute
clock and stays the reference route.
gates.run_program drives single pulses (PulseSpec items) through
integrate_pulse and compiled schedules through the cached U0; a traced
integrate_pulse samples its dense output into evolution.trace_rows.
check_input_fwhm and check_input_area bound every pulse given as input.

Every ODE here (integrate_pulse, pulse_propagator and the detuned
two_level_oracle) is one storage <-> levels Coupling, and goes through
one stepper, solve_ivp: the Dormand-Prince 5(4) pair with Shampine's
dense output, on one step grid fixed before the first step.  The pair's
embedded error estimate accepts the grid whole, or shrinks its largest
step and the solve starts again.  The ODE is linear, so each step is a
matrix; the stepper builds the matrices of a batch of steps in a few
array operations.  The time-shift covariance above holds inside a step
too: a stage coupling at t + c h is the envelope there times the level
phases e^{-i Delta_j t} at the step start times a factor that depends on
c h alone, and a grid has a few distinct step sizes.  So a batch takes
one complex exponential per step and level, and the stage products and
the rest per distinct step size; the stage coefficients follow by
forward substitution through the Butcher tableau, and the error
estimate is the error weights applied to each step's stage values once
the states are known, with no second matrix per step.  scipy is not
needed at run time.
"""

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .basis import energy_to_packet_matrix, packet_amplitudes_at
from .constants import LN2, TWO_PI
from .evolution import trace_rows
from .manifold import CACHE_SIZE, ManifoldSpec, detunings, time_scales

TRUNCATION_SIGMAS = 4.0        # envelope support half-width, in sigma
NORM_TOLERANCE = 1e-8          # allowed norm drift per integration
# solve_ivp's relative and absolute tolerances: every step's error is
# scaled by ATOL + RTOL |y|
RTOL, ATOL = 1e-10, 1e-12
# Largest |area| of a pulse given as input (declarative pulses, schedule
# JSON), in radians: 50 Rabi cycles.  Far larger areas overflow the
# integrator or take it millions of steps.
MAX_PULSE_AREA = 100.0 * math.pi
# Range of the FWHM of a pulse given as input (declarative pulses,
# schedule JSON, compile --fwhm), in Kepler periods of the manifold.
# Pulses at either end, up to MAX_PULSE_AREA, integrate in the full
# model; far beyond it fwhm**2 underflows or overflows in the integrator.
FWHM_RANGE_KEPLER = (1e-6, 10.0)


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
        support_half_width(self.fwhm)       # ValueError unless positive and finite
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
        """Half-width of the envelope support, support_half_width(fwhm)."""
        return support_half_width(self.fwhm)

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


@functools.lru_cache(maxsize=CACHE_SIZE)
def support_half_width(fwhm: float) -> float:
    """Half-width of the envelope support of a pulse of this FWHM,
    TRUNCATION_SIGMAS sigma, as a float; ValueError unless fwhm is
    positive and finite.  Cached per FWHM: compiled and parsed schedules
    meet a few FWHMs again and again."""
    if not (math.isfinite(fwhm) and fwhm > 0):
        raise ValueError(f"pulse FWHM must be positive and finite, got {fwhm}")
    return float(TRUNCATION_SIGMAS * (fwhm / (2.0 * math.sqrt(2.0 * LN2))))


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


def rabi_profile(spec: ManifoldSpec, omega_ref: float) -> RabiProfile:
    """Rabi frequencies Omega_j = omega_ref ((nbar+j)/nbar)^(-3/2)."""
    n = float(spec.nbar)
    j = spec.j_values.astype(float)
    return RabiProfile(spec=spec, omega_j=omega_ref * ((n + j) / n) ** -1.5)


def core_rabi_dft(spec: ManifoldSpec, omega_peak: float) -> float:
    """Omega~_0 for the scaling profile; real and positive."""
    prof = rabi_profile(spec, omega_peak)
    return float(prof.omega_j.sum() / np.sqrt(spec.d))


def check_input_fwhm(spec: ManifoldSpec, fwhm: float) -> None:
    """ValueError unless fwhm (a.u.) lies within FWHM_RANGE_KEPLER
    Kepler periods of the manifold."""
    t_kepler = time_scales(spec).t_kepler
    lo, hi = FWHM_RANGE_KEPLER
    if not lo * t_kepler <= fwhm <= hi * t_kepler:
        raise ValueError(f"pulse FWHM {fwhm!r} au is outside {lo:g} .. {hi:g} t_kepler "
                         f"({lo * t_kepler!r} .. {hi * t_kepler!r} au)")


def check_input_area(peak_rabi: float, pi_peak: float) -> None:
    """ValueError unless |peak_rabi| <= (MAX_PULSE_AREA / pi) pi_peak, the
    area bound of a pulse whose pi pulse takes pi_peak.  An area in
    radians is checked as check_input_area(area, pi)."""
    if not abs(peak_rabi) <= MAX_PULSE_AREA / math.pi * pi_peak:
        raise ValueError(f"pulse area {peak_rabi / pi_peak * math.pi:.6g} rad is beyond "
                         f"+-{MAX_PULSE_AREA:.6g} (100 pi)")


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
    with integrate_pulse's solver settings (solve_ivp at RTOL and ATOL);
    a failed solve raises RuntimeError.
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
    sol = _solve_pulse(pulse, np.array([omega_tilde0]), np.array([d0]),
                       np.array([b_g0, bt0_0], dtype=complex))
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
    also returns the TraceRecord of n_trace samples across the pulse
    support (evolution.trace_rows of the amplitudes at each sample).

    Integration uses the package's Dormand-Prince 5(4) stepper
    (solve_ivp: one fixed grid whose every step passes the embedded
    error test, each step applied as a matrix) at RTOL 1e-10 and
    ATOL 1e-12, with a max step bounded by both the envelope and the
    fastest detuning phase; the trace samples its dense output, and the
    grid and the final state are the same with or without it.  A failed
    solve, or a norm drift beyond 1e-8 or NaN, raises RuntimeError.
    """
    if state.t > pulse.t_start + 1e-9 * pulse.fwhm:
        raise ValueError(
            f"clock t={state.t} already past pulse support start {pulse.t_start}"
        )
    spec = state.spec
    deltas = detunings(spec, mode) + pulse.carrier_detuning
    omega = rabi_profile(spec, pulse.peak_rabi).omega_j
    store_g = pulse.target == "g"
    y0 = np.concatenate(([state.b_g if store_g else state.b_e], state.b_energy))
    norm_in = state.norm()
    sol = _solve_pulse(pulse, omega, deltas, y0, dense_output=n_trace > 0)

    out = state.copy()
    yf = sol.y[:, -1]
    if store_g:
        out.b_g = complex(yf[0])
    else:
        out.b_e = complex(yf[0])
    out.b_energy = yf[1:]
    out.t = pulse.t_end
    drift = abs(out.norm() - norm_in)
    if not drift <= NORM_TOLERANCE:         # True for NaN too
        raise RuntimeError(f"norm drifted by {drift:.3e} during pulse integration")

    if n_trace <= 0:
        return out

    ts = np.linspace(pulse.t_start, pulse.t_end, n_trace)
    Y = sol.sol(ts)
    return out, trace_rows(spec, ts, Y[1:].T, Y[0] if store_g else state.b_g,
                           state.b_e if store_g else Y[0], mode)


def _solve_pulse(pulse: PulseSpec, omega: np.ndarray, deltas: np.ndarray, y0: np.ndarray,
                 dense_output: bool = False, t_stop: float | None = None):
    """solve_ivp from the pulse support start to t_stop (default: the
    support end) of the coupling with Rabi frequencies omega on levels
    detuned by deltas, max step bounded by the envelope and the fastest
    detuning phase; a failed solve raises RuntimeError."""
    ph = np.exp(1j * pulse.phase)
    coupling = Coupling(rate=-4.0 * LN2 / pulse.fwhm**2, center=pulse.center_time,
                        w_in=0.5j * ph * omega, w_out=0.5j * np.conj(ph) * omega,
                        deltas=deltas)
    max_step = min(pulse.fwhm / 50.0, TWO_PI / (10.0 * float(np.max(np.abs(deltas)))))
    t_stop = pulse.t_end if t_stop is None else t_stop
    sol = solve_ivp(coupling, (pulse.t_start, t_stop), y0, max_step=max_step,
                    dense_output=dense_output)
    if not sol.success:
        raise RuntimeError(f"pulse integration failed: {sol.message}")
    return sol


@dataclass(frozen=True)
class Coupling:
    """The one ODE family solve_ivp integrates: a storage amplitude y_s
    coupled to level amplitudes y_L (m of them),

        dy_s/dt = u(t) . y_L,   dy_L/dt = v(t) y_s,
        u(t) = f(t) w_in e^{-i deltas t},   v(t) = f(t) w_out e^{+i deltas t},

    with the Gaussian envelope f(t) = exp(rate (t - center)^2).
    """

    rate: float
    center: float
    w_in: np.ndarray      # levels -> storage weights, shape (m,)
    w_out: np.ndarray     # storage -> levels weights, shape (m,)
    deltas: np.ndarray    # level detunings, shape (m,)


def _couplings(cp: Coupling, t):
    """u(t) and v(t) at an array of times, each shaped t.shape + (m,)."""
    f = np.exp(cp.rate * (t - cp.center) ** 2)[..., None]
    e = np.exp(1j * cp.deltas * t[..., None])
    return f * cp.w_in * e.conj(), f * cp.w_out * e


def _derivative(cp: Coupling, t: float, y: np.ndarray) -> np.ndarray:
    """dy/dt at one time, for a state vector or matrix."""
    u, v = _couplings(cp, np.array(t))
    return np.concatenate(((u @ y[1:])[None], np.multiply.outer(v, y[0])))


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) with
# Shampine's quartic dense output (Math. Comp. 46, 135 (1986)): the
# tableau and interpolant of scipy.integrate's RK45.
# The first-same-as-last stage is the seventh row of the tableau (its
# weights are the solution weights), so a step has seven stages at
# times t + c_i h, the last two both at t + h.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1, 1])
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0, 0, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656, 0, 0],
    [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84, 0],
])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_W = np.stack([_A[6], _E])      # solution and error weights of the stages
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
# The stages' distinct time offsets (c_5 = c_6 = 1 share one) and each
# stage's index among them
_C_OFFSETS, _C_INDEX = np.unique(_C, return_inverse=True)
# Stage i's storage derivative starts from p_i = u_i . y_L, coordinate
# min(i + 1, 6) of z = (y_s, p_0, ..., p_5) (u_6 = u_5)
_KAPPA_COORD = np.minimum(np.arange(7) + 1, 6)
# The 20 nonzero entries a_ij of _A; row i of the tableau is entries
# _A_ROWS[i - 1] of them
_AI, _AJ = np.nonzero(_A)
_A_NZ = _A[_AI, _AJ]
_A_ROWS = [slice(*np.searchsorted(_AI, [i, i + 1])) for i in range(1, 7)]
# scipy RK45's step controller: its step growth (x10 at most) sets the
# grid's ramp, its factor for a failed step shrinks the grid's cap
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5        # -1 / (order of the error estimate + 1)
_BATCH = 256                    # steps per batch of step matrices
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_NOT_FINITE = "The error estimate is not finite."


def _rms(x: np.ndarray) -> float:
    """RMS norm of a complex array, summed as numpy.linalg.norm sums it."""
    x = x.ravel()
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) / x.size ** 0.5


def _initial_step(cp, t0, y0, t_bound, max_step) -> float:
    """First step size from the local derivative scale (Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.4), as scipy's select_initial_step.
    An overflowed or NaN derivative gives 0 or NaN."""
    interval = t_bound - t0
    scale = ATOL + np.abs(y0) * RTOL
    f0 = _derivative(cp, t0, y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0:
        return h0
    d2 = _rms((_derivative(cp, t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _grid(t0: float, t1: float, h0: float, cap: float) -> np.ndarray:
    """Step times from t0 to t1: a first step of h0 (at least ten ulps
    of t0), each next step ten times the last up to cap, then steps of
    cap summed in order, the last one cut at t1."""
    ts, t = [t0], t0
    h = min(max(h0, 10 * abs(math.nextafter(t0, math.inf) - t0)), cap)
    while t < t1:
        t_old, t = t, min(t + h, t1)
        ts.append(t)
        h = min((t - t_old) * _MAX_FACTOR, cap)
    return np.array(ts)


def _step_operators(cp: Coupling, t: np.ndarray, h: np.ndarray):
    """Step matrices M_k (y_k+1 = M_k y_k) of the steps (t_k, t_k + h_k),
    the error weights E_k (the error estimate of step k is E_k z_k, see
    _stage_values) and the stage parts the dense output needs.

    Every stage value and derivative is linear in the 7 coordinates
    z = (y_s, u_0 . y_L, ..., u_5 . y_L) with u_i = u(t + c_i h): the
    stages' storage values sigma = S z and storage increments
    h kappa = K z obey sigma_i = z_0 + sum_j a_ij (K z)_j and
    (K z)_i = h p_i + h^2 sum_j a_ij G_ij sigma_j, with G_ij = u_i . v_j;
    the level part of stage i's derivative is v_i sigma_i.  S and K
    follow by forward substitution over the 20 nonzero a_ij, the step
    axis last.  So M = I + T R, where z = R y and T holds the stage sums
    of the solution weights; E holds those of the error weights.

    The couplings are covariant under a time shift:
    u_i = f_i w_in e^{-i deltas t} e^{-i deltas c_i h}, f_i the envelope
    at t + c_i h, so G_ij = f_i f_j (w_in e^{-i deltas c_i h}) .
    (w_out e^{+i deltas c_j h}) depends on the step size alone.  That
    takes one exponential per step and level, and the rest per distinct
    step size (a grid has a few: the ramp, the cap and the last step).
    """
    N, m = len(h), cp.deltas.size
    sizes, size_of = np.unique(h, return_inverse=True)
    q = np.exp(-1j * cp.deltas * (sizes[:, None] * _C_OFFSETS)[..., None])[:, _C_INDEX]
    g = (cp.w_in * q) @ (cp.w_out * q.conj()).swapaxes(1, 2)        # (sizes, 7, 7)
    f = np.exp(cp.rate * (t + _C[:, None] * h - cp.center) ** 2)       # (7, N)
    # h^2 a_ij G_ij of the nonzero a_ij, (20, N)
    G = (h * h) * _A_NZ[:, None] * f[_AI] * f[_AJ] * g[:, _AI, _AJ].T[:, size_of]
    S = np.zeros((7, 7, N), dtype=complex)
    K = np.zeros((7, 7, N), dtype=complex)
    S[:, 0] = 1.0
    K[np.arange(7), _KAPPA_COORD] = h
    for i, r in enumerate(_A_ROWS, 1):
        j = _AJ[r]
        S[i] += np.dot(_A_NZ[r], K[j].reshape(len(j), -1)).reshape(7, N)
        K[i] += (G[r, None] * S[j]).sum(0)
    e = np.exp(-1j * cp.deltas * t[:, None])                          # (N, m)
    fq = f.T[..., None] * q[size_of]                                 # (N, 7, m)
    u = (cp.w_in * e)[:, None] * fq[:, :6]
    v = (cp.w_out * e.conj())[:, None] * fq.conj()
    # T[k, r]: coefficients on z of row r of step k's increment of the
    # solution (columns :7) and of the error estimate (columns 7:)
    T = np.empty((N, m + 1, 14), dtype=complex)
    T[:, 0] = np.dot(_W, K.reshape(7, -1)).reshape(14, N).T
    hWS = (h * (_W[:, :, None, None] * S)).transpose(3, 1, 0, 2).reshape(N, 7, 14)
    np.matmul(v.swapaxes(1, 2), hWS, out=T[:, 1:])
    M = np.empty((N, m + 1, m + 1), dtype=complex)
    M[:, :, 0] = T[:, :, 0]
    np.matmul(T[:, :, 1:7], u, out=M[:, :, 1:])
    M.reshape(N, -1)[:, ::m + 2] += 1.0                               # M = I + T R
    return M, T[:, :, 7:], (u, S, K, v, h)


def _stage_values(parts, y: np.ndarray) -> np.ndarray:
    """z_k = R_k y_k = (y_s, u_0 . y_L, ..., u_5 . y_L) of each step's start
    state y (N, n, c), shaped (N, 7, c)."""
    u = parts[0]
    return np.concatenate((y[:, :1], u @ y[:, 1:]), axis=1)


def _dense_coefficients(parts, z: np.ndarray) -> np.ndarray:
    """Shampine's interpolant coefficients Q (N, n, 4) of each step from
    its stage values z (N, 7, 1): y(t_k + x h) = y_k + Q p(x), p = (x, .., x^4)."""
    _, S, K, v, h = parts
    kz = np.einsum("icn,nc->ni", K, z[:, :, 0])                    # h kappa
    sigma = np.einsum("icn,nc->ni", S, z[:, :, 0])
    hv_sigma = h[:, None, None] * v * sigma[:, :, None]
    return np.concatenate((kz[:, None], hv_sigma.swapaxes(1, 2)), axis=1) @ _P


def solve_ivp(coupling: Coupling, t_span, y0, max_step, dense_output=False):
    """Integrate the coupling's ODE over t_span = (t0, t1), t1 > t0, with
    the Dormand-Prince 5(4) pair on one step grid fixed in advance.

    y0 is a state vector (m + 1,) or a matrix (m + 1, c) whose columns
    are integrated together (the identity gives the propagator).  The
    grid starts with scipy RK45's initial step for y0, grows each step
    x10 up to a cap, min(max_step, t1 - t0), then takes steps of the cap
    (see _grid).  Every step is applied as a matrix, built in batches.
    The grid is accepted whole if every step's RMS error norm (over all
    entries of y, scaled by ATOL + RTOL |y| as scipy's RK45 scales it)
    is below 1; otherwise the cap shrinks by the RK45 controller's factor
    for the worst step and the solve starts again.  A zero, NaN or too
    small step, or an error norm that is NaN or infinite, ends the run
    with success False, t = [t0] and y = y0.
    Returns a namespace with t (the grid), y (y0.shape + (len(t),)),
    nfev (6 per step taken, accepted or not, plus 2 for the initial
    step), success, message and sol: with dense_output (vector y0 only),
    Shampine's interpolant as a callable giving y at a 1-D array of times
    (shape (m + 1, len(times))), else None.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y0 = np.asarray(y0, dtype=complex)
    if dense_output and y0.ndim != 1:
        raise ValueError("dense output needs a state vector")
    h0 = _initial_step(coupling, t0, y0, t1, max_step)
    cap, nfev = min(max_step, t1 - t0), 2
    message = _TOO_SMALL_STEP
    while h0 > 0 and cap >= 10 * math.ulp(max(abs(t0), abs(t1))):     # False for NaN too
        ts = _grid(t0, t1, h0, cap)
        ys = np.empty((len(ts),) + y0.shape, dtype=complex)
        ys[0] = y0
        Qs, worst = [], 0.0
        for k in range(0, len(ts) - 1, _BATCH):
            edges = ts[k:k + _BATCH + 1]
            N = len(edges) - 1
            M, E, parts = _step_operators(coupling, edges[:-1], np.diff(edges))
            yb = ys[k:k + N + 1]
            for Mk, yk, yk1 in zip(M, yb, yb[1:]):
                np.dot(Mk, yk, out=yk1)
            Y = yb.reshape(N + 1, len(y0), -1)
            abs_Y = np.abs(Y)
            z = _stage_values(parts, Y[:-1])
            errs = ((E @ z) / (ATOL + np.maximum(abs_Y[:-1], abs_Y[1:]) * RTOL)
                    ).reshape(N, -1).view(float)
            # the largest squared error norm so far; np.maximum keeps a NaN
            worst = np.maximum(worst, np.max(np.einsum("ki,ki->k", errs, errs)))
            if dense_output:
                Qs.append(_dense_coefficients(parts, z))
        nfev += 6 * (len(ts) - 1)
        worst = math.sqrt(worst / y0.size)
        if worst < 1:
            return SimpleNamespace(
                t=ts, y=np.moveaxis(ys, 0, -1), nfev=nfev, success=True,
                message="The solver successfully reached the end of the integration interval.",
                sol=_DenseSolution(ts, ys, np.concatenate(Qs)) if dense_output else None)
        if not math.isfinite(worst):
            message = _NOT_FINITE
            break
        cap *= max(_MIN_FACTOR, _SAFETY * worst ** _ERROR_EXPONENT)
    return SimpleNamespace(t=np.array([t0]), y=y0[..., None], nfev=nfev, success=False,
                           message=message, sol=None)


class _DenseSolution:
    """Shampine's quartic interpolant on each step of the grid."""

    def __init__(self, ts, ys, Qs):
        self.ts, self.ys, self.Qs = ts, ys, Qs

    def __call__(self, t):
        t = np.asarray(t)
        # a time on a step boundary belongs to the earlier step
        k = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.Qs) - 1)
        h = self.ts[k + 1] - self.ts[k]
        p = np.cumprod(np.tile((t - self.ts[k]) / h, (4, 1)), axis=0)
        return np.einsum("knq,qk->nk", self.Qs[k], p) + self.ys[k].T


def pulse_propagator(spec: ManifoldSpec, pulse: PulseSpec, mode: str = "exact") -> np.ndarray:
    """U0, the (d+1) x (d+1) propagator over (storage, levels) of the
    pulse shape centred at t = 0 with phi = 0.

    Only the shape matters (fwhm, peak Rabi frequency, carrier
    detuning): center_time, phase and target are ignored, since the
    same U0 serves either storage level at any centre and phase (see
    the module docstring for the conjugation).  U0 = X^T X, where X is
    the propagator over the first half of the support, from -T to the
    centre 0 (time-reversal symmetry of the shape; see the module
    docstring): one solve_ivp run with integrate_pulse's settings that
    carries the identity matrix through the step matrices (its initial
    step and error norms are taken over all the matrix's entries, so its
    grid is its own, not the grid a state vector would take; up to the
    centre it is the grid a whole-support solve of the identity takes).
    U0 is rejected unless max|U0^dagger U0 - 1| <= 1e-8, and is kept in
    a bounded process-wide cache.  The returned array is read-only.
    """
    return _propagator(spec, mode, pulse.fwhm, pulse.peak_rabi, pulse.carrier_detuning)[0]


@functools.lru_cache(maxsize=CACHE_SIZE)
def _propagator(spec: ManifoldSpec, mode: str, fwhm: float, peak_rabi: float,
                carrier_detuning: float) -> tuple[np.ndarray, np.ndarray]:
    """(U0, kernel_orientations(U0)) of the pulse shape; U0 is the
    first entry of the second.

    The shape's coupling has centre 0, phase 0 (w_in = w_out), real
    detunings and a Gaussian envelope, so A(-t) = A(t)^T and the whole
    support's propagator is X^T X with X = U(0, -T): the solve stops at
    the centre.  It starts at -T, not at the peak, because then its grid
    is the whole-support grid up to the centre (a solve from the peak
    fails the error test on its first grid and runs twice)."""
    shape = PulseSpec(fwhm=fwhm, peak_rabi=peak_rabi, carrier_detuning=carrier_detuning)
    deltas = detunings(spec, mode) + shape.carrier_detuning
    omega = rabi_profile(spec, shape.peak_rabi).omega_j
    n = spec.d + 1
    X = _solve_pulse(shape, omega, deltas, np.eye(n, dtype=complex),
                     t_stop=shape.center_time).y[..., -1]
    kernels = kernel_orientations(X.T @ X)
    U0 = kernels[0]
    err = float(np.max(np.abs(U0.conj().T @ U0 - np.eye(n))))
    if not err <= NORM_TOLERANCE:
        raise RuntimeError(f"pulse propagator is off unitary by {err:.3e}")
    return U0, kernels


def kernel_orientations(K: np.ndarray) -> np.ndarray:
    """The (d+1) x (d+1) pulse kernel K over (storage, levels) and K
    over (levels, storage), its storage row and column moved last,
    stacked into one read-only (2, d+1, d+1) array."""
    kernels = np.stack((K, np.roll(K, -1, axis=(0, 1))))
    kernels.flags.writeable = False
    return kernels
