"""Gate compilation on the packet-slot qudit.

Any d x d unitary on the slot amplitudes factors into at most
d(d-1)/2 two-level rotations plus diagonal phases (Givens elimination).
Each two-level factor is executed physically with a fixed protocol:

    wait until slot k crosses the core, pi-pulse it into ground storage;
    wait until slot k' crosses, pi-pulse it into the auxiliary storage;
    rotate the two stored amplitudes (resonant storage pulses + phases);
    pi-pulse k' back, then k back, each at a core crossing;
    pad with free flight to a whole number of Kepler periods.

Slot addressing is purely temporal: the slot that started the schedule
with label k crosses the core at clock times t = (-k mod d) t_k / d
modulo t_kepler (linearized spectrum), so the compiler only chooses
pulse center times.  Each storage pi pulse contributes a factor i to
the transferred amplitude; four of them make -1, which the compiler
absorbs by realizing -u2 between the storages.

Schedules carry relative timing only (Wait entries); a pulse occupies
the support [t, t + 8 sigma] starting at the clock position where it
appears, centered at t + 4 sigma.

schedule_operator folds a whole schedule into one (d+2) x (d+2)
operator over (g, e, levels), and run_program and process_fidelity
apply it to one state or to the stacked probe set.  run_program is the
one executor for timed programs: a list of waits, single pulses and
gate schedules run in order on a state's clock, optionally sampled
into one trace.  Declarative configs and the scenarios lower onto it.
All manifold pulses of a schedule share one shape, so in the full
model verifying a gate costs one matrix solve per distinct pulse shape
(cached across schedules), not one per pulse per probe.

The default gate pulse FWHM is 0.25 ln2 t_kepler / d, half the
bandwidth-limit demonstration value: transfer to slots adjacent to the
addressed one falls quadratically with pulse length, and the shorter
pulse keeps the per-pulse neighbor loss near 1 percent, which is what
lets a compiled fragment stay above 0.9 process fidelity at nbar = 180.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import energy_to_packet_matrix, packet_amplitudes_at
from .constants import AU_TIME_NS, LN2
from .manifold import ManifoldSpec, detunings, time_scales
from .pulse import (
    TRUNCATION_SIGMAS,
    PulseSpec,
    SimulationState,
    integrate_pulse,
    pi_pulse_peak_rabi,
    pulse_propagator,
)
from .evolution import TraceRecord, shift_matrix

UNITARITY_TOL = 1e-9
IDENTITY_TOL = 1e-12
DEFAULT_GATE_FWHM_FACTOR = 0.25 * LN2   # times t_kepler / d


# ---------------------------------------------------------------------------
# two-level factors


@dataclass(frozen=True)
class TwoLevelOp:
    """A 2x2 unitary acting on slot pair (k, k2), identity elsewhere."""

    k: int
    k2: int
    u2: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.k == self.k2:
            raise ValueError("two-level op needs distinct slots")
        u = np.asarray(self.u2, dtype=complex)
        object.__setattr__(self, "u2", u)
        if u.shape != (2, 2):
            raise ValueError("u2 must be 2x2")
        if not np.max(np.abs(u @ u.conj().T - np.eye(2))) <= UNITARITY_TOL:
            raise ValueError("u2 not unitary")

    def embed(self, spec: ManifoldSpec) -> np.ndarray:
        U = np.eye(spec.d, dtype=complex)
        a, b = spec.slot_index(self.k), spec.slot_index(self.k2)
        U[np.ix_([a, b], [a, b])] = self.u2
        return U


def compose_ops(ops: list[TwoLevelOp], spec: ManifoldSpec) -> np.ndarray:
    """Matrix of the ops applied in list order (ops[0] acts first)."""
    U = np.eye(spec.d, dtype=complex)
    for op in ops:
        U = op.embed(spec) @ U
    return U


def decompose_unitary(U: np.ndarray, spec: ManifoldSpec) -> list[TwoLevelOp]:
    """Factor U into two-level rotations plus paired diagonal phases.

    Column-major Givens elimination: for each column, sub-diagonal
    entries are rotated into the diagonal from the bottom up with
    numerically stable complex rotations (entries below ~1e-14 of the
    column scale are skipped rather than rotated degenerately).  The
    unitary diagonal that remains is emitted as two-level phase ops on
    slot pairs.  Result: U equals the ops applied in list order, to
    machine precision, with at most d(d-1)/2 + ceil(d/2) factors.
    """
    d = spec.d
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix")
    if not np.max(np.abs(U @ U.conj().T - np.eye(d))) <= UNITARITY_TOL:
        raise ValueError("matrix is not unitary within 1e-9")

    ks = spec.k_values
    M = U.copy()
    rotations: list[TwoLevelOp] = []   # elimination order
    for c in range(d - 1):
        for r in range(d - 1, c, -1):
            y = M[r, c]
            if abs(y) <= 1e-14:
                M[r, c] = 0.0
                continue
            x = M[c, c]
            nrm = math.hypot(abs(x), abs(y))
            g = np.array(
                [[np.conj(x) / nrm, np.conj(y) / nrm], [-y / nrm, x / nrm]],
                dtype=complex,
            )
            M[[c, r], :] = g @ M[[c, r], :]
            M[r, c] = 0.0
            rotations.append(TwoLevelOp(k=int(ks[c]), k2=int(ks[r]), u2=g))

    # pair up the residual diagonal phases; pairing nonzero phases with
    # each other keeps a two-level-sparse input down to a single factor
    ops: list[TwoLevelOp] = []
    diag = np.angle(np.diag(M))
    hot = [i for i in range(d) if abs(diag[i]) > 1e-12]
    for a, b in zip(hot[0::2], hot[1::2]):
        ops.append(_phase_pair_op(spec, a, diag[a], b, diag[b]))
    if len(hot) % 2 == 1:
        # a lone phase rides along with the last rotation touching its
        # slot, so it fuses into that rotation's pulse fragment
        i = hot[-1]
        partner = None
        for g in reversed(rotations):
            pa, pb = spec.slot_index(g.k), spec.slot_index(g.k2)
            if i in (pa, pb):
                partner = pb if i == pa else pa
                break
        if partner is None:
            partner = i - 1 if i == d - 1 else i + 1
        phis = {i: diag[i],
                partner: 0.0 if partner in hot[:-1] else diag[partner]}
        lo, hi = min(i, partner), max(i, partner)
        ops.append(_phase_pair_op(spec, lo, phis[lo], hi, phis[hi]))

    # U = G1' G2' ... GN' D, so D acts first, then the inverses in reverse
    for g in reversed(rotations):
        ops.append(TwoLevelOp(k=g.k, k2=g.k2, u2=g.u2.conj().T))
    return ops


def _phase_pair_op(spec, i, phi_i, i2, phi_i2) -> TwoLevelOp:
    ks = spec.k_values
    u2 = np.diag([np.exp(1j * phi_i), np.exp(1j * phi_i2)]).astype(complex)
    return TwoLevelOp(k=int(ks[i]), k2=int(ks[i2]), u2=u2)


def zyz_angles(u2: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with u2 = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta).

    Rz(b) = diag(e^{-ib/2}, e^{+ib/2}); Ry(g) the real rotation.
    """
    u = np.asarray(u2, dtype=complex)
    alpha = 0.5 * np.angle(np.linalg.det(u))
    su = u * np.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-12 and abs(su[1, 0]) > 1e-12:
        s = -2.0 * np.angle(su[0, 0])
        dmb = 2.0 * np.angle(su[1, 0])
        beta = 0.5 * (s + dmb)
        delta = 0.5 * (s - dmb)
    elif abs(su[1, 0]) <= 1e-12:
        beta = -2.0 * np.angle(su[0, 0])
        delta = 0.0
    else:
        beta = 2.0 * np.angle(su[1, 0])
        delta = 0.0
    return float(alpha), float(beta), float(gamma), float(delta)


# ---------------------------------------------------------------------------
# schedule primitives


@dataclass(frozen=True)
class Wait:
    """Free flight for a fixed duration (a.u.)."""

    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"wait duration must be finite and >= 0, got {self.duration!r}")


@dataclass(frozen=True)
class ManifoldPiPulse:
    """Calibrated pi pulse swapping the core slot with a storage level.

    slot records which schedule-start slot label the pulse addresses;
    the physical selection is purely the pulse timing.
    """

    slot: int
    target: str          # 'g' or 'e'
    phase: float = 0.0

    def __post_init__(self):
        if self.target not in ("g", "e"):
            raise ValueError(f"pulse target must be 'g' or 'e', got {self.target!r}")


@dataclass(frozen=True)
class StoragePulse:
    """Instantaneous unitary on the two storage amplitudes (g, e).

    Resonant rotation by area theta about the equatorial axis set by
    phi, optionally tilted by a detuning-area term, followed by bare
    phases on each storage level (theta = 0 gives a pure phase pulse):

        U = diag(e^{i phase_g}, e^{i phase_e})
            . exp(i/2 [[chi, theta e^{i phi}], [theta e^{-i phi}, -chi]])

    with chi = detuning_area.  Storage levels are dispersion-free, so
    the idealized zero-duration action is exact for the model.
    """

    theta: float = 0.0
    phi: float = 0.0
    detuning_area: float = 0.0
    phase_g: float = 0.0
    phase_e: float = 0.0

    def matrix(self) -> np.ndarray:
        chi, th = self.detuning_area, self.theta
        eff = math.hypot(th, chi)
        if eff == 0.0:
            u = np.eye(2, dtype=complex)
        else:
            m = np.array(
                [[chi, th * np.exp(1j * self.phi)], [th * np.exp(-1j * self.phi), -chi]],
                dtype=complex,
            )
            u = math.cos(eff / 2.0) * np.eye(2) + 1j * math.sin(eff / 2.0) * m / eff
        return np.diag([np.exp(1j * self.phase_g), np.exp(1j * self.phase_e)]) @ u


Primitive = Wait | ManifoldPiPulse | StoragePulse


@dataclass
class GateSchedule:
    """Timed pulse program implementing a unitary on the slot qudit."""

    nbar: int
    d: int
    pulse_fwhm: float            # manifold pi-pulse FWHM, a.u.
    peak_rabi: float             # calibrated pi-pulse peak Rabi frequency, a.u.
    primitives: list = field(default_factory=list)
    recorded_global_phase: float = 0.0

    @property
    def spec(self) -> ManifoldSpec:
        return ManifoldSpec(nbar=self.nbar, d=self.d)

    def duration(self) -> float:
        sigma8 = 8.0 * PulseSpec(fwhm=self.pulse_fwhm, peak_rabi=1.0).sigma
        t = 0.0
        for p in self.primitives:
            if isinstance(p, Wait):
                t += p.duration
            elif isinstance(p, ManifoldPiPulse):
                t += sigma8
        return t

    def manifold_pulse_count(self) -> int:
        return sum(isinstance(p, ManifoldPiPulse) for p in self.primitives)


# ---------------------------------------------------------------------------
# serialization (JSON; atomic-unit fields are authoritative)


def schedule_to_json(schedule: GateSchedule) -> str:
    prims = []
    for p in schedule.primitives:
        if isinstance(p, Wait):
            prims.append({
                "type": "wait",
                "duration_au": p.duration,
                "duration_si_ns": p.duration * AU_TIME_NS,
            })
        elif isinstance(p, ManifoldPiPulse):
            prims.append({
                "type": "manifold_pi_pulse",
                "slot": p.slot,
                "target": p.target,
                "phase": p.phase,
            })
        elif isinstance(p, StoragePulse):
            prims.append({
                "type": "storage_pulse",
                "theta": p.theta,
                "phi": p.phi,
                "detuning_area": p.detuning_area,
                "phase_g": p.phase_g,
                "phase_e": p.phase_e,
            })
        else:
            raise TypeError(f"unknown primitive {p!r}")
    doc = {
        "nbar": schedule.nbar,
        "d": schedule.d,
        "pulse_fwhm_au": schedule.pulse_fwhm,
        "pulse_fwhm_si_ns": schedule.pulse_fwhm * AU_TIME_NS,
        "peak_rabi_au": schedule.peak_rabi,
        "recorded_global_phase": schedule.recorded_global_phase,
        "primitives": prims,
    }
    return json.dumps(doc, indent=2)


def _json_number(obj: dict, key: str):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"{key} must be a finite number, got {v!r}")
    return v


def _json_int(obj: dict, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return v


def schedule_from_json(text: str) -> GateSchedule:
    """Parse schedule JSON.  Malformed fields raise ValueError, KeyError
    or TypeError: nbar and d must make a valid ManifoldSpec, the pulse
    FWHM and peak Rabi frequency must be positive, every number finite,
    every slot on the manifold and every target 'g' or 'e'."""
    doc = json.loads(text)
    spec = ManifoldSpec(nbar=_json_int(doc, "nbar"), d=_json_int(doc, "d"))
    fwhm, rabi = _json_number(doc, "pulse_fwhm_au"), _json_number(doc, "peak_rabi_au")
    if not (fwhm > 0 and rabi > 0):
        raise ValueError("pulse_fwhm_au and peak_rabi_au must be positive")
    prims: list = []
    for p in doc["primitives"]:
        kind = p["type"]
        if kind == "wait":
            prims.append(Wait(duration=_json_number(p, "duration_au")))
        elif kind == "manifold_pi_pulse":
            spec.slot_index(_json_int(p, "slot"))
            prims.append(ManifoldPiPulse(slot=p["slot"], target=p["target"],
                                         phase=_json_number(p, "phase")))
        elif kind == "storage_pulse":
            prims.append(StoragePulse(**{
                key: _json_number(p, key)
                for key in ("theta", "phi", "detuning_area", "phase_g", "phase_e")
            }))
        else:
            raise ValueError(f"unknown primitive type {kind!r}")
    return GateSchedule(
        nbar=spec.nbar,
        d=spec.d,
        pulse_fwhm=fwhm,
        peak_rabi=rabi,
        primitives=prims,
        recorded_global_phase=(_json_number(doc, "recorded_global_phase")
                               if "recorded_global_phase" in doc else 0.0),
    )


# ---------------------------------------------------------------------------
# compilation


def next_core_crossing(spec: ManifoldSpec, slot: int, t_min: float) -> float:
    """Earliest time >= t_min at which the slot with start label `slot`
    crosses the core: m t_kepler / d with m = -slot mod d (linearized
    spectrum), the clock starting at 0 with slot 0 at the core."""
    step = time_scales(spec).t_kepler / spec.d
    m_min = math.ceil(t_min / step - 1e-9)
    return (m_min + (-slot - m_min) % spec.d) * step


class _Compiler:
    def __init__(self, spec: ManifoldSpec, pulse_fwhm: float):
        self.spec = spec
        self.step = time_scales(spec).t_kepler / spec.d
        self.fwhm = pulse_fwhm
        self.sigma = PulseSpec(fwhm=pulse_fwhm, peak_rabi=1.0).sigma
        self.t = 0.0                      # clock at end of emitted primitives
        self.prims: list = []

    def _pulse_at(self, center: float, slot: int, target: str) -> None:
        start = center - 4.0 * self.sigma
        if start < self.t - 1e-6 * self.step:
            raise RuntimeError("pulse scheduling went backwards")
        self.prims.append(Wait(duration=max(start - self.t, 0.0)))
        self.prims.append(ManifoldPiPulse(slot=slot, target=target))
        self.t = center + 4.0 * self.sigma

    def add_fragment(self, op: TwoLevelOp) -> None:
        """Emit the store / rotate / restore protocol for one factor."""
        c1 = next_core_crossing(self.spec, op.k, self.t + 4.0 * self.sigma)
        self._pulse_at(c1, op.k, "g")
        c2 = next_core_crossing(self.spec, op.k2, self.t + 4.0 * self.sigma)
        self._pulse_at(c2, op.k2, "e")

        # four i factors from the pi pulses make -1: realize -u2 in storage
        v = -np.asarray(op.u2, dtype=complex)
        alpha, beta, gamma, delta = zyz_angles(v)
        if abs(delta) > 1e-14:
            self.prims.append(StoragePulse(phase_g=-delta / 2.0, phase_e=delta / 2.0))
        if abs(gamma) > 1e-14:
            self.prims.append(StoragePulse(theta=gamma, phi=math.pi / 2.0))
        if abs(alpha - beta / 2.0) > 1e-14 or abs(alpha + beta / 2.0) > 1e-14:
            self.prims.append(StoragePulse(phase_g=alpha - beta / 2.0,
                                           phase_e=alpha + beta / 2.0))

        c3 = next_core_crossing(self.spec, op.k2, self.t + 4.0 * self.sigma)
        self._pulse_at(c3, op.k2, "e")
        c4 = next_core_crossing(self.spec, op.k, self.t + 4.0 * self.sigma)
        self._pulse_at(c4, op.k, "g")

    def pad_to_steps(self, multiple: int) -> None:
        """Wait until the clock is a whole multiple of `multiple` steps."""
        span = multiple * self.step
        t_end = math.ceil(self.t / span - 1e-9) * span
        if t_end > self.t:
            self.prims.append(Wait(duration=t_end - self.t))
            self.t = t_end


def merge_same_pair(ops: list[TwoLevelOp]) -> list[TwoLevelOp]:
    """Fuse consecutive factors acting on the same slot pair."""
    out: list[TwoLevelOp] = []
    for op in ops:
        if out and {out[-1].k, out[-1].k2} == {op.k, op.k2}:
            prev = out.pop()
            u_prev = prev.u2 if (prev.k, prev.k2) == (op.k, op.k2) else _swapped(prev.u2)
            out.append(TwoLevelOp(k=op.k, k2=op.k2, u2=op.u2 @ u_prev))
        else:
            out.append(op)
    return [op for op in out if np.max(np.abs(op.u2 - np.eye(2))) > IDENTITY_TOL]


def _swapped(u2: np.ndarray) -> np.ndarray:
    p = np.array([[0, 1], [1, 0]], dtype=complex)
    return p @ u2 @ p


def compile_unitary(
    U: np.ndarray,
    spec: ManifoldSpec,
    pulse_fwhm: float | None = None,
    align_revival: bool = False,
) -> GateSchedule:
    """Compile a d x d unitary on the slot amplitudes to a pulse program.

    Cyclic shifts (including the identity) short-circuit to bare free
    flight.  Everything else goes through the two-level decomposition;
    consecutive factors on the same slot pair are fused first.  Each
    fragment is padded to a whole number of Kepler periods so fragments
    concatenate as plain matrix products; align_revival instead pads the
    finished schedule to a whole number of revival times, which trades
    extra flight time for re-aligned quadratic dispersion phases.
    """
    d = spec.d
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix")
    if not np.max(np.abs(U @ U.conj().T - np.eye(d))) <= UNITARITY_TOL:
        raise ValueError("matrix is not unitary within 1e-9")

    ts = time_scales(spec)
    if pulse_fwhm is None:
        pulse_fwhm = DEFAULT_GATE_FWHM_FACTOR * ts.t_kepler / d
    sched = GateSchedule(
        nbar=spec.nbar, d=d, pulse_fwhm=pulse_fwhm,
        peak_rabi=pi_pulse_peak_rabi(spec, pulse_fwhm),
    )

    for n in range(d):
        if np.max(np.abs(U - shift_matrix(d, n))) <= UNITARITY_TOL:
            if n > 0:
                sched.primitives.append(Wait(duration=n * ts.t_kepler / d))
            return sched

    comp = _Compiler(spec, pulse_fwhm)
    for op in merge_same_pair(decompose_unitary(U, spec)):
        comp.add_fragment(op)
        comp.pad_to_steps(d)
    if align_revival:
        comp.pad_to_steps(d * int(round(ts.t_revival / ts.t_kepler)))
    sched.primitives = comp.prims
    return sched


# ---------------------------------------------------------------------------
# simulation and process fidelity


def schedule_operator(
    schedule: GateSchedule,
    mode: str = "exact",
    pulses: str = "full",
) -> tuple[np.ndarray, float]:
    """The whole schedule as one operator, plus its final clock.

    M is (d+2) x (d+2) over the slow amplitudes (b_g, b_e, b_energy)
    with the clock starting at 0; t_end is the clock after the last
    primitive.  A Wait only advances the clock, a StoragePulse acts on
    rows (g, e), and a ManifoldPiPulse acts on (its storage, levels):
    pulses='full' as the conjugated cached propagator of the pulse
    shape (pulse.pulse_propagator), pulses='ideal' as the instantaneous
    perfect swap of storage and core slot at the pulse centre.
    """
    if pulses not in ("full", "ideal"):
        raise ValueError(f"pulses must be 'full' or 'ideal', got {pulses!r}")
    spec = schedule.spec
    d = spec.d
    w = detunings(spec, mode)
    shape = PulseSpec(fwhm=schedule.pulse_fwhm, peak_rabi=schedule.peak_rabi)
    deltas = w + shape.carrier_detuning
    half = TRUNCATION_SIGMAS * shape.sigma
    core_row = energy_to_packet_matrix(d)[spec.slot_index(0)]
    rows = {"g": np.r_[0, 2:d + 2], "e": np.r_[1, 2:d + 2]}   # (storage, levels) of M
    U0 = None
    M = np.eye(d + 2, dtype=complex)
    t = 0.0
    for prim in schedule.primitives:
        if isinstance(prim, Wait):
            t += prim.duration
        elif isinstance(prim, StoragePulse):
            M[:2] = prim.matrix() @ M[:2]
        elif isinstance(prim, ManifoldPiPulse):
            center = t + half
            ph = np.exp(1j * prim.phase)
            if pulses == "ideal":
                # b' = b + r^H (i ph* s - r b), s' = i ph r b, with r b the
                # core-slot amplitude at the pulse centre
                r = core_row * np.exp(-1j * w * center)
                P = np.empty((d + 1, d + 1), dtype=complex)
                P[0, 0] = 0.0
                P[0, 1:] = 1j * ph * r
                P[1:, 0] = 1j * np.conj(ph) * r.conj()
                P[1:, 1:] = np.eye(d) - np.outer(r.conj(), r)
            else:
                if U0 is None:
                    U0 = pulse_propagator(spec, shape, mode)
                q = np.concatenate(([1.0], ph * np.exp(-1j * deltas * center)))
                P = q.conj()[:, None] * U0 * q[None, :]
            M[rows[prim.target]] = P @ M[rows[prim.target]]
            t = center + half
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    return M, t


class ProgramError(ValueError):
    """An item of a timed program failed to run; index is its position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def run_program(
    state: SimulationState,
    program,
    mode: str = "exact",
    pulses: str = "full",
    n_trace: int = 0,
) -> tuple[SimulationState, TraceRecord | None]:
    """Run a timed program on a copy of state, on the state's clock.

    The items run in order:

      Wait          free flight for its duration;
      PulseSpec     free flight to max(t_start, clock), then the pulse
                    in the full model (integrate_pulse);
      GateSchedule  the schedule as one operator (schedule_operator with
                    the given `pulses`), its clock starting at the
                    current clock, so its slot labels are the slots as
                    they stand then; the storage levels must be empty
                    (population <= 1e-12).

    With n_trace >= 2 every flight and pulse segment is sampled at
    n_trace points and the segments are joined into one TraceRecord, a
    sample that two segments share kept once; a gate adds no samples.
    Returns the final state and the trace (None without samples).  An
    item that fails raises ProgramError with the item's index.
    """
    if n_trace < 0 or n_trace == 1:
        raise ValueError(f"n_trace must be 0 (off) or >= 2, got {n_trace}")
    state = state.copy()
    parts: list[TraceRecord] = []

    def fly(t1: float) -> None:
        if n_trace and t1 > state.t:
            parts.append(_flight_trace(state, t1, n_trace, mode))
        state.t = t1

    for i, item in enumerate(program):
        try:
            if isinstance(item, Wait):
                fly(state.t + item.duration)
            elif isinstance(item, PulseSpec):
                fly(max(item.t_start, state.t))
                if n_trace:
                    state, segment = integrate_pulse(state, item, mode, n_trace)
                    parts.append(segment)
                else:
                    state = integrate_pulse(state, item, mode)
            elif isinstance(item, GateSchedule):
                leak = abs(state.b_g) ** 2 + abs(state.b_e) ** 2
                if not leak <= 1e-12:
                    raise ValueError(f"{leak:.3e} of the population sits in storage "
                                     "levels; a compiled gate needs them empty")
                if item.spec != state.spec:
                    raise ValueError(f"schedule is for {item.spec}, the state for {state.spec}")
                M, t_end = schedule_operator(item, mode, pulses)
                # the schedule's clock starts at 0: move into its frame and back
                phase = np.exp(-1j * detunings(state.spec, mode) * state.t)
                v = M @ np.concatenate(([state.b_g, state.b_e], phase * state.b_energy))
                state.b_g, state.b_e = complex(v[0]), complex(v[1])
                state.b_energy = phase.conj() * v[2:]
                state.t += t_end
            else:
                raise TypeError(f"unknown program item {item!r}")
        except (RuntimeError, ValueError) as e:
            raise ProgramError(i, str(e)) from e
    return state, (_concat_traces(parts) if parts else None)


def _flight_trace(state: SimulationState, t1: float, n: int, mode: str) -> TraceRecord:
    """Free flight of state from its clock to t1, sampled at n points."""
    grid = np.linspace(state.t, t1, n)
    pops = np.abs(packet_amplitudes_at(state.b_energy, state.spec, grid, mode)) ** 2
    return TraceRecord(
        spec=state.spec,
        t_au=grid,
        packet_populations=pops,
        pop_g=np.full(n, abs(state.b_g) ** 2),
        pop_e=np.full(n, abs(state.b_e) ** 2),
        norm_error=np.full(n, abs(state.norm() - 1.0)),
    )


def _concat_traces(parts: list[TraceRecord]) -> TraceRecord:
    """Join segments in time order; the samples of a segment at or before
    the previous segment's last sample are dropped."""
    keep = [slice(None)] + [p.t_au > q.t_au[-1] for q, p in zip(parts, parts[1:])]
    columns = ("t_au", "packet_populations", "pop_g", "pop_e", "norm_error")
    return TraceRecord(spec=parts[0].spec, **{
        c: np.concatenate([getattr(p, c)[k] for p, k in zip(parts, keep)]) for c in columns})


def probe_states(spec: ManifoldSpec) -> list[np.ndarray]:
    """Deterministic fidelity probes: slot deltas + fractional shifts.

    The d slot basis states, plus d+1 states with uniform level
    populations and linear phase ramps at non-slot spacings (packets
    displaced by fractions m/(d+1) of the orbit).  Every probe has flat
    level populations, so free-flight dispersion affects the whole set
    evenly and the probe average is also sensitive to inter-slot phase
    errors.
    """
    d = spec.d
    F = energy_to_packet_matrix(d)
    probes = [np.eye(d, dtype=complex)[i] for i in range(d)]
    j = spec.j_values
    for m in range(d + 1):
        b = np.exp(-2j * np.pi * j * m / (d + 1)) / np.sqrt(d)
        probes.append(F @ b)
    return probes


def process_fidelity(
    schedule: GateSchedule,
    U_target: np.ndarray,
    mode: str = "exact",
    pulses: str = "full",
) -> float:
    """Average state fidelity of the schedule against a target unitary.

    Mean of |<U psi, simulated psi>|^2 over the deterministic probe set.
    An empty schedule against the identity gives exactly 1.
    """
    spec = schedule.spec
    U = np.asarray(U_target, dtype=complex)
    M, t_end = schedule_operator(schedule, mode, pulses)
    F = energy_to_packet_matrix(spec.d)
    probes = np.stack(probe_states(spec), axis=1)
    # probes start with empty storage, so only the level block of M acts
    b = M[2:, 2:] @ (F.conj().T @ probes)
    out = F @ (np.exp(-1j * detunings(spec, mode) * t_end)[:, None] * b)
    fids = np.abs(np.sum((U @ probes).conj() * out, axis=0)) ** 2
    return float(np.mean(fids))


def random_two_level_unitary(spec: ManifoldSpec, seed: int) -> np.ndarray:
    """Random two-level-sparse test unitary: one Haar U(2) block."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(x)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    ks = spec.k_values
    a, b = rng.choice(spec.d, size=2, replace=False)
    return TwoLevelOp(k=int(ks[min(a, b)]), k2=int(ks[max(a, b)]), u2=q).embed(spec)
