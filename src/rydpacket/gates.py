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

Schedules carry relative timing only (Wait entries); a manifold pulse
occupies its envelope support starting at the clock position t where
it appears, centred at t + h and ending at (t + h) + h, with h the
support half-width (pulse.support_half_width).  GateSchedule.clock is the
one walk that places the pulses; duration and schedule_operator both
read it.

The primitives (Wait, ManifoldPiPulse, StoragePulse) are frozen
values, so a schedule may hold one object many times.  A compiled
schedule repeats a few waits and pulses (a d = 16 Haar gate: 480 pi
pulses of 30 kinds, 600 waits of 132 durations), and the module keeps
one object per distinct value where it builds them: the compiler per
wait duration and per (slot, target) pulse within one compile, and
schedule_from_json per wait and manifold pulse within one document,
keyed so that 0, 0.0 and -0.0 stay apart (each is written as it
stands).  Storage pulses carry a factor's angles and rarely repeat, so
each is its own object.  schedule_to_json renders each distinct object
once per call.  Sharing changes no byte of the JSON and no bit of any
operator; it saves the building, checking, writing and freeing of the
repeats.

schedule_factors lists a schedule as factors in schedule order, each
with the rows it acts on, in one layout of the slow amplitudes,
(b_g, b_energy, b_e): a manifold pulse is one (d+1) x (d+1) on g and
the levels or on the levels and e, a run of storage pulses one 2 x 2
on g and e.  Each row set is one strided view of an operator or a
state, so a factor costs one small matrix product (np.dot: the zgemm
or zgemv that matmul calls, with less dispatch per call).
schedule_operator is the (d+2) x (d+2) product of the factors in that
layout, process_fidelity reads its level block M[1:-1, 1:-1], and
run_program applies the factors to one state.  The manifold pulses of
a schedule share one shape and are resonant, so in both pulse models
each is one cached kernel (the shape's full-model propagator, or the
ideal storage <-> core-slot swap) conjugated by its pulse frame, and
schedule_factors builds all the frames in one array operation.

run_program is the one executor for timed programs: a list of waits,
single pulses and gate schedules run in order on a state's clock,
optionally sampled into one trace of evolution.trace_rows.
Declarative configs and the scenarios lower onto it.

A two-level factor touches two rows, so decompose_unitary and
compose_ops update a matrix by one 2 x 2 BLAS product on the strided
view of those two rows, never by an embedded d x d product (O(d^3)) or
a fancy-index gather.  The product stays a BLAS call: elementwise numpy
and Python-scalar forms round differently from zgemm, and the frozen
schedules depend on the factors' bits.  For the same reason the
batched zyz_angles keeps scalar abs for its moduli, and a Givens
rotation, built from Python scalars, rounds as numpy's complex
division does.

Values are checked where they enter: the public constructors of
TwoLevelOp (a unitary 2 x 2 within UNITARITY_TOL on two distinct slots)
and of the schedule primitives (finite numbers, a target 'g' or 'e'),
schedule_from_json, and the target U of decompose_unitary,
compile_unitary and process_fidelity (unitary within UNITARITY_TOL).
Factors this module builds from checked input are not checked again
(TwoLevelOp._checked): a Givens rotation is normalised by hypot, its
inverse is its conjugate transpose, a phase pair is diag(e^{i phi}),
so each is unitary to a few ulp, and a product merge_same_pair fuses
is off by at most its factors' errors plus rounding.  Re-checking them
could never fail once U has passed; the tests hold every factor of
compiled Haar and two-level targets, d = 2..16, within 1e-12.

The default gate pulse FWHM is 0.25 ln2 t_kepler / d, half the
bandwidth-limit demonstration value: transfer to slots adjacent to the
addressed one falls quadratically with pulse length, and the shorter
pulse keeps the per-pulse neighbor loss near 1 percent, which is what
lets a compiled fragment stay above 0.9 process fidelity at nbar = 180
in the full pulse model (which couples storage to the d levels only).
"""

import cmath
import functools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import energy_to_packet_matrix
from .constants import AU_TIME_NS, LN2, is_finite_number
from .manifold import CACHE_SIZE, ManifoldSpec, detunings, time_scales
from .pulse import (
    PulseSpec,
    SimulationState,
    _propagator,
    check_input_area,
    check_input_fwhm,
    integrate_pulse,
    kernel_orientations,
    pi_pulse_peak_rabi,
    support_half_width,
)
from .evolution import TraceRecord, shift_matrix, trace_rows

UNITARITY_TOL = 1e-9
IDENTITY_TOL = 1e-12
DEFAULT_GATE_FWHM_FACTOR = 0.25 * LN2   # times t_kepler / d


# ---------------------------------------------------------------------------
# two-level factors


def _unitary(U, d: int) -> np.ndarray:
    """U as a complex d x d array; ValueError unless it is one and is
    unitary within UNITARITY_TOL (every entry of U U^dagger - 1)."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix")
    if d == 2:
        # the entries of U U^dagger - 1 as scalars; the one below the
        # diagonal is the conjugate of the one above.  The diagonal goes
        # first: once it passes, every entry of U is about 1 in size at
        # most and the last product cannot overflow.  A NaN fails every
        # comparison.
        (a, b), (c, e) = U.tolist()
        tol = UNITARITY_TOL
        ok = (abs((a * a.conjugate() + b * b.conjugate()).real - 1.0) <= tol
              and abs((c * c.conjugate() + e * e.conjugate()).real - 1.0) <= tol
              and abs(a * c.conjugate() + b * e.conjugate()) <= tol)
    else:
        # the squared moduli of a unitary's entries sum to d: one that is
        # not finite, or large enough to overflow U U^dagger, fails
        # before the BLAS product, which would warn of it
        ok = (np.vdot(U, U).real <= 2 * d
              and np.abs(np.dot(U, U.conj().T) - _identity(d)).max() <= UNITARITY_TOL)
    if not ok:
        raise ValueError("matrix is not unitary within 1e-9")
    return U


@functools.lru_cache(maxsize=CACHE_SIZE)
def _identity(n: int) -> np.ndarray:
    """The complex n x n identity; read-only."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class TwoLevelOp:
    """A 2x2 unitary acting on slot pair (k, k2), identity elsewhere."""

    k: int
    k2: int
    u2: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.k == self.k2:
            raise ValueError("two-level op needs distinct slots")
        object.__setattr__(self, "u2", _unitary(self.u2, 2))

    @classmethod
    def _checked(cls, k: int, k2: int, u2: np.ndarray) -> "TwoLevelOp":
        """A factor built in this module from checked input (distinct
        slots, a complex 2 x 2 u2 unitary by construction): __post_init__
        does not run."""
        op = object.__new__(cls)
        op.__dict__.update(k=k, k2=k2, u2=u2)
        return op

    def embed(self, spec: ManifoldSpec) -> np.ndarray:
        U = np.eye(spec.d, dtype=complex)
        a, b = spec.slot_index(self.k), spec.slot_index(self.k2)
        U[np.ix_([a, b], [a, b])] = self.u2
        return U


def compose_ops(ops: list[TwoLevelOp], spec: ManifoldSpec) -> np.ndarray:
    """Matrix of the ops applied in list order (ops[0] acts first).

    Each op updates only its two rows of the running product, through a
    strided view of both: O(d) work per op, where multiplying by the
    embedded d x d costs O(d^3)."""
    U = np.eye(spec.d, dtype=complex)
    for op in ops:
        a, b = spec.slot_index(op.k), spec.slot_index(op.k2)
        # the view holds the rows in index order; flip u2 when a > b
        rows = U[min(a, b):max(a, b) + 1:abs(b - a)]
        rows[...] = (op.u2 if a < b else op.u2[::-1, ::-1]) @ rows
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

    Each rotation g updates its two rows as one BLAS product g @ rows on
    the strided view M[c:r+1:r-c] of both, with no gather or scatter of
    a fancy index.  It stays a matrix product because elementwise numpy
    or Python scalars round differently from zgemm, and the factors'
    bits reach every compiled schedule.
    """
    return _decompose(_unitary(U, spec.d), spec)


def _decompose(U: np.ndarray, spec: ManifoldSpec) -> list[TwoLevelOp]:
    """decompose_unitary of a U that _unitary has already checked."""
    d = spec.d
    ks = spec.k_values.tolist()
    M = U.copy()
    rotations: list[TwoLevelOp] = []   # elimination order
    for c in range(d - 1):
        for r in range(d - 1, c, -1):
            y = M.item(r, c)
            if abs(y) <= 1e-14:
                M[r, c] = 0.0
                continue
            g = _givens(M.item(c, c), y)
            rows = M[c:r + 1:r - c]
            rows[...] = g @ rows
            M[r, c] = 0.0
            rotations.append(TwoLevelOp._checked(ks[c], ks[r], g))

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
        ops.append(TwoLevelOp._checked(g.k, g.k2, g.u2.conj().T))
    return ops


def _givens(x: complex, y: complex) -> np.ndarray:
    """The rotation [[x*, y*], [-y, x]] / hypot(|x|, |y|) that takes
    (x, y) to (hypot, 0), from Python scalars, with the bits of numpy's
    complex128 / float.  numpy divides by a float nrm as
    ((re + im 0) s, (im - re 0) s) with s = 1 / nrm; the Python product
    by complex(s, -0.0) rounds the same, signs of zero included (plain
    * s flips some zero signs, and Python's / rounds differently)."""
    s = complex(1.0 / math.hypot(abs(x), abs(y)), -0.0)
    return np.array([[x.conjugate() * s, y.conjugate() * s], [-y * s, x * s]])


def _phase_pair_op(spec, i, phi_i, i2, phi_i2) -> TwoLevelOp:
    ks = spec.k_values
    u2 = np.diag([np.exp(1j * phi_i), np.exp(1j * phi_i2)]).astype(complex)
    return TwoLevelOp._checked(int(ks[i]), int(ks[i2]), u2)


def zyz_angles(u2: np.ndarray) -> tuple[float, float, float, float] | np.ndarray:
    """(alpha, beta, gamma, delta) with u2 = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta).

    Rz(b) = diag(e^{-ib/2}, e^{+ib/2}); Ry(g) the real rotation.
    u2 is one 2 x 2, which gives one tuple, or a stack (n, 2, 2), which
    gives an (n, 4) float array of the same four angles per factor, from
    one pass over the stack.  det, angle, exp and the elementwise
    products give the same bits batched as one factor at a time, so each
    row of a stack equals zyz_angles of its factor alone.  The array
    holds no Python object per factor, which would stay alive while a
    compile runs.  The moduli |su00| and |su10| stay scalar abs (libm
    hypot, for numpy and Python scalars alike): array np.abs (a SIMD
    loop) rounds the last bit differently on about a third of the
    factors of a Haar target, which would move the angles and the
    compiled schedules.  The per-factor arithmetic runs on Python
    floats, which round as numpy float64 scalars do.
    """
    u = np.asarray(u2, dtype=complex)
    alphas = 0.5 * np.angle(np.linalg.det(u))
    su = u * np.exp(-1j * alphas)[..., None, None]
    su00, su10 = su[..., 0, 0], su[..., 1, 0]
    angles = []
    for alpha, s00, s10, arg00, arg10 in zip(*(
            np.ravel(a).tolist()
            for a in (alphas, su00, su10, np.angle(su00), np.angle(su10)))):
        m00, m10 = abs(s00), abs(s10)
        gamma = 2.0 * math.atan2(m10, m00)
        if m00 > 1e-12 and m10 > 1e-12:
            s = -2.0 * arg00
            dmb = 2.0 * arg10
            beta = 0.5 * (s + dmb)
            delta = 0.5 * (s - dmb)
        elif m10 <= 1e-12:
            beta = -2.0 * arg00
            delta = 0.0
        else:
            beta = 2.0 * arg10
            delta = 0.0
        angles.append((alpha, beta, gamma, delta))
    return np.array(angles).reshape(-1, 4) if u.ndim == 3 else angles[0]


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
        if not math.isfinite(self.phase):
            raise ValueError(f"pulse phase must be finite, got {self.phase!r}")


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

    def __post_init__(self):
        # a finite sum has finite terms; starting it at 0.0 makes every
        # partial sum a float, so an int field converts as in math.isfinite
        if math.isfinite(0.0 + self.theta + self.phi + self.detuning_area
                         + self.phase_g + self.phase_e):
            return
        values = (self.theta, self.phi, self.detuning_area, self.phase_g, self.phase_e)
        if not all(map(math.isfinite, values)):
            name, v = next((f.name, v) for f, v in zip(fields(self), values)
                           if not math.isfinite(v))
            raise ValueError(f"storage pulse {name} must be finite, got {v!r}")

    def _entries(self) -> tuple[complex, complex, complex, complex]:
        """(u00, u01, u10, u11) of U, as scalars."""
        chi, th = self.detuning_area, self.theta
        g, e = cmath.exp(1j * self.phase_g), cmath.exp(1j * self.phase_e)
        eff = math.hypot(th, chi)
        if eff == 0.0:
            return g, 0j, 0j, e
        c, s = math.cos(eff / 2.0), 1j * math.sin(eff / 2.0) / eff
        off = s * th * cmath.exp(1j * self.phi)
        return (g * (c + s * chi), g * off,
                e * (s * th * cmath.exp(-1j * self.phi)), e * (c - s * chi))

    def matrix(self) -> np.ndarray:
        return np.array(self._entries(), dtype=complex).reshape(2, 2)


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

    def clock(self) -> tuple[list[float], float]:
        """The schedule's clock, starting at 0: the centre time of each
        manifold pulse in order, and the time after the last primitive.
        A Wait advances the clock by its duration; a manifold pulse is
        centred one support half-width after the clock and ends one
        half-width after its centre."""
        half = support_half_width(self.pulse_fwhm)
        centers: list[float] = []
        t = 0.0
        for p in self.primitives:
            if isinstance(p, Wait):
                t += p.duration
            elif isinstance(p, ManifoldPiPulse):
                centers.append(t + half)
                t = centers[-1] + half
        return centers, t

    def duration(self) -> float:
        return self.clock()[1]

    def manifold_pulse_count(self) -> int:
        return sum(isinstance(p, ManifoldPiPulse) for p in self.primitives)


# ---------------------------------------------------------------------------
# serialization (JSON; atomic-unit fields are authoritative)


def _json_scalar(v) -> str:
    """v as json.dumps writes it: finite floats and ints by their repr."""
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return int.__repr__(v)
    return json.dumps(v)


def schedule_to_json(schedule: GateSchedule) -> str:
    """The schedule as JSON text, laid out as json.dumps(doc, indent=2)
    lays out the document (written directly: json's indented encoder is
    pure Python).  The primitives' constructors keep their numbers finite
    and a pulse's target 'g' or 'e', so a float field of a primitive is
    written by its repr and the target as a literal; header fields, and
    a primitive's int fields, go through _json_scalar."""

    def num(v) -> str:
        return float.__repr__(v) if type(v) is float else _json_scalar(v)

    def render(p) -> str:
        if isinstance(p, Wait):
            return ('    {\n      "type": "wait",\n'
                    f'      "duration_au": {num(p.duration)},\n'
                    f'      "duration_si_ns": {num(p.duration * AU_TIME_NS)}\n    }}')
        if isinstance(p, ManifoldPiPulse):
            return ('    {\n      "type": "manifold_pi_pulse",\n'
                    f'      "slot": {_json_scalar(p.slot)},\n'
                    f'      "target": "{p.target}",\n'
                    f'      "phase": {num(p.phase)}\n    }}')
        if isinstance(p, StoragePulse):
            return ('    {\n      "type": "storage_pulse",\n'
                    f'      "theta": {num(p.theta)},\n'
                    f'      "phi": {num(p.phi)},\n'
                    f'      "detuning_area": {num(p.detuning_area)},\n'
                    f'      "phase_g": {num(p.phase_g)},\n'
                    f'      "phase_e": {num(p.phase_e)}\n    }}')
        raise TypeError(f"unknown primitive {p!r}")

    # a schedule may hold one primitive object many times: render each
    # object once (the list keeps every object, and so its id, alive)
    rendered: dict[int, str] = {}
    prims = [rendered.get(id(p)) or rendered.setdefault(id(p), render(p))
             for p in schedule.primitives]
    listing = "[\n" + ",\n".join(prims) + "\n  ]" if prims else "[]"
    return (
        "{\n"
        f'  "nbar": {_json_scalar(schedule.nbar)},\n'
        f'  "d": {_json_scalar(schedule.d)},\n'
        f'  "pulse_fwhm_au": {_json_scalar(schedule.pulse_fwhm)},\n'
        f'  "pulse_fwhm_si_ns": {_json_scalar(schedule.pulse_fwhm * AU_TIME_NS)},\n'
        f'  "peak_rabi_au": {_json_scalar(schedule.peak_rabi)},\n'
        f'  "recorded_global_phase": {_json_scalar(schedule.recorded_global_phase)},\n'
        f'  "primitives": {listing}\n'
        "}"
    )


def _json_number(obj: dict, key: str):
    v = obj[key]
    if type(v) is float and math.isfinite(v):   # what schedule_to_json writes
        return v
    if not is_finite_number(v):
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
    FWHM must pass pulse.check_input_fwhm, the peak Rabi frequency must
    be positive and pass pulse.check_input_area, every number must be
    finite, every slot on the manifold and every target 'g' or 'e'."""
    doc = json.loads(text)
    spec = ManifoldSpec(nbar=_json_int(doc, "nbar"), d=_json_int(doc, "d"))
    fwhm, rabi = _json_number(doc, "pulse_fwhm_au"), _json_number(doc, "peak_rabi_au")
    check_input_fwhm(spec, fwhm)
    if not rabi > 0:
        raise ValueError("peak_rabi_au must be positive")
    check_input_area(rabi, _pi_peak_rabi(spec, fwhm))
    prims: list = []
    # one object per distinct wait and manifold pulse of the document,
    # looked up once its fields have passed their checks; a key tells
    # 0 from 0.0 and -0.0, which are written differently
    waits: dict[tuple, Wait] = {}
    pulses: dict[tuple, ManifoldPiPulse] = {}
    for p in doc["primitives"]:
        kind = p["type"]
        if kind == "wait":
            v = _json_number(p, "duration_au")
            key = (type(v), v, math.copysign(1.0, v))
            prims.append(waits.get(key) or waits.setdefault(key, Wait(v)))
        elif kind == "manifold_pi_pulse":
            slot = _json_int(p, "slot")
            spec.slot_index(slot)
            target, phase = p["target"], _json_number(p, "phase")
            # a bad target (perhaps unhashable) is never a key: the
            # constructor rejects it before it could be stored
            key = (slot, target in ("g", "e") and target,
                   type(phase), phase, math.copysign(1.0, phase))
            prims.append(pulses.get(key)
                         or pulses.setdefault(key, ManifoldPiPulse(slot, target, phase)))
        elif kind == "storage_pulse":
            prims.append(StoragePulse(*[
                _json_number(p, key)
                for key in ("theta", "phi", "detuning_area", "phase_g", "phase_e")
            ]))
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


@functools.lru_cache(maxsize=CACHE_SIZE)
def _pi_peak_rabi(spec: ManifoldSpec, fwhm: float) -> float:
    """pi_pulse_peak_rabi(spec, fwhm), computed once per manifold and
    FWHM for compiled and parsed schedules (which meet a few FWHMs again
    and again, where single pulses of the scenarios rarely repeat one)."""
    return pi_pulse_peak_rabi(spec, fwhm)


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
        self.half = support_half_width(pulse_fwhm)
        self.t = 0.0                      # clock at end of emitted primitives
        self.prims: list = []
        # one object per distinct wait duration and manifold pulse
        self.waits: dict[float, Wait] = {}
        self.pulses: dict[tuple[int, str], ManifoldPiPulse] = {}

    def _wait(self, duration: float) -> None:
        # a duration is a float >= +0.0 (a float difference is -0.0 only
        # as -0.0 - 0.0), so equal keys are written alike
        self.prims.append(self.waits.get(duration)
                          or self.waits.setdefault(duration, Wait(duration)))

    def _pulse_at(self, center: float, slot: int, target: str) -> None:
        start = center - self.half
        if start < self.t - 1e-6 * self.step:
            raise RuntimeError("pulse scheduling went backwards")
        self._wait(max(start - self.t, 0.0))
        self.prims.append(self.pulses.get((slot, target))
                          or self.pulses.setdefault((slot, target),
                                                    ManifoldPiPulse(slot, target)))
        self.t = center + self.half

    def add_fragment(self, op: TwoLevelOp, angles: np.ndarray) -> None:
        """Emit the store / rotate / restore protocol for one factor;
        angles are zyz_angles of -op.u2, the rotation between the storages."""
        c1 = next_core_crossing(self.spec, op.k, self.t + self.half)
        self._pulse_at(c1, op.k, "g")
        c2 = next_core_crossing(self.spec, op.k2, self.t + self.half)
        self._pulse_at(c2, op.k2, "e")

        alpha, beta, gamma, delta = angles.tolist()
        if abs(delta) > 1e-14:
            self.prims.append(StoragePulse(phase_g=-delta / 2.0, phase_e=delta / 2.0))
        if abs(gamma) > 1e-14:
            self.prims.append(StoragePulse(theta=gamma, phi=math.pi / 2.0))
        if abs(alpha - beta / 2.0) > 1e-14 or abs(alpha + beta / 2.0) > 1e-14:
            self.prims.append(StoragePulse(phase_g=alpha - beta / 2.0,
                                           phase_e=alpha + beta / 2.0))

        c3 = next_core_crossing(self.spec, op.k2, self.t + self.half)
        self._pulse_at(c3, op.k2, "e")
        c4 = next_core_crossing(self.spec, op.k, self.t + self.half)
        self._pulse_at(c4, op.k, "g")

    def pad_to_kepler(self) -> None:
        """Wait until the clock is a whole number of Kepler periods."""
        span = self.spec.d * self.step
        t_end = math.ceil(self.t / span - 1e-9) * span
        if t_end > self.t:
            self._wait(t_end - self.t)
            self.t = t_end


def merge_same_pair(ops: list[TwoLevelOp]) -> list[TwoLevelOp]:
    """Fuse consecutive factors acting on the same slot pair.  A fused
    product of checked factors is not checked again."""
    out: list[TwoLevelOp] = []
    for op in ops:
        if out and {out[-1].k, out[-1].k2} == {op.k, op.k2}:
            prev = out.pop()
            u_prev = prev.u2 if (prev.k, prev.k2) == (op.k, op.k2) else _swapped(prev.u2)
            out.append(TwoLevelOp._checked(op.k, op.k2, op.u2 @ u_prev))
        else:
            out.append(op)
    return [op for op in out if not _is_identity2(op.u2)]


def _is_identity2(u2: np.ndarray) -> bool:
    """Every entry of the 2 x 2 u2 - 1 within IDENTITY_TOL."""
    (a, b), (c, e) = u2.tolist()
    return all(abs(x) <= IDENTITY_TOL for x in (a - 1.0, b, c, e - 1.0))


def _swapped(u2: np.ndarray) -> np.ndarray:
    p = np.array([[0, 1], [1, 0]], dtype=complex)
    return p @ u2 @ p


def compile_unitary(
    U: np.ndarray,
    spec: ManifoldSpec,
    pulse_fwhm: float | None = None,
) -> GateSchedule:
    """Compile a d x d unitary on the slot amplitudes to a pulse program.

    Cyclic shifts (including the identity) short-circuit to bare free
    flight.  Everything else goes through the two-level decomposition;
    consecutive factors on the same slot pair are fused first.  Each
    fragment is padded to a whole number of Kepler periods so fragments
    concatenate as plain matrix products.  The storage rotations of all
    fragments come from one zyz_angles pass over the stacked factors.
    """
    d = spec.d
    U = _unitary(U, d)

    ts = time_scales(spec)
    if pulse_fwhm is None:
        pulse_fwhm = DEFAULT_GATE_FWHM_FACTOR * ts.t_kepler / d
    else:       # the range schedule_from_json accepts
        check_input_fwhm(spec, pulse_fwhm)
    sched = GateSchedule(
        nbar=spec.nbar, d=d, pulse_fwhm=pulse_fwhm,
        peak_rabi=_pi_peak_rabi(spec, pulse_fwhm),
    )

    # SHIFT-by-n has its column-0 one in row n, so the largest entry of
    # U's column 0 names the only shift U can lie within 1e-9 of.  U is
    # compared with it whole only once each of its ones is matched by an
    # entry of U within 1e-9 (scalar checks that stop at the first miss)
    n = int(np.argmax(np.abs(U[:, 0])))
    if (all(abs(U[(j + n) % d, j] - 1.0) <= UNITARITY_TOL for j in range(d))
            and np.max(np.abs(U - shift_matrix(d, n))) <= UNITARITY_TOL):
        if n > 0:
            sched.primitives.append(Wait(duration=n * ts.t_kepler / d))
        return sched

    comp = _Compiler(spec, pulse_fwhm)
    ops = merge_same_pair(_decompose(U, spec))
    # four i factors from the pi pulses make -1: realize -u2 in storage
    angles = zyz_angles(-np.array([op.u2 for op in ops]).reshape(-1, 2, 2))
    for op, fragment_angles in zip(ops, angles):
        comp.add_fragment(op, fragment_angles)
        comp.pad_to_kepler()
    sched.primitives = comp.prims
    return sched


# ---------------------------------------------------------------------------
# simulation and process fidelity


def schedule_factors(
    schedule: GateSchedule,
    mode: str = "exact",
    pulses: str = "full",
) -> tuple[list[tuple[str, np.ndarray]], float]:
    """The schedule as a list of factors in schedule order, plus its
    final clock.

    Each factor is (rows, K): K acts on the slow amplitudes
    (b_g, b_energy, b_e), with the clock starting at 0, through the rows
    'g' (the first d + 1), 'e' (the last d + 1) or 'storage' (the first
    and the last).  Pulse centres and t_end come from schedule.clock(),
    so t_end is schedule.duration().  A Wait only advances the clock.
    A run of StoragePulses is one 2 x 2 on 'storage', their product.  A
    ManifoldPiPulse acts on its storage level and the levels.  A
    schedule's pulses are resonant, so in either pulse model a pulse
    centred at t with phase phi is one kernel conjugated by its pulse
    frame, Q^-1 K Q with Q = diag(1, e^{i phi} e^{-i w t}) (see the
    pulse module docstring), a (d+1) x (d+1) with the storage row first
    for a pulse on g and last for one on e.  K is the cached propagator
    U0 of the pulse shape (pulse.pulse_propagator) for pulses='full',
    and the instantaneous perfect swap of storage and core slot at
    t = 0 for pulses='ideal'.  Either kernel is cached in both
    orientations it acts in: U0 in the propagator's cache entry, the
    swap once per d.
    """
    if pulses not in ("full", "ideal"):
        raise ValueError(f"pulses must be 'full' or 'ideal', got {pulses!r}")
    spec = schedule.spec
    d = spec.d
    w = detunings(spec, mode)
    centers, t_end = schedule.clock()
    rows, manifold, runs = [], [], []
    for prim in schedule.primitives:
        if isinstance(prim, ManifoldPiPulse):
            rows.append(prim.target)
            manifold.append(prim)
        elif isinstance(prim, StoragePulse):
            if rows and rows[-1] == "storage":
                runs[-1] = _product2(prim._entries(), runs[-1])
            else:
                rows.append("storage")
                runs.append(prim._entries())
        elif not isinstance(prim, Wait):
            raise TypeError(f"unknown primitive {prim!r}")
    P = ()
    if manifold:
        if pulses == "ideal":
            kernels = _swap_kernels(d)
        else:       # resonant pulses: carrier detuning 0
            kernels = _propagator(spec, mode, schedule.pulse_fwhm, schedule.peak_rabi, 0.0)[1]
        on_e = np.array([p.target == "e" for p in manifold])
        # each pulse's frame vector (1, e^{i phi} e^{-i w t}) over its rows
        q = np.ones((len(manifold), d + 2), dtype=complex)
        q[:, 1:-1] = (np.exp(1j * np.array([p.phase for p in manifold]))[:, None]
                      * np.exp(np.multiply.outer(centers, -1j * w)))
        q = np.where(on_e[:, None], q[:, 1:], q[:, :-1])
        # P[i] = Q^-1 K Q for pulse i, K in its rows' orientation
        P = kernels.take(on_e.astype(int), axis=0)
        P *= q.conj()[:, :, None]
        P *= q[:, None, :]
    pulse_factors = iter(P)
    storage_factors = iter(np.array(runs, dtype=complex).reshape(-1, 2, 2))
    return [(r, next(storage_factors if r == "storage" else pulse_factors)) for r in rows], t_end


def _apply_factors(factors: list[tuple[str, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """x, an operator or a state over (b_g, b_energy, b_e), with the
    factors applied in order, in place: one np.dot per factor on the
    view of its rows."""
    views = {"g": x[:-1], "e": x[1:], "storage": x[::len(x) - 1]}
    for rows, K in factors:
        view = views[rows]
        view[...] = np.dot(K, view)
    return x


def schedule_operator(
    schedule: GateSchedule,
    mode: str = "exact",
    pulses: str = "full",
) -> tuple[np.ndarray, float]:
    """The whole schedule as one operator, plus its final clock.

    M is the (d+2) x (d+2) product of schedule_factors over the slow
    amplitudes (b_g, b_energy, b_e), with the clock starting at 0: its
    rows and columns run g, the d levels, e, so M[1:-1, 1:-1] is the
    level block.  t_end is the clock after the last primitive,
    schedule.duration().
    """
    factors, t_end = schedule_factors(schedule, mode, pulses)
    return _apply_factors(factors, _identity(schedule.d + 2).copy()), t_end


@functools.lru_cache(maxsize=CACHE_SIZE)
def _swap_kernels(d: int) -> np.ndarray:
    """kernel_orientations of the ideal pulse kernel: the instantaneous
    perfect swap of storage and core slot k = 0 (row (d - 1) // 2 of
    the DFT matrix)."""
    # s' = i c.b, b' = b + c^H (i s - c.b), with c.b the core-slot
    # amplitude of the levels b and s the storage amplitude
    c = energy_to_packet_matrix(d)[(d - 1) // 2]
    K = np.empty((d + 1, d + 1), dtype=complex)
    K[0, 0] = 0.0
    K[0, 1:] = 1j * c
    K[1:, 0] = 1j * c.conj()
    K[1:, 1:] = np.eye(d) - np.outer(c.conj(), c)
    return kernel_orientations(K)


def _product2(a, b):
    """The 2 x 2 product a b of two matrices given as entry tuples
    (u00, u01, u10, u11)."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


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
      GateSchedule  the schedule's factors (schedule_factors with the
                    given `pulses`) applied to the state in turn, the
                    schedule's clock starting at the current clock, so
                    its slot labels are the slots as they stand then;
                    the storage levels must be empty (population
                    <= 1e-12).

    With n_trace >= 2 every flight and pulse segment is sampled at
    n_trace points (evolution.trace_rows) and the segments are joined
    into one TraceRecord, a sample that two segments share kept once; a
    gate adds no samples.
    Returns the final state and the trace (None without samples).  An
    item that fails raises ProgramError with the item's index.
    """
    if n_trace < 0 or n_trace == 1:
        raise ValueError(f"n_trace must be 0 (off) or >= 2, got {n_trace}")
    state = state.copy()
    parts: list[TraceRecord] = []

    def fly(t1: float) -> None:
        if n_trace and t1 > state.t:
            parts.append(trace_rows(state.spec, np.linspace(state.t, t1, n_trace),
                                    state.b_energy, state.b_g, state.b_e, mode))
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
                factors, t_end = schedule_factors(item, mode, pulses)
                # the schedule's clock starts at 0: move into its frame and back
                phase = np.exp(-1j * detunings(state.spec, mode) * state.t)
                v = np.concatenate(([state.b_g], phase * state.b_energy, [state.b_e]))
                _apply_factors(factors, v)
                state.b_g, state.b_e = complex(v[0]), complex(v[-1])
                state.b_energy = phase.conj() * v[1:-1]
                state.t += t_end
            else:
                raise TypeError(f"unknown program item {item!r}")
        except (RuntimeError, ValueError) as e:
            raise ProgramError(i, str(e)) from e
    return state, (_concat_traces(parts) if parts else None)


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


@functools.lru_cache(maxsize=CACHE_SIZE)
def _probe_matrices(spec: ManifoldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The probes as the columns of one matrix, and their energy
    amplitudes F^H probes; both read-only."""
    probes = np.stack(probe_states(spec), axis=1)
    energy = energy_to_packet_matrix(spec.d).conj().T @ probes
    probes.flags.writeable = energy.flags.writeable = False
    return probes, energy


def process_fidelity(
    schedule: GateSchedule,
    U_target: np.ndarray,
    mode: str = "exact",
    pulses: str = "full",
) -> float:
    """Average state fidelity of the schedule against a target unitary.

    Mean of |<U psi, simulated psi>|^2 over the deterministic probe set.
    An empty schedule against the identity gives exactly 1.  A target
    that is not a d x d unitary (within 1e-9) raises ValueError.

    The probes start with empty storage, so only the level block
    M[1:-1, 1:-1] of schedule_operator's M acts.
    """
    spec = schedule.spec
    U = _unitary(U_target, spec.d)
    M, t_end = schedule_operator(schedule, mode, pulses)
    F = energy_to_packet_matrix(spec.d)
    probes, probes_energy = _probe_matrices(spec)
    b = M[1:-1, 1:-1] @ probes_energy
    out = F @ (np.exp(-1j * detunings(spec, mode) * t_end)[:, None] * b)
    fids = np.abs(((U @ probes).conj() * out).sum(0)) ** 2
    return float(fids.mean())


def random_two_level_unitary(spec: ManifoldSpec, seed: int) -> np.ndarray:
    """Random two-level-sparse test unitary: one Haar U(2) block."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(x)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    ks = spec.k_values
    a, b = rng.choice(spec.d, size=2, replace=False)
    return TwoLevelOp(k=int(ks[min(a, b)]), k2=int(ks[max(a, b)]), u2=q).embed(spec)
