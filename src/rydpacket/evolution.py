"""Field-free time evolution on the manifold.

Free flight is diagonal in the energy basis, so it is computed from
exact phases (manifold.flight_phases), never from an ODE.  In the packet
basis the same evolution is a circulant mixing of the d slot
amplitudes.  The kernel stored here is indexed by forward shift
distance m:

    entries[m] = (1/d) sum_j exp(-i omega_j0 t) exp(+i 2 pi j m / d)

so that bt_k(t) = sum_m entries[m] * bt_{k-m}(0), a circular
convolution.  It is the DFT of the d flight phases, computed as one
DFT-matrix product: each phase is rounded once, by itself, before the
transform.  With the linearized spectrum ('taylor1') and t = n t_slot
the kernel is exactly a delta at m = n mod d: free flight for an
integer number of slot times is the cyclic SHIFT gate.  With the exact
Coulomb spectrum the delta spreads; the leakage is the dispersion loss
that limits gate fidelity.

trace_rows builds every row of a program trace, for the flight of
gates.run_program and the pulses of pulse.integrate_pulse alike.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import energy_to_packet_matrix, packet_amplitudes_at
from .constants import AU_TIME_NS
from .manifold import ManifoldSpec, flight_phases, time_scales


@dataclass(frozen=True)
class EvolutionKernel:
    """Circulant free-flight kernel over the packet slots at one time."""

    spec: ManifoldSpec
    t: float                      # flight time, a.u.
    mode: str
    entries: np.ndarray = field(repr=False)   # entries[m], m = 0..d-1

    def as_matrix(self) -> np.ndarray:
        """Dense circulant matrix acting on packet amplitude vectors."""
        d = self.spec.d
        m = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
        return self.entries[m]


def evolution_kernel(spec: ManifoldSpec, t: float, mode: str = "exact") -> EvolutionKernel:
    """Free-flight kernel for time t under the chosen spectrum model."""
    d = spec.d
    # the DFT matrix's rows run over the labels from -((d - 1) // 2);
    # entries[m] is the row of label m mod d
    packet = energy_to_packet_matrix(d) @ flight_phases(spec, t, mode)
    return EvolutionKernel(spec=spec, t=t, mode=mode,
                           entries=np.roll(packet, -((d - 1) // 2)) / np.sqrt(d))


def shift_matrix(d: int, n: int) -> np.ndarray:
    """Matrix of the SHIFT-by-n gate on packet amplitude vectors."""
    return np.roll(np.eye(d, dtype=complex), n, axis=0)


def shift_fidelity(spec: ManifoldSpec, n: int, mode: str = "exact") -> float:
    """Overlap of real free flight with the ideal SHIFT it approximates.

    Starts from the k = 0 packet, evolves for n slot times under the
    given spectrum model, and compares with the ideally shifted packet:
    |<SHIFT bt, evolved bt>|^2 = |kernel entries[n mod d]|^2.  Equals 1
    exactly in 'taylor1' mode; under the exact spectrum the deficit is
    the accumulated dispersion loss (about 5 percent over one Kepler
    period at nbar = 180, d = 8).
    """
    kern = evolution_kernel(spec, n * time_scales(spec).t_slot, mode)
    return float(abs(kern.entries[n % spec.d]) ** 2)


def autocorrelation(b_energy: np.ndarray, spec: ManifoldSpec, t: float | np.ndarray,
                    mode: str = "exact") -> float | np.ndarray:
    """|<psi(0)|psi(t)>|^2 for free flight of energy amplitudes, a float
    at a time t or an array of t's shape at an array of times."""
    p = np.abs(np.asarray(b_energy, dtype=complex)) ** 2
    ac = np.abs(flight_phases(spec, t, mode) @ p) ** 2
    return float(ac) if np.ndim(t) == 0 else ac


@dataclass
class TraceRecord:
    """Sampled observables along a simulation, ready for CSV export.

    Always carries times and per-slot packet populations; ground/excited
    storage populations, autocorrelation and norm error are present only
    where the producing routine tracks them.
    """

    spec: ManifoldSpec
    t_au: np.ndarray
    packet_populations: np.ndarray            # shape (n_samples, d)
    autocorr: np.ndarray | None = None
    pop_g: np.ndarray | None = None
    pop_e: np.ndarray | None = None
    norm_error: np.ndarray | None = None      # |norm(t) - 1|

    def columns(self) -> dict[str, np.ndarray]:
        cols: dict[str, np.ndarray] = {
            "t_au": self.t_au,
            "t_si_ns": self.t_au * AU_TIME_NS,
        }
        if self.pop_g is not None:
            cols["pop_g"] = self.pop_g
        if self.pop_e is not None:
            cols["pop_e"] = self.pop_e
        for i, k in enumerate(self.spec.k_values):
            cols[f"pop_k={k}"] = self.packet_populations[:, i]
        if self.autocorr is not None:
            cols["autocorr"] = self.autocorr
        if self.norm_error is not None:
            cols["norm_error"] = self.norm_error
        return cols

    def to_csv(self, path) -> None:
        """One header line, then one line per sample, every value
        written as repr of a Python float."""
        cols = self.columns()
        rows = np.column_stack(list(cols.values())).tolist()
        lines = [",".join(cols)] + [",".join(map(float.__repr__, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def trace_rows(spec: ManifoldSpec, t: np.ndarray, b_energy: np.ndarray, b_g, b_e,
               mode: str = "exact") -> TraceRecord:
    """Trace rows (packet populations, pop_g, pop_e, |norm - 1|) at times t
    of the level amplitudes b_energy, one set (d,) in free flight or one
    per sample (len(t), d), and storage amplitudes b_g, b_e, each one
    value or one per sample."""
    pops = np.abs(packet_amplitudes_at(b_energy, spec, t, mode)) ** 2
    # the builtin abs keeps Python's complex abs for a scalar amplitude
    pop_g = np.full(t.shape, abs(b_g) ** 2)
    pop_e = np.full(t.shape, abs(b_e) ** 2)
    return TraceRecord(spec=spec, t_au=t, packet_populations=pops, pop_g=pop_g, pop_e=pop_e,
                       norm_error=np.abs(np.sqrt(pop_g + pop_e + pops.sum(axis=1)) - 1.0))


def revival_scan(spec: ManifoldSpec, b_energy: np.ndarray, t_grid: np.ndarray,
                 mode: str = "exact") -> TraceRecord:
    """Packet populations and autocorrelation on a time grid.

    Free flight only.  Used to locate the revival of a dispersed packet
    near t_revival, where the quadratic spectrum phases re-align.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    pops = np.abs(packet_amplitudes_at(b_energy, spec, t_grid, mode)) ** 2
    return TraceRecord(spec=spec, t_au=t_grid, packet_populations=pops,
                       autocorr=autocorrelation(b_energy, spec, t_grid, mode))


def find_autocorr_peak(trace: TraceRecord) -> tuple[float, float]:
    """Peak (t, value) of the autocorrelation, refined by a parabola.

    Quadratic interpolation over the three samples bracketing the grid
    maximum; the grid should be no coarser than t_kepler / 20 near the
    expected peak for the refinement to be meaningful.
    """
    if trace.autocorr is None:
        raise ValueError("trace carries no autocorrelation")
    ac = trace.autocorr
    i = int(np.argmax(ac))
    if i == 0 or i == len(ac) - 1:
        return float(trace.t_au[i]), float(ac[i])
    y0, y1, y2 = ac[i - 1], ac[i], ac[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(trace.t_au[i]), float(ac[i])
    # vertex of the parabola through the three bracketing samples
    delta = 0.5 * (y0 - y2) / denom
    dt = trace.t_au[i + 1] - trace.t_au[i]
    t_pk = trace.t_au[i] + delta * dt
    v_pk = y1 - 0.25 * (y0 - y2) * delta
    return float(t_pk), float(v_pk)
