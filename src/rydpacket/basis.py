"""Conjugate amplitude bases on the manifold.

Energy basis: one amplitude b_j per level offset j.  Wave-packet basis:
amplitudes bt_k of d localized packets that circulate the orbit, slot
k = 0 passing the core at integer multiples of the Kepler period.

The two sets of amplitudes are discrete Fourier transforms of each
other.  The amplitude-level convention used throughout is

    bt_k(t) = (1/sqrt(d)) sum_j b_j exp(-i omega_j0 t) exp(+i 2 pi j k / d)

evaluated here with the actual (possibly negative) integer labels j, k;
the kernel is periodic mod d so only the cyclic order matters.  At
t = 0 this reduces to a fixed unitary DFT.  For d = 2 that matrix is
the Hadamard transform.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .manifold import CACHE_SIZE, ManifoldSpec, flight_phases, symmetric_labels

NORM_SLACK = 1e-10


@dataclass(frozen=True)
class AmplitudeVector:
    """Normalized complex amplitudes tagged with their basis.

    basis is 'energy' (amplitudes over level offsets j) or 'packet'
    (amplitudes over packet slots k), both in ascending label order.
    """

    basis: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.basis not in ("energy", "packet"):
            raise ValueError(f"basis must be 'energy' or 'packet', got {self.basis!r}")
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("amplitude vector must be 1-d with at least 2 entries")
        with np.errstate(over="ignore"):    # an overflowing norm is inf, rejected below
            n = float(np.linalg.norm(v))
        if not abs(n - 1.0) <= NORM_SLACK:
            raise ValueError(f"amplitudes not normalized: |norm - 1| = {abs(n - 1.0):.3e}")

    @property
    def d(self) -> int:
        return int(self.values.size)

    def populations(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def energy_delta(spec: ManifoldSpec, j: int = 0) -> AmplitudeVector:
    """Single energy level |j>."""
    v = np.zeros(spec.d, dtype=complex)
    v[spec.slot_index(j)] = 1.0
    return AmplitudeVector("energy", v)


def packet_delta(spec: ManifoldSpec, k: int = 0) -> AmplitudeVector:
    """Single packet slot |k>: a localized orbiting wave packet."""
    v = np.zeros(spec.d, dtype=complex)
    v[spec.slot_index(k)] = 1.0
    return AmplitudeVector("packet", v)


def uniform_energy(spec: ManifoldSpec) -> AmplitudeVector:
    """Equal energy amplitudes; equals the k = 0 packet."""
    v = np.full(spec.d, 1.0 / np.sqrt(spec.d), dtype=complex)
    return AmplitudeVector("energy", v)


def uniform_packet(spec: ManifoldSpec) -> AmplitudeVector:
    """Equal packet amplitudes; equals the j = 0 energy level."""
    v = np.full(spec.d, 1.0 / np.sqrt(spec.d), dtype=complex)
    return AmplitudeVector("packet", v)


def energy_to_packet_matrix(d: int) -> np.ndarray:
    """Unitary DFT mapping energy amplitudes to packet amplitudes at t = 0.

    F[k, j] = exp(+i 2 pi j k / d) / sqrt(d) over the symmetric label
    ranges.  Rows/columns follow ascending k/j order.  The matrix is
    computed once per d, cached and read-only.
    """
    return _dft_matrix(d)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _dft_matrix(d: int) -> np.ndarray:
    labels = symmetric_labels(d)
    kk, jj = np.meshgrid(labels, labels, indexing="ij")
    F = np.exp(2j * np.pi * jj * kk / d) / np.sqrt(d)
    F.flags.writeable = False
    return F


def packet_to_energy_matrix(d: int) -> np.ndarray:
    """Inverse of energy_to_packet_matrix (its conjugate transpose)."""
    return energy_to_packet_matrix(d).conj().T


def qft_energy_to_packet(b: AmplitudeVector) -> AmplitudeVector:
    if b.basis != "energy":
        raise ValueError("expected energy-basis amplitudes")
    return AmplitudeVector("packet", energy_to_packet_matrix(b.d) @ b.values)


def iqft_packet_to_energy(b: AmplitudeVector) -> AmplitudeVector:
    if b.basis != "packet":
        raise ValueError("expected packet-basis amplitudes")
    return AmplitudeVector("energy", packet_to_energy_matrix(b.d) @ b.values)


def packet_amplitudes_at(
    b_energy: np.ndarray,
    spec: ManifoldSpec,
    t: float | np.ndarray,
    mode: str = "exact",
) -> np.ndarray:
    """Packet amplitudes of energy amplitudes b_j after free flight t.

    Applies the free-flight phases exp(-i omega_j0 t)
    (manifold.flight_phases) before the DFT, so the result is the
    packet-slot decomposition an observer at time t would see.  With
    mode='taylor1' and t = n t_slot the result is the input's packet
    amplitudes cyclically shifted by n slots.

    Broadcasts like b_energy * flight_phases(t): b_energy has shape
    (..., d) and t is a scalar or an array of times, so one state on a
    time grid (t of shape (n,)), a stack of states at one time, or one
    state per sample time (b of shape (n, d), t of shape (n,)) all work.
    """
    b = np.asarray(b_energy, dtype=complex)
    if b.shape[-1:] != (spec.d,):
        raise ValueError(f"expected {spec.d} amplitudes on the last axis, got shape {b.shape}")
    return (b * flight_phases(spec, t, mode)) @ energy_to_packet_matrix(spec.d).T
