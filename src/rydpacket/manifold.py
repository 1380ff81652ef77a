"""Level manifold of a circular-orbit electronic wave packet.

A band of d adjacent principal quantum numbers around a mean nbar forms
the computational manifold.  Level offsets j run over

    j = -d/2 + 1 ... d/2        (d even)
    j = -(d-1)/2 ... (d-1)/2    (d odd)

so that j = 0 is the mean level.  Detunings are measured from the mean
level, omega_j0 = E(nbar+j) - E(nbar) with E(n) = -1/(2 n^2) a.u.

Expanding omega_j0 in j gives the hierarchy of orbital time scales: the
classical orbit period t_kepler = 2 pi nbar^3, the quadratic rephasing
time t_revival = 4 pi nbar^4 / 3 and the cubic one t_superrevival =
pi nbar^5 (all atomic units).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .constants import AU_TIME_NS, TWO_PI

SPECTRUM_MODES = ("exact", "taylor1", "taylor2", "taylor3")
# Largest mean principal quantum number of a manifold.  Far beyond it the
# time scales (t_superrevival grows as nbar^5) overflow a float; at it a
# compiled gate still verifies in the full pulse model.
MAX_NBAR = 10**6
# Entries kept by each per-process cache of the package (the DFT matrix
# and the ideal pulse kernel per d, the complex identity per size,
# time scales per manifold, detunings per manifold and spectrum mode,
# fidelity probes per manifold, compiled gates' pi-pulse Rabi
# frequencies per manifold and FWHM, pulse propagators per shape, pulse
# support half-widths per FWHM).  Apart from the half-widths, the most
# distinct keys a benchmark workload meets in one cache is about 400
# (detunings, scenarios_cli), so none of them evicts there; an entry
# holds at most O(d^2) numbers.  Every pulse's FWHM passes through the
# half-width cache, and scenarios_cli's single pulses (about 130 per
# round, each of its own FWHM) evict there; an entry costs a division.
CACHE_SIZE = 1024


def symmetric_labels(d: int) -> np.ndarray:
    """The d labels -((d-1)//2) ... d//2 in ascending order: the level
    offsets j and the packet slots k of a d-level manifold."""
    return np.arange(-((d - 1) // 2), d // 2 + 1)


@dataclass(frozen=True)
class ManifoldSpec:
    """Defining parameters of the level manifold."""

    nbar: int
    d: int

    def __post_init__(self):
        if not self.nbar >= 4:
            raise ValueError(f"nbar must be >= 4, got {self.nbar}")
        if not self.nbar <= MAX_NBAR:
            raise ValueError(f"nbar must be <= {MAX_NBAR}, got {self.nbar}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.d >= self.nbar:
            raise ValueError(f"need d < nbar, got d={self.d}, nbar={self.nbar}")

    @property
    def j_values(self) -> np.ndarray:
        """Level offsets in ascending order, always containing 0."""
        return symmetric_labels(self.d)

    @property
    def k_values(self) -> np.ndarray:
        """Conjugate (wave-packet slot) labels; same range as j_values."""
        return self.j_values

    def slot_index(self, k: int) -> int:
        """Array position of slot label k."""
        lo = -((self.d - 1) // 2)           # k_values[0], as in symmetric_labels
        if k < lo or k > lo + self.d - 1:
            raise ValueError(f"slot {k} outside {lo}..{lo + self.d - 1}")
        return int(k - lo)

    @property
    def kepler_regime_ok(self) -> bool:
        # linear spectrum dominates while d^2 << nbar; factor 4 margin
        return self.d * self.d < self.nbar / 4


@dataclass(frozen=True)
class TimeScales:
    """Orbital time scales of a manifold, atomic units."""

    t_kepler: float
    t_revival: float
    t_superrevival: float

    @property
    def t_kepler_ns(self) -> float:
        return self.t_kepler * AU_TIME_NS

    @property
    def t_revival_ns(self) -> float:
        return self.t_revival * AU_TIME_NS

    @property
    def t_superrevival_ns(self) -> float:
        return self.t_superrevival * AU_TIME_NS


def time_scales(spec: ManifoldSpec) -> TimeScales:
    """Kepler period, revival and super-revival times for a manifold.

    t_kepler = 2 pi nbar^3, t_revival = 4 pi nbar^4 / 3,
    t_superrevival = pi nbar^5, all in atomic units.  For nbar = 180
    these are about 0.89 ns, 106 ns and 14 us.  Computed once per
    manifold (the result is frozen).
    """
    return _time_scales(spec)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _time_scales(spec: ManifoldSpec) -> TimeScales:
    n = float(spec.nbar)
    return TimeScales(
        t_kepler=TWO_PI * n**3,
        t_revival=4.0 * np.pi * n**4 / 3.0,
        t_superrevival=np.pi * n**5,
    )


def exact_detunings(spec: ManifoldSpec) -> np.ndarray:
    """omega_j0 = -1/(2(nbar+j)^2) + 1/(2 nbar^2) for each j, a.u."""
    n = float(spec.nbar)
    j = spec.j_values.astype(float)
    return -1.0 / (2.0 * (n + j) ** 2) + 1.0 / (2.0 * n**2)


def taylor_detunings(spec: ManifoldSpec, order: int) -> np.ndarray:
    """Detunings truncated after the given power of j (1, 2 or 3).

    omega_j0 = 2 pi (j / t_kepler - j^2 / t_revival + j^3 / t_superrevival - ...)
    """
    if order not in (1, 2, 3):
        raise ValueError(f"taylor order must be 1, 2 or 3, got {order}")
    ts = time_scales(spec)
    j = spec.j_values.astype(float)
    w = j / ts.t_kepler
    if order >= 2:
        w = w - j**2 / ts.t_revival
    if order >= 3:
        w = w + j**3 / ts.t_superrevival
    return TWO_PI * w


def detunings(spec: ManifoldSpec, mode: str = "exact") -> np.ndarray:
    """Level detunings from the mean level under the chosen spectrum model.

    mode 'exact' uses the closed-form Coulomb energies; 'taylorN' keeps
    the expansion through j^N.  'taylor1' makes free evolution exactly
    periodic with period t_kepler, which is what the idealized shift
    gate assumes.  The array is computed once per (manifold, mode),
    cached and read-only.
    """
    if mode not in SPECTRUM_MODES:
        raise ValueError(f"unknown spectrum mode {mode!r}, expected one of {SPECTRUM_MODES}")
    return _detunings(spec, mode)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _detunings(spec: ManifoldSpec, mode: str) -> np.ndarray:
    w = exact_detunings(spec) if mode == "exact" else taylor_detunings(spec, int(mode[-1]))
    w.flags.writeable = False
    return w
