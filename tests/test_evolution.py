"""Free flight, circulant kernels and the SHIFT gate."""

import numpy as np
import pytest

from rydpacket import ManifoldSpec, shift_matrix, time_scales
from rydpacket.basis import energy_to_packet_matrix, packet_amplitudes_at, packet_to_energy_matrix
from rydpacket.manifold import SPECTRUM_MODES, detunings
from rydpacket.evolution import (
    TraceRecord,
    autocorrelation,
    evolution_kernel,
    find_autocorr_peak,
    revival_scan,
    shift_fidelity,
)

# frozen reference values, nbar = 180, d = 8, exact spectrum
ONE_STEP_WEIGHT = 0.998926173029351          # |kernel[1]|^2 at t_kepler/8
FULL_PERIOD_FIDELITY = 0.9333572219416226    # SHIFT^8 vs one Kepler orbit
ONE_PERIOD_DECAY = 0.06664277805837804       # 1 - autocorr(t_kepler), k=0 packet
REVIVAL_PEAK_T = 1.0077868180023266          # units of t_revival
REVIVAL_PEAK_VALUE = 0.8445870274884678


def _spec():
    return ManifoldSpec(nbar=180, d=8)


def _core_packet(spec):
    return packet_to_energy_matrix(spec.d)[:, spec.slot_index(0)]


def _random_energy(seed, d):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("t_frac", [0.0, 1.0 / 8.0, 0.3, 2.7])
def test_kernel_matches_direct_propagation(t_frac):
    spec = _spec()
    ts = time_scales(spec)
    t = t_frac * ts.t_kepler
    b = _random_energy(42, spec.d)
    F = energy_to_packet_matrix(spec.d)
    direct = packet_amplitudes_at(b, spec, t)
    kern = evolution_kernel(spec, t)
    np.testing.assert_allclose(kern.as_matrix() @ (F @ b), direct, atol=1e-12)


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
def test_kernel_matches_direct_flight_to_rounding(mode):
    # the kernel is the DFT of the flight phases, each rounded by itself:
    # it once added a phase of thousands of radians to 2 pi j m / d inside
    # one exp, and missed the direct flight by up to 3.2e-13
    rng = np.random.default_rng(29)
    for d in range(2, 17):
        spec = ManifoldSpec(nbar=180, d=d)
        ts = time_scales(spec)
        F = energy_to_packet_matrix(d)
        for t in [0.0, 3.0 * ts.t_revival, *rng.uniform(0.0, 3.0 * ts.t_revival, 24)]:
            b = _random_energy(int(rng.integers(1 << 30)), d)
            direct = packet_amplitudes_at(b, spec, t, mode)
            kern = evolution_kernel(spec, t, mode)
            assert np.max(np.abs(kern.as_matrix() @ (F @ b) - direct)) <= 1e-14


def test_as_matrix_is_circulant_and_applies():
    spec = _spec()
    ts = time_scales(spec)
    kern = evolution_kernel(spec, 0.4 * ts.t_kepler)
    M = kern.as_matrix()
    d = spec.d
    for i in range(d):
        for j in range(d):
            assert M[i, j] == kern.entries[(i - j) % d]
    # bt_k(t) = sum_m entries[m] bt_{k-m}(0): a circular convolution
    bt = energy_to_packet_matrix(d) @ _random_energy(7, d)
    conv = sum(kern.entries[m] * np.roll(bt, m) for m in range(d))
    np.testing.assert_allclose(M @ bt, conv, atol=1e-13)
    # unitary: free flight conserves probability
    np.testing.assert_allclose(M @ M.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("n", range(9))
def test_taylor1_integer_steps_are_exact_shifts(n):
    spec = _spec()
    ts = time_scales(spec)
    kern = evolution_kernel(spec, n * ts.t_kepler / spec.d, mode="taylor1")
    expect = np.zeros(spec.d)
    expect[n % spec.d] = 1.0
    np.testing.assert_allclose(np.abs(kern.entries), expect, atol=1e-12)
    bt = energy_to_packet_matrix(spec.d) @ _random_energy(3, spec.d)
    np.testing.assert_allclose(kern.as_matrix() @ bt, np.roll(bt, n), atol=1e-12)


def test_one_step_weight_frozen():
    spec = _spec()
    ts = time_scales(spec)
    kern = evolution_kernel(spec, ts.t_kepler / spec.d)
    w1 = abs(kern.entries[1]) ** 2
    assert w1 == pytest.approx(ONE_STEP_WEIGHT, rel=1e-12)
    assert shift_fidelity(spec, 1) == pytest.approx(w1, rel=1e-12)


def test_full_period_fidelity_frozen():
    spec = _spec()
    assert shift_fidelity(spec, 8) == pytest.approx(FULL_PERIOD_FIDELITY, rel=1e-12)
    assert shift_fidelity(spec, 8, mode="taylor1") == pytest.approx(1.0, abs=1e-12)


def test_shift_gate_and_matrix_agree():
    d = 8
    bt = energy_to_packet_matrix(d) @ _random_energy(9, d)
    for n in (-3, 0, 1, 5, 11):
        np.testing.assert_allclose(shift_matrix(d, n) @ bt, np.roll(bt, n), atol=0)
    np.testing.assert_allclose(
        np.linalg.matrix_power(shift_matrix(d, 1), 5), shift_matrix(d, 5), atol=0)
    np.testing.assert_allclose(shift_matrix(d, d), np.eye(d), atol=0)


def test_autocorrelation_frozen_decay():
    spec = _spec()
    ts = time_scales(spec)
    b = _core_packet(spec)
    assert autocorrelation(b, spec, 0.0) == pytest.approx(1.0, abs=1e-14)
    decay = 1.0 - autocorrelation(b, spec, ts.t_kepler)
    assert decay == pytest.approx(ONE_PERIOD_DECAY, rel=1e-12)
    # harmonic spectrum has no dispersion at all
    assert autocorrelation(b, spec, ts.t_kepler, mode="taylor1") == pytest.approx(
        1.0, abs=1e-10)


def test_revival_peak_frozen():
    # same grid the revival_recovery scenario uses (160 samples per orbit)
    spec = _spec()
    ts = time_scales(spec)
    b = _core_packet(spec)
    t0, t1 = 0.98 * ts.t_revival, 1.02 * ts.t_revival
    n = int(round((t1 - t0) / ts.t_kepler * 160)) + 1
    trace = revival_scan(spec, b, np.linspace(t0, t1, n))
    t_pk, v_pk = find_autocorr_peak(trace)
    assert t_pk / ts.t_revival == pytest.approx(REVIVAL_PEAK_T, rel=1e-12)
    assert v_pk == pytest.approx(REVIVAL_PEAK_VALUE, rel=1e-12)


def _shift_fidelity_oracle(spec, n, mode):
    # the circulant and shift-matrix overlap shift_fidelity once computed
    kern = evolution_kernel(spec, n * time_scales(spec).t_slot, mode)
    bt0 = np.zeros(spec.d, dtype=complex)
    bt0[spec.slot_index(0)] = 1.0
    evolved = kern.as_matrix() @ bt0
    ideal = shift_matrix(spec.d, n) @ bt0
    return float(abs(np.vdot(ideal, evolved)) ** 2)


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
@pytest.mark.parametrize("d", range(2, 9))
def test_shift_fidelity_is_the_circulant_overlap_bit_for_bit(d, mode):
    spec = ManifoldSpec(nbar=180, d=d)
    for n in range(2 * d + 1):
        assert shift_fidelity(spec, n, mode) == _shift_fidelity_oracle(spec, n, mode)


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
@pytest.mark.parametrize("d", [2, 5, 8])
def test_revival_scan_autocorrelation_is_bit_equal_to_outer_product(d, mode):
    # the formula revival_scan carried before it called autocorrelation
    spec = ManifoldSpec(nbar=180, d=d)
    b = _random_energy(d, d)
    ts = time_scales(spec)
    grid = np.linspace(0.9 * ts.t_revival, 1.1 * ts.t_revival, 97)
    want = np.abs(np.exp(-1j * np.outer(grid, detunings(spec, mode))) @ np.abs(b) ** 2) ** 2
    trace = revival_scan(spec, b, grid, mode)
    np.testing.assert_array_equal(trace.autocorr, want)
    np.testing.assert_array_equal(autocorrelation(b, spec, grid, mode), want)


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
@pytest.mark.parametrize("nbar, d", [(20, 3), (180, 8), (1000, 16)])
def test_array_autocorrelation_matches_scalar_calls(nbar, d, mode):
    # one dot product per time against one matrix-vector product: the
    # sums round differently, by a few ulp of values in [0, 1]
    spec = ManifoldSpec(nbar=nbar, d=d)
    b = _random_energy(nbar + d, d)
    t = np.random.default_rng(d).uniform(0.0, 3.0 * time_scales(spec).t_revival, (4, 16))
    got = autocorrelation(b, spec, t, mode)
    assert got.shape == t.shape
    scalars = [autocorrelation(b, spec, float(x), mode) for x in t.ravel()]
    assert all(type(x) is float for x in scalars)
    np.testing.assert_allclose(got.ravel(), scalars, rtol=0, atol=8 * np.finfo(float).eps)


def test_find_autocorr_peak_parabola_exact():
    spec = _spec()
    t = np.linspace(0.0, 10.0, 21)
    ac = 0.9 - 0.01 * (t - 5.13) ** 2
    trace = TraceRecord(spec=spec, t_au=t,
                        packet_populations=np.zeros((t.size, spec.d)),
                        autocorr=ac)
    t_pk, v_pk = find_autocorr_peak(trace)
    assert t_pk == pytest.approx(5.13, abs=1e-12)
    assert v_pk == pytest.approx(0.9, abs=1e-12)


def test_find_autocorr_peak_requires_autocorr():
    spec = _spec()
    trace = TraceRecord(spec=spec, t_au=np.zeros(3),
                        packet_populations=np.zeros((3, spec.d)))
    with pytest.raises(ValueError):
        find_autocorr_peak(trace)


def test_trace_csv_roundtrip(tmp_path):
    spec = _spec()
    ts = time_scales(spec)
    b = _core_packet(spec)
    grid = np.linspace(0.0, ts.t_kepler, 33)
    trace = revival_scan(spec, b, grid)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["t_au", "t_si_ns"]
    assert "pop_k=0" in header and "pop_k=-3" in header and "autocorr" in header
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (33, len(header))
    np.testing.assert_array_equal(data[:, 0], grid)
    col = header.index("autocorr")
    np.testing.assert_array_equal(data[:, col], trace.autocorr)


def _csv_oracle(trace, path):
    """The per-value CSV writer TraceRecord.to_csv replaced, kept as the oracle."""
    cols = trace.columns()
    data = np.column_stack(list(cols.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


_CSV_SPECIALS = np.array([-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, 0.1, -2.5, 1.0])


@pytest.mark.parametrize("case", ["random", "specials", "full", "empty"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_csv_matches_per_value_writer(tmp_path, case, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    spec = ManifoldSpec(nbar=180, d=d)
    n = {"random": 240, "specials": 17, "full": 31, "empty": 0}[case]
    if case == "specials":
        def column(*shape):
            return rng.choice(_CSV_SPECIALS, size=shape)
    else:
        def column(*shape):
            return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    trace = TraceRecord(spec=spec, t_au=column(n), packet_populations=column(n, d))
    if case in ("specials", "full"):
        trace.autocorr, trace.pop_g, trace.pop_e, trace.norm_error = (column(n) for _ in range(4))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace.to_csv(got)
    _csv_oracle(trace, want)
    assert got.read_bytes() == want.read_bytes()
    if case == "specials":
        text = got.read_text()
        for v in ("-0.0", "5e-324", "1e+16", "1e-05", "1.7976931348623157e+308"):
            assert v in text
