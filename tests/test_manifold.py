"""Level manifold: labels, time scales, detunings."""

import math

import numpy as np
import pytest

from rydpacket import ManifoldSpec, time_scales
from rydpacket.constants import SHOWN_DIGITS, input_repr
from rydpacket.manifold import (
    MAX_NBAR,
    SPECTRUM_MODES,
    detunings,
    exact_detunings,
    flight_phases,
    taylor_detunings,
)

NBAR = 180
D = 8


def test_spec_validation():
    with pytest.raises(ValueError):
        ManifoldSpec(nbar=3, d=2)
    with pytest.raises(ValueError):
        ManifoldSpec(nbar=180, d=1)
    with pytest.raises(ValueError):
        ManifoldSpec(nbar=8, d=8)


def test_spec_messages_show_numpy_integers_by_str():
    # a numpy integer reads as its digits, as an int does, not as np.int64(3)
    with pytest.raises(ValueError, match=r"^nbar must be >= 4, got 3$"):
        ManifoldSpec(nbar=np.int64(3), d=2)
    with pytest.raises(ValueError, match=r"^need d < nbar, got d=8, nbar=8$"):
        ManifoldSpec(nbar=np.int64(8), d=np.int32(8))
    with pytest.raises(ValueError, match=r"^slot 9 outside -3\.\.4$"):
        ManifoldSpec(nbar=NBAR, d=8).slot_index(np.int64(9))


def test_spec_message_counts_the_digits_of_an_integer_past_str_limit():
    # str() refuses an int of more than 4300 digits, which once became the
    # message; the digit count needs no str()
    with pytest.raises(ValueError, match=r"^nbar must be <= 1000000, got an integer of 5001 digits$"):
        ManifoldSpec(nbar=10**5000, d=4)
    limit = 10**SHOWN_DIGITS
    for n in (limit, limit + 1, 2 * limit, 10**400 - 1, 10**400, 2**9000, 10**4299):
        assert input_repr(n) == input_repr(-n) == f"an integer of {len(str(n))} digits"
    for n, digits in ((10**5000 - 1, 5000), (10**5000, 5001), (10**6000 + 1, 6001)):
        assert input_repr(n) == input_repr(-n) == f"an integer of {digits} digits"
    assert input_repr(limit - 1) == str(limit - 1) and input_repr(True) == "True"


def test_level_labels_even():
    spec = ManifoldSpec(nbar=NBAR, d=8)
    assert list(spec.j_values) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert list(spec.k_values) == list(spec.j_values)
    for i, k in enumerate(spec.k_values):
        assert spec.slot_index(int(k)) == i


def test_level_labels_odd():
    spec = ManifoldSpec(nbar=NBAR, d=5)
    assert list(spec.j_values) == [-2, -1, 0, 1, 2]
    assert spec.slot_index(0) == 2


@pytest.mark.parametrize("d", range(2, 10))
def test_slot_index_bounds(d):
    spec = ManifoldSpec(nbar=NBAR, d=d)
    ks = [int(k) for k in spec.k_values]
    assert [spec.slot_index(k) for k in ks] == list(range(d))
    for k in (ks[0] - 1, ks[-1] + 1):
        with pytest.raises(ValueError, match=rf"^slot {k} outside {ks[0]}\.\.{ks[-1]}$"):
            spec.slot_index(k)


def test_kepler_regime_flag():
    assert ManifoldSpec(nbar=1000, d=8).kepler_regime_ok
    assert not ManifoldSpec(nbar=NBAR, d=8).kepler_regime_ok


def test_time_scale_formulas():
    spec = ManifoldSpec(nbar=NBAR, d=D)
    ts = time_scales(spec)
    assert ts.t_kepler == pytest.approx(2.0 * math.pi * NBAR**3, rel=1e-15)
    assert ts.t_revival == pytest.approx(ts.t_kepler * 2.0 * NBAR / 3.0, rel=1e-15)
    assert ts.t_superrevival == pytest.approx(math.pi * NBAR**5, rel=1e-15)
    assert ts.t_kepler < ts.t_revival < ts.t_superrevival


def test_time_scales_si():
    ts = time_scales(ManifoldSpec(nbar=NBAR, d=D))
    assert ts.t_kepler_ns == pytest.approx(0.8863646465479067, rel=1e-12)
    assert ts.t_revival_ns == pytest.approx(106.36375758574879, rel=1e-12)
    assert ts.t_superrevival_ns == pytest.approx(14359.107274076086, rel=1e-12)


def test_exact_detunings():
    spec = ManifoldSpec(nbar=NBAR, d=D)
    w = exact_detunings(spec)
    assert w[spec.slot_index(0)] == 0.0
    j = 2
    expect = -0.5 / (NBAR + j) ** 2 + 0.5 / NBAR**2
    assert w[spec.slot_index(j)] == pytest.approx(expect, rel=1e-15)
    assert np.all(np.diff(w) > 0)


def test_taylor_orders_converge():
    spec = ManifoldSpec(nbar=NBAR, d=D)
    exact = exact_detunings(spec)
    errs = [float(np.max(np.abs(taylor_detunings(spec, order) - exact)))
            for order in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


def test_taylor1_is_harmonic():
    spec = ManifoldSpec(nbar=NBAR, d=D)
    ts = time_scales(spec)
    w = taylor_detunings(spec, 1)
    expect = 2.0 * math.pi * spec.j_values / ts.t_kepler
    np.testing.assert_allclose(w, expect, rtol=1e-15)


def test_detunings_dispatch():
    spec = ManifoldSpec(nbar=NBAR, d=D)
    np.testing.assert_array_equal(detunings(spec, "exact"), exact_detunings(spec))
    for mode in SPECTRUM_MODES:
        assert detunings(spec, mode).shape == (D,)
    with pytest.raises(ValueError):
        detunings(spec, "cubic")
    with pytest.raises(ValueError, match="taylor order must be 1, 2 or 3, got 4"):
        taylor_detunings(spec, 4)


def test_nbar_upper_bound():
    assert ManifoldSpec(nbar=MAX_NBAR, d=4).nbar == MAX_NBAR
    for nbar in (MAX_NBAR + 1, 10**160, 10**400, math.inf, math.nan):
        with pytest.raises(ValueError, match="nbar must be"):
            ManifoldSpec(nbar=nbar, d=4)
    # at the bound the time scales are finite (t_superrevival = pi nbar^5)
    ts = time_scales(ManifoldSpec(nbar=MAX_NBAR, d=4))
    assert math.isfinite(ts.t_superrevival)


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
@pytest.mark.parametrize("nbar, d", [(180, 8), (37, 5), (MAX_NBAR, 2)])
def test_detunings_are_cached_and_read_only(mode, nbar, d):
    spec = ManifoldSpec(nbar=nbar, d=d)
    w = detunings(spec, mode)
    assert detunings(ManifoldSpec(nbar=nbar, d=d), mode) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        w += 1.0
    # the formulas, computed here
    n, j = float(nbar), np.arange(-((d - 1) // 2), d // 2 + 1).astype(float)
    if mode == "exact":
        want = -1.0 / (2.0 * (n + j) ** 2) + 1.0 / (2.0 * n**2)
    else:
        t_k, t_r, t_s = 2.0 * math.pi * n**3, 4.0 * np.pi * n**4 / 3.0, np.pi * n**5
        want = j / t_k
        if mode in ("taylor2", "taylor3"):
            want = want - j**2 / t_r
        if mode == "taylor3":
            want = want + j**3 / t_s
        want = 2.0 * math.pi * want
    assert np.array_equal(w, want)


def test_time_scales_are_cached():
    ts = time_scales(ManifoldSpec(nbar=NBAR, d=D))
    assert time_scales(ManifoldSpec(nbar=NBAR, d=D)) is ts
    n = float(NBAR)
    assert (ts.t_kepler, ts.t_revival, ts.t_superrevival) == (
        2.0 * math.pi * n**3, 4.0 * np.pi * n**4 / 3.0, np.pi * n**5)
    with pytest.raises(AttributeError):
        ts.t_kepler = 1.0


@pytest.mark.parametrize("mode", ["taylor4", "", ["exact"], None])
def test_detunings_reject_unknown_mode(mode):
    with pytest.raises(ValueError, match="unknown spectrum mode"):
        detunings(ManifoldSpec(nbar=NBAR, d=D), mode)


@pytest.mark.parametrize("nbar, d", [(180, 8), (37, 5), (MAX_NBAR, 2), (180, 16)])
def test_slot_time_is_the_kepler_period_over_d_bit_for_bit(nbar, d):
    ts = time_scales(ManifoldSpec(nbar=nbar, d=d))
    assert ts.t_slot == ts.t_kepler / d


@pytest.mark.parametrize("mode", SPECTRUM_MODES)
def test_flight_phases_shapes_and_modulus(mode):
    spec = ManifoldSpec(nbar=NBAR, d=D)
    ts = time_scales(spec)
    assert flight_phases(spec, 0.3 * ts.t_revival, mode).shape == (D,)
    grid = np.linspace(0.0, 3.0 * ts.t_revival, 12).reshape(3, 4)
    phases = flight_phases(spec, grid, mode)
    assert phases.shape == (3, 4, D)
    np.testing.assert_allclose(np.abs(phases), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(flight_phases(spec, 0.0, mode), np.ones(D))
    # one scalar time is the row of that time on a grid, bit for bit
    np.testing.assert_array_equal(phases[1, 2], flight_phases(spec, grid[1, 2], mode))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_taylor1_flight_over_n_slot_times_is_the_shift_phase(d):
    spec = ManifoldSpec(nbar=NBAR, d=d)
    t_slot = time_scales(spec).t_slot
    j = spec.j_values
    for n in range(-d, 3 * d + 1):
        np.testing.assert_allclose(flight_phases(spec, n * t_slot, "taylor1"),
                                   np.exp(-2j * np.pi * j * n / d), rtol=0, atol=1e-12)
