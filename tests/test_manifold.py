"""Level manifold: labels, time scales, detunings."""

import math

import numpy as np
import pytest

from rydpacket import ManifoldSpec, time_scales
from rydpacket.manifold import (
    MAX_NBAR,
    SPECTRUM_MODES,
    detunings,
    exact_detunings,
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
