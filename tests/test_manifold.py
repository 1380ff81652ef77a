"""Level manifold: labels, time scales, detunings."""

import math

import numpy as np
import pytest

from rydpacket import ManifoldSpec, time_scales
from rydpacket.manifold import (
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
