"""Pump-power / detuning calibration map."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psalab import (
    CalibrationMap,
    DomainError,
    effective_r,
    fitted_calibration,
    r_for_max_gain,
)

powers = st.floats(min_value=0.0, max_value=80.0, allow_nan=False)
detunings = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


def test_zero_power_gives_zero_r():
    cal = fitted_calibration()
    r_eff, loss = effective_r(0.0, 150.0, cal)
    assert r_eff == 0.0
    assert loss == pytest.approx(math.exp(-cal.loss_exponent_scale * (150.0 / cal.bandwidth_hwhm) ** 2))


def test_half_saturation_point():
    cal = CalibrationMap(mode="saturating", r_sat=1.4, p_sat=25.0)
    r_eff, loss = effective_r(25.0, 0.0, cal)
    assert r_eff == pytest.approx(0.7, rel=1e-15)
    assert loss == 1.0


def test_lorentzian_half_width():
    cal = fitted_calibration()
    r_at_zero, _ = effective_r(30.0, 0.0, cal)
    r_at_hwhm, _ = effective_r(30.0, cal.bandwidth_hwhm, cal)
    assert r_at_hwhm == pytest.approx(0.5 * r_at_zero, rel=1e-12)


def test_linear_mode_is_proportional():
    cal = CalibrationMap(mode="linear", slope=0.02)
    assert effective_r(10.0, 0.0, cal)[0] == pytest.approx(0.2, rel=1e-15)
    assert effective_r(20.0, 0.0, cal)[0] == pytest.approx(0.4, rel=1e-15)


def test_default_anchor_measured_gain_seven():
    # loss * exp(2 r_eff) at (40 mW, 2 kHz) is the fitted anchor
    cal = fitted_calibration()
    r_eff, loss = effective_r(40.0, 2.0, cal)
    assert loss * math.exp(2.0 * r_eff) == pytest.approx(7.0, rel=1e-13)


def test_both_modes_honour_the_anchor():
    for mode in ("linear", "saturating"):
        cal = fitted_calibration(mode=mode)
        r_eff, loss = effective_r(40.0, 2.0, cal)
        assert loss * math.exp(2.0 * r_eff) == pytest.approx(7.0, rel=1e-13)


def test_fit_rejects_the_strengths_it_fits():
    for strength in ("slope", "r_sat"):
        with pytest.raises(TypeError, match=strength):
            fitted_calibration(**{strength: 0.1})


def test_invalid_map_rejected():
    with pytest.raises(DomainError):
        CalibrationMap(mode="quadratic")
    with pytest.raises(DomainError):
        CalibrationMap(p_sat=0.0)
    with pytest.raises(DomainError):
        CalibrationMap(loss_exponent_scale=-1e-3)


def test_effective_r_rejects_bad_inputs():
    cal = fitted_calibration()
    with pytest.raises(DomainError):
        effective_r(-1.0, 0.0, cal)
    with pytest.raises(DomainError):
        effective_r(10.0, -5.0, cal)


@given(powers, powers, detunings)
def test_monotone_in_power(p1, p2, delta):
    cal = fitted_calibration()
    lo, hi = sorted((p1, p2))
    assert effective_r(lo, delta, cal)[0] <= effective_r(hi, delta, cal)[0] + 1e-15


@given(powers, detunings, detunings)
def test_monotone_in_detuning(power, d1, d2):
    cal = fitted_calibration()
    lo, hi = sorted((d1, d2))
    r_lo, loss_lo = effective_r(power, lo, cal)
    r_hi, loss_hi = effective_r(power, hi, cal)
    assert r_hi <= r_lo + 1e-15
    assert loss_hi <= loss_lo + 1e-15


def test_r_for_max_gain_round_trip():
    assert r_for_max_gain(7.0) == pytest.approx(math.log(7.0) / 2.0, rel=1e-15)
    assert math.exp(2.0 * r_for_max_gain(5.3)) == pytest.approx(5.3, rel=1e-14)
    with pytest.raises(DomainError):
        r_for_max_gain(0.5)

