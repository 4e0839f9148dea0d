"""Phenomenological map from pump power and detuning to squeezing strength.

Nothing in this module is first-principles atomic physics.  The cell's
nonlinearity grows with pump power (linearly or with saturation) and rolls
off with pump-signal detuning as a Lorentzian of half-width
``bandwidth_hwhm``; on top of that a Gaussian-in-detuning absorption factor
attenuates both amplified output intensities.  The default map is fitted so
that 40 mW of pump power at 2 kHz detuning yields a measured maximum gain
of 7 after the loss factor is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, check_number
from .squeezer import R_MAX

CALIBRATION_MODES = ("linear", "saturating")

# Anchor operating point the default map is fitted to.
ANCHOR_POWER_MW = 40.0
ANCHOR_DETUNING_KHZ = 2.0
ANCHOR_MAX_GAIN = 7.0


@dataclass(frozen=True)
class CalibrationMap:
    """Pump-power and detuning response of the amplifier cell.

    ``slope`` feeds the linear mode (r per mW); ``r_sat``/``p_sat`` feed the
    saturating mode r_sat * P / (P + p_sat).  Both are multiplied by the
    Lorentzian window 1 / (1 + (delta/bandwidth_hwhm)**2).  The absorption
    loss exp(-loss_exponent_scale * (delta/bandwidth_hwhm)**2) multiplies
    each output intensity downstream.
    """

    mode: str = "saturating"
    slope: float = 0.03
    r_sat: float = 1.2
    p_sat: float = 10.0
    bandwidth_hwhm: float = 200.0
    loss_exponent_scale: float = 2e-3

    def __post_init__(self) -> None:
        if self.mode not in CALIBRATION_MODES:
            raise DomainError(f"mode: expected one of {CALIBRATION_MODES}, got {self.mode!r}")
        for name in ("slope", "r_sat", "p_sat", "bandwidth_hwhm"):
            value = check_number(name, getattr(self, name), 0.0, strict=True)
            object.__setattr__(self, name, value)
        k = check_number("loss_exponent_scale", self.loss_exponent_scale, 0.0)
        object.__setattr__(self, "loss_exponent_scale", k)


def effective_r(power: float, detuning: float, cal: CalibrationMap) -> tuple[float, float]:
    """Map (pump power [mW], detuning [kHz]) to (r_eff, intensity loss).

    r_eff is non-decreasing in power and non-increasing in detuning; the
    loss factor lies in (0, 1] and multiplies both output intensities.
    """
    if not math.isfinite(power) or power < 0.0:
        raise DomainError(f"pump power must be finite and >= 0 mW, got {power}")
    if not math.isfinite(detuning) or detuning < 0.0:
        raise DomainError(f"detuning must be finite and >= 0 kHz, got {detuning}")
    x = (detuning / cal.bandwidth_hwhm) ** 2
    window = 1.0 / (1.0 + x)
    if cal.mode == "linear":
        r_eff = cal.slope * power * window
    else:
        r_eff = cal.r_sat * power / (power + cal.p_sat) * window
    loss = math.exp(-cal.loss_exponent_scale * x)
    return r_eff, loss


def fitted_calibration(
    *,
    max_gain: float = ANCHOR_MAX_GAIN,
    power: float = ANCHOR_POWER_MW,
    detuning: float = ANCHOR_DETUNING_KHZ,
    **shape,
) -> CalibrationMap:
    """Build a map whose measured maximum gain hits ``max_gain`` exactly at
    the anchor (power, detuning), loss included.

    ``shape`` holds the other CalibrationMap fields (mode, p_sat,
    bandwidth_hwhm, loss_exponent_scale), with the dataclass defaults.
    Solves loss(detuning) * exp(2 * r_eff(power, detuning)) = max_gain for
    the free strength parameter; both ``slope`` and ``r_sat`` are fitted so
    switching modes preserves the anchor.
    """
    if "slope" in shape or "r_sat" in shape:
        raise TypeError("fitted_calibration fits slope and r_sat; it takes neither")
    max_gain = check_number("anchor.max_gain", max_gain, 1.0)
    power = check_number("anchor.power", power, 0.0, strict=True)
    detuning = check_number("anchor.detuning", detuning, 0.0)
    cal = CalibrationMap(**shape)
    try:
        x = (detuning / cal.bandwidth_hwhm) ** 2
        ln_loss = -cal.loss_exponent_scale * x
        r_needed = 0.5 * (math.log(max_gain) - ln_loss)
        window = 1.0 / (1.0 + x)
        slope = r_needed / (power * window)
        r_sat = r_needed / (power / (power + cal.p_sat) * window)
    except (OverflowError, ZeroDivisionError):
        # The Lorentzian window underflows to 0 at the anchor detuning.
        raise DomainError(
            f"bandwidth_hwhm: expected a window > 0 at the {detuning:g} kHz anchor, "
            f"got {cal.bandwidth_hwhm}"
        ) from None
    if r_needed > R_MAX:
        name = "loss_exponent_scale" if -ln_loss > R_MAX else "anchor.max_gain"
        raise DomainError(f"{name}: the anchor needs r = {r_needed:g}, expected <= {R_MAX:g}")
    return replace(cal, slope=slope, r_sat=r_sat)


def r_for_max_gain(g_max: float) -> float:
    """Squeezing parameter of an ideal amplifier with the given maximum gain."""
    if not math.isfinite(g_max) or g_max < 1.0:
        raise DomainError(f"maximum gain must be >= 1, got {g_max}")
    return 0.5 * math.log(g_max)

