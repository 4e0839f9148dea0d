"""Two-mode parametric amplifier: field evolution and closed-form gain laws.

The amplifier couples a signal and an idler mode through a strong pump.
For squeezing parameter r and pump phase phi_p the classical amplitudes
transform as

    s_out = cosh(r) * s_in + exp(2j*phi_p) * sinh(r) * conj(i_in)
    i_out = cosh(r) * i_in + exp(2j*phi_p) * sinh(r) * conj(s_in)

which conserves the signal-idler photon-number difference exactly.  For
equal input magnitudes the signal intensity gain follows the
phase-sensitive law

    G(g, Phi) = 2g - 1 + 2*sqrt(g*(g-1))*cos(Phi),    g = cosh(r)**2,

where Phi = 2*phi_p - phi_s - phi_i is the pump/signal/idler relative
phase.  G is maximal at Phi = 0, minimal at Phi = pi, and for this ideal
device G_min = 1/G_max.  With no idler seed the gain is phase-insensitive
and equals g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_number

TWO_PI = 2.0 * math.pi

# Largest squeezing parameter a spec may imply: the pipelines form gains up to
# exp(4r) ~ 5e173, well inside the float range.  The cell reaches r ~ 1.
R_MAX = 100.0


def wrap_phase(phi):
    """Wrap an angle (scalar or ndarray) into [-pi, pi)."""
    return (phi + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class AmplifierParams:
    """Operating point of the parametric amplifier.

    ``r`` (dimensionless squeezing parameter, used as-is) or ``pump_power``
    (milliwatts, mapped to r through a CalibrationMap) must be provided
    before the amplifier can be evaluated; if both are set, r wins.  ``detuning``
    is the pump-signal frequency offset in kHz.  ``pump_phase`` is stored
    wrapped to [-pi, pi).
    """

    r: float | None = None
    pump_phase: float = 0.0
    pump_power: float | None = None
    detuning: float = 2.0

    def __post_init__(self) -> None:
        if self.r is not None:
            object.__setattr__(self, "r", check_number("r", self.r, 0.0))
            if self.r > R_MAX:
                raise DomainError(f"r: expected <= {R_MAX:g}, got {self.r}")
        phase = check_number("pump_phase", self.pump_phase)
        object.__setattr__(self, "pump_phase", float(wrap_phase(phase)))
        if self.pump_power is not None:
            object.__setattr__(self, "pump_power", check_number("pump_power", self.pump_power, 0.0))
        object.__setattr__(self, "detuning", check_number("detuning", self.detuning, 0.0))


class GainPair(NamedTuple):
    """Extremal gains of a pure phase-sensitive amplifier."""

    g_max: float
    g_min: float


def evolve_block(s_in: complex, i_in: complex, r: float, pump_phase) -> tuple[np.ndarray, ...]:
    """Propagate signal and idler amplitudes through the amplifier at each
    pump phase; returns (s_out, i_out) shaped like ``pump_phase``.

    Amplitudes are dimensionless (a unit amplitude carries the input signal
    intensity), and |s|^2 - |i|^2 is conserved.  Pass the phases through
    ``wrap_phase``, as AmplifierParams stores them, to match
    ``evolve_two_mode`` bit for bit.
    """
    a, b = complex(s_in), complex(i_in)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise DomainError(f"field amplitudes must be finite, got ({a}, {b})")
    if not math.isfinite(r):
        raise DomainError(f"r: expected a finite number, got {r}")
    c, s = math.cosh(r), math.sinh(r)
    pump = np.exp(2j * np.asarray(pump_phase, dtype=np.float64)) * s
    return c * a + pump * b.conjugate(), c * b + pump * a.conjugate()


def evolve_two_mode(
    s_in: complex, i_in: complex, params: AmplifierParams
) -> tuple[complex, complex]:
    """``evolve_block`` at the one operating point ``params``, which must set r."""
    if params.r is None:
        raise DomainError("amplifier evolution needs an explicit squeezing parameter r")
    s_out, i_out = evolve_block(s_in, i_in, params.r, (params.pump_phase,))
    return complex(s_out[0]), complex(i_out[0])


def psa_gain(g: float, phi: float) -> float:
    """Phase-sensitive signal gain 2g - 1 + 2*sqrt(g*(g-1))*cos(phi).

    Evaluated as (sqrt(g) + sqrt(g-1)*cos(phi))**2 + (g-1)*sin(phi)**2,
    an exact rewrite that stays accurate to a few ulp near the
    deamplification point, where the textbook form loses half the
    mantissa to cancellation.
    """
    if not math.isfinite(g) or g < 1.0:
        raise DomainError(f"phase-insensitive gain g must be >= 1, got {g}")
    if not math.isfinite(phi):
        raise DomainError(f"relative phase must be finite, got {phi}")
    a = math.sqrt(g)
    b = math.sqrt(g - 1.0)
    u = a + b * math.cos(phi)
    v = b * math.sin(phi)
    return u * u + v * v


def gain_extrema(g: float) -> GainPair:
    """Extremal gains at relative phase 0 and pi.

    Evaluated in the cancellation-free form g_max = (sqrt(g)+sqrt(g-1))**2,
    g_min = 1/g_max, so the product g_max*g_min holds to a few ulp even for
    large g (the naive difference 2g-1-2*sqrt(g*(g-1)) loses half the
    mantissa near g ~ 100).
    """
    if not math.isfinite(g) or g < 1.0:
        raise DomainError(f"phase-insensitive gain g must be >= 1, got {g}")
    a = math.sqrt(g) + math.sqrt(g - 1.0)
    b = 1.0 / a
    return GainPair(a * a, b * b)


def pia_gain(r: float) -> float:
    """Phase-insensitive gain cosh(r)**2 (no idler seed)."""
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"squeezing parameter r must be finite and >= 0, got {r}")
    c = math.cosh(r)
    return c * c


def psa_max_from_pia(g_pia: float) -> float:
    """Maximum phase-sensitive gain implied by a phase-insensitive gain.

    Returns 2*g - 1 + 2*sqrt(g*(g-1)) = (sqrt(g) + sqrt(g-1))**2.
    """
    return gain_extrema(g_pia).g_max

