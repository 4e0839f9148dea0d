"""Shared test helpers."""

from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, so a Tier-1 result
# never depends on the draw; records make example times uneven.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def bogoliubov_direct(s: complex, i: complex, r: float, pump_phase: float) -> tuple[complex, complex]:
    """Direct complex evaluation of the two-mode transform, used as the
    evaluation oracle in tests (kept separate from the package code)."""
    c, sh = math.cosh(r), math.sinh(r)
    pump = cmath.exp(2j * pump_phase)
    return c * s + pump * sh * i.conjugate(), c * i + pump * sh * s.conjugate()


def signal_phase_direct(delta_phi_in: float, r: float, kappa: float = 1.0) -> float:
    """True pump-referenced output phase of the signal for real unit seeds
    (idler magnitude kappa), evaluated directly."""
    c, sh = math.cosh(r), math.sinh(r)
    return math.atan2(sh * kappa * math.sin(2.0 * delta_phi_in),
                      c + sh * kappa * math.cos(2.0 * delta_phi_in)) - delta_phi_in


def dist_to_half_turns(phi):
    """Distance of each angle to the nearest multiple of pi."""
    m = np.mod(np.asarray(phi, dtype=np.float64), math.pi)
    return np.minimum(m, math.pi - m)
