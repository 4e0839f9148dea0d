"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a core changes by itself, by up to a factor
of two within a minute, so raw wall times of the same code drift between
runs far more than the changes the benchmark must resolve.  The runner
therefore times this kernel after every unit of a pass and divides the
unit's wall time by the kernel's time measured around it.  The slowdowns
come and go over seconds, so a kernel run every few hundred milliseconds
tracks them and the ratio stays put while the raw times move.

The kernel copies the shape of psalab's hot paths without calling psalab,
so no change to the program moves it: a 2000-sample record synthesized
from complex carriers, wrapped in a frozen dataclass that copies it, read
by an rfft, plus some float formatting as in serialization.  It must never
change: a normalized time from an edited kernel is not comparable with one
from before the edit.

``NOMINAL_S`` is the kernel time that defines the normalized second: a
normalized time is the wall time the unit would take on a host where the
kernel takes exactly 5 ms.  It is a fixed round number near the kernel's
fastest times on the 2-vCPU host the baseline was recorded on, where the
kernel's median over a 30-second run ranged from 5.2 to 9.2 ms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.005
N_SAMPLES = 2000
ROUNDS = 32

_TIMES = np.arange(N_SAMPLES) / 1000.0


@dataclass(frozen=True)
class _Record:
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def kernel(rounds: int = ROUNDS) -> float:
    """The fixed work; returns a value that depends on all of it."""
    total = 0.0
    for k in range(rounds):
        w = 2.0 * math.pi * 2.0 * _TIMES
        field = 0.1 * np.exp(0.1j * k) + (0.5 + 0.1j) * np.exp(1j * w) + (0.3 - 0.2j) * np.exp(-1j * w)
        record = _Record(np.abs(field) ** 2, 1000.0)
        spectrum = np.fft.rfft(record.samples)
        peak = complex(2.0 * spectrum[8] / N_SAMPLES)
        text = ",".join(repr(float(v)) for v in record.samples[:16])
        total += abs(peak) + len(text) * 1e-6
    return total


def timed() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
