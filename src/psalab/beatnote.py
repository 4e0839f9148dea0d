"""Synthesis of the detected three-beam beatnote time series.

The photodiode after the cell sees the residual pump plus the signal at
+delta and the idler at -delta relative to the pump frequency:

    E(t) = sqrt(I_p)*exp(j*phi_p) + s_out*exp(+2j*pi*delta*t)
                                  + i_out*exp(-2j*pi*delta*t)

and records I(t) = |E(t)|^2, which expands into DC, delta and 2*delta
tones.  For equal gains and equal signal/idler output phases this reduces
exactly to

    I = 2*G*I_s + 2*G*I_s*cos(2w t) + I_p
        + 4*sqrt(I_p*G*I_s)*cos(w t)*cos(dphi_out),      w = 2*pi*delta.

Records are sampled over an integer number of delta periods so that the
delta and 2*delta tones land on exact FFT bins (rectangular window, no
leakage); the time origin is t = 0, which makes the delta tone a pure
cosine whose signed amplitude carries cos(dphi_out).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_number

# Nyquist margin: the 2*delta beat must sit at or below sample_rate / 10.
NYQUIST_MARGIN = 10.0
MIN_PERIODS = 4

# Seed streams so cell-on and cell-off records of one acquisition draw
# independent noise from the same configured seed.
CELL_ON = 0
CELL_OFF = 1


@dataclass(frozen=True)
class DetectionConfig:
    """Sampling and noise model of the detection photodiode.

    ``sample_rate`` is in kHz, so sample k sits at t_k = k/sample_rate
    milliseconds.  ``noise_sigma`` is the standard deviation of additive
    Gaussian intensity noise per sample; ``residual_pump_intensity`` is the
    pump leakage used as the heterodyne local oscillator.
    """

    sample_rate: float = 100.0
    n_samples: int = 2000
    noise_sigma: float = 0.0
    rng_seed: int = 0
    residual_pump_intensity: float = 0.25

    def __post_init__(self) -> None:
        rate = check_number("sample_rate", self.sample_rate, 0.0, strict=True)
        object.__setattr__(self, "sample_rate", rate)
        n = check_number("n_samples", self.n_samples, 2, integer=True)
        object.__setattr__(self, "n_samples", n)
        object.__setattr__(self, "noise_sigma", check_number("noise_sigma", self.noise_sigma, 0.0))
        seed = check_number("rng_seed", self.rng_seed, 0, integer=True)
        object.__setattr__(self, "rng_seed", seed)
        pump = check_number("residual_pump_intensity", self.residual_pump_intensity, 0.0)
        object.__setattr__(self, "residual_pump_intensity", pump)

    def validate_for_delta(self, delta: float) -> None:
        """Check the sampling invariants against a concrete beat frequency."""
        if not math.isfinite(delta) or delta <= 0.0:
            raise DomainError(f"beatnote synthesis needs detuning > 0 kHz, got {delta}")
        if self.sample_rate < NYQUIST_MARGIN * 2.0 * delta:
            raise DomainError(
                f"sample_rate: {self.sample_rate} kHz violates the Nyquist margin: "
                f"need >= {NYQUIST_MARGIN * 2.0 * delta} kHz for delta = {delta} kHz"
            )
        periods = self.n_samples * delta / self.sample_rate
        if abs(periods - round(periods)) > 1e-9 * max(1.0, periods):
            raise DomainError(
                f"n_samples: record must span an integer number of delta periods: "
                f"n_samples*delta/sample_rate = {periods} is not an integer"
            )
        if round(periods) < MIN_PERIODS:
            raise DomainError(
                f"n_samples: record must span at least {MIN_PERIODS} delta periods, "
                f"got {round(periods)}"
            )


@dataclass(frozen=True, eq=False)
class BeatnoteRecord:
    """One simulated oscilloscope trace plus its sampling metadata."""

    samples: np.ndarray
    sample_rate: float
    delta: float
    config_echo: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise DomainError(f"record samples must be a 1-D array, got shape {arr.shape}")
        if arr.size != self.config_echo.n_samples:
            raise DomainError(
                f"n_samples: record length {arr.size} does not match configured n_samples "
                f"{self.config_echo.n_samples}"
            )
        if self.sample_rate != self.config_echo.sample_rate:
            raise DomainError(
                f"sample_rate: record rate {self.sample_rate} kHz does not match configured "
                f"sample_rate {self.config_echo.sample_rate} kHz"
            )
        if not np.isfinite(arr).all():
            raise DomainError("record samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        """Sample times in milliseconds."""
        return np.arange(self.n_samples) / self.sample_rate


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@functools.lru_cache(maxsize=16)
def _trig_rows(n_samples: int, sample_rate: float, delta: float) -> np.ndarray:
    """Rows [1, cos(w t), sin(w t)], w = 2*pi*delta, at the sample times."""
    phase = 2.0 * math.pi * delta * (np.arange(n_samples) / sample_rate)
    rows = np.stack([np.ones(n_samples), np.cos(phase), np.sin(phase)])
    rows.setflags(write=False)
    return rows


def synthesize_block(
    s_out, i_out, pump_phase, delta: float, cfg: DetectionConfig, stream, seeds=None
) -> np.ndarray:
    """Detected intensity traces of P records as a (P, n_samples) block.

    One row per ``pump_phase`` entry; ``s_out``, ``i_out`` and ``stream``
    are scalars or one value per row.  Each row forms E(t) sample by sample
    and records |E|^2.  With noise, a row adds the draws of its stream under
    its seed in ``seeds``, or under ``cfg.rng_seed`` for every row.
    """
    phase = np.atleast_1d(np.asarray(pump_phase, dtype=np.float64))
    if not (np.isfinite(s_out).all() and np.isfinite(i_out).all()):
        raise DomainError(f"field amplitudes must be finite, got ({s_out}, {i_out})")
    if not np.isfinite(phase).all():
        raise DomainError(f"pump_phase must be finite, got {pump_phase}")
    cfg.validate_for_delta(delta)
    # E(t) = lo + (s + i)*cos(wt) + j*(s - i)*sin(wt).
    coef = np.empty((3, phase.size), dtype=np.complex128)
    coef[0] = math.sqrt(cfg.residual_pump_intensity) * np.exp(1j * phase)
    coef[1] = np.add(s_out, i_out)
    coef[2] = 1j * np.subtract(s_out, i_out)
    rows = _trig_rows(cfg.n_samples, cfg.sample_rate, delta)
    re = coef.real.T @ rows
    im = coef.imag.T @ rows
    # In place: fresh (P, N) temporaries cost more than the arithmetic.
    re *= re
    im *= im
    trace = np.add(re, im, out=re)
    if cfg.noise_sigma > 0.0:  # normal(0, sigma) is 0 + sigma*z: draw z into one block
        seeds = (cfg.rng_seed,) if seeds is None else seeds
        keys = draws = [(seed, stream) for seed in seeds]
        if not isinstance(stream, (int, np.integer)):  # a stream per row
            keys = list(zip(seeds if len(seeds) > 1 else list(seeds) * len(stream), stream))
            draws = list(dict.fromkeys(keys))  # each distinct (seed, stream) is drawn once
        noise = np.empty((len(draws), cfg.n_samples))
        for (seed, row_stream), row in zip(draws, noise):
            _rng_for(seed, row_stream).standard_normal(out=row)
        if len(draws) < len(keys):  # rows that share a draw
            noise = noise[[draws.index(key) for key in keys]]
        trace += np.multiply(noise, cfg.noise_sigma, out=noise)
    return trace


def synthesize_beatnote(
    s_out: complex,
    i_out: complex,
    pump_phase: float,
    delta: float,
    cfg: DetectionConfig,
) -> BeatnoteRecord:
    """Detected intensity trace for given amplified output amplitudes."""
    trace = synthesize_block(s_out, i_out, pump_phase, delta, cfg, CELL_ON)[0]
    return BeatnoteRecord(trace, cfg.sample_rate, delta, cfg)


def cell_off_record(
    s_in: complex,
    i_in: complex,
    pump_phase: float,
    delta: float,
    cfg: DetectionConfig,
) -> BeatnoteRecord:
    """Reference trace with the cell inactive: unamplified pass-through.

    Uses the same noise model as ``synthesize_beatnote`` but a distinct
    seed stream, so on/off pairs of one acquisition have independent noise.
    """
    trace = synthesize_block(s_in, i_in, pump_phase, delta, cfg, CELL_OFF)[0]
    return BeatnoteRecord(trace, cfg.sample_rate, delta, cfg)
