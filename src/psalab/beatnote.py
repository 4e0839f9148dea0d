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
from .squeezer import R_MAX

# Nyquist margin: the 2*delta beat must sit at or below sample_rate / 10.
NYQUIST_MARGIN = 10.0
MIN_PERIODS = 4

# The most noise_sigma or residual pump a record takes in: the input-ratio floor's idler seed.
INTENSITY_MAX = math.exp(2.0 * R_MAX)

# Seed streams so cell-on and cell-off records of one acquisition draw
# independent noise from the same configured seed.
CELL_ON = 0
CELL_OFF = 1

# numpy's SeedSequence: a 4-word pool, the hash constants its entropy mixer (A)
# and generate_state (B) step through, and the multipliers of its mix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


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
        seed = check_number("rng_seed", self.rng_seed, 0, integer=True)
        object.__setattr__(self, "rng_seed", seed)
        for name in ("noise_sigma", "residual_pump_intensity"):
            value = check_number(name, getattr(self, name), 0.0)
            if value > INTENSITY_MAX:
                raise DomainError(f"{name}: expected <= {INTENSITY_MAX:g}, got {value}")
            object.__setattr__(self, name, value)

    def validate_for_delta(self, delta: float) -> None:
        """Check the sampling invariants against a concrete beat frequency."""
        if not math.isfinite(delta) or delta <= 0.0:
            raise DomainError(f"beatnote synthesis needs detuning > 0 kHz, got {delta}")
        need = NYQUIST_MARGIN * 2.0 * delta
        if self.sample_rate < need * (1.0 - 1e-12):  # a rate computed from delta may round low
            raise DomainError(
                f"sample_rate: {self.sample_rate} kHz violates the Nyquist margin: "
                f"need >= {need} kHz for delta = {delta} kHz"
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
        if not np.isfinite(arr).all():
            raise DomainError("record samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def sample_rate(self) -> float:
        """Sampling rate in kHz, as the detection config sets it."""
        return self.config_echo.sample_rate

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        """Sample times in milliseconds."""
        return np.arange(self.n_samples) / self.sample_rate


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j <= n: the hash constants SeedSequence steps through."""
    return np.cumprod(np.array([init] + [mult] * n, np.uint32), dtype=np.uint32)


def _hashmix(value, consts_in, consts_out):
    """SeedSequence's hashmix of value, elementwise under the hash constants given."""
    value = value ^ consts_in
    value *= consts_out
    value ^= value >> _SHIFT
    return value


def _mix(x, y):
    """SeedSequence's mix of x with a fresh hashmix y, which it overwrites."""
    y *= _MIX_R
    out = x * _MIX_L - y
    out ^= out >> _SHIFT
    return out


def _words(value, name: str) -> np.ndarray:
    """SeedSequence's little-endian uint32 words of an int >= 0 of any size (0 is one
    word), or of an array of ints below 2**64 along a last axis: two words if any needs two.
    A negative value raises, naming it as ``name``."""
    values = np.asarray(value)
    if (values < 0).any():
        raise DomainError(f"{name}: expected an integer >= 0, got {int(values[values < 0][0])}")
    if isinstance(value, (int, np.integer)):
        n = int(value)
        return np.frombuffer(n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little"), "<u4")
    words = np.asarray(value, "<u8")[..., None].view("<u4")
    return words if words[..., 1].any() else words[..., :1]


def seed_words(entropy, keys, n_words: int) -> np.ndarray:
    """``SeedSequence(e, spawn_key=(k,)).generate_state(n_words, np.uint64)`` for every
    (e, k) of ``entropy`` and ``keys`` broadcast together, in one numpy pass.

    Each is an int >= 0 of any size or an array of ints below 2**64 (a negative
    one raises ``DomainError``, naming ``entropy`` or ``spawn key``); the words
    come out along a last axis of ``n_words``.  SeedSequence pads a spawned
    entropy's words to its pool, hashes them in and mixes the pool, then mixes
    in each later word: the entropy's above 2**128, then the key's.
    """
    words, key = _words(entropy, "entropy"), _words(keys, "spawn key")
    if key.shape[-1] == 2 and not key[..., 1].all():
        raise DomainError("spawn keys below and above 2**32 hash as 1 and 2 words; "
                          "derive them in separate calls")
    pad = max(0, _POOL - words.shape[-1])
    words = np.concatenate([words, np.zeros((*words.shape[:-1], pad), np.uint32)], -1)
    later = [words[..., j, None] for j in range(_POOL, words.shape[-1])]
    later += [key[..., j, None] for j in range(key.shape[-1])]
    a = _chain(_INIT_A, _MULT_A, 4 * (_POOL + len(later)))
    pool = _hashmix(words[..., :_POOL], a[:_POOL], a[1:_POOL + 1])
    # Word src is hashed into each other word, steps 4, 5, ... in order; it keeps its own.
    dst = np.arange(_POOL)
    steps = _POOL + (_POOL - 1) * dst[:, None] + dst - (dst >= dst[:, None])
    for src, c_in, c_out in zip(range(_POOL), a[steps], a[steps + 1]):
        pool = np.where(dst == src, pool, _mix(pool, _hashmix(pool[..., src, None], c_in, c_out)))
    for j, word in enumerate(later):
        step = 4 * (_POOL + j)
        pool = _mix(pool, _hashmix(word, a[step:step + 4], a[step + 1:step + 5]))
    n = 2 * n_words
    b = _chain(_INIT_B, _MULT_B, n)
    cycled = np.concatenate([pool] * -(-n // _POOL), -1)[..., :n]  # pool words, cycled to n
    state = _hashmix(cycled, b[:n], b[1:])
    return np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """Hands PCG64 the four 64-bit words ``seed_words`` derived for it, which it asks
    for as ``generate_state(4, np.uint64)`` and reads from their contiguous buffer.
    It is registered as numpy's ISeedSequence on first use, not at import: loading
    numpy.random would add ~15 ms to every CLI call."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _standard_normals(words: np.ndarray, cfg: DetectionConfig) -> np.ndarray:
    """``cfg.noise_sigma`` times rows of ``cfg.n_samples`` standard normals, one drawn per
    row of PCG64 seed words.  ``normal(0, sigma)`` computes 0 + sigma*z: these are its bits."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)  # once; then a cached no-op
    words = np.ascontiguousarray(words, np.uint64).reshape(-1, 4)
    noise = np.empty((len(words), cfg.n_samples))
    for out, row in zip(noise, words):
        np.random.Generator(np.random.PCG64(_SeedWords(row))).standard_normal(out=out)
    noise *= cfg.noise_sigma
    return noise


@functools.lru_cache(maxsize=16)
def _trig_rows(n_samples: int, sample_rate: float, delta: float) -> np.ndarray:
    """Rows [1, cos(w t), sin(w t)], w = 2*pi*delta, at the sample times."""
    phase = 2.0 * math.pi * delta * (np.arange(n_samples) / sample_rate)
    rows = np.stack([np.ones(n_samples), np.cos(phase), np.sin(phase)])
    rows.setflags(write=False)
    return rows


def synthesize_block(s_out, i_out, pump_phase, delta: float, cfg: DetectionConfig,
                     noise=None, out=None) -> np.ndarray:
    """Detected intensity traces of P records as a (P, n_samples) block.

    One row per ``pump_phase`` entry; ``s_out`` and ``i_out`` are scalars or
    one value per row.  Each row forms E(t) sample by sample and records
    |E|^2, then adds ``noise``: one row of ``n_samples``, or one per record.
    ``out``, a pair of (P, n_samples) float64 planes, takes Re E and Im E, and
    the block is written into its first; by default both are fresh arrays.
    ``cfg`` must pass ``validate_for_delta(delta)``: ``ScanSpec`` and ``_record`` check it.
    """
    phase = np.asarray(pump_phase, dtype=np.float64)
    # E(t) = lo + (s + i)*cos(wt) + j*(s - i)*sin(wt), from rows that start as phase, s and i.
    coef = np.empty((3, phase.size), dtype=np.complex128)
    coef[0], coef[1], coef[2] = phase, s_out, i_out
    if not all(np.isfinite(coef).flat):  # builtin all(): 3P flags cost less than .all()
        if not (np.isfinite(s_out).all() and np.isfinite(i_out).all()):
            raise DomainError(f"field amplitudes must be finite, got ({s_out}, {i_out})")
        if not np.isfinite(phase).all():
            raise DomainError(f"pump_phase must be finite, got {pump_phase}")
    n = cfg.n_samples
    if noise is not None and np.shape(noise) not in ((n,), (1, n), (phase.size, n)):
        raise DomainError(f"noise: expected 1 or {phase.size} rows of {n} samples, "
                          f"got shape {np.shape(noise)}")
    lo, s, i = coef
    np.multiply(math.sqrt(cfg.residual_pump_intensity), np.exp(1j * lo, out=lo), out=lo)
    coef[1], coef[2] = s + i, 1j * (s - i)
    rows = _trig_rows(n, cfg.sample_rate, delta)
    re, im = (None, None) if out is None else out
    re = np.matmul(coef.real.T, rows, out=re)
    im = np.matmul(coef.imag.T, rows, out=im)
    # In place: fresh (P, N) temporaries cost more than the arithmetic.
    re *= re
    im *= im
    trace = np.add(re, im, out=re)
    if noise is not None:
        trace += noise
    return trace


def _record(s, i, pump_phase, delta, cfg: DetectionConfig, stream: int) -> BeatnoteRecord:
    """One record, its noise drawn under ``SeedSequence(cfg.rng_seed, spawn_key=(stream,))``."""
    cfg.validate_for_delta(delta)
    noise = _standard_normals(seed_words(cfg.rng_seed, stream, 4), cfg) if cfg.noise_sigma else None
    trace = synthesize_block(s, i, pump_phase, delta, cfg, noise)[0]
    return BeatnoteRecord(trace, delta, cfg)


def synthesize_beatnote(
    s_out: complex,
    i_out: complex,
    pump_phase: float,
    delta: float,
    cfg: DetectionConfig,
) -> BeatnoteRecord:
    """Detected intensity trace for given amplified output amplitudes."""
    return _record(s_out, i_out, pump_phase, delta, cfg, CELL_ON)


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
    return _record(s_in, i_in, pump_phase, delta, cfg, CELL_OFF)
