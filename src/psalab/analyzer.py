"""Gain and phase recovery from beatnote records.

Mirrors the experimental data processing chain: read the coherent Fourier
amplitudes of the peaks at delta and 2*delta, take the cell-on / cell-off
ratio of the 2*delta peaks for the gain, and read cos(dphi_out) from the
signed delta-peak amplitude normalised by 4*sqrt(I_p * G * I_s).

Because records span an integer number of periods with the time origin at
t = 0, an on-bin tone A*cos(w t + theta) appears with complex amplitude
A*exp(j*theta) exactly; no window corrections are involved.  The phase
readout is therefore taken from the signed real part of the delta bin
rather than from arg(), which would jitter by pi at near-zero amplitudes.

Only those two bins are read, so each is a single-bin DFT (Goertzel's
observation): a projection onto cached cos/sin rows, with no full FFT.
A (P, N) block of records is read with one matrix product; a single
record is the one-row case.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .beatnote import BeatnoteRecord
from .squeezer import TWO_PI, wrap_phase

# |cos| may exceed unity by this much before extraction errors out
# (floating-point rounding in the noiseless chain stays far below it).
DEFAULT_CLAMP_TOL = 1e-6
# Off-record 2*delta amplitudes below this fraction of the DC level are
# treated as "no reference beat present".
DEFAULT_REFERENCE_FLOOR = 1e-12


def bin_index(frequency: float, sample_rate: float, n: int) -> int:
    """FFT bin of a tone in an n-sample record; off the bin grid, at DC or past Nyquist raises."""
    resolution = sample_rate / n
    k = frequency / resolution if resolution > 0.0 else math.inf
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
        raise DomainError(
            f"frequency {frequency} is off the FFT bin grid (resolution {resolution})"
        )
    k = int(round(k))
    if not 0 < k < n // 2:
        raise DomainError(f"frequency {frequency} maps to unusable bin {k} of {n}")
    return k


@functools.lru_cache(maxsize=16)
def _bin_rows(n: int, sample_rate: float, delta: float) -> np.ndarray:
    """(5, n) rows: 1/n for DC, then cos and -sin of the delta and 2*delta bins.

    The bin rows are scaled to single-sided amplitudes, and their angle is
    reduced as (k*m) mod n first, so it stays exact for long records.
    """
    k = np.array([[bin_index(delta, sample_rate, n)], [bin_index(2.0 * delta, sample_rate, n)]])
    angle = (2.0 * math.pi / n) * ((k * np.arange(n)) % n)
    cos, sin = (2.0 / n) * np.cos(angle), (2.0 / n) * np.sin(angle)
    rows = np.stack([np.full(n, 1.0 / n), cos[0], -sin[0], cos[1], -sin[1]])
    rows.setflags(write=False)
    return rows


def block_peaks(
    block: np.ndarray, sample_rate: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DC, delta and 2*delta coherent amplitudes of each row of a (P, N) block.

    For an on-bin tone A*cos(w t + theta) the complex amplitude is
    A*exp(j*theta); DC is the mean of the row.
    """
    # Against the transpose of C-ordered rows: with this layout the BLAS
    # kernel sums the N terms an order of magnitude more accurately than
    # against C-ordered (N, 5) columns (gain ratios: 1e-15 vs 1.6e-14).
    bins = block @ _bin_rows(block.shape[1], sample_rate, delta).T
    # The (cos, -sin) column pairs are (re, im) of complex amplitudes.  Copied out, as
    # numpy.linalg misreads a complex view whose row stride (40 bytes) is not 16's multiple.
    amplitudes = np.ascontiguousarray(bins[:, 1:].view(np.complex128).T)
    return bins[:, 0], amplitudes[0], amplitudes[1]


def spectrum_peaks(rec: BeatnoteRecord) -> tuple[float, complex, complex]:
    """DC and the delta / 2*delta coherent amplitudes of a record."""
    dc, at_delta, at_two_delta = block_peaks(rec.samples[np.newaxis], rec.sample_rate, rec.delta)
    return float(dc[0]), complex(at_delta[0]), complex(at_two_delta[0])


def _first_failure(ok, *values) -> tuple:
    """Index of the first False in ``ok``, then each of ``values`` (broadcast to ``ok``) there."""
    k = int(np.flatnonzero(~np.asarray(ok))[0])
    return (k, *(np.broadcast_to(v, np.shape(ok)).flat[k] for v in values))


def gain_ratio(on_two_delta, off_two_delta, off_dc) -> np.ndarray:
    """Cell-on / cell-off ratios of 2*delta peak amplitudes, elementwise.

    An off reference at or below DEFAULT_REFERENCE_FLOOR of its DC level,
    or a NaN one, means no reference beat and raises; so does an infinite
    on or off peak, which would read as a gain of inf or 0.
    """
    reference = np.abs(off_two_delta)
    ok = reference > DEFAULT_REFERENCE_FLOOR * np.abs(off_dc)
    if not np.all(ok):
        k, ref, dc = _first_failure(ok, reference, off_dc)
        raise DomainError(
            f"no reference beat: off-record 2*delta amplitude {ref} is below "
            f"{DEFAULT_REFERENCE_FLOOR} of its DC level {dc} at row {k}"
        )
    on = np.abs(on_two_delta)
    ok = np.isfinite(on) & np.isfinite(reference)
    if not np.all(ok):
        k, on_k, ref = _first_failure(ok, on, reference)
        raise DomainError(f"2*delta peak amplitudes must be finite, got on {on_k} "
                          f"and off {ref} at row {k}")
    return on / reference


def extract_gain(on: BeatnoteRecord, off: BeatnoteRecord) -> float:
    """Gain as the cell-on / cell-off ratio of the 2*delta peak amplitudes."""
    if (on.delta, on.sample_rate, on.n_samples) != (off.delta, off.sample_rate, off.n_samples):
        raise DomainError(
            "on/off records must share delta, sample_rate and n_samples: "
            f"got ({on.delta}, {on.sample_rate}, {on.n_samples}) vs "
            f"({off.delta}, {off.sample_rate}, {off.n_samples})"
        )
    dc, _, at_two_delta = block_peaks(np.stack([on.samples, off.samples]), on.sample_rate, on.delta)
    return float(gain_ratio(at_two_delta[0], at_two_delta[1], dc[1]))


def cos_readout(
    at_delta, i_p: float, gain, i_s_in: float, clamp_tol=DEFAULT_CLAMP_TOL
) -> np.ndarray:
    """cos(dphi_out) from signed delta-peak amplitudes, elementwise.

    Valid in the equal-input regime where the delta tone reads
    4*sqrt(i_p*gain*i_s_in)*cos(w t)*cos(dphi_out).  Values inside
    [-1-clamp_tol, 1+clamp_tol] are clamped to [-1, 1]; anything further
    out (or non-finite) indicates inconsistent inputs and raises.
    """
    if not math.isfinite(i_p) or i_p <= 0.0:
        raise DomainError(f"no local oscillator: residual pump intensity must be > 0, got {i_p}")
    ok = (gain > 0.0) & np.isfinite(gain)
    if not np.all(ok):
        k, bad = _first_failure(ok, gain)
        raise DomainError(f"gain must be finite and > 0, got {bad} at row {k}")
    if not math.isfinite(i_s_in) or i_s_in <= 0.0:
        raise DomainError(f"input signal intensity must be > 0, got {i_s_in}")
    value = np.real(at_delta) / (4.0 * np.sqrt(i_p * gain * i_s_in))
    ok = np.abs(value) <= 1.0 + clamp_tol
    if not np.all(ok):
        k, bad, tol = _first_failure(ok, value, clamp_tol)
        raise DomainError(
            f"extracted cos amplitude {bad} exceeds the unit circle by more than {tol} at row {k}"
        )
    return np.clip(value, -1.0, 1.0)


def extract_cos_phase(
    rec: BeatnoteRecord,
    i_p: float,
    gain: float,
    i_s_in: float,
    *,
    clamp_tol: float = DEFAULT_CLAMP_TOL,
) -> float:
    """cos(dphi_out) of one record; see ``cos_readout``."""
    signed = spectrum_peaks(rec)[1].real
    return float(cos_readout(signed, i_p, gain, i_s_in, clamp_tol))


def unwrap_cos_scan(cos_values, phi_in) -> np.ndarray:
    """Continuous output phases of a transfer scan from its cosines and input phases.

    Each point's branch follows from its own input phase by the equal-seed
    law tan(phi_out) = -exp(-2r)*tan(phi_in): sin(phi_out) has the sign of
    -sin(phi_in), which picks +-acos, and |phi_out + phi_in| < pi/2, which
    picks the whole turn.  No point looks at its neighbours, so any grid
    spacing or order works and noise on a plateau cannot flip the rest of
    the scan.  The rule is exact whenever tanh(r) < sqrt(input_ratio),
    which covers every input_ratio >= 1.  Past that, the idler seed
    dominates and the rule returns the global mirror, -phi_out up to a
    whole turn: a cosine readout cannot tell the two apart.
    """
    values = np.asarray(cos_values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DomainError("cosine scan must be a non-empty 1-D sequence")
    for bad in values[~(np.abs(values) <= 1.0 + DEFAULT_CLAMP_TOL)][:1].tolist():
        if not math.isfinite(bad):
            raise DomainError(f"cos value must be finite, got {bad}")
        raise DomainError(f"cos value {bad} lies outside [-1, 1] beyond tolerance")
    phi_in = np.asarray(phi_in, dtype=np.float64)
    if phi_in.shape != values.shape:
        raise DomainError(
            f"phi_in must hold one phase per cosine: shape {phi_in.shape} for {values.size} cosines"
        )
    ok = np.isfinite(phi_in)
    if not np.all(ok):
        k, bad = _first_failure(ok, phi_in)
        raise DomainError(f"phi_in must be finite, got {bad} at row {k}")
    # math.acos per value: np.arccos need not round like libm.
    principal = np.array(list(map(math.acos, np.clip(values, -1.0, 1.0).tolist())))
    out = np.copysign(principal, -np.sin(phi_in))
    return out + TWO_PI * np.round((-phi_in - out) / TWO_PI)


def phase_histogram(phases, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of wrapped output phases over [-pi, pi).

    ``phases`` is any array-like of finite angles; the total count equals
    its length, so a non-finite phase raises.  Returns (bin_edges, counts).
    """
    if int(n_bins) != n_bins or n_bins < 2:
        raise DomainError(f"n_bins must be an integer >= 2, got {n_bins}")
    edges = np.linspace(-math.pi, math.pi, int(n_bins) + 1)
    phases = np.asarray(phases, dtype=np.float64)
    ok = np.isfinite(phases)
    if not np.all(ok):
        k, bad = _first_failure(ok, phases)
        raise DomainError(f"phases must be finite, got {bad} at row {k}")
    if phases.size == 0:
        return edges, np.zeros(int(n_bins), dtype=np.int64)
    counts, _ = np.histogram(wrap_phase(phases), bins=edges)
    return edges, counts.astype(np.int64)
