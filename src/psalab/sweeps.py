"""The campaign runner that produces the figure-shaped datasets.

``run_scan`` walks a ScanSpec's ordered grid (input phase, pump power or
detuning), evaluates the amplifier plus detection chain at every point, and
collects its kind's named columns into a SweepResult whose metadata suffices
to reproduce it bit for bit.  Grid points are independent work items: every
point derives its own RNG seed from (master seed, point index), so results
cannot depend on evaluation order.

The two pipelines differ only in how they obtain the DC, delta and 2*delta
spectrum peaks: ``model_exact`` in closed form, ``full_beatnote`` from
synthesized cell-on/cell-off records.  Noiseless, they agree on every
reported series, which is the central cross-module check.

The measured gain is the 2*delta peak ratio, sqrt(G_s * G_i): a transfer
curve of unequal seeds reports G_s and G_i from the evolved fields, so only
model_exact runs one.  Phase-insensitive gain is read from the delta-peak
ratio rho = |on|/|off| (pump-signal beat, the only beat present without an
idler seed) inverted through cosh^2 - sinh^2 = 1: g_pia = ((rho + 1/rho)/2)**2,
which makes the implied maximum gain rho**2 agree exactly with the seeded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .analyzer import DEFAULT_CLAMP_TOL, block_peaks, cos_readout, gain_ratio, unwrap_cos_scan
from .beatnote import (CELL_OFF, CELL_ON, DetectionConfig, _standard_normals, seed_words,
                       synthesize_block)
from .calibration import CalibrationMap, default_calibration, effective_r
from .errors import DomainError, check_number
from .squeezer import R_MAX, AmplifierParams, evolve_block, psa_max_from_pia, wrap_phase

PIPELINES = ("model_exact", "full_beatnote")

# Pump-power range the amplifier cell is characterised over.
POWER_RANGE_MW = (0.0, 80.0)

# An extremum search whose fitted phase terms |B| + |C| are below this fraction
# of |A| is flat to rounding (no squeezing): its measured extremes are final.
EXTREMA_FLAT_RTOL = 1e-13

# A sweep point counts as "pure PSA" while |g_min - 1/g_max| stays within
# this fraction of 1/g_max; the largest such detuning is the bandwidth.
BANDWIDTH_TOLERANCE = 0.05

# full_beatnote synthesizes and reads at most this many records per block.
# At 2,000 samples an 8-row array is 125 kB; larger temporaries, mapped and
# page-faulted afresh on each allocation, measured slower and cost memory.
RECORD_BLOCK = 8

# Noisy cosine readouts may overshoot the unit circle by this many standard
# deviations of their propagated bin noise before extraction errors out.
COS_CLAMP_SIGMAS = 6.0


@dataclass(frozen=True)
class ScanSpec:
    """Complete, serialisable description of one campaign."""

    kind: str
    grid: tuple[float, ...]
    amplifier: AmplifierParams = field(default_factory=AmplifierParams)
    calibration: CalibrationMap = field(default_factory=default_calibration)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    input_ratio: float = 1.0
    pipeline: str = "model_exact"

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise DomainError(f"kind: expected one of {SCAN_KINDS}, got {self.kind!r}")
        if self.pipeline not in PIPELINES:
            raise DomainError(f"pipeline: expected one of {PIPELINES}, got {self.pipeline!r}")
        grid = tuple(float(x) for x in self.grid)
        if not grid:
            raise DomainError("grid: expected a non-empty sequence")
        if any(not math.isfinite(x) for x in grid):
            raise DomainError("grid: expected finite values")
        steps = np.diff(grid)
        if len(grid) > 1 and not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise DomainError("grid: expected strictly monotone values")
        object.__setattr__(self, "grid", grid)
        ratio = check_number("input_ratio", self.input_ratio, 0.0, strict=True)
        object.__setattr__(self, "input_ratio", ratio)
        self._validate_kind()

    def _validate_kind(self) -> None:
        lo, hi = min(self.grid), max(self.grid)
        if self.kind == "phase_scan":
            if hi - lo < 2.0 * math.pi - 1e-9:
                raise DomainError(
                    f"phase_scan grid must cover at least 2*pi radians, got span {hi - lo}"
                )
        elif self.kind in ("power_sweep", "pia_compare"):
            if lo < POWER_RANGE_MW[0] or hi > POWER_RANGE_MW[1]:
                raise DomainError(
                    f"power grid must lie within {POWER_RANGE_MW} mW, got [{lo}, {hi}]"
                )
            if self.amplifier.r is not None:
                raise DomainError(
                    f"{self.kind} derives r from the calibration map per grid power; "
                    "leave amplifier.r unset"
                )
        elif self.kind == "detuning_spectrum":
            if lo < 0.0:
                raise DomainError(f"detuning grid must be >= 0 kHz, got minimum {lo}")
            if self.amplifier.r is not None or self.amplifier.pump_power is None:
                raise DomainError(
                    "detuning_spectrum needs a power-driven amplifier "
                    "(set amplifier.pump_power, leave amplifier.r unset)"
                )
        beatnote = self.pipeline == "full_beatnote"
        if self.kind == "transfer_curve" or (beatnote and self.kind == "pia_compare"):
            # The phase readout and the PIA ratio beat the seeds against the pump.
            pump = self.detection.residual_pump_intensity
            check_number("detection.residual_pump_intensity", pump, 0.0, strict=True)
        if beatnote:
            if self.kind == "transfer_curve" and self.input_ratio != 1.0:
                raise DomainError(
                    "full_beatnote transfer curves need equal signal/idler seeds "
                    "(input_ratio = 1); the cosine phase readout assumes the reduced "
                    "beatnote form.  Run mixed seeds through model_exact."
                )
            # The records sample the beat at the detuning; a spectrum scales from it.
            detuning = check_number("amplifier.detuning", self.amplifier.detuning, 0.0, strict=True)
            if self.kind == "detuning_spectrum" and min(self.grid) == 0.0:
                raise DomainError(
                    "full_beatnote detuning grid holds delta = 0 kHz: the non-degenerate "
                    "beat is undefined at delta = 0; start the grid above 0 or run model_exact"
                )
            try:
                for delta in self.grid if self.kind == "detuning_spectrum" else (detuning,):
                    self.detection_for(delta).validate_for_delta(delta)
            except DomainError as err:  # it names the detection field it bounds
                raise DomainError(f"detection.{err}") from None
            try:  # a record block numpy can hold
                np.empty((RECORD_BLOCK, self.detection.n_samples))
            except (ValueError, MemoryError) as err:  # numpy's _ArrayMemoryError: too many samples
                raise DomainError(f"detection.n_samples: {err}") from None
        self._validate_operating_points()

    def _validate_operating_points(self) -> None:
        """r <= R_MAX and loss >= exp(-2*R_MAX) at every point, so nothing overflows."""
        try:
            points = self.operating_points()
        except OverflowError:  # (delta / bandwidth_hwhm) ** 2 at the largest detuning
            spectrum = self.kind == "detuning_spectrum"
            key = "grid" if spectrum else "amplifier.detuning"
            delta = max(self.grid) if spectrum else self.amplifier.detuning
            raise DomainError(f"{key}: {delta:g} kHz overflows the detuning window") from None
        for k, (r, loss, delta) in enumerate(points):
            if not (r <= R_MAX and loss >= math.exp(-2.0 * R_MAX)):  # an explicit r passes
                sweep = self.kind in ("power_sweep", "pia_compare")
                power = self.grid[k] if sweep else self.amplifier.pump_power
                raise DomainError(f"calibration: gives r = {r:g}, loss {loss:g} at {power:g} mW "
                                  f"{delta:g} kHz; expect r <= {R_MAX:g}, loss >= e^-{2 * R_MAX:g}")

    def operating_points(self) -> list[tuple[float, float, float]]:
        """(r, loss, detuning) at each grid point of a power or detuning sweep, or at the
        one point a phase grid is scanned at.  An explicit r is the lossless squeezer and
        wins over pump_power; a pump power goes through the calibration map."""
        amp = self.amplifier
        if self.kind == "detuning_spectrum":
            points = [(amp.pump_power, delta) for delta in self.grid]
        elif self.kind in ("power_sweep", "pia_compare"):
            points = [(power, amp.detuning) for power in self.grid]
        elif amp.r is not None:
            return [(amp.r, 1.0, amp.detuning)]
        elif amp.pump_power is None:
            raise DomainError("amplifier: needs either r or pump_power to be set")
        else:
            points = [(amp.pump_power, amp.detuning)]
        return [(*effective_r(power, delta, self.calibration), delta) for power, delta in points]

    def detection_for(self, delta: float) -> DetectionConfig:
        """The detection config at one beat frequency: detuning sweeps keep the
        samples per period constant by scaling the sample rate with it."""
        cfg = self.detection
        if delta == self.amplifier.detuning:
            return cfg
        return replace(cfg, sample_rate=cfg.sample_rate / self.amplifier.detuning * delta)

    def as_dict(self) -> dict:
        """``dataclasses.asdict``, shallow: the grid is shared, nested dataclasses hold scalars."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: dict(vars(v)) if is_dataclass(v) else v for key, v in values.items()}

    @property
    def master_seed(self) -> int:
        return self.detection.rng_seed

    def input_fields(self) -> tuple[complex, complex]:
        """Unit signal seed plus idler seed at 1/sqrt(input_ratio)."""
        return complex(1.0), complex(1.0 / math.sqrt(self.input_ratio))


@dataclass
class SweepResult:
    """Tabular sweep output: x, named columns and reproduction metadata."""

    x: np.ndarray
    columns: dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.columns = {k: np.asarray(v, dtype=np.float64) for k, v in self.columns.items()}
        for name, col in self.columns.items():
            if col.shape != self.x.shape:
                raise DomainError(f"column {name!r} length {col.size} != grid length {self.x.size}")


def point_seed(master_seed: int, index):
    """Per-grid-point seed, ``SeedSequence(master_seed, spawn_key=(index,))``'s first
    64-bit word: an int, or a uint64 array of them for an array of indices."""
    seeds = seed_words(master_seed, index, 1)[..., 0]
    return seeds if np.ndim(index) else int(seeds)


class _Pipeline:
    """The measurement chain, written once over the pipelines' one seam, ``peaks``."""

    def __init__(self, spec: ScanSpec):
        self.spec = spec
        self.a_s, self.a_i = spec.input_fields()

    def peaks(self, s_out, i_out, phases, delta: float, stream, points):
        """(dc, at_delta, at_two_delta) of the record at each pump phase, a row each; ``stream``
        and ``points`` (a grid index; rows of one share its noise) are scalars or one per row."""
        raise NotImplementedError

    def _outputs(self, r: float, loss: float, phases, idler: complex):
        """(s_out, i_out) after the loss, at phases wrapped as AmplifierParams stores them."""
        scale = math.sqrt(loss)
        phases = wrap_phase(np.asarray(phases, dtype=np.float64))
        return tuple(z * scale for z in evolve_block(self.a_s, idler, r, phases))

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple[float, float]:
        """Measured gains at the pump phases of largest and smallest gain.

        The 2*delta on-peak is affine in z = exp(2j*phi_p) and conj(z), noise
        included: on = A + B*z + C*conj(z), fixed by one block at phi_p = 0,
        pi/3, 2*pi/3 through the 3-point DFT.  Then gain**2 is proportional to
        |A|**2 + |B|**2 + |C|**2 + 2*Re(c1*z + c2*z**2), c1 = conj(A)*B + A*conj(C)
        and c2 = B*conj(C), whose stationary points are the roots of 2*c2*z**4
        + c1*z**3 - conj(c1)*z - 2*conj(c2) (Boyd, J. Eng. Math. 56:203, 2006);
        the gain is measured again at the largest and smallest.  One cell-off row,
        whose 2*delta peak ignores the pump phase, leads the fit block: two blocks a point.
        """
        fit = np.arange(3) * (math.pi / 3.0)
        s_out, i_out = self._outputs(r, loss, fit, self.a_i)
        streams = (CELL_OFF, CELL_ON, CELL_ON, CELL_ON)
        dc, _, two_delta = self.peaks(np.r_[self.a_s, s_out], np.r_[self.a_i, i_out],
                                      np.r_[0.0, fit], delta, streams, index)
        off_dc, reference, on = dc[:1], two_delta[:1], two_delta[1:]
        a, b, c = np.fft.fft(on) / 3.0
        if abs(b) + abs(c) <= EXTREMA_FLAT_RTOL * abs(a):  # r = 0: c1 = c2 = 0, no roots
            gains = gain_ratio(on, reference, off_dc)
            return float(gains.max()), float(gains.min())
        c1, c2 = a.conjugate() * b + a * c.conjugate(), b * c.conjugate()
        companion = np.diag(np.ones(3, complex), -1)  # np.roots' matrix of the quartic
        companion[0] = -np.array((c1, 0.0, -c1.conjugate(), -2.0 * c2.conjugate())) / (2.0 * c2)
        x = np.angle(np.linalg.eigvals(companion))
        shape = (c1 * np.exp(1j * x) + c2 * np.exp(2j * x)).real
        phases = 0.5 * x[[np.argmax(shape), np.argmin(shape)]] % math.pi
        s_out, i_out = self._outputs(r, loss, phases, self.a_i)
        on = self.peaks(s_out, i_out, phases, delta, CELL_ON, index)[2]
        return tuple(gain_ratio(on, reference, off_dc))

    def scan_grid(self, r: float, loss: float, phases, transfer: bool) -> tuple[np.ndarray, ...]:
        """Columns (gain,) or, for a transfer curve, (gain, gain_idler, cos_out) over the grid;
        each grid point keeps its own on/off record pair and noise seed."""
        phases = np.asarray(phases, dtype=np.float64)
        s_out, i_out = self._outputs(r, loss, phases, self.a_i)
        if transfer and self.spec.input_ratio != 1.0:
            # No peak ratio gives G_s, G_i or the signal phase of unequal seeds.
            # hypot and float_power round as Python's abs(complex) and float ** 2.
            gain, gain_idler = (
                np.float_power(np.hypot(z.real, z.imag), 2.0) / abs(a) ** 2
                for z, a in ((s_out, self.a_s), (i_out, self.a_i))
            )
            return gain, gain_idler, np.cos(wrap_phase(np.angle(s_out) - phases))
        delta, points = self.spec.amplifier.detuning, np.arange(phases.size)
        _, on_delta, on_two_delta = self.peaks(s_out, i_out, phases, delta, CELL_ON, points)
        off_dc, _, reference = self.peaks(self.a_s, self.a_i, phases, delta, CELL_OFF, points)
        gain = gain_ratio(on_two_delta, reference, off_dc)
        if not transfer:
            return (gain,)
        return gain, gain, self._cos_out(on_delta, gain, on_two_delta, reference)

    def _cos_out(self, on_delta, gain, on_two_delta, reference) -> np.ndarray:
        cfg = self.spec.detection
        i_s = abs(self.a_s) ** 2
        clamp_tol = DEFAULT_CLAMP_TOL
        if cfg.noise_sigma > 0.0:
            # First-order bin noise on cos = Re(on_delta) / scale: the delta bin's, plus the
            # gain ratio's, whose 2*delta on and off bins each carry cos / 2 of theirs.
            scale = 4.0 * np.sqrt(cfg.residual_pump_intensity * gain * i_s)
            half_cos = 0.5 * np.real(on_delta) / scale
            rel = half_cos**2 * (1.0 / np.abs(on_two_delta) ** 2 + 1.0 / np.abs(reference) ** 2)
            sigma = cfg.noise_sigma * math.sqrt(2.0 / cfg.n_samples) * np.sqrt(scale**-2.0 + rel)
            clamp_tol = np.maximum(clamp_tol, COS_CLAMP_SIGMAS * sigma)
        return cos_readout(on_delta, cfg.residual_pump_intensity, gain, i_s, clamp_tol)

    def pia_rho(self, r: float, loss: float, index: int, delta: float) -> float:
        """delta-peak on/off amplitude ratio with an unseeded idler, read as one block."""
        s_out, i_out = self._outputs(r, loss, (0.0,), 0j)
        _, on_off, _ = self.peaks(np.r_[s_out, self.a_s], np.r_[i_out, 0j], (0.0, 0.0), delta,
                                  (CELL_ON, CELL_OFF), index)
        return abs(on_off[0]) / abs(on_off[1])  # ScanSpec refuses a beatnote PIA without the pump


class _ModelPipeline(_Pipeline):
    """Closed-form peaks of noiseless records, plus closed-form extrema and PIA
    ratio in place of the measured ones: they are the oracle, and faster."""

    def peaks(self, s_out, i_out, phases, delta, stream, points):
        i_p = self.spec.detection.residual_pump_intensity
        lo = np.exp(1j * np.asarray(phases, dtype=np.float64))
        dc = i_p + np.abs(s_out) ** 2 + np.abs(i_out) ** 2
        at_delta = 2.0 * math.sqrt(i_p) * (s_out * lo.conjugate() + np.conjugate(i_out) * lo)
        return dc, at_delta, 2.0 * s_out * np.conjugate(i_out)

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple[float, float]:
        if self.spec.input_ratio == 1.0:
            return loss * math.exp(2.0 * r), loss * math.exp(-2.0 * r)
        c, s = math.cosh(r), math.sinh(r)
        kappa = abs(self.a_i) / abs(self.a_s)
        top = (c + s * kappa) * (c + s / kappa)
        bottom = abs(c - s * kappa) * abs(c - s / kappa)
        return loss * top, loss * bottom

    def pia_rho(self, r: float, loss: float, index: int, delta: float) -> float:
        return math.sqrt(loss) * (math.cosh(r) + math.sinh(r))


class _BeatnotePipeline(_Pipeline):
    """Peaks read from synthesized records, seeded per grid point."""

    def __init__(self, spec: ScanSpec):
        super().__init__(spec)
        if spec.detection.noise_sigma > 0.0:  # noiseless runs derive no seeds
            seeds = point_seed(spec.master_seed, np.arange(len(spec.grid)))
            # PCG64 seed words, indexed [stream, grid index]: CELL_ON is 0, CELL_OFF 1.
            self._words = seed_words(seeds, np.array([[CELL_ON], [CELL_OFF]]), 4)

    def peaks(self, s_out, i_out, phases, delta, stream, points):
        """Records synthesized and read as (P, N) blocks of at most RECORD_BLOCK rows."""
        if len(phases) > RECORD_BLOCK:
            s, i, phi, k, st = np.broadcast_arrays(s_out, i_out, phases, points, stream)
            blocks = [
                self.peaks(s[rows], i[rows], phi[rows], delta, st[rows], k[rows])
                for rows in (slice(n, n + RECORD_BLOCK) for n in range(0, len(phi), RECORD_BLOCK))
            ]
            return tuple(np.concatenate(column) for column in zip(*blocks))
        cfg = self.spec.detection_for(delta)
        noise = _standard_normals(self._words[stream, points], cfg) if cfg.noise_sigma else None
        block = synthesize_block(s_out, i_out, phases, delta, cfg, noise)
        return block_peaks(block, cfg.sample_rate, delta)


def _gain_vs_phase(spec: ScanSpec, pipe: _Pipeline, metadata: dict) -> dict:
    """Gain versus the scanned pump-signal input phase (piezo emulation)."""
    ((r, loss, _),) = spec.operating_points()
    return {"gain": pipe.scan_grid(r, loss, spec.grid, transfer=False)[0]}


def _extrema(spec: ScanSpec, pipe: _Pipeline, metadata: dict) -> dict:
    """Extremal gains versus pump power through the calibration map, or versus detuning."""
    extrema = [
        pipe.gain_extrema(r, loss, k, delta)
        for k, (r, loss, delta) in enumerate(spec.operating_points())
    ]
    g_max, g_min = map(np.array, zip(*extrema))
    return {"g_max": g_max, "g_min": g_min, "inv_g_max": 1.0 / g_max}


def _pia_compare(spec: ScanSpec, pipe: _Pipeline, metadata: dict) -> dict:
    """Seeded-idler maximum gain versus unseeded (phase-insensitive) gain."""
    rows = []
    for k, (r, loss, delta) in enumerate(spec.operating_points()):
        top, _ = pipe.gain_extrema(r, loss, k, delta)
        rho = pipe.pia_rho(r, loss, k, delta)
        c = 0.5 * (rho + 1.0 / rho)  # g_pia = c**2 inverts rho through cosh^2 - sinh^2 = 1
        rows.append((top, c * c, psa_max_from_pia(c * c)))
    g_max, g_pia, g_from_pia = map(np.array, zip(*rows))
    return {"g_max": g_max, "g_pia": g_pia, "g_max_from_pia": g_from_pia}


def _spectrum(spec: ScanSpec, pipe: _Pipeline, metadata: dict) -> dict:
    """Extremal gains versus pump-signal detuning, plus the bandwidth.

    The bandwidth is the largest grid detuning for which g_min stays within
    BANDWIDTH_TOLERANCE of its pure-squeezer value 1/g_max; it is stored in
    the metadata.  The detuning response is a calibrated, phenomenological
    reproduction and the metadata flags it as such.
    """
    columns = _extrema(spec, pipe, metadata)
    ideal = columns["inv_g_max"]
    pure = np.abs(columns["g_min"] - ideal) <= BANDWIDTH_TOLERANCE * ideal
    deltas = np.asarray(spec.grid)
    metadata["bandwidth_khz"] = float(deltas[pure].max()) if pure.any() else None
    metadata["bandwidth_tolerance"] = BANDWIDTH_TOLERANCE
    metadata["detuning_model"] = "phenomenological (Lorentzian window + Gaussian loss)"
    return columns


def _transfer(spec: ScanSpec, pipe: _Pipeline, metadata: dict) -> dict:
    """Phase-to-phase transfer: signal gain and output phase per input phase.

    The output phase is read from the cosine readout, each point on the
    branch its input phase picks under the equal-seed law
    tan(phi_out) = -exp(-2r)*tan(phi_in), on any grid spacing; see
    ``unwrap_cos_scan``.  A mixed-seed curve whose idler dominates
    (tanh(r) > sqrt(input_ratio)) comes out as its global mirror, the
    cosine readout's blind spot.  The phase is reported both unwrapped and
    wrapped to [-pi, pi).
    """
    ((r, loss, _),) = spec.operating_points()
    gains, gains_idler, cosines = pipe.scan_grid(r, loss, spec.grid, transfer=True)
    unwrapped = unwrap_cos_scan(cosines, spec.grid)
    return {
        "gain": gains,
        "gain_idler": gains_idler,
        "cos_phi_out": cosines,
        "phi_out_wrapped": wrap_phase(unwrapped),
        "phi_out_unwrapped": unwrapped,
    }


# Scan kind -> (x column name, its columns from the spec, its pipeline and the metadata).
_SCANS = {
    "phase_scan": ("phi_in", _gain_vs_phase),
    "power_sweep": ("power_mw", _extrema),
    "pia_compare": ("power_mw", _pia_compare),
    "detuning_spectrum": ("delta_khz", _spectrum),
    "transfer_curve": ("phi_in", _transfer),
}
SCAN_KINDS = tuple(_SCANS)


def run_scan(spec: ScanSpec) -> SweepResult:
    """Run a ScanSpec through its pipeline into the figure-shaped dataset of its kind."""
    x_name, columns = _SCANS[spec.kind]
    pipe = _ModelPipeline(spec) if spec.pipeline == "model_exact" else _BeatnotePipeline(spec)
    metadata = {
        "kind": spec.kind,
        "x_name": x_name,
        "scan_spec": spec.as_dict(),
        "master_seed": spec.master_seed,
        "version": __version__,
    }
    return SweepResult(np.asarray(spec.grid), columns(spec, pipe, metadata), metadata)
