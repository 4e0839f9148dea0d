"""Campaign runners that produce the figure-shaped datasets.

Each runner walks an ordered grid (input phase, pump power or detuning),
evaluates the amplifier plus detection chain at every point, and collects
named columns into a SweepResult whose metadata suffices to reproduce it
bit for bit.  Grid points are independent work items: every point derives
its own RNG seed from (master seed, point index), so results cannot
depend on evaluation order.

Two pipelines are supported.  ``model_exact`` evaluates the measurement
equations in closed form; ``full_beatnote`` synthesizes cell-on/cell-off
records and pushes them through the spectral-peak analyzer.  Noiseless,
the two agree on every reported series, which is the central cross-module
check.

The measured gain is the 2*delta peak ratio: for unequal seeds that equals
sqrt(G_s * G_i), so the transfer-curve runner reports the signal gain G_s
separately and restricts the beatnote pipeline to equal seeds, where the
cosine readout of the output phase is exact.  Phase-insensitive gain is
read from the delta-peak ratio rho = |on|/|off| (pump-signal beat, the
only beat present without an idler seed) inverted through the two-mode
constraint cosh^2 - sinh^2 = 1: g_pia = ((rho + 1/rho)/2)**2, which makes
the implied maximum gain rho**2 agree exactly with the seeded measurement.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .analyzer import DEFAULT_CLAMP_TOL, block_peaks, cos_readout, gain_ratio, unwrap_cos_scan
from .beatnote import CELL_OFF, CELL_ON, DetectionConfig, synthesize_block
from .calibration import CalibrationMap, default_calibration, effective_r, resolve_amplifier
from .errors import DomainError, check_number
from .squeezer import R_MAX, AmplifierParams, evolve_block, psa_max_from_pia, wrap_phase

SCAN_KINDS = (
    "phase_scan",
    "power_sweep",
    "pia_compare",
    "detuning_spectrum",
    "transfer_curve",
)
PIPELINES = ("model_exact", "full_beatnote")

# Pump-power range the amplifier cell is characterised over.
POWER_RANGE_MW = (0.0, 80.0)

# An extremum search whose sampled gains spread less than this fraction of
# the largest is flat to rounding (no squeezing): its extremes are final.
EXTREMA_FLAT_RTOL = 1e-13

# A sweep point counts as "pure PSA" while |g_min - 1/g_max| stays within
# this fraction of 1/g_max; the largest such detuning is the bandwidth.
BANDWIDTH_TOLERANCE = 0.05

# full_beatnote synthesizes and reads at most this many records per block.
# At 2,000 samples an 8-row array is 125 kB; larger temporaries, mapped and
# page-faulted afresh on each allocation, measured slower and cost memory.
# The extremum search samples gain**2, a degree-2 trig polynomial in 2*phi_p
# (5 coefficients), at phi_p = k*pi/RECORD_BLOCK, so RECORD_BLOCK must be >= 5.
RECORD_BLOCK = 8
_EXTREMA_PHASES = np.arange(RECORD_BLOCK) * (math.pi / RECORD_BLOCK)
_EXTREMA_DFT = np.exp(-2j * np.outer(np.arange(3), _EXTREMA_PHASES)) / RECORD_BLOCK

# Noisy cosine readouts may overshoot the unit circle by this many standard
# deviations of the propagated delta-bin noise before extraction errors out.
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
        if self.pipeline == "full_beatnote":
            if self.kind == "transfer_curve" and self.input_ratio != 1.0:
                raise DomainError(
                    "full_beatnote transfer curves need equal signal/idler seeds "
                    "(input_ratio = 1); the cosine phase readout assumes the reduced "
                    "beatnote form.  Run mixed seeds through model_exact."
                )
            if self.kind == "pia_compare" and self.detection.residual_pump_intensity <= 0.0:
                raise DomainError(
                    "full_beatnote pia_compare needs residual_pump_intensity > 0 "
                    "(the pump-signal beat is the only observable without an idler seed)"
                )
            if self.kind == "detuning_spectrum":
                if self.amplifier.detuning <= 0.0:
                    raise DomainError(
                        "full_beatnote detuning_spectrum scales the sampling from "
                        "amplifier.detuning, which must be > 0"
                    )
                if min(self.grid) == 0.0:
                    raise DomainError(
                        "full_beatnote detuning grid holds delta = 0 kHz: the non-degenerate "
                        "beat is undefined at delta = 0; start the grid above 0 or run model_exact"
                    )
                for delta in self.grid:
                    self.detection_for(delta).validate_for_delta(delta)
            else:
                self.detection.validate_for_delta(self.amplifier.detuning)
        self._validate_operating_points()

    def _validate_operating_points(self) -> None:
        """r <= R_MAX and loss >= exp(-2*R_MAX) at the grid's ends, so nothing overflows."""
        points = self.operating_points()
        key = "grid" if self.kind == "detuning_spectrum" else "amplifier.detuning"
        for power, delta in points[:1] + points[-1:]:
            try:
                r, loss = effective_r(power, delta, self.calibration)
            except OverflowError:  # (delta / bandwidth_hwhm) ** 2
                raise DomainError(f"{key}: {delta:g} kHz overflows the detuning window") from None
            if not (r <= R_MAX and loss >= math.exp(-2.0 * R_MAX)):
                raise DomainError(f"calibration: gives r = {r:g}, loss {loss:g} at {power:g} mW "
                                  f"{delta:g} kHz; expect r <= {R_MAX:g}, loss >= e^-{2 * R_MAX:g}")

    def operating_points(self) -> list[tuple[float, float]]:
        """(pump power, detuning) of each grid point; one for a phase grid, or none at a set r."""
        amp = self.amplifier
        if self.kind == "detuning_spectrum":
            return [(amp.pump_power, delta) for delta in self.grid]
        if self.kind in ("power_sweep", "pia_compare"):
            return [(power, amp.detuning) for power in self.grid]
        if amp.r is not None or amp.pump_power is None:  # no calibrated point
            return []
        return [(amp.pump_power, amp.detuning)]

    def detection_for(self, delta: float) -> DetectionConfig:
        """The detection config at one beat frequency.

        Detuning sweeps keep samples-per-period constant by scaling the
        sample rate with the beat frequency.
        """
        cfg = self.detection
        if delta == self.amplifier.detuning:
            return cfg
        return replace(cfg, sample_rate=cfg.sample_rate / self.amplifier.detuning * delta)

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


def point_seed(master_seed: int, index: int) -> int:
    """Per-grid-point seed derived from the master seed and point index."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


class _Pipeline:
    def __init__(self, spec: ScanSpec):
        self.spec = spec
        self.a_s, self.a_i = spec.input_fields()

    def _outputs(self, r: float, loss: float, phases, idler: complex):
        """(s_out, i_out) after the loss, at phases wrapped as AmplifierParams stores them."""
        scale = math.sqrt(loss)
        phases = wrap_phase(np.asarray(phases, dtype=np.float64))
        return tuple(z * scale for z in evolve_block(self.a_s, idler, r, phases))


class _ModelPipeline(_Pipeline):
    """Closed-form evaluation of the noiseless measurement chain."""

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple[float, float]:
        if self.spec.input_ratio == 1.0:
            return loss * math.exp(2.0 * r), loss * math.exp(-2.0 * r)
        c, s = math.cosh(r), math.sinh(r)
        kappa = abs(self.a_i) / abs(self.a_s)
        top = (c + s * kappa) * (c + s / kappa)
        bottom = abs(c - s * kappa) * abs(c - s / kappa)
        return loss * top, loss * bottom

    def scan_grid(self, r: float, loss: float, phases, transfer: bool) -> tuple[np.ndarray, ...]:
        """Columns (gain,) or, for a transfer curve, (gain, gain_idler, cos_out) over the grid."""
        s_out, i_out = self._outputs(r, loss, phases, self.a_i)
        # hypot and float_power round as Python's abs(complex) and float ** 2.
        s_abs, i_abs = np.hypot(s_out.real, s_out.imag), np.hypot(i_out.real, i_out.imag)
        if not transfer:  # the 2*delta peak ratio, loss * sqrt(G_s * G_i)
            return (s_abs * i_abs / (abs(self.a_s) * abs(self.a_i)),)
        gain = np.float_power(s_abs, 2.0) / abs(self.a_s) ** 2
        gain_idler = np.float_power(i_abs, 2.0) / abs(self.a_i) ** 2
        return gain, gain_idler, np.cos(wrap_phase(np.angle(s_out) - phases))

    def pia_rho(self, r: float, loss: float, index: int, delta: float) -> float:
        """delta-peak on/off amplitude ratio with an unseeded idler."""
        return math.sqrt(loss) * (math.cosh(r) + math.sinh(r))


class _BeatnotePipeline(_Pipeline):
    """Record synthesis plus peak extraction, seeded per grid point.

    Records are synthesized and read as (P, N) blocks: P pump phases of
    one grid point, or up to RECORD_BLOCK grid points of a scan.
    """

    def _seeds(self, indices) -> list[int] | None:
        """Noise seeds of the grid points; noiseless records draw none."""
        noisy = self.spec.detection.noise_sigma > 0.0
        return [point_seed(self.spec.master_seed, k) for k in indices] if noisy else None

    def _peaks(self, s_out, i_out, phases, delta, stream, seeds):
        cfg = self.spec.detection_for(delta)
        block = synthesize_block(s_out, i_out, phases, delta, cfg, stream, seeds)
        return block_peaks(block, cfg.sample_rate, delta)

    def _on_peaks(self, r, loss, phases, delta, seeds, idler):
        s_out, i_out = self._outputs(r, loss, phases, idler)
        return self._peaks(s_out, i_out, phases, delta, CELL_ON, seeds)

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple[float, float]:
        """Measured gains at the pump phases of largest and smallest gain.

        The 2*delta on-peak is linear in z = exp(2j*phi_p), noise included, so
        gain**2 = c0 + 2*Re(c1*z + c2*z**2), fixed by one block at phi_p =
        k*pi/RECORD_BLOCK.  Its stationary points are the roots of 2*c2*z**4
        + c1*z**3 - conj(c1)*z - 2*conj(c2) (Boyd, J. Eng. Math. 56:203, 2006);
        the gain is measured again at the largest and smallest.  One cell-off
        row serves the search: its 2*delta peak ignores the pump phase.
        """
        seeds = self._seeds((index,))
        off_dc, _, reference = self._peaks(self.a_s, self.a_i, 0.0, delta, CELL_OFF, seeds)

        def gain(phases) -> np.ndarray:
            on = self._on_peaks(r, loss, phases, delta, seeds, self.a_i)[2]
            return gain_ratio(on, reference, off_dc)

        gains = gain(_EXTREMA_PHASES)
        top, bottom = float(gains.max()), float(gains.min())
        if top - bottom <= EXTREMA_FLAT_RTOL * top:  # r = 0: c1 = c2 = 0, no roots
            return top, bottom
        _, c1, c2 = _EXTREMA_DFT @ (gains * gains)
        x = np.angle(np.roots((2.0 * c2, c1, 0.0, -c1.conjugate(), -2.0 * c2.conjugate())))
        shape = (c1 * np.exp(1j * x) + c2 * np.exp(2j * x)).real
        return tuple(gain(0.5 * x[[np.argmax(shape), np.argmin(shape)]] % math.pi))

    def scan_grid(self, r: float, loss: float, phases, transfer: bool) -> tuple[np.ndarray, ...]:
        """Columns (gain,) or (gain, gain, cos_out) over the grid, RECORD_BLOCK points at a time.

        Each grid point keeps its own on/off record pair and noise seed.
        """
        delta = self.spec.amplifier.detuning
        blocks = []
        for start in range(0, len(phases), RECORD_BLOCK):
            block = phases[start : start + RECORD_BLOCK]
            seeds = self._seeds(range(start, start + len(block)))
            _, on_delta, on_two_delta = self._on_peaks(r, loss, block, delta, seeds, self.a_i)
            off_dc, _, reference = self._peaks(self.a_s, self.a_i, block, delta, CELL_OFF, seeds)
            gain = gain_ratio(on_two_delta, reference, off_dc)
            blocks.append((gain, gain, self._cos_out(on_delta, gain)) if transfer else (gain,))
        return tuple(np.concatenate(column) for column in zip(*blocks))

    def _cos_out(self, on_delta: np.ndarray, gain: np.ndarray) -> np.ndarray:
        cfg = self.spec.detection
        i_s = abs(self.a_s) ** 2
        clamp_tol = DEFAULT_CLAMP_TOL
        if cfg.noise_sigma > 0.0:
            # Propagated bin-amplitude noise on the cosine readout.
            scale = 4.0 * np.sqrt(cfg.residual_pump_intensity * gain * i_s)
            sigma = cfg.noise_sigma * math.sqrt(2.0 / cfg.n_samples) / scale
            clamp_tol = np.maximum(clamp_tol, COS_CLAMP_SIGMAS * sigma)
        return cos_readout(on_delta, cfg.residual_pump_intensity, gain, i_s, clamp_tol)

    def pia_rho(self, r: float, loss: float, index: int, delta: float) -> float:
        seeds = self._seeds((index,))
        _, on, _ = self._on_peaks(r, loss, (0.0,), delta, seeds, 0j)
        _, off, _ = self._peaks(self.a_s, 0j, 0.0, delta, CELL_OFF, seeds)
        reference = abs(off[0])
        if reference <= 0.0:
            raise DomainError("no pump-signal reference beat in the cell-off record")
        return abs(on[0]) / reference


def _pipeline(spec: ScanSpec):
    return _ModelPipeline(spec) if spec.pipeline == "model_exact" else _BeatnotePipeline(spec)


def _base_metadata(spec: ScanSpec, x_name: str) -> dict:
    return {
        "kind": spec.kind,
        "x_name": x_name,
        "scan_spec": asdict(spec),
        "master_seed": spec.master_seed,
        "version": __version__,
    }


def _require_kind(spec: ScanSpec, kind: str) -> None:
    if spec.kind != kind:
        raise DomainError(f"{_RUNNERS[kind].__name__} needs kind={kind!r}, got {spec.kind!r}")


def _pia_gain_from_rho(rho: float) -> float:
    """Invert the delta-peak ratio through cosh^2 - sinh^2 = 1."""
    c = 0.5 * (rho + 1.0 / rho)
    return c * c


def run_phase_scan(spec: ScanSpec) -> SweepResult:
    """Gain versus the scanned pump-signal input phase (piezo emulation)."""
    _require_kind(spec, "phase_scan")
    r, loss = resolve_amplifier(spec.amplifier, spec.calibration)
    (gains,) = _pipeline(spec).scan_grid(r, loss, spec.grid, transfer=False)
    return SweepResult(np.asarray(spec.grid), {"gain": gains}, _base_metadata(spec, "phi_in"))


def _operating_points(spec: ScanSpec, measure) -> tuple[np.ndarray, ...]:
    """Columns of ``measure(r, loss, index, delta)`` over the spec's operating points."""
    rows = []
    for idx, (power, delta) in enumerate(spec.operating_points()):
        r, loss = effective_r(power, delta, spec.calibration)
        rows.append(measure(r, loss, idx, delta))
    return tuple(np.asarray(column) for column in zip(*rows))


def run_power_sweep(spec: ScanSpec) -> SweepResult:
    """Extremal gains versus pump power through the calibration map."""
    _require_kind(spec, "power_sweep")
    g_max, g_min = _operating_points(spec, _pipeline(spec).gain_extrema)
    columns = {"g_max": g_max, "g_min": g_min, "inv_g_max": 1.0 / g_max}
    return SweepResult(np.asarray(spec.grid), columns, _base_metadata(spec, "power_mw"))


def run_pia_compare(spec: ScanSpec) -> SweepResult:
    """Seeded-idler maximum gain versus unseeded (phase-insensitive) gain."""
    _require_kind(spec, "pia_compare")
    pipe = _pipeline(spec)

    def measure(*point) -> tuple[float, float, float]:
        top, _ = pipe.gain_extrema(*point)
        pia = _pia_gain_from_rho(pipe.pia_rho(*point))
        return top, pia, psa_max_from_pia(pia)

    g_max, g_pia, g_from_pia = _operating_points(spec, measure)
    columns = {"g_max": g_max, "g_pia": g_pia, "g_max_from_pia": g_from_pia}
    return SweepResult(np.asarray(spec.grid), columns, _base_metadata(spec, "power_mw"))


def run_detuning_spectrum(spec: ScanSpec) -> SweepResult:
    """Extremal gains versus pump-signal detuning, plus the bandwidth.

    The bandwidth is the largest grid detuning for which g_min stays within
    BANDWIDTH_TOLERANCE of its pure-squeezer value 1/g_max; it is stored in
    the metadata.  The detuning response is a calibrated, phenomenological
    reproduction and the metadata flags it as such.
    """
    _require_kind(spec, "detuning_spectrum")
    g_max, g_min = _operating_points(spec, _pipeline(spec).gain_extrema)
    ideal = 1.0 / g_max
    pure = np.abs(g_min - ideal) <= BANDWIDTH_TOLERANCE * ideal
    deltas = np.asarray(spec.grid)
    metadata = _base_metadata(spec, "delta_khz")
    metadata["bandwidth_khz"] = float(deltas[pure].max()) if pure.any() else None
    metadata["bandwidth_tolerance"] = BANDWIDTH_TOLERANCE
    metadata["detuning_model"] = "phenomenological (Lorentzian window + Gaussian loss)"
    columns = {"g_max": g_max, "g_min": g_min, "inv_g_max": ideal}
    return SweepResult(deltas, columns, metadata)


def run_transfer_curve(spec: ScanSpec) -> SweepResult:
    """Phase-to-phase transfer: signal gain and output phase per input phase.

    The output phase is reconstructed from the cosine readout with branch
    continuity along the scan (anchored on the principal branch at the
    first point) and reported both unwrapped and wrapped to [-pi, pi).
    """
    _require_kind(spec, "transfer_curve")
    r, loss = resolve_amplifier(spec.amplifier, spec.calibration)
    gains, gains_idler, cosines = _pipeline(spec).scan_grid(r, loss, spec.grid, transfer=True)
    unwrapped = unwrap_cos_scan(cosines)
    columns = {
        "gain": gains,
        "gain_idler": gains_idler,
        "cos_phi_out": cosines,
        "phi_out_wrapped": wrap_phase(unwrapped),
        "phi_out_unwrapped": unwrapped,
    }
    return SweepResult(np.asarray(spec.grid), columns, _base_metadata(spec, "phi_in"))


_RUNNERS = {
    "phase_scan": run_phase_scan,
    "power_sweep": run_power_sweep,
    "pia_compare": run_pia_compare,
    "detuning_spectrum": run_detuning_spectrum,
    "transfer_curve": run_transfer_curve,
}


def run_scan(spec: ScanSpec) -> SweepResult:
    """Dispatch a ScanSpec to its runner."""
    return _RUNNERS[spec.kind](spec)
