"""The campaign runner that produces the figure-shaped datasets.

``run_scan`` is the one place a scan kind turns into columns.  It walks a
ScanSpec's ordered grid (input phase, pump power or detuning): the phase kinds
read the whole grid through ``_Pipeline.scan_grid``, the three extremum kinds
call ``_Pipeline.gain_extrema`` once per point, and the metadata suffices to
reproduce the result bit for bit.  Every grid point derives its own RNG seed
from (master seed, point index), so results cannot depend on evaluation order.

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
Under full_beatnote an extremum point reads two record blocks: the fit block
at fixed pump phases (which also holds a PIA comparison's two records) and
the block measured at the phases the search found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .analyzer import DEFAULT_CLAMP_TOL, block_peaks, cos_readout, gain_ratio, unwrap_cos_scan
from .beatnote import (CELL_OFF, CELL_ON, DetectionConfig, _standard_normals, seed_words,
                       synthesize_block)
from .calibration import CalibrationMap, effective_r, fitted_calibration
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

# full_beatnote synthesizes and reads at most this many records per block, every block
# of a run into the (2, RECORD_BLOCK, n_samples) planes its pipeline allocates once.
RECORD_BLOCK = 32

# The extremum search's fit block: the cell-off row, the on-rows at phi_p = 0, pi/3 and
# 2*pi/3, then for a PIA comparison the on-row with an unseeded idler and its cell-off row.
_FIT_PHASES = np.arange(3) * (math.pi / 3.0)
_FIT_BLOCK_PHASES = np.concatenate(([0.0], _FIT_PHASES, [0.0, 0.0]))
_FIT_BLOCK_STREAMS = np.array((CELL_OFF, CELL_ON, CELL_ON, CELL_ON, CELL_ON, CELL_OFF))
# Its quartic's companion matrix (as np.roots builds it) before the first row is set.
_COMPANION = np.diag(np.ones(3, complex), -1)
for _constant in (_FIT_PHASES, _FIT_BLOCK_PHASES, _FIT_BLOCK_STREAMS, _COMPANION):
    _constant.setflags(write=False)

# Noisy cosine readouts may overshoot the unit circle by this many standard
# deviations of their propagated bin noise before extraction errors out.
COS_CLAMP_SIGMAS = 6.0


@dataclass(frozen=True)
class ScanSpec:
    """Complete, serialisable description of one campaign."""

    kind: str
    grid: tuple[float, ...]
    amplifier: AmplifierParams = field(default_factory=AmplifierParams)
    calibration: CalibrationMap = field(default_factory=fitted_calibration)
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
            try:  # the synthesis planes the run allocates, if numpy can hold them
                np.empty((2, RECORD_BLOCK, self.detection.n_samples))
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

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple:
        """(g_max, g_min, rho): measured gains at the pump phases of largest and smallest
        gain, and for a ``pia_compare`` spec the PIA ratio (else None).

        The 2*delta on-peak is affine in z = exp(2j*phi_p) and conj(z), noise
        included: on = A + B*z + C*conj(z), fixed by one block at phi_p = 0,
        pi/3, 2*pi/3 through the 3-point DFT.  Then gain**2 is proportional to
        |A|**2 + |B|**2 + |C|**2 + 2*Re(c1*z + c2*z**2), c1 = conj(A)*B + A*conj(C)
        and c2 = B*conj(C), whose stationary points are the roots of 2*c2*z**4
        + c1*z**3 - conj(c1)*z - 2*conj(c2) (Boyd, J. Eng. Math. 56:203, 2006);
        the gain is measured again at the largest and smallest.  One cell-off row,
        whose 2*delta peak ignores the pump phase, leads the fit block: two blocks a point.
        rho, the delta-peak on/off amplitude ratio with an unseeded idler, reads the
        fit block's last two rows at phi_p = 0, so it does not depend on the search.
        """
        pia = self.spec.kind == "pia_compare"
        rows = 6 if pia else 4
        s_out, i_out = np.empty(rows, complex), np.empty(rows, complex)
        s_out[0], i_out[0] = self.a_s, self.a_i
        s_out[1:4], i_out[1:4] = self._outputs(r, loss, _FIT_PHASES, self.a_i)
        if pia:  # the on-row with an unseeded idler, then its cell-off row
            s_out[4:5], i_out[4:5] = self._outputs(r, loss, (0.0,), 0j)
            s_out[5], i_out[5] = self.a_s, 0j
        dc, at_delta, two_delta = self.peaks(s_out, i_out, _FIT_BLOCK_PHASES[:rows], delta,
                                             _FIT_BLOCK_STREAMS[:rows], index)
        # ScanSpec refuses a beatnote PIA without the pump, so the off delta-peak is not 0.
        rho = abs(at_delta[4]) / abs(at_delta[5]) if pia else None
        off_dc, reference, on = dc[:1], two_delta[:1], two_delta[1:4]
        a, b, c = np.fft.fft(on) / 3.0
        if abs(b) + abs(c) <= EXTREMA_FLAT_RTOL * abs(a):  # r = 0: c1 = c2 = 0, no roots
            gains = gain_ratio(on, reference, off_dc)
            return float(gains.max()), float(gains.min()), rho
        c1, c2 = a.conjugate() * b + a * c.conjugate(), b * c.conjugate()
        companion = _COMPANION.copy()  # np.roots' matrix of the quartic
        companion[0] = -np.array((c1, 0.0, -c1.conjugate(), -2.0 * c2.conjugate())) / (2.0 * c2)
        x = np.angle(np.linalg.eigvals(companion))
        shape = (c1 * np.exp(1j * x) + c2 * np.exp(2j * x)).real
        phases = 0.5 * x[[np.argmax(shape), np.argmin(shape)]] % math.pi
        s_out, i_out = self._outputs(r, loss, phases, self.a_i)
        on = self.peaks(s_out, i_out, phases, delta, CELL_ON, index)[2]
        return (*gain_ratio(on, reference, off_dc), rho)

    def scan_grid(self) -> dict[str, np.ndarray]:
        """The phase grid's columns: gain, plus gain_idler and cos_phi_out for a transfer
        curve; each grid point keeps its own on/off record pair and noise seed."""
        spec = self.spec
        ((r, loss, delta),) = spec.operating_points()
        phases = np.asarray(spec.grid)
        s_out, i_out = self._outputs(r, loss, phases, self.a_i)
        transfer = spec.kind == "transfer_curve"
        if transfer and spec.input_ratio != 1.0:
            # No peak ratio gives G_s, G_i or the signal phase of unequal seeds.
            # hypot and float_power round as Python's abs(complex) and float ** 2.
            gain, gain_idler = (
                np.float_power(np.hypot(z.real, z.imag), 2.0) / abs(a) ** 2
                for z, a in ((s_out, self.a_s), (i_out, self.a_i))
            )
            cos_out = np.cos(wrap_phase(np.angle(s_out) - phases))
            return {"gain": gain, "gain_idler": gain_idler, "cos_phi_out": cos_out}
        points = np.arange(phases.size)
        _, on_delta, on_two_delta = self.peaks(s_out, i_out, phases, delta, CELL_ON, points)
        off_dc, _, reference = self.peaks(self.a_s, self.a_i, phases, delta, CELL_OFF, points)
        gain = gain_ratio(on_two_delta, reference, off_dc)
        if not transfer:
            return {"gain": gain}
        cos_out = self._cos_out(on_delta, gain, on_two_delta, reference)
        return {"gain": gain, "gain_idler": gain, "cos_phi_out": cos_out}

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


class _ModelPipeline(_Pipeline):
    """Closed-form peaks of noiseless records, plus closed-form extrema and PIA
    ratio in place of the measured ones: they are the oracle, and faster."""

    def peaks(self, s_out, i_out, phases, delta, stream, points):
        i_p = self.spec.detection.residual_pump_intensity
        lo = np.exp(1j * np.asarray(phases, dtype=np.float64))
        dc = i_p + np.abs(s_out) ** 2 + np.abs(i_out) ** 2
        at_delta = 2.0 * math.sqrt(i_p) * (s_out * lo.conjugate() + np.conjugate(i_out) * lo)
        return dc, at_delta, 2.0 * s_out * np.conjugate(i_out)

    def gain_extrema(self, r: float, loss: float, index: int, delta: float) -> tuple:
        c, s = math.cosh(r), math.sinh(r)
        rho = math.sqrt(loss) * (c + s) if self.spec.kind == "pia_compare" else None
        if self.spec.input_ratio == 1.0:
            return loss * math.exp(2.0 * r), loss * math.exp(-2.0 * r), rho
        kappa = abs(self.a_i) / abs(self.a_s)
        top = (c + s * kappa) * (c + s / kappa)
        bottom = abs(c - s * kappa) * abs(c - s / kappa)
        return loss * top, loss * bottom, rho


class _BeatnotePipeline(_Pipeline):
    """Peaks read from synthesized records, seeded per grid point."""

    def __init__(self, spec: ScanSpec):
        super().__init__(spec)
        # The Re E and Im E planes every block of the run is synthesized into.
        self._planes = np.empty((2, RECORD_BLOCK, spec.detection.n_samples))
        if spec.detection.noise_sigma > 0.0:  # noiseless runs derive no seeds
            seeds = point_seed(spec.detection.rng_seed, np.arange(len(spec.grid)))
            # PCG64 seed words, indexed [stream, grid index]: CELL_ON is 0, CELL_OFF 1.
            self._words = seed_words(seeds, np.array([[CELL_ON], [CELL_OFF]]), 4)

    def peaks(self, s_out, i_out, phases, delta, stream, points):
        """Records synthesized and read as (P, N) blocks of at most RECORD_BLOCK rows, each
        into this run's planes."""
        rows = len(phases)
        if rows > RECORD_BLOCK:
            s, i, phi, k, st = np.broadcast_arrays(s_out, i_out, phases, points, stream)
            blocks = [
                self.peaks(s[part], i[part], phi[part], delta, st[part], k[part])
                for part in (slice(n, n + RECORD_BLOCK) for n in range(0, rows, RECORD_BLOCK))
            ]
            return tuple(np.concatenate(column) for column in zip(*blocks))
        cfg = self.spec.detection_for(delta)
        noise = _standard_normals(self._words[stream, points], cfg) if cfg.noise_sigma else None
        block = synthesize_block(s_out, i_out, phases, delta, cfg, noise, self._planes[:, :rows])
        return block_peaks(block, cfg.sample_rate, delta)  # read before the next block is written


# Scan kind -> the name of its x column.
_X_NAMES = {"phase_scan": "phi_in", "power_sweep": "power_mw", "pia_compare": "power_mw",
            "detuning_spectrum": "delta_khz", "transfer_curve": "phi_in"}
SCAN_KINDS = tuple(_X_NAMES)


def run_scan(spec: ScanSpec) -> SweepResult:
    """Run a ScanSpec through its pipeline into the figure-shaped dataset of its kind.

    A phase scan is the gain per pump-signal input phase (piezo emulation).  A transfer
    curve adds the idler gain and the output phase, each point on the branch its input
    phase picks (``unwrap_cos_scan``); a mixed-seed curve whose idler dominates
    (tanh(r) > sqrt(input_ratio)) comes out as its global mirror.  The other kinds
    measure extremal gains per grid point.  A PIA comparison adds the unseeded gain; a
    spectrum's metadata adds the bandwidth, the largest detuning whose g_min is within
    BANDWIDTH_TOLERANCE of 1/g_max, and flags the detuning model as phenomenological.
    """
    pipe = _ModelPipeline(spec) if spec.pipeline == "model_exact" else _BeatnotePipeline(spec)
    metadata = {"kind": spec.kind, "x_name": _X_NAMES[spec.kind], "scan_spec": spec.as_dict(),
                "master_seed": spec.detection.rng_seed, "version": __version__}
    grid = np.asarray(spec.grid)
    if spec.kind in ("phase_scan", "transfer_curve"):
        columns = pipe.scan_grid()
        if spec.kind == "transfer_curve":
            unwrapped = unwrap_cos_scan(columns["cos_phi_out"], spec.grid)
            columns.update(phi_out_wrapped=wrap_phase(unwrapped), phi_out_unwrapped=unwrapped)
        return SweepResult(grid, columns, metadata)
    g_max, g_min, rho = zip(*(
        pipe.gain_extrema(r, loss, k, delta)
        for k, (r, loss, delta) in enumerate(spec.operating_points())
    ))
    if spec.kind == "pia_compare":  # g_pia = c**2 inverts rho through cosh^2 - sinh^2 = 1
        g_pia = [c * c for c in (0.5 * (ratio + 1.0 / ratio) for ratio in rho)]
        from_pia = [psa_max_from_pia(g) for g in g_pia]
        columns = {"g_max": g_max, "g_pia": g_pia, "g_max_from_pia": from_pia}
        return SweepResult(grid, columns, metadata)
    g_max, g_min = np.array(g_max), np.array(g_min)
    ideal = 1.0 / g_max  # g_min of the pure squeezer
    columns = {"g_max": g_max, "g_min": g_min, "inv_g_max": ideal}
    if spec.kind == "detuning_spectrum":
        pure = np.abs(g_min - ideal) <= BANDWIDTH_TOLERANCE * ideal
        metadata["bandwidth_khz"] = float(grid[pure].max()) if pure.any() else None
        metadata["bandwidth_tolerance"] = BANDWIDTH_TOLERANCE
        metadata["detuning_model"] = "phenomenological (Lorentzian window + Gaussian loss)"
    return SweepResult(grid, columns, metadata)
