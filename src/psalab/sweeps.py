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

A phase scan's records are synthesized and read RECORD_BLOCK points at a time,
each block into its worker's planes, which the run allocates once (1 MB a
worker at 2,000 samples).  A noisy scan has two workers on any host, the
calling thread and one helper thread joined within the call, as its noise draws
release the GIL; any other run has one and starts no thread.  The spec alone
sets the count, so the spec's checks and its run hold on every host.  Every row
keeps its own seed words and every block is computed as the serial loop computes
it, so the worker count moves no output bit.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, field

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

# The least loss and input ratio a spec takes: no field amplitude then passes e^R_MAX.
LOSS_FLOOR = math.exp(-2.0 * R_MAX)

# An extremum search whose fitted phase terms |B| + |C| are below this fraction
# of |A| is flat to rounding (no squeezing): its measured extremes are final.
EXTREMA_FLAT_RTOL = 1e-13

# A sweep point counts as "pure PSA" while |g_min - 1/g_max| stays within
# this fraction of 1/g_max; the largest such detuning is the bandwidth.
BANDWIDTH_TOLERANCE = 0.05

# full_beatnote synthesizes and reads at most this many records per block, each block
# into its worker's (2, RECORD_BLOCK, n_samples) planes, which the run allocates once.
RECORD_BLOCK = 32

# The extremum search's fit block: the cell-off row, the on-rows at phi_p = 0, pi/3 and
# 2*pi/3, then for a PIA comparison the on-row with an unseeded idler and its cell-off row.
_FIT_PHASES = np.arange(3) * (math.pi / 3.0)
_FIT_BLOCK_PHASES = np.concatenate(([0.0], _FIT_PHASES, [0.0, 0.0]))
_FIT_BLOCK_STREAMS = np.array((CELL_OFF, CELL_ON, CELL_ON, CELL_ON, CELL_ON, CELL_OFF))
_FIT_PUMP = wrap_phase(_FIT_PHASES)  # as AmplifierParams stores them, for the evolution
# Its quartic's companion matrix (as np.roots builds it) before the first row is set.
_COMPANION = np.diag(np.ones(3, complex), -1)
for _constant in (_FIT_PHASES, _FIT_BLOCK_PHASES, _FIT_BLOCK_STREAMS, _FIT_PUMP, _COMPANION):
    _constant.setflags(write=False)

# Noisy cosine readouts may overshoot the unit circle by this many standard
# deviations of their propagated bin noise before extraction errors out.
COS_CLAMP_SIGMAS = 6.0


@dataclass(frozen=True)
class ScanSpec:
    """Complete, serialisable description of one campaign.  Under full_beatnote every
    record, at any grid detuning, is sampled with ``detection`` at ``amplifier.detuning``."""

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
        try:
            grid = tuple(check_number("grid", x) for x in self.grid)
        except TypeError:  # not iterable
            raise DomainError(f"grid: expected a sequence of numbers, got {self.grid!r}") from None
        if not grid:
            raise DomainError("grid: expected a non-empty sequence")
        steps = np.diff(grid)
        if len(grid) > 1 and not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise DomainError("grid: expected strictly monotone values")
        object.__setattr__(self, "grid", grid)
        ratio = check_number("input_ratio", self.input_ratio, LOSS_FLOOR)
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
            # Every record of the run samples the beat at amplifier.detuning; a spectrum's
            # grid detuning, 0 kHz included, sets only its point's (r, loss).
            detuning = check_number("amplifier.detuning", self.amplifier.detuning, 0.0, strict=True)
            try:  # numpy can hold the run's planes, so the sampling check's count is a float
                _synthesis_planes(self)
            except (ValueError, MemoryError) as err:  # numpy's _ArrayMemoryError: too many samples
                raise DomainError(f"detection.n_samples: {err}") from None
            try:
                self.detection.validate_for_delta(detuning)
            except DomainError as err:  # it names the detection field it bounds
                raise DomainError(f"detection.{err}") from None
        self.operating_points()

    def operating_points(self) -> list[tuple[float, float, float]]:
        """(r, loss, detuning) at each grid point of a power or detuning sweep, or at the
        one point a phase grid is scanned at.  An explicit r is the lossless squeezer and
        wins over pump_power; a pump power goes through the calibration map, and a point
        at r > R_MAX or loss < LOSS_FLOOR, where a field could overflow, is refused."""
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
        cal = self.calibration
        try:
            found = [(*effective_r(power, delta, cal), delta) for power, delta in points]
        except OverflowError:  # (delta / bandwidth_hwhm) ** 2 at the largest detuning
            key = "grid" if self.kind == "detuning_spectrum" else "amplifier.detuning"
            delta = max(delta for _, delta in points)
            raise DomainError(f"{key}: {delta:g} kHz overflows the detuning window") from None
        for (power, _), (r, loss, delta) in zip(points, found):
            if not (r <= R_MAX and loss >= LOSS_FLOOR):
                raise DomainError(f"calibration: gives r = {r:g}, loss {loss:g} at {power:g} mW "
                                  f"{delta:g} kHz; expect r <= {R_MAX:g}, loss >= e^-{2 * R_MAX:g}")
        return found

    def as_dict(self) -> dict:
        """``dataclasses.asdict``, shallow: the grid is shared, nested dataclasses hold scalars."""
        values = {name: getattr(self, name) for name in self.__dataclass_fields__}
        nested = ("amplifier", "calibration", "detection")
        return {key: dict(vars(v)) if key in nested else v for key, v in values.items()}

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


def _synthesis_planes(spec: ScanSpec) -> np.ndarray:
    """A full_beatnote run's (workers, 2, RECORD_BLOCK, n_samples) synthesis planes, read
    from the spec alone: two workers for a noisy phase scan or transfer curve (its draws
    release the GIL), else one; the extremum search's blocks all run on the calling thread."""
    noisy_scan = spec.kind in ("phase_scan", "transfer_curve") and spec.detection.noise_sigma > 0.0
    return np.empty((2 if noisy_scan else 1, 2, RECORD_BLOCK, spec.detection.n_samples))


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

    def peaks(self, s_out, i_out, phases, stream, points):
        """(dc, at_delta, at_two_delta) of the record at each pump phase, a row each; ``stream``
        and ``points`` (a grid index; rows of one share its noise) are scalars or one per row."""
        raise NotImplementedError

    def _outputs(self, r: float, loss: float, phases, idler: complex):
        """(s_out, i_out) after the loss, at pump phases wrapped as AmplifierParams stores them."""
        s_out, i_out = evolve_block(self.a_s, idler, r, phases)
        scale = math.sqrt(loss)
        return s_out * scale, i_out * scale

    def gain_extrema(self, r: float, loss: float, index: int) -> tuple:
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
        s_out, i_out = np.empty((2, rows), complex)
        s_out[0], i_out[0] = self.a_s, self.a_i
        s_out[1:4], i_out[1:4] = self._outputs(r, loss, _FIT_PUMP, self.a_i)
        if pia:  # the on-row with an unseeded idler at phi_p = 0, then its cell-off row
            s_out[4:5], i_out[4:5] = self._outputs(r, loss, _FIT_PUMP[:1], 0j)
            s_out[5], i_out[5] = self.a_s, 0j
        dc, at_delta, two_delta = self.peaks(s_out, i_out, _FIT_BLOCK_PHASES[:rows],
                                             _FIT_BLOCK_STREAMS[:rows], index)
        # ScanSpec refuses a beatnote PIA without the pump, so the off delta-peak is not 0.
        rho = abs(at_delta.item(4)) / abs(at_delta.item(5)) if pia else None
        off_dc, reference, on = dc[:1], two_delta[:1], two_delta[1:4]
        a, b, c = (np.fft.fft(on) / 3.0).tolist()  # Python complex: * and abs as numpy scalars
        if abs(b) + abs(c) <= EXTREMA_FLAT_RTOL * abs(a):  # r = 0: c1 = c2 = 0, no roots
            gains = gain_ratio(on, reference, off_dc).tolist()
            return max(gains), min(gains), rho
        c1, c2 = a.conjugate() * b + a * c.conjugate(), b * c.conjugate()
        companion = _COMPANION.copy()  # np.roots' matrix of the quartic
        companion[0] = -np.array((c1, 0.0, -c1.conjugate(), -2.0 * c2.conjugate())) / (2.0 * c2)
        try:
            roots = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:  # an overflowing fit block: c1 or c2 is not finite
            raise DomainError(f"extremum fit: the quartic's coefficients c1 = {c1}, c2 = {c2} "
                              f"do not give finite roots at grid point {index}") from None
        x = np.arctan2(roots.imag, roots.real)  # np.angle's ufunc, without its wrapper
        shape = (c1 * np.exp(1j * x) + c2 * np.exp(2j * x)).real
        phases = 0.5 * x[[shape.argmax(), shape.argmin()]] % math.pi
        s_out, i_out = self._outputs(r, loss, wrap_phase(phases), self.a_i)
        on = self.peaks(s_out, i_out, phases, CELL_ON, index)[2]
        return (*gain_ratio(on, reference, off_dc).tolist(), rho)

    def scan_grid(self) -> dict[str, np.ndarray]:
        """The phase grid's columns: gain, plus gain_idler and cos_phi_out for a transfer
        curve; each grid point keeps its own on/off record pair and noise seed."""
        spec = self.spec
        ((r, loss, _),) = spec.operating_points()
        phases = np.asarray(spec.grid)
        s_out, i_out = self._outputs(r, loss, wrap_phase(phases), self.a_i)
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
        _, on_delta, on_two_delta = self.peaks(s_out, i_out, phases, CELL_ON, points)
        off_dc, _, reference = self.peaks(self.a_s, self.a_i, phases, CELL_OFF, points)
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

    def peaks(self, s_out, i_out, phases, stream, points):
        i_p = self.spec.detection.residual_pump_intensity
        lo = np.exp(1j * np.asarray(phases, dtype=np.float64))
        dc = i_p + np.abs(s_out) ** 2 + np.abs(i_out) ** 2
        at_delta = 2.0 * math.sqrt(i_p) * (s_out * lo.conjugate() + np.conjugate(i_out) * lo)
        return dc, at_delta, 2.0 * s_out * np.conjugate(i_out)

    def gain_extrema(self, r: float, loss: float, index: int) -> tuple:
        c, s = math.cosh(r), math.sinh(r)
        rho = math.sqrt(loss) * (c + s) if self.spec.kind == "pia_compare" else None
        if self.spec.input_ratio == 1.0:
            return loss * math.exp(2.0 * r), loss * math.exp(-2.0 * r), rho
        kappa = abs(self.a_i) / abs(self.a_s)
        top = (c + s * kappa) * (c + s / kappa)
        bottom = abs(c - s * kappa) * abs(c - s / kappa)
        return loss * top, loss * bottom, rho


class _BeatnotePipeline(_Pipeline):
    """Peaks of records sampled with ``spec.detection`` at ``amplifier.detuning``, seeded per
    grid point: a grid index's (CELL_ON, CELL_OFF) noise rows are drawn once for its blocks."""

    def __init__(self, spec: ScanSpec):
        super().__init__(spec)
        # Per worker, the Re E and Im E planes each of its blocks is synthesized into.
        self._planes = _synthesis_planes(spec)
        if spec.detection.noise_sigma > 0.0:  # noiseless runs derive no seeds
            seeds = point_seed(spec.detection.rng_seed, np.arange(len(spec.grid)))
            # PCG64 seed words, indexed [stream, grid index]: CELL_ON is 0, CELL_OFF 1.
            self._words = seed_words(seeds, np.array([[CELL_ON], [CELL_OFF]]), 4)
            self._pair = None, None  # (grid index, its noise rows indexed by stream)

    def peaks(self, s_out, i_out, phases, stream, points, worker=0):
        """Records synthesized and read as (P, N) blocks of at most RECORD_BLOCK rows, each
        into its worker's planes: block j of a larger call goes to worker j mod workers,
        the calling thread being worker 0 and a helper thread, joined here, worker 1."""
        rows = len(phases)
        if rows > RECORD_BLOCK:
            s, i, phi, k, st = np.broadcast_arrays(s_out, i_out, phases, points, stream)
            parts = [slice(n, n + RECORD_BLOCK) for n in range(0, rows, RECORD_BLOCK)]
            workers = len(self._planes)
            blocks = [None] * len(parts)  # slot j: block j's peaks, or the error it raised

            def work(worker):  # this worker's blocks in grid order, up to its first error
                for j in range(worker, len(parts), workers):
                    part = parts[j]
                    try:
                        blocks[j] = self.peaks(s[part], i[part], phi[part], st[part], k[part],
                                               worker)
                    except Exception as err:  # raised below, after the helper is joined
                        blocks[j] = err
                        return

            helper = None
            if workers > 1:  # under the caller's numpy errstate, a context variable
                helper = threading.Thread(target=contextvars.copy_context().run, args=(work, 1))
                helper.start()
            try:
                work(0)
            finally:
                if helper is not None:
                    helper.join()
            for result in blocks:  # the lowest-numbered failing block, as a serial loop raises
                if isinstance(result, Exception):
                    raise result
            return tuple(np.concatenate(column) for column in zip(*blocks))
        cfg, delta = self.spec.detection, self.spec.amplifier.detuning
        noise = None
        if cfg.noise_sigma:
            if np.ndim(points):  # a scan block: one row per grid index
                noise = _standard_normals(self._words[stream, points], cfg)
            else:  # one grid index: the pair its first block drew
                if self._pair[0] != points:
                    self._pair = points, _standard_normals(self._words[:, points], cfg)
                noise = self._pair[1][stream]
        planes = self._planes[worker, :, :rows]
        block = synthesize_block(s_out, i_out, phases, delta, cfg, noise, planes)
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
        pipe.gain_extrema(r, loss, k) for k, (r, loss, _) in enumerate(spec.operating_points())
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
