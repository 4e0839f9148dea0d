"""The benchmark's workloads: the specs they run, one pass, and the correctness gate.

A pass runs a workload's campaigns one after another in this process, as
units the runner times one by one: a whole campaign, or for
``beatnote_extrema`` one grid point.  Every call goes through a psalab
module attribute (``sweeps.run_scan``, ``serialize.write_sweep``, ...) so
that the tracer's rebinding sees it.

Why these three workloads:

- ``beatnote_extrema``: the full_beatnote power sweep and PIA comparison.
  Each grid point runs the extremum search over the pump phase, about 344
  on/off record pairs, so this is where cell-off reuse, a cheaper search
  and batched evaluation act.  Each point is its own one-point scan.
- ``beatnote_scan``: full_beatnote scans that read one on/off pair per
  point, so they bypass the extremum search; carrier precompute and bin
  projection act here.  The noisy copy keeps the per-record RNG path in
  the loop.
- ``model_exact_io``: every stock campaign in closed form, written in all
  three formats, plus one in-process CLI call.  No record is synthesized;
  per-point Python, serialization and config parsing dominate.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import psalab
from psalab import analyzer, cli, serialize, sweeps

# Noiseless full_beatnote columns must match model_exact to this, as in
# acceptance criterion 5.
NOISELESS_TOL = 1e-9
# psa_vs_pia.g_max_from_pia alone gets acceptance criterion 4's pipeline
# tolerance: psa_max_from_pia takes sqrt(g - 1) with g ~ 1 at 0 mW, which
# turns a ~1e-16 error in g_pia into ~4.4e-9.
COLUMN_TOL = {("psa_vs_pia", "g_max_from_pia"): 1e-6}

# Phases wrapped to [-pi, pi) are compared on the circle: the stock
# transfer grid puts an output phase exactly on -pi, where a last-digit
# change may legitimately read as +pi.
WRAPPED_COLUMNS = ("phi_out_wrapped",)

NOISY_SIGMA = 0.05
# Rayleigh tail: a complex bin error exceeds NOISE_K per-component standard
# deviations with probability exp(-NOISE_K**2 / 2), about 1.5e-8 at 6.
NOISE_K = 6.0
# 2*delta amplitude of a cell-off record with unit signal and idler seeds:
# |E|^2 holds 2*|s||i|*cos(2wt + .) for the fields s*exp(jwt) + i*exp(-jwt).
CELL_OFF_TWO_DELTA = 2.0

HIST_BINS = 64
EMIT = ("csv", "json", "binary")


def stock_specs(seed: int, pipeline: str) -> dict[str, psalab.ScanSpec]:
    """The six stock campaigns, as ``scripts/run_campaigns.py`` defines them.

    Copied rather than imported so that an edit to the campaign script
    does not silently change what the benchmark measures.
    """
    detection = psalab.DetectionConfig(rng_seed=seed)
    operating = psalab.AmplifierParams(pump_power=30.0, detuning=2.0)
    transfer_grid = tuple(np.linspace(-math.pi, math.pi, 512, endpoint=False))
    pure = psalab.AmplifierParams(r=psalab.r_for_max_gain(5.3), detuning=2.0)
    power_grid = tuple(np.linspace(0.0, 80.0, 33))
    spec = psalab.ScanSpec
    return {
        "gain_vs_phase": spec(
            kind="phase_scan",
            grid=tuple(np.linspace(-math.pi, math.pi, 257)),
            amplifier=operating,
            detection=detection,
            pipeline=pipeline,
        ),
        "gain_vs_power": spec(
            kind="power_sweep", grid=power_grid, amplifier=operating,
            detection=detection, pipeline=pipeline,
        ),
        "psa_vs_pia": spec(
            kind="pia_compare", grid=power_grid, amplifier=operating,
            detection=detection, pipeline=pipeline,
        ),
        # A full_beatnote spectrum dies at delta = 0, which the stock grid
        # holds; the campaign script runs it under model_exact too.
        "gain_spectrum": spec(
            kind="detuning_spectrum",
            grid=tuple(np.arange(0.0, 1000.1, 10.0)),
            amplifier=operating,
            detection=detection,
            pipeline="model_exact",
        ),
        "transfer_pure": spec(
            kind="transfer_curve", grid=transfer_grid, amplifier=pure,
            detection=detection, pipeline=pipeline,
        ),
        "transfer_mixed": spec(
            kind="transfer_curve", grid=transfer_grid, amplifier=pure,
            detection=detection, input_ratio=1.78, pipeline="model_exact",
        ),
    }


class Gate:
    """Worst deviation per checked quantity over a run, and failed campaigns."""

    def __init__(self):
        self.worst: dict[str, tuple[float, float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, key: str, deviation: float, limit: float, what: str) -> bool:
        ok = bool(deviation <= limit)  # NaN fails
        old = self.worst.get(key)
        if old is None or not deviation <= old[0]:
            self.worst[key] = (deviation, limit, what)
        return ok

    def fail(self, message: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(message)

    def lines(self) -> list[str]:
        out = []
        for key, (deviation, limit, what) in self.worst.items():
            verdict = "ok" if deviation <= limit else "FAIL"
            out.append(f"gate {key}: worst {what} {deviation:.3e} (limit {limit:.1e}) {verdict}")
        return out + [f"gate error: {message}" for message in self.errors]


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _result_digest(result) -> str:
    names = [name.encode() for name in result.columns]
    arrays = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (result.x, *result.columns.values())]
    return _digest([*names, *arrays])


class Workload:
    """A named list of campaigns plus how to check each campaign's output."""

    name = ""
    campaigns: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first_digest: dict[str, str] = {}

    @property
    def points(self) -> int:
        """Grid points one pass completes."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed set-up the checks need (references, output directory)."""

    def run_campaign(self, name: str):
        raise NotImplementedError

    def check_campaign(self, name: str, output, gate: Gate) -> bool:
        raise NotImplementedError

    def units(self) -> list[tuple[str, int]]:
        """One pass as the (campaign, part) units the runner times one by one."""
        return [(name, 0) for name in self.campaigns]

    def run_unit(self, name: str, part: int):
        return self.run_campaign(name)

    def join(self, name: str, pieces: list):
        """A campaign's output from the outputs of its units."""
        return pieces[0]

    def outputs(self, pieces: dict[str, list]) -> dict:
        """Per-campaign outputs of a pass; a unit that raised fails its campaign."""
        outputs = {}
        for name in self.campaigns:
            errors = [piece for piece in pieces[name] if isinstance(piece, Exception)]
            outputs[name] = errors[0] if errors else self.join(name, pieces[name])
        return outputs

    def check_pass(self, outputs: dict, gate: Gate) -> None:
        for name in self.campaigns:
            gate.attempted += 1
            output = outputs[name]
            if isinstance(output, Exception):
                ok = False
                gate.fail(f"{name} raised: " + "".join(traceback.format_exception_only(output)).strip())
            else:
                try:
                    ok = self.check_campaign(name, output, gate)
                except Exception:
                    ok = False
                    gate.fail(f"{name} check raised:\n{traceback.format_exc()}")
            gate.failed += not ok

    def _same_as_first_pass(self, name: str, digest: str, gate: Gate) -> bool:
        first = self.first_digest.setdefault(name, digest)
        same = first == digest
        gate.record(f"{name}.rerun", 0.0 if same else 1.0, 0.0, "outputs differing from pass 1")
        return same


class _BeatnoteWorkload(Workload):
    """full_beatnote campaigns checked against model_exact on the same spec."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.specs = self.build_specs(seed)
        self.references: dict = {}

    @staticmethod
    def build_specs(seed: int) -> dict:
        raise NotImplementedError

    @property
    def points(self) -> int:
        return sum(len(spec.grid) for spec in self.specs.values())

    def prepare(self) -> None:
        for name, spec in self.specs.items():
            exact = replace(spec, pipeline="model_exact", detection=replace(spec.detection, noise_sigma=0.0))
            self.references[name] = sweeps.run_scan(exact)

    def run_campaign(self, name: str):
        return sweeps.run_scan(self.specs[name])

    def check_campaign(self, name: str, result, gate: Gate) -> bool:
        reference = self.references[name]
        ok = self._same_as_first_pass(name, _result_digest(result), gate)
        if not np.array_equal(result.x, reference.x) or list(result.columns) != list(reference.columns):
            gate.fail(f"{name}: grid or columns {list(result.columns)} differ from model_exact's")
            return False
        if self.specs[name].detection.noise_sigma > 0.0:
            return self._check_noisy(name, result, reference, gate) and ok
        for column, values in result.columns.items():
            expected = reference.columns[column]
            difference = values - expected
            if column in WRAPPED_COLUMNS:
                difference = (difference + math.pi) % (2.0 * math.pi) - math.pi
            deviation = np.max(np.abs(difference) / np.maximum(np.abs(expected), 1.0))
            limit = COLUMN_TOL.get((name, column), NOISELESS_TOL)
            ok &= gate.record(f"{name}.{column}", float(deviation), limit, "|fb - model|/max(1,|model|)")
        return ok

    def _check_noisy(self, name: str, result, reference, gate: Gate) -> bool:
        """Noisy gains must sit within the NOISE_K-sigma bin-error bound of the model.

        Each 2*delta bin amplitude carries complex Gaussian error with
        per-component standard deviation sigma*sqrt(2/N).  With both bin
        errors below E = NOISE_K*sigma*sqrt(2/N), the ratio G = |on|/|off|
        with |off| = A moves by at most E*(1 + G)/(A - E).
        """
        det = self.specs[name].detection
        err = NOISE_K * det.noise_sigma * math.sqrt(2.0 / det.n_samples)
        gain = reference.columns["gain"]
        bound = err * (1.0 + gain) / (CELL_OFF_TWO_DELTA - err)
        deviation = np.abs(result.columns["gain"] - gain)
        ok = gate.record(f"{name}.gain", float(np.max(deviation / bound)), 1.0, "|fb - model|/noise bound")
        # The configured noise must actually reach the records.
        ok &= gate.record(f"{name}.noise_present", 0.0 if np.max(deviation) > NOISELESS_TOL else 1.0,
                          0.0, "noiseless readout")
        return ok


class BeatnoteExtrema(_BeatnoteWorkload):
    """The stock grids, run as one one-point scan per grid point.

    A point takes about a hundred milliseconds, a whole campaign seconds;
    only units that short let the runner's reference kernel follow the
    host's speed.  The points are noiseless, so a one-point scan gives
    the same row as the full scan, and the joined rows are checked
    against model_exact on the full grid.
    """

    name = "beatnote_extrema"
    campaigns = ("gain_vs_power", "psa_vs_pia")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.point_specs = {
            name: [replace(spec, grid=(x,)) for x in spec.grid] for name, spec in self.specs.items()
        }

    @staticmethod
    def build_specs(seed: int) -> dict:
        stock = stock_specs(seed, "full_beatnote")
        return {name: stock[name] for name in BeatnoteExtrema.campaigns}

    def units(self) -> list[tuple[str, int]]:
        return [(name, part) for name in self.campaigns for part in range(len(self.point_specs[name]))]

    def run_unit(self, name: str, part: int):
        return sweeps.run_scan(self.point_specs[name][part])

    def join(self, name: str, pieces: list):
        columns = {column: np.concatenate([piece.columns[column] for piece in pieces])
                   for column in pieces[0].columns}
        return sweeps.SweepResult(np.concatenate([piece.x for piece in pieces]), columns,
                                  pieces[0].metadata)


class BeatnoteScan(_BeatnoteWorkload):
    name = "beatnote_scan"
    campaigns = ("gain_vs_phase", "transfer_pure", "gain_vs_phase_noisy")

    @staticmethod
    def build_specs(seed: int) -> dict:
        stock = stock_specs(seed, "full_beatnote")
        phase = stock["gain_vs_phase"]
        noisy = replace(phase, detection=replace(phase.detection, noise_sigma=NOISY_SIGMA))
        return {
            "gain_vs_phase": phase,
            "transfer_pure": stock["transfer_pure"],
            "gain_vs_phase_noisy": noisy,
        }


class ModelExactIo(Workload):
    """Closed-form campaigns, written as csv, json and binary, plus one CLI call."""

    name = "model_exact_io"
    campaigns = (
        "gain_vs_phase", "gain_vs_power", "psa_vs_pia", "gain_spectrum",
        "transfer_pure", "transfer_mixed", "cli_power_sweep",
    )
    # The CLI's default power-sweep grid: 33 points over 0..80 mW.  The check
    # that its CSV equals gain_vs_power's guards this count.
    CLI_POINTS = 33

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.specs = self.build_specs(seed)
        self.outdir = workdir / "model_exact_io"

    @staticmethod
    def build_specs(seed: int) -> dict:
        return stock_specs(seed, "model_exact")

    @property
    def points(self) -> int:
        return sum(len(spec.grid) for spec in self.specs.values()) + self.CLI_POINTS

    def prepare(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        for stale in self.outdir.iterdir():
            stale.unlink()

    def run_campaign(self, name: str):
        if name == "cli_power_sweep":
            argv = ["power-sweep", "--out", str(self.outdir), "--seed", str(self.seed),
                    "--emit", ",".join(EMIT), "--name", name, "--quiet"]
            status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"psalab {' '.join(argv)} exited {status}")
            return None
        result = sweeps.run_scan(self.specs[name])
        serialize.write_sweep(result, self.outdir, EMIT, basename=name)
        if self.specs[name].kind == "transfer_curve":
            self._write_histogram(result, name)
        return result

    def _write_histogram(self, result, name: str) -> None:
        edges, counts = analyzer.phase_histogram(result.columns["phi_out_wrapped"], HIST_BINS)
        lines = ["bin_left,bin_right,count"]
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            lines.append(f"{serialize.fmt17(left)},{serialize.fmt17(right)},{int(count)}")
        (self.outdir / f"{name}_hist.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _files(self, name: str) -> dict[str, Path]:
        suffixes = [".csv", ".json", ".bin"]
        if name in self.specs and self.specs[name].kind == "transfer_curve":
            suffixes.append("_hist.csv")
        return {suffix: self.outdir / f"{name}{suffix}" for suffix in suffixes}

    def check_campaign(self, name: str, result, gate: Gate) -> bool:
        blobs = {suffix: path.read_bytes() for suffix, path in self._files(name).items()}
        ok = self._same_as_first_pass(name, _digest(blobs.values()), gate)
        if name == "cli_power_sweep":
            # Same default spec as the library power sweep, so the tables agree
            # byte for byte; only the JSON sidecar carries the config echo.
            for suffix in (".csv", ".bin"):
                same = blobs[suffix] == (self.outdir / f"gain_vs_power{suffix}").read_bytes()
                ok &= gate.record(f"{name}{suffix}", 0.0 if same else 1.0, 0.0,
                                  "bytes differing from gain_vs_power")
            return ok
        _, table = serialize.read_sweep_csv(self._files(name)[".csv"])
        expected = np.column_stack([result.x, *result.columns.values()])
        same = table.shape == expected.shape and bool(np.array_equal(table, expected))
        ok &= gate.record(f"{name}.csv_round_trip", 0.0 if same else 1.0, 0.0, "values not read back exactly")
        if "_hist.csv" in blobs:
            rows = blobs["_hist.csv"].decode().splitlines()[1:]
            counted = sum(int(row.rsplit(",", 1)[1]) for row in rows)
            ok &= gate.record(f"{name}.histogram", abs(counted - result.x.size), 0, "points missing from histogram")
        return ok


WORKLOADS = {cls.name: cls for cls in (BeatnoteExtrema, BeatnoteScan, ModelExactIo)}
