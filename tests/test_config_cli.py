"""Configuration schema and command-line behaviour."""

import contextlib
import copy
import io
import json
import math
import re
import struct
import sys
import tempfile
import warnings
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psalab import (
    AmplifierParams,
    BeatnoteRecord,
    CalibrationMap,
    ConfigError,
    DetectionConfig,
    DomainError,
    RunConfig,
    ScanSpec,
    parse_config,
    run_scan,
    to_document,
)
from psalab import sweeps
from psalab.calibration import effective_r, fitted_calibration
from psalab.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_OK, build_parser, main
from psalab.config import DEFAULT_GRIDS, DEFAULT_PUMP_POWER_MW, parse_config_document
from psalab.errors import PsalabError, check_number
from psalab.serialize import check_emit, read_sweep_csv, record_to_binary
from psalab.sweeps import SCAN_KINDS


def short_header_record(blob: bytes, sample_rate=100.0, delta=2.0, n=2000) -> bytes:
    """The stock synth record as version-2 bytes whose header holds only the sample
    rate, delta and count, then the last ``n`` samples of ``blob``."""
    header = f"sample_rate_khz={sample_rate!r}\ndelta_khz={delta!r}\nn_samples={n}\n".encode()
    return b"PSAB" + struct.pack("<II", 2, len(header)) + header + blob[len(blob) - 8 * n :]


def v2_record(blob: bytes, old: str, new: str, n=2000) -> bytes:
    """Version-2 ``blob`` with ``old`` replaced by ``new`` in its header text,
    then the last ``n`` of its samples."""
    (size,) = struct.unpack_from("<I", blob, 8)
    header = blob[12 : 12 + size].replace(old.encode(), new.encode())
    return b"PSAB" + struct.pack("<II", 2, len(header)) + header + blob[len(blob) - 8 * n :]


def first_rows(text: str, n: int) -> str:
    """A record CSV cut at a line boundary after its first ``n`` data rows."""
    lines = text.splitlines()
    return "\n".join(lines[: lines.index("time_ms,intensity") + 1 + n]) + "\n"


class TestParseConfig:
    def test_minimal_phase_scan_fills_defaults(self):
        cfg = parse_config('{"scan": {"kind": "phase_scan"}}')
        spec = cfg.scan
        assert spec.kind == "phase_scan"
        assert spec.amplifier.r is None
        assert spec.amplifier.pump_power == 30.0
        assert spec.pipeline == "model_exact"
        assert cfg.emit == ("csv", "json")
        # r resolves from the anchored calibration at the default detuning
        r_eff, loss = effective_r(30.0, 2.0, spec.calibration)
        assert r_eff > 0.0 and loss <= 1.0

    def test_mixed_transfer_run(self):
        cfg = parse_config(
            json.dumps(
                {"scan": {"kind": "transfer_curve", "input_ratio": 1.78,
                          "amplifier": {"r": math.log(5.3) / 2}}}
            )
        )
        assert cfg.scan.input_ratio == 1.78
        assert cfg.scan.amplifier.pump_power is None

    def test_negative_power_named_rejection(self):
        with pytest.raises(ConfigError, match=r"scan\.amplifier\.pump_power: expected >= 0"):
            parse_config(
                '{"scan": {"kind": "power_sweep", "amplifier": {"pump_power": -3}}}'
            )

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"scan": {"kind": "phase_scan"}, "verbosty": 1}, "verbosty"),
            ({"scan": {"kind": "phase_scan", "gird": [1, 2]}}, "scan.gird"),
            ({"scan": {"kind": "phase_scan", "grid": {"start": -4, "stop": 4, "nun": 5}}},
             "scan.grid.nun"),
            ({"scan": {"kind": "phase_scan", "amplifier": {"pump_powr": 30}}},
             "scan.amplifier.pump_powr"),
            ({"scan": {"kind": "phase_scan", "calibration": {"mdoe": "saturating"}}},
             "scan.calibration.mdoe"),
            ({"scan": {"kind": "phase_scan", "calibration": {"anchor": {"powr": 30}}}},
             "scan.calibration.anchor.powr"),
            ({"scan": {"kind": "phase_scan", "detection": {"noise_sigm": 0.05}}},
             "scan.detection.noise_sigm"),
        ],
        ids=["root", "scan", "grid", "amplifier", "calibration", "anchor", "detection"],
    )
    def test_unknown_key_is_refused(self, doc, key):
        message = rf"^unknown key '{re.escape(key)}' \(known keys here: "
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"scan": {"kind": "phase_scan", "detection": {"noise_sigma": 0.05, '
             '"noise_sigma": 0.0}}}', "scan.detection.noise_sigma"),
            ('{"scan": {"kind": "phase_scan"}, "scan": {"kind": "power_sweep"}}', "scan"),
            ('{"scan": {"kind": "power_sweep", "grid": {"values": [0, 1], "values": [2]}}}',
             "scan.grid.values"),
            ('{"scan": {"kind": "phase_scan", "calibration": {"anchor": {"power": 30, '
             '"power": 40}}}}', "scan.calibration.anchor.power"),
        ],
        ids=["detection", "root", "grid", "anchor"],
    )
    def test_repeated_key_is_refused(self, text, key):
        message = rf"^{re.escape(key)}: set twice in the run document$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_deep_nesting_is_a_config_error(self, depth):
        with pytest.raises(ConfigError, match="^config: nests arrays or objects too deeply"):
            parse_config('{"scan": %s%s}' % ("[" * depth, "]" * depth))

    @pytest.mark.parametrize(
        "scan, key",
        [
            ('"grid": {"start": -4, "stop": 4, "num": Infinity}', "scan.grid.num"),
            ('"detection": {"n_samples": NaN}', "scan.detection.n_samples"),
            # an integer past float range
            ('"grid": {"start": -4, "stop": 1%s, "num": 9}' % ("0" * 400), "scan.grid.stop"),
            ('"grid": [0, 1%s]' % ("0" * 400), "scan.grid"),
        ],
    )
    def test_non_finite_numbers_rejected(self, scan, key):
        with pytest.raises(ConfigError, match=rf"{key}: expected a finite number"):
            parse_config('{"scan": {"kind": "phase_scan", %s}}' % scan)

    def test_grid_forms(self):
        by_values = parse_config('{"scan": {"kind": "power_sweep", "grid": [0, 40, 80]}}')
        assert by_values.scan.grid == (0.0, 40.0, 80.0)
        by_linspace = parse_config(
            '{"scan": {"kind": "power_sweep", "grid": {"start": 0, "stop": 80, "num": 5}}}'
        )
        assert by_linspace.scan.grid == (0.0, 20.0, 40.0, 60.0, 80.0)
        by_step = parse_config(
            '{"scan": {"kind": "power_sweep", "grid": {"start": 0, "stop": 80, "step": 20}}}'
        )
        assert by_step.scan.grid == (0.0, 20.0, 40.0, 60.0, 80.0)

    @pytest.mark.parametrize(
        "grid, keys",
        [
            ({"values": [0, 40], "start": 0, "stop": 80, "num": 5}, "values, start, stop, num"),
            ({"start": 0, "stop": 80, "num": 3, "step": 10}, "start, stop, num, step"),
            ({"values": [0, 40], "step": 10}, "values, step"),
        ],
    )
    def test_mixed_grid_forms_refused(self, tmp_path, capsys, grid, keys):
        doc = {"scan": {"kind": "power_sweep", "grid": grid}}
        with pytest.raises(ConfigError, match=rf"^scan\.grid: mixes grid forms: {keys}$"):
            parse_config(json.dumps(doc))
        path, out = tmp_path / "mixed.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        assert main(["power-sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"psalab: config error: scan.grid: mixes grid forms: {keys}\n"
        assert not out.exists()

    def test_bad_grid_named(self):
        with pytest.raises(ConfigError, match="scan.grid"):
            parse_config('{"scan": {"kind": "power_sweep", "grid": {"start": 0}}}')

    def test_scan_constraints_become_config_errors(self):
        with pytest.raises(ConfigError, match="2\\*pi"):
            parse_config('{"scan": {"kind": "phase_scan", "grid": [0.0, 1.0]}}')

    def test_full_beatnote_spectrum_default_grid_runs(self):
        # The default detuning grid starts at 0 kHz.
        doc = {"scan": {"kind": "detuning_spectrum", "pipeline": "full_beatnote"}}
        spec = parse_config(json.dumps(doc)).scan
        assert spec.grid[0] == 0.0
        beat, model = run_scan(spec), run_scan(replace(spec, pipeline="model_exact"))
        for name, expected in model.columns.items():
            difference = np.abs(beat.columns[name] - expected) / np.maximum(np.abs(expected), 1.0)
            assert np.max(difference) <= 1e-9, name
        assert beat.metadata["bandwidth_khz"] == model.metadata["bandwidth_khz"]

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("kind: phase_scan")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="scan.kind"):
            parse_config("{}")

    def test_document_round_trip_equality(self):
        cfg = parse_config(
            json.dumps(
                {
                    "scan": {
                        "kind": "transfer_curve",
                        "grid": {"start": -3.0, "stop": 3.2, "num": 65},
                        "amplifier": {"r": 0.83},
                        "detection": {"noise_sigma": 0.01, "rng_seed": 5},
                        "input_ratio": 1.78,
                    },
                    "emit": ["csv", "json", "binary"],
                    "verbosity": 2,
                }
            )
        )
        echoed = parse_config(json.dumps(to_document(cfg)))
        assert echoed == cfg

    def test_calibration_override_keeps_anchor_fit(self):
        cfg = parse_config(
            '{"scan": {"kind": "power_sweep", "calibration": {"p_sat": 20.0}}}'
        )
        cal = cfg.scan.calibration
        r_eff, loss = effective_r(40.0, 2.0, cal)
        assert loss * math.exp(2 * r_eff) == pytest.approx(7.0, rel=1e-12)
        assert cal.p_sat == 20.0

    @pytest.mark.parametrize("bandwidth", [1e-320, 1e-160])
    def test_calibration_window_underflow_named(self, bandwidth):
        doc = {"scan": {"kind": "power_sweep", "calibration": {"bandwidth_hwhm": bandwidth}}}
        with pytest.raises(ConfigError, match=r"^scan\.calibration\.bandwidth_hwhm: "):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "shape, field", [({"bandwidth_hwhm": 0.0}, "bandwidth_hwhm"), ({"p_sat": -40.0}, "p_sat")]
    )
    def test_fitted_calibration_names_bad_field(self, shape, field):
        with pytest.raises(DomainError, match=rf"^{field}: expected > 0"):
            fitted_calibration(**shape)

    @pytest.mark.parametrize("emit", ['"csv"', '{"csv": 1}'])
    @pytest.mark.parametrize("api", ["document", "check_emit", "RunConfig"])
    def test_emit_must_be_a_list(self, emit, api):
        value = json.loads(emit)
        build = {
            "document": lambda: parse_config('{"scan": {"kind": "phase_scan"}, "emit": %s}' % emit),
            "check_emit": lambda: check_emit(value),
            "RunConfig": lambda: RunConfig(ScanSpec("power_sweep", (0.0,)), ".", value),
        }[api]
        with pytest.raises(ConfigError, match="^emit: expected a list"):
            build()

    @pytest.mark.parametrize("verbosity", [True, [1]], ids=["bool", "list"])
    def test_run_config_verbosity_is_a_number(self, verbosity):
        with pytest.raises(DomainError, match=r"^verbosity: expected a number, got "):
            RunConfig(ScanSpec("power_sweep", (0.0,)), ".", verbosity=verbosity)

    @pytest.mark.parametrize("output_dir", [5, None, ["out"]])
    def test_output_dir_is_a_path(self, output_dir):
        message = f"^output_dir: expected a string path, got {re.escape(repr(output_dir))}$"
        with pytest.raises(ConfigError, match=message):
            RunConfig(ScanSpec("power_sweep", (0.0,)), output_dir)
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"scan": {"kind": "phase_scan"}, "output_dir": output_dir}))

    @pytest.mark.parametrize(
        "key, value",
        [("step", 1e-300), ("num", 1e300), ("step", 1e-15), ("num", 1e15), ("num", 2**63)],
    )
    def test_grid_numpy_cannot_expand(self, key, value):
        # numpy refuses the first two counts outright; the next two ask for more
        # bytes than a 128 TiB address space, so their allocation fails untouched;
        # linspace raises IndexError at 2**63 points
        grid = {"start": 0, "stop": 80, key: value}
        with pytest.raises(ConfigError, match=rf"^scan\.grid\.{key}: "):
            parse_config(json.dumps({"scan": {"kind": "power_sweep", "grid": grid}}))


def numeric_fields(cls):
    """(name, default) of each field whose default is a number or None."""
    return [
        (f.name, f.default)
        for f in fields(cls)
        if f.default is None
        or (isinstance(f.default, (int, float)) and not isinstance(f.default, bool))
    ]


# Every numeric document key with its default: scan sections from their
# dataclasses, the anchor from fitted_calibration's keyword defaults.
NUMERIC_KEYS = (
    [(("scan", "amplifier", name), default) for name, default in numeric_fields(AmplifierParams)]
    + [(("scan", "detection", name), default) for name, default in numeric_fields(DetectionConfig)]
    + [(("scan", "calibration", name), default) for name, default in numeric_fields(CalibrationMap)]
    + [
        (("scan", "calibration", "anchor", name), default)
        for name, default in fitted_calibration.__kwdefaults__.items()
    ]
    + [(("scan", name), default) for name, default in numeric_fields(ScanSpec)]
    + [((name,), default) for name, default in numeric_fields(RunConfig)]
)
NUMERIC_IDS = [".".join(path) for path, _ in NUMERIC_KEYS]


def document_with(path, value) -> str:
    doc = {"scan": {"kind": "phase_scan"}}
    section = doc
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    return json.dumps(doc)


class TestSchemaCoverage:
    """Each numeric key is type-checked, bounded and defaulted by its dataclass."""

    def test_every_section_covered(self):
        sections = {".".join(path[:-1]) for path, _ in NUMERIC_KEYS}
        assert sections == {
            "", "scan", "scan.amplifier", "scan.detection", "scan.calibration",
            "scan.calibration.anchor",
        }

    @pytest.mark.parametrize("path, default", NUMERIC_KEYS, ids=NUMERIC_IDS)
    @pytest.mark.parametrize(
        "value", ["1.0", True, [1.0], {}], ids=["string", "bool", "list", "object"]
    )
    def test_non_number_named(self, path, default, value):
        with pytest.raises(ConfigError, match=rf"^{'.'.join(path)}: expected a number"):
            parse_config(document_with(path, value))

    @pytest.mark.parametrize("value", [None, [1.0], {}, 1j, np.complex128(0.5 + 2j), object()])
    @pytest.mark.parametrize("integer", [False, True])
    def test_check_number_names_a_non_number(self, value, integer):
        with pytest.raises(DomainError, match=r"^x: expected a number, got "):
            check_number("x", value, integer=integer)

    def test_out_of_range_named(self):
        # pump_phase is stored wrapped, so no finite value is out of its range.
        unbounded = []
        for path, _ in NUMERIC_KEYS:
            try:
                parse_config(document_with(path, -1))
            except ConfigError as err:
                assert str(err).startswith(".".join(path) + ": expected ")
            else:
                unbounded.append(".".join(path))
        assert unbounded == ["scan.amplifier.pump_phase"]

    @pytest.mark.parametrize("path, default", NUMERIC_KEYS, ids=NUMERIC_IDS)
    def test_null_only_where_default_is_none(self, path, default):
        if default is None:
            doc = json.loads(document_with(path, None))
            if path == ("scan", "amplifier", "pump_power"):
                doc["scan"]["amplifier"]["r"] = 0.5  # a phase scan needs r or pump_power
            section = parse_config(json.dumps(doc)).scan
            for key in path[1:-1]:
                section = getattr(section, key)
            assert getattr(section, path[-1]) is None
        else:
            with pytest.raises(ConfigError, match=rf"^{'.'.join(path)}: "):
                parse_config(document_with(path, None))

    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_defaults_are_the_dataclass_defaults(self, kind, monkeypatch):
        monkeypatch.delenv("PSALAB_OUT", raising=False)

        def scalar_defaults(cls):
            return {f.name: f.default for f in fields(cls) if f.default is not MISSING}

        expected = {
            "scan": {
                "kind": kind,
                "grid": {"values": list(DEFAULT_GRIDS[kind])},
                "amplifier": {**asdict(AmplifierParams()), "pump_power": DEFAULT_PUMP_POWER_MW},
                "calibration": asdict(fitted_calibration()),
                "detection": asdict(DetectionConfig()),
                **scalar_defaults(ScanSpec),
            },
            "output_dir": ".",
            **{key: list(value) if isinstance(value, tuple) else value
               for key, value in scalar_defaults(RunConfig).items()},
        }
        assert to_document(parse_config(json.dumps({"scan": {"kind": kind}}))) == expected


class TestCliSweeps:
    def test_power_sweep_emits_csv_and_sidecar(self, tmp_path, capsys):
        status = main(
            [
                "power-sweep",
                "--out", str(tmp_path),
                "--name", "sweep",
                "--seed", "11",
            ]
        )
        assert status == EXIT_OK
        names, data = read_sweep_csv(tmp_path / "sweep.csv")
        assert names == ["power_mw", "g_max", "g_min", "inv_g_max"]
        assert data.shape[1] == 4
        sidecar = json.loads((tmp_path / "sweep.json").read_text())
        assert sidecar["master_seed"] == 11
        assert sidecar["config_echo"]["scan"]["kind"] == "power_sweep"
        out = capsys.readouterr().out
        assert "g_max=" in out and "g_min=" in out and "product=" in out

    def test_byte_identical_rerun(self, tmp_path):
        args = ["power-sweep", "--out", str(tmp_path), "--name", "run", "--seed", "3"]
        main(args)
        first_csv = (tmp_path / "run.csv").read_bytes()
        first_json = (tmp_path / "run.json").read_bytes()
        main(args)
        assert (tmp_path / "run.csv").read_bytes() == first_csv
        assert (tmp_path / "run.json").read_bytes() == first_json

    def test_spectrum_reports_bandwidth(self, tmp_path, capsys):
        status = main(["spectrum", "--out", str(tmp_path), "--name", "spec", "--quiet"])
        assert status == EXIT_OK
        sidecar = json.loads((tmp_path / "spec.json").read_text())
        assert sidecar["bandwidth_khz"] >= 200.0
        assert capsys.readouterr().out == ""

    def test_config_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"scan": {"kind": "transfer_curve"}}')
        assert main(["power-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    # An idler seed 1e-15 of the signal leaves the cell-off records no 2*delta
    # reference beat: a physics-domain failure that only the run can find.
    NO_REFERENCE_BEAT = {"kind": "phase_scan", "pipeline": "full_beatnote", "input_ratio": 1e30}

    def test_domain_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": self.NO_REFERENCE_BEAT}))
        assert main(["phase-scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("psalab: domain error: no reference beat: ")
        # All 257 grid points fail; the message names the first, not every amplitude.
        assert "at row 0" in err and len(err) < 300

    @pytest.mark.parametrize(
        "command, kind", [("phase-scan", "phase_scan"), ("transfer", "transfer_curve")]
    )
    def test_unset_operating_point_exits_config(self, tmp_path, capsys, command, kind):
        # Neither r nor pump_power: the spec is refused when it is built.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {"kind": kind, "amplifier": {"pump_power": None}}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("psalab: config error: scan.amplifier: ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, scan, key",
        [
            ("phase-scan", {"kind": "phase_scan", "amplifier": {"r": 1000}}, "scan.amplifier.r"),
            (
                "phase-scan",
                {"kind": "phase_scan", "calibration": {"loss_exponent_scale": 1e300}},
                "scan.calibration.loss_exponent_scale",
            ),
            ("spectrum", {"kind": "detuning_spectrum", "grid": [0, 1e200]}, "scan.grid"),
            # An idler seed 1/sqrt(input_ratio) past e^R_MAX, the bound the loss floor sets.
            ("transfer", {"kind": "transfer_curve", "input_ratio": 5e-324}, "scan.input_ratio"),
            ("power-sweep", {"kind": "power_sweep", "pipeline": "full_beatnote",
                             "input_ratio": 1e-320}, "scan.input_ratio"),
            ("phase-scan", {"kind": "phase_scan", "input_ratio": 1e-320}, "scan.input_ratio"),
        ],
        ids=["huge_r", "huge_loss_exponent", "huge_detuning", "huge_idler_transfer",
             "huge_idler_beatnote_power_sweep", "huge_idler_phase_scan"],
    )
    def test_overflowing_operating_point_exits_config(self, tmp_path, capsys, command, scan, key):
        # Each field is within its own bound; the amplifier they imply would
        # overflow a float, so the spec is refused when it is built.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": scan}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"psalab: config error: {key}: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_input_ratio_floor_bounds_the_idler_seed_by_e_to_r_max(self):
        with pytest.raises(DomainError, match=r"^input_ratio: expected >= 1\.3839e-87, got 1e-88$"):
            ScanSpec("power_sweep", (40.0,), input_ratio=1e-88)
        spec = ScanSpec("power_sweep", (40.0,), input_ratio=math.exp(-2.0 * sweeps.R_MAX))
        assert abs(spec.input_fields()[1]) == pytest.approx(math.exp(sweeps.R_MAX), rel=1e-15)

    @pytest.mark.parametrize(
        "command, scan, key, value",
        [
            ("spectrum", {"kind": "detuning_spectrum",
                          "detection": {"residual_pump_intensity": 1.7976931348623157e308}},
             "scan.detection.residual_pump_intensity", "1.7976931348623157e+308"),
            ("pia-compare", {"kind": "pia_compare", "detection": {"noise_sigma": 1e308}},
             "scan.detection.noise_sigma", "1e+308"),
        ],
        ids=["spectrum_pump", "pia_noise"],
    )
    def test_overflowing_intensity_exits_config(self, tmp_path, capsys, command, scan, key,
                                                value):
        # Finite fields whose records would overflow a float: refused when the spec is
        # built, above the largest idler seed intensity, e^(2*R_MAX).
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {**scan, "pipeline": "full_beatnote"}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"psalab: config error: {key}: expected <= 7.22597e+86, got {value}\n"
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_overflowing_extremum_fit_raises_domain_error(self):
        # Past R_MAX, which no spec reaches, the fit block overflows and the quartic's
        # companion matrix is not finite: eigvals' LinAlgError becomes a DomainError.
        spec = ScanSpec("power_sweep", (40.0,), pipeline="full_beatnote")
        with np.errstate(all="ignore"), pytest.raises(DomainError) as info:
            sweeps._BeatnotePipeline(spec).gain_extrema(300.0, 1.0, 0)
        assert str(info.value).startswith("extremum fit: the quartic's coefficients ")
        assert str(info.value).endswith(" do not give finite roots at grid point 0")

    @pytest.mark.parametrize(
        "command, kind, keys, key",
        [
            ("power-sweep", "power_sweep", {"amplifier": {"detuning": 1e200}},
             "scan.detection.sample_rate"),
            ("phase-scan", "phase_scan", {"detection": {"sample_rate": 30}},
             "scan.detection.sample_rate"),
            ("phase-scan", "phase_scan", {"detection": {"n_samples": 1999}},
             "scan.detection.n_samples"),
            ("spectrum", "detuning_spectrum", {"grid": [10, 20], "detection": {"n_samples": 150}},
             "scan.detection.n_samples"),
            ("phase-scan", "phase_scan", {"amplifier": {"detuning": 0}}, "scan.amplifier.detuning"),
            # More samples than the address space holds: refused before any record is made.
            ("phase-scan", "phase_scan", {"detection": {"n_samples": 1e15}},
             "scan.detection.n_samples"),
            # Counts past a float, before their period count is taken.
            ("phase-scan", "phase_scan", {"detection": {"n_samples": 1.7976931348623157e308}},
             "scan.detection.n_samples"),
            ("power-sweep", "power_sweep", {"detection": {"n_samples": 2**1100}},
             "scan.detection.n_samples"),
        ],
        ids=["huge_detuning", "slow_sampling", "fractional_periods", "spectrum_periods", "no_beat",
             "huge_record", "float_max_record", "past_float_record"],
    )
    def test_sampling_errors_name_their_key(self, tmp_path, capsys, command, kind, keys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {"kind": kind, "pipeline": "full_beatnote", **keys}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"psalab: config error: {key}: ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs Linux's RLIMIT_AS and /proc/self/statm")
    def test_planes_of_two_workers_are_checked_when_the_spec_is_built(self, tmp_path, capsys):
        """Address space for one worker's synthesis planes but not for two: a noisy scan
        exits 2 before it starts, on any host, while the noiseless spec is built."""
        import resource

        n_samples = 1_000_000  # 1000 periods of 2 kHz at 100 kHz; one worker's planes: 512 MB
        with open("/proc/self/statm") as statm:
            mapped = int(statm.read().split()[0]) * resource.getpagesize()
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = mapped + 768 * 2**20
        if hard != resource.RLIM_INFINITY and hard < limit:
            pytest.skip("the hard address-space limit leaves no room for one worker's planes")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {"kind": "phase_scan", "pipeline": "full_beatnote",
                                            "detection": {"n_samples": n_samples,
                                                          "noise_sigma": 0.05}}}))
        spec = parse_config(cfg.read_text()).scan
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        try:
            replace(spec, detection=replace(spec.detection, noise_sigma=0.0))
            code = main(["phase-scan", "--config", str(cfg), "--out", str(tmp_path)])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("psalab: config error: scan.detection.n_samples: ")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scan", [{}, {"input_ratio": 1.78}, {"pipeline": "full_beatnote"}],
                             ids=["model_exact", "model_exact_mixed", "full_beatnote"])
    def test_transfer_without_local_oscillator_exits_config(self, tmp_path, capsys, scan):
        # The cosine readout of the output phase beats against the residual pump.
        doc = {"scan": {"kind": "transfer_curve", "detection": {"residual_pump_intensity": 0},
                        **scan}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("psalab: config error: scan.detection.residual_pump_intensity: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        status = main(["power-sweep", "--out", str(blocker / "sub"), "--name", "run"])
        assert status == EXIT_IO

    def test_output_file_that_is_a_directory_exits_io(self, tmp_path, capsys):
        (tmp_path / "run.csv").mkdir()
        assert main(["power-sweep", "--out", str(tmp_path), "--name", "run"]) == EXIT_IO
        assert capsys.readouterr().err.startswith("psalab: I/O error: ")

    def test_bad_emit_value(self, tmp_path):
        assert main(["power-sweep", "--out", str(tmp_path), "--emit", "parquet"]) == EXIT_CONFIG

    def test_emit_format_named_twice_exits_config(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        assert main(["power-sweep", "--out", str(out), "--emit", "csv,json,json"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "psalab: config error: emit: format 'json' is named twice")
        assert not out.exists()

    def test_missing_config_exits_io(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        argv = ["power-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(out)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.startswith("psalab: I/O error: ")
        assert not out.exists()

    def test_bad_seed_flag(self, tmp_path, capsys):
        assert main(["power-sweep", "--out", str(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
        assert "scan.detection.rng_seed: expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]", '"power_sweep"', '{"scan": [1]}', '{"scan": "x"}'])
    def test_non_object_config_document(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["power-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "expected an object" in capsys.readouterr().err

    def test_flags_echo_like_document_keys(self, tmp_path):
        argv = ["power-sweep", "--out", str(tmp_path), "--name", "run", "--seed", "9",
                "--emit", "json,csv", "--quiet"]
        assert main(argv) == EXIT_OK
        echo = json.loads((tmp_path / "run.json").read_text())["config_echo"]
        doc = {"scan": {"kind": "power_sweep", "detection": {"rng_seed": 9}},
               "output_dir": str(tmp_path), "emit": ["json", "csv"], "verbosity": 0}
        assert echo == to_document(parse_config(json.dumps(doc)))
        assert echo["scan"]["detection"]["rng_seed"] == 9
        assert (echo["emit"], echo["verbosity"]) == (["json", "csv"], 0)

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSALAB_OUT", str(tmp_path / "envout"))
        assert main(["power-sweep", "--name", "run", "--quiet"]) == EXIT_OK
        assert (tmp_path / "envout" / "run.csv").exists()

    def test_binary_sweep_emission(self, tmp_path):
        status = main(
            ["power-sweep", "--out", str(tmp_path), "--name", "run", "--emit", "binary", "--quiet"]
        )
        assert status == EXIT_OK
        blob = (tmp_path / "run.bin").read_bytes()
        assert blob[:4] == b"PSSW"
        # header + 4 named columns of 33 doubles
        assert len(blob) > 4 * 33 * 8


def run_summary(tmp_path, capsys, subcommand):
    """Run a stock subcommand; return its summary fields and its CSV columns."""
    assert main([subcommand, "--out", str(tmp_path), "--name", "run"]) == EXIT_OK
    kind, *pairs = capsys.readouterr().out.splitlines()[0].split()
    fields = {key: float(value) for key, value in (pair.split("=") for pair in pairs)}
    names, data = read_sweep_csv(tmp_path / "run.csv")
    return kind, fields, dict(zip(names, data.T))


class TestCliSummary:
    """The one-line summary carries the right fields for each scan kind."""

    @staticmethod
    def check_extrema(fields, top, bottom):
        assert fields["g_max"] == pytest.approx(top.max(), rel=1e-5)
        assert fields["g_min"] == pytest.approx(bottom.min(), rel=1e-5)
        assert fields["product"] == pytest.approx(top.max() * bottom.min(), rel=1e-5)
        assert fields["n"] == top.size

    def test_phase_scan(self, tmp_path, capsys):
        kind, fields, cols = run_summary(tmp_path, capsys, "phase-scan")
        assert kind == "phase_scan:"
        assert set(fields) == {"g_max", "g_min", "product", "n"}
        self.check_extrema(fields, cols["gain"], cols["gain"])

    def test_power_sweep(self, tmp_path, capsys):
        kind, fields, cols = run_summary(tmp_path, capsys, "power-sweep")
        assert kind == "power_sweep:"
        assert set(fields) == {"g_max", "g_min", "product", "n"}
        self.check_extrema(fields, cols["g_max"], cols["g_min"])

    def test_pia_compare_reports_residual_not_g_min(self, tmp_path, capsys):
        kind, fields, cols = run_summary(tmp_path, capsys, "pia-compare")
        assert kind == "pia_compare:"
        assert set(fields) == {"g_max", "pia_residual_max", "n"}
        assert fields["g_max"] == pytest.approx(cols["g_max"].max(), rel=1e-5)
        residual = np.max(np.abs(cols["g_max"] - cols["g_max_from_pia"]))
        assert fields["pia_residual_max"] == pytest.approx(residual, rel=1e-2, abs=1e-300)
        assert fields["pia_residual_max"] <= 1e-6

    def test_spectrum(self, tmp_path, capsys):
        kind, fields, cols = run_summary(tmp_path, capsys, "spectrum")
        assert kind == "detuning_spectrum:"
        assert set(fields) == {"g_max", "g_min", "product", "bandwidth_khz", "n"}
        self.check_extrema(fields, cols["g_max"], cols["g_min"])
        assert fields["bandwidth_khz"] >= 200.0

    def test_transfer(self, tmp_path, capsys):
        kind, fields, cols = run_summary(tmp_path, capsys, "transfer")
        assert kind == "transfer_curve:"
        assert set(fields) == {"g_max", "g_min", "product", "n"}
        self.check_extrema(fields, cols["gain"], cols["gain"])


class TestCliTransferAndHistogram:
    def test_transfer_then_histogram(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"scan": {"kind": "transfer_curve", "amplifier": {"r": 1.0}}}
            )
        )
        assert (
            main(["transfer", "--config", str(cfg), "--out", str(tmp_path), "--name", "tc"])
            == EXIT_OK
        )
        names, data = read_sweep_csv(tmp_path / "tc.csv")
        assert names == [
            "phi_in",
            "gain",
            "gain_idler",
            "cos_phi_out",
            "phi_out_wrapped",
            "phi_out_unwrapped",
        ]
        assert main(["histogram", str(tmp_path / "tc.csv"), "--bins", "32"]) == EXIT_OK
        hist = (tmp_path / "tc_hist.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        counts = np.array([int(line.split(",")[2]) for line in hist[1:]])
        assert counts.sum() == data.shape[0]
        # strong squeezer: occupied bins cluster near 0 and +-pi
        edges = np.array([float(line.split(",")[0]) for line in hist[1:]])
        occupied = edges[counts > 0]
        centred = np.minimum(np.mod(occupied, math.pi), math.pi - np.mod(occupied, math.pi))
        assert np.mean(counts[centred <= 0.3 + math.pi / 16]) > 0

    def test_histogram_missing_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["histogram", str(bad)]) == EXIT_CONFIG

    def test_histogram_refuses_a_column_that_is_not_a_phase(self, tmp_path, capsys):
        # Gains above pi would wrap into the low bins.
        main(["phase-scan", "--out", str(tmp_path), "--name", "ph", "--quiet"])
        path = tmp_path / "ph.csv"
        assert main(["histogram", str(path), "--column", "gain"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("psalab: config error: --column 'gain' is not a phase column "
                                f"(phase columns of {path}: phi_in)\n")
        assert not (tmp_path / "ph_hist.csv").exists()

    def test_histogram_bins_an_input_phase_column(self, tmp_path):
        main(["phase-scan", "--out", str(tmp_path), "--name", "ph", "--quiet"])
        argv = ["histogram", str(tmp_path / "ph.csv"), "--column", "phi_in", "--quiet"]
        assert main(argv) == EXIT_OK
        counts = [int(line.split(",")[2])
                  for line in (tmp_path / "ph_hist.csv").read_text().splitlines()[1:]]
        assert sum(counts) == len(DEFAULT_GRIDS["phase_scan"])

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    def test_histogram_rejects_too_few_bins(self, tmp_path, capsys, bins):
        sweep = tmp_path / "one.csv"
        sweep.write_text("phi_out_wrapped,gain\n0.5,1\n")
        assert main(["histogram", str(sweep), "--bins", bins]) == EXIT_CONFIG
        assert "--bins" in capsys.readouterr().err
        assert not (tmp_path / "one_hist.csv").exists()

    # Only counts far past any memory: numpy refuses them before allocating.
    @pytest.mark.parametrize("bins", [10**13, 2**63, 10**30])
    def test_histogram_refuses_bins_numpy_cannot_hold(self, tmp_path, capsys, bins):
        sweep = tmp_path / "one.csv"
        sweep.write_text("phi_out_wrapped,gain\n0.5,1\n")
        assert main(["histogram", str(sweep), "--bins", str(bins)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"psalab: config error: --bins: numpy cannot hold {bins} bins" in err
        assert not (tmp_path / "one_hist.csv").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("phi_out_wrapped,gain\n0.5,1\nabc,2\n", "abc"),
            ("phi_out_wrapped,gain\n0.5,1\n0.25\n", "every row needs 2 cells"),
            ("phi_out_wrapped,gain\n0.5,1\nnan,2\n", "must be finite"),
        ],
        ids=["non_numeric", "ragged", "nan"],
    )
    def test_histogram_rejects_malformed_sweep(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert main(["histogram", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(bad) in err and message in err


class TestCliSynthAnalyze:
    def test_synth_then_analyze_round_trip(self, tmp_path, capsys):
        status = main(
            [
                "synth",
                "--out", str(tmp_path),
                "--name", "rec",
                "--emit", "csv,binary",
                "--seed", "21",
            ]
        )
        assert status == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "rec.bin")]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_samples"] == 2000
        assert summary["delta_khz"] == 2.0
        assert summary["at_two_delta"]["abs"] > 0.0
        # the CSV flavour analyses identically
        assert main(["analyze", str(tmp_path / "rec.csv")]) == EXIT_OK
        summary_csv = json.loads(capsys.readouterr().out)
        assert summary_csv["at_two_delta"]["abs"] == pytest.approx(
            summary["at_two_delta"]["abs"], rel=1e-12
        )

    def test_synth_cell_off_has_no_gain(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path), "--name", "on", "--emit", "binary"])
        main(["synth", "--out", str(tmp_path), "--name", "off", "--emit", "binary", "--cell-off"])
        capsys.readouterr()
        main(["analyze", str(tmp_path / "on.bin")])
        on = json.loads(capsys.readouterr().out)
        main(["analyze", str(tmp_path / "off.bin")])
        off = json.loads(capsys.readouterr().out)
        ratio = on["at_two_delta"]["abs"] / off["at_two_delta"]["abs"]
        r_eff, loss = effective_r(30.0, 2.0, parse_config('{"scan":{"kind":"phase_scan"}}').scan.calibration)
        assert ratio == pytest.approx(loss * math.exp(2 * r_eff), rel=1e-9)

    def test_analyze_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.bin")]) == EXIT_IO

    @pytest.mark.parametrize(
        "scan, key",
        [
            ({"detection": {"n_samples": 1999}}, "scan.detection.n_samples: "),
            ({"detection": {"n_samples": 10**14}}, "scan.detection.n_samples: "),
            ({"amplifier": {"detuning": 0}}, "scan.amplifier.detuning: "),
            ({"amplifier": {"detuning": 10}}, "scan.detection.sample_rate: "),
        ],
        ids=["off_period_grid", "unallocatable", "zero_detuning", "nyquist_margin"],
    )
    def test_synth_checks_record_sampling_before_creating_output_dir(
        self, tmp_path, capsys, scan, key
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": scan}))
        out = tmp_path / "newdir"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"psalab: config error: {key}")
        assert not out.exists()

    def test_synth_refuses_emit_list_before_creating_output_dir(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        assert main(["synth", "--emit", "json", "--out", str(out)]) == EXIT_CONFIG
        assert "synth emits records" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sample, message", [("abc", "abc"), ("nan", "must be finite")])
    def test_analyze_rejects_malformed_csv_record(self, tmp_path, capsys, sample, message):
        main(["synth", "--out", str(tmp_path), "--name", "rec", "--emit", "csv", "--quiet"])
        path = tmp_path / "rec.csv"
        lines = path.read_text().splitlines()
        t_ms, _ = lines[-5].split(",")
        lines[-5] = f"{t_ms},{sample}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [rows[1], rows[0], *rows[2:]], "time_ms: data row 1 reads '0.01'"),
            (lambda rows: [f"abc,{rows[0].split(',')[1]}", *rows[1:]],
             "time_ms: data row 1 reads 'abc'"),
        ],
        ids=["swapped_rows", "not_a_number"],
    )
    def test_analyze_rejects_csv_times_off_the_sample_grid(self, tmp_path, capsys, edit, message):
        main(["synth", "--out", str(tmp_path), "--name", "rec", "--emit", "csv", "--quiet"])
        path = tmp_path / "rec.csv"
        lines = path.read_text().splitlines()
        head = lines.index("time_ms,intensity") + 1
        path.write_text("\n".join([*lines[:head], *edit(lines[head:])]) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"psalab: config error: {path}: {message}; sample 0 ")

    @staticmethod
    def _one_sample_binary(blob: bytes) -> bytes:
        return short_header_record(blob, n=1)

    @staticmethod
    def _negative_rate_binary(blob: bytes) -> bytes:
        return short_header_record(blob, sample_rate=-100.0)

    @pytest.mark.parametrize(
        "emit, edit, message",
        [
            ("csv", lambda text: text.replace("# rng_seed=0", "# rng_seed=-1"), "rng_seed: "),
            ("csv", lambda text: first_rows(text, 1), "n_samples: "),
            ("csv", lambda text: text.replace("sample_rate_khz=100", "sample_rate_khz=-100"),
             "sample_rate: "),
            ("binary", _one_sample_binary, "n_samples: "),
            ("binary", _negative_rate_binary, "sample_rate: "),
            ("csv", lambda text: first_rows(text, 1000), "n_samples: "),
            ("binary", lambda blob: v2_record(blob, "n_samples=2000", "n_samples=1", n=1),
             "n_samples: "),
            ("binary", lambda blob: v2_record(blob, "sample_rate_khz=100", "sample_rate_khz=-100"),
             "sample_rate: "),
            ("binary", lambda blob: v2_record(blob, "rng_seed=0", "rng_seed=-1"), "rng_seed: "),
            ("binary", lambda blob: blob[: len(blob) - 8000], "n_samples: "),
            ("csv", lambda text: text.replace("# sample_rate_khz=100\n", ""), "sample_rate: "),
            ("csv", lambda text: text.replace("# noise_sigma=0", "# noise_sigm=0.05"),
             "noise_sigm: "),
            ("binary", lambda blob: v2_record(blob, "noise_sigma=0", "noise_sigm=0.05"),
             "noise_sigm: "),
            ("csv", lambda text: text.replace("# rng_seed=0", "# rng_seed=0\n# rng_seed=1"),
             "rng_seed: "),
            ("csv", lambda text: text.replace("# noise_sigma=0\n", "# noise_sigma 0.05\n"),
             "record header line 'noise_sigma 0.05' is not key=value"),
            ("binary", lambda blob: v2_record(blob, "noise_sigma=0\n", "noise_sigma 0.05\n"),
             "record header line 'noise_sigma 0.05' is not key=value"),
            ("csv", lambda text: text.replace("# psalab beatnote record v2\n", ""),
             "the record CSV does not open with '# psalab beatnote record vN'"),
        ],
        ids=["csv_negative_seed", "csv_one_sample", "csv_negative_rate", "binary_one_sample",
             "binary_negative_rate", "csv_truncated", "binary_v2_one_sample",
             "binary_v2_negative_rate", "binary_v2_negative_seed", "binary_v2_truncated",
             "csv_no_rate", "csv_unknown_key", "binary_v2_unknown_key", "csv_repeated_key",
             "csv_line_without_equals", "binary_v2_line_without_equals", "csv_no_title"],
    )
    def test_analyze_rejects_out_of_range_header(self, tmp_path, capsys, emit, edit, message):
        main(["synth", "--out", str(tmp_path), "--name", "rec", "--emit", emit, "--quiet"])
        path = tmp_path / ("rec.csv" if emit == "csv" else "rec.bin")
        if emit == "csv":
            path.write_text(edit(path.read_text()))
        else:
            path.write_bytes(edit(path.read_bytes()))
        capsys.readouterr()
        assert main(["analyze", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"psalab: config error: {path}: {message}")

    def test_analyze_rejects_nan_in_binary_record(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path), "--name", "rec", "--emit", "binary", "--quiet"])
        path = tmp_path / "rec.bin"
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["analyze", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "must be finite" in captured.err

    def test_analyze_refuses_a_peak_that_overflows(self, tmp_path, capsys):
        # Finite samples of +-1.79e308 on the 2*delta tone: their peak sums past the largest float.
        cfg = DetectionConfig()
        t_ms = np.arange(cfg.n_samples) / cfg.sample_rate
        samples = 1.79e308 * np.sign(np.cos(2.0 * math.pi * 4.0 * t_ms))
        path = record_to_binary(BeatnoteRecord(samples, 2.0, cfg), tmp_path / "rec.bin")
        assert main(["analyze", str(path)]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"psalab: domain error: {path}: at_two_delta: peak amplitude inf is not finite\n")


class TestCliBadInputFiles:
    @pytest.mark.parametrize(
        "emit, delta, message",
        [
            ("csv", "-2", "frequency -2.0 maps to unusable bin -40 of 2000"),
            ("csv", "2.01", "frequency 2.01 is off the FFT bin grid (resolution 0.05)"),
            ("binary", -2.0, "frequency -2.0 maps to unusable bin -40 of 2000"),
            ("binary", "-2", "frequency -2.0 maps to unusable bin -40 of 2000"),
        ],
        ids=["csv_negative", "csv_off_grid", "binary_negative", "binary_v2_negative"],
    )
    def test_analyze_rejects_delta_off_the_bins(self, tmp_path, capsys, emit, delta, message):
        main(["synth", "--out", str(tmp_path), "--name", "rec", "--emit", emit, "--quiet"])
        path = tmp_path / ("rec.csv" if emit == "csv" else "rec.bin")
        if emit == "csv":
            path.write_text(path.read_text().replace("# delta_khz=2\n", f"# delta_khz={delta}\n"))
        elif isinstance(delta, float):
            path.write_bytes(short_header_record(path.read_bytes(), delta=delta))
        else:
            path.write_bytes(v2_record(path.read_bytes(), "delta_khz=2\n", f"delta_khz={delta}\n"))
        capsys.readouterr()
        assert main(["analyze", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"psalab: config error: {path}: delta: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["histogram", "{path}"], ["analyze", "{path}"], ["power-sweep", "--config", "{path}"]],
        ids=["histogram", "analyze", "config"],
    )
    def test_non_utf8_input_exits_config(self, tmp_path, capsys, argv):
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xff\xfephi_out_wrapped,gain\n0.5,1\n")
        assert main([arg.format(path=path) for arg in argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"psalab: config error: {path}: not UTF-8 text: ")


COMMON_FLAG_DEFAULTS = {"config": None, "seed": None, "out": None, "emit": None,
                        "quiet": False, "name": None}


@pytest.mark.parametrize("command", ["phase-scan", "power-sweep", "pia-compare", "spectrum",
                                     "transfer", "synth"])
def test_run_commands_take_the_common_flags(command):
    parser = build_parser()
    defaults = vars(parser.parse_args([command]))
    assert {key: defaults[key] for key in COMMON_FLAG_DEFAULTS} == COMMON_FLAG_DEFAULTS
    given = vars(parser.parse_args([command, "--config", "c.json", "--seed", "5", "--out", "o",
                                    "--emit", "csv", "--quiet", "--name", "b"]))
    assert {key: given[key] for key in COMMON_FLAG_DEFAULTS} == {
        "config": "c.json", "seed": 5, "out": "o", "emit": "csv", "quiet": True, "name": "b"}
    if command == "synth":
        assert defaults["cell_off"] is False
        assert parser.parse_args(["synth", "--cell-off"]).cell_off is True


def test_seed_help_takes_any_integer(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    assert re.search(r"--seed INT\s+master RNG seed, any integer >= 0",
                     capsys.readouterr().out)
    assert build_parser().parse_args(["synth", "--seed", str(2**70)]).seed == 2**70


@pytest.mark.parametrize("command", ["phase-scan", "power-sweep", "pia-compare", "spectrum",
                                     "transfer", "synth"])
def test_repeated_key_exits_config_and_writes_nothing(tmp_path, capsys, command):
    path = tmp_path / "twice.json"
    path.write_text('{"scan": {"detection": {"noise_sigma": 0.05, "noise_sigma": 0.0}}}')
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("psalab: config error: scan.detection.noise_sigma: "
                            "set twice in the run document\n")
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["phase-scan", "power-sweep", "pia-compare", "spectrum",
                                     "transfer", "synth"])
def test_unknown_key_exits_config_and_writes_nothing(tmp_path, capsys, command):
    path = tmp_path / "typo.json"
    path.write_text('{"scan": {"detection": {"noise_sigm": 0.05}}}')
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    known = ", ".join(f.name for f in fields(DetectionConfig))
    assert captured.err == ("psalab: config error: unknown key 'scan.detection.noise_sigm' "
                            f"(known keys here: {known})\n")
    assert sorted(tmp_path.iterdir()) == [path]


# The no-escape property's documents: a sweep subcommand's kind (or synth's phase scan)
# under either pipeline, with 1 to 4 values from EDGE_VALUES placed at any scan key.
# Caps: a document that builds has at most MAX_GRID_POINTS grid points and
# MAX_N_SAMPLES samples a record, so that no example runs for long.
RUN_COMMANDS = {"phase-scan": "phase_scan", "power-sweep": "power_sweep",
                "pia-compare": "pia_compare", "spectrum": "detuning_spectrum",
                "transfer": "transfer_curve", "synth": "phase_scan"}
SCAN_PATHS = (
    [(key,) for key in ("kind", "pipeline", "grid", "amplifier", "calibration", "detection")]
    + [("grid", key) for key in ("values", "start", "stop", "num", "step")]
    + [("calibration", "mode"), ("calibration", "anchor")]
    + [path[1:] for path, _ in NUMERIC_KEYS if path[0] == "scan"]
)
EDGE_VALUES = (
    0, 1, -1, 0.5, 2.5, 7, 40, 80, 257, 2000, 100000, 2**63, 2**1100,
    5e-324, 1e-320, 1e-160, 1e-15, 1e15, 1e200, 1e308, 1.7976931348623157e308, -1e308,
    None, True, False, "", "x", "model_exact", "full_beatnote", "linear",
    [], [0.0], [0.0, 80.0], [1e200, 0.0], [3, 2, 1], {}, {"values": [1.0]}, {"start": 0, "stop": 1},
)
MAX_GRID_POINTS = 600
MAX_N_SAMPLES = 10**5


@st.composite
def run_documents(draw):
    """(subcommand, run document) with the edge values set in the stock document's scan."""
    command = draw(st.sampled_from(sorted(RUN_COMMANDS)))
    scan = {"kind": RUN_COMMANDS[command], "pipeline": draw(st.sampled_from(sweeps.PIPELINES))}
    for path in draw(st.lists(st.sampled_from(SCAN_PATHS), min_size=1, max_size=4)):
        section = scan
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = copy.deepcopy(draw(st.sampled_from(EDGE_VALUES)))
    try:
        spec = parse_config_document({"scan": scan}).scan
    except PsalabError:  # refused when built: nothing runs
        pass
    else:
        assume(len(spec.grid) <= MAX_GRID_POINTS and spec.detection.n_samples <= MAX_N_SAMPLES)
    return command, {"scan": scan}


# Each of the first four escaped cli.main (OverflowError, then numpy's LinAlgError three
# times); the last exited 3 after numpy RuntimeWarnings.
@example(("transfer", {"scan": {"kind": "transfer_curve", "input_ratio": 5e-324}}))
@example(("power-sweep", {"scan": {"kind": "power_sweep", "pipeline": "full_beatnote",
                                   "input_ratio": 1e-320}}))
@example(("pia-compare", {"scan": {"kind": "pia_compare", "pipeline": "full_beatnote",
                                   "detection": {"noise_sigma": 1e308}}}))
@example(("spectrum", {"scan": {"kind": "detuning_spectrum", "pipeline": "full_beatnote",
                                "detection": {"residual_pump_intensity": 1.7976931348623157e308}}}))
@example(("phase-scan", {"scan": {"kind": "phase_scan", "input_ratio": 1e-320}}))
@settings(max_examples=400, derandomize=True, deadline=None)
@given(run_documents())
def test_no_run_document_escapes_the_cli(case):
    """Every run document runs (exit 0) or exits 2, 3 or 4; nothing is raised past
    cli.main, no warning is issued (warnings are errors here), and a refused run
    writes no file."""
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)
        if code != EXIT_OK:
            assert not out.exists() or not any(out.iterdir())
