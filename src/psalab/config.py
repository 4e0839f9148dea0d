"""JSON run-configuration schema: parsing, validation and echo.

A run document looks like

    {
      "scan": {
        "kind": "phase_scan",
        "grid": {"start": -3.14159, "stop": 3.14159, "num": 257},
        "amplifier": {"pump_power": 30.0, "detuning": 2.0},
        "calibration": {"mode": "saturating"},
        "detection": {"noise_sigma": 0.0, "rng_seed": 1},
        "input_ratio": 1.0,
        "pipeline": "model_exact"
      },
      "output_dir": "out",
      "emit": ["csv", "json"],
      "verbosity": 1
    }

Every key is optional except scan.kind; omitted keys take the documented
defaults (a minimal pure-PSA phase scan needs nothing but the kind, with r
resolved from the anchored calibration map).  Unknown keys are errors in
strict mode and warnings otherwise.  Grids are given either as explicit
``values`` or as ``start``/``stop`` plus ``num`` (inclusive linspace) or
``step``.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .beatnote import DetectionConfig
from .calibration import CalibrationMap, fitted_calibration
from .errors import ConfigError, DomainError
from .serialize import EMIT_FORMATS, scan_spec_to_dict
from .squeezer import AmplifierParams
from .sweeps import PIPELINES, SCAN_KINDS, ScanSpec

ENV_OUTPUT_DIR = "PSALAB_OUT"

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "phase_scan": tuple(np.linspace(-math.pi, math.pi, 257)),
    "power_sweep": tuple(np.linspace(0.0, 80.0, 33)),
    "pia_compare": tuple(np.linspace(0.0, 80.0, 33)),
    "detuning_spectrum": tuple(np.linspace(0.0, 1000.0, 101)),
    "transfer_curve": tuple(np.linspace(-math.pi, math.pi, 512, endpoint=False)),
}

DEFAULT_PUMP_POWER_MW = 30.0


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI run: what to scan, where to write, what to emit."""

    scan: ScanSpec
    output_dir: Path
    emit: tuple[str, ...] = ("csv", "json")
    verbosity: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        emit = tuple(self.emit)
        if not emit:
            raise ConfigError("emit: at least one output format is required")
        for fmt in emit:
            if fmt not in EMIT_FORMATS:
                raise ConfigError(f"emit: unknown format {fmt!r}, expected subset of {EMIT_FORMATS}")
        object.__setattr__(self, "emit", emit)
        if int(self.verbosity) != self.verbosity or not 0 <= self.verbosity <= 2:
            raise ConfigError(f"verbosity: expected integer in [0, 2], got {self.verbosity!r}")
        object.__setattr__(self, "verbosity", int(self.verbosity))


def _names(cls, *extra: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls)) + extra


# Document keys mirror the dataclass fields they fill.
_KNOWN_KEYS = {
    "": _names(RunConfig),
    "scan": _names(ScanSpec),
    "scan.grid": ("values", "start", "stop", "num", "step"),
    "scan.amplifier": _names(AmplifierParams),
    "scan.calibration": _names(CalibrationMap, "anchor"),
    "scan.calibration.anchor": ("power", "detuning", "max_gain"),
    "scan.detection": _names(DetectionConfig),
}


def _check_keys(section: dict, path: str, strict: bool) -> None:
    known = _KNOWN_KEYS[path]
    for key in section:
        if key not in known:
            label = f"{path}.{key}" if path else key
            message = f"unknown key {label!r} (known keys here: {', '.join(known)})"
            if strict:
                raise ConfigError(message)
            warnings.warn(f"config: {message}", stacklevel=3)


def _section(doc: dict, path: str, key: str, strict: bool) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}.{key}: expected an object, got {value!r}")
    child = f"{path}.{key}" if path else key
    if child in _KNOWN_KEYS:
        _check_keys(value, child, strict)
    return value


def _number(
    section: dict,
    path: str,
    key: str,
    default,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    positive: bool = False,
    integer: bool = False,
    allow_none: bool = False,
):
    if key not in section:
        return default
    value = section[key]
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}.{key}: null is not allowed here")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{path}.{key}: expected > 0, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: expected >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}: expected <= {maximum}, got {value!r}")
    return int(value) if integer else float(value)


def _choice(section: dict, path: str, key: str, default: str, options: tuple[str, ...]) -> str:
    value = section.get(key, default)
    if value not in options:
        raise ConfigError(f"{path}.{key}: expected one of {options}, got {value!r}")
    return value


def _parse_grid(scan: dict, kind: str, strict: bool) -> tuple[float, ...]:
    if "grid" not in scan:
        return DEFAULT_GRIDS[kind]
    raw = scan["grid"]
    if isinstance(raw, list):
        values = raw
    elif isinstance(raw, dict):
        _check_keys(raw, "scan.grid", strict)
        if "values" in raw:
            values = raw["values"]
        else:
            start = _number(raw, "scan.grid", "start", None)
            stop = _number(raw, "scan.grid", "stop", None)
            if start is None or stop is None:
                raise ConfigError("scan.grid: needs 'values' or both 'start' and 'stop'")
            if "num" in raw:
                num = _number(raw, "scan.grid", "num", None, minimum=1, integer=True)
                return tuple(float(x) for x in np.linspace(start, stop, num))
            if "step" in raw:
                step = _number(raw, "scan.grid", "step", None)
                if step is None or step <= 0:
                    raise ConfigError(f"scan.grid.step: expected > 0, got {raw.get('step')!r}")
                return tuple(float(x) for x in np.arange(start, stop + 0.5 * step, step))
            raise ConfigError("scan.grid: start/stop need either 'num' or 'step'")
    else:
        raise ConfigError(f"scan.grid: expected a list or an object, got {raw!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"scan.grid.values: expected a non-empty list, got {values!r}")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"scan.grid.values: expected numbers, got {x!r}")
    return tuple(float(x) for x in values)


def _parse_amplifier(scan: dict, strict: bool) -> AmplifierParams:
    section = _section(scan, "scan", "amplifier", strict)
    r = _number(section, "scan.amplifier", "r", None, minimum=0.0, allow_none=True)
    power_default = None if r is not None else DEFAULT_PUMP_POWER_MW
    return AmplifierParams(
        r=r,
        pump_phase=_number(section, "scan.amplifier", "pump_phase", 0.0),
        pump_power=_number(
            section, "scan.amplifier", "pump_power", power_default, minimum=0.0, allow_none=True
        ),
        detuning=_number(section, "scan.amplifier", "detuning", 2.0, minimum=0.0),
    )


def _parse_calibration(scan: dict, strict: bool) -> CalibrationMap:
    section = _section(scan, "scan", "calibration", strict)
    anchor = _section(section, "scan.calibration", "anchor", strict)
    base = fitted_calibration(
        max_gain=_number(anchor, "scan.calibration.anchor", "max_gain", 7.0, minimum=1.0),
        power=_number(anchor, "scan.calibration.anchor", "power", 40.0, positive=True),
        detuning=_number(anchor, "scan.calibration.anchor", "detuning", 2.0, minimum=0.0),
        mode=_choice(section, "scan.calibration", "mode", "saturating", ("linear", "saturating")),
        p_sat=_number(section, "scan.calibration", "p_sat", 10.0, positive=True),
        bandwidth_hwhm=_number(
            section, "scan.calibration", "bandwidth_hwhm", 200.0, positive=True
        ),
        loss_exponent_scale=_number(
            section, "scan.calibration", "loss_exponent_scale", 2e-3, minimum=0.0
        ),
    )
    overrides = {}
    if "slope" in section:
        overrides["slope"] = _number(section, "scan.calibration", "slope", None, positive=True)
    if "r_sat" in section:
        overrides["r_sat"] = _number(section, "scan.calibration", "r_sat", None, positive=True)
    return replace(base, **overrides) if overrides else base


def _parse_detection(scan: dict, strict: bool) -> DetectionConfig:
    section = _section(scan, "scan", "detection", strict)
    return DetectionConfig(
        sample_rate=_number(section, "scan.detection", "sample_rate", 100.0, positive=True),
        n_samples=_number(section, "scan.detection", "n_samples", 2000, minimum=2, integer=True),
        noise_sigma=_number(section, "scan.detection", "noise_sigma", 0.0, minimum=0.0),
        rng_seed=_number(section, "scan.detection", "rng_seed", 0, minimum=0, integer=True),
        residual_pump_intensity=_number(
            section, "scan.detection", "residual_pump_intensity", 0.25, minimum=0.0
        ),
    )


def parse_config_document(
    doc: dict, *, strict: bool = True, default_kind: str | None = None
) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected an object, got {doc!r}")
    _check_keys(doc, "", strict)
    scan = _section(doc, "", "scan", strict)
    kind = scan.get("kind", default_kind)
    if kind is None:
        raise ConfigError("scan.kind: required (one of %s)" % (SCAN_KINDS,))
    if kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind: expected one of {SCAN_KINDS}, got {kind!r}")
    try:
        spec = ScanSpec(
            kind=kind,
            grid=_parse_grid(scan, kind, strict),
            amplifier=_parse_amplifier(scan, strict),
            calibration=_parse_calibration(scan, strict),
            detection=_parse_detection(scan, strict),
            input_ratio=_number(scan, "scan", "input_ratio", 1.0, positive=True),
            pipeline=_choice(scan, "scan", "pipeline", "model_exact", PIPELINES),
        )
    except DomainError as err:
        # Constraint violations surfaced while assembling the scan are
        # configuration errors from the caller's point of view.
        raise ConfigError(f"scan: {err}") from None
    emit = doc.get("emit", ["csv", "json"])
    if not isinstance(emit, list):
        raise ConfigError(f"emit: expected a list, got {emit!r}")
    output_dir = doc.get("output_dir", os.environ.get(ENV_OUTPUT_DIR, "."))
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string path, got {output_dir!r}")
    verbosity = _number(doc, "config", "verbosity", 1, minimum=0, maximum=2, integer=True)
    return RunConfig(
        scan=spec, output_dir=Path(output_dir), emit=tuple(emit), verbosity=verbosity
    )


def parse_config(text: str, *, strict: bool = True, default_kind: str | None = None) -> RunConfig:
    """Parse a JSON config document into a validated RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return parse_config_document(doc, strict=strict, default_kind=default_kind)


def to_document(cfg: RunConfig) -> dict:
    """Full explicit document that parses back to an equal RunConfig."""
    scan = scan_spec_to_dict(cfg.scan)
    scan["grid"] = {"values": list(cfg.scan.grid)}
    return {
        "scan": scan,
        "output_dir": str(cfg.output_dir),
        "emit": list(cfg.emit),
        "verbosity": cfg.verbosity,
    }
