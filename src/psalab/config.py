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

Every key is optional except scan.kind.  Each section fills one library
dataclass (the calibration section goes through ``fitted_calibration``),
whose defaults fill omitted keys and whose checks bound the values given;
a field's DomainError comes back as a ConfigError that names the key path.
This module checks only what a dataclass cannot: JSON types, unknown or
repeated keys (errors that name the full key path) and grid forms.  It
supplies the two defaults that belong to the document, the kind's grid
(DEFAULT_GRIDS) and DEFAULT_PUMP_POWER_MW while ``r`` is unset, so a minimal
pure-PSA phase scan needs nothing but the kind.  A grid is given in one form:
explicit ``values``, or ``start``/``stop`` plus ``num`` (inclusive linspace)
or ``step``; a mixture of forms is an error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .beatnote import DetectionConfig
from .calibration import CalibrationMap, fitted_calibration
from .errors import ConfigError, DomainError
from .serialize import check_emit
from .squeezer import AmplifierParams
from .sweeps import POWER_RANGE_MW, SCAN_KINDS, ScanSpec

ENV_OUTPUT_DIR = "PSALAB_OUT"

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "phase_scan": tuple(np.linspace(-math.pi, math.pi, 257)),
    "power_sweep": tuple(np.linspace(*POWER_RANGE_MW, 33)),
    "pia_compare": tuple(np.linspace(*POWER_RANGE_MW, 33)),
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
        object.__setattr__(self, "emit", check_emit(self.emit))
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


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(section: dict, path: str) -> None:
    known = _KNOWN_KEYS[path]
    for key in section:
        if key not in known:
            message = f"unknown key {_join(path, key)!r} (known keys here: {', '.join(known)})"
            raise ConfigError(message)


def _section(doc: dict, path: str, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}.{key}: expected an object, got {value!r}")
    _check_keys(value, _join(path, key))
    return value


def _number(value, label: str, nullable: bool = False):
    """A JSON number, checked for type and finiteness; bounds are the dataclasses'."""
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{label}: expected a finite number, got {value!r}")
    return value


def _expand(key: str, make, *args) -> tuple[float, ...]:
    """The grid ``make(*args)``; a count numpy refuses is named on its key."""
    try:
        return tuple(float(x) for x in make(*args))
    except (ValueError, MemoryError) as err:  # numpy's _ArrayMemoryError: too many points
        raise ConfigError(f"scan.grid.{key}: {args[-1]!r} does not expand: {err}") from None


def _parse_grid(scan: dict, kind: str) -> tuple[float, ...]:
    if "grid" not in scan:
        return DEFAULT_GRIDS[kind]
    raw = scan["grid"]
    if isinstance(raw, list):
        values = raw
    elif isinstance(raw, dict):
        _check_keys(raw, "scan.grid")
        if "values" in raw and len(raw) > 1 or {"num", "step"} <= raw.keys():
            raise ConfigError(f"scan.grid: mixes grid forms: {', '.join(raw)}")
        if "values" not in raw:
            if "start" not in raw or "stop" not in raw:
                raise ConfigError("scan.grid: needs 'values' or both 'start' and 'stop'")
            start = _number(raw["start"], "scan.grid.start")
            stop = _number(raw["stop"], "scan.grid.stop")
            if "num" in raw:
                num = _number(raw["num"], "scan.grid.num")
                if int(num) != num or num < 1:
                    raise ConfigError(f"scan.grid.num: expected an integer >= 1, got {num!r}")
                return _expand("num", np.linspace, start, stop, int(num))
            if "step" in raw:
                step = _number(raw["step"], "scan.grid.step")
                if not step > 0:
                    raise ConfigError(f"scan.grid.step: expected > 0, got {step!r}")
                return _expand("step", np.arange, start, stop + 0.5 * step, step)
            raise ConfigError("scan.grid: start/stop need either 'num' or 'step'")
        values = raw["values"]
    else:
        raise ConfigError(f"scan.grid: expected a list or an object, got {raw!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"scan.grid.values: expected a non-empty list, got {values!r}")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"scan.grid.values: expected numbers, got {x!r}")
    return tuple(float(x) for x in values)


def _values(cls, section: dict, path: str, **given) -> dict:
    """Keyword arguments for ``cls``: ``given``, plus each other field the
    section holds, with its JSON type checked against the field's default.

    A string field goes to the dataclass as is (it checks its choices), a
    tuple field needs a list, and any other field needs a number; null is
    a value only where the default is None.
    """
    for f in fields(cls):
        if f.name not in section or f.name in given:
            continue
        value, label = section[f.name], _join(path, f.name)
        if isinstance(f.default, tuple) and not isinstance(value, list):
            raise ConfigError(f"{label}: expected a list, got {value!r}")
        if not isinstance(f.default, (str, tuple)):
            value = _number(value, label, nullable=f.default is None)
        given[f.name] = value
    return given


def _named(path: str, err: DomainError) -> ConfigError:
    """A DomainError as a ConfigError on the key path of the field it
    names (``<field>: ...``), or on the section if it names none."""
    field = str(err).partition(":")[0].partition(".")[0]
    sep = "." if field in _KNOWN_KEYS[path] else ": "
    return ConfigError(f"{path}{sep}{err}")


def _build(cls, section: dict, path: str, **given):
    try:
        return cls(**_values(cls, section, path, **given))
    except DomainError as err:
        raise _named(path, err) from None


def _amplifier(scan: dict) -> AmplifierParams:
    section = _section(scan, "scan", "amplifier")
    if section.get("r") is None:
        section = {"pump_power": DEFAULT_PUMP_POWER_MW, **section}
    return _build(AmplifierParams, section, "scan.amplifier")


def _calibration(scan: dict) -> CalibrationMap:
    """The anchored fit of the section's map shape; ``slope`` and ``r_sat``,
    when given, replace their fitted values."""
    path = "scan.calibration"
    section = _section(scan, "scan", "calibration")
    anchor = _section(section, path, "anchor")
    shape = _values(CalibrationMap, section, path)
    overrides = {key: shape.pop(key) for key in ("slope", "r_sat") if key in shape}
    anchor = {key: _number(value, f"{path}.anchor.{key}") for key, value in anchor.items()}
    try:
        return replace(fitted_calibration(**anchor, **shape), **overrides)
    except DomainError as err:
        raise _named(path, err) from None


def parse_config_document(doc: dict, *, default_kind: str | None = None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected an object, got {doc!r}")
    _check_keys(doc, "")
    scan = _section(doc, "", "scan")
    kind = scan.get("kind", default_kind)
    if kind is None:
        raise ConfigError("scan.kind: required (one of %s)" % (SCAN_KINDS,))
    if kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind: expected one of {SCAN_KINDS}, got {kind!r}")
    spec = _build(
        ScanSpec,
        scan,
        "scan",
        kind=kind,
        grid=_parse_grid(scan, kind),
        amplifier=_amplifier(scan),
        calibration=_calibration(scan),
        detection=_build(DetectionConfig, _section(scan, "scan", "detection"), "scan.detection"),
    )
    output_dir = doc.get("output_dir", os.environ.get(ENV_OUTPUT_DIR, "."))
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string path, got {output_dir!r}")
    return _build(RunConfig, doc, "", scan=spec, output_dir=Path(output_dir))


class _Pairs(list):
    """One JSON object's (key, value) pairs, in file order."""


def _objects(value, path: str):
    """``value`` with each _Pairs made a dict; a key one object sets twice is refused."""
    if isinstance(value, _Pairs):
        doc = {}
        for key, item in value:
            if key in doc:
                raise ConfigError(f"{_join(path, key)}: set twice in the run document")
            doc[key] = _objects(item, _join(path, key))
        return doc
    return [_objects(item, path) for item in value] if isinstance(value, list) else value


def decode_document(text: str, source: str = "config"):
    """The JSON value of a run document's text, ``source`` naming it in errors."""
    try:
        return _objects(json.loads(text, object_pairs_hook=_Pairs), "")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{source} is not valid JSON: {err}") from None
    except RecursionError:
        raise ConfigError(f"{source}: nests arrays or objects too deeply to decode") from None


def parse_config(text: str, *, default_kind: str | None = None) -> RunConfig:
    """Parse a JSON config document into a validated RunConfig."""
    return parse_config_document(decode_document(text), default_kind=default_kind)


def to_document(cfg: RunConfig) -> dict:
    """Full explicit document that parses back to an equal RunConfig."""
    scan = cfg.scan.as_dict()
    scan["grid"] = {"values": list(cfg.scan.grid)}
    return {
        "scan": scan,
        "output_dir": str(cfg.output_dir),
        "emit": list(cfg.emit),
        "verbosity": cfg.verbosity,
    }
