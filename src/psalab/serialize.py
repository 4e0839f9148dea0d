"""File formats: CSV, JSON sidecars and the compact binary layouts.

All CSV numbers are written with 17 significant digits, which round-trips
IEEE doubles losslessly.  Nothing time-dependent is ever written inside a
file, so a scan re-run with the same seed produces byte-identical output;
only the default file *names* carry a timestamp.

Beatnote record binary layout, version 2 (little-endian):

    4 bytes  magic  b"PSAB"
    u32      format version (2)
    u32      header length h in bytes
    h bytes  UTF-8 header: the record CSV's ``# key=value`` lines without ``# ``
    n * f64  intensity samples

The header holds delta_khz and every DetectionConfig field.  Any but the
two frequencies may be left out: it takes its DetectionConfig default, and
n_samples the sample count.

Sweep binary layout (little-endian):

    4 bytes  magic  b"PSSW"
    u32      format version (1)
    i64      row count
    u32      column count (x column first)
    per column: u32 name length, UTF-8 name, then row-count f64 values
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analyzer import bin_index
from .beatnote import BeatnoteRecord, DetectionConfig
from .errors import ConfigError, DomainError

RECORD_MAGIC = b"PSAB"
SWEEP_MAGIC = b"PSSW"
FORMAT_VERSION = 1
RECORD_VERSION = 2
_TITLE = "psalab beatnote record v"  # a record CSV's first line, then its version
# A record CSV's time_ms may stray from k / sample_rate by this fraction of a sample period.
RECORD_TIME_TOL = 1e-3
EMIT_FORMATS = ("csv", "json", "binary")


def fmt17(value: float) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(float(value), ".17g")


def _csv_bytes(head: list[str], columns, row_format: str | None = None) -> bytes:
    """``head`` lines, then one line per row of ``columns``: one %-format per
    row, each value as ``fmt17`` renders it unless ``row_format`` says otherwise."""
    row_format = row_format or ",".join(["%.17g"] * len(columns))
    rows = [row_format % row for row in zip(*(np.asarray(c).tolist() for c in columns))]
    return ("\n".join([*head, *rows]) + "\n").encode("utf-8")


def _write(path: str | Path, blob: bytes) -> Path:
    path = Path(path)
    path.write_bytes(blob)
    return path


# ---------------------------------------------------------------------------
# sweep results


def sweep_csv_bytes(result) -> bytes:
    names = [result.metadata.get("x_name", "x"), *result.columns.keys()]
    return _csv_bytes([",".join(names)], [result.x, *result.columns.values()])


def sweep_json_bytes(result) -> bytes:
    sidecar = dict(result.metadata)
    sidecar["columns"] = [result.metadata.get("x_name", "x"), *result.columns.keys()]
    sidecar["n_points"] = int(result.x.size)
    return (json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def sweep_binary_bytes(result) -> bytes:
    names = [result.metadata.get("x_name", "x"), *result.columns.keys()]
    out = SWEEP_MAGIC + struct.pack("<IqI", FORMAT_VERSION, int(result.x.size), len(names))
    for name, column in zip(names, [result.x, *result.columns.values()]):
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + np.asarray(column, "<f8").tobytes()
    return out


def _require_finite(path, what: str, values) -> np.ndarray:
    """Values parsed from a file as float64, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ConfigError(
            f"{path}: {what} must be finite, got {arr.flat[bad[0]]} at entry {bad[0]}"
        )
    return arr


def read_text(path: str | Path, blob: bytes | None = None) -> str:
    """The UTF-8 text of an input file, or of ``blob`` read from it; bytes that
    do not decode are the file's fault."""
    try:
        return (Path(path).read_bytes() if blob is None else blob).decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from None


def read_sweep_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a sweep CSV back into (column names, 2-D value array)."""
    text = read_text(path)
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{path}: sweep CSV has no data rows")
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(cells) != len(names) for cells in rows):
        raise ConfigError(f"{path}: malformed sweep CSV: every row needs {len(names)} cells")
    try:
        data = [[float(cell) for cell in cells] for cells in rows]
    except ValueError as err:
        raise ConfigError(f"{path}: malformed sweep CSV: {err}") from None
    return names, _require_finite(path, "sweep values", data)


def histogram_to_csv(edges, counts, path: str | Path) -> Path:
    """Write histogram bins as ``bin_left,bin_right,count`` CSV rows."""
    columns = [edges[:-1], edges[1:], counts]
    return _write(path, _csv_bytes(["bin_left,bin_right,count"], columns, "%.17g,%.17g,%d"))


def default_basename(kind: str, seed: int) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    seedhash = hashlib.sha256(str(seed).encode("ascii")).hexdigest()[:8]
    return f"{kind}_{stamp}_{seedhash}"


def check_emit(emit) -> tuple[str, ...]:
    """``emit`` as a tuple of output formats: at least one, each of EMIT_FORMATS, none
    named twice; anything else raises ConfigError naming ``emit``."""
    emit = tuple(emit)
    if not emit:
        raise ConfigError("emit: at least one output format is required")
    for k, fmt in enumerate(emit):
        if fmt not in EMIT_FORMATS:
            raise ConfigError(f"emit: unknown format {fmt!r}, expected subset of {EMIT_FORMATS}")
        if fmt in emit[:k]:
            raise ConfigError(f"emit: format {fmt!r} is named twice, got {list(emit)}")
    return emit


def write_sweep(
    result,
    outdir: str | Path,
    emit: tuple[str, ...] = ("csv", "json"),
    basename: str | None = None,
) -> list[Path]:
    """Write the requested formats and return the created paths; ``emit`` is checked
    (``check_emit``) before anything is written."""
    emit = check_emit(emit)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = basename or default_basename(
        result.metadata.get("kind", "scan"), result.metadata.get("master_seed", 0)
    )
    writers = {"csv": (".csv", sweep_csv_bytes), "json": (".json", sweep_json_bytes),
               "binary": (".bin", sweep_binary_bytes)}
    return [_write(outdir / f"{base}{writers[fmt][0]}", writers[fmt][1](result)) for fmt in emit]


# ---------------------------------------------------------------------------
# beatnote records

# The record header: delta, then every DetectionConfig field, each as one
# ``key=value`` line.  Key -> (field, the type its value parses to); the two
# frequencies carry their unit in the key.
_HEADER = {
    {"delta": "delta_khz", "sample_rate": "sample_rate_khz"}.get(name, name): (name, kind)
    for name, kind in [("delta", float),
                       *((f.name, type(f.default)) for f in fields(DetectionConfig))]
}


def _header_lines(rec: BeatnoteRecord) -> list[str]:
    values = {"delta": rec.delta, **asdict(rec.config_echo)}
    return [f"{key}={fmt17(values[name]) if kind is float else values[name]}"
            for key, (name, kind) in _HEADER.items()]


def _header_values(path, lines) -> dict:
    """The fields ``key=value`` lines set, each parsed to its type; a line without ``=``,
    or a key outside the header or set twice, is the file's fault."""
    values = {}
    for line in lines:
        key, eq, text = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}: record header line {line.strip()!r} is not key=value")
        if key not in _HEADER:
            raise ConfigError(f"{path}: {key}: not a record header key")
        name, kind = _HEADER[key]
        if name in values:
            raise ConfigError(f"{path}: {key}: set twice in the record header")
        try:
            values[name] = kind(text.strip())
        except ValueError as err:
            raise ConfigError(f"{path}: {name}: {err}") from None
    return values


def _record(path, samples, header: dict) -> BeatnoteRecord:
    """The record a file holds: a field its header leaves out takes its DetectionConfig
    default, n_samples the sample count; values out of range are the file's fault."""
    samples = _require_finite(path, "record samples", samples)
    detection = {"n_samples": samples.size, **header}
    for name in ("sample_rate", "delta"):  # no default stands in for a record's frequencies
        if name not in header:
            raise ConfigError(f"{path}: {name}: the record header has none")
    delta = detection.pop("delta")
    try:
        cfg = DetectionConfig(**detection)
        record = BeatnoteRecord(samples, delta, cfg)
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from None
    try:  # the analyzer reads the delta and 2*delta tones: each needs a usable bin
        for tone in (delta, 2.0 * delta):
            bin_index(tone, cfg.sample_rate, samples.size)
    except DomainError as err:
        raise ConfigError(f"{path}: delta: {err}") from None
    return record


def record_csv_bytes(rec: BeatnoteRecord) -> bytes:
    head = [f"{_TITLE}{RECORD_VERSION}", *_header_lines(rec)]
    return _csv_bytes([*(f"# {line}" for line in head), "time_ms,intensity"],
                      [rec.times, rec.samples])


def record_to_csv(rec: BeatnoteRecord, path: str | Path) -> Path:
    return _write(path, record_csv_bytes(rec))


def _time(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def record_from_csv(path: str | Path) -> BeatnoteRecord:
    """Read a record written by ``record_to_csv``; row k's time_ms must be k / sample_rate."""
    header, rows = [], []
    for line in read_text(path).splitlines():
        line = line.strip()
        if line.startswith("#"):
            header.append(line.lstrip("#"))
        elif line and not line.startswith("time_ms"):
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigError(f"{path}: malformed record CSV line {line!r}")
            rows.append(cells)
    try:
        samples = [float(value) for _, value in rows]
    except ValueError as err:
        raise ConfigError(f"{path}: malformed record CSV: {err}") from None
    if not header or not header[0].strip().startswith(_TITLE):
        raise ConfigError(f"{path}: the record CSV does not open with '# {_TITLE}N'")
    record = _record(path, samples, _header_values(path, header[1:]))
    slip = np.abs(np.array([_time(t) for t, _ in rows]) - record.times)
    late = np.flatnonzero(~(slip <= RECORD_TIME_TOL / record.sample_rate))  # NaN fails too
    if late.size:
        k = late[0]
        raise ConfigError(f"{path}: time_ms: data row {k + 1} reads {rows[k][0].strip()!r}; "
                          f"sample {k} is at k / sample_rate = {record.times[k]!r} ms, "
                          f"to within {RECORD_TIME_TOL} of a sample period")
    return record


def record_binary_bytes(rec: BeatnoteRecord) -> bytes:
    header = "".join(f"{line}\n" for line in _header_lines(rec)).encode("utf-8")
    head = RECORD_MAGIC + struct.pack("<II", RECORD_VERSION, len(header)) + header
    return head + np.asarray(rec.samples, dtype="<f8").tobytes()


def record_to_binary(rec: BeatnoteRecord, path: str | Path) -> Path:
    return _write(path, record_binary_bytes(rec))


def record_from_binary(path: str | Path) -> BeatnoteRecord:
    """Read a record written by ``record_to_binary``."""
    blob = Path(path).read_bytes()
    if blob[:4] != RECORD_MAGIC:
        raise ConfigError(f"{path}: not a psalab beatnote record (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if version != RECORD_VERSION:
        raise ConfigError(f"{path}: unsupported record format version {version}")
    start = 12 + int.from_bytes(blob[8:12], "little")
    if len(blob) < start or (len(blob) - start) % 8:
        raise ConfigError(f"{path}: truncated record ({len(blob)} bytes)")
    header = _header_values(path, read_text(path, blob[12:start]).splitlines())
    return _record(path, np.frombuffer(blob, dtype="<f8", offset=start), header)


def read_record(path: str | Path) -> BeatnoteRecord:
    """Ingest a record from either documented on-disk format."""
    with Path(path).open("rb") as handle:
        binary = handle.read(4) == RECORD_MAGIC
    return record_from_binary(path) if binary else record_from_csv(path)
