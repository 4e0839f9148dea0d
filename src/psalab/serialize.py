"""File formats: CSV, JSON sidecars and the compact binary layouts.

All CSV numbers are written with 17 significant digits, which round-trips
IEEE doubles losslessly.  Nothing time-dependent is ever written inside a
file, so a scan re-run with the same seed produces byte-identical output;
only the default file *names* carry a timestamp.

Beatnote record binary layout (little-endian):

    4 bytes  magic  b"PSAB"
    u32      format version (1)
    f64      sample_rate [kHz]
    f64      delta [kHz]
    i64      sample count n
    n * f64  intensity samples

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
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analyzer import bin_index
from .beatnote import BeatnoteRecord, DetectionConfig
from .errors import ConfigError, DomainError

RECORD_MAGIC = b"PSAB"
SWEEP_MAGIC = b"PSSW"
FORMAT_VERSION = 1
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
    series = [result.x, *result.columns.values()]
    out = bytearray()
    out += SWEEP_MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<q", int(result.x.size))
    out += struct.pack("<I", len(names))
    for name, column in zip(names, series):
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += np.asarray(column, dtype="<f8").tobytes()
    return bytes(out)


def _require_finite(path, what: str, values) -> np.ndarray:
    """Values parsed from a file as float64, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ConfigError(
            f"{path}: {what} must be finite, got {arr.flat[bad[0]]} at entry {bad[0]}"
        )
    return arr


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; bytes that do not decode are the file's fault."""
    try:
        return Path(path).read_text(encoding="utf-8")
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
    path = Path(path)
    path.write_bytes(_csv_bytes(["bin_left,bin_right,count"], columns, "%.17g,%.17g,%d"))
    return path


def default_basename(kind: str, seed: int) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    seedhash = hashlib.sha256(str(seed).encode("ascii")).hexdigest()[:8]
    return f"{kind}_{stamp}_{seedhash}"


def write_sweep(
    result,
    outdir: str | Path,
    emit: tuple[str, ...] = ("csv", "json"),
    basename: str | None = None,
) -> list[Path]:
    """Write the requested formats and return the created paths."""
    for fmt in emit:
        if fmt not in EMIT_FORMATS:
            raise ConfigError(f"unknown emit format {fmt!r}; expected subset of {EMIT_FORMATS}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = basename or default_basename(
        result.metadata.get("kind", "scan"), result.metadata.get("master_seed", 0)
    )
    paths = []
    writers = {
        "csv": (".csv", sweep_csv_bytes),
        "json": (".json", sweep_json_bytes),
        "binary": (".bin", sweep_binary_bytes),
    }
    for fmt in emit:
        suffix, writer = writers[fmt]
        path = outdir / f"{base}{suffix}"
        path.write_bytes(writer(result))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# beatnote records


def record_csv_bytes(rec: BeatnoteRecord) -> bytes:
    cfg = rec.config_echo
    head = [
        "# psalab beatnote record v1",
        f"# sample_rate_khz={fmt17(rec.sample_rate)}",
        f"# delta_khz={fmt17(rec.delta)}",
        f"# noise_sigma={fmt17(cfg.noise_sigma)}",
        f"# rng_seed={cfg.rng_seed}",
        f"# residual_pump_intensity={fmt17(cfg.residual_pump_intensity)}",
        "time_ms,intensity",
    ]
    return _csv_bytes(head, [rec.times, rec.samples])


def record_to_csv(rec: BeatnoteRecord, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(record_csv_bytes(rec))
    return path


def record_from_csv(path: str | Path) -> BeatnoteRecord:
    header: dict[str, str] = {}
    samples = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        if line.startswith("time_ms"):
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ConfigError(f"{path}: malformed record CSV line {line!r}")
        samples.append(cells[1])
    try:
        sample_rate = float(header["sample_rate_khz"])
        delta = float(header["delta_khz"])
        noise_sigma = float(header.get("noise_sigma", 0.0))
        rng_seed = int(header.get("rng_seed", 0))
        residual_pump = float(header.get("residual_pump_intensity", 0.0))
        samples = [float(value) for value in samples]
    except KeyError as missing:
        raise ConfigError(f"{path}: record CSV header lacks {missing}") from None
    except ValueError as err:
        raise ConfigError(f"{path}: malformed record CSV: {err}") from None
    return _record(path, samples, sample_rate, delta, noise_sigma=noise_sigma, rng_seed=rng_seed,
                   residual_pump_intensity=residual_pump)


def _record(path, samples, sample_rate: float, delta: float, **detection) -> BeatnoteRecord:
    """The record a file holds; a header value out of its field's range is the file's fault."""
    _require_finite(path, "sample_rate and delta", [sample_rate, delta])
    samples = _require_finite(path, "record samples", samples)
    try:
        cfg = DetectionConfig(sample_rate=sample_rate, n_samples=samples.size, **detection)
        record = BeatnoteRecord(samples, sample_rate, delta, cfg)
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from None
    try:  # the analyzer reads the delta and 2*delta tones: each needs a usable bin
        for tone in (delta, 2.0 * delta):
            bin_index(tone, sample_rate, samples.size)
    except DomainError as err:
        raise ConfigError(f"{path}: delta: {err}") from None
    return record


def record_binary_bytes(rec: BeatnoteRecord) -> bytes:
    header = RECORD_MAGIC + struct.pack(
        "<IddQ", FORMAT_VERSION, rec.sample_rate, rec.delta, rec.n_samples
    )
    return header + np.asarray(rec.samples, dtype="<f8").tobytes()


def record_to_binary(rec: BeatnoteRecord, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(record_binary_bytes(rec))
    return path


def record_from_binary(path: str | Path) -> BeatnoteRecord:
    """Read a record written by ``record_to_binary``.

    The binary layout stores sampling metadata only, so the reconstructed
    config echo carries defaults for the noise model fields.
    """
    blob = Path(path).read_bytes()
    head = struct.calcsize("<IddQ")
    if len(blob) < 4 + head or blob[:4] != RECORD_MAGIC:
        raise ConfigError(f"{path}: not a psalab beatnote record (bad magic)")
    version, sample_rate, delta, count = struct.unpack("<IddQ", blob[4 : 4 + head])
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported record format version {version}")
    payload = blob[4 + head :]
    if len(payload) != count * 8:
        raise ConfigError(
            f"{path}: truncated record payload ({len(payload)} bytes for {count} samples)"
        )
    samples = np.frombuffer(payload, dtype="<f8")
    return _record(path, samples, sample_rate, delta, residual_pump_intensity=0.0)


def read_record(path: str | Path) -> BeatnoteRecord:
    """Ingest a record from either documented on-disk format."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(4)
    if magic == RECORD_MAGIC:
        return record_from_binary(path)
    return record_from_csv(path)
