"""CSV writers against the per-value rendering, record round trips in both
formats, and the readers under fuzzed input."""

import json
import math
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psalab import BeatnoteRecord, DetectionConfig, synthesize_beatnote
from psalab.errors import ConfigError, DomainError
from psalab.serialize import (
    RECORD_TIME_TOL,
    fmt17,
    histogram_to_csv,
    json_text,
    read_record,
    read_sweep_csv,
    record_binary_bytes,
    record_csv_bytes,
    record_from_binary,
    record_from_csv,
    record_to_binary,
    record_to_csv,
    sweep_csv_bytes,
    write_sweep,
)
from psalab.sweeps import SweepResult

# ---------------------------------------------------------------------------
# writers: one %-format per row renders what fmt17 renders per value

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 123456789.0, 2.0 ** 53, 0.1]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(float))


def old_csv(header: str, rows) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    return [draw(st.lists(VALUES, min_size=n_rows, max_size=n_rows)) for _ in range(n_cols)]


@given(tables())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_csv_matches_per_value_rendering_and_reads_back(tmp_path, table):
    names = ["x"] + [f"c{k}" for k in range(1, len(table))]
    result = SweepResult(table[0], dict(zip(names[1:], table[1:])), {"x_name": "x"})
    rows = [",".join(fmt17(v) for v in row) for row in zip(*table)]
    blob = sweep_csv_bytes(result)
    assert blob == old_csv(",".join(names), rows)
    if table[0]:
        path = tmp_path / "sweep.csv"
        path.write_bytes(blob)
        read_names, data = read_sweep_csv(path)
        assert read_names == names
        assert data.view(np.int64).tolist() == np.array(table).T.view(np.int64).tolist()


@given(st.lists(VALUES, min_size=3, max_size=20), st.data())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_histogram_csv_matches_per_value_rendering(tmp_path, edges, data):
    counts = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(edges) - 1,
                                max_size=len(edges) - 1))
    counts = np.array(counts, dtype=np.int64)
    rows = [f"{fmt17(a)},{fmt17(b)},{int(c)}" for a, b, c in zip(edges[:-1], edges[1:], counts)]
    path = histogram_to_csv(np.array(edges), counts, tmp_path / "hist.csv")
    assert path.read_bytes() == old_csv("bin_left,bin_right,count", rows)


@given(st.lists(VALUES, min_size=2, max_size=30), st.floats(1e-3, 1e6))
@settings(max_examples=100)
def test_record_csv_matches_per_value_rendering(samples, sample_rate):
    cfg = DetectionConfig(sample_rate=sample_rate, n_samples=len(samples))
    rec = BeatnoteRecord(samples, 2.0, cfg)
    lines = record_csv_bytes(rec).decode("utf-8").splitlines()
    expected = lines[: lines.index("time_ms,intensity") + 1]
    expected += [f"{fmt17(t)},{fmt17(v)}" for t, v in zip(rec.times, rec.samples)]
    assert record_csv_bytes(rec) == old_csv(expected[0], expected[1:])


# ---------------------------------------------------------------------------
# records: what is written reads back as the record that was written


@given(st.integers(6, 64), st.floats(1e-3, 1e6), st.floats(0.0, 10.0),
       st.one_of(st.just(0.0), st.floats(0.0, 1e3)), st.integers(0, 2**70), st.data())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_record_round_trips_in_both_formats(tmp_path, n_samples, sample_rate, noise_sigma, pump,
                                            seed, data):
    samples = data.draw(st.lists(VALUES, min_size=n_samples, max_size=n_samples))
    cfg = DetectionConfig(sample_rate=sample_rate, n_samples=n_samples, noise_sigma=noise_sigma,
                          rng_seed=seed, residual_pump_intensity=pump)
    # delta on bin 1, so the delta and 2*delta tones both sit on usable bins
    rec = BeatnoteRecord(samples, sample_rate / n_samples, cfg)
    for write, name in [(record_to_csv, "rec.csv"), (record_to_binary, "rec.bin")]:
        back = read_record(write(rec, tmp_path / name))
        assert back.samples.view(np.int64).tolist() == rec.samples.view(np.int64).tolist()
        assert (back.sample_rate, back.delta) == (rec.sample_rate, rec.delta)
        assert back.config_echo == cfg


def test_v1_binary_is_refused_as_an_unsupported_version(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(ORIGINALS["record_binary_v1"])
    for reader in (read_record, record_from_binary):
        with pytest.raises(ConfigError, match=r": unsupported record format version 1$"):
            reader(path)


def test_v1_csv_without_n_samples_counts_its_rows(tmp_path):
    lines = record_csv_bytes(FUZZ_RECORD).decode("utf-8").splitlines()
    path = tmp_path / "v1.csv"
    path.write_text("\n".join(line for line in lines if not line.startswith("# n_samples=")))
    back = read_record(path)
    assert np.array_equal(back.samples, FUZZ_RECORD.samples)
    assert back.config_echo == FUZZ_RECORD.config_echo


# ---------------------------------------------------------------------------
# readers: any bytes either parse or raise ConfigError

FUZZ_RECORD = synthesize_beatnote(
    complex(1.2, 0.3), complex(0.8, -0.1), 0.4, 20.0,
    DetectionConfig(sample_rate=400.0, n_samples=80, noise_sigma=0.05, rng_seed=3),
)
FUZZ_SWEEP = SweepResult(
    np.linspace(-math.pi, math.pi, 9), {"gain": np.linspace(0.2, 5.0, 9), "phi": np.zeros(9)},
    {"x_name": "phi_in"},
)
ORIGINALS = {
    "record_csv": record_csv_bytes(FUZZ_RECORD),
    "record_binary": record_binary_bytes(FUZZ_RECORD),
    "record_binary_v1": b"PSAB" + struct.pack("<IddQ", 1, 400.0, 20.0, FUZZ_RECORD.n_samples)
                        + FUZZ_RECORD.samples.astype("<f8").tobytes(),
    "sweep_csv": sweep_csv_bytes(FUZZ_SWEEP),
}
READERS = {
    "record_from_binary": record_from_binary,
    "record_from_csv": record_from_csv,
    "read_sweep_csv": read_sweep_csv,
}
TOKENS = [b"nan", b"-inf", b"1e400", b"-2", b"0", b"2.01", b"5e-324", b"=", b"#", b",",
          b"\n", b"\xff\xfe", b"\xed\xa0\x80", b"\x00", b"PSAB", b"delta_khz=", b"n_samples=",
          b"time_ms"]


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """``original`` cut short, with bytes overwritten, tokens spliced in or a
    non-UTF-8 prefix."""
    blob = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(["cut", "byte", "token", "delete", "prefix", "header"]))
        if op == "cut":
            del blob[at:]
        elif op == "byte" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == "token":
            blob[at:at] = draw(st.sampled_from(TOKENS))
        elif op == "delete":
            del blob[at:at + draw(st.integers(1, 16))]
        elif op == "prefix":
            blob[:0] = b"\xff\xfe"
        elif op == "header":  # the header fields, where a CSV's cut or splice rarely lands
            at = min(at, 200)
            blob[at:at + draw(st.integers(0, 8))] = draw(st.sampled_from(TOKENS))
    return bytes(blob)


def parses_or_config_error(reader, path) -> None:
    try:
        reader(path)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("original", ORIGINALS.values(), ids=ORIGINALS.keys())
@given(data=st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_files_parse_or_raise_config_error(fuzz_path, reader, original, data):
    fuzz_path.write_bytes(data.draw(mutated(original)))
    if original is ORIGINALS["record_binary_v1"]:  # layout v1 is no longer read
        with pytest.raises(ConfigError):
            reader(fuzz_path)
    else:
        parses_or_config_error(reader, fuzz_path)


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@given(blob=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=40).map(lambda b: b"PSAB" + b),
                      st.text(max_size=64).map(lambda t: t.encode("utf-8"))))
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_garbage_parses_or_raises_config_error(fuzz_path, reader, blob):
    fuzz_path.write_bytes(blob)
    parses_or_config_error(reader, fuzz_path)


@pytest.mark.parametrize(
    "sample_rate, delta",
    [(5e-324, 5e-324), (1e-320, 1e308), (100.0, 5e-324)],
    ids=["zero_resolution", "overflowing_bin", "subnormal_delta"],
)
def test_binary_record_with_extreme_header_raises_config_error(tmp_path, sample_rate, delta):
    path = tmp_path / "rec.bin"
    header = f"sample_rate_khz={sample_rate!r}\ndelta_khz={delta!r}\nn_samples=8\n".encode()
    path.write_bytes(b"PSAB" + struct.pack("<II", 2, len(header)) + header + np.zeros(8).tobytes())
    with pytest.raises(ConfigError, match="delta: "):
        record_from_binary(path)


# ---------------------------------------------------------------------------
# record CSVs: each time_ms is its sample's k / sample_rate


def with_rows(path, edit):
    """FUZZ_RECORD's CSV at ``path``, its ``[time, sample]`` data rows passed through ``edit``."""
    lines = record_csv_bytes(FUZZ_RECORD).decode("utf-8").splitlines()
    head = lines.index("time_ms,intensity") + 1
    rows = edit([line.split(",") for line in lines[head:]])
    path.write_text("\n".join([*lines[:head], *(",".join(row) for row in rows)]) + "\n")
    return path


def set_time(k: int, text: str):
    def edit(rows):
        rows[k][0] = text
        return rows
    return edit


PERIOD = 1.0 / FUZZ_RECORD.sample_rate


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_time(3, "abc"), "time_ms: data row 4 reads 'abc'"),
        (lambda rows: [[fmt17(k * PERIOD / 2.0), v] for k, (_, v) in enumerate(rows)],
         "time_ms: data row 2 reads '0.00125'"),
        (lambda rows: [rows[k] for k in np.random.default_rng(5).permutation(len(rows))],
         "time_ms: data row 1 "),
        (set_time(7, "inf"), "time_ms: data row 8 reads 'inf'"),
        (set_time(7, "nan"), "time_ms: data row 8 reads 'nan'"),
        (set_time(7, fmt17(7 * PERIOD + 2e-3 * PERIOD)), "time_ms: data row 8 "),
    ],
    ids=["not_a_number", "twice_the_rate", "shuffled", "infinite", "nan", "off_by_2e-3_period"],
)
def test_record_csv_refuses_times_off_the_sample_grid(tmp_path, edit, message):
    path = with_rows(tmp_path / "rec.csv", edit)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}"):
        record_from_csv(path)


def test_record_csv_reads_times_within_the_tolerance(tmp_path):
    tol = RECORD_TIME_TOL * PERIOD / 2.0
    path = with_rows(tmp_path / "rec.csv",
                     lambda rows: [[fmt17(float(t) + (-tol if k % 2 else tol)), v]
                                   for k, (t, v) in enumerate(rows)])
    assert np.array_equal(record_from_csv(path).samples, FUZZ_RECORD.samples)


# ---------------------------------------------------------------------------
# write_sweep checks its formats before it writes


@pytest.mark.parametrize(
    "emit, message",
    [
        (("csv", "csv"), "emit: format 'csv' is named twice, got ['csv', 'csv']"),
        (("csv", "json", "json"),
         "emit: format 'json' is named twice, got ['csv', 'json', 'json']"),
        (("csv", "xml"), "emit: unknown format 'xml', expected subset of "),
        ((), "emit: at least one output format is required"),
        ("csv", "emit: expected a list, got 'csv'"),
        ({"csv": 1}, "emit: expected a list, got {'csv': 1}"),
    ],
    ids=["csv_twice", "json_twice", "unknown", "none", "string", "object"],
)
def test_write_sweep_refuses_bad_emit_before_writing(tmp_path, emit, message):
    result = SweepResult([0.0, 1.0], {"gain": [1.0, 2.0]}, {"x_name": "phi_in"})
    outdir = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        write_sweep(result, outdir, emit, "x")
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# every writer rewrites an existing file in place, to the bytes of a fresh write

_RESULT = SweepResult([0.0, 0.5, 1.0], {"gain": [1.0, 6.75, 0.125]}, {"x_name": "phi_in"})
_WRITERS = {
    "sweep_csv": ("x.csv", lambda path: write_sweep(_RESULT, path.parent, ("csv",), "x")),
    "sweep_json": ("x.json", lambda path: write_sweep(_RESULT, path.parent, ("json",), "x")),
    "sweep_binary": ("x.bin", lambda path: write_sweep(_RESULT, path.parent, ("binary",), "x")),
    "record_csv": ("r.csv", lambda path: record_to_csv(FUZZ_RECORD, path)),
    "record_binary": ("r.bin", lambda path: record_to_binary(FUZZ_RECORD, path)),
    "histogram_csv": ("h.csv", lambda path: histogram_to_csv(np.linspace(0.0, 1.0, 5),
                                                             np.arange(4), path)),
}


@pytest.mark.parametrize("start", ["longer", "shorter", "equal"])
@pytest.mark.parametrize("writer", _WRITERS)
def test_writer_over_an_existing_file_leaves_a_fresh_writes_bytes(tmp_path, writer, start):
    name, write = _WRITERS[writer]
    fresh = tmp_path / "fresh" / name
    fresh.parent.mkdir()
    write(fresh)
    expected = fresh.read_bytes()
    size = {"longer": len(expected) + 1000, "shorter": len(expected) // 2,
            "equal": len(expected)}[start]
    path = tmp_path / "old" / name
    path.parent.mkdir()
    path.write_bytes(b"\xff" * size)
    path.chmod(0o600)
    inode = path.stat().st_ino
    write(path)
    assert path.read_bytes() == expected
    # rewritten in place: the same inode keeps its permissions
    assert (path.stat().st_ino, stat.S_IMODE(path.stat().st_mode)) == (inode, 0o600)


def test_new_file_takes_the_umask_and_devices_take_a_write(tmp_path):
    umask = os.umask(0o027)
    try:
        path = record_to_binary(FUZZ_RECORD, tmp_path / "r.bin")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    assert record_to_binary(FUZZ_RECORD, os.devnull) == Path(os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)  # written through, not replaced


def test_every_write_loops_until_the_whole_blob_is_on_disk(tmp_path, monkeypatch):
    expected = {}
    for name, (filename, write) in _WRITERS.items():
        fresh = tmp_path / "fresh" / name / filename
        fresh.parent.mkdir(parents=True)
        write(fresh)
        expected[name] = fresh.read_bytes()
    real_write, calls = os.write, []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    for name, (filename, write) in _WRITERS.items():
        path = tmp_path / "short" / name / filename
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff" * (len(expected[name]) + 3))
        write(path)
        assert path.read_bytes() == expected[name]
    assert len(calls) > sum(len(blob) // 7 for blob in expected.values())


# ---------------------------------------------------------------------------
# the sidecar encoder renders what json.dumps renders


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


ESCAPES = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a'))
TEXT = st.one_of(st.text(), ESCAPES)
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
LEAVES = st.one_of(
    TEXT, FLOATS, FLOATS.map(np.float64), st.integers(-2**70, 2**70), st.booleans(), st.none(),
)
FLOAT_RUNS = st.lists(st.one_of(FLOATS, FLOATS.map(np.float64)), min_size=1, max_size=8)
MIXED_RUNS = st.tuples(
    FLOAT_RUNS, st.one_of(st.integers(-2**70, 2**70), st.booleans()), st.integers(0, 8),
).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
JSON_VALUES = st.recursive(
    st.one_of(LEAVES, FLOAT_RUNS, MIXED_RUNS),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=400)
def test_json_text_is_json_dumps(value):
    assert json_text(value) == _dumps(value)


@st.composite
def nested(draw, leaf):
    """``leaf`` at a drawn depth, among finite floats, in lists, tuples and dicts."""
    value = leaf
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        at = draw(st.integers(0, 3))
        if kind == "dict":
            value = {**{f"k{k}": float(k) for k in range(3)}, draw(TEXT): value}
        else:
            items = [float(k) for k in range(3)]
            items.insert(at, value)
            value = items if kind == "list" else tuple(items)
    return value


@given(st.data())
@settings(max_examples=100)
@pytest.mark.parametrize("leaf", [math.nan, math.inf, -math.inf, np.float64("nan")],
                         ids=["nan", "inf", "-inf", "np_nan"])
def test_json_text_refuses_non_finite_floats_at_any_depth(leaf, data):
    value = data.draw(nested(leaf))
    with pytest.raises(ValueError):
        _dumps(value)
    with pytest.raises(DomainError, match="^Out of range float values are not JSON compliant"):
        json_text(value)


@given(st.data())
@settings(max_examples=100)
@pytest.mark.parametrize("leaf", [np.int64(3), {1.0, 2.0}, b"bytes", np.float32(1.5)],
                         ids=["np_int64", "set", "bytes", "np_float32"])
def test_json_text_refuses_unsupported_types_at_any_depth(leaf, data):
    value = data.draw(nested(leaf))
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError, match="is not JSON serializable$"):
        json_text(value)


# ---------------------------------------------------------------------------
# what a writer refuses, it refuses before anything is written


def test_ragged_csv_columns_are_refused_before_writing(tmp_path):
    path = tmp_path / "hist.csv"
    with pytest.raises(DomainError, match=r"^CSV columns differ in length: \[3, 3, 1\]$"):
        histogram_to_csv(np.array([0.0, 1.0, 2.0, 3.0]), np.array([5]), path)
    assert not path.exists()


@pytest.mark.parametrize("emit", [("csv",), ("binary", "csv", "json")])
@pytest.mark.parametrize("column", ["phi_in", "gain"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_sweep_refuses_a_non_finite_column_before_writing(tmp_path, emit, column, bad):
    table = {"phi_in": [0.0, 0.5, 1.0], "gain": [1.0, 6.75, 0.125]}
    table[column][2] = bad
    result = SweepResult(table["phi_in"], {"gain": table["gain"]}, {"x_name": "phi_in"})
    outdir = tmp_path / "out"
    message = f"sweep column {column!r}: data row 3 is {bad}, not a finite number"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        write_sweep(result, outdir, emit, "x")
    assert not outdir.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_sweep_refuses_non_finite_metadata_before_writing(tmp_path, bad):
    result = SweepResult([0.0, 1.0], {"gain": [1.0, 2.0]},
                         {"x_name": "phi_in", "scan_spec": {"grid": [0.0, bad]}})
    outdir = tmp_path / "out"
    with pytest.raises(DomainError, match="^Out of range float values are not JSON compliant"):
        write_sweep(result, outdir, ("csv", "json"), "x")
    assert not outdir.exists()
