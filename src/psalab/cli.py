"""Command-line front end.

Subcommands mirror the standard campaigns (phase-scan, power-sweep,
pia-compare, spectrum, transfer), plus histogram post-processing of a
transfer output and the synth/analyze pair for debugging single beatnote
records.  Exit codes separate configuration problems from physics-domain
failures and I/O failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import phase_histogram, spectrum_peaks
from .beatnote import cell_off_record, synthesize_beatnote
from .config import (ENV_OUTPUT_DIR, RunConfig, decode_document, parse_config_document,
                     to_document)
from .errors import ConfigError, DomainError
from .serialize import (
    default_basename,
    histogram_to_csv,
    read_record,
    read_sweep_csv,
    read_text,
    record_to_binary,
    record_to_csv,
    write_sweep,
)
from .squeezer import evolve_block
from .sweeps import SweepResult, run_scan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# Sweep subcommands: name -> (scan kind, help line).
_SWEEP_COMMANDS = {
    "phase-scan": ("phase_scan", "gain versus scanned input phase"),
    "power-sweep": ("power_sweep", "extremal gains versus pump power"),
    "pia-compare": ("pia_compare", "seeded versus unseeded-idler gain"),
    "spectrum": ("detuning_spectrum", "extremal gains versus pump-signal detuning"),
    "transfer": ("transfer_curve", "phase-to-phase transfer curve"),
}

_EPILOG = f"""\
exit codes:
  0  success
  {EXIT_CONFIG}  configuration error (schema violation, bad flags)
  {EXIT_DOMAIN}  physics-domain error (invalid operating point, extraction failure)
  {EXIT_IO}  I/O error (unreadable input, unwritable output)

environment:
  {ENV_OUTPUT_DIR}  default output directory when neither --out nor the
  config document names one
"""


def _overlay(doc, flags: dict):
    """``doc`` with ``flags`` written over it, object by object.  A
    non-object stays as it is, for the parse to reject."""
    if not isinstance(doc, dict):
        return doc
    merged = dict(doc)
    for key, value in flags.items():
        merged[key] = _overlay(doc.get(key, {}), value) if isinstance(value, dict) else value
    return merged


def _build_config(args: argparse.Namespace, kind: str, **scan) -> RunConfig:
    """Parse the --config document with the run flags, and the ``scan`` keys the
    subcommand fixes, written into it, so a bad flag fails like the document key it sets."""
    flags: dict = {"scan": scan}
    if args.seed is not None:
        scan["detection"] = {"rng_seed": args.seed}
    if args.out is not None:
        flags["output_dir"] = args.out
    if args.emit is not None:
        flags["emit"] = args.emit.split(",")
    if args.quiet:
        flags["verbosity"] = 0
    doc = {} if args.config is None else decode_document(read_text(args.config), args.config)
    doc = _overlay(doc, flags)
    cfg = parse_config_document(doc, default_kind=kind)
    if cfg.scan.kind != kind:
        raise ConfigError(
            f"config declares scan.kind {cfg.scan.kind!r} but the subcommand runs {kind!r}"
        )
    return cfg


def _summary(result: SweepResult) -> str:
    cols = result.columns
    parts = [f"{result.metadata['kind']}:"]
    if "g_pia" in cols:
        # No g_min is measured: report how well the unseeded gain predicts g_max.
        residual = float(abs(cols["g_max"] - cols["g_max_from_pia"]).max())
        parts += [f"g_max={float(cols['g_max'].max()):.6g}", f"pia_residual_max={residual:.3g}"]
    else:
        g_max = float(cols["g_max" if "g_max" in cols else "gain"].max())
        g_min = float(cols["g_min" if "g_min" in cols else "gain"].min())
        parts += [f"g_max={g_max:.6g}", f"g_min={g_min:.6g}", f"product={g_max * g_min:.6g}"]
    bandwidth = result.metadata.get("bandwidth_khz")
    if bandwidth is not None:
        parts.append(f"bandwidth_khz={bandwidth:.6g}")
    parts.append(f"n={result.x.size}")
    return " ".join(parts)


def run(cfg: RunConfig, basename: str | None = None) -> tuple[int, list[Path]]:
    """Execute a validated run: scan, emit files, print the summary line."""
    result = run_scan(cfg.scan)
    result.metadata["config_echo"] = to_document(cfg)
    paths = write_sweep(result, cfg.output_dir, cfg.emit, basename=basename)
    if cfg.verbosity >= 1:
        print(_summary(result))
    if cfg.verbosity >= 2:
        for path in paths:
            print(f"wrote {path}")
    return EXIT_OK, paths


def _cmd_sweep(args: argparse.Namespace, kind: str) -> int:
    return run(_build_config(args, kind), basename=args.name)[0]


def _cmd_histogram(args: argparse.Namespace) -> int:
    if args.bins < 2:
        raise ConfigError(f"--bins must be an integer >= 2, got {args.bins}")
    try:  # bin edges numpy can hold
        np.empty(args.bins + 1)
    except (ValueError, MemoryError) as err:  # numpy's _ArrayMemoryError: too many bins
        raise ConfigError(f"--bins: numpy cannot hold {args.bins} bins: {err}") from None
    names, data = read_sweep_csv(args.input)
    if args.column not in names:
        raise ConfigError(
            f"{args.input}: column {args.column!r} not found (has: {', '.join(names)})"
        )
    phases = data[:, names.index(args.column)]
    edges, counts = phase_histogram(phases, args.bins)
    out = Path(args.out) if args.out else Path(args.input).parent
    out.mkdir(parents=True, exist_ok=True)
    target = histogram_to_csv(edges, counts, out / (Path(args.input).stem + "_hist.csv"))
    if not args.quiet:
        print(f"histogram: n={int(counts.sum())} bins={args.bins} wrote {target}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # A record run: the full_beatnote checks bound its sampling before anything is made.
    cfg = _build_config(args, "phase_scan", pipeline="full_beatnote")
    if not {"csv", "binary"} & set(cfg.emit):
        raise ConfigError("synth emits records; request 'csv' and/or 'binary'")
    spec, amp = cfg.scan, cfg.scan.amplifier
    ((r, loss, _),) = spec.operating_points()
    s_in, i_in = spec.input_fields()
    if args.cell_off:
        record = cell_off_record(s_in, i_in, amp.pump_phase, amp.detuning, spec.detection)
    else:
        s_out, i_out = (z * math.sqrt(loss) for z in evolve_block(s_in, i_in, r, amp.pump_phase))
        record = synthesize_beatnote(s_out, i_out, amp.pump_phase, amp.detuning, spec.detection)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    base = args.name or default_basename("record", spec.detection.rng_seed)
    paths = []
    if "csv" in cfg.emit:
        paths.append(record_to_csv(record, cfg.output_dir / f"{base}.csv"))
    if "binary" in cfg.emit:
        paths.append(record_to_binary(record, cfg.output_dir / f"{base}.bin"))
    if cfg.verbosity >= 1:
        label = "cell-off" if args.cell_off else "cell-on"
        print(f"synth: {label} record, n={record.n_samples} -> " + ", ".join(map(str, paths)))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    record = read_record(args.record)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite peak is refused below
        dc, at_delta, at_two_delta = spectrum_peaks(record)
    sizes = {"dc": dc, "at_delta": abs(at_delta), "at_two_delta": abs(at_two_delta)}
    for name, size in sizes.items():
        if not math.isfinite(size):  # finite samples can still sum past the largest float
            raise DomainError(f"{args.record}: {name}: peak amplitude {size} is not finite")

    def tone(z: complex) -> dict:
        return {"re": z.real, "im": z.imag, "abs": abs(z)}

    summary = {
        "dc": dc,
        "at_delta": tone(at_delta),
        "at_two_delta": tone(at_two_delta),
        "bin_resolution_khz": record.sample_rate / record.n_samples,
        "delta_khz": record.delta,
        "sample_rate_khz": record.sample_rate,
        "n_samples": record.n_samples,
    }
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psalab",
        description=(
            "Simulated phase-sensitive amplifier laboratory: two-mode parametric "
            "gain, heterodyne beatnote records and FFT gain/phase extraction."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"psalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the run flags, declared once
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="INT", help="master RNG seed, any integer >= 0")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument(
        "--emit", metavar="LIST", help="comma-separated output formats: csv,json,binary"
    )
    common.add_argument("--quiet", action="store_true", help="suppress the summary line")
    common.add_argument("--name", metavar="BASE", help="basename for output files")
    for name, (kind, description) in _SWEEP_COMMANDS.items():
        sp = sub.add_parser(name, help=description, parents=[common])
        sp.set_defaults(func=lambda args, kind=kind: _cmd_sweep(args, kind))

    hist = sub.add_parser("histogram", help="bin the output phases of a transfer CSV")
    hist.add_argument("input", help="transfer-curve CSV produced by the transfer subcommand")
    hist.add_argument("--bins", type=int, default=40, help="number of bins (default 40)")
    hist.add_argument(
        "--column", default="phi_out_wrapped", help="phase column to bin (default phi_out_wrapped)"
    )
    hist.add_argument("--out", metavar="DIR", help="output directory (default: beside the input)")
    hist.add_argument("--quiet", action="store_true", help="suppress the summary line")
    hist.set_defaults(func=_cmd_histogram)

    synth = sub.add_parser("synth", help="emit one raw beatnote record", parents=[common])
    synth.add_argument(
        "--cell-off", action="store_true", help="emit the unamplified reference record"
    )
    synth.set_defaults(func=_cmd_synth)

    analyze = sub.add_parser("analyze", help="FFT peak summary of a stored record")
    analyze.add_argument("record", help="record file (.csv or binary)")
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"psalab: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as err:
        print(f"psalab: domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"psalab: I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
