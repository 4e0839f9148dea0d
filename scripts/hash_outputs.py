#!/usr/bin/env python3
"""Hash every stock output of psalab, so two versions can be compared byte for byte.

Writes each seed's outputs twice into one temporary directory, first those
of seed + 1 and then the seed's own, so that every file of the hashed pass
is a rewrite of a file holding other bytes.  Then prints one
``sha256  name`` line per file the second pass wrote, sorted by name:

- the six stock campaigns of ``run_campaigns.py`` with its pipeline set to
  each of the two (the mixed transfer curve stays pinned to model_exact),
  plus two copies of the stock power sweep under each pipeline: at input
  ratio 1.78, whose g_min comes off the quartic's roots, and on a linear
  calibration map; all at noise_sigma 0 and 0.05, as csv, json and binary;
- the stock power sweep and PIA comparison under full_beatnote, each grid
  point run as its own one-point scan (a ``perfbench`` ``beatnote_extrema``
  unit) and the rows joined into one csv, at noise_sigma 0 and 0.05;
- the five sweep subcommands run through the CLI (csv, json and binary,
  plus their summary lines on stdout);
- ``psalab synth`` records: cell-on, cell-off and a noisy mixed-seed
  record, as csv and binary;
- ``psalab analyze`` of the noisy record through each record reader: its
  binary and its csv;
- a transfer histogram written by ``psalab histogram``;
- a phase scan whose ``--config`` misspells ``noise_sigma``, refused
  before it writes anything (its stderr and exit code);
- the CLI's refusal of each run document in ``REFUSED_DOCUMENTS``: its
  subcommand and JSON, then its stderr and exit code (or the exception that
  escaped the CLI), in one file;
- the ``--help`` text of ``psalab`` and of every subcommand.

The temporary directory reads ``<out>`` in the CLI sidecars and stdout.
A campaign that raises is hashed as its error message.  Run it on two
checkouts and diff the output; an empty diff means identical bytes:

    PYTHONPATH=src python scripts/hash_outputs.py --seed 7

``--seed`` repeats or takes a comma-separated list; with more than one seed
every line starts with ``seed=S``.  ``--against REV`` makes the comparison one
command: it also runs this script, with the same campaigns and seeds, on the
``src/`` of a ``git archive`` of REV, prints the diff and exits 1 if any line
differs:

    PYTHONPATH=src python scripts/hash_outputs.py --against HEAD \
        --seed 3,7,11,18446744073709551617,1361129467683753853853498429727072845829
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from psalab import SweepResult, fitted_calibration, run_scan
from psalab.cli import main as cli_main
from psalab.errors import PsalabError
from psalab.serialize import write_sweep

SIGMAS = (0.0, 0.05)
PIPELINES = ("model_exact", "full_beatnote")
SWEEPS = ("phase-scan", "power-sweep", "pia-compare", "spectrum", "transfer")
SUBCOMMANDS = (*SWEEPS, "histogram", "synth", "analyze")
ONE_POINT_CAMPAIGNS = ("gain_vs_power", "psa_vs_pia")
# (subcommand, run document) pairs the CLI refuses: a wrong JSON type, a bound, a grid
# parameter, a grid value, an anchor value and an emit list, then an idler seed past
# e^R_MAX, twice, and a noise_sigma and a residual pump intensity past e^(2*R_MAX), whose
# records' extremum fit would overflow: each is refused when its spec is built.
REFUSED_DOCUMENTS = (
    ("phase-scan", {"scan": {"detection": {"noise_sigma": [0.05]}}}),
    ("phase-scan", {"verbosity": True}),
    ("phase-scan", {"verbosity": 3}),
    ("phase-scan", {"scan": {"grid": {"start": -4, "stop": 4, "num": 2.5}}}),
    ("phase-scan", {"scan": {"grid": {"start": "0", "stop": 4, "num": 9}}}),
    ("power-sweep", {"scan": {"grid": {"start": 0, "stop": 80, "step": -1}}}),
    ("power-sweep", {"scan": {"grid": {"values": [0, "a"]}}}),
    ("power-sweep", {"scan": {"calibration": {"anchor": {"power": "x"}}}}),
    ("phase-scan", {"emit": "csv"}),
    ("transfer", {"scan": {"kind": "transfer_curve", "input_ratio": 5e-324}}),
    ("power-sweep", {"scan": {"kind": "power_sweep", "pipeline": "full_beatnote",
                              "input_ratio": 1e-320}}),
    ("pia-compare", {"scan": {"kind": "pia_compare", "pipeline": "full_beatnote",
                              "detection": {"noise_sigma": 1e308}}}),
    ("spectrum", {"scan": {"kind": "detuning_spectrum", "pipeline": "full_beatnote",
                           "detection": {"residual_pump_intensity": 1.7976931348623157e308}}}),
)


def _campaign_specs(seed: int, pipeline: str) -> dict:
    """``campaign_specs`` of the campaign script beside this one."""
    path = Path(__file__).with_name("run_campaigns.py")
    spec = importlib.util.spec_from_file_location("run_campaigns", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.campaign_specs(seed, pipeline)


def _cli(argv: list[str]) -> str:
    """Standard output of one in-process CLI call, with its exit code.  Python warnings
    are silenced: their text names source files and lines, and each prints once per line."""
    out = io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(out),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        try:
            code = cli_main(argv)
        except SystemExit as stop:  # --help
            code = stop.code
    return f"{out.getvalue()}exit {code}\n"


def write_outputs(seed: int, outdir: Path) -> None:
    """Every hashed output of one seed, as files in ``outdir``."""
    for pipeline in PIPELINES:
        for sigma in SIGMAS:
            specs = _campaign_specs(seed, pipeline)
            specs["gain_vs_power_mixed"] = replace(specs["gain_vs_power"], input_ratio=1.78)
            specs["gain_vs_power_linear"] = replace(
                specs["gain_vs_power"], calibration=fitted_calibration(mode="linear"))
            for name, spec in specs.items():
                spec = replace(spec, detection=replace(spec.detection, noise_sigma=sigma))
                base = f"campaign_{pipeline}_sigma{sigma:g}_{name}"
                try:
                    write_sweep(run_scan(spec), outdir, ("csv", "json", "binary"), base)
                except PsalabError as err:
                    (outdir / f"{base}.error").write_text(f"{type(err).__name__}: {err}\n")
    for sigma in SIGMAS:  # each grid point its own scan, as a beatnote_extrema unit runs it
        specs = _campaign_specs(seed, "full_beatnote")
        for name in ONE_POINT_CAMPAIGNS:
            spec = replace(specs[name], detection=replace(specs[name].detection, noise_sigma=sigma))
            base = f"one_point_full_beatnote_sigma{sigma:g}_{name}"
            try:
                points = [run_scan(replace(spec, grid=(x,))) for x in spec.grid]
            except PsalabError as err:
                (outdir / f"{base}.error").write_text(f"{type(err).__name__}: {err}\n")
                continue
            columns = {key: np.concatenate([point.columns[key] for point in points])
                       for key in points[0].columns}
            joined = SweepResult(np.asarray(spec.grid), columns, points[0].metadata)
            write_sweep(joined, outdir, ("csv",), base)

    common = ["--seed", str(seed), "--out", str(outdir)]
    stdout = {}
    for sub in SWEEPS:
        argv = [sub, *common, "--emit", "csv,json,binary", "--name", f"cli_{sub}"]
        stdout[f"cli_{sub}"] = _cli(argv)
        sidecar = outdir / f"cli_{sub}.json"  # its config_echo names the output directory
        sidecar.write_text(sidecar.read_text().replace(str(outdir), "<out>"))
    noisy = outdir / "noisy.json"
    noisy_scan = {"input_ratio": 1.78, "detection": {"noise_sigma": 0.05}}
    noisy.write_text(json.dumps({"scan": noisy_scan}))
    records = {"synth_on": [], "synth_off": ["--cell-off"], "synth_noisy": ["--config", str(noisy)]}
    for name, extra in records.items():
        _cli(["synth", *common, "--emit", "csv,binary", "--name", name, "--quiet", *extra])
    transfer = outdir / "campaign_full_beatnote_sigma0_transfer_pure.csv"
    stdout["cli_histogram"] = _cli(["histogram", str(transfer), "--quiet"])
    stdout["cli_analyze"] = _cli(["analyze", str(outdir / "synth_noisy.bin")])
    stdout["cli_analyze_csv"] = _cli(["analyze", str(outdir / "synth_noisy.csv")])
    typo = outdir / "typo.json"
    typo.write_text(json.dumps({"scan": {"pipeline": "full_beatnote",
                                         "detection": {"noise_sigm": 0.05}}}))
    stdout["cli_unknown_key"] = _cli(["phase-scan", *common, "--config", str(typo)])
    typo.unlink()
    refused, refusals = outdir / "refused.json", []
    for sub, doc in REFUSED_DOCUMENTS:
        refused.write_text(json.dumps(doc))
        argv = [sub, *common, "--config", str(refused)]
        try:
            result = _cli(argv)
        except Exception as err:  # a tree where the document escapes the CLI's exit codes
            result = f"raised {type(err).__name__}: {err}\n"
        refusals.append(f"{sub} {json.dumps(doc)}\n{result}")
    stdout["cli_refusals"] = "".join(refusals)
    refused.unlink()

    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    try:
        stdout["help_psalab"] = _cli(["--help"])
        for sub in SUBCOMMANDS:
            stdout[f"help_{sub}"] = _cli([sub, "--help"])
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    for name, text in stdout.items():
        (outdir / f"{name}.stdout").write_text(text.replace(str(outdir), "<out>"))
    noisy.unlink()


def hash_lines(seed: int) -> list[str]:
    """``sha256  name`` of every output of ``write_outputs``, sorted by name, each
    written over the same file of seed + 1."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        write_outputs(seed + 1, outdir)
        for path in outdir.iterdir():  # a file the second pass leaves alone keeps mtime 0
            os.utime(path, ns=(0, 0))
        write_outputs(seed, outdir)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(outdir.iterdir()) if path.stat().st_mtime_ns
        ]


def _seeds(text: str) -> list[int]:
    return [int(seed) for seed in text.split(",")]


def output_lines(seeds: list[int]) -> list[str]:
    """``hash_lines`` of each seed; with several, each line starts with ``seed=S``."""
    if len(seeds) == 1:
        return hash_lines(seeds[0])
    return [f"seed={seed} {line}" for seed in seeds for line in hash_lines(seed)]


def lines_at(rev: str, seeds: list[int]) -> list[str]:
    """``output_lines`` of this script run on the ``src/`` of a ``git archive`` of REV."""
    root = Path(__file__).resolve().parent.parent
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=root, capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev}: {archive.stderr.decode(errors='replace').strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        argv = [sys.executable, __file__, "--seed", ",".join(map(str, seeds))]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"hashing {rev} failed:\n{run.stderr}")
    return run.stdout.splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=_seeds, action="extend",
                        help="master RNG seed(s), repeatable or comma-separated (default 7)")
    parser.add_argument("--against", metavar="REV",
                        help="diff against the outputs of git revision REV; exit 1 if any differ")
    args = parser.parse_args()
    seeds = args.seed or [7]
    lines = output_lines(seeds)
    if args.against is None:
        print("\n".join(lines))
        return
    diff = list(difflib.unified_diff(lines_at(args.against, seeds), lines,
                                     args.against, "this tree", lineterm=""))
    print("\n".join(diff) if diff else f"no difference against {args.against}")
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
