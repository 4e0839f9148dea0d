#!/usr/bin/env python3
"""Hash every stock output of psalab, so two versions can be compared byte for byte.

Writes into a temporary directory, then prints one ``sha256  name`` line
per file, sorted by name:

- the six stock campaigns of ``run_campaigns.py`` with its pipeline set to
  each of the two (the spectrum and the mixed transfer curve stay pinned to
  model_exact), plus two full_beatnote copies: the spectrum from 10 kHz,
  since records refuse delta = 0, and the power sweep at input ratio 1.78,
  whose g_min comes off the quartic's roots; all at noise_sigma 0 and 0.05,
  as csv, json and binary;
- the five sweep subcommands run through the CLI (csv, json and binary,
  plus their summary lines on stdout);
- ``psalab synth`` records: cell-on, cell-off and a noisy mixed-seed
  record, as csv and binary;
- ``psalab analyze`` of the noisy record through each record reader: its
  binary and its csv;
- a transfer histogram written by ``psalab histogram``;
- a phase scan whose ``--config`` misspells ``noise_sigma``, refused
  before it writes anything (its stderr and exit code);
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
from dataclasses import replace
from pathlib import Path

import numpy as np

from psalab import run_scan
from psalab.cli import main as cli_main
from psalab.errors import PsalabError
from psalab.serialize import write_sweep

SIGMAS = (0.0, 0.05)
PIPELINES = ("model_exact", "full_beatnote")
SWEEPS = ("phase-scan", "power-sweep", "pia-compare", "spectrum", "transfer")
SUBCOMMANDS = (*SWEEPS, "histogram", "synth", "analyze")


def _campaign_specs(seed: int, pipeline: str) -> dict:
    """``campaign_specs`` of the campaign script beside this one."""
    path = Path(__file__).with_name("run_campaigns.py")
    spec = importlib.util.spec_from_file_location("run_campaigns", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.campaign_specs(seed, pipeline)


def _cli(argv: list[str]) -> str:
    """Standard output of one in-process CLI call, with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
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
            if pipeline == "full_beatnote":  # the stock spectrum is pinned to model_exact
                specs["gain_spectrum_beatnote"] = replace(
                    specs["gain_spectrum"], pipeline=pipeline,
                    grid=tuple(np.arange(10.0, 1000.1, 10.0)),
                )
                specs["gain_vs_power_mixed"] = replace(specs["gain_vs_power"], input_ratio=1.78)
            for name, spec in specs.items():
                spec = replace(spec, detection=replace(spec.detection, noise_sigma=sigma))
                base = f"campaign_{pipeline}_sigma{sigma:g}_{name}"
                try:
                    write_sweep(run_scan(spec), outdir, ("csv", "json", "binary"), base)
                except PsalabError as err:
                    (outdir / f"{base}.error").write_text(f"{type(err).__name__}: {err}\n")

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
    """``sha256  name`` of every output of ``write_outputs``, sorted by name."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        write_outputs(seed, outdir)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(outdir.iterdir())
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
