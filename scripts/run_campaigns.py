#!/usr/bin/env python3
"""Produce the standard simulated-experiment datasets in one go.

Runs the six stock campaigns (gain versus input phase, pump power,
seeded-versus-unseeded gain, detuning spectrum, and the pure/mixed phase
transfer pair) plus the output-phase histogram, writing plot-ready CSVs
with JSON sidecars.  Each campaign is its CLI subcommand's default run;
the transfer pair adds r for a gain of 5.3, and the mixed curve an input
ratio of 1.78.  Everything is deterministic for a given --seed.

Usage:
    python scripts/run_campaigns.py --out results --seed 7
"""

from __future__ import annotations

import argparse
from pathlib import Path

from psalab import ScanSpec, phase_histogram, r_for_max_gain, run_scan
from psalab.config import parse_config_document
from psalab.serialize import histogram_to_csv, write_sweep


def campaign_specs(seed: int, pipeline: str) -> dict[str, ScanSpec]:
    """The stock campaigns at ``seed``, each parsed from its run document's scan section."""
    transfer = {"kind": "transfer_curve", "amplifier": {"r": r_for_max_gain(5.3)}}
    scans = {
        "gain_vs_phase": {"kind": "phase_scan"},
        "gain_vs_power": {"kind": "power_sweep"},
        "psa_vs_pia": {"kind": "pia_compare"},
        "gain_spectrum": {"kind": "detuning_spectrum"},
        "transfer_pure": transfer,
        # ScanSpec refuses a full_beatnote mixed-seed curve, so it runs the closed form.
        "transfer_mixed": {**transfer, "input_ratio": 1.78, "pipeline": "model_exact"},
    }
    common = {"pipeline": pipeline, "detection": {"rng_seed": seed}}
    return {name: parse_config_document({"scan": {**common, **scan}}).scan
            for name, scan in scans.items()}


def write_histogram(result, outdir: Path, name: str, bins: int = 64) -> Path:
    edges, counts = phase_histogram(result.columns["phi_out_wrapped"], bins)
    return histogram_to_csv(edges, counts, outdir / f"{name}_hist.csv")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    parser.add_argument(
        "--pipeline",
        choices=("model_exact", "full_beatnote"),
        default="full_beatnote",
        help="measurement pipeline for every campaign but transfer_mixed, which runs model_exact",
    )
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec in campaign_specs(args.seed, args.pipeline).items():
        result = run_scan(spec)
        paths = write_sweep(result, outdir, ("csv", "json"), basename=name)
        extras = ""
        if spec.kind == "transfer_curve":
            hist = write_histogram(result, outdir, name)
            extras = f" (+ {hist.name})"
        if spec.kind == "detuning_spectrum":
            extras = f" (bandwidth {result.metadata['bandwidth_khz']:.0f} kHz)"
        print(f"{name}: {len(result.x)} points -> {paths[0].name}{extras}")


if __name__ == "__main__":
    main()
