#!/usr/bin/env python3
"""Produce the standard simulated-experiment datasets in one go.

Runs the five stock campaigns (gain versus input phase, pump power,
seeded-versus-unseeded gain, detuning spectrum, and the pure/mixed phase
transfer pair) plus the output-phase histogram, writing plot-ready CSVs
with JSON sidecars.  Everything is deterministic for a given --seed.

Usage:
    python scripts/run_campaigns.py --out results --seed 7
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from psalab import (
    AmplifierParams,
    DetectionConfig,
    ScanSpec,
    phase_histogram,
    r_for_max_gain,
    run_scan,
)
from psalab.serialize import histogram_to_csv, write_sweep


def campaign_specs(seed: int, pipeline: str) -> dict[str, ScanSpec]:
    detection = DetectionConfig(rng_seed=seed)
    operating = AmplifierParams(pump_power=30.0, detuning=2.0)
    transfer_grid = tuple(np.linspace(-math.pi, math.pi, 512, endpoint=False))
    r_pure = r_for_max_gain(5.3)
    return {
        "gain_vs_phase": ScanSpec(
            kind="phase_scan",
            grid=tuple(np.linspace(-math.pi, math.pi, 257)),
            amplifier=operating,
            detection=detection,
            pipeline=pipeline,
        ),
        "gain_vs_power": ScanSpec(
            kind="power_sweep",
            grid=tuple(np.linspace(0.0, 80.0, 33)),
            amplifier=operating,
            detection=detection,
            pipeline=pipeline,
        ),
        "psa_vs_pia": ScanSpec(
            kind="pia_compare",
            grid=tuple(np.linspace(0.0, 80.0, 33)),
            amplifier=operating,
            detection=detection,
            pipeline=pipeline,
        ),
        "gain_spectrum": ScanSpec(
            kind="detuning_spectrum",
            grid=tuple(np.arange(0.0, 1000.1, 10.0)),
            amplifier=operating,
            detection=detection,
            pipeline="model_exact",  # pinned, so its bytes stay; full_beatnote would run it too
        ),
        "transfer_pure": ScanSpec(
            kind="transfer_curve",
            grid=transfer_grid,
            amplifier=AmplifierParams(r=r_pure, detuning=2.0),
            detection=detection,
            pipeline=pipeline,
        ),
        "transfer_mixed": ScanSpec(
            kind="transfer_curve",
            grid=transfer_grid,
            amplifier=AmplifierParams(r=r_pure, detuning=2.0),
            detection=detection,
            input_ratio=1.78,
            pipeline="model_exact",  # mixed seeds run the theory route
        ),
    }


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
        help="measurement pipeline for the equal-seed campaigns",
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
