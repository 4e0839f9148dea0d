#!/usr/bin/env python3
"""psalab benchmark: time one workload end to end, or trace it layer by layer.

Usage, from the root of a psalab checkout:

    python3 perfbench/run.py --workload beatnote_extrema --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

A run is a closed loop in one process: after an untimed warm-up, passes
over the workload's campaigns run back to back, with no threads, until the
next pass would overrun --seconds (at least one pass runs).  A pass is a
list of units (a campaign, or one grid point), each timed on its own; the
fixed kernel in reference.py runs between units, outside their timing, to
follow the host's speed.  Every pass is checked for correctness after it
is timed.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters that import psalab and build the workload's specs),
wall_norm_s and points_per_norm_s (medians over the passes, of pass times
normalized to a nominal host speed) and peak_rss_mb.  Raw pass wall times
and kernel times are printed and kept in the run record.
--trace 1 spends half the time on untraced passes and half on passes with
the functions in TRACED_SELF wrapped in spans, and reports per-layer call
counts, self times and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
campaign passed its correctness gate.  --workload all runs each workload in
its own process and prints them side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("beatnote_extrema", "beatnote_scan", "model_exact_io")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5

# The traced functions: call counts for the first group, self times for all.
TRACED_CALLS = (
    "beatnote.synthesize_beatnote",
    "beatnote.cell_off_record",
    "sweeps.point_seed",
    "analyzer.spectrum_peaks",
    "analyzer.extract_gain",
    "analyzer.extract_cos_phase",
    "squeezer.evolve_two_mode",
    "calibration.effective_r",
    "serialize.write_sweep",
    "cli.main",
)
TRACED_SELF = TRACED_CALLS + (
    "analyzer.unwrap_cos_scan",
    "sweeps.run_scan",
    "config.parse_config_document",
)


def _limit_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable core count before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _import_psalab():
    sys.path.insert(0, str(SRC))
    import psalab

    where = Path(psalab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: psalab imported from {where}, not from {SRC}")
    return psalab


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of a fresh interpreter importing psalab and building the specs.

    One probe runs first untimed, so that bytecode compilation in a fresh
    checkout is not counted.  No timeout is passed: with one, the wait
    polls in sleeps of up to 50 ms, which quantizes the measurement.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        if probe:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _warm_up(workload) -> None:
    """Run the first unit of each campaign once, untimed and unchecked."""
    first = {}
    for name, part in workload.units():
        first.setdefault(name, part)
    for name, part in first.items():
        try:
            workload.run_unit(name, part)
        except Exception:  # the timed passes count it
            pass
    reference.timed()


def _run_passes(workload, gate, seconds: float, spans=None) -> dict:
    """Closed loop: passes back to back until the next would overrun ``seconds``.

    Each unit's wall time is divided by the mean of the reference kernel's
    times just before and after it, and scaled by reference.NOMINAL_S; a
    pass's normalized time is the sum over its units.  With a tracer in
    ``spans``, its wrappers are installed for the units only, so the
    correctness checks leave no spans.
    """
    units = workload.units()
    run = {"walls": [], "norms": [], "unit_s": [], "kernel_s": [], "traced": []}
    durations = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pieces = {name: [] for name in workload.campaigns}
        wall = norm = 0.0
        before = reference.timed()
        run["kernel_s"].append(before)
        for name, part in units:
            if spans is not None:
                spans.install()
            t0 = time.perf_counter()
            try:
                piece = workload.run_unit(name, part)
            except Exception as err:  # counted as a failed campaign, never fatal
                piece = err
            elapsed = time.perf_counter() - t0
            if spans is not None:
                spans.uninstall()
            after = reference.timed()
            wall += elapsed
            norm += elapsed / (0.5 * (before + after))
            run["unit_s"].append(elapsed)
            run["kernel_s"].append(after)
            pieces[name].append(piece)
            before = after
        run["walls"].append(wall)
        run["norms"].append(norm * reference.NOMINAL_S)
        if spans is not None:
            run["traced"].append(spans.take())
        workload.check_pass(workload.outputs(pieces), gate)
        durations.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return run


def _layer_metrics(traced, untraced_norms, traced_norms):
    folded = [(*tracer.fold(spans), counters) for spans, counters in traced]
    calls, _, counters = folded[0]
    repeat = all(c == calls and k == counters for c, _, k in folded[1:])
    points = counters["sweeps.points"]
    metrics = {}
    for fn in TRACED_CALLS:
        metrics[f"{fn}.calls"] = (calls[fn], "count")
    for fn in TRACED_SELF:
        metrics[f"{fn}.self_s"] = (statistics.median(s.get(fn, 0.0) for _, s, _ in folded), "s")
    per_point = {"beatnote.cell_off_per_point": "beatnote.cell_off_record",
                 "sweeps.evals_per_point": "analyzer.extract_gain"}
    for metric, fn in per_point.items():
        metrics[metric] = (calls[fn] / points if points else 0.0, "calls/point")
    metrics["beatnote.samples_computed"] = (counters["beatnote.samples_computed"], "count")
    metrics["sweeps.points"] = (points, "count")
    metrics["serialize.bytes_written"] = (counters["serialize.bytes_written"], "B")
    overhead = statistics.median(traced_norms) - statistics.median(untraced_norms)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, repeat


def _report(args, gate, metrics: dict, extra: dict) -> int:
    for line in gate.lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    failed_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{args.workload} failed_frac = {failed_frac:.6g} ({gate.failed}/{gate.attempted} campaigns)")
    correct = gate.failed == 0 and gate.attempted > 0
    record = {**extra, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failed_frac": failed_frac, "gate": gate.lines()}
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_workload(args: argparse.Namespace, machine: dict) -> int:
    setup_s = None if args.trace else _setup_seconds(args)
    psalab = _import_psalab()
    import numpy as np
    import workloads

    record = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "psalab": psalab.__version__,
        **machine,
    }
    print("run record: " + json.dumps({**record, "workload": args.workload, "seed": args.seed}))
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    workload.prepare()
    gate = workloads.Gate()
    _warm_up(workload)
    if not args.trace:
        run = _run_passes(workload, gate, args.seconds)
        norms = run["norms"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_norm_s": (statistics.median(norms), "s"),
            "points_per_norm_s": (statistics.median(workload.points / n for n in norms), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{args.workload}: {len(norms)} passes of {workload.points} points in "
              f"{len(workload.units())} units; wall_norm_s is their median; raw wall_s median "
              f"{statistics.median(run['walls']):.6g} s; reference kernel median "
              f"{statistics.median(run['kernel_s']) * 1e3:.4g} ms (nominal "
              f"{reference.NOMINAL_S * 1e3:g} ms)")
        del run["traced"]
        return _report(args, gate, metrics, {**record, **run})

    spans = tracer.Tracer(TRACED_SELF)
    untraced = _run_passes(workload, gate, args.seconds / 2)
    traced = _run_passes(workload, gate, args.seconds / 2, spans)
    metrics, repeat = _layer_metrics(traced["traced"], untraced["norms"], traced["norms"])
    print(f"{args.workload}: {len(untraced['norms'])} untraced and {len(traced['norms'])} traced "
          f"passes; call counts {'repeat exactly' if repeat else 'DIFFER'} across traced passes")
    if spans.absent:
        print(f"absent (reported as 0): {', '.join(spans.absent)}")
    (WORKDIR / f"{args.workload}-seed{args.seed}-spans.json").write_text(
        json.dumps(tracer.span_dump(traced["traced"][0][0], pass_id=len(untraced["norms"]))) + "\n")
    extra = {**record, "untraced_norms": untraced["norms"], "traced_norms": traced["norms"],
             "untraced_walls": untraced["walls"], "traced_walls": traced["walls"],
             "counts_repeat": repeat, "absent": spans.absent}
    return _report(args, gate, metrics, extra)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    ok, attempted, failed, metrics, rows = True, 0, 0, {}, []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        print(child.stdout, end="")
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            ok = False
            continue
        ok &= child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        cells = [] if args.trace else [
            f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
        cells.append(f"failed_frac={result['failed'] / result['attempted']:.3g}")
        rows.append(f"{name:18s} " + "  ".join(cells))
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print("\n" + "\n".join(rows))
    correct = ok and failed == 0 and len(rows) == len(WORKLOAD_NAMES)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "psalab" / "__init__.py").is_file():
        print(f"perfbench: no psalab sources at {SRC / 'psalab'}; run from a psalab checkout",
              file=sys.stderr)
        return 2
    machine = {"nproc": len(os.sched_getaffinity(0)), "threads": _limit_threads()}
    if args.probe_setup:
        _import_psalab()
        import workloads

        workloads.WORKLOADS[args.workload].build_specs(args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, machine)


if __name__ == "__main__":
    sys.exit(main())
