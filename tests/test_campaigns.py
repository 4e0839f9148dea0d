"""The campaign script, run as a separate process the way a user runs it."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from psalab import run_scan
from psalab.cli import EXIT_OK, main
from psalab.config import parse_config_document
from psalab.serialize import sweep_csv_bytes, write_sweep

ROOT = Path(__file__).resolve().parents[1]
CAMPAIGNS = ("gain_vs_phase", "gain_vs_power", "psa_vs_pia", "gain_spectrum",
             "transfer_pure", "transfer_mixed")


@pytest.mark.parametrize("pipeline", ["model_exact", "full_beatnote"])
def test_campaign_histogram_matches_cli_histogram(tmp_path, pipeline):
    out = tmp_path / "campaigns"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_campaigns.py"),
         "--pipeline", pipeline, "--out", str(out)],
        check=True, env=env, capture_output=True,
    )
    for name in CAMPAIGNS:
        assert (out / f"{name}.csv").is_file() and (out / f"{name}.json").is_file()

    cli_out = tmp_path / "cli"
    argv = ["histogram", str(out / "transfer_pure.csv"), "--bins", "64", "--out", str(cli_out)]
    assert main([*argv, "--quiet"]) == EXIT_OK
    expected = (cli_out / "transfer_pure_hist.csv").read_bytes()
    assert (out / "transfer_pure_hist.csv").read_bytes() == expected


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hash_outputs():
    return _script("hash_outputs")


def test_stock_spectrum_is_measured_under_full_beatnote():
    spec = _script("run_campaigns").campaign_specs(7, "full_beatnote")["gain_spectrum"]
    assert spec.pipeline == "full_beatnote"
    measured, model = run_scan(spec), run_scan(replace(spec, pipeline="model_exact"))
    np.testing.assert_array_equal(measured.x, model.x)
    assert measured.columns.keys() == model.columns.keys()
    for name, column in model.columns.items():
        np.testing.assert_allclose(measured.columns[name], column, rtol=1e-9, atol=0.0)
    assert measured.metadata["bandwidth_khz"] == pytest.approx(model.metadata["bandwidth_khz"],
                                                               rel=1e-9)


def test_hash_outputs_is_stable_within_a_process(tmp_path):
    module = _hash_outputs()
    first = module.hash_lines(5)
    assert first == module.hash_lines(5)
    module.write_outputs(5, tmp_path)  # a fresh pass: rewriting seed 6's files moves no byte
    fresh = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
             for path in sorted(tmp_path.iterdir())]
    assert first == fresh
    names = [line.split("  ", 1)[1] for line in first]
    # six stock campaigns plus the mixed-seed and linear-map power sweeps per pipeline
    # and sigma, and two one-point campaigns per sigma as csv
    campaigns = 4 * 6 * 3 + 2 * 2 * 3 + 2 * 2 * 3
    cli_sweeps, records, histogram, analyze = 5 * 4, 3 * 2, 2, 2
    helps, refusals, one_point = 1 + len(module.SUBCOMMANDS), 2, 2 * 2
    assert len(names) == (campaigns + cli_sweeps + records + histogram + analyze + helps
                          + refusals + one_point)
    assert "cli_unknown_key.stdout" in names
    assert not [name for name in names if name.endswith(".error")]
    assert "campaign_full_beatnote_sigma0.05_transfer_pure.csv" in names
    assert "campaign_model_exact_sigma0.05_gain_vs_power_mixed.csv" in names
    assert "campaign_full_beatnote_sigma0.05_gain_vs_power_linear.csv" in names
    assert "campaign_full_beatnote_sigma0.05_gain_vs_power_mixed.csv" in names
    assert "one_point_full_beatnote_sigma0.05_psa_vs_pia.csv" in names


@pytest.mark.parametrize(
    "argv, expected",
    [([], ["h7  a", "h7  b"]), (["--seed", "3"], ["h3  a", "h3  b"]),
     (["--seed", "3,2", "--seed", str(2**64 + 1)],
      ["seed=3 h3  a", "seed=3 h3  b", "seed=2 h2  a", "seed=2 h2  b",
       f"seed={2**64 + 1} h{2**64 + 1}  a", f"seed={2**64 + 1} h{2**64 + 1}  b"])],
    ids=["default", "one_seed", "several_seeds"],
)
def test_hash_outputs_prefixes_lines_only_for_several_seeds(argv, expected, monkeypatch, capsys):
    module = _hash_outputs()
    monkeypatch.setattr(module, "hash_lines", lambda seed: [f"h{seed}  a", f"h{seed}  b"])
    monkeypatch.setattr(sys, "argv", ["hash_outputs.py", *argv])
    module.main()
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize(
    "theirs, code, expected",
    [(["h3  a", "h3  b"], 0, ["no difference against abc123"]),
     (["h3  a", "old  b"], 1,
      ["--- abc123", "+++ this tree", "@@ -1,2 +1,2 @@", " h3  a", "-old  b", "+h3  b"])],
    ids=["same", "differs"],
)
def test_hash_outputs_against_prints_the_diff_and_exits_1_on_any(theirs, code, expected,
                                                                  monkeypatch, capsys):
    module = _hash_outputs()
    monkeypatch.setattr(module, "hash_lines", lambda seed: [f"h{seed}  a", f"h{seed}  b"])
    calls = []
    monkeypatch.setattr(module, "lines_at", lambda rev, seeds: calls.append((rev, seeds)) or theirs)
    monkeypatch.setattr(sys, "argv", ["hash_outputs.py", "--against", "abc123", "--seed", "3"])
    with pytest.raises(SystemExit) as stop:
        module.main()
    assert stop.value.code == code
    assert calls == [("abc123", [3])]
    assert capsys.readouterr().out.splitlines() == expected


def test_hash_outputs_runs_itself_on_the_archived_src(monkeypatch):
    module = _hash_outputs()
    archive, init = io.BytesIO(), b"OLD = True\n"
    with tarfile.open(fileobj=archive, mode="w") as tar:
        info = tarfile.TarInfo("src/psalab/__init__.py")
        info.size = len(init)
        tar.addfile(info, io.BytesIO(init))
    seen = {}

    def run(argv, **kwargs):
        if argv[:2] == ["git", "archive"]:
            seen["archive"] = argv
            return subprocess.CompletedProcess(argv, 0, archive.getvalue(), b"")
        seen["init"] = (Path(kwargs["env"]["PYTHONPATH"]) / "psalab" / "__init__.py").read_bytes()
        seen["argv"] = argv
        return subprocess.CompletedProcess(argv, 0, "seed=3 h3  a\nseed=5 h5  a\n", "")

    monkeypatch.setattr(module.subprocess, "run", run)
    assert module.lines_at("abc123", [3, 5]) == ["seed=3 h3  a", "seed=5 h5  a"]
    assert seen == {"archive": ["git", "archive", "abc123", "src"], "init": init,
                    "argv": [sys.executable, module.__file__, "--seed", "3,5"]}


@pytest.mark.parametrize("pipeline", ["model_exact", "full_beatnote"])
def test_sidecar_scan_spec_is_its_own_run_document(tmp_path, pipeline):
    """Each stock campaign's sidecar ``scan_spec``, given as a run document's scan section,
    builds the same ScanSpec, and that spec writes the same CSV bytes."""
    specs = _script("run_campaigns").campaign_specs(7, pipeline)
    for name, spec in specs.items():
        spec = replace(spec, detection=replace(spec.detection, noise_sigma=0.05))
        write_sweep(run_scan(spec), tmp_path, ("csv", "json"), name)
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        rebuilt = parse_config_document({"scan": sidecar["scan_spec"]}).scan
        assert rebuilt == spec, name
        assert sweep_csv_bytes(run_scan(rebuilt)) == (tmp_path / f"{name}.csv").read_bytes(), name
