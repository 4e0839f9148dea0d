"""The campaign script, run as a separate process the way a user runs it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psalab.cli import EXIT_OK, main

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


def _hash_outputs():
    path = ROOT / "scripts" / "hash_outputs.py"
    spec = importlib.util.spec_from_file_location("hash_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hash_outputs_is_stable_within_a_process():
    module = _hash_outputs()
    first = module.hash_lines(5)
    assert first == module.hash_lines(5)
    names = [line.split("  ", 1)[1] for line in first]
    # six stock campaigns per pipeline and sigma, plus the full_beatnote spectrum and
    # mixed-seed power sweep per sigma
    campaigns, cli_sweeps, records, histogram, analyze = 4 * 6 * 3 + 2 * 2 * 3, 5 * 3, 3 * 2, 2, 1
    helps, refusals = 1 + len(module.SUBCOMMANDS), 1
    assert len(names) == campaigns + cli_sweeps + records + histogram + analyze + helps + refusals
    assert "cli_unknown_key.stdout" in names
    assert not [name for name in names if name.endswith(".error")]
    assert "campaign_full_beatnote_sigma0.05_transfer_pure.csv" in names
    assert "campaign_full_beatnote_sigma0.05_gain_spectrum_beatnote.csv" in names
    assert "campaign_full_beatnote_sigma0.05_gain_vs_power_mixed.csv" in names


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
