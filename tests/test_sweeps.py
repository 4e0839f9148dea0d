"""Campaign runners: figure-shaped datasets, pipeline equivalence and
reproducibility."""

import cmath
import importlib.util
import json
import math
import sys
import threading
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psalab import (
    AmplifierParams,
    CalibrationMap,
    DetectionConfig,
    DomainError,
    ScanSpec,
    cell_off_record,
    effective_r,
    evolve_two_mode,
    extract_cos_phase,
    extract_gain,
    fitted_calibration,
    point_seed,
    run_scan,
    synthesize_beatnote,
)
from psalab import sweeps
from psalab.analyzer import block_peaks
from psalab.beatnote import CELL_OFF, CELL_ON, synthesize_block
from psalab.serialize import sweep_csv_bytes, sweep_json_bytes

from conftest import dist_to_half_turns, signal_phase_direct

R_53 = math.log(5.3) / 2.0
PHASE_GRID = tuple(np.linspace(-math.pi, math.pi, 65))
# offset grid that avoids exact plateau centers (multiples of pi/2), where
# the cosine readout is ambiguous at machine precision
OFFSET_PHASES = tuple(np.linspace(-math.pi, math.pi, 64, endpoint=False) + math.pi / 64)


def phase_spec(**overrides) -> ScanSpec:
    fields = dict(kind="phase_scan", grid=PHASE_GRID, amplifier=AmplifierParams(r=R_53))
    fields.update(overrides)
    return ScanSpec(**fields)


class TestScanSpecValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError, match="non-empty"):
            phase_spec(grid=())

    @pytest.mark.parametrize("grid, bad", [(("a",), "a"), ((1.0, math.nan), "nan"),
                                           ((10**400,), "a finite number"), (None, "None")])
    def test_rejects_non_numeric_grid(self, grid, bad):
        with pytest.raises(DomainError, match=f"^grid: expected .*{bad}"):
            ScanSpec(kind="power_sweep", grid=grid)

    @pytest.mark.parametrize("build, name, value", [
        (lambda v: DetectionConfig(rng_seed=v), "rng_seed", True),
        (lambda v: AmplifierParams(r=v), "r", True),
        (lambda v: DetectionConfig(sample_rate=v), "sample_rate", "100"),
        (lambda v: ScanSpec(kind="power_sweep", grid=(v, 5.0)), "grid", "3"),
        (lambda v: CalibrationMap(p_sat=v), "p_sat", np.bool_(True)),
        (lambda v: DetectionConfig(n_samples=v), "n_samples", b"2000"),
    ], ids=["rng_seed_bool", "r_bool", "sample_rate_str", "grid_str", "p_sat_np_bool",
            "n_samples_bytes"])
    def test_numbers_refuse_bools_and_strings(self, build, name, value):
        with pytest.raises(DomainError) as err:
            build(value)
        assert str(err.value) == f"{name}: expected a number, got {value!r}"

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(DomainError, match="monotone"):
            ScanSpec(kind="power_sweep", grid=(0.0, 10.0, 5.0))

    def test_phase_scan_needs_full_turn(self):
        with pytest.raises(DomainError, match="2\\*pi"):
            phase_spec(grid=tuple(np.linspace(0.0, 3.0, 10)))

    def test_power_grid_range_enforced(self):
        with pytest.raises(DomainError, match="within"):
            ScanSpec(kind="power_sweep", grid=(0.0, 90.0))

    def test_power_sweep_rejects_explicit_r(self):
        with pytest.raises(DomainError, match="leave amplifier.r unset"):
            ScanSpec(kind="power_sweep", grid=(0.0, 40.0), amplifier=AmplifierParams(r=1.0))

    def test_detuning_needs_power_driven_amplifier(self):
        with pytest.raises(DomainError, match="power-driven"):
            ScanSpec(kind="detuning_spectrum", grid=(0.0, 100.0), amplifier=AmplifierParams(r=1.0))

    def test_mixed_beatnote_transfer_rejected(self):
        with pytest.raises(DomainError, match="equal signal/idler seeds"):
            ScanSpec(
                kind="transfer_curve",
                grid=OFFSET_PHASES,
                amplifier=AmplifierParams(r=R_53),
                input_ratio=1.78,
                pipeline="full_beatnote",
            )

    def test_full_beatnote_spectrum_runs_from_zero_detuning(self):
        # Records are sampled at amplifier.detuning: 0 kHz only sets its point's (r, loss).
        assert_pipelines_agree(ScanSpec(
            kind="detuning_spectrum",
            grid=(0.0, 100.0, 200.0),
            amplifier=AmplifierParams(pump_power=30.0, detuning=2.0),
        ))


class TestOperatingPoints:
    """ScanSpec.operating_points is the one map from a spec to (r, loss, detuning)."""

    def test_explicit_r_is_lossless(self):
        spec = phase_spec(amplifier=AmplifierParams(r=0.8, detuning=100.0))
        assert spec.operating_points() == [(0.8, 1.0, 100.0)]

    def test_power_driven_goes_through_map(self):
        spec = phase_spec(amplifier=AmplifierParams(pump_power=40.0, detuning=2.0))
        assert spec.operating_points() == [(*effective_r(40.0, 2.0, spec.calibration), 2.0)]

    @pytest.mark.parametrize("kind, grid", [("phase_scan", PHASE_GRID),
                                            ("transfer_curve", OFFSET_PHASES)])
    def test_unset_operating_point_rejected_when_built(self, kind, grid):
        with pytest.raises(DomainError, match="^amplifier: ") as err:
            ScanSpec(kind=kind, grid=grid, amplifier=AmplifierParams())
        assert any(entry.name == "__post_init__" for entry in err.traceback)

    def test_oracle_on_every_kind(self):
        cal = fitted_calibration()
        power = AmplifierParams(pump_power=30.0, detuning=140.0)
        powers, deltas = (0.0, 5.0, 40.0, 80.0), (0.5, 2.0, 200.0, 1000.0)
        cases = [
            (ScanSpec(kind=kind, grid=powers, amplifier=power),
             [(*effective_r(p, 140.0, cal), 140.0) for p in powers])
            for kind in ("power_sweep", "pia_compare")
        ] + [
            (ScanSpec(kind="detuning_spectrum", grid=deltas, amplifier=power),
             [(*effective_r(30.0, d, cal), d) for d in deltas]),
        ] + [
            (ScanSpec(kind=kind, grid=grid, amplifier=amp), [point])
            for kind, grid in (("phase_scan", PHASE_GRID), ("transfer_curve", OFFSET_PHASES))
            for amp, point in (
                (power, (*effective_r(30.0, 140.0, cal), 140.0)),
                (AmplifierParams(r=R_53, pump_power=30.0, detuning=140.0), (R_53, 1.0, 140.0)),
            )
        ]
        assert {spec.kind for spec, _ in cases} == set(sweeps.SCAN_KINDS)
        for spec, expected in cases:
            assert spec.operating_points() == expected


class TestPhaseScan:
    def test_zero_squeezing_is_flat(self):
        res = run_scan(phase_spec(amplifier=AmplifierParams(r=0.0)))
        assert np.allclose(res.columns["gain"], 1.0, atol=1e-12)

    def test_sinusoid_between_extremes_with_half_turn_period(self):
        res = run_scan(phase_spec(amplifier=AmplifierParams(r=math.log(7.0) / 2.0)))
        gain = res.columns["gain"]
        assert gain.max() == pytest.approx(7.0, rel=1e-9)
        assert gain.min() == pytest.approx(1.0 / 7.0, rel=1e-9)
        # the expected closed-form curve in the scanned input phase
        expected = np.array(
            [7.0 / 2 + 1 / 14 + (7.0 / 2 - 1 / 14) * math.cos(2 * p) for p in res.x]
        )
        assert np.max(np.abs(gain - expected)) <= 1e-9
        # period pi in the input phase
        half = len(PHASE_GRID) // 2
        assert np.allclose(gain[: half + 1], gain[half:], atol=1e-9)

    def test_default_calibration_at_30_mw(self):
        spec = phase_spec(amplifier=AmplifierParams(pump_power=30.0, detuning=2.0))
        res = run_scan(spec)
        r_eff, loss = effective_r(30.0, 2.0, spec.calibration)
        assert res.columns["gain"].max() == pytest.approx(loss * math.exp(2 * r_eff), rel=1e-9)


class TestPowerSweep:
    def test_zero_power_point(self):
        res = run_scan(ScanSpec(kind="power_sweep", grid=(0.0, 40.0)))
        assert res.columns["g_max"][0] == pytest.approx(1.0, abs=1e-5)
        assert res.columns["g_min"][0] == pytest.approx(1.0, abs=1e-5)
        assert res.columns["inv_g_max"][0] == pytest.approx(1.0, abs=1e-5)

    def test_anchor_power_gives_seven(self):
        res = run_scan(ScanSpec(kind="power_sweep", grid=tuple(np.linspace(0.0, 80.0, 17))))
        at_40 = np.where(res.x == 40.0)[0][0]
        assert res.columns["g_max"][at_40] == pytest.approx(7.0, rel=1e-12)

    def test_pure_squeezer_product_along_sweep(self):
        res = run_scan(ScanSpec(kind="power_sweep", grid=tuple(np.linspace(0.0, 80.0, 17))))
        product = res.columns["g_max"] * res.columns["g_min"]
        assert np.max(np.abs(product - 1.0)) <= 1e-6

    def test_monotone_growth(self):
        res = run_scan(ScanSpec(kind="power_sweep", grid=tuple(np.linspace(0.0, 80.0, 9))))
        assert np.all(np.diff(res.columns["g_max"]) > 0.0)
        assert np.all(np.diff(res.columns["g_min"]) < 0.0)


class TestPiaCompare:
    def test_zero_power_all_series_unity(self):
        res = run_scan(ScanSpec(kind="pia_compare", grid=(0.0, 40.0)))
        for name in ("g_max", "g_pia", "g_max_from_pia"):
            assert res.columns[name][0] == pytest.approx(1.0, abs=1e-5)

    def test_implied_matches_measured_maximum(self):
        res = run_scan(ScanSpec(kind="pia_compare", grid=tuple(np.linspace(0.0, 80.0, 9))))
        assert np.max(np.abs(res.columns["g_max_from_pia"] - res.columns["g_max"])) <= 1e-6

    def test_anchor_point_pia_value(self):
        res = run_scan(ScanSpec(kind="pia_compare", grid=(40.0,)))
        # g ~ (7 + 2 + 1/7)/4 at the anchor, modulo the small detuning loss
        assert res.columns["g_pia"][0] == pytest.approx((7.0 + 2.0 + 1.0 / 7.0) / 4.0, rel=1e-4)
        assert res.columns["g_max_from_pia"][0] == pytest.approx(7.0, rel=1e-6)

    def test_series_non_decreasing_in_power(self):
        res = run_scan(ScanSpec(kind="pia_compare", grid=tuple(np.linspace(0.0, 80.0, 9))))
        for name in ("g_max", "g_pia", "g_max_from_pia"):
            assert np.all(np.diff(res.columns[name]) >= -1e-12)


class TestDetuningSpectrum:
    SPEC = ScanSpec(
        kind="detuning_spectrum",
        grid=tuple(np.linspace(0.0, 3000.0, 151)),
        amplifier=AmplifierParams(pump_power=30.0, detuning=2.0),
    )

    def test_zero_detuning_is_pure_peak(self):
        res = run_scan(self.SPEC)
        assert res.columns["g_max"][0] == res.columns["g_max"].max()
        product = res.columns["g_max"][0] * res.columns["g_min"][0]
        assert product == pytest.approx(1.0, abs=1e-12)

    def test_reported_bandwidth_exceeds_200_khz(self):
        res = run_scan(self.SPEC)
        assert res.metadata["bandwidth_khz"] >= 200.0

    def test_gains_drop_far_from_resonance(self):
        res = run_scan(self.SPEC)
        g_max, g_min = res.columns["g_max"], res.columns["g_min"]
        assert g_max[-1] < 1.0
        assert g_min[-1] < 1.0
        assert g_max[-1] < g_max[0]
        assert g_min[-1] < g_min.max()

    def test_metadata_flags_phenomenological_model(self):
        res = run_scan(self.SPEC)
        assert "phenomenological" in res.metadata["detuning_model"]

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_beatnote_records_sample_every_detuning_at_the_base(self, sigma, monkeypatch):
        calls = []
        synthesize = sweeps.synthesize_block

        def recording(s_out, i_out, phases, delta, cfg, noise=None, out=None):
            calls.append((delta, cfg))
            return synthesize(s_out, i_out, phases, delta, cfg, noise, out)

        monkeypatch.setattr(sweeps, "synthesize_block", recording)
        spec = ScanSpec(kind="detuning_spectrum", grid=(10.0, 20.0, 30.0),
                        amplifier=AmplifierParams(pump_power=40.0),
                        detection=DetectionConfig(noise_sigma=sigma, rng_seed=4),
                        pipeline="full_beatnote")
        run_scan(spec)
        assert len(calls) == 2 * len(spec.grid)  # each point's fit and measured blocks
        for delta, cfg in calls:
            assert delta == spec.amplifier.detuning
            assert cfg is spec.detection


class TestTransferCurve:
    # includes the exact extremal phases 0 and -pi/2
    INCLUSIVE_GRID = tuple(np.linspace(-math.pi, math.pi, 513))

    def test_zero_squeezing_is_a_unit_gain_pass_through(self):
        # with the cell idle the pump-referenced output phase tracks the
        # scanned input phase linearly (slope -1) at unit gain
        res = run_scan(
            ScanSpec(kind="transfer_curve", grid=OFFSET_PHASES, amplifier=AmplifierParams(r=0.0))
        )
        assert np.allclose(res.columns["gain"], 1.0, atol=1e-12)
        assert np.allclose(res.columns["phi_out_unwrapped"], -res.x, atol=1e-9)

    def test_pure_case_gain_extremes(self):
        res = run_scan(
            ScanSpec(
                kind="transfer_curve", grid=self.INCLUSIVE_GRID, amplifier=AmplifierParams(r=R_53)
            )
        )
        assert res.columns["gain"].max() == pytest.approx(5.3, rel=1e-9)
        assert res.columns["gain"].min() == pytest.approx(0.1887, abs=1e-3)

    def test_mixed_case_lifts_gain_floor_and_steepens_phase(self):
        pure = run_scan(
            ScanSpec(kind="transfer_curve", grid=OFFSET_PHASES, amplifier=AmplifierParams(r=R_53))
        )
        mixed = run_scan(
            ScanSpec(
                kind="transfer_curve",
                grid=OFFSET_PHASES,
                amplifier=AmplifierParams(r=R_53),
                input_ratio=1.78,
            )
        )
        assert mixed.columns["gain"].min() > 1.0 / pure.columns["gain"].max()
        slope_pure = np.abs(np.gradient(pure.columns["phi_out_unwrapped"], pure.x))
        slope_mixed = np.abs(np.gradient(mixed.columns["phi_out_unwrapped"], mixed.x))
        plateau = np.abs(pure.x) <= math.pi / 4
        assert slope_mixed[plateau].max() > slope_pure[plateau].max()

    def test_unwrapped_phase_tracks_direct_evaluation(self):
        res = run_scan(
            ScanSpec(kind="transfer_curve", grid=OFFSET_PHASES, amplifier=AmplifierParams(r=R_53))
        )
        true = np.array([signal_phase_direct(d, R_53) for d in res.x])
        assert np.max(np.abs(res.columns["phi_out_unwrapped"] - true)) <= 0.02
        assert np.allclose(
            res.columns["phi_out_wrapped"],
            res.columns["phi_out_unwrapped"],
            atol=2 * math.pi + 1e-9,
        )


# Each kind's CSV header, x column first, in SCAN_KINDS order.
HEADERS = {
    "phase_scan": ["phi_in", "gain"],
    "power_sweep": ["power_mw", "g_max", "g_min", "inv_g_max"],
    "pia_compare": ["power_mw", "g_max", "g_pia", "g_max_from_pia"],
    "detuning_spectrum": ["delta_khz", "g_max", "g_min", "inv_g_max"],
    "transfer_curve": ["phi_in", "gain", "gain_idler", "cos_phi_out", "phi_out_wrapped",
                       "phi_out_unwrapped"],
}
METADATA_KEYS = {"kind", "x_name", "scan_spec", "master_seed", "version"}
BANDWIDTH_KEYS = {"bandwidth_khz", "bandwidth_tolerance", "detuning_model"}
# Small specs both pipelines accept.
SHAPE_SPECS = {
    "phase_scan": dict(grid=tuple(np.linspace(-math.pi, math.pi, 9)),
                       amplifier=AmplifierParams(r=0.5)),
    "power_sweep": dict(grid=(0.0, 40.0, 80.0)),
    "pia_compare": dict(grid=(0.0, 40.0, 80.0)),
    "detuning_spectrum": dict(grid=(0.0, 100.0, 1000.0),
                              amplifier=AmplifierParams(pump_power=30.0)),
    "transfer_curve": dict(grid=tuple(np.linspace(-math.pi, math.pi, 8, endpoint=False)),
                           amplifier=AmplifierParams(r=0.5)),
}


def test_scan_kinds_keep_their_order():
    assert sweeps.SCAN_KINDS == tuple(HEADERS)


@pytest.mark.parametrize("pipeline", sweeps.PIPELINES)
@pytest.mark.parametrize("kind", sweeps.SCAN_KINDS)
def test_every_kind_pins_its_header_and_metadata_keys(kind, pipeline):
    result = run_scan(ScanSpec(kind=kind, pipeline=pipeline, **SHAPE_SPECS[kind]))
    assert sweep_csv_bytes(result).decode("utf-8").splitlines()[0].split(",") == HEADERS[kind]
    keys = METADATA_KEYS | (BANDWIDTH_KEYS if kind == "detuning_spectrum" else set())
    assert set(result.metadata) == keys
    sidecar = json.loads(sweep_json_bytes(result))
    assert sidecar["columns"] == HEADERS[kind]
    assert set(sidecar) == keys | {"columns", "n_points"}
    assert sidecar["n_points"] == len(SHAPE_SPECS[kind]["grid"])


# Master seeds of noisy oracle runs: one 32-bit word, three (2**64 + 1), and five
# (2**130 + 5), whose fifth SeedSequence mixes in past its 4-word pool.
NOISY_SEEDS = (7, 2**64 + 1, 2**130 + 5)


class TestBeatnoteExtremumSearch:
    """The three-phase fitted search against a dense scan of the same gain.

    Real seeds put every extremum at pump phase 0 or pi/2; a rotated signal
    seed moves them off those, so only the roots of the fitted gain**2 can
    find them.  Work is counted in records (block rows) synthesized per seed
    stream at each grid point.
    """

    POWERS = (0.0, 25.0, 63.0)
    DENSE_PHASES = np.linspace(0.0, math.pi, 2048, endpoint=False)
    OVERRIDES = pytest.mark.parametrize(
        "overrides",
        [{}, {"input_ratio": 1.78}]
        + [{"detection": DetectionConfig(noise_sigma=0.2, rng_seed=seed)} for seed in NOISY_SEEDS],
        ids=["equal_seeds", "mixed_seeds", "noisy", "noisy_seed_2^64+1", "noisy_seed_2^130+5"],
    )
    SIGNAL_PHASES = pytest.mark.parametrize(
        "signal_phase", [0.0, 0.37], ids=["real_seeds", "rotated_signal"]
    )

    @staticmethod
    def spec_with_signal(overrides, signal_phase, monkeypatch):
        spec = ScanSpec(
            kind="power_sweep", grid=TestBeatnoteExtremumSearch.POWERS,
            pipeline="full_beatnote", **overrides
        )
        idler = complex(1.0 / math.sqrt(spec.input_ratio))
        signal = cmath.rect(1.0, signal_phase)
        monkeypatch.setattr(ScanSpec, "input_fields", lambda self: (signal, idler))
        return spec, signal, idler

    @staticmethod
    def count_rows(monkeypatch, calls=None) -> list[dict]:
        """Records synthesized per seed stream, one entry per ``gain_extrema`` call (one per
        grid point); ``calls``, if given, gets the blocks synthesized in each."""
        counts = Counter()
        peaks = sweeps._BeatnotePipeline.peaks

        def counting(pipe, s_out, i_out, phases, stream, points):
            if len(phases) <= sweeps.RECORD_BLOCK:  # one block; a longer call splits
                for row_stream in np.broadcast_to(stream, len(phases)):
                    counts["off" if row_stream == CELL_OFF else "gain"] += 1
                counts["calls"] += 1
            return peaks(pipe, s_out, i_out, phases, stream, points)

        monkeypatch.setattr(sweeps._BeatnotePipeline, "peaks", counting)
        measured = sweeps._BeatnotePipeline.gain_extrema
        per_point = []

        def recorded(pipe, *args, **kwargs):
            before = Counter(counts)
            result = measured(pipe, *args, **kwargs)
            per_point.append({name: counts[name] - before[name] for name in ("off", "gain")})
            if calls is not None:
                calls.append(counts["calls"] - before["calls"])
            return result

        monkeypatch.setattr(sweeps._BeatnotePipeline, "gain_extrema", recorded)
        return per_point

    @SIGNAL_PHASES
    @OVERRIDES
    def test_three_fit_rows_plus_two_per_point(self, overrides, signal_phase, monkeypatch):
        spec, _, _ = self.spec_with_signal(overrides, signal_phase, monkeypatch)
        per_point = self.count_rows(monkeypatch)
        run_scan(spec)
        # At 0 mW the fitted phase terms vanish and no roots are sought.
        assert per_point == [{"off": 1, "gain": 3}, {"off": 1, "gain": 5}, {"off": 1, "gain": 5}]

    @SIGNAL_PHASES
    @OVERRIDES
    def test_two_block_calls_per_point(self, overrides, signal_phase, monkeypatch):
        spec, _, _ = self.spec_with_signal(overrides, signal_phase, monkeypatch)
        calls = []
        self.count_rows(monkeypatch, calls=calls)
        run_scan(spec)
        # The cell-off row leads the fit block; at 0 mW no extremum is measured again.
        assert calls == [1, 2, 2]

    @OVERRIDES
    def test_pia_rows_ride_in_the_fit_block(self, overrides, monkeypatch):
        spec = ScanSpec(kind="pia_compare", grid=self.POWERS, pipeline="full_beatnote", **overrides)
        calls = []
        per_point = self.count_rows(monkeypatch, calls)
        run_scan(spec)
        # The fit block gains the PIA on-row and its cell-off row; a flat point reads it alone.
        assert per_point == [{"off": 2, "gain": 4}, {"off": 2, "gain": 6}, {"off": 2, "gain": 6}]
        assert calls == [1, 2, 2]

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_fit_block_rho_equals_a_standalone_pia_block(self, sigma):
        detection = DetectionConfig(noise_sigma=sigma, rng_seed=11)
        spec = ScanSpec(kind="pia_compare", grid=self.POWERS, pipeline="full_beatnote",
                        detection=detection)
        pipe = sweeps._BeatnotePipeline(spec)
        for index, (r, loss, _) in enumerate(spec.operating_points()):
            s_out, i_out = pipe._outputs(r, loss, (0.0,), 0j)
            _, on_off, _ = pipe.peaks(np.append(s_out, pipe.a_s), np.append(i_out, 0j),
                                      (0.0, 0.0), np.array([CELL_ON, CELL_OFF]), index)
            assert pipe.gain_extrema(r, loss, index)[2] == abs(on_off[0]) / abs(on_off[1])

    @pytest.mark.parametrize("kind", ["power_sweep", "pia_compare", "detuning_spectrum"])
    def test_noisy_point_draws_each_row_once(self, kind, monkeypatch):
        """Each grid index draws its cell-on and cell-off rows once, and each of its
        blocks reads them: numpy's draws under that index's seed, none of another's."""
        sigma, seed = 0.05, 7
        drawn, blocks = [], []
        draw, synthesize = sweeps._standard_normals, sweeps.synthesize_block

        def counting(words, cfg):
            rows = np.reshape(words, (-1, 4))
            drawn.append((len(rows), len({row.tobytes() for row in rows})))
            return draw(words, cfg)

        def recording(s_out, i_out, phases, delta, cfg, noise, out):
            blocks.append(np.broadcast_to(noise, (len(phases), cfg.n_samples)).copy())
            return synthesize(s_out, i_out, phases, delta, cfg, noise, out)

        monkeypatch.setattr(sweeps, "_standard_normals", counting)
        monkeypatch.setattr(sweeps, "synthesize_block", recording)
        detection = DetectionConfig(noise_sigma=sigma, rng_seed=seed)
        if kind == "detuning_spectrum":
            spec = ScanSpec(kind=kind, grid=(10.0, 20.0, 30.0), pipeline="full_beatnote",
                            amplifier=AmplifierParams(pump_power=40.0), detection=detection)
        else:
            spec = ScanSpec(kind=kind, grid=(25.0, 40.0, 63.0), pipeline="full_beatnote",
                            detection=detection)
        run_scan(spec)
        assert drawn == [(2, 2)] * len(spec.grid)  # one cell-on and one cell-off row a point
        fit_rows = 6 if kind == "pia_compare" else 4
        assert [len(rows) for rows in blocks] == [fit_rows, 2] * len(spec.grid)
        for j, rows in enumerate(blocks):  # each point's fit block, then its measured block
            k, measured = divmod(j, 2)
            streams = [CELL_ON] * 2 if measured else sweeps._FIT_BLOCK_STREAMS[:fit_rows]
            for row, stream in zip(rows, streams):
                entropy = np.random.SeedSequence(point_seed(seed, k), spawn_key=(stream,))
                expected = np.random.default_rng(entropy).normal(0.0, sigma, row.size)
                assert np.array_equal(row, expected)

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("seed", range(4))
    def test_on_peak_is_affine_in_z_and_its_conjugate(self, seed, sigma):
        """The search's premise: one grid index's 2*delta on-peaks, noise included,
        are A + B*z + C*conj(z) with z = exp(2j*phi_p), fixed by the three fit phases."""
        rng = np.random.default_rng(seed)
        r, loss = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.3, 1.0))
        spec = ScanSpec(
            kind="power_sweep", grid=self.POWERS, pipeline="full_beatnote",
            input_ratio=float(rng.uniform(0.3, 3.0)),
            detection=DetectionConfig(noise_sigma=sigma, rng_seed=int(rng.integers(2**32))),
        )
        pipe = sweeps._BeatnotePipeline(spec)
        index = int(rng.integers(len(self.POWERS)))

        def on_peaks(phases):
            s_out, i_out = pipe._outputs(r, loss, sweeps.wrap_phase(phases), pipe.a_i)
            dc, _, on = pipe.peaks(s_out, i_out, phases, CELL_ON, index)
            return dc, on

        def terms(phases):
            z = np.exp(2j * np.asarray(phases))
            return np.stack([np.ones_like(z), z, z.conjugate()], axis=-1)

        fit_phases = np.arange(3) * (math.pi / 3.0)
        coefficients = np.linalg.solve(terms(fit_phases), on_peaks(fit_phases)[1])
        phases = rng.uniform(-math.pi, math.pi, 6)
        dc, on = on_peaks(phases)
        np.testing.assert_allclose(on, terms(phases) @ coefficients, rtol=0.0,
                                   atol=1e-12 * np.abs(dc).max())

    @SIGNAL_PHASES
    @OVERRIDES
    def test_matches_dense_grid_with_bounded_work(self, overrides, signal_phase, monkeypatch):
        spec, signal, idler = self.spec_with_signal(overrides, signal_phase, monkeypatch)
        per_point = self.count_rows(monkeypatch)
        res = run_scan(spec)
        assert len(per_point) == len(self.POWERS)
        for work in per_point:
            assert work["off"] == 1
            assert work["gain"] <= 40

        delta = spec.amplifier.detuning
        for idx, power in enumerate(self.POWERS):
            r, loss = effective_r(power, delta, spec.calibration)
            # The single-record path, with the search's per-point seed.
            cfg = replace(spec.detection, rng_seed=point_seed(spec.detection.rng_seed, idx))
            off = cell_off_record(signal, idler, 0.0, delta, cfg)
            dense = []
            for p in self.DENSE_PHASES:
                amp = AmplifierParams(r=r, pump_phase=p, detuning=delta)
                s_out, i_out = (z * math.sqrt(loss) for z in evolve_two_mode(signal, idler, amp))
                on = synthesize_beatnote(s_out, i_out, p, delta, cfg)
                dense.append(extract_gain(on, off))
            g_max, g_min = res.columns["g_max"][idx], res.columns["g_min"][idx]
            assert g_max >= max(dense) - 1e-12 * g_max
            assert g_min <= min(dense) + 1e-12


class TestPeakSeam:
    """The pipelines differ only in ``peaks``; the measured chain above it is shared."""

    def test_pipelines_define_only_their_seam(self):
        def own(cls):
            return {name for name in vars(cls) if not name.startswith("__")}

        assert own(sweeps._BeatnotePipeline) == {"peaks"}
        assert own(sweeps._ModelPipeline) == {"peaks", "gain_extrema"}

    @pytest.mark.parametrize("seed", range(6))
    def test_model_peaks_equal_read_records(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, sweeps.RECORD_BLOCK + 1))
        delta = float(rng.uniform(0.5, 50.0))
        per_period, periods = int(rng.integers(20, 49)), int(rng.integers(4, 13))
        detection = DetectionConfig(
            sample_rate=per_period * delta,
            n_samples=per_period * periods,
            residual_pump_intensity=float(rng.uniform(0.05, 2.0)),
        )
        spec = phase_spec(amplifier=AmplifierParams(r=R_53, detuning=delta), detection=detection)
        s_out, i_out = (rng.normal(0.0, 2.0, rows) + 1j * rng.normal(0.0, 2.0, rows) for _ in "si")
        phases = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, rows)

        model = sweeps._ModelPipeline(spec).peaks(s_out, i_out, phases, CELL_ON, 0)
        block = synthesize_block(s_out, i_out, phases, delta, detection)
        read = block_peaks(block, detection.sample_rate, delta)
        scale = (math.sqrt(detection.residual_pump_intensity) + np.abs(s_out) + np.abs(i_out)) ** 2
        for name, a, b in zip(("dc", "at_delta", "at_two_delta"), model, read):
            assert np.all(np.abs(a - b) <= 1e-12 * scale), name

    def test_each_point_derives_its_seed_once_per_run(self, monkeypatch):
        derived = Counter()
        seed = sweeps.point_seed

        def counting(master, k):
            derived.update(np.ravel(k).tolist())  # an index array counts each index
            return seed(master, k)

        monkeypatch.setattr(sweeps, "point_seed", counting)
        detection = DetectionConfig(noise_sigma=0.05, rng_seed=3)
        for spec in (
            ScanSpec(kind="pia_compare", grid=(0.0, 40.0, 80.0), detection=detection,
                     pipeline="full_beatnote"),
            phase_spec(detection=detection, pipeline="full_beatnote"),
        ):
            derived.clear()
            run_scan(spec)
            assert derived == Counter(range(len(spec.grid)))

    @pytest.mark.parametrize("ratio", [1.0, 1.78, 0.3])
    def test_measured_route_matches_closed_forms(self, ratio):
        # The shared estimator, run on closed-form peaks: no record is synthesized.
        spec = ScanSpec(kind="pia_compare", grid=(0.0, 80.0), input_ratio=ratio)
        pipe = sweeps._ModelPipeline(spec)
        for index, power in enumerate((0.0, 5.0, 30.0, 80.0)):
            for delta in (2.0, 140.0):
                point = (*effective_r(power, delta, spec.calibration), index)
                *measured, rho = sweeps._Pipeline.gain_extrema(pipe, *point)
                *exact, exact_rho = pipe.gain_extrema(*point)
                assert measured == pytest.approx(exact, rel=1e-12, abs=0.0)
                assert rho == pytest.approx(exact_rho, rel=1e-12, abs=0.0)


class TestPipelineEquivalence:
    """model_exact and noiseless full_beatnote agree on every series."""

    CASES = [
        ScanSpec(
            kind="phase_scan",
            grid=tuple(np.linspace(-math.pi, math.pi, 9)),
            amplifier=AmplifierParams(r=1.0),
        ),
        ScanSpec(kind="power_sweep", grid=(0.0, 25.0, 40.0)),
        ScanSpec(kind="pia_compare", grid=(5.0, 40.0)),
        ScanSpec(
            kind="detuning_spectrum",
            grid=(2.0, 100.0, 400.0),
            amplifier=AmplifierParams(pump_power=30.0, detuning=2.0),
        ),
        ScanSpec(
            kind="transfer_curve",
            grid=tuple(np.linspace(-math.pi, math.pi, 32, endpoint=False) + math.pi / 32),
            amplifier=AmplifierParams(r=R_53),
        ),
    ]

    # At its base detuning this config samples 20 points a period, exactly at the Nyquist
    # margin, and every grid detuning is read with it.
    AT_MARGIN = ScanSpec(
        kind="detuning_spectrum",
        grid=(1.0, 2.0),
        amplifier=AmplifierParams(pump_power=30.0, detuning=7.3282047476203935),
        detection=DetectionConfig(sample_rate=146.56409495240786, n_samples=80),
    )

    @pytest.mark.parametrize("spec", [*CASES, AT_MARGIN],
                             ids=[*(s.kind for s in CASES), "spectrum_at_nyquist_margin"])
    def test_equivalence(self, spec):
        model = run_scan(spec)
        beat = run_scan(replace(spec, pipeline="full_beatnote"))
        for name in model.columns:
            a, b = model.columns[name], beat.columns[name]
            scale = max(np.max(np.abs(a)), 1e-30)
            assert np.max(np.abs(a - b)) <= 1e-8 * scale, name


class TestBlockedScans:
    """Scans run RECORD_BLOCK points at a time; each point keeps its own records."""

    @staticmethod
    def assert_rows_match_single_records(spec, seed):
        res = run_scan(spec)
        for idx, phase in enumerate(spec.grid):
            cfg = replace(spec.detection, rng_seed=point_seed(seed, idx))
            amp = AmplifierParams(r=R_53, pump_phase=phase, detuning=2.0)
            on = synthesize_beatnote(*evolve_two_mode(1.0, 1.0, amp), phase, 2.0, cfg)
            gain = extract_gain(on, cell_off_record(1.0, 1.0, phase, 2.0, cfg))
            assert res.columns["gain"][idx] == pytest.approx(gain, rel=1e-12)
            if spec.kind == "transfer_curve":
                cos_out = extract_cos_phase(on, 0.25, gain, 1.0, clamp_tol=1.0)
                got = res.columns["cos_phi_out"][idx]
                assert got == pytest.approx(cos_out, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "sigma, seed",
        [(0.0, 19), (0.1, 19), (0.1, 2**64 + 1), (0.1, 2**130 + 5)],
        ids=["noiseless", "noisy", "noisy_seed_2^64+1", "noisy_seed_2^130+5"],
    )
    def test_transfer_rows_match_single_records(self, sigma, seed):
        grid = tuple(np.linspace(-math.pi, math.pi, 2 * sweeps.RECORD_BLOCK + 3, endpoint=False))
        spec = ScanSpec(
            kind="transfer_curve",
            grid=grid,
            amplifier=AmplifierParams(r=R_53),
            detection=DetectionConfig(noise_sigma=sigma, rng_seed=seed),
            pipeline="full_beatnote",
        )
        self.assert_rows_match_single_records(spec, seed)

    # Grids at the block edges: one full block, a full block then a 1-row block in the same
    # planes, and a descending grid whose last block is partial.
    GRIDS = {
        "one_block": np.linspace(-math.pi, math.pi, sweeps.RECORD_BLOCK),
        "block_plus_one": np.linspace(-math.pi, math.pi, sweeps.RECORD_BLOCK + 1),
        "descending": np.linspace(math.pi, -math.pi, 2 * sweeps.RECORD_BLOCK + 5),
    }

    @pytest.mark.parametrize("sigma", [0.0, 0.1], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("kind", ["phase_scan", "transfer_curve"])
    def test_rows_at_block_edges_match_single_records(self, kind, grid, sigma):
        spec = ScanSpec(
            kind=kind,
            grid=tuple(grid),
            amplifier=AmplifierParams(r=R_53),
            detection=DetectionConfig(noise_sigma=sigma, rng_seed=23),
            pipeline="full_beatnote",
        )
        self.assert_rows_match_single_records(spec, 23)

    @pytest.mark.parametrize("sigma", [0.0, 0.1], ids=["noiseless", "noisy"])
    def test_each_worker_synthesizes_its_blocks_into_its_own_planes(self, sigma, monkeypatch):
        blocks = []
        caller = threading.get_ident()
        synthesize = sweeps.synthesize_block

        def recording(s_out, i_out, phases, delta, cfg, noise=None, out=None):
            addresses = tuple(plane.__array_interface__["data"][0] for plane in out)
            worker = 0 if threading.get_ident() == caller else 1
            blocks.append((worker, len(phases), addresses, out.base))
            return synthesize(s_out, i_out, phases, delta, cfg, noise, out)

        monkeypatch.setattr(sweeps, "synthesize_block", recording)
        detection = DetectionConfig(noise_sigma=sigma, rng_seed=5)
        block, workers = sweeps.RECORD_BLOCK, 2 if sigma else 1
        # A phase grid's on-rows, then its off-rows, as blocks 0-3 each: worker j mod workers
        # takes block j.  Per extremum point its two blocks, on a run's one worker.
        grid = tuple(np.linspace(-math.pi, math.pi, 3 * block + 1))
        scan_rows = {0: [block, block, block, 1] * 2} if workers == 1 else {
            0: [block, block] * 2, 1: [block, 1] * 2}
        runs = [
            (phase_spec(grid=grid), scan_rows),
            (ScanSpec(kind="power_sweep", grid=(10.0, 40.0)), {0: [4, 2, 4, 2]}),
            (ScanSpec(kind="pia_compare", grid=(10.0, 40.0)), {0: [6, 2, 6, 2]}),
        ]
        for spec, rows in runs:
            blocks.clear()
            run_scan(replace(spec, detection=detection, pipeline="full_beatnote"))
            by_worker = {w: [b for b in blocks if b[0] == w] for w in rows}
            assert {w: [n for _, n, _, _ in b] for w, b in by_worker.items()} == rows, spec.kind
            planes = [{addresses for _, _, addresses, _ in b} for b in by_worker.values()]
            assert [len(p) for p in planes] == [1] * len(rows), spec.kind  # reused, per worker
            assert len(set().union(*planes)) == len(rows), spec.kind  # one pair each
            base = blocks[0][3]  # allocated once per run, as one array
            assert all(b is base for _, _, _, b in blocks), spec.kind
            assert base.shape == (len(rows), 2, block, detection.n_samples), spec.kind


def _force_workers(workers, monkeypatch):
    """Give every full_beatnote run ``workers`` workers' synthesis planes."""
    monkeypatch.setattr(sweeps, "_synthesis_planes", lambda spec: np.empty(
        (workers, 2, sweeps.RECORD_BLOCK, spec.detection.n_samples)))


def _worker_scan(kind, n, workers, monkeypatch, seed=29):
    """A noisy full_beatnote scan of ``n`` points whose blocks go to ``workers`` workers."""
    _force_workers(workers, monkeypatch)
    grid = tuple(np.linspace(-math.pi, math.pi, n)) if n > 1 else (0.3,)
    return run_scan(ScanSpec(kind=kind, grid=grid, amplifier=AmplifierParams(r=R_53),
                             detection=DetectionConfig(noise_sigma=0.05, rng_seed=seed),
                             pipeline="full_beatnote"))


class TestBlockWorkers:
    """A noisy scan splits its blocks between the calling thread and one helper thread,
    joined in the call; every row keeps its seed words, so no output bit moves."""

    # A phase scan spans 2*pi, so it has no 1-point grid.
    @pytest.mark.parametrize(
        "kind, n",
        [("transfer_curve", 1)]
        + [(kind, n) for kind in ("phase_scan", "transfer_curve")
           for n in (31, 32, 33, 64, 65, 257)],
    )
    def test_one_and_two_workers_give_the_same_bytes(self, kind, n, monkeypatch):
        one = _worker_scan(kind, n, 1, monkeypatch)
        two = _worker_scan(kind, n, 2, monkeypatch)
        assert one.columns.keys() == two.columns.keys()
        for name, column in one.columns.items():
            assert np.array_equal(column, two.columns[name]), name
        again = _worker_scan(kind, n, 2, monkeypatch)
        assert sweep_csv_bytes(again) == sweep_csv_bytes(two) == sweep_csv_bytes(one)
        assert sweep_json_bytes(again) == sweep_json_bytes(two)

    def test_workers_switching_every_microsecond_give_the_same_bytes(self, monkeypatch):
        one = _worker_scan("transfer_curve", 257, 1, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads interleave as finely as they can
        try:
            two = _worker_scan("transfer_curve", 257, 2, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert sweep_csv_bytes(two) == sweep_csv_bytes(one)

    GRID_POINTS = 3 * sweeps.RECORD_BLOCK + 5  # blocks 0-3, the last one partial

    @pytest.mark.parametrize("failing", [0, 1, 3], ids=["block_0", "block_1", "last_block"])
    def test_a_failing_block_raises_the_serial_error(self, failing, monkeypatch):
        grid = np.linspace(-math.pi, math.pi, self.GRID_POINTS)
        synthesize = sweeps.synthesize_block

        def failing_from(s_out, i_out, phases, delta, cfg, noise=None, out=None):
            j = int(np.flatnonzero(grid == phases[0])[0]) // sweeps.RECORD_BLOCK
            if j >= failing:  # this block and every later one, so both workers fail
                raise DomainError(f"block {j}")
            return synthesize(s_out, i_out, phases, delta, cfg, noise, out)

        monkeypatch.setattr(sweeps, "synthesize_block", failing_from)
        threads = threading.active_count()
        errors = []
        for workers in (1, 2):
            with pytest.raises(DomainError) as info:
                _worker_scan("phase_scan", self.GRID_POINTS, workers, monkeypatch)
            errors.append(str(info.value))
            assert threading.active_count() == threads
        assert errors == [f"block {failing}"] * 2

    def test_the_helper_runs_under_the_callers_errstate_and_ends_with_the_run(self, monkeypatch):
        calls = []
        synthesize = sweeps.synthesize_block

        def recording(*args):
            calls.append((threading.get_ident(), np.geterr()["over"]))
            return synthesize(*args)

        monkeypatch.setattr(sweeps, "synthesize_block", recording)
        threads = threading.active_count()
        with np.errstate(over="raise"):
            _worker_scan("transfer_curve", self.GRID_POINTS, 2, monkeypatch)
        assert threading.active_count() == threads
        assert len({ident for ident, _ in calls}) > 1  # a helper took some blocks
        assert {over for _, over in calls} == {"raise"}

    @pytest.mark.parametrize("sigma, workers", [(0.0, None), (0.05, 1)],
                             ids=["noiseless", "one_worker"])
    def test_serial_runs_start_no_thread(self, sigma, workers, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a serial run started a thread")

        if workers is not None:  # a noisy scan's blocks forced onto the serial loop
            _force_workers(workers, monkeypatch)
        monkeypatch.setattr(threading, "Thread", no_thread)
        spec = replace(phase_spec(grid=tuple(np.linspace(-math.pi, math.pi, self.GRID_POINTS))),
                       detection=DetectionConfig(noise_sigma=sigma, rng_seed=3),
                       pipeline="full_beatnote")
        assert run_scan(spec).columns["gain"].size == self.GRID_POINTS


@st.composite
def agreement_cases(draw):
    """Equal-seed operating points whose records meet the Nyquist and integer-period rules."""
    delta = draw(st.floats(0.5, 50.0))
    per_period = draw(st.integers(20, 48))
    periods = draw(st.integers(4, 12))
    block = sweeps.RECORD_BLOCK
    low_power = draw(st.floats(0.0, 40.0))
    # pia_compare stays at >= 1 mW: at 0 mW g_pia - 1 is a last-bit residue,
    # which the sqrt(g - 1) in g_max_from_pia amplifies to ~4.4e-9.
    low_pia = draw(st.floats(1.0, 40.0))
    low_delta = draw(st.floats(0.0, 400.0))
    return {
        "delta": delta,
        "detection": DetectionConfig(
            sample_rate=per_period * delta,
            n_samples=per_period * periods,
            residual_pump_intensity=draw(st.floats(0.05, 2.0)),
        ),
        "r": draw(st.floats(0.0, 1.2)),
        "n_grid": draw(
            st.one_of(
                st.sampled_from([1, block, block + 1]),
                st.integers(2, 3 * block).filter(lambda n: n % block),
            )
        ),
        "offset": draw(st.floats(0.0, 1.0)),
        "order": draw(st.sampled_from([1, -1])),  # grids ascending or descending
        # Phase grids driven by pump power through the calibration map instead of r.
        "pump_power": draw(st.one_of(st.none(), st.floats(0.0, 80.0))),
        "powers": (low_power, draw(st.floats(low_power + 1.0, 80.0))),
        "pia_powers": (low_pia, draw(st.floats(low_pia + 1.0, 80.0))),
        "input_ratio": draw(st.floats(0.2, 5.0)),
        # Records are sampled at the base detuning whatever the grid, so any delta >= 0 is valid.
        "deltas": (low_delta, draw(st.floats(low_delta + 1.0, 1000.0))),
    }


def assert_pipelines_agree(spec):
    model = run_scan(spec)
    beat = run_scan(replace(spec, pipeline="full_beatnote"))
    for name, expected in model.columns.items():
        difference = beat.columns[name] - expected
        if name == "phi_out_wrapped":
            difference = (difference + math.pi) % (2.0 * math.pi) - math.pi
        assert np.max(np.abs(difference) / np.maximum(np.abs(expected), 1.0)) <= 1e-9, name


class TestPipelineAgreementProperty:
    """Noiseless model_exact and full_beatnote agree over random valid specs."""

    @settings(max_examples=60)
    @given(agreement_cases())
    def test_scans_and_power_sweep_agree(self, case):
        n_grid, detection = case["n_grid"], case["detection"]
        if case["pump_power"] is None:
            amplifier = AmplifierParams(r=case["r"], detuning=case["delta"])
        else:
            amplifier = AmplifierParams(pump_power=case["pump_power"], detuning=case["delta"])
        order = case["order"]
        # Keep transfer points off the plateau centres (multiples of pi),
        # where acos turns last-bit cosine differences into ~1e-8 rad.
        transfer_grid = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
        transfer_grid += case["offset"] * 2.0 * math.pi / n_grid
        assume(np.min(dist_to_half_turns(transfer_grid)) >= 0.01)
        assert_pipelines_agree(ScanSpec(
            kind="transfer_curve", grid=tuple(transfer_grid[::order]), amplifier=amplifier,
            detection=detection,
        ))
        if n_grid > 1:  # a phase scan must span 2*pi
            assert_pipelines_agree(ScanSpec(
                kind="phase_scan", grid=tuple(np.linspace(-math.pi, math.pi, n_grid)[::order]),
                amplifier=amplifier, detection=detection,
            ))
        assert_pipelines_agree(ScanSpec(
            kind="power_sweep", grid=case["powers"][::order],
            amplifier=AmplifierParams(detuning=case["delta"]), detection=detection,
            input_ratio=case["input_ratio"],
        ))

    @settings(max_examples=40)
    @given(agreement_cases())
    def test_pia_compare_and_spectrum_agree(self, case):
        detection, order = case["detection"], case["order"]
        assert_pipelines_agree(ScanSpec(
            kind="pia_compare", grid=case["pia_powers"][::order],
            amplifier=AmplifierParams(detuning=case["delta"]), detection=detection,
            input_ratio=case["input_ratio"],
        ))
        assert_pipelines_agree(ScanSpec(
            kind="detuning_spectrum", grid=case["deltas"][::order],
            amplifier=AmplifierParams(pump_power=case["pia_powers"][1], detuning=case["delta"]),
            detection=detection, input_ratio=case["input_ratio"],
        ))


class TestNoisyTransfer:
    def test_noisy_pure_transfer_stays_on_the_unit_circle(self):
        # Hundreds of plateau points sit at |cos| ~ 1, so the clamp must
        # allow for the propagated bin noise on every seed.  Seeds 705, 706
        # and 854 overshot a clamp that propagated the delta bin's noise alone.
        grid = tuple(np.linspace(-math.pi, math.pi, 512, endpoint=False))
        for seed in [*range(12), 705, 706, 854]:
            spec = ScanSpec(
                kind="transfer_curve",
                grid=grid,
                amplifier=AmplifierParams(r=R_53, detuning=2.0),
                detection=DetectionConfig(noise_sigma=0.05, rng_seed=seed),
                pipeline="full_beatnote",
            )
            cosines = run_scan(spec).columns["cos_phi_out"]
            assert np.all(np.abs(cosines) <= 1.0), seed

    @pytest.mark.parametrize("sigma", [0.01, 0.05])
    def test_noisy_curve_follows_the_noiseless_one(self, sigma):
        # Plateau noise once mirrored the rest of a trend-continued scan;
        # each point's branch now comes from its own input phase.
        spec = ScanSpec(
            kind="transfer_curve",
            grid=tuple(np.linspace(-math.pi, math.pi, 128, endpoint=False)),
            amplifier=AmplifierParams(r=R_53, detuning=2.0),
            pipeline="full_beatnote",
        )
        clean = run_scan(spec).columns["phi_out_unwrapped"]
        for seed in range(50):
            noisy = replace(spec, detection=DetectionConfig(noise_sigma=sigma, rng_seed=seed))
            phases = run_scan(noisy).columns["phi_out_unwrapped"]
            assert np.max(np.abs(phases - clean)) <= 0.2, seed


class TestReproducibility:
    NOISY = ScanSpec(
        kind="power_sweep",
        grid=(10.0, 40.0),
        detection=DetectionConfig(noise_sigma=0.05, rng_seed=77),
        pipeline="full_beatnote",
    )

    def test_identical_seed_identical_bytes(self):
        first = run_scan(self.NOISY)
        second = run_scan(self.NOISY)
        assert sweep_csv_bytes(first) == sweep_csv_bytes(second)
        assert sweep_json_bytes(first) == sweep_json_bytes(second)

    def test_different_seed_differs(self):
        other = replace(
            self.NOISY, detection=replace(self.NOISY.detection, rng_seed=78)
        )
        assert sweep_csv_bytes(run_scan(self.NOISY)) != sweep_csv_bytes(run_scan(other))

    def test_point_seeds_are_stable_and_distinct(self):
        seeds = [point_seed(77, i) for i in range(16)]
        assert seeds == [point_seed(77, i) for i in range(16)]
        assert len(set(seeds)) == 16

    @pytest.mark.parametrize("seed", range(3))
    def test_spec_echo_is_asdict_and_a_copy(self, seed):
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_campaigns.py"
        module_spec = importlib.util.spec_from_file_location("run_campaigns", path)
        campaigns = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(campaigns)
        rng = np.random.default_rng(seed)
        detection = DetectionConfig(noise_sigma=float(rng.uniform(0.0, 0.3)),
                                    rng_seed=int(rng.integers(2**32)))
        specs = [
            *campaigns.campaign_specs(seed, "full_beatnote").values(),
            ScanSpec(kind="power_sweep", grid=tuple(np.sort(rng.uniform(0.0, 80.0, 5))),
                     calibration=CalibrationMap(mode="linear", slope=float(rng.uniform(0.001, 0.02))),
                     detection=detection, input_ratio=float(rng.uniform(0.3, 3.0))),
            phase_spec(amplifier=AmplifierParams(r=float(rng.uniform(0.0, 1.5)),
                                                 pump_phase=float(rng.uniform(-3.0, 3.0))),
                       detection=detection, pipeline="full_beatnote"),
        ]
        for spec in specs:
            expected, echo = asdict(spec), spec.as_dict()
            assert echo == expected
            assert json.dumps(echo) == json.dumps(expected)  # key order too
            for section in ("amplifier", "calibration", "detection"):
                echo[section].clear()
            assert asdict(spec) == expected

    def test_metadata_echoes_spec_and_version(self):
        res = run_scan(self.NOISY)
        assert res.metadata["master_seed"] == 77
        assert res.metadata["scan_spec"]["kind"] == "power_sweep"
        assert res.metadata["scan_spec"]["detection"]["noise_sigma"] == 0.05
        assert res.metadata["version"]
