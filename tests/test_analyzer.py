"""Spectral peak readout, gain/phase extraction and phase reconstruction."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psalab import (
    BeatnoteRecord,
    DetectionConfig,
    DomainError,
    cell_off_record,
    extract_cos_phase,
    extract_gain,
    phase_histogram,
    spectrum_peaks,
    synthesize_beatnote,
    unwrap_cos_scan,
    wrap_phase,
)

from psalab.analyzer import DEFAULT_CLAMP_TOL, block_peaks, cos_readout, gain_ratio
from psalab.cli import main
from psalab.serialize import record_to_binary

from conftest import dist_to_half_turns, signal_phase_direct

DELTA = 2.0
CFG = DetectionConfig()  # 100 kHz, 2000 samples, noiseless, I_p = 0.25


def tone_record(dc=0.0, a1=0.0, th1=0.0, a2=0.0, th2=0.0, cfg=CFG, delta=DELTA):
    """Build a record directly from tone coefficients (bypasses synthesis)."""
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    w = 2.0 * math.pi * delta * t
    samples = dc + a1 * np.cos(w + th1) + a2 * np.cos(2.0 * w + th2)
    return BeatnoteRecord(samples, delta, cfg)


def equal_seed_pair(gain, dphi_out, cfg=CFG, delta=DELTA):
    amp = cmath.rect(math.sqrt(gain), dphi_out)
    on = synthesize_beatnote(amp, amp, 0.0, delta, cfg)
    off = cell_off_record(complex(1.0), complex(1.0), 0.0, delta, cfg)
    return on, off


class TestSpectrumPeaks:
    def test_constant_trace(self):
        dc, at_delta, at_two_delta = spectrum_peaks(tone_record(dc=3.25))
        assert dc == pytest.approx(3.25, rel=1e-14)
        assert abs(at_delta) == pytest.approx(0.0, abs=1e-12)
        assert abs(at_two_delta) == pytest.approx(0.0, abs=1e-12)

    def test_bin_resolution(self, tmp_path, capsys):
        # The resolution is reported by `psalab analyze`, beside the peaks.
        path = record_to_binary(tone_record(dc=1.0), tmp_path / "tone.bin")
        assert main(["analyze", str(path)]) == 0
        bin_resolution = json.loads(capsys.readouterr().out)["bin_resolution_khz"]
        assert bin_resolution == pytest.approx(CFG.sample_rate / CFG.n_samples, rel=1e-15)

    def test_reads_amplitude_and_phase_on_bin(self):
        dc, at_delta, at_two_delta = spectrum_peaks(
            tone_record(dc=2.0, a1=0.5, th1=0.8, a2=2.0, th2=-1.1)
        )
        assert dc == pytest.approx(2.0, rel=1e-12)
        assert abs(at_delta) == pytest.approx(0.5, rel=1e-10)
        assert math.atan2(at_delta.imag, at_delta.real) == pytest.approx(0.8, abs=1e-10)
        assert abs(at_two_delta) == pytest.approx(2.0, rel=1e-10)
        assert math.atan2(at_two_delta.imag, at_two_delta.real) == pytest.approx(
            -1.1, abs=1e-10
        )

    def test_negative_delta_tone_is_signed_real(self):
        # a pure cos(w t + pi) tone reads as a real negative amplitude
        a1 = 4.0 * math.sqrt(0.25 * 4.0 * 1.0)
        _, at_delta, _ = spectrum_peaks(tone_record(dc=1.0, a1=a1, th1=math.pi))
        assert at_delta.real == pytest.approx(-a1, rel=1e-10)
        assert abs(at_delta.imag) <= 1e-9

    @pytest.mark.parametrize(
        "n, k1",
        [(2000, 40), (64, 3), (1001, 7), (4096, 1), (2002, 500)],
        ids=lambda v: str(v),
    )
    def test_bin_projection_matches_full_fft(self, n, k1):
        # Three on-bin tones (delta, 2*delta and a third bin) plus noise;
        # (2002, 500) puts the 2*delta bin at n//2 - 1, the last usable one.
        rng = np.random.default_rng(n + k1)
        k2, k3 = 2 * k1, (3 * k1) % (n // 2) or 1
        m = np.arange(n)
        samples = rng.normal(0.0, 0.3, n) + rng.uniform(-2.0, 2.0)
        for k in (k1, k2, k3):
            samples += rng.uniform(0.1, 3.0) * np.cos(2.0 * math.pi * k * m / n + rng.uniform(0, 7))
        cfg = DetectionConfig(sample_rate=float(n), n_samples=n)
        dc, at_delta, at_two_delta = spectrum_peaks(
            BeatnoteRecord(samples, float(k1), cfg)
        )
        spectrum = np.fft.rfft(samples)
        tol = 1e-12 * math.sqrt(np.mean(samples**2))
        assert abs(dc - spectrum[0].real / n) <= tol
        assert abs(at_delta - 2.0 * spectrum[k1] / n) <= tol
        assert abs(at_two_delta - 2.0 * spectrum[k2] / n) <= tol

    def test_block_rows_match_single_record_reads(self):
        rng = np.random.default_rng(3)
        block = np.stack([
            tone_record(*rng.uniform(-2.0, 2.0, 5)).samples + rng.normal(0.0, 0.1, CFG.n_samples)
            for _ in range(5)
        ])
        dc, at_delta, at_two_delta = block_peaks(block, CFG.sample_rate, DELTA)
        tol = 1e-12 * math.sqrt(np.mean(block**2))
        for k, row in enumerate(block):
            row_dc, row_delta, row_two_delta = spectrum_peaks(
                BeatnoteRecord(row, DELTA, CFG)
            )
            assert abs(dc[k] - row_dc) <= tol
            assert abs(at_delta[k] - row_delta) <= tol
            assert abs(at_two_delta[k] - row_two_delta) <= tol

    def test_off_bin_delta_rejected(self):
        cfg = DetectionConfig(sample_rate=100.0, n_samples=2000)
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        samples = np.cos(2.0 * math.pi * 2.025 * t)
        rec = BeatnoteRecord(samples, 2.025, cfg)
        with pytest.raises(DomainError, match="off the FFT bin grid"):
            spectrum_peaks(rec)


class TestExtractGain:
    def test_identical_records_give_unity(self):
        on, off = equal_seed_pair(1.0, 0.0)
        assert extract_gain(on, on) == pytest.approx(1.0, rel=1e-14)

    def test_noiseless_gain_seven(self):
        on, off = equal_seed_pair(7.0, 0.0)
        assert extract_gain(on, off) == pytest.approx(7.0, rel=1e-9)

    def test_noisy_gain_seven_monte_carlo(self):
        # 40 dB SNR on the 2*delta tone; a quick 20-seed version of the
        # acceptance-level 100-seed check
        hits = 0
        for seed in range(20):
            sigma = (2.0 * 7.0) / 10.0 ** (40.0 / 20.0)
            cfg = DetectionConfig(noise_sigma=sigma, rng_seed=seed)
            on, off = equal_seed_pair(7.0, 0.0, cfg=cfg)
            if abs(extract_gain(on, off) - 7.0) <= 0.02 * 7.0:
                hits += 1
        assert hits >= 19

    def test_scaling_invariance(self):
        on, off = equal_seed_pair(4.0, 0.7)
        scaled_on = BeatnoteRecord(on.samples * 3.7, on.delta, on.config_echo)
        scaled_off = BeatnoteRecord(off.samples * 3.7, off.delta, off.config_echo)
        assert extract_gain(scaled_on, scaled_off) == pytest.approx(
            extract_gain(on, off), rel=1e-12
        )

    def test_missing_reference_beat(self):
        # no idler seed in the off record: no 2*delta reference
        off = cell_off_record(complex(1.0), complex(0.0), 0.0, DELTA, CFG)
        on, _ = equal_seed_pair(2.0, 0.0)
        with pytest.raises(DomainError, match="no reference beat"):
            extract_gain(on, off)

    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan_on", "nan_off"])
    def test_nan_record_raises_instead_of_nan_gain(self, nan_first):
        good = synthesize_beatnote(1.0, 1.0, 0.0, DELTA, CFG)
        with pytest.raises(DomainError, match="finite"):
            bad = BeatnoteRecord(np.full(CFG.n_samples, np.nan), DELTA, CFG)
            extract_gain(*((bad, good) if nan_first else (good, bad)))

    @pytest.mark.parametrize("big_first", [True, False], ids=["inf_on", "inf_off"])
    def test_overflowing_peak_raises_instead_of_inf_or_zero_gain(self, big_first):
        # Finite samples of +-1.79e308 on the 2*delta tone: their peak sums past the largest float.
        cfg = DetectionConfig()
        t_ms = np.arange(cfg.n_samples) / cfg.sample_rate
        big = BeatnoteRecord(1.79e308 * np.sign(np.cos(2.0 * math.pi * 4.0 * t_ms)), 2.0, cfg)
        good = synthesize_beatnote(1.0, 1.0, 0.0, 2.0, cfg)
        on, off = ("inf", r"2\.0\d*") if big_first else (r"2\.0\d*", "inf")
        message = rf"^2\*delta peak amplitudes must be finite, got on {on} and off {off} at row 0$"
        with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
            extract_gain(*((big, good) if big_first else (good, big)))

    @pytest.mark.parametrize(
        "reference, dc", [(np.nan + 0j, 1.0), (1.0 + 0j, np.nan)], ids=["reference", "dc"]
    )
    def test_ratio_floor_is_nan_safe(self, reference, dc):
        with pytest.raises(DomainError, match="no reference beat"):
            gain_ratio(np.array([2.0 + 0j]), np.array([reference]), np.array([dc]))

    def test_mismatched_records_rejected(self):
        on, _ = equal_seed_pair(2.0, 0.0)
        other_cfg = DetectionConfig(sample_rate=200.0, n_samples=4000)
        off = cell_off_record(complex(1.0), complex(1.0), 0.0, DELTA, other_cfg)
        with pytest.raises(DomainError, match="must share"):
            extract_gain(on, off)


class TestExtractCosPhase:
    @pytest.mark.parametrize(
        "dphi,expected",
        [(0.0, 1.0), (math.pi, -1.0), (math.pi / 3, 0.5)],
    )
    def test_known_phases(self, dphi, expected):
        on, off = equal_seed_pair(3.0, dphi)
        gain = extract_gain(on, off)
        value = extract_cos_phase(on, CFG.residual_pump_intensity, gain, 1.0)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_intensity_normalised_out(self):
        on, _ = equal_seed_pair(3.0, 1.0)
        scaled = BeatnoteRecord(on.samples * 2.5, on.delta, on.config_echo)
        base = extract_cos_phase(on, 0.25, 3.0, 1.0)
        rescaled = extract_cos_phase(scaled, 0.25 * 2.5, 3.0, 1.0 * 2.5)
        assert rescaled == pytest.approx(base, rel=1e-12)

    def test_no_local_oscillator(self):
        on, _ = equal_seed_pair(3.0, 0.0)
        with pytest.raises(DomainError, match="no local oscillator"):
            extract_cos_phase(on, 0.0, 3.0, 1.0)

    def test_inconsistent_normalisation_rejected(self):
        on, _ = equal_seed_pair(3.0, 0.0)
        with pytest.raises(DomainError, match="exceeds the unit circle"):
            extract_cos_phase(on, 0.25, 0.5, 1.0)  # gain understated by 6x


    def test_nan_readout_rejected(self):
        with pytest.raises(DomainError, match="exceeds the unit circle"):
            cos_readout(np.array([0.5, np.nan]), 0.25, np.array([1.0, 1.0]), 1.0)


class TestErrorsNameOneRow:
    """A failing array check names its first bad row, not the whole array."""

    ROWS = 257

    def ones(self) -> np.ndarray:
        return np.ones(self.ROWS)

    @pytest.mark.parametrize(
        "call, opening",
        [
            (lambda a: gain_ratio(2.0 * a + 0j, 1e-15 * a, 2.25 * a), "no reference beat: "),
            (lambda a: cos_readout(a, 0.25, np.where(a > 0.0, np.nan, a), 1.0),
             "gain must be finite and > 0, got nan at row 0"),
            (lambda a: cos_readout(np.concatenate([a[:3], 3.0 * a[3:]]), 0.25, a, 1.0),
             "extracted cos amplitude 1.5 exceeds the unit circle by more than 1e-06 at row 3"),
        ],
        ids=["gain_ratio", "cos_readout_gain", "cos_readout_clamp"],
    )
    def test_message_is_bounded(self, call, opening):
        with pytest.raises(DomainError) as err:
            call(self.ones())
        message = str(err.value)
        assert message.startswith(opening)
        assert len(message) < 200


class TestReconstructPhase:
    def test_scan_matches_model_across_transition(self):
        # noiseless scan across the 0 -> -pi transition of a strong squeezer
        r = 1.5
        grid = np.linspace(-0.5, math.pi - 0.5, 257)
        true_phase = np.array([signal_phase_direct(d, r) for d in grid])
        reconstructed = unwrap_cos_scan(np.cos(true_phase), grid)
        assert np.max(np.abs(reconstructed - true_phase)) <= 0.02
        # monotone-continuous: steps never jump by more than the model's
        assert np.max(np.abs(np.diff(reconstructed))) <= 1.05 * np.max(
            np.abs(np.diff(true_phase))
        )

    def test_scan_rejects_empty(self):
        with pytest.raises(DomainError):
            unwrap_cos_scan(np.array([]), np.array([]))


def exact_phase(grid, r, input_ratio):
    """The continuous output phase of a transfer scan, straight from the two-mode law."""
    kappa = 1.0 / math.sqrt(input_ratio)
    return np.unwrap([signal_phase_direct(d, r, kappa) for d in grid])


EDGE_COSINES = [1.0, -1.0, 0.0, -0.0, 1.0 + DEFAULT_CLAMP_TOL / 2, -1.0 - DEFAULT_CLAMP_TOL / 2]
STOCK_GRID = np.linspace(-math.pi, math.pi, 512, endpoint=False)
ORACLE_GRIDS = {
    "stock": STOCK_GRID,
    "seven_points": np.linspace(-math.pi, math.pi, 7, endpoint=False),
    "four_pi_from_0.3": np.linspace(0.3, 0.3 + 4.0 * math.pi, 300),
    "decreasing": STOCK_GRID[::-1],
}


class TestUnwrapOracle:
    """The unwrap returns the exact continuous phase and raises per-point errors."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
    @pytest.mark.parametrize("input_ratio", [1.0, 1.78])
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.5, 3.0])
    def test_exact_phase(self, r, input_ratio, grid):
        true = exact_phase(grid, r, input_ratio)
        assert np.max(np.abs(unwrap_cos_scan(np.cos(true), grid) - true)) <= 1e-11

    def test_idler_dominated_curve_is_the_global_mirror(self):
        # tanh(1.5) > sqrt(0.3): the cosines of phi and 2*pi - phi agree
        true = exact_phase(STOCK_GRID, 1.5, 0.3)
        mirrored = unwrap_cos_scan(np.cos(true), STOCK_GRID)
        assert np.max(np.abs(mirrored - (2.0 * math.pi - true))) <= 1e-11

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGE_COSINES),
                  st.floats(-1.0 - DEFAULT_CLAMP_TOL / 2, 1.0 + DEFAULT_CLAMP_TOL / 2)),
        st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-10.0, 10.0)),
    ), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_drawn_scans_keep_their_cosines(self, points):
        values, phi_in = map(np.array, zip(*points))
        out = unwrap_cos_scan(values, phi_in)
        assert np.max(np.abs(np.cos(out) - np.clip(values, -1.0, 1.0))) <= 1e-12
        assert np.all(np.abs(out + phi_in) <= math.pi + 1e-12)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, math.nan, 2.0], "cos value must be finite, got nan"),
            ([0.5, 0.2, 1.0 + 2.0 * DEFAULT_CLAMP_TOL, math.nan],
             "cos value 1.000002 lies outside [-1, 1] beyond tolerance"),
            ([-math.inf], "cos value must be finite, got -inf"),
            ([], "cosine scan must be a non-empty 1-D sequence"),
            ([[0.5, 0.2], [0.1, 0.0]], "cosine scan must be a non-empty 1-D sequence"),
        ],
        ids=["nan", "past_tolerance", "infinite", "empty", "two_d"],
    )
    def test_same_errors(self, values, message):
        with pytest.raises(DomainError) as err:
            unwrap_cos_scan(values, np.zeros(np.shape(values)))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "phi_in, message",
        [
            ([0.1, 0.2], "phi_in must hold one phase per cosine: shape (2,) for 3 cosines"),
            ([[0.1, 0.2, 0.3]], "phi_in must hold one phase per cosine: shape (1, 3) for 3 cosines"),
            ([0.1, math.nan, math.inf], "phi_in must be finite, got nan at row 1"),
            ([0.1, 0.2, -math.inf], "phi_in must be finite, got -inf at row 2"),
        ],
        ids=["short", "two_d", "nan", "infinite"],
    )
    def test_refuses_bad_phi_in(self, phi_in, message):
        with pytest.raises(DomainError) as err:
            unwrap_cos_scan([0.5, 0.2, 1.0], phi_in)
        assert str(err.value) == message


class TestPhaseHistogram:
    def test_all_zero_phases_occupy_single_bin(self):
        edges, counts = phase_histogram(np.zeros(50), 8)
        assert counts.sum() == 50
        assert (counts > 0).sum() == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        phases = rng.uniform(-10.0, 10.0, 501)
        _, counts = phase_histogram(phases, 37)
        assert counts.sum() == 501

    def test_empty_input(self):
        edges, counts = phase_histogram([], 12)
        assert counts.sum() == 0
        assert len(edges) == 13

    def test_rejects_single_bin(self):
        with pytest.raises(DomainError):
            phase_histogram([0.0], 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_phases(self, bad):
        # the count must equal the input length, so a phase no bin holds is refused
        with pytest.raises(DomainError, match=f"phases must be finite, got {bad} at row 1"):
            phase_histogram([0.1, bad, 0.2], 4)

    def test_strong_squeezer_localises_output_phase(self):
        # model-level oracle: at r = 2 at least 80% of a uniform scan sits
        # within 0.15 rad of a half-turn
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        phases = np.array([signal_phase_direct(d, 2.0) for d in grid])
        frac = np.mean(dist_to_half_turns(phases) <= 0.15)
        assert frac >= 0.80
        # and the histogram of wrapped phases shows the same mass near 0/pi
        edges, counts = phase_histogram(wrap_phase(phases), 64)
        centers = 0.5 * (edges[:-1] + edges[1:])
        near = dist_to_half_turns(centers) <= 0.15 + (edges[1] - edges[0])
        assert counts[near].sum() / counts.sum() >= 0.80

    def test_mixed_seeds_delocalise_output_phase(self):
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        kappa = 1.0 / math.sqrt(1.78)
        pure = np.array([signal_phase_direct(d, 2.0) for d in grid])
        mixed = np.array([signal_phase_direct(d, 2.0, kappa) for d in grid])
        frac_pure = np.mean(dist_to_half_turns(pure) <= 0.15)
        frac_mixed = np.mean(dist_to_half_turns(mixed) <= 0.15)
        assert frac_mixed < frac_pure


class TestRoundTripIdentity:
    def test_synthesize_analyze_recovers_gain_and_phase(self):
        # invariant: noiseless equal-seed round trip over r in [0, 3] on a
        # 64-point input-phase grid
        for r in (0.0, 0.5, 1.5, 3.0):
            for dphi_in in np.linspace(-math.pi, math.pi, 64):
                c, s = math.cosh(r), math.sinh(r)
                out = c + s * complex(math.cos(2 * dphi_in), math.sin(2 * dphi_in))
                gain_true = abs(out) ** 2
                phi_true = math.atan2(out.imag, out.real)
                amp = cmath.rect(abs(out), phi_true)
                on = synthesize_beatnote(amp, amp, 0.0, DELTA, CFG)
                off = cell_off_record(complex(1.0), complex(1.0), 0.0, DELTA, CFG)
                gain = extract_gain(on, off)
                cos_out = extract_cos_phase(on, CFG.residual_pump_intensity, gain, 1.0)
                assert gain == pytest.approx(gain_true, rel=1e-9)
                assert cos_out == pytest.approx(math.cos(phi_true), abs=1e-9)
