"""Beatnote synthesis: expansion into DC / delta / 2*delta tones, noise
model, determinism and the serialisation round trips."""

import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from psalab import (
    AmplifierParams,
    BeatnoteRecord,
    DetectionConfig,
    DomainError,
    cell_off_record,
    evolve_two_mode,
    point_seed,
    spectrum_peaks,
    synthesize_beatnote,
)
from psalab.beatnote import (
    CELL_OFF,
    CELL_ON,
    _standard_normals,
    seed_words,
    synthesize_block,
)
from psalab.serialize import (
    record_from_binary,
    record_from_csv,
    record_to_binary,
    record_to_csv,
)

DELTA = 2.0


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    """numpy's own generator for one record's noise: the oracle of every noisy row."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def quiet_config(**overrides) -> DetectionConfig:
    base = dict(sample_rate=100.0, n_samples=2000, noise_sigma=0.0, rng_seed=0,
                residual_pump_intensity=0.25)
    base.update(overrides)
    return DetectionConfig(**base)


def reduced_form_trace(gain, i_s_in, i_p, dphi_out, delta, cfg):
    """Independent closed-form evaluation of the equal-seed beatnote."""
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    w = 2.0 * math.pi * delta * t
    return (2.0 * gain * i_s_in
            + 2.0 * gain * i_s_in * np.cos(2.0 * w)
            + i_p
            + 4.0 * math.sqrt(i_p * gain * i_s_in) * np.cos(w) * math.cos(dphi_out))


class TestSynthesis:
    def test_pump_only_gives_constant_trace(self):
        cfg = quiet_config(residual_pump_intensity=1.0)
        rec = synthesize_beatnote(complex(0.0), complex(0.0), 0.3, DELTA, cfg)
        assert np.allclose(rec.samples, 1.0, atol=1e-15)

    def test_equal_unit_fields_no_pump(self):
        # I(t) = 2 + 2 cos(2 w t): DC 2, 2*delta amplitude 2, no delta tone
        cfg = quiet_config(residual_pump_intensity=0.0)
        rec = synthesize_beatnote(complex(1.0), complex(1.0), 0.0, DELTA, cfg)
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        expected = 2.0 + 2.0 * np.cos(2.0 * 2.0 * math.pi * DELTA * t)
        assert np.max(np.abs(rec.samples - expected)) <= 1e-12
        dc, at_delta, at_two_delta = spectrum_peaks(rec)
        assert dc == pytest.approx(2.0, abs=1e-12)
        assert abs(at_delta) == pytest.approx(0.0, abs=1e-12)
        assert abs(at_two_delta) == pytest.approx(2.0, rel=1e-12)

    def test_gain_four_coefficients(self):
        # amplified fields 2+0j with pump leakage 0.25: delta amplitude
        # 4*sqrt(0.25*4*1) = 4 and 2*delta amplitude 2*4*1 = 8
        cfg = quiet_config()
        rec = synthesize_beatnote(complex(2.0), complex(2.0), 0.0, DELTA, cfg)
        _, at_delta, at_two_delta = spectrum_peaks(rec)
        assert abs(at_delta) == pytest.approx(4.0, rel=1e-12)
        assert abs(at_two_delta) == pytest.approx(8.0, rel=1e-12)

    def test_reduces_to_closed_form_sample_by_sample(self):
        cfg = quiet_config()
        gain, dphi = 4.0, 0.0
        rec = synthesize_beatnote(complex(2.0), complex(2.0), 0.0, DELTA, cfg)
        expected = reduced_form_trace(gain, 1.0, cfg.residual_pump_intensity, dphi, DELTA, cfg)
        assert np.max(np.abs(rec.samples - expected)) <= 1e-12

    def test_reduction_with_output_phase(self):
        # place the common output phase at pi/3 relative to the pump
        cfg = quiet_config()
        gain, dphi = 5.0, math.pi / 3
        amp = cmath.rect(math.sqrt(gain), dphi)
        rec = synthesize_beatnote(amp, amp, 0.0, DELTA, cfg)
        expected = reduced_form_trace(gain, 1.0, cfg.residual_pump_intensity, dphi, DELTA, cfg)
        assert np.max(np.abs(rec.samples - expected)) <= 1e-12

    def test_noiseless_trace_nonnegative_and_bounded(self):
        cfg = quiet_config()
        s = cmath.rect(1.7, 0.4)
        i = cmath.rect(0.6, -1.0)
        rec = synthesize_beatnote(s, i, 0.9, DELTA, cfg)
        bound = (math.sqrt(cfg.residual_pump_intensity) + abs(s) + abs(i)) ** 2
        assert np.all(rec.samples >= 0.0)
        assert np.all(rec.samples <= bound + 1e-12)

    def test_parseval(self):
        cfg = quiet_config(noise_sigma=0.05, rng_seed=7)
        rec = synthesize_beatnote(complex(1.2), complex(0.8), 0.3, DELTA, cfg)
        spectrum = np.fft.fft(rec.samples)
        lhs = np.sum(np.abs(spectrum) ** 2) / rec.n_samples
        rhs = np.sum(rec.samples**2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCellOff:
    def test_matches_zero_squeezing_synthesis(self):
        cfg = quiet_config()
        s, i = complex(1.0, 0.2), complex(0.5, -0.1)
        off = cell_off_record(s, i, 0.7, DELTA, cfg)
        s0, i0 = evolve_two_mode(s, i, AmplifierParams(r=0.0, pump_phase=0.7))
        on_at_zero = synthesize_beatnote(s0, i0, 0.7, DELTA, cfg)
        assert np.array_equal(off.samples, on_at_zero.samples)

    def test_reference_two_delta_amplitude(self):
        cfg = quiet_config(residual_pump_intensity=0.0)
        off = cell_off_record(complex(1.0), complex(1.0), 0.0, DELTA, cfg)
        assert abs(spectrum_peaks(off)[2]) == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_gain_ratio_of_four(self):
        cfg = quiet_config()
        on = synthesize_beatnote(complex(2.0), complex(2.0), 0.0, DELTA, cfg)
        off = cell_off_record(complex(1.0), complex(1.0), 0.0, DELTA, cfg)
        ratio = abs(spectrum_peaks(on)[2]) / abs(spectrum_peaks(off)[2])
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_noise_streams_differ_between_on_and_off(self):
        cfg = quiet_config(noise_sigma=0.1, rng_seed=123)
        s, i = complex(1.0), complex(1.0)
        on = synthesize_beatnote(s, i, 0.0, DELTA, cfg)
        off = cell_off_record(s, i, 0.0, DELTA, cfg)
        assert not np.array_equal(on.samples, off.samples)


class TestBlockSynthesis:
    """A (P, N) block holds, row by row, the records of the single-record API."""

    S = np.array([1.0, 2.0 + 0.5j, 0.3 - 1.1j])
    I = np.array([1.0, 1.5 - 0.2j, 0.0])
    PHASES = np.array([0.0, 0.7, -2.9])

    @staticmethod
    def assert_rows_close(block_row, single_row):
        assert np.max(np.abs(block_row - single_row)) <= 1e-12 * np.max(np.abs(single_row))

    def test_rows_match_single_records(self):
        cfg = quiet_config()
        on = synthesize_block(self.S, self.I, self.PHASES, DELTA, cfg)
        off = synthesize_block(1.0, 0.5j, self.PHASES, DELTA, cfg)
        assert on.shape == off.shape == (3, cfg.n_samples)
        for k, phase in enumerate(self.PHASES):
            on_k = synthesize_beatnote(self.S[k], self.I[k], phase, DELTA, cfg)
            self.assert_rows_close(on[k], on_k.samples)
            self.assert_rows_close(off[k], cell_off_record(1.0, 0.5j, phase, DELTA, cfg).samples)

    def test_noisy_rows_carry_their_point_seed_draws(self):
        cfg = quiet_config(noise_sigma=0.3, rng_seed=5)
        seeds = point_seed(11, np.arange(len(self.PHASES)))
        quiet = synthesize_block(self.S, self.I, self.PHASES, DELTA, cfg)
        for stream, single in ((CELL_ON, synthesize_beatnote), (CELL_OFF, cell_off_record)):
            noise = _standard_normals(seed_words(seeds, stream, 4), cfg)
            noisy = synthesize_block(self.S, self.I, self.PHASES, DELTA, cfg, noise)
            for k, seed in enumerate(seeds):
                draws = _rng_for(seed, stream).normal(0.0, 0.3, cfg.n_samples)
                assert np.array_equal(noisy[k], quiet[k] + draws)
                seeded = replace(cfg, rng_seed=int(seed))
                record = single(self.S[k], self.I[k], self.PHASES[k], DELTA, seeded)
                self.assert_rows_close(noisy[k], record.samples)

    @pytest.mark.parametrize("shape", [(1, 2000), (2000,)])
    def test_one_noise_row_is_added_to_every_record(self, shape):
        cfg = quiet_config(noise_sigma=0.3)
        quiet = synthesize_block(1.0, 1.0, self.PHASES, DELTA, cfg)
        noise = _standard_normals(seed_words(5, CELL_OFF, 4), cfg)
        noisy = synthesize_block(1.0, 1.0, self.PHASES, DELTA, cfg, noise.reshape(shape))
        draws = _rng_for(5, CELL_OFF).normal(0.0, 0.3, cfg.n_samples)
        assert np.array_equal(noisy, quiet + draws)

    def test_noise_is_not_scaled_in_place(self):
        cfg = quiet_config(noise_sigma=0.3)
        noise = np.ones((len(self.PHASES), cfg.n_samples))
        synthesize_block(1.0, 1.0, self.PHASES, DELTA, cfg, noise)
        assert np.array_equal(noise, np.ones_like(noise))

    @pytest.mark.parametrize("sigma", [0.05, 0.2])
    def test_stream_per_row_equals_single_stream_blocks(self, sigma):
        cfg = quiet_config(noise_sigma=sigma)
        s_out, i_out = np.r_[1.0, self.S], np.r_[0.5j, self.I]
        phases, streams = np.r_[0.0, self.PHASES], np.array([CELL_OFF, CELL_ON, CELL_ON, CELL_ON])
        one, two = point_seed(11, 3), point_seed(11, 4)
        for seeds in (np.array([one], np.uint64), np.array([one, one, two, two], np.uint64)):
            noise = _standard_normals(seed_words(seeds, streams, 4), cfg)
            mixed = synthesize_block(s_out, i_out, phases, DELTA, cfg, noise)
            for stream in (CELL_OFF, CELL_ON):
                noise = _standard_normals(seed_words(seeds, stream, 4), cfg)
                single = synthesize_block(s_out, i_out, phases, DELTA, cfg, noise)
                rows = streams == stream
                assert np.array_equal(mixed[rows], single[rows])

    def test_equal_seed_words_draw_once(self, monkeypatch):
        made, pcg64 = [], np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64", lambda seed: made.append(seed) or pcg64(seed))
        cfg = quiet_config(noise_sigma=0.5)
        noise = _standard_normals(seed_words(np.array([7, 7, 8, 7], np.uint64), 0, 4), cfg)
        assert len(made) == 2
        for k, seed in enumerate([7, 7, 8, 7]):
            assert np.array_equal(noise[k], _rng_for(seed, 0).normal(0.0, 0.5, cfg.n_samples))

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_out_planes_hold_the_block_bit_for_bit(self, sigma):
        cfg = quiet_config(noise_sigma=sigma)
        noise = _standard_normals(seed_words(5, CELL_ON, 4), cfg) if sigma else None
        fresh = synthesize_block(self.S, self.I, self.PHASES, DELTA, cfg, noise)
        planes = np.full((2, len(self.PHASES), cfg.n_samples), np.nan)  # stale contents
        block = synthesize_block(self.S, self.I, self.PHASES, DELTA, cfg, noise, planes)
        assert np.shares_memory(block, planes[0])
        assert np.array_equal(block, fresh)

    def test_non_finite_row_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            synthesize_block(self.S, self.I, [0.0, math.nan, 1.0], DELTA, quiet_config())
        with pytest.raises(DomainError, match="finite"):
            synthesize_block([1.0, math.inf], 1.0, [0.0, 1.0], DELTA, quiet_config())

    @pytest.mark.parametrize("shape", [(2, 2000), (4, 2000), (3, 1999), (1, 1, 2000)])
    def test_noise_neither_one_row_nor_one_per_record_refused(self, shape):
        message = r"^noise: expected 1 or 3 rows of 2000 samples, got shape"
        with pytest.raises(DomainError, match=message):
            synthesize_block(1.0, 1.0, [0.0, 0.5, 1.0], DELTA, quiet_config(), np.zeros(shape))


# numpy's own SeedSequence is the oracle: word counts 1 to 5, both sides of each boundary.
MASTERS = [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**128 - 1, 2**130 + 5]
MASTERS += [int(x) for x in np.random.default_rng(2016).integers(2**63, size=3)]
MASTERS += [random.Random(1608).getrandbits(bits) for bits in (40, 96, 200)]
# Spawn keys: the two streams and grid indices up to the largest single word.
KEYS = [CELL_ON, CELL_OFF, 2, 256, 100_003, 2**31 + 7, 2**32 - 1]


def _seed_sequence(entropy, key, n_words):
    return np.random.SeedSequence(int(entropy), spawn_key=(int(key),)).generate_state(
        n_words, np.uint64
    )


@pytest.mark.filterwarnings("error")  # uint32 arithmetic on numpy scalars warns on overflow
class TestSeedWords:
    """``seed_words`` rows against numpy's SeedSequence, and the draws they seed."""

    @pytest.mark.parametrize("n_words", [1, 4])
    @pytest.mark.parametrize("master", MASTERS)
    def test_rows_equal_seed_sequence_state(self, master, n_words):
        expected = np.array([_seed_sequence(master, key, n_words) for key in KEYS])
        assert np.array_equal(seed_words(master, np.array(KEYS), n_words), expected)
        assert np.array_equal(seed_words(master, KEYS[-1], n_words), expected[-1])
        # An array of entropy, as a run's point seeds, under either stream or both at once.
        seeds = point_seed(master, np.arange(len(KEYS)))
        assert seeds.tolist() == [int(_seed_sequence(master, k, 1)[0]) for k in range(len(KEYS))]
        both = seed_words(seeds, np.array([[CELL_ON], [CELL_OFF]]), n_words)
        for stream, rows in zip((CELL_ON, CELL_OFF), both):
            assert np.array_equal(rows, [_seed_sequence(s, stream, n_words) for s in seeds])
        one = seed_words(seeds[:1], CELL_OFF, n_words)
        assert np.array_equal(one, [_seed_sequence(seeds[0], CELL_OFF, n_words)])

    @pytest.mark.parametrize("keys", [[2**32], [2**32, 2**40 + 3, 2**64 - 1]])
    def test_keys_of_two_words(self, keys):
        expected = [_seed_sequence(2**130 + 5, key, 4) for key in keys]
        assert np.array_equal(seed_words(2**130 + 5, np.array(keys, np.uint64), 4), expected)
        assert point_seed(9, keys[0]) == int(_seed_sequence(9, keys[0], 1)[0])
        assert point_seed(9, 2**70) == int(_seed_sequence(9, 2**70, 1)[0])

    @pytest.mark.parametrize("n_words", [1, 4])
    def test_entropy_of_one_and_two_words_together(self, n_words):
        entropy = np.array([0, 5, 2**40, 2**64 - 1], np.uint64)
        both = seed_words(entropy, np.array([[CELL_ON], [CELL_OFF]]), n_words)
        for stream, rows in zip((CELL_ON, CELL_OFF), both):
            assert np.array_equal(rows, [_seed_sequence(e, stream, n_words) for e in entropy])

    @pytest.mark.parametrize("n_words", [1, 4])
    @pytest.mark.parametrize("entropy", [0, 2**32 + 3, 2**64 - 1])
    def test_zero_dimensional_entropy_and_key(self, entropy, n_words):
        got = seed_words(np.array(entropy, np.uint64), np.array(CELL_OFF), n_words)
        assert got.shape == (n_words,)
        assert np.array_equal(got, _seed_sequence(entropy, CELL_OFF, n_words))

    @pytest.mark.parametrize(
        "entropy, key, name",
        [(-1, 0, "entropy"), (-(2**70), 3, "entropy"), (1, -1, "spawn key"),
         (np.array([3, -2]), 0, "entropy"), (1, np.array([1, -5]), "spawn key"),
         (np.array([5], np.uint64), [[0], [-1]], "spawn key")],
        ids=["entropy", "entropy_2^70", "key", "entropy_array", "key_array", "key_list"],
    )
    def test_negative_entropy_or_key_refused_by_name(self, entropy, key, name):
        with pytest.raises(DomainError, match=f"^{name}: expected an integer >= 0, got -"):
            seed_words(entropy, key, 4)
        with pytest.raises(DomainError, match=f"^{name}: "):
            point_seed(entropy, key)

    def test_keys_of_one_and_two_words_refused_together(self):
        with pytest.raises(DomainError, match="spawn keys"):
            seed_words(7, np.array([1, 2**32], np.uint64), 1)

    @pytest.mark.parametrize("master", [7, 2**64 + 1, 2**130 + 5])
    def test_drawn_rows_are_numpys_draws(self, master):
        # No field and no pump: a row is its noise alone, at sigma 1.
        cfg = quiet_config(noise_sigma=1.0, residual_pump_intensity=0.0)
        points = range(4)
        seeds = point_seed(master, np.array(points))
        for stream in (CELL_ON, CELL_OFF):
            noise = _standard_normals(seed_words(seeds, stream, 4), cfg)
            block = synthesize_block(0.0, 0.0, np.zeros(len(points)), DELTA, cfg, noise)
            for k in points:
                seq = np.random.SeedSequence(point_seed(master, k), spawn_key=(stream,))
                draws = np.random.default_rng(seq).standard_normal(cfg.n_samples)
                assert np.array_equal(block[k], draws)

    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**130 + 5])
    def test_single_records_draw_under_the_config_seed(self, seed):
        cfg = quiet_config(noise_sigma=0.2, rng_seed=seed)
        for stream, single in ((CELL_ON, synthesize_beatnote), (CELL_OFF, cell_off_record)):
            quiet = single(1.0, 0.5j, 0.3, DELTA, quiet_config()).samples
            noisy = single(1.0, 0.5j, 0.3, DELTA, cfg).samples
            assert np.array_equal(noisy, quiet + _rng_for(seed, stream).normal(0.0, 0.2, 2000))


class TestDeterminism:
    def test_identical_seed_identical_bits(self):
        cfg = quiet_config(noise_sigma=0.2, rng_seed=42)
        args = (complex(1.5, 0.1), complex(0.9, -0.3), 0.4, DELTA, cfg)
        first = synthesize_beatnote(*args)
        second = synthesize_beatnote(*args)
        assert np.array_equal(first.samples, second.samples)

    def test_different_seeds_differ(self):
        base = quiet_config(noise_sigma=0.2, rng_seed=1)
        other = quiet_config(noise_sigma=0.2, rng_seed=2)
        s, i = complex(1.0), complex(1.0)
        assert not np.array_equal(
            synthesize_beatnote(s, i, 0.0, DELTA, base).samples,
            synthesize_beatnote(s, i, 0.0, DELTA, other).samples,
        )


class TestConfigInvariants:
    def test_nyquist_margin_violation_is_named(self):
        cfg = quiet_config(sample_rate=30.0, n_samples=2000)
        with pytest.raises(DomainError, match="Nyquist margin"):
            synthesize_beatnote(complex(1.0), complex(1.0), 0.0, DELTA, cfg)

    def test_non_integer_periods_rejected(self):
        cfg = quiet_config(sample_rate=100.0, n_samples=1999)
        with pytest.raises(DomainError, match="integer number of delta periods"):
            synthesize_beatnote(complex(1.0), complex(1.0), 0.0, DELTA, cfg)

    def test_too_few_periods_rejected(self):
        cfg = quiet_config(sample_rate=100.0, n_samples=100)
        with pytest.raises(DomainError, match="at least 4 delta periods"):
            synthesize_beatnote(complex(1.0), complex(1.0), 0.0, DELTA, cfg)

    def test_zero_delta_rejected(self):
        with pytest.raises(DomainError, match="detuning > 0"):
            synthesize_beatnote(complex(1.0), complex(1.0), 0.0, 0.0, quiet_config())

    @pytest.mark.parametrize(
        "s_out, i_out",
        [(complex(float("nan"), 0.0), 1.0), (1.0, complex(0.0, float("-inf")))],
    )
    def test_non_finite_amplitude_rejected(self, s_out, i_out):
        with pytest.raises(DomainError, match="finite"):
            synthesize_beatnote(s_out, i_out, 0.0, DELTA, quiet_config())
        with pytest.raises(DomainError, match="finite"):
            cell_off_record(s_out, i_out, 0.0, DELTA, quiet_config())

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            quiet_config(noise_sigma=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(quiet_config().n_samples)
        samples[17] = bad
        with pytest.raises(DomainError, match="finite"):
            BeatnoteRecord(samples, DELTA, quiet_config())

    def test_record_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            BeatnoteRecord(np.zeros(10), DELTA, quiet_config())

    def test_record_length_mismatch_names_n_samples(self):
        with pytest.raises(DomainError, match="^n_samples: record length 10 does not match"):
            BeatnoteRecord(np.zeros(10), DELTA, quiet_config())


class TestRecordSerialisation:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        cfg = quiet_config(noise_sigma=0.03, rng_seed=9)
        rec = synthesize_beatnote(complex(1.3, 0.2), complex(0.7), 0.5, DELTA, cfg)
        path = record_to_csv(rec, tmp_path / "trace.csv")
        back = record_from_csv(path)
        assert np.array_equal(back.samples, rec.samples)
        assert back.sample_rate == rec.sample_rate
        assert back.delta == rec.delta

    def test_binary_round_trip_bit_exact(self, tmp_path):
        cfg = quiet_config(noise_sigma=0.03, rng_seed=9)
        rec = synthesize_beatnote(complex(1.3, 0.2), complex(0.7), 0.5, DELTA, cfg)
        path = record_to_binary(rec, tmp_path / "trace.bin")
        back = record_from_binary(path)
        assert np.array_equal(back.samples, rec.samples)
        assert back.sample_rate == rec.sample_rate
        assert back.delta == rec.delta

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            record_from_binary(path)
