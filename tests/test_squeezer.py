"""Core amplifier laws: evolution, gain formulas, output phase."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psalab import (
    AmplifierParams,
    DomainError,
    evolve_block,
    evolve_two_mode,
    gain_extrema,
    output_relative_phase,
    pia_gain,
    psa_gain,
    psa_max_from_pia,
    wrap_phase,
)

from conftest import bogoliubov_direct, signal_phase_direct

R_GMAX_7 = math.log(7.0) / 2.0  # maximum gain e**(2r) = 7
G_FOR_GMAX_7 = (7.0 + 2.0 + 1.0 / 7.0) / 4.0  # inverts 2g-1+2*sqrt(g(g-1)) = 7

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
squeeze = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


class TestAmplifierParams:
    def test_pump_phase_wraps(self):
        assert AmplifierParams(r=0.0, pump_phase=math.pi).pump_phase == pytest.approx(-math.pi)
        assert AmplifierParams(r=0.0, pump_phase=3 * math.pi).pump_phase == pytest.approx(-math.pi)

    def test_rejects_negative_r(self):
        with pytest.raises(DomainError):
            AmplifierParams(r=-0.1)

    def test_rejects_negative_detuning(self):
        with pytest.raises(DomainError):
            AmplifierParams(r=0.1, detuning=-2.0)


class TestEvolveTwoMode:
    def test_identity_at_zero_squeezing(self):
        s = complex(0.3, -0.7)
        i = complex(-1.1, 0.2)
        s_out, i_out = evolve_two_mode(s, i, AmplifierParams(r=0.0, pump_phase=1.0))
        assert s_out == s
        assert i_out == i

    def test_amplification_quadrature_gain_seven(self):
        # frozen from e**(2r) = 7 with equal unit seeds at zero phases
        s_out, _ = evolve_two_mode(
            complex(1.0), complex(1.0), AmplifierParams(r=R_GMAX_7, pump_phase=0.0)
        )
        assert abs(s_out) ** 2 == pytest.approx(7.0, rel=1e-12)
        # direct complex evaluation agrees
        ref, _ = bogoliubov_direct(1.0, 1.0, R_GMAX_7, 0.0)
        assert s_out == pytest.approx(ref, rel=1e-14)

    def test_deamplification_quadrature_one_seventh(self):
        s_out, _ = evolve_two_mode(
            complex(1.0),
            complex(1.0),
            AmplifierParams(r=R_GMAX_7, pump_phase=math.pi / 2),
        )
        assert abs(s_out) ** 2 == pytest.approx(1.0 / 7.0, rel=1e-12)

    @pytest.mark.parametrize(
        "s_in, i_in",
        [(complex(float("nan"), 0.0), 1j), (1.0, complex(0.0, float("inf")))],
    )
    def test_rejects_non_finite_amplitude(self, s_in, i_in):
        with pytest.raises(DomainError, match="finite"):
            evolve_two_mode(s_in, i_in, AmplifierParams(r=0.5))

    def test_rejects_unset_r(self):
        with pytest.raises(DomainError):
            evolve_two_mode(
                complex(1.0), complex(1.0), AmplifierParams(pump_power=30.0)
            )

    @given(finite, finite, finite, finite, squeeze, angles)
    def test_photon_number_difference_conserved(self, sr, si, ir, ii, r, phi_p):
        s_in = complex(sr, si)
        i_in = complex(ir, ii)
        s_out, i_out = evolve_two_mode(s_in, i_in, AmplifierParams(r=r, pump_phase=phi_p))
        lhs = abs(s_out) ** 2 - abs(i_out) ** 2
        rhs = abs(s_in) ** 2 - abs(i_in) ** 2
        scale = max(1.0, abs(s_out) ** 2 + abs(i_out) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(
        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        angles,
        angles,
        angles,
        st.floats(min_value=1e-2, max_value=3.0, allow_nan=False),
    )
    def test_gain_formula_equivalence(self, amp, phi_s, phi_i, phi_p, r):
        # r is kept above 1e-2: passing the operating point as g = cosh(r)**2
        # rounds g - 1 to ulp(1), so for r below ~1e-3 no route through g can
        # resolve the gain to 1e-12 (the identity case is covered separately)
        s_in = cmath.rect(amp, phi_s)
        i_in = cmath.rect(amp, phi_i)
        s_out, _ = evolve_two_mode(s_in, i_in, AmplifierParams(r=r, pump_phase=phi_p))
        measured = abs(s_out) ** 2 / abs(s_in) ** 2
        expected = psa_gain(math.cosh(r) ** 2, 2.0 * phi_p - phi_s - phi_i)
        assert measured == pytest.approx(expected, rel=1e-12)


class TestEvolveBlock:
    """The array core against its one-row call, evolve_two_mode."""

    # The wrap edges, their neighbouring ulps, and enough phases in between
    # that numpy's vectorized loops run full chunks as well as a tail.
    PHASES = np.concatenate([
        [-math.pi, math.pi, 0.0, -0.0],
        np.nextafter(-math.pi, [-4.0, 4.0]),
        np.nextafter(math.pi, [-4.0, 4.0]),
        np.linspace(-7.0, 7.0, 41),
    ])

    @pytest.mark.parametrize("r", [0.0, R_GMAX_7, 3.0])
    @pytest.mark.parametrize(
        "s_in, i_in", [(1.0, 1.0), (1.0, 0.75), (complex(0.3, -0.7), complex(-1.1, 0.2))]
    )
    def test_rows_match_one_row_calls_bit_for_bit(self, s_in, i_in, r):
        s_out, i_out = evolve_block(s_in, i_in, r, wrap_phase(self.PHASES))
        assert s_out.shape == i_out.shape == self.PHASES.shape
        for k, phase in enumerate(self.PHASES):
            expected = evolve_two_mode(s_in, i_in, AmplifierParams(r=r, pump_phase=phase))
            assert (s_out[k], i_out[k]) == expected, phase


class TestGainLaws:
    def test_unit_gain_at_no_squeezing(self):
        for phi in (-2.0, 0.0, 0.7, math.pi):
            assert psa_gain(1.0, phi) == 1.0

    def test_gain_seven_at_phase_zero(self):
        assert psa_gain(G_FOR_GMAX_7, 0.0) == pytest.approx(7.0, rel=1e-12)

    def test_inverse_gain_at_phase_pi(self):
        assert psa_gain(G_FOR_GMAX_7, math.pi) == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_quadrature_phase_gain(self):
        # cos term vanishes, leaving 2g - 1
        assert psa_gain(G_FOR_GMAX_7, math.pi / 2) == pytest.approx(
            2.0 * G_FOR_GMAX_7 - 1.0, rel=1e-12
        )

    def test_rejects_gain_below_one(self):
        with pytest.raises(DomainError):
            psa_gain(0.999, 0.0)
        with pytest.raises(DomainError):
            gain_extrema(0.5)
        with pytest.raises(DomainError):
            psa_max_from_pia(0.0)

    def test_extrema_trivial_and_anchor(self):
        pair = gain_extrema(1.0)
        assert (pair.g_max, pair.g_min) == (1.0, 1.0)
        pair = gain_extrema(G_FOR_GMAX_7)
        assert pair.g_max == pytest.approx(7.0, rel=1e-12)
        assert pair.g_min == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_extrema_matches_transfer_curve_case(self):
        # maximum gain 5.3 implies minimum 1/5.3 = 0.1887
        g = (5.3 + 2.0 + 1.0 / 5.3) / 4.0
        assert gain_extrema(g).g_min == pytest.approx(0.1887, abs=5e-5)

    @given(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    def test_ideal_product_is_unity(self, g):
        pair = gain_extrema(g)
        assert abs(pair.g_max * pair.g_min - 1.0) <= 1e-12

    @given(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    def test_extrema_agree_with_gain_formula(self, g):
        pair = gain_extrema(g)
        assert pair.g_max == pytest.approx(psa_gain(g, 0.0), rel=1e-12)
        assert pair.g_min == pytest.approx(psa_gain(g, math.pi), rel=1e-12)

    def test_pia_examples(self):
        assert pia_gain(0.0) == 1.0
        assert pia_gain(R_GMAX_7) == pytest.approx(G_FOR_GMAX_7, rel=1e-12)
        assert psa_max_from_pia(1.0) == 1.0
        assert psa_max_from_pia(2.0) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
        assert psa_max_from_pia(G_FOR_GMAX_7) == pytest.approx(7.0, rel=1e-12)

    def test_pia_matches_evolution_with_empty_idler(self):
        for r in (0.0, 0.3, 1.7):
            s_out, _ = evolve_two_mode(
                complex(1.0), complex(0.0), AmplifierParams(r=r, pump_phase=0.9)
            )
            assert abs(s_out) ** 2 == pytest.approx(pia_gain(r), rel=1e-12)

    @given(squeeze)
    def test_pia_relation_consistency(self, r):
        g = math.cosh(r) ** 2
        lhs = psa_max_from_pia(pia_gain(r))
        rhs = gain_extrema(g).g_max
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    )
    def test_mixed_seed_floor_beats_pure_reciprocal(self, r, kappa):
        """With the signal seeded above the idler, the worst-case signal
        gain stays strictly above the reciprocal of the best case: the
        signature separating mixed operation from a pure squeezer."""
        c, s = math.cosh(r), math.sinh(r)
        g_min = (c - s * kappa) ** 2
        g_max = (c + s * kappa) ** 2
        assert g_min * g_max > 1.0
        # and the evolution agrees with those extremes
        s_lo, _ = evolve_two_mode(
            complex(1.0), complex(kappa), AmplifierParams(r=r, pump_phase=math.pi / 2)
        )
        s_hi, _ = evolve_two_mode(
            complex(1.0), complex(kappa), AmplifierParams(r=r, pump_phase=0.0)
        )
        assert abs(s_lo) ** 2 == pytest.approx(g_min, rel=1e-12)
        assert abs(s_hi) ** 2 == pytest.approx(g_max, rel=1e-12)


class TestOutputPhase:
    def test_all_real_amplitudes_give_zero(self):
        for r in (0.0, 0.5, 3.0):
            phi = output_relative_phase(
                complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=0.0)
            )
            assert phi == 0.0

    def test_large_r_square_wave_limit(self):
        # frozen from direct evaluation of arg(cosh3 + sinh3*exp(j*pi/2)) - pi/4
        phi = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=3.0, pump_phase=math.pi / 4)
        )
        direct = cmath.phase(math.cosh(3.0) + math.sinh(3.0) * cmath.exp(1j * math.pi / 2))
        assert phi == pytest.approx(direct - math.pi / 4, abs=1e-12)
        assert abs(phi) < 0.05

    def test_mixed_seeds_leave_larger_residual_phase(self):
        pure = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=3.0, pump_phase=math.pi / 4)
        )
        mixed = output_relative_phase(
            complex(1.0),
            complex(1.0 / math.sqrt(1.78)),
            AmplifierParams(r=3.0, pump_phase=math.pi / 4),
        )
        assert abs(mixed) > abs(pure)

    def test_rejects_zero_signal(self):
        with pytest.raises(DomainError):
            output_relative_phase(
                complex(0.0), complex(1.0), AmplifierParams(r=1.0)
            )

    @given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
           st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
    def test_odd_symmetry_in_input_phase(self, dphi, r):
        plus = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=dphi)
        )
        minus = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=-dphi)
        )
        assert plus == pytest.approx(-minus, abs=1e-12)

    @given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
           st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
    def test_half_turn_periodicity_modulo_pi(self, dphi, r):
        """Advancing the input phase by pi reproduces the output phase
        modulo pi (the pattern repeats; the absolute phase gains a
        half-turn, which a binary phase code rides along with)."""
        base = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=dphi)
        )
        shifted = output_relative_phase(
            complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=dphi + math.pi)
        )
        residue = (base - shifted) % math.pi
        assert min(residue, math.pi - residue) <= 1e-9

    def test_matches_direct_evaluation_across_scan(self):
        r = 1.1
        for dphi in np.linspace(-3.0, 3.0, 61):
            got = output_relative_phase(
                complex(1.0), complex(1.0), AmplifierParams(r=r, pump_phase=dphi)
            )
            assert got == pytest.approx(wrap_phase(signal_phase_direct(dphi, r)), abs=1e-12)
