import numpy as np
import pytest

from driventb import (DCDrive, FourierDrive, HarmonicDrive, SingleBandDispersion,
                      TabulatedDrive, bessel_j, bessel_zero, classify_mode,
                      coherence_parameters, expect_K, expect_N,
                      expect_N_single_band, gaussian_state, integrate,
                      integrate_series, localization_report, observable_series,
                      single_site, state_from_amplitudes, variance_N)
from helpers import expect_N_k, random_state, variance_N_moments

DC = DCDrive(1.0, 1.0)


def moments_of(state):
    p = state.probabilities
    n = state.sites.astype(float)
    mean = float(np.sum(n * p))
    return mean, float(np.sum(n * n * p) - mean ** 2)


class TestExpectK:
    def test_single_site_stays_zero(self):
        coh = coherence_parameters(single_site(0, (-8, 8)))
        assert np.allclose(expect_K(coh, DC, np.linspace(0, 10, 7)), 0.0)

    def test_dc_half_period_flips_sign(self):
        coh = coherence_parameters(state_from_amplitudes([1, 1], (0, 1)))
        assert coh.K == pytest.approx(0.5)
        assert expect_K(coh, DC, np.pi) == pytest.approx(-0.5, abs=1e-14)

    def test_modulus_conserved(self):
        rng = np.random.default_rng(1)
        coh = coherence_parameters(random_state(rng, (-10, 10)))
        tt = rng.uniform(0.0, 50.0, 100)
        vals = expect_K(coh, HarmonicDrive(1.0, 1.0, 1.0, 0.5), tt)
        assert np.max(np.abs(np.abs(vals) - abs(coh.K))) < 1e-13


class TestExpectN:
    def test_single_site_is_frozen(self):
        coh = coherence_parameters(single_site(3, (-8, 8)))
        tt = np.linspace(0.0, 20.0, 21)
        assert np.allclose(expect_N(coh, DC, tt), 3.0, atol=1e-13)

    def test_dc_oscillation_width(self):
        # peak-to-peak 4 |g0/f0| sqrt(<C>^2 + <S>^2)
        s = gaussian_state(0, 4.0, 0.9, (-32, 32))
        coh = coherence_parameters(s)
        tt = np.linspace(0.0, 2 * np.pi, 4001)
        vals = expect_N(coh, DC, tt)
        width = float(np.max(vals) - np.min(vals))
        expected = 4.0 * np.hypot(coh.c_mean, coh.s_mean)
        assert width == pytest.approx(expected, rel=1e-6)

    def test_resonant_secular_slope(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        gamma = proto.drift_rate()
        s = gaussian_state(0, 4.0, 0.7, (-32, 32))
        coh = coherence_parameters(s)
        t = 400 * proto.period
        slope = float(expect_N(coh, proto, t)) / t
        assert slope == pytest.approx(-gamma * coh.s_mean, rel=0.02)

    def test_forms_agree(self):
        rng = np.random.default_rng(2)
        coh = coherence_parameters(random_state(rng, (-12, 12)))
        for proto in (DC, HarmonicDrive(1.0, 1.3, 1.0, 0.4)):
            tt = rng.uniform(0.0, 30.0, 50)
            a = expect_N(coh, proto, tt)
            b = expect_N_k(coh, proto, tt)
            assert np.max(np.abs(a - b)) < 1e-12


class TestVarianceN:
    def test_single_site_breathing_law(self):
        # Var(t) = 2 |chi|^2 = (8 g0^2/f0^2) sin^2(f0 t / 2)
        coh = coherence_parameters(single_site(0, (-8, 8)))
        tt = np.linspace(0.0, 12.0, 37)
        vals = variance_N(coh, DC, tt)
        expected = 8.0 * np.sin(tt / 2.0) ** 2
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_t0_value(self):
        rng = np.random.default_rng(3)
        coh = coherence_parameters(random_state(rng, (-9, 9)))
        assert variance_N(coh, DC, 0.0) == pytest.approx(coh.var_N, abs=1e-12)

    def test_forms_agree(self):
        rng = np.random.default_rng(4)
        coh = coherence_parameters(random_state(rng, (-12, 12)))
        for proto in (DC, HarmonicDrive(1.0, 0.9, 1.0, 0.6)):
            tt = rng.uniform(0.0, 30.0, 50)
            a = variance_N(coh, proto, tt)
            b = variance_N_moments(coh, proto, tt)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(5)
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.7)
        for _ in range(1000):
            coh = coherence_parameters(random_state(rng, (-6, 6)))
            t = rng.uniform(0.0, 40.0)
            assert variance_N(coh, proto, t) > -1e-10

    def test_resonant_quadratic_growth(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        gamma = proto.drift_rate()
        coh = coherence_parameters(single_site(0, (-4, 4)))
        d_ss = coh.cs_covariances[1, 1]
        t = 300 * proto.period
        assert float(variance_N(coh, proto, t)) / t ** 2 == pytest.approx(
            gamma ** 2 * d_ss, rel=0.02)


class TestOracleAgreement:
    def test_moments_match_integrated_states(self):
        rng = np.random.default_rng(6)
        cases = [
            (DCDrive(1.0, 0.8), gaussian_state(0, 3.0, 0.5, (-64, 64))),
            (HarmonicDrive(1.0, 1.2, 1.0, 0.4), single_site(0, (-64, 64))),
            (HarmonicDrive(1.2, 0.8, 0.9, 0.5),
             gaussian_state(2, 2.5, -0.8, (-64, 64))),
        ]
        for proto, s in cases:
            coh = coherence_parameters(s)
            times = np.sort(rng.uniform(0.5, 2 * proto.bloch_period, 3))
            for t, ref in zip(times, integrate_series(s, proto, times)):
                mean_ref, var_ref = moments_of(ref)
                assert float(expect_N(coh, proto, t)) == pytest.approx(
                    mean_ref, abs=1e-6)
                assert float(variance_N(coh, proto, t)) == pytest.approx(
                    var_ref, abs=1e-6)


class TestSeries:
    def test_bundle_is_consistent(self):
        s = gaussian_state(0, 3.0, 0.3, (-24, 24))
        coh = coherence_parameters(s)
        tt = np.linspace(0.0, 7.0, 15)
        series = observable_series(coh, DC, tt)
        assert np.allclose(series.expect_N,
                           np.asarray(expect_N(coh, DC, tt), dtype=float))
        assert np.allclose(series.var_K, coh.var_K)
        assert np.max(np.abs(2 * series.chi - (series.u - 1j * series.v))) < 1e-10

    @pytest.mark.parametrize("proto", [
        DC, HarmonicDrive(1.0, 1.3, 1.0, 0.4),
        FourierDrive(0.7, (0.8, -0.4), 1.3, 0.5),
        TabulatedDrive(np.linspace(0.0, 7.0, 29), 1.0 + 0.5 * np.sin(np.arange(29)),
                       0.5 + 0.1 * np.cos(np.arange(29)))],
        ids=["dc", "harmonic", "fourier", "tabulated"])
    def test_public_moments_equal_the_series(self, proto):
        coh = coherence_parameters(gaussian_state(1, 2.5, 0.4, (-24, 24)))
        tt = np.linspace(0.0, 7.0, 31)
        series = observable_series(coh, proto, tt)
        assert np.all(expect_N(coh, proto, tt) == series.expect_N)
        assert np.all(variance_N(coh, proto, tt) == series.var_N)
        assert np.all(expect_K(coh, proto, tt) == series.expect_K)


class TestModeClassification:
    def test_narrow_momentum_gaussian_oscillates(self):
        s = gaussian_state(0, 10.0, 0.4, (-64, 64))
        report = classify_mode(coherence_parameters(s))
        assert report.mode == "oscillating"

    def test_single_site_breathes(self):
        report = classify_mode(coherence_parameters(single_site(0, (-8, 8))))
        assert report.mode == "breathing"
        assert report.d_cc == pytest.approx(0.5)
        assert report.d_ss == pytest.approx(0.5)

    def test_two_site_is_mixed(self):
        s = state_from_amplitudes([1, 1], (0, 1))
        report = classify_mode(coherence_parameters(s))
        assert report.mode == "mixed"
        assert report.covariances.shape == (3, 3)


class TestLocalizationReport:
    def test_at_first_bessel_zero(self):
        proto = HarmonicDrive(1.0, bessel_zero(1, 1), 1.0, 0.5)
        report = localization_report(proto)
        assert report.localized
        assert report.order == 1
        assert not report.degenerate

    def test_off_zero(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 1.0)
        report = localization_report(proto)
        assert not report.localized
        assert report.gamma == pytest.approx(2.0 * bessel_j(1, 1.0), abs=1e-12)
        assert report.gamma == pytest.approx(0.880101171489866, abs=1e-10)
        # f1/omega = 1 lies below the first zero of J_1
        assert report.nearest_zeros == (pytest.approx(3.831705970207512,
                                                      abs=1e-10),)

    def test_flat_drive_flagged_degenerate(self):
        proto = HarmonicDrive(1.0, 0.0, 1.0, 0.7)
        report = localization_report(proto)
        assert report.localized and report.degenerate

    def test_degenerate_is_a_cosine_series_without_ac_field(self):
        flat = {"harmonic": HarmonicDrive(2.0, -0.0, 1.0, 0.7),
                "fourier": FourierDrive(2.0, (0.0, 0.0), 1.0, 0.7),
                "one mode on": FourierDrive(2.0, (0.0, 0.3), 1.0, 0.7),
                "order 0": FourierDrive(0.0, (0.0,), 1.0, 0.7)}
        degenerate = {k: localization_report(p).degenerate for k, p in flat.items()}
        assert degenerate == {"harmonic": True, "fourier": True,
                              "one mode on": False, "order 0": False}

    def test_slope_coefficient_with_state(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        coh = coherence_parameters(single_site(0, (-4, 4)))
        report = localization_report(proto, coh)
        assert report.var_slope_coefficient == pytest.approx(
            proto.drift_rate() ** 2 * 0.5, abs=1e-12)

    def test_nonresonant_rejected(self):
        with pytest.raises(ValueError):
            localization_report(HarmonicDrive(1.0, 1.0, 0.7, 1.0))

    @pytest.mark.parametrize("n,x,expected", [
        (1, 18.0, (4, 5)),      # between the 5th and 6th zeros of J_1
        (0, 0.5, (0,)),         # below the first zero
        (3, 200.0, (49,)),      # past j_{3,50}: only the last zero
        (50, 60.0, (0, 1)),     # n = 50, between its first two zeros
        (1, 3.831705970207512, (0, 1)),  # one ulp below j_{1,1}: at the zero
    ])
    def test_nearest_zeros_against_scipy(self, n, x, expected):
        sp = pytest.importorskip("scipy.special")
        reference = sp.jn_zeros(n, 50)
        report = localization_report(HarmonicDrive(float(n), x, 1.0, 0.5))
        assert len(report.nearest_zeros) == len(expected)
        for zero, k in zip(report.nearest_zeros, expected):
            assert zero == pytest.approx(reference[k], abs=1e-12)
        if len(expected) == 2:
            assert report.nearest_zeros[0] <= x * (1 + 1e-14)
            assert x < report.nearest_zeros[1]

    def test_no_zeros_past_order_50(self):
        report = localization_report(HarmonicDrive(51.0, 3.0, 1.0, 0.5))
        assert report.order == 51
        assert report.nearest_zeros == ()


class TestSingleBandMean:
    def test_matches_oracle_with_m3_coupling(self):
        disp = SingleBandDispersion((0.0, 0.4, 0.0, 0.2))
        proto = DCDrive(1.0, 0.0)
        s = gaussian_state(0, 2.5, 0.6, (-48, 48))
        for t in (0.7, 2.9):
            ref = integrate(s, proto, t, dispersion=disp)
            mean_ref, _ = moments_of(ref)
            assert expect_N_single_band(s, disp, proto, t) == pytest.approx(
                mean_ref, abs=1e-6)

    def test_m0_coupling_leaves_the_mean_alone(self):
        # g_0 shifts every energy by 2 Re g_0: a global phase, no drift of <N>
        shifted = SingleBandDispersion((0.3 - 0.2j, 0.4, 0.0, 0.2))
        plain = SingleBandDispersion((0.0, 0.4, 0.0, 0.2))
        proto = DCDrive(1.0, 0.0)
        s = gaussian_state(0, 2.5, 0.6, (-48, 48))
        for t in (0.7, 2.9):
            mean = expect_N_single_band(s, shifted, proto, t)
            assert mean == expect_N_single_band(s, plain, proto, t)
            mean_ref, _ = moments_of(integrate(s, proto, t, dispersion=shifted))
            assert mean == pytest.approx(mean_ref, abs=1e-6)

    def test_reduces_to_tight_binding_form(self):
        disp = SingleBandDispersion((0.0, 0.8))
        proto = DCDrive(1.0, 0.8)
        s = gaussian_state(0, 3.0, -0.2, (-32, 32))
        coh = coherence_parameters(s)
        for t in (0.9, 4.4):
            assert expect_N_single_band(s, disp, proto, t) == pytest.approx(
                float(expect_N(coh, proto, t)), abs=1e-12)
        # on a ring <K^m> takes the seam terms, as coherence_parameters' K does
        n = np.arange(-6, 6)
        ring = state_from_amplitudes(np.exp(0.7j * n) * (1.0 + 0.3 * np.cos(n)),
                                     (-6, 5), ring=True)
        proto = HarmonicDrive(0.8, 0.5, 1.1, 0.6)
        got = expect_N_single_band(ring, SingleBandDispersion((0.0, 0.6)), proto, 2.3)
        assert got == pytest.approx(float(expect_N_k(coherence_parameters(ring), proto,
                                                     2.3)), abs=1e-12)
