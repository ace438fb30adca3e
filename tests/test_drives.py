import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driventb
from driventb import (DCDrive, FourierDrive, HarmonicDrive, TabulatedDrive,
                      bessel_j, bessel_j_multivar, bessel_zero, drives)
from helpers import phase_ode, phase_ode_scalar

J1_ZERO = 3.831705970207512


def tabulated_copy(protocol, span, samples=4096, periodic=False):
    tt = np.linspace(0.0, span, samples + 1)
    return TabulatedDrive(tt, protocol.f(tt), protocol.g(tt), periodic=periodic)


class TestEta:
    def test_dc(self):
        dc = DCDrive(1.0, 1.0)
        assert dc.eta(2 * np.pi) == pytest.approx(2 * np.pi, abs=1e-14)

    def test_harmonic_sine_term_vanishes_at_full_period(self):
        h = HarmonicDrive(1.0, 0.5, 1.0, 1.0)
        assert h.eta(2 * np.pi) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_tabulated_copy_of_dc(self):
        tab = tabulated_copy(DCDrive(1.0, 1.0), 5.0)
        assert tab.eta(3.0) == pytest.approx(3.0, abs=1e-10)

    def test_fourier_matches_quadrature(self):
        fo = FourierDrive(0.7, (0.8, -0.4), 1.3, 0.5)
        (eta_ref, _), = phase_ode(fo, [4.1])
        assert fo.eta(4.1) == pytest.approx(eta_ref, abs=1e-9)


def test_phase_ode_matches_the_scalar_loop():
    # the array referee repeats the scalar RK4 loop's arithmetic bit for bit
    h = HarmonicDrive(1.3, 2.1, 0.9, 0.7)
    u = np.linspace(0.0, 2.0 * np.pi, 65)
    table = TabulatedDrive(u / 0.9, 1.0 + 0.5 * np.cos(u), 0.5 + 0.1 * np.sin(u),
                           periodic=True)
    for protocol, times in ((h, [0.5, 1.7, 4.1]), (table, [0.3, 2.0, 9.0])):
        assert phase_ode(protocol, times, 300) == phase_ode_scalar(protocol, times, 300)


class TestChi:
    def test_dc_at_pi(self):
        dc = DCDrive(1.0, 1.0)
        assert dc.chi(np.pi) == pytest.approx(-2.0j, abs=1e-13)

    def test_dc_at_bloch_period_vanishes(self):
        dc = DCDrive(1.0, 1.0)
        assert abs(dc.chi(2 * np.pi)) < 1e-13

    def test_dc_zero_field_limit(self):
        # branch continuity: chi -> g0 t (1 - i f0 t / 2) as f0 -> 0
        t = 3.0
        tiny = DCDrive(1e-9, 0.7)
        assert tiny.chi(t) == pytest.approx(
            0.7 * t * (1 - 0.5j * 1e-9 * t), abs=1e-12)
        assert DCDrive(0.0, 0.7).chi(t) == pytest.approx(0.7 * t, abs=1e-14)

    def test_dc_huge_phase_is_finite(self):
        # the series branch is evaluated only where |f0 t| < 1e-6
        chi = DCDrive(1e300, 1.0).chi(np.array([0.0, 1.0, 6.0]))
        assert np.all(np.isfinite(chi)) and chi[0] == 0.0

    def test_harmonic_bounded_at_localization_zero(self):
        h = HarmonicDrive(1.0, J1_ZERO, 1.0, 1.0)
        assert h.drift_rate() == pytest.approx(0.0, abs=1e-10)
        t = 199 * h.period
        # no secular term: chi is T-periodic there
        assert abs(h.chi(t + h.period) - h.chi(t)) < 1e-8
        assert abs(h.chi(200 * h.period)) < 5.0

    def test_harmonic_against_ode_oracle_long_time(self):
        h = HarmonicDrive(1.0, J1_ZERO, 1.0, 1.0)
        t = 20 * h.period
        (_, chi_ref), = phase_ode(h, [t])
        assert abs(h.chi(t) - chi_ref) < 1e-7


class TestClosedFormsVsQuadrature:
    @pytest.mark.parametrize("protocol", [
        DCDrive(0.9, 0.6),
        HarmonicDrive(1.0, 1.4, 1.0, 0.5),       # resonant n = 1
        HarmonicDrive(1.0, 1.0, 0.7, 0.4),       # non-resonant
        FourierDrive(1.0, (0.8, -0.4), 0.5, 0.3),  # resonant n = 2
        FourierDrive(0.55, (1.1, 0.3), 0.8, 0.45),  # non-resonant
    ], ids=["dc", "harmonic-res", "harmonic-off", "fourier-res", "fourier-off"])
    def test_chi_matches_ode_oracle(self, protocol):
        rng = np.random.default_rng(42)
        t_b = protocol.bloch_period or 2 * np.pi
        times = np.sort(rng.uniform(0.0, 10 * t_b, 100))
        reference = phase_ode(protocol, times, steps_per_unit=800)
        for t, (eta_ref, chi_ref) in zip(times, reference):
            assert abs(protocol.eta(t) - eta_ref) < 1e-8
            assert abs(protocol.chi(t) - chi_ref) < 1e-8


class TestUV:
    def test_dc_closed_form_at_pi(self):
        u, v = DCDrive(1.0, 1.0).uv(np.pi)
        assert u == pytest.approx(0.0, abs=1e-13)
        assert v == pytest.approx(4.0, abs=1e-13)

    def test_zero_time(self):
        for proto in (DCDrive(1.0, 1.0), HarmonicDrive(1.0, 1.0, 1.0, 1.0)):
            u, v = proto.uv(0.0)
            assert float(u) == pytest.approx(0.0, abs=1e-15)
            assert float(v) == pytest.approx(0.0, abs=1e-15)

    def test_zero_hopping(self):
        proto = DCDrive(1.3, 0.0)
        tt = np.linspace(0.0, 10.0, 11)
        u, v = proto.uv(tt)
        assert np.allclose(u, 0.0) and np.allclose(v, 0.0)

    @pytest.mark.parametrize("protocol", [
        DCDrive(0.8, 0.5),
        HarmonicDrive(1.0, 2.0, 1.0, 0.7),
        FourierDrive(1.0, (0.5, 0.25), 1.0, 0.6),
    ], ids=["dc", "harmonic", "fourier"])
    def test_identity_two_chi_equals_u_minus_iv(self, protocol):
        tt = np.linspace(0.0, 15.0, 40)
        u, v = protocol.uv(tt)
        resid = np.abs(2.0 * protocol.chi(tt) - (np.asarray(u) - 1j * np.asarray(v)))
        assert np.max(resid) < 1e-10

    @pytest.mark.parametrize("f0,g0", [(0.8, 0.5), (1.0, 1.0), (-2.3, 0.7),
                                       (0.0, 0.4)])
    def test_dc_closed_form_referees_two_chi(self, f0, g0):
        # the dc closed form of (u, v), written out here apart from chi
        tt = np.linspace(0.0, 15.0, 40)
        if f0 == 0.0:
            u, v = 2.0 * g0 * tt, np.zeros(tt.shape)
        else:
            u = 2.0 * g0 / f0 * np.sin(f0 * tt)
            v = 2.0 * g0 / f0 * (1.0 - np.cos(f0 * tt))
        proto = DCDrive(f0, g0)
        assert np.max(np.abs(2.0 * proto.chi(tt) - (u - 1j * v))) < 1e-13
        pu, pv = proto.uv(tt)
        assert np.max(np.abs(pu - u)) < 1e-13 and np.max(np.abs(pv - v)) < 1e-13
        assert proto.uv(tt[7]) == pytest.approx((u[7], v[7]), abs=1e-13)

    def test_scalar_uv_matches_chi(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
        u, v = proto.uv(2.7)
        assert 2.0 * proto.chi(2.7) == pytest.approx(u - 1j * v, abs=1e-12)


class TestFourierAmplitude:
    def test_flat_drive_has_empty_band(self):
        h = HarmonicDrive(1.0, 0.0, 1.0, 0.8)
        assert abs(h.fourier_amplitude(1)) < 1e-12
        assert h.fourier_amplitude(0) == pytest.approx(0.8, abs=1e-11)

    def test_harmonic_resonant_coefficient(self):
        h = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
        a1 = h.fourier_amplitude(1)
        assert a1.real == pytest.approx(0.25 * bessel_j(1, 1.0), abs=1e-11)
        assert a1.real == pytest.approx(0.1100126464362334, abs=1e-10)
        assert abs(a1.imag) < 1e-11

    def test_fourier_resonant_coefficient_is_multivar_bessel(self):
        fo = FourierDrive(1.0, (0.8, -0.4), 1.0, 0.5)
        n = fo.resonance_order()
        assert n == 1
        a_n = fo.fourier_amplitude(n)
        # the +cos field convention puts J_{-n}({beta}) = J_n({-beta}) here
        expected = 0.5 * bessel_j_multivar(n, -fo.betas)
        assert a_n.real == pytest.approx(expected, abs=1e-10)
        assert abs(a_n.imag) < 1e-10
        # and it must equal the secular growth of chi over one period
        t0 = 2.2
        growth = (fo.chi(t0 + fo.period) - fo.chi(t0)) / fo.period
        assert growth == pytest.approx(a_n, abs=1e-10)

    def test_aperiodic_protocol_rejected(self):
        with pytest.raises(ValueError):
            DCDrive(1.0, 1.0).fourier_amplitude(1)

    def test_aperiodic_table_rejected(self):
        tt = np.linspace(0.0, 3.0, 7)
        tab = TabulatedDrive(tt, np.ones(7), np.full(7, 0.5))
        assert tab.period is None and tab.resonance_order() is None
        with pytest.raises(ValueError, match="requires a periodic protocol"):
            tab.fourier_amplitude(1)


class TestResonanceAndDrift:
    def test_drift_harmonic(self):
        h = HarmonicDrive(2.0, 1.0, 2.0, 1.0)
        assert h.resonance_order() == 1
        assert h.drift_rate() == pytest.approx(2.0 * bessel_j(1, 0.5), abs=1e-12)
        assert h.drift_rate() == pytest.approx(0.48453691534974776, abs=1e-12)

    def test_drift_vanishes_at_bessel_zero(self):
        h = HarmonicDrive(1.0, bessel_zero(1, 1), 1.0, 0.9)
        assert abs(h.drift_rate()) < 1e-10

    def test_nonresonant_drift_zero(self):
        h = HarmonicDrive(1.0, 1.0, 0.7, 1.0)
        assert h.resonance_order() is None
        assert h.drift_rate() == 0.0

    def test_dc_zero_field_is_secular(self):
        assert DCDrive(0.0, 0.7).drift_rate() == pytest.approx(1.4)
        assert DCDrive(1.0, 0.7).drift_rate() == 0.0

    def test_pure_ac_drive_has_order_zero(self):
        h = HarmonicDrive(0.0, 1.0, 1.0, 0.5)
        assert h.resonance_order() == 0
        assert h.drift_rate() == pytest.approx(bessel_j(0, 1.0), abs=1e-12)

    def test_near_resonance_is_continuous(self):
        exact = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
        near = HarmonicDrive(1.0, 1.0, 1.0 + 1e-6, 0.25)
        assert near.resonance_order() is None
        t = 20.0
        assert abs(exact.chi(t) - near.chi(t)) < 1e-3

    def test_complex_coefficient_drifts_at_twice_its_modulus(self):
        # f = 1 + 0.7 sin t + 0.4 cos 2t, g = 0.5 + 0.2 sin t: w_B = w = 1, and
        # a_1 = (1/T) int g exp(-i (eta~ + t)) dt is complex
        tt = np.linspace(0.0, 2.0 * np.pi, 1025)
        tab = TabulatedDrive(tt, 1.0 + 0.7 * np.sin(tt) + 0.4 * np.cos(2.0 * tt),
                             0.5 + 0.2 * np.sin(tt), periodic=True)
        assert tab.resonance_order() == 1
        u = np.linspace(0.0, 2.0 * np.pi, 200001)
        tilde = 0.7 * (1.0 - np.cos(u)) + 0.2 * np.sin(2.0 * u)
        reference = np.trapezoid((0.5 + 0.2 * np.sin(u)) * np.exp(-1j * (tilde + u)),
                                 u) / (2.0 * np.pi)
        a = tab.fourier_amplitude(1)
        assert abs(a - reference) < 1e-6
        assert a.real == pytest.approx(0.0285, abs=1e-4)
        assert a.imag == pytest.approx(0.0339, abs=1e-4)
        assert tab.drift_rate() == 2.0 * abs(a)

    def test_resonant_decomposition(self):
        # chi(t + T) - chi(t) = a_n T, eta(t + T) - eta(t) = w_B T
        rng = np.random.default_rng(5)
        for proto in (HarmonicDrive(1.0, 1.3, 1.0, 0.5),
                      FourierDrive(2.0, (0.6, 0.8), 1.0, 0.4)):
            n = proto.resonance_order()
            a_n = proto.fourier_amplitude(n)
            for t in rng.uniform(0.0, 20.0, 6):
                assert abs(proto.chi(t + proto.period) - proto.chi(t)
                           - a_n * proto.period) < 1e-8
                assert abs(proto.eta(t + proto.period) - proto.eta(t)
                           - proto.omega_bloch * proto.period) < 1e-10


class TestTabulated:
    def test_contract_against_ode_on_interpolant(self):
        src = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        tab = tabulated_copy(src, src.period, samples=512, periodic=True)
        times = [0.7, 3.1, 5.9]
        reference = phase_ode(tab, times, steps_per_unit=2500)
        for t, (eta_ref, chi_ref) in zip(times, reference):
            assert abs(tab.eta(t) - eta_ref) < 1e-9
            assert abs(tab.chi(t) - chi_ref) < 1e-9

    def test_periodic_extension(self):
        src = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        tab = tabulated_copy(src, src.period, samples=512, periodic=True)
        t = 2.5 + 3 * tab.period
        (eta_ref, chi_ref), = phase_ode(tab, [t], steps_per_unit=2500)
        assert abs(tab.eta(t) - eta_ref) < 1e-9
        assert abs(tab.chi(t) - chi_ref) < 5e-9

    def test_tracks_the_source_closed_form(self):
        # a resonant source (w_B / w = 1) and a non-resonant one
        for src, order in ((HarmonicDrive(1.0, 1.0, 1.0, 0.5), 1),
                           (HarmonicDrive(1.37, 2.2, 1.0, 0.5), None)):
            tab = tabulated_copy(src, src.period, samples=16384, periodic=True)
            for t in (1.1, 4.2, 9.7):
                assert abs(tab.chi(t) - src.chi(t)) < 1e-6
            assert tab.resonance_order() == order
            for nu in (-2, 0, 1, 3):
                assert tab.fourier_amplitude(nu) == pytest.approx(
                    src.fourier_amplitude(nu), abs=1e-7)

    def test_from_files_round_trip(self, tmp_path):
        tt = np.linspace(0.0, 2.0, 33)
        f_vals = 1.0 + 0.1 * tt
        g_vals = 0.5 * np.ones_like(tt)
        np.savetxt(tmp_path / "f.txt", np.column_stack([tt, f_vals]))
        np.savetxt(tmp_path / "g.txt", np.column_stack([tt, g_vals]))
        tab = TabulatedDrive.from_files(tmp_path / "f.txt", tmp_path / "g.txt")
        assert tab.f(1.0) == pytest.approx(1.1, abs=1e-12)
        assert tab.eta(2.0) == pytest.approx(2.0 + 0.1 * 2.0, abs=1e-12)

    def test_validation(self):
        good_t = np.array([0.0, 1.0, 2.0])
        ones = np.ones(3)
        with pytest.raises(ValueError):
            TabulatedDrive(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            TabulatedDrive(np.array([0.0, 2.0, 1.0]), ones, ones)
        with pytest.raises(ValueError):
            TabulatedDrive(np.array([0.5, 1.0, 2.0]), ones, ones)
        with pytest.raises(ValueError):
            TabulatedDrive(good_t, np.ones(2), ones)
        tab = TabulatedDrive(good_t, ones, ones)
        with pytest.raises(ValueError):
            tab.chi(3.0)       # beyond horizon, aperiodic
        with pytest.raises(ValueError):
            tab.eta(-1.0)

    def test_mismatched_file_grids_rejected(self, tmp_path):
        np.savetxt(tmp_path / "f.txt",
                   np.column_stack([np.linspace(0, 1, 5), np.ones(5)]))
        np.savetxt(tmp_path / "g.txt",
                   np.column_stack([np.linspace(0, 2, 5), np.ones(5)]))
        with pytest.raises(ValueError):
            TabulatedDrive.from_files(tmp_path / "f.txt", tmp_path / "g.txt")


class TestIntExpEta:
    def test_dc_scaled(self):
        dc = DCDrive(0.8, 0.3)
        t = 2.1
        for m in (1, 2, 3):
            expected = (1.0 - np.exp(-1j * m * 0.8 * t)) / (1j * m * 0.8)
            assert dc.int_exp_eta(t, m) == pytest.approx(expected, abs=1e-13)

    def test_harmonic_scaled_matches_quadrature(self):
        h = HarmonicDrive(1.0, 0.9, 1.0, 0.5)
        t = 3.7
        for m in (2, 3):
            nodes = 1 << 15
            tau = np.linspace(0.0, t, nodes + 1)
            vals = np.exp(-1j * m * h.eta(tau))
            oracle = np.trapezoid(vals, tau)
            assert h.int_exp_eta(t, m) == pytest.approx(oracle, abs=1e-8)


class TestTruncation:
    """Every Bessel series keeps all coefficients >= 1e-17 (ROADMAP item 3)."""

    @given(beta=st.floats(0.0, 2e4))
    @example(beta=1e3)
    @example(beta=5e3)
    @example(beta=2e4)
    def test_harmonic_coefficients_satisfy_parseval(self, beta):
        h = HarmonicDrive(1.0, 0.7 * beta, 0.7, 0.5)
        _, coeff = h._exp_eta_coefficients(1.0)
        assert abs(np.sum(np.abs(coeff) ** 2) - 1.0) < 1e-13

    def test_fourier_coefficients_keep_the_strong_third_mode(self):
        sp = pytest.importorskip("scipy.special")
        fo = FourierDrive(1.0, (5.0, 0.0, 30.0), 1.0, 0.5)
        assert np.allclose(fo.betas, (5.0, 0.0, 10.0), rtol=0.0, atol=1e-15)
        offset, coeff = fo._exp_eta_coefficients(1.0)
        assert abs(np.sum(np.abs(coeff) ** 2) - 1.0) < 1e-13
        # referee: exp(-i (5 sin u + 10 sin 3u)) convolved from scipy's J_k
        k = np.arange(-80, 81)

        def reference(nu):
            return float(np.sum(sp.jv(nu - 3 * k, -5.0) * sp.jv(k, -10.0)))

        for nu in (-offset, offset):
            assert coeff[offset + nu] == pytest.approx(reference(nu), rel=1e-9)
        assert abs(reference(-offset - 1)) < 1e-17
        assert abs(reference(offset + 1)) < 1e-17


def _periodic_drive(kind, n, eps, beta, omega):
    """A harmonic or two-mode Fourier drive with w_B / w = n + eps."""
    f0 = (n + eps) * omega
    if kind == "harmonic":
        return HarmonicDrive(f0, beta * omega, omega, 0.5)
    return FourierDrive(f0, (beta * omega, -0.7 * beta * omega), omega, 0.5)


def _stacked(first_period, period, k, s):
    """chi(k T + s) by stacking k whole periods one at a time:
    chi(T) sum_{j<k} q^j + q^k chi(s), q = exp(-i eta(T)), from a drive
    that is only asked for times in [0, T]."""
    q = complex(np.exp(-1j * first_period.eta(period)))
    power, total = 1.0 + 0.0j, 0.0j
    for _ in range(k):
        total += power
        power *= q
    return first_period.chi(period) * total + power * first_period.chi(s)


drive_kinds = st.sampled_from(("harmonic", "fourier"))
offsets = st.one_of(st.just(0.0), st.floats(1e-9, 1e-2), st.floats(-1e-2, -1e-9))


class TestNearResonanceAndLongTimes:
    """w_B / w = n +- eps down to eps = 1e-9, and up to 1e3 drive periods."""

    @settings(max_examples=25)
    @given(kind=drive_kinds, n=st.integers(0, 3), eps=offsets,
           beta=st.floats(0.2, 3.0), frac=st.floats(0.0, 2.0))
    @example(kind="harmonic", n=1, eps=1e-9, beta=1.3, frac=2.0)
    @example(kind="fourier", n=2, eps=-1e-9, beta=2.5, frac=1.5)
    def test_chi_matches_ode_over_two_periods(self, kind, n, eps, beta, frac):
        protocol = _periodic_drive(kind, n, eps, beta, omega=1.1)
        t = frac * protocol.period
        (_, chi_ref), = phase_ode(protocol, [t], steps_per_unit=300)
        assert abs(protocol.chi(t) - chi_ref) < 1e-8

    @given(kind=drive_kinds, n=st.integers(0, 3), eps=offsets,
           beta=st.floats(0.2, 3.0), k=st.integers(1, 1000),
           frac=st.floats(0.0, 1.0))
    @example(kind="harmonic", n=1, eps=1e-9, beta=1.3, k=1000, frac=0.37)
    @example(kind="fourier", n=0, eps=0.0, beta=2.0, k=1000, frac=0.81)
    def test_chi_at_long_times_stacks_whole_periods(self, kind, n, eps, beta,
                                                    k, frac):
        protocol = _periodic_drive(kind, n, eps, beta, omega=1.1)
        s = frac * protocol.period
        chi = protocol.chi(k * protocol.period + s)
        reference = _stacked(protocol, protocol.period, k, s)
        assert abs(chi - reference) < 1e-9 * max(1.0, abs(reference))
        if eps == 0.0:
            # resonant: chi(t + T) - chi(t) = a_n T with a_n by quadrature
            a_n = protocol.fourier_amplitude(n)
            assert abs(protocol.chi(protocol.period) - a_n * protocol.period) < 1e-10

    def test_off_resonant_chi_keeps_full_precision(self):
        # referee: the term-by-term sum of g0 J_nu(beta) int exp(-i d_nu t)
        sp = pytest.importorskip("scipy.special")
        h = HarmonicDrive(1.37, 1.05, 1.0, 0.7)
        t = np.linspace(0.0, 50 * h.period, 701)
        d = h.f0 - np.arange(-30, 31)[:, None] * h.omega
        terms = (sp.jv(np.arange(-30, 31), h.f1 / h.omega)[:, None]
                 * (1 - np.exp(-1j * d * t)) / (1j * d))
        assert np.max(np.abs(h.chi(t) - h.g0 * terms.sum(axis=0))) < 1e-13

    @pytest.mark.parametrize("kind", ["harmonic", "fourier"])
    def test_grid_and_scalar_calls_agree(self, kind):
        protocol = _periodic_drive(kind, 1, 1e-7, 1.7, omega=0.9)
        times = np.linspace(0.0, 1e3 * protocol.period, 2001)
        grid = protocol.chi(times)
        scalar = np.array([protocol.chi(t) for t in times[::50]])
        assert np.max(np.abs(grid[::50] - scalar)) < 1e-10 * np.max(np.abs(grid))


class TestTabulatedManyPeriods:
    """Whole periods of a periodic table against its aperiodic twin."""

    @staticmethod
    def tables(times, f, g):
        return (TabulatedDrive(times, f, g, periodic=True),
                TabulatedDrive(times, f, g, periodic=False))

    def smooth(self, f_mean):
        tt = np.linspace(0.0, 6.0, 65)
        u = 2 * np.pi * tt / 6.0
        f = f_mean + 0.9 * np.cos(u + 0.4) + 0.3 * np.cos(2 * u)
        g = 0.5 + 0.1 * np.sin(u)
        f[-1], g[-1] = f[0], g[0]
        return self.tables(tt, f, g)

    @pytest.mark.parametrize("periods", [1000, 100000])
    @pytest.mark.parametrize("f_mean", [1.1, 0.0])
    def test_chi_matches_period_stacking(self, periods, f_mean):
        tab, first = self.smooth(f_mean)
        for s in (0.0, 2.345, 5.9):
            reference = _stacked(first, tab.period, periods, s)
            chi = tab.chi(periods * tab.period + s)
            assert abs(chi - reference) < 1e-9 * max(1.0, abs(reference))

    def test_zero_mean_table_grows_linearly(self):
        # eta(T) = 0 exactly: q = 1 and chi(k T + s) = k chi(T) + chi(s)
        tab, first = self.tables(np.linspace(0.0, 4.0, 5),
                                 [0.0, 1.0, 0.0, -1.0, 0.0], np.full(5, 0.5))
        assert tab.eta(tab.period) == 0.0
        k, s = 100000, 1.3
        expected = _stacked(first, tab.period, k, s)
        assert expected == pytest.approx(k * first.chi(4.0) + first.chi(s))
        assert abs(tab.chi(k * tab.period + s) - expected) < 1e-9 * abs(expected)
        # a_nu T is chi(T) of the table with f shifted by nu w - w_B; panels
        # sized by |f| alone would turn that phase by up to 63 rad at nu = 40
        for nu in (-40, -5, 0, 5, 40):
            shifted = TabulatedDrive(first.times, first.f_values + nu * tab.omega,
                                     first.g_values)
            assert abs(tab.fourier_amplitude(nu) * tab.period
                       - shifted.chi(tab.period)) < 1e-13

    def test_coarse_table_in_a_strong_field(self):
        # 20 to 30 rad of phase per segment: each segment needs many panels
        tt = np.linspace(0.0, 3.0, 4)
        tab, _ = self.tables(tt, [20.0, 30.0, -25.0, 20.0], [0.5, 0.2, 0.7, 0.5])
        # checkpoints on every kink keep the RK4 referee at full order
        times = [0.8, 1.0, 2.0, 2.9, 3.0, 4.0, 4.7]
        reference = phase_ode(tab, times, steps_per_unit=4000)
        for t, (_, chi_ref) in zip(times, reference):
            assert abs(tab.chi(t) - chi_ref) < 1e-9

    def test_grid_and_scalar_calls_agree(self):
        tab, _ = self.smooth(1.1)
        times = np.linspace(0.0, 30 * tab.period, 801)
        grid = tab.chi(times)
        for t, value in zip(times[::40], grid[::40]):
            assert tab.chi(t) == pytest.approx(value, abs=1e-13)


class TestHarmonicIsTheOneModeSeries:
    """HarmonicDrive(f0, f1, w, g0) is FourierDrive(f0, (-f1,), w, g0) with
    its own Bessel kernel J_nu(s f1/w) and its own |f1/w| < 1e6 range."""

    @staticmethod
    def pairs(count=60, seed=16):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            omega = rng.uniform(0.3, 3.0)
            f0 = rng.choice([0.0, omega * rng.integers(0, 4), rng.uniform(-3.0, 3.0)])
            f1, g0 = rng.uniform(-20.0, 20.0), rng.uniform(-1.0, 1.0)
            yield (HarmonicDrive(f0, f1, omega, g0),
                   FourierDrive(f0, (-f1,), omega, g0), rng.uniform(0.0, 50.0, 9))

    def test_bit_identical_at_scale_one(self):
        for h, fo, t in self.pairs():
            for name in ("f", "eta", "chi"):
                assert np.array_equal(getattr(h, name)(t), getattr(fo, name)(t)), name
                assert getattr(h, name)(t[0]) == getattr(fo, name)(t[0]), name
            assert h.fourier_amplitude(1) == fo.fourier_amplitude(1)

    def test_band_weights_agree_to_1e_13(self):
        # the kernels round s f1/w and s (f1/w) apart, hence not bit for bit
        for h, fo, t in self.pairs():
            for weight in (2.0, 3.0, 4.0):
                assert np.max(np.abs(h.int_exp_eta(t, weight)
                                     - fo.int_exp_eta(t, weight))) <= 1e-13

    def test_is_a_fourier_drive(self):
        h = HarmonicDrive(1.0, 2.0, 1.5, 0.5)
        assert isinstance(h, FourierDrive)
        assert h.modes == (-2.0,)
        assert repr(h) == "HarmonicDrive(f0=1.0, modes=(-2.0,), omega=1.5, g0=0.5)"
        assert h == HarmonicDrive(1.0, 2.0, 1.5, 0.5)
        assert hash(h) == hash(HarmonicDrive(1.0, 2.0, 1.5, 0.5))
        assert h != FourierDrive(1.0, (-2.0,), 1.5, 0.5)

    @pytest.mark.parametrize("f1", [2.5, -2.5, 0.0, -0.0, 0, 3, 1e-300, 5e5])
    def test_f1_round_trips(self, f1):
        h = HarmonicDrive(1.0, f1, 1.0, 0.5)
        assert h.f1 == f1 and np.signbit(h.f1) == np.signbit(f1)
        assert type(h.f1) is float
        with pytest.raises(AttributeError):
            h.f1 = 1.0

    @pytest.mark.parametrize("x", [1e3, 2e3, 9.99e5])
    def test_f1_past_the_fourier_range_builds(self, x):
        h = HarmonicDrive(1.0, 0.5 * x, 0.5, 0.5)
        with pytest.raises(ValueError, match="modes must satisfy"):
            FourierDrive(1.0, (-0.5 * x,), 0.5, 0.5)
        if x < 1e4:  # the kernel reaches past the multivariate cap
            _, coeff = h._exp_eta_coefficients(1.0)
            assert abs(np.sum(np.abs(coeff) ** 2) - 1.0) < 1e-13

    @pytest.mark.parametrize("args,needle", [
        ((np.nan, np.nan, 1.0, 0.5), "^f1 must be finite$"),
        ((1.0, np.inf, 1.0, 0.5), "^f1 must be finite$"),
        ((np.nan, 1.0, 1.0, 0.5), "^f0 must be finite$"),
        ((1.0, 1e6, 1.0, 0.5), r"^f1 must satisfy \|f1/omega\| < 1e6$"),
        ((1.0, -2e6, 2.0, 0.5), r"^f1 must satisfy \|f1/omega\| < 1e6$"),
        ((1.0, 1.0, 0.0, 0.5), "^omega must be positive$")])
    def test_errors_name_f1(self, args, needle):
        with pytest.raises(ValueError, match=needle):
            HarmonicDrive(*args)

    def test_band_weight_errors_name_f1(self):
        h = HarmonicDrive(1.0, 4e5, 1.0, 0.5)
        h.check_scale(2.0)
        with pytest.raises(ValueError, match=r"^f1 must satisfy .* at band weight 3$"):
            h.check_scale(3.0)


class TestImports:
    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert drives._GL_NODES.tobytes() == nodes.tobytes()
        assert drives._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_import_leaves_out_numpy_polynomial(self):
        # numpy loads it on first use only; a fresh interpreter, since this
        # one has it from the test above
        code = ("import sys, driventb, driventb.cli; "
                "print('numpy.polynomial' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(driventb.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout == "False\n"
