import numpy as np
import pytest

from driventb import (DCDrive, HarmonicDrive, WindowLeakError, bessel_j,
                      floquet_state, gaussian_state, houston_state,
                      integrate_series, invariant_expectation,
                      invariant_lambda, quasienergy, quasienergy_band)
from driventb.lattice import coherence_parameters
from driventb.oracle import apply_hamiltonian

HARMONIC = HarmonicDrive(1.0, 1.0, 1.0, 0.25)


def ring_window(length):
    return (-(length // 2), length - length // 2 - 1)


class TestQuasienergy:
    def test_flat_band_without_ac(self):
        proto = HarmonicDrive(1.0, 0.0, 1.0, 0.5)
        kappa = np.linspace(-np.pi, np.pi, 17)
        assert np.max(np.abs(quasienergy(proto, kappa))) < 1e-11

    def test_band_center_value(self):
        assert float(quasienergy(HARMONIC, 0.0)) == pytest.approx(
            2 * 0.25 * bessel_j(1, 1.0), abs=1e-10)

    def test_band_properties(self):
        band = quasienergy_band(HARMONIC)
        kappa = np.linspace(-np.pi, np.pi, 721)
        eps = band.epsilon(kappa)
        assert np.max(eps) - np.min(eps) == pytest.approx(band.bandwidth,
                                                          abs=1e-4)
        assert band.bandwidth == pytest.approx(2 * abs(HARMONIC.drift_rate()),
                                               abs=1e-10)
        # 2 pi periodicity
        assert band.epsilon(1.3) == pytest.approx(band.epsilon(1.3 + 2 * np.pi),
                                                  abs=1e-12)

    def test_nonresonant_rejected(self):
        with pytest.raises(ValueError):
            quasienergy(HarmonicDrive(1.0, 1.0, 0.7, 0.5), 0.0)


class TestHoustonStates:
    def test_initial_bloch_wave(self):
        L = 16
        kappa = 2 * np.pi * 3 / L
        s = houston_state(kappa, HARMONIC, 0.0, ring_window(L), ring=True)
        expected = np.exp(1j * kappa * s.sites) / np.sqrt(L)
        assert np.max(np.abs(s.amplitudes - expected)) < 1e-14

    def test_open_window_modulus(self):
        s = houston_state(0.7, HARMONIC, 1.3, (-8, 8))
        assert np.allclose(np.abs(s.amplitudes), 1 / np.sqrt(2 * np.pi),
                           atol=1e-14)

    def test_shift_eigenvalue_at_grid_times(self):
        # exact cyclic-shift eigenvalue when eta_t is a multiple of 2 pi / L
        from driventb import apply_shift

        L = 16
        dc = DCDrive(1.0, 1.0)
        kappa = 2 * np.pi * 5 / L
        for k_grid in (3, 7):
            t = 2 * np.pi * k_grid / L  # eta = t for f0 = 1
            state = houston_state(kappa, dc, t, ring_window(L), ring=True)
            kappa_t = kappa - float(dc.eta(t))
            shifted = apply_shift(state, 1)
            assert np.max(np.abs(shifted.amplitudes
                                 - np.exp(1j * kappa_t) * state.amplitudes)) < 1e-12

    def test_shift_eigenvalue_generic_time_with_twist(self):
        L = 16
        t = 1.234
        kappa = 2 * np.pi * 2 / L
        state = houston_state(kappa, HARMONIC, t, ring_window(L), ring=True)
        kappa_t = kappa - float(HARMONIC.eta(t))
        rolled = np.roll(state.amplitudes, -1)
        rolled[-1] *= np.exp(-1j * L * float(HARMONIC.eta(t)))  # seam twist
        assert np.max(np.abs(rolled - np.exp(1j * kappa_t) * state.amplitudes)) < 1e-12

    def test_quasiperiodicity(self):
        L = 16
        kappa = 2 * np.pi * 4 / L
        t = 0.9
        T = HARMONIC.period
        eps = float(quasienergy(HARMONIC, kappa))
        a = houston_state(kappa, HARMONIC, t + T, ring_window(L), ring=True)
        b = houston_state(kappa, HARMONIC, t, ring_window(L), ring=True)
        assert np.max(np.abs(a.amplitudes
                             - np.exp(-1j * eps * T) * b.amplitudes)) < 1e-8

    def test_schrodinger_residual(self):
        L = 32
        kappa = 2 * np.pi * 5 / L
        t, dt = 1.37, 1e-4
        win = ring_window(L)
        minus = houston_state(kappa, HARMONIC, t - dt, win, ring=True)
        zero = houston_state(kappa, HARMONIC, t, win, ring=True)
        plus = houston_state(kappa, HARMONIC, t + dt, win, ring=True)
        dpsi = (plus.amplitudes - minus.amplitudes) / (2 * dt)
        hpsi = apply_hamiltonian(zero, HARMONIC, t).amplitudes
        assert np.linalg.norm(1j * dpsi - hpsi) < 1e-5


class TestFloquetStates:
    def test_equals_bloch_wave_at_full_period(self):
        L = 16
        kappa = 2 * np.pi * 6 / L
        s = floquet_state(kappa, HARMONIC, HARMONIC.period, ring_window(L),
                          ring=True)
        expected = np.exp(1j * kappa * s.sites) / np.sqrt(L)
        assert np.max(np.abs(s.amplitudes - expected)) < 1e-10

    def test_periodic_over_three_periods(self):
        L = 16
        kappa = 2 * np.pi * 2 / L
        t = 0.4
        a = floquet_state(kappa, HARMONIC, t, ring_window(L), ring=True)
        b = floquet_state(kappa, HARMONIC, t + 3 * HARMONIC.period,
                          ring_window(L), ring=True)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-8

    def test_flat_band_floquet_equals_houston(self):
        proto = HarmonicDrive(1.0, 0.0, 1.0, 0.4)
        L = 16
        kappa = 2 * np.pi * 3 / L
        a = floquet_state(kappa, proto, 2.2, ring_window(L), ring=True)
        b = houston_state(kappa, proto, 2.2, ring_window(L), ring=True)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


class TestInvariant:
    def test_lambda_at_zero(self):
        coeff = invariant_lambda(DCDrive(1.0, 1.0), 0.0)
        assert coeff.lam == 0.0
        assert coeff.gamma == 1.0

    def test_lambda_dc_value(self):
        # -i e^{i pi} chi(pi) with chi = -2i gives +2
        coeff = invariant_lambda(DCDrive(1.0, 1.0), np.pi)
        assert coeff.lam == pytest.approx(2.0 + 0.0j, abs=1e-12)

    def test_lambda_solves_its_ode(self):
        # lambda' = i (f lambda - g), finite differences
        proto = HarmonicDrive(1.0, 0.8, 1.0, 0.5)
        dt = 1e-5
        for t in (0.7, 2.9, 5.3):
            lam_m = invariant_lambda(proto, t - dt).lam
            lam_p = invariant_lambda(proto, t + dt).lam
            deriv = (lam_p - lam_m) / (2 * dt)
            lam = invariant_lambda(proto, t).lam
            rhs = 1j * (float(proto.f(t)) * lam - float(proto.g(t)))
            assert abs(deriv - rhs) < 1e-6

    def test_conserved_under_closed_form_evolution(self):
        s = gaussian_state(1, 3.0, 0.8, (-48, 48))
        n0 = coherence_parameters(s).n_mean
        for proto in (DCDrive(1.0, 1.0), HARMONIC):
            for t in (0.3, 1.7, 2 * np.pi):
                assert invariant_expectation(s, proto, t) == pytest.approx(
                    n0, abs=1e-8)

    def test_conserved_under_oracle_evolution(self):
        s = gaussian_state(0, 2.5, -0.6, (-40, 40))
        n0 = coherence_parameters(s).n_mean
        proto = HARMONIC
        times = [0.8, 2.9, 5.5]
        for t, psi in zip(times, integrate_series(s, proto, times)):
            lam = invariant_lambda(proto, t).lam
            c = psi.amplitudes
            k_t = complex(np.sum(np.conj(c[:-1]) * c[1:]))
            n_t = float(np.sum(psi.sites * psi.probabilities))
            value = n_t + 2 * (lam * k_t).real
            assert value == pytest.approx(n0, abs=1e-7)

    @pytest.mark.parametrize("proto", [DCDrive(1.0, 1.0), HARMONIC,
                                       HarmonicDrive(1.0, 3.0, 1.0, 0.4)],
                             ids=["dc", "harmonic", "harmonic-strong"])
    def test_array_and_scalar_calls_agree(self, proto):
        s = gaussian_state(1, 3.0, 0.8, (-64, 64))
        times = np.linspace(0.0, 4 * np.pi, 9).reshape(3, 3)
        values = invariant_expectation(s, proto, times)
        assert values.shape == times.shape
        for t, value in zip(times.ravel(), values.ravel()):
            scalar = invariant_expectation(s, proto, t)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(value, abs=1e-12)
        assert invariant_expectation(s, proto, np.array([])).shape == (0,)

    def test_grid_of_several_blocks(self):
        # 70 times are evolved in blocks; each value still matches its time
        s = gaussian_state(1, 3.0, 0.8, (-64, 64))
        times = np.linspace(0.0, 6 * np.pi, 70).reshape(7, 10)
        values = invariant_expectation(s, HARMONIC, times)
        assert values.shape == times.shape
        for t, value in zip(times.ravel(), values.ravel()):
            assert invariant_expectation(s, HARMONIC, t) == pytest.approx(
                value, abs=1e-12)

    def test_window_leak_raises(self):
        s = gaussian_state(0, 0.8, 0.0, (-6, 6))
        with pytest.raises(WindowLeakError):
            invariant_expectation(s, DCDrive(0.0, 1.0), 4.0)
