import tracemalloc

import numpy as np
import pytest

from driventb import (DCDrive, FourierDrive, HarmonicDrive, LatticeState,
                      SingleBandDispersion, apply_propagator, bessel_j,
                      bloch_phase, element, evolve, gaussian_state, integrate,
                      invariant_expectation, single_site)
from driventb import propagator
from driventb.bessel import bessel_j_orders
from driventb.propagator import _band_phase, _convolve, _site_kernel, _site_phase

DC = DCDrive(1.0, 1.0)


def fft_side(a_size, b_size):
    """Whether _convolve's cost rule picks the FFT for these sizes."""
    n = 1 << (a_size + b_size - 2).bit_length()
    return a_size * b_size > 16 * n * np.log2(n)


class TestElement:
    def test_identity_at_t0(self):
        for n in (-3, 0, 5):
            vals = element(DC, 0.0, n, np.arange(-8, 9))
            expected = (np.arange(-8, 9) == n).astype(float)
            assert np.max(np.abs(vals - expected)) < 1e-15

    def test_bloch_period_revival(self):
        vals = element(DC, 2 * np.pi, 2, np.arange(-10, 11))
        expected = (np.arange(-10, 11) == 2).astype(complex)
        # e^{-i n eta} with eta = 2 pi is exactly 1 on integers
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_field_free_closed_form(self):
        free = DCDrive(0.0, 1.0)
        t = 1.0
        nprime = np.arange(-10, 11)
        vals = element(free, t, 0, nprime)
        expected = np.array([np.exp(-1j * m * np.pi / 2) * bessel_j(m, 2.0 * t)
                             for m in nprime])
        assert np.max(np.abs(vals - expected)) < 1e-13

    def test_row_matches_single_site_evolve(self):
        # <n|U|n'> is amplitude n of U|n'>, for each n' in the row
        proto = HarmonicDrive(0.8, 1.3, 1.1, 0.6)
        t, n = 3.7, 2
        nprime = np.arange(-12, 13)
        row = element(proto, t, n, nprime)
        for path in ("bloch", "site"):
            amps = [evolve(single_site(int(k), (-40, 40)), proto, t, path=path)
                    .amplitudes[n + 40] for k in nprime]
            assert np.max(np.abs(row - np.array(amps))) < 1e-13

    def test_row_unitarity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            proto = HarmonicDrive(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0),
                                  rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0))
            t = rng.uniform(0.0, 15.0)
            x = 2.0 * abs(proto.chi(t))
            reach = int(np.ceil(x + 14 * max(x, 1.0) ** (1 / 3))) + 40
            vals = element(proto, t, 0, np.arange(-reach, reach + 1))
            assert np.sum(np.abs(vals) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestEvolve:
    def test_t0_is_identity(self):
        s = gaussian_state(0, 2.0, 0.5, (-16, 16))
        for path in ("bloch", "site"):
            out = evolve(s, DC, 0.0, path=path)
            assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-14

    def test_bloch_period_revival_fidelity(self):
        s = gaussian_state(0, 3.0, 0.7, (-32, 32))
        out = evolve(s, DC, 2 * np.pi)
        assert abs(out.overlap(s)) > 1.0 - 1e-10

    def test_field_free_populations(self):
        free = DCDrive(0.0, 1.0)
        out = evolve(single_site(0, (-20, 20)), free, 1.0)
        expected = np.array([bessel_j(n, 2.0) ** 2 for n in out.sites])
        assert np.max(np.abs(out.probabilities - expected)) < 1e-13

    def test_paths_agree(self):
        rng = np.random.default_rng(9)
        s = gaussian_state(0, 2.0, -0.4, (-24, 24))
        for _ in range(5):
            proto = HarmonicDrive(rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0),
                                  rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8))
            t = rng.uniform(0.0, 10.0)
            a = evolve(s, proto, t, path="bloch")
            b = evolve(s, proto, t, path="site")
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10

    def test_paths_agree_on_ring(self):
        s = single_site(0, (-8, 7))
        s = LatticeState(s.n_min, s.amplitudes, ring=True)
        proto = DCDrive(2 * np.pi / 16.0, 0.5)  # eta(t)*L multiple of 2 pi at t=1
        a = evolve(s, proto, 1.0, path="bloch")
        b = evolve(s, proto, 1.0, path="site")
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_dc_composition(self):
        s = gaussian_state(0, 2.0, 0.9, (-40, 40))
        one = evolve(evolve(s, DC, 1.3), DC, 2.1)
        both = evolve(s, DC, 3.4)
        assert np.max(np.abs(one.amplitudes - both.amplitudes)) < 1e-9

    def test_leak_is_reported(self):
        free = DCDrive(0.0, 1.0)
        out = evolve(single_site(0, (-4, 4)), free, 2.0)
        assert out.leak > 1e-4
        assert out.norm() ** 2 + out.leak == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("path", ["bloch", "site"])
    def test_no_leak_at_t0(self, path):
        # the cropped edges of an unmoved state hold only FFT round-off; a
        # difference of norms reported 1.1e-16 here on the bloch route
        s = gaussian_state(0, 3.0, 0.5, (-32, 32))
        assert evolve(s, DC, 0.0, path=path).leak < 1e-30

    @pytest.mark.parametrize("path", ["bloch", "site"])
    def test_leak_is_the_cropped_probability_at_strong_drive(self, path):
        # 2|chi| = 4 g0 / f0 = 1000 at t = pi / f0 spreads far past the window
        drive = DCDrive(0.004, 1.0)
        out = evolve(single_site(0, (-300, 300)), drive, np.pi / 0.004, path=path)
        assert 2.0 * abs(drive.chi(np.pi / 0.004)) == pytest.approx(1000.0)
        assert out.leak > 0.1
        assert abs(float(np.vdot(out.amplitudes, out.amplitudes).real)
                   + out.leak - 1.0) <= 1e-13

    def test_apply_propagator_is_evolve(self):
        proto = HarmonicDrive(1.2, 0.7, 0.9, 0.5)
        s = gaussian_state(0, 2.0, 0.3, (-24, 24))
        t = 4.1
        chis = {1: complex(proto.chi(t))}
        for path in ("bloch", "site"):
            a = apply_propagator(s, float(proto.eta(t)), chis, path)
            b = evolve(s, proto, t, path=path)
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert a.leak == b.leak

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            evolve(single_site(0, (-2, 2)), DC, 1.0, path="magic")

    # (drive, band, bit-identical): a dc phase is the same array program at
    # one time or over a grid; the harmonic and Fourier chi may move by an
    # ulp with the grid (their near-resonant terms are picked over its span)
    GRID_CASES = {
        "dc": (DCDrive(0.8, 0.6), None, True),
        "harmonic": (HarmonicDrive(1.0, 1.7, 1.0, 0.5), None, False),
        "fourier": (FourierDrive(0.9, (0.8, -0.5), 1.1, 0.45), None, False),
        "band-m3-dc": (DCDrive(1.0, 0.0),
                       SingleBandDispersion((0.0, 0.1, 0.0, 0.2)), True),
    }

    @pytest.mark.parametrize("path", ["bloch", "site"])
    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_time_grid_matches_one_time_at_a_time(self, case, ring, path):
        proto, disp, exact = self.GRID_CASES[case]
        s = gaussian_state(0, 2.5, 0.4, (-40, 40))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        times = np.linspace(0.0, 9.0, 13)
        grid = evolve(s, proto, times, path=path, dispersion=disp)
        assert isinstance(grid, list) and len(grid) == times.size
        for t, got in zip(times, grid):
            one = evolve(s, proto, t, path=path, dispersion=disp)
            assert isinstance(one, LatticeState)
            assert got.n_min == one.n_min and got.ring == one.ring
            dev = np.max(np.abs(got.amplitudes - one.amplitudes))
            assert dev == 0.0 if exact else dev <= 1e-15
            assert abs(got.leak - one.leak) <= (0.0 if exact else 1e-15)

    def test_empty_time_grid(self):
        assert evolve(single_site(0, (-4, 4)), DC, np.array([])) == []

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            proto = HarmonicDrive(1.0, rng.uniform(0.0, 1.5), 1.0,
                                  rng.uniform(0.2, 0.6))
            s = gaussian_state(0, 2.5, rng.uniform(-np.pi, np.pi), (-40, 40))
            t = rng.uniform(0.5, 4 * np.pi)
            closed = evolve(s, proto, t)
            ref = integrate(s, proto, t)
            assert np.max(np.abs(closed.amplitudes - ref.amplitudes)) < 1e-6


class TestSitePhase:
    @pytest.mark.parametrize("theta", [0.3, -987.6543, 4123.456789])
    @pytest.mark.parametrize("lo,size", [(-20000, 1), (-20000, 1009),
                                         (18991, 1009), (-12, 250), (7, 999)])
    def test_matches_mpmath(self, theta, lo, size):
        # the reference is e^{-i theta n} of the stored double theta; a plain
        # exp(-1j * theta * n) rounds theta n and errs up to 7.4e-9 here
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = np.array([complex(mp.expj(-mp.mpf(theta) * n))
                            for n in range(lo, lo + size)])
        got = _site_phase(theta, lo, size)
        assert got.shape == (size,)
        assert np.max(np.abs(got - ref)) <= 1e-15

    @pytest.mark.parametrize("chis", [{1: 37.2 * np.exp(0.8j)},
                                      {0: 0.3, 1: 12.5 * np.exp(-2.1j),
                                       2: -4.0, 3: 7.75j}],
                             ids=["tight-binding", "band-m3"])
    def test_band_phase_matches_the_complex_form(self, chis):
        rng = np.random.default_rng(13)
        kappa = np.concatenate((2.0 * np.pi * np.arange(4096) / 4096,
                                rng.uniform(-np.pi, np.pi, 1000)))
        ref = sum(2.0 * (chi * np.exp(1j * m * kappa)).real
                  for m, chi in chis.items())
        bound = 1e-13 * (1.0 + sum(abs(chi) for chi in chis.values()))
        assert np.max(np.abs(_band_phase(chis, kappa) - ref)) <= bound


class TestLongTimeStrongDrive:
    """A resonant drive for hundreds of periods on a 4,097-site window:
    2|chi| reaches 1000 and eta 4600, so |eta n| passes 10^6 on the window."""

    DRIVE = HarmonicDrive(3.0, 2.7, 3.0, 0.8)  # n = 1, f1 / omega = 0.9

    def times(self):
        return np.array([0.5, 0.8, 1.0]) * 1000.0 / abs(self.DRIVE.drift_rate())

    def test_routes_agree(self):
        s = gaussian_state(0, 10.0, 0.6, (-2048, 2048))
        times = self.times()
        assert 2.0 * abs(self.DRIVE.chi(times[-1])) == pytest.approx(1000.0, rel=0.01)
        assert self.DRIVE.eta(times[-1]) > 4000.0
        bloch = evolve(s, self.DRIVE, times, path="bloch")
        site = evolve(s, self.DRIVE, times, path="site")
        for a, b in zip(bloch, site):
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12
            assert a.leak < 1e-20 and b.leak < 1e-20

    def test_invariant_is_conserved(self):
        # measured drift 1.7e-13; rounding eta n to a double drifted 3.0e-11
        s = gaussian_state(0, 10.0, 0.6, (-2048, 2048))
        n0 = float(np.sum(s.sites * np.abs(s.amplitudes) ** 2))
        values = invariant_expectation(s, self.DRIVE, self.times())
        assert np.max(np.abs(values - n0)) <= 1e-12


class TestConvolve:
    @pytest.mark.parametrize("mode", ["full", "valid"])
    @pytest.mark.parametrize("sizes,fft", [
        ((40, 7), False), ((5000, 61), False), ((7, 40), False),
        ((3000, 1501), True), ((1501, 3000), True), ((16385, 6301), True),
        ((1824, 801), True)])
    def test_matches_np_convolve(self, sizes, fft, mode):
        rng = np.random.default_rng(sum(sizes))
        a, b = (rng.normal(size=k) + 1j * rng.normal(size=k) for k in sizes)
        assert fft_side(*sizes) == fft
        got, ref = _convolve(a, b, mode), np.convolve(a, b, mode)
        assert got.shape == ref.shape
        if fft:
            bound = 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)
            assert np.max(np.abs(got - ref)) <= bound
        else:
            assert np.array_equal(got, ref)

    # (sites, ring, {m: chi_m}): the kernels have hundreds of taps, so each
    # case convolves by FFT; the 64-site ring is far shorter than its kernel
    SITE_CASES = {
        "tb-open": (2049, False, {1: 200.0 * np.exp(0.4j)}),
        "tb-ring": (1024, True, {1: 150.0 * np.exp(-1.1j)}),
        "tb-short-ring": (64, True, {1: 150.0 * np.exp(2.0j)}),
        "m3-open": (2049, False, {0: 0.3, 1: 90.0 * np.exp(0.2j),
                                  3: 35.0 * np.exp(-0.7j)}),
        "m3-ring": (1024, True, {1: 90.0 * np.exp(0.2j), 3: 35.0j}),
        "m3-short-ring": (64, True, {0: -0.2, 1: 60.0, 3: 25.0 * np.exp(1.3j)}),
    }

    @pytest.mark.parametrize("case", sorted(SITE_CASES))
    def test_site_route_matches_direct_convolution(self, case, monkeypatch):
        sites, ring, chis = self.SITE_CASES[case]
        rng = np.random.default_rng(sites)
        amps = rng.normal(size=sites) + 1j * rng.normal(size=sites)
        s = LatticeState(-(sites // 2), amps / np.linalg.norm(amps), ring=ring)
        taps = _site_kernel(chis).size
        assert fft_side(sites + (taps - 1 if ring else 0), taps)
        got = apply_propagator(s, 0.37, chis, "site")
        monkeypatch.setattr(propagator, "_convolve", np.convolve)
        ref = apply_propagator(s, 0.37, chis, "site")
        assert got.n_min == ref.n_min and got.ring == ring
        assert np.max(np.abs(got.amplitudes - ref.amplitudes)) <= 1e-13
        assert abs(got.leak - ref.leak) <= 1e-13

    @pytest.mark.parametrize("path", ["bloch", "site"])
    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    def test_past_the_bessel_range_raises_before_allocating(self, path, ring):
        slow = DCDrive(1e-7, 1.0)  # 2|chi| = 1.9e7 at t = 1e7
        s = single_site(0, (-32, 31))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="outside supported range"):
                evolve(s, slow, 1e7, path=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBlochPhase:
    def test_no_hopping_gives_unity(self):
        proto = DCDrive(1.0, 0.0)
        kappa = np.linspace(-np.pi, np.pi, 7)
        assert np.allclose(bloch_phase(proto, 3.0, kappa), 1.0, atol=1e-15)

    def test_dc_value_at_phi(self):
        # |chi(pi)| = 2, phi = pi/2: at kappa = phi the phase is e^{-4i}
        val = bloch_phase(DC, np.pi, np.pi / 2)
        assert complex(val) == pytest.approx(np.exp(-4.0j), abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(11)
        proto = HarmonicDrive(1.0, 1.2, 1.0, 0.7)
        kappa = rng.uniform(-np.pi, np.pi, 1000)
        t = rng.uniform(0.0, 20.0)
        vals = bloch_phase(proto, t, kappa)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-14

    def test_params_bundle(self):
        params = DC.phase(np.pi)
        assert params.eta == pytest.approx(np.pi)
        assert params.chi == pytest.approx(-2.0j, abs=1e-13)


class TestSingleBand:
    def test_reduces_to_tight_binding(self):
        disp = SingleBandDispersion((0.0, 0.7))
        proto = DCDrive(1.1, 0.7)
        s = gaussian_state(0, 2.0, 0.2, (-24, 24))
        a = evolve(s, proto, 2.3, dispersion=disp)
        b = evolve(s, proto, 2.3)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_static_dispersion_field_free(self):
        # f = 0: pure band propagation e^{-i t E(kappa)}, cross-checked
        # against the brute-force integrator with next-nearest hopping
        disp = SingleBandDispersion((0.0, 0.5, 0.2))
        proto = DCDrive(0.0, 0.0)
        s = gaussian_state(0, 2.0, 0.4, (-32, 32))
        t = 1.7
        closed = evolve(s, proto, t, dispersion=disp)
        ref = integrate(s, proto, t, dispersion=disp)
        assert np.max(np.abs(closed.amplitudes - ref.amplitudes)) < 1e-7

    def test_bloch_period_identity_dc(self):
        disp = SingleBandDispersion((0.0, 0.4, 0.15, 0.1))
        proto = DCDrive(1.0, 0.0)
        s = gaussian_state(0, 2.5, -0.3, (-32, 32))
        out = evolve(s, proto, 2 * np.pi, dispersion=disp)
        assert abs(out.overlap(s)) > 1.0 - 1e-10

    def test_m0_coupling_is_global_phase(self):
        disp = SingleBandDispersion((0.3, 0.5))
        base = SingleBandDispersion((0.0, 0.5))
        proto = DCDrive(0.9, 0.0)
        s = gaussian_state(0, 2.0, 0.0, (-16, 16))
        t = 1.9
        with_offset = evolve(s, proto, t, dispersion=disp)
        without = evolve(s, proto, t, dispersion=base)
        phase = np.exp(-2j * 0.3 * t)
        assert np.max(np.abs(with_offset.amplitudes
                             - phase * without.amplitudes)) < 1e-12

    def test_commutator_weight_conventions_differ(self):
        disp = SingleBandDispersion((0.0, 0.0, 0.0, 0.3))
        proto = DCDrive(1.0, 0.0)
        s = gaussian_state(0, 2.0, 0.3, (-40, 40))
        t = 1.3
        ref = integrate(s, proto, t, dispersion=disp)
        good = evolve(s, proto, t, dispersion=disp, convention="index")
        bad = evolve(s, proto, t, dispersion=disp, convention="power2")
        assert np.max(np.abs(good.amplitudes - ref.amplitudes)) < 1e-6
        assert np.max(np.abs(bad.amplitudes - ref.amplitudes)) > 1e-2

    @pytest.mark.parametrize("convention", ["index", "power2"])
    @pytest.mark.parametrize("ring", [False, True])
    def test_paths_agree_on_bands(self, ring, convention):
        # an m = 0 offset and three harmonics; on the 8-site ring the site
        # kernel reaches far past the ring and wraps several times over
        disp = SingleBandDispersion((0.3, 0.5, -0.2, 0.15j))
        proto = HarmonicDrive(0.7, 0.9, 1.3, 0.0)
        rng = np.random.default_rng(12)
        size = 8 if ring else 33
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        s = LatticeState(-4 if ring else -16, amps / np.linalg.norm(amps),
                         ring=ring)
        for t in (0.9, 2.7):
            a = evolve(s, proto, t, path="bloch", dispersion=disp,
                       convention=convention)
            b = evolve(s, proto, t, path="site", dispersion=disp,
                       convention=convention)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12
            assert a.leak == pytest.approx(b.leak, abs=1e-12)
            assert bessel_j_orders(2.0 * abs(0.5 * proto.int_exp_eta(t))).size > 8

    def test_unknown_convention_rejected(self):
        disp = SingleBandDispersion((0.0, 0.5))
        with pytest.raises(ValueError):
            evolve(single_site(0, (-4, 4)), DC, 1.0, dispersion=disp,
                   convention="other")

    def test_dispersion_validation(self):
        with pytest.raises(ValueError):
            SingleBandDispersion((1.0,))
        disp = SingleBandDispersion((0.0, 0.5, 0.25))
        kappa = np.linspace(-np.pi, np.pi, 5)
        expected = 2 * 0.5 * np.cos(kappa) + 2 * 0.25 * np.cos(2 * kappa)
        assert np.allclose(disp.energy(kappa), expected, atol=1e-14)
