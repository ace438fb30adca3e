import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driventb import (DCDrive, FourierDrive, HarmonicDrive, LatticeState,
                      SingleBandDispersion, apply_propagator, bessel_j,
                      bloch_phase, element, evolve, gaussian_state, integrate,
                      invariant_expectation, single_site)
from driventb import propagator
from driventb.bessel import bessel_cutoff, bessel_j_orders
from driventb.propagator import (_ETA_MAX, _band_phase, _fft_size, _site_kernel,
                                 _site_phase)

DC = DCDrive(1.0, 1.0)


def direct_site_route(s, eta, chis):
    """The site route by the direct sum c'_n = sum_j a_j c_{n+j} (np.convolve),
    over the wrapped state on a ring: the kept amplitudes and the leak."""
    coeff, size = _site_kernel(chis)[::-1], s.amplitudes.size
    h, c = coeff.size // 2, s.amplitudes
    if s.ring:
        c = np.take(c, np.arange(-h, size + h), mode="wrap")
    out = np.convolve(c, coeff, "valid" if s.ring else "full")
    cut = 0 if s.ring else h
    rest = np.concatenate((out[:cut], out[cut + size:]))
    return (out[cut: cut + size] * _site_phase(eta, s.n_min, size),
            float(np.vdot(rest, rest).real))


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

    # (drive, band): chi_1 = g0 t grows, so the pads, and the FFT lengths,
    # change along the grid
    BLOCK_CASES = {"tb": (DCDrive(0.0, 0.6), None),
                   "band-m3": (HarmonicDrive(0.0, 1.1, 0.7, 0.0),
                               SingleBandDispersion((0.2, 0.5, 0.0, 0.3)))}

    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    @pytest.mark.parametrize("case,path", [  # the bloch ids are the case names
        pytest.param(c, p, id=c if p == "bloch" else f"{c}-site")
        for p in ("bloch", "site") for c in ("band-m3", "tb")])
    def test_time_grid_is_its_times_one_at_a_time_exactly(self, case, path, ring):
        # either route groups the grid's times by pad and FFT length, and
        # a block holds several times; each must be what one time gives
        proto, disp = self.BLOCK_CASES[case]
        s = gaussian_state(0, 2.5, 0.4, (-40, 40))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        # 60 times share the pad of 2|chi| < 1, more than one block holds
        times = np.concatenate([np.linspace(0.0, 0.5, 60), np.linspace(1.0, 30.0, 90)])
        eta, chis = proto.eta(times), propagator._chis(proto, times, disp)
        pads = [4 + sum(m * bessel_cutoff(2.0 * abs(chi[i])) for m, chi in chis.items()
                        if m > 0) for i in range(times.size)]
        assert propagator._pads(eta, chis).tolist() == pads  # the loop as reference
        lengths = [81 if ring else _fft_size(81 + 2 * pad + 1) for pad in pads]
        pads = [0] * times.size if ring else pads
        assert len(set(lengths)) >= (1 if ring else 3)
        assert any(pads.count(pad) > propagator._BLOCK // n
                   for pad, n in zip(pads, lengths))
        grid = evolve(s, proto, times, path=path, dispersion=disp)
        for i, got in enumerate(grid):
            one = apply_propagator(s, float(eta[i]),
                                   {m: complex(chi[i]) for m, chi in chis.items()}, path)
            assert np.array_equal(got.amplitudes, one.amplitudes)
            assert got.leak == one.leak and got.ring == ring

    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    def test_band_without_couplings_shifts_only_the_site_phase(self, ring):
        # no harmonic, so no kernel: a block of such times keeps its rows
        s = gaussian_state(0, 2.5, 0.4, (-40, 40))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        drive, disp = DCDrive(0.7, 0.0), SingleBandDispersion((0.0, 0.0))
        times = np.linspace(0.0, 5.0, 7)
        for t, got in zip(times, evolve(s, drive, times, dispersion=disp)):
            one = evolve(s, drive, t, dispersion=disp)
            assert np.array_equal(got.amplitudes, one.amplitudes)
            expected = s.amplitudes * np.exp(-1j * 0.7 * t * s.sites)
            assert np.max(np.abs(got.amplitudes - expected)) <= 1e-14
            assert got.leak <= 1e-30

    def test_time_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match=r"^t must be a scalar or a 1-d array"):
            evolve(single_site(0, (-4, 4)), DC, np.ones((2, 3)))

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
        # a block of times takes one row per theta, each its scalar call's
        rows = _site_phase(np.array([0.1, theta, -theta]), lo, size)
        assert rows.shape == (3, size) and np.array_equal(rows[1], got)
        assert np.array_equal(rows[2], _site_phase(-theta, lo, size))

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


def smooth_at_or_above(n):
    """The least 2^a 3^b 5^c >= n, by trial division upward from n."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


class TestFftSize:
    def test_matches_a_brute_force_search(self):
        got = [_fft_size(n) for n in range(1, 5001)]
        assert got == [smooth_at_or_above(n) for n in range(1, 5001)]
        assert all(s <= 1 << (n - 1).bit_length() for n, s in enumerate(got, 1))

    def test_covers_the_largest_reachable_length(self):
        # 2^24 sites (the [lattice] window cap) padded on both sides past a
        # kernel at the Bessel range's edge: under L + 4 N. A band of
        # order M reaches about M (M + 1) / 2 times as far; the table ends at
        # 2^40, a 16 TiB complex array
        widest = (1 << 24) + 4 * bessel_cutoff(1e6)
        assert _fft_size(widest) == smooth_at_or_above(widest) < 1 << 25
        assert _fft_size((1 << 40) - 1) == 1 << 40


class TestConvolve:
    # (sites, ring, {m: chi_m}): the kernels have hundreds of taps; the
    # 64-site ring is far shorter than its kernel
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
    def test_site_route_matches_direct_convolution(self, case):
        sites, ring, chis = self.SITE_CASES[case]
        rng = np.random.default_rng(sites)
        amps = rng.normal(size=sites) + 1j * rng.normal(size=sites)
        s = LatticeState(-(sites // 2), amps / np.linalg.norm(amps), ring=ring)
        got = apply_propagator(s, 0.37, chis, "site")
        kept, leak = direct_site_route(s, 0.37, chis)
        assert got.n_min == s.n_min and got.ring == ring
        assert np.max(np.abs(got.amplitudes - kept)) <= 1e-13
        assert abs(got.leak - leak) <= 1e-13

    # chis: (|chi_m|, arg chi_m) for m = 0..M, band order M = 1..3; a kernel
    # of 2|chi_m| = 400 spans thousands of sites, so it wraps a short ring
    # many times, and a 1-site ring takes the sum of all its entries
    @settings(max_examples=50)
    @given(sites=st.integers(1, 300), ring=st.booleans(),
           chis=st.lists(st.tuples(st.floats(0.0, 200.0), st.floats(-np.pi, np.pi)),
                         min_size=2, max_size=4),
           eta=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(sites=1, ring=True, chis=[(0.3, 1.0), (200.0, 0.4), (0.0, 0.0), (150.0, -2.0)],
             eta=0.37, seed=1)
    @example(sites=7, ring=True, chis=[(0.0, 0.0), (200.0, 2.5)], eta=-3.1, seed=2)
    def test_site_route_matches_direct_convolution_drawn(self, sites, ring, chis, eta, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=sites) + 1j * rng.normal(size=sites)
        s = LatticeState(-(sites // 2), amps / np.linalg.norm(amps), ring=ring)
        chis = {m: r * np.exp(1j * a) for m, (r, a) in enumerate(chis)}
        got = apply_propagator(s, eta, chis, "site")
        kept, leak = direct_site_route(s, eta, chis)
        assert np.max(np.abs(got.amplitudes - kept)) <= 1e-13
        assert abs(got.leak - leak) <= 1e-13

    @pytest.mark.parametrize("path", ["bloch", "site"])
    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    def test_past_the_bessel_range_raises_before_allocating(self, path, ring):
        slow = DCDrive(1e-7, 1.0)  # 2|chi| = 1.9e7 at t = 1e7
        s = single_site(0, (-32, 31))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        # one time, and a grid whose last time alone is out of range: its
        # time 4e5 (2|chi| = 8e5) would take a transform of 1.6e6 sites; the
        # invariant (open windows only) takes the bloch route's checks
        calls = [lambda t: evolve(s, slow, t, path=path)]
        if path == "bloch" and not ring:
            calls.append(lambda t: invariant_expectation(s, slow, t))
        for call in calls:
            for t in (1e7, np.array([1.0, 4e5, 1e7])):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match="outside supported range"):
                        call(t)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20

    # 0, then 200 x 10 under f0 = 0: 2|chi_m| = 2e5 at t = 1e4, within the
    # Bessel range, but the pad 4 + sum_m m N_m is 4,037,024,704 sites
    WIDE_BAND = SingleBandDispersion((0.0,) + (10.0,) * 200)
    PAST_2_24 = (r"^the propagator would reach 4037024704 sites past the window, "
                 r"more than 2\^24$")

    @pytest.mark.parametrize("path", ["bloch", "site"])
    def test_reach_past_2_24_raises_before_allocating(self, path):
        s = gaussian_state(0, 2, 0, (-32, 32))
        # one time, and a grid whose first time alone (a pad of 1.7e6
        # sites) would take a 27 MiB transform
        for t in (1e4, np.array([1.0, 1e4])):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=self.PAST_2_24):
                    evolve(s, DCDrive(0.0, 0.0), t, path=path, dispersion=self.WIDE_BAND)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_reach_on_a_ring_bounds_only_the_site_route(self):
        # the bloch route does not pad a ring; the site route builds a kernel
        # of that reach before it folds it onto the ring
        s = gaussian_state(0, 2, 0, (-128, 127))
        s = LatticeState(s.n_min, s.amplitudes, ring=True)
        out = evolve(s, DCDrive(0.0, 0.0), 1e4, dispersion=self.WIDE_BAND)
        assert out.ring and out.leak == 0.0
        assert abs(out.norm() - 1.0) < 1e-12
        with pytest.raises(ValueError, match=self.PAST_2_24):
            evolve(s, DCDrive(0.0, 0.0), 1e4, path="site", dispersion=self.WIDE_BAND)

    @pytest.mark.parametrize("path", ["bloch", "site"])
    @pytest.mark.parametrize("ring", [False, True], ids=["open", "ring"])
    def test_eta_past_float32_raises(self, path, ring):
        # the site phase splits off a float32 head of eta; past that range the
        # amplitudes came out NaN, with leak 2.9e-32 and only RuntimeWarnings
        s = gaussian_state(0, 4, 0, (-32, 32))
        s = LatticeState(s.n_min, s.amplitudes, ring=ring)
        with pytest.raises(ValueError, match=r"^eta must satisfy \|eta\| <= 3.4e\+38"):
            evolve(s, DCDrive(1e35, 1.0), 1e4, path=path)
        for eta in (np.nan, np.inf, -3.5e38):
            # checked before chi: 2|chi| = 2e7 is past the Bessel range too
            with pytest.raises(ValueError, match="^eta"):
                apply_propagator(s, eta, {1: 1e7}, path)
        for eta in (_ETA_MAX, -_ETA_MAX):
            out = apply_propagator(s, eta, {1: 0.5}, path)
            assert abs(out.norm() ** 2 + out.leak - 1.0) < 1e-14


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

    def test_dc_phases_at_pi(self):
        assert DC.eta(np.pi) == pytest.approx(np.pi)
        assert DC.chi(np.pi) == pytest.approx(-2.0j, abs=1e-13)


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
        good = evolve(s, proto, t, dispersion=disp)
        bad = evolve(s, proto, t, dispersion=SingleBandDispersion(
            disp.couplings, convention="power2"))
        assert np.max(np.abs(good.amplitudes - ref.amplitudes)) < 1e-6
        assert np.max(np.abs(bad.amplitudes - ref.amplitudes)) > 1e-2

    @pytest.mark.parametrize("convention", ["index", "power2"])
    @pytest.mark.parametrize("ring", [False, True])
    def test_paths_agree_on_bands(self, ring, convention):
        # an m = 0 offset and three harmonics; on the 8-site ring the site
        # kernel reaches far past the ring and wraps several times over
        disp = SingleBandDispersion((0.3, 0.5, -0.2, 0.15j), convention)
        proto = HarmonicDrive(0.7, 0.9, 1.3, 0.0)
        rng = np.random.default_rng(12)
        size = 8 if ring else 33
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        s = LatticeState(-4 if ring else -16, amps / np.linalg.norm(amps),
                         ring=ring)
        for t in (0.9, 2.7):
            a = evolve(s, proto, t, path="bloch", dispersion=disp)
            b = evolve(s, proto, t, path="site", dispersion=disp)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12
            assert a.leak == pytest.approx(b.leak, abs=1e-12)
            assert bessel_j_orders(2.0 * abs(0.5 * proto.int_exp_eta(t))).size > 8

    def test_a_band_of_a_hundred_harmonics(self):
        # more arrays than np.broadcast takes (64): Phi's shape comes from
        # kappa and the rows alone. On a ring, as an open window's pad
        # would reach 42 sum_m m sites
        rng = np.random.default_rng(3)
        g = 0.01 * (rng.normal(size=100) + 1j * rng.normal(size=100)) / np.arange(1, 101)
        disp = SingleBandDispersion((0.05, *g))
        kappa = np.linspace(-np.pi, np.pi, 9)
        expected = 2.0 * np.sum((np.array(disp.couplings)[:, None]
                                 * np.exp(1j * np.arange(101)[:, None] * kappa)).real, axis=0)
        assert np.max(np.abs(disp.energy(kappa) - expected)) < 1e-14
        proto = DCDrive(0.3, 0.0)
        s = gaussian_state(0, 1.5, 0.3, (-12, 11))
        s = LatticeState(s.n_min, s.amplitudes, ring=True)
        times = np.array([0.4, 2.5])
        eta, chis = proto.eta(times), propagator._chis(proto, times, disp)
        assert len(chis) == 101
        for i, got in enumerate(evolve(s, proto, times, dispersion=disp)):
            one = apply_propagator(s, float(eta[i]),
                                   {m: complex(chi[i]) for m, chi in chis.items()})
            assert np.array_equal(got.amplitudes, one.amplitudes)
        bloch = evolve(s, proto, 2.5, dispersion=disp)
        site = evolve(s, proto, 2.5, path="site", dispersion=disp)
        assert np.max(np.abs(bloch.amplitudes - site.amplitudes)) < 1e-12
        assert abs(bloch.norm() - 1.0) < 1e-14

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            SingleBandDispersion((0.0, 0.5), convention="other")

    def test_dispersion_validation(self):
        with pytest.raises(ValueError):
            SingleBandDispersion((1.0,))
        disp = SingleBandDispersion((0.0, 0.5, 0.25))
        kappa = np.linspace(-np.pi, np.pi, 5)
        expected = 2 * 0.5 * np.cos(kappa) + 2 * 0.25 * np.cos(2 * kappa)
        assert np.allclose(disp.energy(kappa), expected, atol=1e-14)
