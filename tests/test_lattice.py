import tracemalloc

import numpy as np
import pytest

from driventb import (LatticeState, apply_shift, bloch_transform,
                      coherence_parameters, gaussian_state, inverse_bloch,
                      make_state, single_site, state_from_amplitudes)
from helpers import (dense_bloch_transform, dense_coherence, dense_inverse_bloch,
                     random_state)


class TestConstruction:
    def test_single_site(self):
        s = single_site(0, (-8, 8))
        assert s.amplitudes[8] == 1.0
        assert np.sum(np.abs(s.amplitudes)) == 1.0
        assert s.window == (-8, 8)

    def test_single_site_outside_window(self):
        with pytest.raises(ValueError):
            single_site(9, (-8, 8))

    def test_gaussian_symmetric_has_zero_mean(self):
        s = gaussian_state(0, 2.0, 0.0, (-32, 32))
        assert np.allclose(s.amplitudes.imag, 0.0)
        assert coherence_parameters(s).n_mean == pytest.approx(0.0, abs=1e-13)
        assert s.norm() == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_carrier_momentum(self):
        sigma = 2.0
        s = gaussian_state(0, sigma, np.pi / 2, (-32, 32))
        k = coherence_parameters(s).K
        # theta-function corrections to exp(-1/(8 sigma^2)) are tiny at sigma=2
        expected = np.exp(1j * np.pi / 2) * np.exp(-1.0 / (8.0 * sigma ** 2))
        assert k == pytest.approx(expected, abs=1e-6)

    def test_gaussian_window_too_small_reports(self):
        with pytest.raises(ValueError, match="mass"):
            gaussian_state(0, 8.0, 0.0, (-10, 10))

    def test_gaussian_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_state(0, 0.0, 0.0, (-8, 8))

    @pytest.mark.parametrize("center,sigma,first", [
        (0.0, 1e300, "sigma"), (0.0, 1e6, "sigma"), (0.0, 1e-300, "sigma"),
        (0.5, 0.01, "sigma"), (1e300, 2.0, "center"), (-16.5, 2.0, "center")])
    def test_gaussian_extremes_fail_before_allocating(self, center, sigma, first):
        # each fails at load time, not as an OverflowError, a NaN state or a
        # reference sum of millions of sites
        with pytest.raises(ValueError, match=f"^{first} "):
            gaussian_state(center, sigma, 0.0, (-16, 16))

    def test_gaussian_carrier_past_the_phase_range(self):
        with pytest.raises(ValueError, match="kappa0"):
            gaussian_state(0.0, 0.4, 1e308, (-2, 2))
        state = gaussian_state(0.0, 0.4, 1e300, (-2, 2))
        assert np.all(np.isfinite(state.amplitudes))

    def test_amplitudes_past_the_norm_range_rejected(self):
        with pytest.raises(ValueError, match="^values "):
            state_from_amplitudes([1e300, 1e300], (0, 1))

    def test_amplitudes_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            state_from_amplitudes(np.zeros(5), (0, 4))

    def test_amplitudes_length_mismatch(self):
        with pytest.raises(ValueError):
            state_from_amplitudes(np.ones(4), (0, 4))

    def test_make_state_dispatch(self):
        s = make_state({"kind": "single_site", "site": 2}, (0, 4))
        assert s.amplitudes[2] == 1.0
        g = make_state({"kind": "gaussian", "center": 0, "sigma": 1.5,
                        "kappa0": 0.3}, (-16, 16))
        assert g.norm() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            make_state({"kind": "mystery"}, (0, 4))

    def test_embedded(self):
        s = gaussian_state(0, 1.0, 0.2, (-6, 6))
        wide = s.embedded((-10, 10))
        assert wide.window == (-10, 10)
        assert wide.overlap(s) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            s.embedded((-3, 3))

    def test_overlap_of_disjoint_windows_is_complex_zero(self):
        a, b = single_site(0, (-4, 0)), single_site(3, (1, 5))
        assert type(a.overlap(b)) is complex and a.overlap(b) == 0
        assert type(a.overlap(single_site(-1, (-2, 2)))) is complex


class TestShift:
    def test_single_site_moves_down(self):
        s = single_site(0, (-8, 8))
        shifted = apply_shift(s, 1)
        assert shifted.amplitudes[7] == 1.0  # site -1
        assert shifted.leak == 0.0

    def test_zero_shift_is_identity(self):
        s = gaussian_state(0, 1.5, 0.1, (-8, 8))
        assert apply_shift(s, 0) is s

    def test_round_trip_interior(self):
        s = gaussian_state(0, 1.0, 0.4, (-12, 12))
        back = apply_shift(apply_shift(s, 1), -1)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-15
        assert back.norm() == pytest.approx(s.norm(), abs=1e-15)

    def test_leak_reported_at_edge(self):
        s = single_site(-8, (-8, 8))
        shifted = apply_shift(s, 1)
        assert shifted.leak == pytest.approx(1.0)
        assert shifted.norm() == 0.0

    def test_ring_wraps(self):
        s = single_site(0, (0, 7))
        s = LatticeState(s.n_min, s.amplitudes, ring=True)
        shifted = apply_shift(s, 1)
        assert shifted.amplitudes[7] == 1.0
        assert shifted.leak == 0.0

    def test_shift_larger_than_window(self):
        with pytest.raises(ValueError):
            apply_shift(single_site(0, (-2, 2)), 6)


class TestBloch:
    def test_delta_state_is_flat(self):
        b = bloch_transform(single_site(0, (-8, 8)), 32)
        assert np.allclose(b.values, 1.0 / np.sqrt(2.0 * np.pi), atol=1e-14)

    def test_plane_wave_peaks_at_carrier(self):
        kappa0 = 2.0 * np.pi * 5 / 32 - np.pi
        amps = np.exp(1j * kappa0 * np.arange(-16, 16))
        s = state_from_amplitudes(amps, (-16, 15))
        b = bloch_transform(s, 32)
        assert b.kappa[np.argmax(b.density)] == pytest.approx(kappa0, abs=1e-12)

    def test_round_trip(self):
        s = gaussian_state(0, 2.0, 0.3, (-16, 16))
        for m in (33, 50, 128):
            back = inverse_bloch(bloch_transform(s, m), s.window)
            assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12

    def test_parseval(self):
        s = gaussian_state(1, 2.5, -0.4, (-20, 20))
        b = bloch_transform(s, 64)
        assert b.norm_squared() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lo,size,m", [(-16, 33, 33), (-8, 17, 32), (3, 5, 7),
                                           (-700, 301, 1000), (250, 100, 211)])
    def test_matches_the_dense_sums(self, lo, size, m):
        s = random_state(np.random.default_rng(size), (lo, lo + size - 1))
        b = bloch_transform(s, m)
        kappa, values = dense_bloch_transform(s, m)
        window = (lo - (m - size) // 2, lo - (m - size) // 2 + m - 1)
        # the dense sums round kappa_j n, so their own error grows with |n|
        tol = 1e-14 + 2e-15 * max(map(abs, window))
        assert np.array_equal(b.kappa, kappa)
        assert np.max(np.abs(b.values - values)) < tol
        assert np.max(np.abs(inverse_bloch(b, window).amplitudes
                             - dense_inverse_bloch(kappa, values, window))) < tol

    def test_window_far_out(self):
        # a shift by 2M sites leaves psi(kappa_j) as it is: e^{-2 i M kappa_j} = 1
        s = random_state(np.random.default_rng(5), (0, 63))
        far = LatticeState(2 ** 29 - 128, s.amplitudes)
        b, b_far = bloch_transform(s, 64), bloch_transform(far, 64)
        assert np.max(np.abs(b_far.values - b.values)) < 1e-15
        back = inverse_bloch(b_far, far.window)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-15

    def test_memory_does_not_grow_with_the_grid_squared(self):
        # the dense phase matrix of 2^15 sites on 2^16 points would take 32 GiB
        s = random_state(np.random.default_rng(3), (-2 ** 14, 2 ** 14 - 1))
        tracemalloc.start()
        try:
            back = inverse_bloch(bloch_transform(s, 2 ** 16), s.window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-14

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            bloch_transform(gaussian_state(0, 2.0, 0.0, (-16, 16)), 16)
        with pytest.raises(ValueError):
            inverse_bloch(bloch_transform(single_site(0, (0, 3)), 8), (0, 8))


class TestCoherence:
    def test_single_site_all_zero(self):
        coh = coherence_parameters(single_site(0, (-8, 8)))
        assert coh.K == 0 and coh.J == 0 and coh.L == 0
        assert coh.n_mean == 0.0
        # breathing covariances: D_CC = D_SS = 1/2
        assert coh.cs_covariances[0, 0] == pytest.approx(0.5)
        assert coh.cs_covariances[1, 1] == pytest.approx(0.5)

    def test_two_site_hand_values(self):
        s = state_from_amplitudes([1.0, 1.0], (0, 1))
        coh = coherence_parameters(s)
        assert coh.K == pytest.approx(0.5)
        assert coh.J == pytest.approx(0.5)
        assert coh.L == 0.0
        assert coh.n_mean == pytest.approx(0.5)

    def test_broad_uniform_phase_state(self):
        # flat momentum distribution: D_CC ~ D_SS ~ 1/2, K ~ 0
        rng = np.random.default_rng(0)
        phases = np.exp(2j * np.pi * rng.random(257))
        s = state_from_amplitudes(phases, (-128, 128))
        coh = coherence_parameters(s)
        assert abs(coh.K) < 0.15
        assert coh.cs_covariances[0, 0] == pytest.approx(0.5, abs=0.1)
        assert coh.cs_covariances[1, 1] == pytest.approx(0.5, abs=0.1)

    def test_c2_plus_s2_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            coh = coherence_parameters(random_state(rng, (-10, 10)))
            c2 = coh.cs_covariances[0, 0] + coh.c_mean ** 2
            s2 = coh.cs_covariances[1, 1] + coh.s_mean ** 2
            assert c2 + s2 == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            coh = coherence_parameters(random_state(rng, (-12, 12)))
            assert abs(coh.K) <= 1.0 + 1e-12
            assert abs(coh.L) <= 1.0 + 1e-12

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(4)
        for lo, hi in ((-32, 31), (-5, 5), (0, 63)):
            s = random_state(rng, (lo, hi))
            coh = coherence_parameters(s)
            ref = dense_coherence(s)
            assert coh.K == pytest.approx(ref["K"], abs=1e-12)
            assert coh.J == pytest.approx(ref["J"], abs=1e-12)
            assert coh.L == pytest.approx(ref["L"], abs=1e-12)
            assert coh.n_mean == pytest.approx(ref["n_mean"], abs=1e-12)
            assert coh.n2_mean == pytest.approx(ref["n2_mean"], abs=1e-10)
            assert np.max(np.abs(coh.cs_covariances - ref["cov"])) < 1e-10

    def test_requires_normalized_state(self):
        s = LatticeState(0, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            coherence_parameters(s)

    def test_var_k_is_modulus_of_l_minus_k_squared(self):
        s = state_from_amplitudes([1.0, 1.0, 1.0], (0, 2))
        coh = coherence_parameters(s)
        assert coh.var_K == pytest.approx(abs(coh.L - coh.K ** 2), abs=1e-15)
