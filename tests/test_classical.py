import numpy as np
import pytest

from driventb import (ClassicalEnsemble, ClassicalState, DCDrive,
                      HarmonicDrive, classical_invariant, coherence_parameters,
                      ensemble_from_state, ensemble_moments, expect_N,
                      gaussian_state, trajectory, variance_N)
from helpers import ensemble_moments_loop, rk4_classical

DC = DCDrive(1.0, 1.0)


class TestTrajectory:
    def test_zero_hopping_freezes_position(self):
        proto = DCDrive(1.3, 0.0)
        out = trajectory(ClassicalState(p=0.4, q=2.0), proto, 5.0)
        assert out.q == pytest.approx(2.0, abs=1e-14)
        assert out.p == pytest.approx(0.4 - 1.3 * 5.0, abs=1e-12)

    def test_dc_bloch_oscillation(self):
        # p0 = q0 = 0: q_t = v_t = 2 (1 - cos t), amplitude 4 |g0/f0|
        tt = np.linspace(0.0, 4 * np.pi, 41)
        qs = [trajectory(ClassicalState(0.0, 0.0), DC, t).q for t in tt]
        assert np.max(np.abs(qs - 2.0 * (1.0 - np.cos(tt)))) < 1e-12
        assert max(qs) - min(qs) == pytest.approx(4.0, abs=1e-10)

    def test_against_rk4_integrator(self):
        proto = HarmonicDrive(1.0, 0.9, 1.0, 0.5)
        for p0, q0 in ((0.3, -1.0), (-1.2, 0.5)):
            for t in (2.7, 4 * np.pi):
                p_ref, q_ref = rk4_classical(proto, p0, q0, t, steps=20000)
                out = trajectory(ClassicalState(p0, q0), proto, t)
                assert out.p == pytest.approx(p_ref, abs=1e-8)
                assert out.q == pytest.approx(q_ref, abs=1e-8)

    def test_equations_of_motion_by_finite_differences(self):
        # Cdot = f S, Sdot = -f C, Ndot = -2 g S along trajectories
        proto = HarmonicDrive(1.0, 1.1, 1.0, 0.6)
        state0 = ClassicalState(0.7, -0.3)
        dt = 1e-5
        for t in (0.9, 3.3):
            minus = trajectory(state0, proto, t - dt)
            plus = trajectory(state0, proto, t + dt)
            here = trajectory(state0, proto, t)
            f_t = float(proto.f(t))
            g_t = float(proto.g(t))
            c_dot = (np.cos(plus.p) - np.cos(minus.p)) / (2 * dt)
            s_dot = (np.sin(plus.p) - np.sin(minus.p)) / (2 * dt)
            n_dot = (plus.q - minus.q) / (2 * dt)
            assert abs(c_dot - f_t * np.sin(here.p)) < 1e-8
            assert abs(s_dot + f_t * np.cos(here.p)) < 1e-8
            assert abs(n_dot + 2.0 * g_t * np.sin(here.p)) < 1e-8

    def test_phase_space_volume_preserved(self):
        # complex-step Jacobian of (p0, q0) -> (p_t, q_t); det must be 1
        proto = HarmonicDrive(1.0, 0.7, 1.0, 0.8)
        t = 3.1
        h = 1e-20
        p0, q0 = 0.4, -0.7
        eta = float(proto.eta(t))
        u, v = (float(x) for x in proto.uv(t))

        def advance(p, q):
            return p - eta, q + v * np.cos(p) - u * np.sin(p)

        dp_dp = np.imag(advance(p0 + 1j * h, q0)[0]) / h
        dq_dp = np.imag(advance(p0 + 1j * h, q0)[1]) / h
        dp_dq = 0.0  # p_t does not depend on q0
        dq_dq = 1.0  # q enters additively
        det = dp_dp * dq_dq - dp_dq * dq_dp
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_delta_scaling(self):
        # p delta is the dynamical angle; q_t depends on p0 only through it
        proto = DC
        a = trajectory(ClassicalState(0.5, 0.0), proto, 2.0, delta=2.0)
        b = trajectory(ClassicalState(1.0, 0.0), proto, 2.0, delta=1.0)
        assert a.q == pytest.approx(b.q, abs=1e-14)


class TestInvariant:
    def test_initial_value_is_q0(self):
        s = ClassicalState(0.9, 1.7)
        assert classical_invariant(s, DC, 0.0) == pytest.approx(1.7, abs=1e-15)

    def test_constant_along_dc_trajectories(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s0 = ClassicalState(rng.uniform(-2, 2), rng.uniform(-3, 3))
            for t in rng.uniform(0.0, 15.0, 10):
                s_t = trajectory(s0, DC, float(t))
                assert classical_invariant(s_t, DC, float(t)) == pytest.approx(
                    s0.q, abs=1e-8)

    def test_constant_along_integrated_harmonic_trajectory(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
        s0 = ClassicalState(0.3, -0.4)
        for t in (proto.period, 2.5 * proto.period, 3 * proto.period):
            p_ref, q_ref = rk4_classical(proto, s0.p, s0.q, float(t), steps=60000)
            val = classical_invariant(ClassicalState(p_ref, q_ref), proto,
                                      float(t))
            assert val == pytest.approx(s0.q, abs=1e-7)


class TestEnsembles:
    def test_point_ensemble(self):
        ens = ClassicalEnsemble(p=np.array([0.2]), q=np.array([1.0]),
                                weights=np.array([1.0]))
        mean, var = ensemble_moments(ens, DC, 2.0)
        assert mean == pytest.approx(trajectory(ClassicalState(0.2, 1.0),
                                                DC, 2.0).q, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble(p=np.array([0.1]), q=np.array([0.2]),
                              weights=np.array([0.5]))
        with pytest.raises(ValueError):
            ClassicalEnsemble(p=np.array([0.1, 0.2]), q=np.array([0.2, 0.1]),
                              weights=np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            ClassicalEnsemble(p=np.array([]), q=np.array([]),
                              weights=np.array([]))

    def test_matched_ensemble_reproduces_quantum_moments(self):
        state = gaussian_state(0, 4.0, 0.6, (-40, 40))
        coh = coherence_parameters(state)
        ens = ensemble_from_state(state, 200000, seed=7)
        proto = DC
        for t in (1.3, 3.9, 6.0):
            mean, var = ensemble_moments(ens, proto, t)
            se_mean = np.sqrt(var / ens.size)
            assert abs(mean - float(expect_N(coh, proto, t))) < 3 * se_mean
            # variance estimator: allow 3 sigma with se ~ var sqrt(2/n)
            se_var = var * np.sqrt(2.0 / ens.size)
            assert abs(var - float(variance_N(coh, proto, t))) < 5 * se_var

    def test_uniform_momentum_ensemble_breathes(self):
        # flat p: center frozen, variance grows by (u^2 + v^2)/2
        m = 4096
        ens = ClassicalEnsemble(p=2 * np.pi * np.arange(m) / m - np.pi,
                                q=np.zeros(m), weights=np.full(m, 1.0 / m))
        proto = DC
        for t in (0.9, 2.2):
            mean, var = ensemble_moments(ens, proto, t)
            u, v = (float(x) for x in proto.uv(t))
            assert mean == pytest.approx(0.0, abs=1e-12)
            assert var == pytest.approx(0.5 * (u * u + v * v), abs=1e-10)

    @pytest.mark.parametrize("proto", [DC, HarmonicDrive(1.0, 2.0, 1.0, 0.5)],
                             ids=["dc", "harmonic"])
    def test_array_and_scalar_calls_agree(self, proto):
        ens = ensemble_from_state(gaussian_state(0, 3.0, 0.4, (-30, 30)), 500,
                                  seed=2)
        times = np.linspace(0.0, 9.0, 12).reshape(4, 3)
        means, variances = ensemble_moments(ens, proto, times)
        assert means.shape == variances.shape == times.shape
        for t, mean, var in zip(times.ravel(), means.ravel(), variances.ravel()):
            scalar = ensemble_moments(ens, proto, t)
            assert all(isinstance(x, float) for x in scalar)
            assert scalar == pytest.approx((mean, var), abs=1e-12)

    @pytest.mark.parametrize("proto", [DC, HarmonicDrive(1.0, 2.0, 1.0, 0.5)],
                             ids=["dc", "harmonic"])
    @pytest.mark.parametrize("delta", [1.0, 0.7])
    def test_one_pass_matches_the_per_time_loop(self, proto, delta):
        state = gaussian_state(25, 4.0, 0.6, (-10, 60))
        ens = ensemble_from_state(state, 20000, seed=5, delta=delta)
        times = np.linspace(0.0, 12.0, 37)
        for t in (times, times.reshape(1, 37), 3.3):
            got = ensemble_moments(ens, proto, t, delta)
            ref = ensemble_moments_loop(ens, proto, t, delta)
            for x, y in zip(got, ref):
                assert np.shape(x) == np.shape(t)
                assert np.allclose(x, y, rtol=1e-12, atol=0.0)

    def test_sampler_is_seeded(self):
        state = gaussian_state(0, 3.0, 0.2, (-24, 24))
        a = ensemble_from_state(state, 1000, seed=3)
        b = ensemble_from_state(state, 1000, seed=3)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
