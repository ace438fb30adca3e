"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line. All
tolerances are pinned here; the heavy brute-force comparisons (criteria 3
and 4) share one set of 20 integrated cases via a module-scoped fixture.
"""

import numpy as np
import pytest

from driventb import (DCDrive, FourierDrive, HarmonicDrive, OracleConfig,
                      SingleBandDispersion, bessel_zero, coherence_parameters,
                      element, ensemble_from_state, ensemble_moments, evolve,
                      expect_N, gaussian_state, houston_state, integrate,
                      integrate_series, invariant_expectation,
                      monodromy_spectrum, quasienergy_band, single_site,
                      variance_N)
from helpers import dense_hamiltonian, expect_N_k, variance_N_moments

RNG_SEED = 20250809


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def random_cases(rng, count=20):
    """dc / harmonic / 2-mode fourier protocols with bounded chi growth."""
    cases = []
    kinds = ["dc", "harmonic", "fourier"]
    for i in range(count):
        kind = kinds[i % 3]
        f0 = rng.uniform(0.8, 1.5)
        g0 = rng.uniform(0.2, 0.6)
        if kind == "dc":
            proto = DCDrive(f0, g0)
        elif kind == "harmonic":
            omega = rng.uniform(0.7, 1.4)
            proto = HarmonicDrive(f0, rng.uniform(0.0, 2.5) * omega, omega, g0)
        else:
            omega = f0 / rng.integers(1, 3)  # resonant: exercises the drift
            proto = FourierDrive(f0, (rng.uniform(-1.0, 1.0),
                                      rng.uniform(-0.8, 0.8)), omega, g0)
        if i % 2 == 0:
            state = gaussian_state(0, rng.uniform(2.0, 4.0),
                                   rng.uniform(-np.pi, np.pi), (-64, 64))
        else:
            state = single_site(0, (-64, 64))
        t_final = rng.uniform(0.5, 2.0) * proto.bloch_period
        cases.append((proto, state, t_final))
    return cases


@pytest.fixture(scope="module")
def integrated_cases():
    """The 20 shared brute-force runs for criteria 3 and 4."""
    rng = np.random.default_rng(RNG_SEED)
    config = OracleConfig(error_per_time=3e-8)
    out = []
    for proto, state, t_final in random_cases(rng):
        times = [0.5 * t_final, t_final]
        refs = integrate_series(state, proto, times, config=config)
        out.append((proto, state, times, refs))
    return out


def test_criterion_01_bloch_period_revival():
    proto = DCDrive(1.0, 1.0)
    state = gaussian_state(0, 4.0, 0.6, (-32, 32))  # 65 sites
    t_b = 2.0 * np.pi
    closed = evolve(state, proto, t_b)
    fid_closed = abs(closed.overlap(state))
    ref = integrate(state, proto, t_b, config=OracleConfig(error_per_time=1e-9))
    fid_oracle = abs(ref.overlap(state))
    ok = fid_closed > 1.0 - 1e-8 and fid_oracle > 1.0 - 1e-7
    report(1, "bloch-period-revival", ok,
           f"closed 1-{1.0 - fid_closed:.1e}, oracle 1-{1.0 - fid_oracle:.1e}")


def test_criterion_02_propagator_unitarity():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for proto, _, t_final in random_cases(rng, count=34):
        for t in rng.uniform(0.0, t_final, 3):
            x = 2.0 * abs(proto.chi(t))
            reach = int(np.ceil(x + 14.0 * max(x, 1.0) ** (1 / 3))) + 40
            row = element(proto, float(t), 0, np.arange(-reach, reach + 1))
            worst = max(worst, abs(float(np.sum(np.abs(row) ** 2)) - 1.0))
    ok = worst < 1e-10
    report(2, "propagator-unitarity", ok, f"worst |sum - 1| = {worst:.2e} over "
                                          "102 draws")


def test_criterion_03_oracle_equivalence(integrated_cases):
    worst = 0.0
    for proto, state, times, refs in integrated_cases:
        for t, ref in zip(times, refs):
            closed = evolve(state, proto, float(t))
            worst = max(worst, float(np.max(np.abs(closed.amplitudes
                                                   - ref.amplitudes))))
    ok = worst < 1e-6
    report(3, "oracle-equivalence-tight-binding", ok,
           f"max amplitude deviation = {worst:.2e} over 20 cases")


def test_criterion_04_moment_formulas(integrated_cases):
    worst_moment = 0.0
    worst_form_n = 0.0
    worst_form_var = 0.0
    for proto, state, times, refs in integrated_cases:
        coh = coherence_parameters(state)
        for t, ref in zip(times, refs):
            p = ref.probabilities
            sites = ref.sites.astype(float)
            mean_ref = float(np.sum(sites * p))
            var_ref = float(np.sum(sites ** 2 * p)) - mean_ref ** 2
            mean_cl = float(expect_N(coh, proto, t))
            var_cl = float(variance_N(coh, proto, t))
            worst_moment = max(worst_moment, abs(mean_cl - mean_ref),
                               abs(var_cl - var_ref))
            worst_form_n = max(worst_form_n, abs(
                mean_cl - float(expect_N_k(coh, proto, t))))
            worst_form_var = max(worst_form_var, abs(
                var_cl - float(variance_N_moments(coh, proto, t))))
    ok = worst_moment < 1e-6 and worst_form_n < 1e-10 and worst_form_var < 1e-10
    report(4, "moment-formulas", ok,
           f"vs oracle {worst_moment:.2e}, form gaps {worst_form_n:.2e} / "
           f"{worst_form_var:.2e}")


def test_criterion_05_dynamic_localization():
    zero = bessel_zero(1, 1)
    coh = coherence_parameters(single_site(0, (-8, 8)))

    locked = HarmonicDrive(1.0, zero, 1.0, 0.5)
    period = locked.period
    var_one = np.asarray(variance_N(coh, locked,
                                    np.linspace(0.0, period, 257)))
    var_long = np.asarray(variance_N(coh, locked,
                                     np.linspace(0.0, 50 * period, 4001)))
    bounded = float(np.max(var_long)) < 4.0 * float(np.max(var_one))

    twin = HarmonicDrive(1.0, 1.0, 1.0, 0.5)
    gamma = twin.drift_rate()
    d_ss = coh.cs_covariances[1, 1]
    t_long = 50 * twin.period
    ratio = float(variance_N(coh, twin, t_long)) / t_long ** 2
    slope_ok = abs(ratio - gamma ** 2 * d_ss) < 0.05 * gamma ** 2 * d_ss

    ok = bounded and slope_ok
    report(5, "dynamic-localization", ok,
           f"max var {float(np.max(var_long)):.3f} vs bound "
           f"{4 * float(np.max(var_one)):.3f}; slope ratio "
           f"{ratio / (gamma ** 2 * d_ss):.4f}")


def test_criterion_06_quasienergy_band():
    proto = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
    kappa, eps = monodromy_spectrum(proto, 32)
    band = quasienergy_band(proto)
    dev = float(np.max(np.abs(eps - band.epsilon(kappa))))
    width_gap = abs(band.bandwidth - 2.0 * abs(proto.drift_rate()))
    ok = dev < 1e-4 and width_gap < 1e-4
    report(6, "quasienergy-band", ok,
           f"monodromy dev {dev:.2e}, bandwidth gap {width_gap:.2e}")


def test_criterion_07_invariant_conservation():
    rng = np.random.default_rng(RNG_SEED + 2)
    state = gaussian_state(0, 3.0, 0.8, (-56, 56))
    n0 = coherence_parameters(state).n_mean
    worst = 0.0
    for proto in (DCDrive(1.0, 1.0), HarmonicDrive(1.0, 1.0, 1.0, 0.5)):
        for t in rng.uniform(0.0, 2 * proto.bloch_period, 10):
            value = invariant_expectation(state, proto, float(t))
            worst = max(worst, abs(value - n0))
    ok = worst < 1e-7
    report(7, "invariant-conservation", ok,
           f"max |<I(t)> - <N>_0| = {worst:.2e} over 20 draws")


def test_criterion_08_quantum_classical_correspondence():
    proto = DCDrive(1.0, 1.0)
    state = gaussian_state(0, 5.0, 0.8, (-40, 40))
    coh = coherence_parameters(state)
    ens = ensemble_from_state(state, 100000, seed=RNG_SEED)
    worst_pull = 0.0
    for t in np.linspace(0.0, 2 * proto.bloch_period, 20):
        mean_cl, var_cl = ensemble_moments(ens, proto, float(t))
        se = np.sqrt(max(var_cl, 1e-30) / ens.size)
        pull = abs(mean_cl - float(expect_N(coh, proto, t))) / (3.0 * se)
        worst_pull = max(worst_pull, pull)
    ok = worst_pull < 1.0
    report(8, "quantum-classical-correspondence", ok,
           f"worst |mean deviation| = {worst_pull:.2f} of 3 standard errors")


def test_criterion_09_single_band_commutator_weight():
    dispersion = SingleBandDispersion((0.0, 0.0, 0.0, 0.3))
    state = gaussian_state(0, 2.0, 0.3, (-48, 48))

    free = DCDrive(0.0, 0.0)
    t = 1.3
    ref_free = integrate(state, free, t, dispersion=dispersion)
    dev_free = float(np.max(np.abs(
        evolve(state, free, t, dispersion=dispersion).amplitudes
        - ref_free.amplitudes)))

    dc = DCDrive(1.0, 0.0)
    ref_dc = integrate(state, dc, t, dispersion=dispersion)
    dev_index = float(np.max(np.abs(
        evolve(state, dc, t, dispersion=dispersion).amplitudes
        - ref_dc.amplitudes)))
    dev_power2 = float(np.max(np.abs(
        evolve(state, dc, t, dispersion=SingleBandDispersion(
            dispersion.couplings, convention="power2")).amplitudes
        - ref_dc.amplitudes)))

    ok = dev_free < 1e-6 and dev_index < 1e-6 and dev_power2 > 1e-2
    report(9, "single-band-commutator-weight", ok,
           f"index: free {dev_free:.2e}, dc {dev_index:.2e}; "
           f"power2 dc {dev_power2:.2e}")


def test_criterion_10_houston_state_residual():
    # the finite-difference truncation itself is ~ (n_max |f|)^3 dt^2 / 6
    # per site, so the ring size is matched to each drive's field strength
    # to keep that budget well under the 1e-5 tolerance being certified
    cases = [(DCDrive(1.0, 1.0), 32), (HarmonicDrive(1.0, 1.0, 1.0, 0.25), 16)]
    dt = 1e-4
    worst = 0.0
    for proto, length in cases:
        window = (-(length // 2), length - length // 2 - 1)
        kappa = 2.0 * np.pi * 5 / length
        for t in np.linspace(0.3, 0.3 + 2.0 * np.pi, 8):
            minus = houston_state(kappa, proto, t - dt, window, ring=True)
            here = houston_state(kappa, proto, t, window, ring=True)
            plus = houston_state(kappa, proto, t + dt, window, ring=True)
            dpsi = (plus.amplitudes - minus.amplitudes) / (2.0 * dt)
            hamiltonian = dense_hamiltonian(
                here.sites, float(proto.f(t)), (0.0, complex(proto.g(t))),
                np.exp(-1j * length * float(proto.eta(t))))
            hpsi = hamiltonian @ here.amplitudes
            worst = max(worst, float(np.linalg.norm(1j * dpsi - hpsi)))
    ok = worst < 1e-5
    report(10, "houston-state-residual", ok,
           f"max ||(i d/dt - H) psi|| = {worst:.2e} at dt = 1e-4")
