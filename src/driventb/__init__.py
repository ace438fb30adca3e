"""Closed-form dynamics of driven single-band tight-binding lattices.

The model is H(t) = G(t) (K + K^dag) + F(t) N on the integer lattice, with
K the unitary shift operator and N the site-number operator, in reduced
units hbar = d = 1 (nearest-neighbor hopping of bandwidth Delta enters as
g0 = -Delta/4). The shift-operator Lie algebra factorizes the propagator
into exponentials with scalar coefficients, so propagators, expectation
values, quasienergy bands, a dynamical invariant, and an exactly solvable
classical counterpart all come out in closed form; a brute-force
Schrodinger integrator cross-checks every one of them.
"""

from .bessel import bessel_j, bessel_j_array, bessel_j_multivar, bessel_zero
from .drives import (DCDrive, DriveProtocol, FourierDrive, HarmonicDrive,
                     TabulatedDrive)
from .lattice import (BlochAmplitudes, CoherenceParameters, LatticeState,
                      apply_shift, bloch_transform, coherence_parameters,
                      gaussian_state, inverse_bloch, make_state, single_site,
                      state_from_amplitudes)
from .propagator import (SingleBandDispersion, apply_propagator, bloch_phase,
                         element, evolve)
from .observables import (LocalizationReport, ModeReport, ObservableSeries,
                          classify_mode, expect_K, expect_N,
                          expect_N_single_band, localization_report,
                          observable_series, variance_N)
from .floquet import (QuasienergyBand, floquet_state, houston_state,
                      invariant_expectation, invariant_lambda, quasienergy,
                      quasienergy_band)
from .classical import (ClassicalEnsemble, ClassicalState, classical_invariant,
                        ensemble_from_state, ensemble_moments, trajectory)
from .oracle import OracleConfig, WindowLeakError, integrate, integrate_series, \
    monodromy_spectrum

__version__ = "0.1.0"
