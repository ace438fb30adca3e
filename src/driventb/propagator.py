"""The factorized time-evolution operator and its application to states.

The propagator splits into a number-operator phase times a shift-operator
exponential,

    U(t) = exp(-i eta_t N) exp(-i chi_t K) exp(-i chi_t* K^dag),

whose site-basis matrix elements are Bessel functions,

    U_{n n'}(t) = exp(-i (n'-n)(phi_t + pi/2) - i n eta_t) J_{n'-n}(2|chi_t|),

and whose Bloch-basis action is a pure phase e^{-i Phi(kappa)} followed by
an index shift by eta_t. Both routes are implemented: a site-space Bessel
convolution and an FFT route that applies the Bloch phase on an enlarged
ring (the eta shift is always realized as the exact site phase e^{-i eta n},
never as a kappa interpolation).

The generalization to an arbitrary band E(kappa) = sum_m (g_m e^{i m kappa}
+ c.c.) replaces chi by one integral per harmonic,

    chi_m(t) = g_m int_0^t exp(-i m eta_tau) dtau,

where the weight m in the exponent is fixed by the ladder action
K^m |n> = |n - m>, i.e. [K^m, N] = m K^m. See README "Conventions" for the
demonstrably wrong 2^(m-1) alternative, kept available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j_orders
from .drives import DriveProtocol
from .lattice import LatticeState

__all__ = [
    "PropagatorParams",
    "SingleBandDispersion",
    "propagator_params",
    "element",
    "bloch_phase",
    "evolve",
    "apply_propagator",
    "evolve_single_band",
]


@dataclass(frozen=True)
class PropagatorParams:
    """eta and the shift-exponential coefficients chi_m (m = 1..M) at one time."""

    t: float
    eta: float
    chi_list: tuple

    def __post_init__(self):
        object.__setattr__(self, "chi_list",
                           tuple(complex(c) for c in self.chi_list))


@dataclass(frozen=True)
class SingleBandDispersion:
    """Band E(kappa) = sum_{m=0..M} (g_m e^{i m kappa} + g_m* e^{-i m kappa}).

    couplings[m] is g_m in reciprocal-time units; the tight-binding model is
    couplings = (0, g0). M must be at least 1.
    """

    couplings: tuple

    def __post_init__(self):
        object.__setattr__(self, "couplings",
                           tuple(complex(g) for g in self.couplings))
        if len(self.couplings) < 2:
            raise ValueError("need couplings g_0..g_M with M >= 1")
        if not np.all(np.isfinite(np.asarray(self.couplings))):
            raise ValueError("couplings must be finite")

    @property
    def order(self) -> int:
        return len(self.couplings) - 1

    def energy(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        e = np.zeros(kappa.shape)
        for m, g in enumerate(self.couplings):
            e = e + 2.0 * (g * np.exp(1j * m * kappa)).real
        return e


def _eta_weight(m: int, convention: str) -> float:
    """Exponent weight w in chi_m = g_m int exp(-i w eta); the algebra fixes w = m."""
    if m == 0:
        return 0.0
    if convention == "index":
        return float(m)
    if convention == "power2":
        return float(2 ** (m - 1))
    raise ValueError(f"unknown convention {convention!r}")


def propagator_params(protocol: DriveProtocol, t: float) -> PropagatorParams:
    """Tight-binding propagator coefficients at time t."""
    t = float(t)
    return PropagatorParams(t=t, eta=float(protocol.eta(t)),
                            chi_list=(complex(protocol.chi(t)),))


def element(protocol: DriveProtocol, t: float, n: int, nprime) -> complex:
    """Matrix element(s) <n| U(t) |n'>; nprime may be an array."""
    pi_t = protocol.phase(t)
    x = 2.0 * pi_t.chi_abs
    phi = pi_t.phi
    scalar = np.ndim(nprime) == 0
    nprime = np.atleast_1d(np.asarray(nprime, dtype=int))
    m = nprime - int(n)

    kernel = bessel_j_orders(x)
    mmax = kernel.size // 2
    j_m = np.zeros(m.shape)
    inside = np.abs(m) <= mmax
    j_m[inside] = kernel[m[inside] + mmax]

    vals = np.exp(-1j * (m * (phi + 0.5 * np.pi) + n * pi_t.eta)) * j_m
    return vals.item() if scalar else vals


def bloch_phase(protocol: DriveProtocol, t: float, kappa,
                dispersion: SingleBandDispersion | None = None,
                convention: str = "index"):
    """The unit-modulus Bloch-diagonal factor e^{-i Phi(kappa)} of U_R(t).

    Tight binding: Phi = 2|chi_t| cos(kappa - phi_t). With a dispersion:
    Phi = sum_m (chi_m e^{i m kappa} + c.c.) including the m = 0 offset.
    """
    kappa = np.asarray(kappa, dtype=float)
    if dispersion is None:
        chi_list = {1: complex(protocol.chi(t))}
    else:
        chi_list = _dispersion_chis(dispersion, protocol, t, convention)
    phi_k = np.zeros(kappa.shape)
    for m, chi in chi_list.items():
        phi_k = phi_k + 2.0 * (chi * np.exp(1j * m * kappa)).real
    return np.exp(-1j * phi_k)


def _dispersion_chis(dispersion, protocol, t, convention) -> dict:
    return {m: g * complex(protocol.int_exp_eta(t, _eta_weight(m, convention)))
            for m, g in enumerate(dispersion.couplings) if g != 0.0}


def _crop(amps_ext: np.ndarray, lo_ext: int, state: LatticeState) -> LatticeState:
    i0 = state.n_min - lo_ext
    kept = amps_ext[i0: i0 + state.amplitudes.size]
    leak = float(np.sum(np.abs(amps_ext) ** 2) - np.sum(np.abs(kept) ** 2))
    return LatticeState(state.n_min, kept, ring=state.ring, leak=max(leak, 0.0))


def _apply_bloch(state: LatticeState, chi_list: dict, eta: float,
                 pad: int) -> LatticeState:
    """FFT route: diagonal Bloch phase on an enlarged ring, then the site phase."""
    n = state.amplitudes.size
    if state.ring:
        size, lo = n, state.n_min
        ext = state.amplitudes
    else:
        size = 1 << int(np.ceil(np.log2(n + 2 * pad + 1)))
        lo = state.n_min - pad
        ext = np.zeros(size, dtype=complex)
        ext[pad: pad + n] = state.amplitudes
    kappa = 2.0 * np.pi * np.arange(size) / size
    phi_k = np.zeros(size)
    for m, chi in chi_list.items():
        phi_k += 2.0 * (chi * np.exp(1j * m * kappa)).real
    out = np.fft.ifft(np.fft.fft(ext) * np.exp(-1j * phi_k))
    out *= np.exp(-1j * eta * np.arange(lo, lo + size))
    if state.ring:
        return LatticeState(lo, out, ring=True, leak=0.0)
    return _crop(out, lo, state)


def _shift_coefficients(chi: complex, kernel: np.ndarray) -> np.ndarray:
    """Coefficients a_m of U_R = sum_m a_m K^m, ordered m = -mmax..mmax,
    from the kernel J_m(2|chi|) on the same orders."""
    phi = 0.0 if chi == 0 else -np.angle(chi)
    m = np.arange(kernel.size) - kernel.size // 2
    return kernel * np.exp(-1j * m * (phi + 0.5 * np.pi))


def evolve(state: LatticeState, protocol: DriveProtocol, t: float,
           path: str = "bloch") -> LatticeState:
    """Apply U(t) to a state.

    path="bloch" applies the diagonal Bloch phase by FFT on an enlarged
    ring; path="site" convolves with the Bessel coefficients of the shift
    expansion. Both agree to ~1e-10; amplitude cropped back to the state's
    window is recorded in ``leak``.
    """
    t = float(t)
    return apply_propagator(state, float(protocol.eta(t)),
                            complex(protocol.chi(t)), path)


def apply_propagator(state: LatticeState, eta: float, chi: complex,
                     path: str = "bloch") -> LatticeState:
    """``evolve`` from precomputed phase integrals (eta_t, chi_t)."""
    kernel = bessel_j_orders(2.0 * abs(chi))
    mmax = kernel.size // 2
    if path == "bloch":
        return _apply_bloch(state, {1: chi}, eta, pad=mmax + 4)
    if path != "site":
        raise ValueError(f"unknown path {path!r}")

    coeff = _shift_coefficients(chi, kernel)
    if state.ring:
        out = np.zeros_like(state.amplitudes)
        for k, a in enumerate(coeff):
            if a != 0.0:
                out += a * np.roll(state.amplitudes, -(k - mmax))
        out *= np.exp(-1j * eta * state.sites)
        return LatticeState(state.n_min, out, ring=True, leak=0.0)
    # c'_n = sum_m a_m c_{n+m} on the extended window, then the eta phase
    ext = np.convolve(state.amplitudes, coeff[::-1])
    lo = state.n_min - mmax
    ext *= np.exp(-1j * eta * np.arange(lo, lo + ext.size))
    return _crop(ext, lo, state)


def evolve_single_band(state: LatticeState, dispersion: SingleBandDispersion,
                       protocol: DriveProtocol, t: float,
                       convention: str = "index") -> LatticeState:
    """Apply the propagator of an arbitrary-band Hamiltonian via Bloch phases.

    ``protocol`` supplies the field f_t (its g is ignored; the hopping comes
    from the dispersion couplings). Reduces exactly to ``evolve`` for
    couplings (0, g) when the protocol carries the same constant g.
    """
    t = float(t)
    chi_list = _dispersion_chis(dispersion, protocol, t, convention)
    eta = float(protocol.eta(t))
    pad = 4
    for m, chi in chi_list.items():
        if m > 0:
            pad += m * (bessel_j_orders(2.0 * abs(chi)).size // 2 + 4)
    return _apply_bloch(state, chi_list, eta, pad=pad)
