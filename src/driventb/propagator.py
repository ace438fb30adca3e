"""The factorized time-evolution operator and its application to states.

For a band E(kappa) = sum_m (g_m e^{i m kappa} + c.c.) the propagator is a
number-operator phase times one shift-operator exponential per harmonic,

    U(t) = exp(-i eta_t N) prod_m exp(-i chi_m K^m - i chi_m* K^dag m),
    chi_m(t) = g_m int_0^t exp(-i m eta_tau) dtau,

the weight m being fixed by the ladder action K^m |n> = |n - m>, i.e.
[K^m, N] = m K^m (README "Conventions" covers the demonstrably wrong
2^(m-1) alternative, kept for comparison). Tight binding is the band
{1: chi_t}, with Bessel-function matrix elements

    U_{n n'}(t) = exp(-i (n'-n)(phi_t + pi/2) - i n eta_t) J_{n'-n}(2|chi_t|).

One entry point, ``apply_propagator(state, eta, {m: chi_m})``, serves every
band; ``evolve`` feeds it a drive's phase integrals at one time or over a
time grid. Its "bloch" route applies the diagonal phase e^{-i Phi(kappa)}
by FFT on an enlarged ring, its "site" route convolves with the harmonics'
Bessel kernels (by FFT when that is cheaper); the eta shift is the site
phase e^{-i eta n} on the kept sites only, good to about an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import _spread_product, bessel_cutoff, bessel_j_orders
from .drives import DriveProtocol
from .lattice import LatticeState

__all__ = [
    "SingleBandDispersion",
    "element",
    "bloch_phase",
    "evolve",
    "apply_propagator",
]


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
        return _band_phase(dict(enumerate(self.couplings)),
                           np.asarray(kappa, dtype=float))


def _eta_weight(m: int, convention: str) -> float:
    """Exponent weight w in chi_m = g_m int exp(-i w eta); the algebra fixes w = m."""
    if m == 0:
        return 0.0
    if convention == "index":
        return float(m)
    if convention == "power2":
        return float(2 ** (m - 1))
    raise ValueError(f"unknown convention {convention!r}")


def _chis(protocol: DriveProtocol, t, dispersion=None,
          convention: str = "index") -> dict:
    """{m: chi_m(t)}: the drive's {1: chi_t}, or one integral per nonzero
    coupling of the dispersion (whose g replaces the drive's); complex
    values at a scalar t, arrays of t's shape at an array."""
    if dispersion is None:
        return {1: protocol.chi(t)}
    return {m: g * protocol.int_exp_eta(t, _eta_weight(m, convention))
            for m, g in enumerate(dispersion.couplings) if g != 0.0}


def _band_phase(chis: dict, kappa):
    """Phi(kappa) = sum_m (chi_m e^{i m kappa} + c.c.), by real cosines."""
    phi = np.zeros(np.shape(kappa))
    for m, chi in chis.items():
        phi += 2.0 * np.abs(chi) * np.cos(m * kappa + np.angle(chi))
    return phi


def _site_phase(theta: float, lo: int, size: int) -> np.ndarray:
    """e^{-i theta n} for n = lo..lo+size-1: the outer product of a row
    factor over lo + B k and a column factor over 0 <= j < B ~ sqrt(size).
    theta splits into a float32 head, whose product with |n| < 2^29 is
    exact, and a tail, so each factor is good to about an ulp."""
    b = int(size ** 0.5) + 1
    n = np.concatenate((lo + b * np.arange(-(-size // b)), np.arange(b)))
    head = float(np.float32(theta))
    f = np.exp(-1j * (head * n)) * np.exp(-1j * ((theta - head) * n))
    return np.outer(f[:-b], f[-b:]).ravel()[:size]


def _site_kernel(chis: dict) -> np.ndarray:
    """Coefficients a_j of U_R = sum_j a_j K^j, ordered j = -M..M: harmonic
    m contributes J_k(2|chi_m|) e^{-ik(phi_m + pi/2)} at j = m k, and the
    m = 0 offset the global phase e^{-2i Re chi_0}."""
    kernels = [(1, np.array([np.exp(-2j * chis[0].real)]))] if 0 in chis else []
    for m, chi in chis.items():
        if m > 0:
            j = bessel_j_orders(2.0 * abs(chi))
            phi = 0.0 if chi == 0 else -np.angle(chi)
            kernels.append((m, j * _site_phase(phi + 0.5 * np.pi,
                                               -(j.size // 2), j.size)))
    return _spread_product(kernels)


def element(protocol: DriveProtocol, t: float, n: int, nprime) -> complex:
    """Matrix element(s) <n| U(t) |n'>; nprime may be an array."""
    t = float(t)
    kernel = _site_kernel({1: complex(protocol.chi(t))})
    mmax = kernel.size // 2
    scalar = np.ndim(nprime) == 0
    m = np.atleast_1d(np.asarray(nprime, dtype=int)) - int(n)
    inside = np.abs(m) <= mmax
    vals = np.zeros(m.shape, dtype=complex)
    vals[inside] = kernel[m[inside] + mmax]
    vals *= np.exp(-1j * n * float(protocol.eta(t)))
    return vals.item() if scalar else vals


def bloch_phase(protocol: DriveProtocol, t: float, kappa,
                dispersion: SingleBandDispersion | None = None,
                convention: str = "index"):
    """The unit-modulus Bloch-diagonal factor e^{-i Phi(kappa)} of U_R(t).

    Tight binding: Phi = 2|chi_t| cos(kappa - phi_t). With a dispersion:
    Phi = sum_m (chi_m e^{i m kappa} + c.c.) including the m = 0 offset.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.exp(-1j * _band_phase(_chis(protocol, t, dispersion, convention),
                                    kappa))


def evolve(state: LatticeState, protocol: DriveProtocol, t,
           path: str = "bloch", dispersion: SingleBandDispersion | None = None,
           convention: str = "index"):
    """Apply U(t) to a state: a scalar t gives the evolved state, a 1-d
    array of times the list of evolved states, with the phase integrals
    evaluated once for the whole grid.

    Without a dispersion the drive's g_t hops between neighbours; with one,
    ``protocol`` supplies only the field f_t and the band supplies the
    couplings, each harmonic m weighted by ``convention`` ("index": m,
    "power2": 2^(m-1)).
    """
    times = np.asarray(t, dtype=float)
    eta = protocol.eta(times)
    chis = _chis(protocol, times, dispersion, convention)
    if times.ndim == 0:
        return apply_propagator(state, float(eta), chis, path)
    return [apply_propagator(state, float(eta[i]),
                             {m: complex(chi[i]) for m, chi in chis.items()}, path)
            for i in range(times.size)]


def _convolve(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """np.convolve(a, b, mode) for mode "full" or "valid", by a power-of-two
    FFT when the direct sum's a.size * b.size passes 16 n log2 n."""
    size = a.size + b.size - 1
    n = 1 << (size - 1).bit_length()
    if a.size * b.size <= 16 * n * np.log2(n):
        return np.convolve(a, b, mode)
    out = np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))[:size]
    cut = min(a.size, b.size) - 1 if mode == "valid" else 0
    return out[cut: size - cut]


def apply_propagator(state: LatticeState, eta: float, chis: dict,
                     path: str = "bloch") -> LatticeState:
    """U = e^{-i eta N} prod_m exp(-i (chi_m K^m + h.c.)) applied to a state.

    ``chis`` maps m >= 0 to chi_m; tight binding is {1: chi_t}. path="bloch"
    applies the diagonal Bloch phase by FFT on an enlarged ring; path="site"
    convolves, c'_n = sum_j a_j c_{n+j}, with the shift-expansion
    coefficients, by FFT when that is cheaper. The probability on the sites
    cropped back to an open window is recorded in ``leak``.
    """
    c, ring = state.amplitudes, state.ring
    # bessel_cutoff bounds N_m, harmonic m's kernel half-width; taken first,
    # so that an argument past the Bessel range fails before any allocation
    cutoffs = {m: bessel_cutoff(2.0 * abs(chi)) for m, chi in chis.items() if m > 0}
    if path == "site":
        coeff = _site_kernel(chis)[::-1]
        pad = coeff.size // 2
        if ring:  # the wrapped state reaches every c_{n+j}, however long the kernel
            c = np.take(c, np.arange(-pad, c.size + pad), mode="wrap")
        out = _convolve(c, coeff, "valid" if ring else "full")
    elif path == "bloch":
        pad = 0
        if not ring:  # the kernel reaches sum_m m N_m sites
            pad = 4 + sum(m * n for m, n in cutoffs.items())
            size = 1 << int(np.ceil(np.log2(c.size + 2 * pad + 1)))
            ext = np.zeros(size, dtype=complex)
            ext[pad: pad + c.size] = c
            c = ext
        kappa = 2.0 * np.pi * np.arange(c.size) / c.size
        out = np.fft.ifft(np.fft.fft(c) * np.exp(-1j * _band_phase(chis, kappa)))
    else:
        raise ValueError(f"unknown path {path!r}")
    if ring:
        out *= _site_phase(eta, state.n_min, out.size)
        return LatticeState(state.n_min, out, ring=True, leak=0.0)
    size = state.amplitudes.size
    leak = sum(float(np.vdot(e, e).real) for e in (out[:pad], out[pad + size:]))
    kept = out[pad: pad + size] * _site_phase(eta, state.n_min, size)
    return LatticeState(state.n_min, kept, leak=leak)
