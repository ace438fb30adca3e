"""Quasienergy bands, Houston/Floquet states, and the dynamical invariant.

For a resonant periodic drive (T an integer multiple of the Bloch period)
the one-period propagator contains only shift operators, so Bloch waves
are Floquet states with quasienergies

    eps_kappa = a_n e^{i kappa} + a_n* e^{-i kappa} = 2 |a_n| cos(kappa + phase),

a_n being the resonant Fourier coefficient of g_t e^{-i eta~_t}. The
Houston states U(t)|kappa> are available in closed form at every time, and

    I(t) = N + lambda_t K + lambda_t* K^dag,   lambda_t = -i e^{i eta_t} chi_t,

is a constant of motion whose expectation stays at <N>_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drives import DriveProtocol
from .lattice import LatticeState, WindowLeakError
from .propagator import _blocks

__all__ = [
    "QuasienergyBand",
    "quasienergy_band",
    "quasienergy",
    "houston_state",
    "floquet_state",
    "invariant_lambda",
    "invariant_expectation",
]
_LEAK_TOL = 1e-8  # the window leak past which <I(t)> raises
_FORMS_TOL = 1e-9  # relative: the K/K^dag and C/S forms of <I(t)> must agree to it

@dataclass(frozen=True)
class QuasienergyBand:
    """The quasienergy dispersion of a resonant drive."""

    order: int
    a_n: complex

    @property
    def phase(self) -> float:
        return 0.0 if self.a_n == 0 else float(np.angle(self.a_n))

    @property
    def bandwidth(self) -> float:
        return 4.0 * abs(self.a_n)

    def epsilon(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        return 2.0 * (self.a_n * np.exp(1j * kappa)).real


def quasienergy_band(protocol: DriveProtocol) -> QuasienergyBand:
    n = protocol.resonance_order()
    if n is None:
        raise ValueError("quasienergies require a resonant periodic protocol")
    return QuasienergyBand(order=n, a_n=complex(protocol.fourier_amplitude(n)))


def quasienergy(protocol: DriveProtocol, kappa):
    """eps_kappa = 2 |a_n| cos(kappa + arg a_n)."""
    return quasienergy_band(protocol).epsilon(kappa)


def houston_state(kappa: float, protocol: DriveProtocol, t: float,
                  window: tuple[int, int], ring: bool = False) -> LatticeState:
    """The evolved Bloch wave U(t) |kappa> on a finite window.

    Amplitudes are exp(i n kappa_t - i (chi_t e^{i kappa} + c.c.)) with
    kappa_t = kappa - eta_t, times (2 pi)^{-1/2} (a Bloch-wave slice, not
    square normalized) or L^{-1/2} with ring=True (unit norm on the ring;
    pick kappa on the ring grid for exact shift eigenvalue checks).
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError("empty window")
    sites = np.arange(lo, hi + 1)
    t = float(t)
    kappa_t = kappa - float(protocol.eta(t))
    chi = complex(protocol.chi(t))
    global_phase = chi * np.exp(1j * kappa) + np.conj(chi) * np.exp(-1j * kappa)
    amp0 = (1.0 / np.sqrt(sites.size)) if ring else (1.0 / np.sqrt(2.0 * np.pi))
    amps = amp0 * np.exp(1j * (sites * kappa_t - global_phase))
    return LatticeState(lo, amps, ring=ring)


def floquet_state(kappa: float, protocol: DriveProtocol, t: float,
                  window: tuple[int, int], ring: bool = False) -> LatticeState:
    """The T-periodic state e^{+i eps_kappa t} U(t)|kappa>; equals |kappa> at t = T."""
    eps = float(quasienergy(protocol, kappa))
    state = houston_state(kappa, protocol, t, window, ring=ring)
    return LatticeState(state.n_min, np.exp(1j * eps * float(t)) * state.amplitudes,
                        ring=ring)


def _lambda(eta, chi):
    """lambda_t = -i e^{i eta_t} chi_t, at one time or over arrays."""
    return -1j * np.exp(1j * eta) * chi


def invariant_lambda(protocol: DriveProtocol, t: float) -> complex:
    """lambda_t = -i e^{i eta_t} chi_t, the solution of lambda' = i(f lambda - g)."""
    t = float(t)
    return complex(_lambda(float(protocol.eta(t)), complex(protocol.chi(t))))


def invariant_expectation(state0: LatticeState, protocol: DriveProtocol, t):
    """<I(t)> on the evolved state; equals <N>_0 for all t.

    ``t`` is a scalar (a float back) or an array (an array of its shape);
    the phase integrals are evaluated once as arrays, and the states come
    from the closed-form propagator's bloch blocks (``propagator._blocks``),
    so the memory held beyond a few numbers per time is one block, not the
    grid. A window leak above _LEAK_TOL invalidates the conservation
    check and raises, as does a ring state: N has no meaning on a ring, and
    K lacks the seam hop. The K/K^dag and C/S parameterizations of I(t) are
    both evaluated and must agree to _FORMS_TOL.
    """
    if state0.ring:
        raise ValueError("the invariant needs an open window")
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    eta = np.asarray(protocol.eta(flat), dtype=float)
    chi = np.asarray(protocol.chi(flat), dtype=complex)
    u, v = 2.0 * chi.real, -2.0 * chi.imag
    lam = _lambda(eta, chi)
    a = u * np.sin(eta) - v * np.cos(eta)
    b = u * np.cos(eta) + v * np.sin(eta)
    n = state0.sites.astype(float)
    leaks, n_t, k_t = np.empty(eta.size), np.empty(eta.size), np.empty(eta.size, complex)
    for rows, kept, leak in _blocks(state0, eta, {1: chi}):
        norms = np.array([np.linalg.norm(row) for row in kept])
        if not norms.all():
            raise ValueError("cannot normalize a zero state")
        c = kept / norms[:, None]
        leaks[rows], n_t[rows] = leak, np.sum(n * np.abs(c) ** 2, axis=1)
        k_t[rows] = np.sum(np.conj(c[:, :-1]) * c[:, 1:], axis=1)
    values = np.empty(eta.size)
    for i in range(eta.size):
        if leaks[i] > _LEAK_TOL:
            raise WindowLeakError(
                f"window leak {leaks[i]:.3e} exceeds {_LEAK_TOL:g}; enlarge the window")
        k, n_i = complex(k_t[i]), float(n_t[i])
        value_k = n_i + 2.0 * (lam[i] * k).real
        value_cs = n_i + a[i] * k.real + b[i] * k.imag
        if abs(value_k - value_cs) > _FORMS_TOL * (1.0 + abs(value_k)):
            raise ValueError("K/Kdag and C/S forms of the invariant disagree "
                             f"({value_k!r} vs {value_cs!r})")
        values[i] = value_k
    return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)
