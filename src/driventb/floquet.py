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
from .propagator import evolve

__all__ = [
    "QuasienergyBand",
    "InvariantCoefficients",
    "quasienergy_band",
    "quasienergy",
    "houston_state",
    "floquet_state",
    "invariant_lambda",
    "invariant_expectation",
]

_BLOCK = 32  # times evolved together by invariant_expectation


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


@dataclass(frozen=True)
class InvariantCoefficients:
    """Coefficients of I(t) = gamma N + lambda K + lambda* K^dag (gamma = 1)."""

    t: float
    lam: complex
    gamma: float = 1.0


def invariant_lambda(protocol: DriveProtocol, t: float) -> InvariantCoefficients:
    """lambda_t = -i e^{i eta_t} chi_t, the solution of lambda' = i(f lambda - g)."""
    t = float(t)
    lam = -1j * np.exp(1j * float(protocol.eta(t))) * complex(protocol.chi(t))
    return InvariantCoefficients(t=t, lam=complex(lam))


def invariant_expectation(state0: LatticeState, protocol: DriveProtocol,
                          t, leak_tol: float = 1e-8, forms_tol: float = 1e-9):
    """<I(t)> on the evolved state; equals <N>_0 for all t.

    ``t`` is a scalar (a float back) or an array (an array of its shape);
    the phase integrals are evaluated as arrays, and the states are evolved
    a block of times at a time, so the memory held does not grow with the
    grid. The evolved state is produced by the closed-form propagator; a
    window leak above ``leak_tol`` invalidates the conservation check and
    raises. The K/K^dag and C/S parameterizations of I(t) are both
    evaluated and must agree to ``forms_tol``.
    """
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    eta = np.asarray(protocol.eta(flat), dtype=float)
    chi = np.asarray(protocol.chi(flat), dtype=complex)
    u, v = (np.broadcast_to(x, flat.shape) for x in protocol.uv(flat))
    lam = -1j * np.exp(1j * eta) * chi
    a = u * np.sin(eta) - v * np.cos(eta)
    b = u * np.cos(eta) + v * np.sin(eta)
    n = state0.sites.astype(float)
    values = np.empty(flat.shape)
    states = (psi for start in range(0, flat.size, _BLOCK)
              for psi in evolve(state0, protocol, flat[start:start + _BLOCK]))
    for i, psi in enumerate(states):
        if psi.leak > leak_tol:
            raise WindowLeakError(
                f"window leak {psi.leak:.3e} exceeds {leak_tol:g}; enlarge the window")
        c = psi.normalized().amplitudes
        k_t = complex(np.sum(np.conj(c[:-1]) * c[1:]))
        n_t = float(np.sum(n * np.abs(c) ** 2))
        value_k = n_t + 2.0 * (lam[i] * k_t).real
        value_cs = n_t + a[i] * k_t.real + b[i] * k_t.imag
        if abs(value_k - value_cs) > forms_tol * (1.0 + abs(value_k)):
            raise ValueError("K/Kdag and C/S forms of the invariant disagree "
                             f"({value_k!r} vs {value_cs!r})")
        values[i] = value_k
    return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)
