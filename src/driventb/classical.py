"""The classical counterpart of the driven lattice.

H(p, q, t) = 2 G(t) cos(p delta) + F(t) q / d generates

    p_t delta = p_0 delta - eta_t,
    q_t / d   = q_0 / d + v_t cos(p_0 delta) - u_t sin(p_0 delta),

formally identical to the operator solution N(t) = N + v C - u S, so
ensemble moments of matched initial distributions reproduce the quantum
closed forms. delta = d/hbar is kept explicit (default 1 in reduced units)
because this "classicalization" depends on hbar. d = 1 throughout, so q is
the position in lattice constants (N = q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drives import DriveProtocol
from .lattice import LatticeState, bloch_transform

__all__ = [
    "ClassicalState",
    "ClassicalEnsemble",
    "trajectory",
    "ensemble_moments",
    "classical_invariant",
    "ensemble_from_state",
]


@dataclass(frozen=True)
class ClassicalState:
    """A phase-space point: momentum p (units hbar/d) and position q (units d)."""

    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("phase-space coordinates must be finite")


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Weighted phase-space samples; weights are nonnegative and sum to 1."""

    p: np.ndarray
    q: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if not (p.shape == q.shape == w.shape) or p.ndim != 1 or p.size == 0:
            raise ValueError("p, q, weights must be matching non-empty 1-d arrays")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.p.size


def trajectory(state0: ClassicalState, protocol: DriveProtocol, t: float,
               delta: float = 1.0) -> ClassicalState:
    """Exact trajectory of pdot = -f/delta, qdot = -2 g delta sin(p delta)."""
    t = float(t)
    theta0 = state0.p * delta
    u, v = protocol.uv(t)
    return ClassicalState(p=float((theta0 - protocol.eta(t)) / delta),
                          q=float(state0.q + v * np.cos(theta0) - u * np.sin(theta0)))


def ensemble_moments(ensemble: ClassicalEnsemble, protocol: DriveProtocol,
                     t, delta: float = 1.0):
    """Weighted (mean, variance) of the position q_t/d under exact trajectories.

    ``t`` is a scalar (two floats back) or an array (two arrays of its
    shape). q_t = (1, v_t, -u_t) . (q, cos p delta, sin p delta), so its moments
    at every time follow from one pass's means and covariances of that triple.
    """
    u, v = protocol.uv(np.asarray(t, dtype=float))
    x = np.stack((ensemble.q, np.cos(ensemble.p * delta), np.sin(ensemble.p * delta)))
    mean, cov = x @ ensemble.weights, np.cov(x, bias=True, aweights=ensemble.weights)
    a = np.array(np.broadcast_arrays(np.ones(np.shape(u)), v, -u))
    moments = np.tensordot(mean, a, 1), np.einsum("i...,ij,j...->...", a, cov, a)
    return tuple(map(float, moments)) if np.ndim(t) == 0 else moments


def classical_invariant(state: ClassicalState, protocol: DriveProtocol,
                        t: float, delta: float = 1.0) -> float:
    """I(p, q, t); along a trajectory this stays at the launch position q_0/d."""
    t = float(t)
    eta = float(protocol.eta(t))
    u, v = (float(x) for x in protocol.uv(t))
    theta = state.p * delta
    return (state.q
            + (u * np.sin(eta) - v * np.cos(eta)) * np.cos(theta)
            + (u * np.cos(eta) + v * np.sin(eta)) * np.sin(theta))


def ensemble_from_state(state: LatticeState, n_samples: int, seed: int = 0,
                        delta: float = 1.0) -> ClassicalEnsemble:
    """Sample a classical ensemble whose (C, S)- and N-moments match a state.

    Positions are drawn from the site probabilities, momenta from the Bloch
    density on max(64, 2 L) points of an L-site state (p = kappa/delta),
    independently. Every moment of functions of p alone or q alone then
    matches the quantum value in expectation; the C-N and S-N cross
    covariances come out zero, which is exact for position-symmetric states.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    bloch = bloch_transform(state, max(64, 2 * state.amplitudes.size))
    pk = bloch.density
    pk = pk / pk.sum()
    pn = state.probabilities
    pn = pn / pn.sum()
    kappa = rng.choice(bloch.kappa, size=n_samples, p=pk)
    q = rng.choice(state.sites.astype(float), size=n_samples, p=pn)
    weights = np.full(n_samples, 1.0 / n_samples)
    return ClassicalEnsemble(p=kappa / delta, q=q, weights=weights)
