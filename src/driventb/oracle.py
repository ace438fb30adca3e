"""Brute-force Schrodinger integration on the truncated lattice.

This is the ground truth the closed forms are judged against: a classic
RK4 march of i dpsi/dt = H(t) psi with global step halving until two
refinements agree, entirely independent of the Bessel/phase-integral
machinery. One banded apply serves every
H = f_t N + sum_m (g_m K^m + g_m* K^dag^m): tight binding is the band
(0, g_t), and a dispersion supplies its own static couplings.

Boundaries:
  * "open": hard truncation. States must stay away from the edges; the
    largest probability seen within the outermost sites is tracked and an
    excess over ``leak_tolerance`` raises WindowLeakError.
  * "ring": periodic labels with the uniform force represented exactly by
    a seam twist: a hop of any range m that crosses the seam carries the
    phase e^{-i L eta_t} once, while the diagonal field term keeps the
    bare labels. A plain diagonal on a ring has a seam defect; the
    twisted form makes ring Bloch waves evolve exactly as on the infinite
    lattice, which is what monodromy spectra and Houston-state checks
    need. A ring needs at least M sites, so no hop crosses the seam twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drives import DriveProtocol
from .lattice import LatticeState, WindowLeakError, bloch_grid

__all__ = [
    "OracleConfig",
    "WindowLeakError",
    "integrate",
    "integrate_series",
    "monodromy_spectrum",
    "apply_hamiltonian",
]

_EDGE_SITES = 3


@dataclass(frozen=True)
class OracleConfig:
    """Integration controls.

    The step starts at ``dt`` (default: period / 2000 capped by an RK4
    error estimate from the window's spectral radius) and is halved up to
    ``max_refinements`` times until two consecutive runs agree to
    ``error_per_time * max(t, 1)`` in every amplitude and the norm drifts
    by less than 1e-9.
    """

    boundary: str = "open"
    dt: float | None = None
    error_per_time: float = 1e-8
    max_refinements: int = 12
    leak_tolerance: float = 1e-8

    def __post_init__(self):
        if self.boundary not in ("open", "ring"):
            raise ValueError("boundary must be 'open' or 'ring'")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")


def _couplings(protocol, dispersion, t):
    """Band couplings (g_0, ..., g_M) at each time t, on the last axis.

    Tight binding is the band (0, g_t); a dispersion band is static.
    """
    band = (0.0, protocol.g(t)) if dispersion is None else dispersion.couplings
    return np.stack(np.broadcast_arrays(np.asarray(t, dtype=float), *band)[1:],
                    axis=-1)


def _check_ring(couplings, sites, ring):
    """A seam hop is twisted once, which needs at least M ring sites."""
    if ring and sites.size < couplings.shape[-1] - 1:
        raise ValueError(f"a ring of {sites.size} sites is shorter than the "
                         f"band order {couplings.shape[-1] - 1}")


def _h_apply(psi, f_val, couplings, twist, sites, ring):
    """H psi for a 1-d state or an (sites, columns) block at fixed coefficients.

    Range m adds g_m psi_{n+m} and g_m* psi_{n-m} along axis 0; on a ring
    the m hops that cross the seam carry the twist (or its conjugate).
    """
    diag = f_val * sites
    out = diag[:, None] * psi if psi.ndim == 2 else diag * psi
    for m, g in enumerate(couplings):
        if g == 0.0:
            continue
        if m == 0:
            out += 2.0 * g.real * psi
            continue
        out[:-m] += g * psi[m:]
        out[m:] += np.conj(g) * psi[:-m]
        if ring:
            out[-m:] += g * (twist * psi[:m])
            out[:m] += np.conj(g) * (np.conj(twist) * psi[-m:])
    return out


def _march(psi0, t0, t1, protocol, sites, ring, dispersion, dt):
    """RK4 from t0 to t1 with a uniform step close to dt; returns (psi, edge)."""
    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / dt))) if span != 0.0 else 1
    h = span / nsteps

    # all RK4 stage times sit on the half-step grid
    half_grid = t0 + 0.5 * h * np.arange(2 * nsteps + 1)
    f_vals = np.broadcast_to(np.asarray(protocol.f(half_grid), dtype=float),
                             half_grid.shape)
    couplings = _couplings(protocol, dispersion, half_grid)
    if ring:
        twists = np.exp(-1j * sites.size
                        * np.asarray(protocol.eta(half_grid), dtype=float))
    else:
        twists = np.ones(half_grid.shape, dtype=complex)

    psi = psi0.astype(complex, copy=True)
    edge = 0.0
    track_edge = not ring and psi.ndim == 1
    args = (sites, ring)
    for i in range(nsteps):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        k1 = _h_apply(psi, f_vals[a], couplings[a], twists[a], *args)
        k2 = _h_apply(psi - 0.5j * h * k1, f_vals[b], couplings[b], twists[b], *args)
        k3 = _h_apply(psi - 0.5j * h * k2, f_vals[b], couplings[b], twists[b], *args)
        k4 = _h_apply(psi - 1j * h * k3, f_vals[c], couplings[c], twists[c], *args)
        psi = psi - 1j * (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if track_edge:
            edge = max(edge, float(np.sum(np.abs(psi[:_EDGE_SITES]) ** 2)
                                   + np.sum(np.abs(psi[-_EDGE_SITES:]) ** 2)))
    return psi, edge


def _spectral_radius(protocol, sites, dispersion, t_final):
    probe = np.linspace(0.0, max(abs(t_final), 1e-12), 257)
    f_max = float(np.max(np.abs(protocol.f(probe))))
    # a left-to-right sum over m, so dt does not follow numpy's reduction order
    hop = 2.0 * float(np.max(sum(np.abs(_couplings(protocol, dispersion,
                                                    probe)).T)))
    return f_max * float(np.max(np.abs(sites))) + hop


def _default_dt(protocol, sites, dispersion, t_final):
    candidates = [abs(t_final)]
    if protocol.bloch_period is not None:
        candidates.append(protocol.bloch_period)
    if protocol.period is not None:
        candidates.append(protocol.period)
    dt = min(c for c in candidates if c > 0) / 2000.0 if any(
        c > 0 for c in candidates) else 1e-3
    # accuracy comes from the halving loop; this cap only keeps RK4 stable
    radius = _spectral_radius(protocol, sites, dispersion, t_final)
    if radius > 0.0:
        dt = min(dt, 1.5 / radius)
    return dt


def _integrate_block(psi0, times, protocol, sites, ring, dispersion, config):
    """March through the checkpoint times with global step-halving control."""
    t_final = times[-1] if len(times) else 0.0
    target = config.error_per_time * max(abs(t_final), 1.0)
    dt = config.dt if config.dt is not None else _default_dt(
        protocol, sites, dispersion, t_final)
    check_norm = psi0.ndim == 1
    norm0 = float(np.linalg.norm(psi0))

    def run(step):
        psi = psi0
        edge = 0.0
        out = []
        t_prev = 0.0
        for t_next in times:
            psi, e = _march(psi, t_prev, t_next, protocol, sites, ring,
                            dispersion, step)
            edge = max(edge, e)
            out.append(psi)
            t_prev = t_next
        return out, edge

    prev, edge = run(dt)
    for _ in range(config.max_refinements):
        dt *= 0.5
        cur, edge = run(dt)
        err = max(float(np.max(np.abs(c - p))) for c, p in zip(cur, prev))
        drift = max(abs(float(np.linalg.norm(c)) - norm0) for c in cur) \
            if check_norm else 0.0
        if err < target and drift < 1e-9:
            return cur, edge
        prev = cur
    raise RuntimeError(
        f"step halving stalled at dt = {dt:g} without reaching {target:g}")


def integrate_series(state0: LatticeState, protocol: DriveProtocol, times,
                     config: OracleConfig | None = None,
                     dispersion=None) -> list[LatticeState]:
    """Integrate the Schrodinger equation, returning the state at each time.

    ``times`` must be nondecreasing and nonnegative. Uses the state's own
    window; the caller picks it large enough (open boundaries raise
    WindowLeakError when probability touches the edge).
    """
    config = config or OracleConfig()
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])) or (times and times[0] < 0.0):
        raise ValueError("times must be nondecreasing and nonnegative")
    ring = config.boundary == "ring" or state0.ring
    sites = state0.sites.astype(float)
    _check_ring(_couplings(protocol, dispersion, 0.0), sites, ring)
    psi0 = state0.amplitudes.astype(complex)

    finals, edge = _integrate_block(psi0, times, protocol, sites, ring,
                                    dispersion, config)
    norm0 = state0.norm()
    out = []
    for t, psi in zip(times, finals):
        drift = abs(float(np.linalg.norm(psi)) - norm0)
        if drift > 1e-9:
            raise RuntimeError(f"norm drift {drift:.2e} at t = {t}")
        out.append(LatticeState(state0.n_min, psi, ring=ring, leak=edge))
    if not ring and edge > config.leak_tolerance:
        raise WindowLeakError(
            f"boundary probability {edge:.3e} exceeds {config.leak_tolerance:g}")
    return out


def integrate(state0: LatticeState, protocol: DriveProtocol, t: float,
              config: OracleConfig | None = None, dispersion=None) -> LatticeState:
    """Integrate to a single final time t."""
    return integrate_series(state0, protocol, [float(t)], config=config,
                            dispersion=dispersion)[0]


def apply_hamiltonian(state: LatticeState, protocol: DriveProtocol, tau: float,
                      dispersion=None) -> LatticeState:
    """H(tau)|psi> with the boundary implied by the state (open or ring)."""
    tau = float(tau)
    twist = np.exp(-1j * state.amplitudes.size * float(protocol.eta(tau))) \
        if state.ring else 1.0
    sites = state.sites.astype(float)
    couplings = _couplings(protocol, dispersion, tau)
    _check_ring(couplings, sites, state.ring)
    amps = _h_apply(state.amplitudes.astype(complex), float(protocol.f(tau)),
                    couplings, twist, sites, state.ring)
    return LatticeState(state.n_min, amps, ring=state.ring)


def monodromy_spectrum(protocol: DriveProtocol, ring_sites: int,
                       config: OracleConfig | None = None):
    """Quasienergies from the one-period propagator on an L-site ring.

    Builds U(T) column by column (one RK4 run of the identity block),
    checks unitarity to 1e-7, transforms to the ring Bloch basis where
    U(T) must be diagonal, and returns (kappa_j, eps_j) with the
    eigenphases folded to (-pi/T, pi/T].
    """
    ring_sites = int(ring_sites)
    if ring_sites < 8:
        raise ValueError("need at least 8 ring sites")
    if protocol.resonance_order() is None:
        raise ValueError("monodromy requires a resonant periodic protocol")
    config = config or OracleConfig(boundary="ring")
    period = protocol.period

    # centered labels halve the spectral radius of the diagonal field term;
    # at resonance the label offset only contributes a trivial 2 pi phase
    sites = np.arange(ring_sites, dtype=float) - ring_sites // 2
    block = np.eye(ring_sites, dtype=complex)
    finals, _ = _integrate_block(block, [period], protocol, sites, True, None,
                                 config)
    u_matrix = finals[0]

    unitarity = float(np.linalg.norm(
        u_matrix.conj().T @ u_matrix - np.eye(ring_sites), 2))
    if unitarity > 1e-7:
        raise RuntimeError(f"monodromy not unitary to 1e-7 (error {unitarity:.2e})")

    kappa = bloch_grid(ring_sites)
    fourier = np.exp(1j * np.outer(sites, kappa)) / np.sqrt(ring_sites)
    diag_rep = fourier.conj().T @ u_matrix @ fourier
    off = diag_rep - np.diag(np.diag(diag_rep))
    if float(np.max(np.abs(off))) > 1e-6:
        raise RuntimeError("monodromy is not diagonal in the Bloch basis")
    eps = -np.angle(np.diag(diag_rep)) / period
    return kappa, eps
