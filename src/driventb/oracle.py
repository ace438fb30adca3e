"""Brute-force Schrodinger integration on the truncated lattice.

This is the ground truth the closed forms are judged against: a classic
RK4 march of i dpsi/dt = H(t) psi, checked against a run at twice the steps
in every checkpoint interval until the two agree, entirely independent of
the Bessel/phase-integral machinery. H = f_t N + sum_m (g_m K^m + g_m*
K^dag^m): tight binding is the band (0, g_t), and a dispersion supplies its
own static couplings.

On the small windows the oracle runs, numpy call overhead is the cost of a
step, so each step is one banded map: one gather, one scaling and one row
sum into preallocated arrays (see _CoMoving.apply). There is one scheme, RK4
in the co-moving gauge psi = e^{-i eta_t N} phi, where i phi' = H'(t) phi with
H' = sum_m (g_m e^{-i m eta_t} K^m + h.c.) has no field term, so its steps
do not depend on the site except at an open window's walls (see _CoMoving).
eta' = f takes the same RK4 (Simpson's rule) on the f samples of the march,
with no phase integral of the drive. A pass is one march through every
checkpoint: eta runs on from t = 0, and a checkpoint's psi is e^{-i eta N} phi.
A hop of offset d at eta is the hop at 0 times e^{-i eta d}, so the RK4
polynomial is built once per run of equal steps and phased per step; a static
H marches the same way, H'(eta) = e^{i eta N} H'(0) e^{-i eta N}.

The oracle marches the state's own lattice, whose ``ring`` flag is the one
boundary of a run:
  * an open window: hard truncation. States must stay away from the edges;
    the largest probability seen within the outermost sites is tracked and
    an excess over ``leak_tolerance`` raises WindowLeakError.
  * a ring: periodic labels. H' is plainly circulant, and psi = e^{-i eta N}
    phi on the bare labels is the lattice frame's seam twist: a hop of range
    m that crosses the seam carries e^{-i L eta_t} once. Ring Bloch waves
    thus evolve exactly as on the infinite lattice, which monodromy spectra
    and Houston-state checks need (a plain diagonal leaves a seam defect).
    A ring needs at least M sites, so no hop crosses the seam twice.
"""

from __future__ import annotations

import logging
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
]

_EDGE_SITES = 3
_log = logging.getLogger("driventb.oracle")
_CHUNK_STEPS = 32
_TABLE_STEPS = 4 * _CHUNK_STEPS  # steps per co-moving coefficient table
_MAX_STEPS = 10 ** 7  # the most RK4 steps a pass may take
_SAFETY = 0.8  # the share of a predicted step that the next pass takes
_MAX_REFINEMENTS = 12  # the most coarse/fine pairs an integration compares


@dataclass(frozen=True)
class OracleConfig:
    """Integration controls.

    The first step is the inverse of the rates a co-moving step sees (see
    _default_dt). Each run is compared with one at twice its steps, up to
    _MAX_REFINEMENTS times, until the two agree to
    ``error_per_time * max(t, 1)`` in every amplitude and the norm drifts
    by less than 1e-9. After a failed pair the next step is the largest step
    its coarse run marched, scaled by the error as h^4 and by the drift as h^5
    for a static H on an open 1-d window, h^4 otherwise. ``leak_tolerance``
    bounds the edge probability of an open window. The boundary is the
    state's own. Each ValueError names the field it rejects.
    """

    error_per_time: float = 1e-8
    leak_tolerance: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.error_per_time) and self.error_per_time > 0.0):
            raise ValueError("error_per_time must be positive and finite")
        if not (np.isfinite(self.leak_tolerance)
                and self.leak_tolerance >= 0.0):
            raise ValueError("leak_tolerance must be nonnegative and finite")


def _couplings(protocol, dispersion, t):
    """Band couplings (g_0, ..., g_M) at each time t, on the last axis.

    Tight binding is the band (0, g_t); a dispersion band is static.
    """
    band = (0.0, protocol.g(t)) if dispersion is None else dispersion.couplings
    return np.stack(np.broadcast_arrays(np.asarray(t, dtype=float), *band)[1:],
                    axis=-1)


def _rk4(z, one, mul):
    """R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 for the RK4 stage generators
    z[j] = -ih H_j, applied by ``mul`` and nested as the stages are."""
    u1 = mul(z[0], one)
    u2 = mul(z[1], one + u1 / 2)
    u3 = mul(z[2], one + u2 / 2)
    u4 = mul(z[3], one + u3)
    return one + (u1 + 2 * u2 + 2 * u3 + u4) / 6


def _hops(z, y, hops):
    """sum_j z[j] y[r + hops[j]] (z[j] one value per step), for the rows r
    of a (b, b, steps) block that the hop keeps inside it."""
    size = len(y)
    out = np.zeros((size, size, z.shape[-1]), dtype=complex)
    for zd, d in zip(z, hops):
        lo, hi = max(0, -d), min(size, size - d)
        if lo < hi:
            out[lo:hi] += zd * y[lo + d:hi + d]
    return out


class _CoMoving:
    """Co-moving RK4 steps as banded maps: the RK4 polynomial of the stage
    symbols H'_j(kappa) at 8M + 1 points of kappa, turned into diagonals by
    one FFT (a ring wraps their rows). Only the hops d of ``band``, the
    -M..M with g_|d| != 0, are summed, and only the diagonals on their
    lattice are kept (offsets that are multiples of the gcd of the hops; 0
    alone if none): the others hold FFT noise. On an open window, entries
    (r, c) with r + c <= 4M - 2 from either wall, the only ones a path of
    four hops can carry past it, come from RK4 on the identity of the
    truncated min(4M, L)-site block, the same at both walls. Term r of row n
    of step j is buffer row ``rows[r, n]`` times ``gains[j, r, n]``: a state
    of L sites sits in L + 1 buffer rows, and the last, read off an open
    window, stays zero."""

    def __init__(self, band, shape, ring):
        order, size = len(band) - 1, shape[0]
        self.points = 8 * order + 1
        hops = np.arange(-order, order + 1)
        self.hops = hops[np.asarray(band)[np.abs(hops)] != 0]
        step = np.gcd.reduce(self.hops)
        offsets = np.arange(-4 * order, 4 * order + 1)
        self.offsets = offsets[np.gcd(offsets, step) == step]
        self.waves = np.exp(2j * np.pi / self.points * np.outer(
            self.hops, np.arange(self.points)))
        to = np.arange(size) + self.offsets[:, None]
        self.rows = to % size if ring else np.where((to < 0) | (to >= size), size, to)
        self.wall = np.eye(min(4 * order, size))[..., None]
        n = np.arange(size)
        left = n + to <= 4 * order - 2
        i, n = np.nonzero((to >= 0) & (to < size)
                          & (left | (2 * size - 2 - n - to <= 4 * order - 2)))
        shift = np.where(left[i, n], 0, size - len(self.wall))
        self.edges = None if ring else (i, n, n - shift, to[i, n] - shift)
        self.gains = np.empty((_CHUNK_STEPS, self.offsets.size, 1 if ring else size)
                              + (1,) * (len(shape) - 1), dtype=complex)
        self.terms = np.empty((self.offsets.size,) + tuple(shape), dtype=complex)

    def table(self, h, f_vals, couplings, eta):
        """(diagonals, wall entries, eta at each step's start and the end) of
        the steps h whose start, middle and end f_vals and couplings sample,
        from eta at the first. eta' = f takes the same RK4: the stages see
        eta_k, eta_k + h f_0/2, eta_k + h f_1/2 and eta_k + h f_1, and a step
        adds h (f_0 + 4 f_1 + f_2)/6. A hop of offset d at eta is the hop at
        0 times e^{-i eta d}, so each entry at offset d is the step's entry
        from eta_k = 0 times e^{-i eta_k d}, and RK4 runs once per run of
        consecutive steps with equal h, f_0, f_1 and couplings."""
        f0, f1, f2 = f_vals
        etas = np.add.accumulate(np.append(eta, h / 6 * (f0 + 4 * f1 + f2)))
        key = np.concatenate((np.array([h, f0, f1]),
                              np.moveaxis(couplings, -1, 1).reshape(-1, h.size)))
        new = np.concatenate(([True], np.any(key[:, 1:] != key[:, :-1], axis=0)))
        run, first = np.cumsum(new) - 1, np.flatnonzero(new)
        h, f0, f1 = h[first], f0[first], f1[first]
        stages = np.array([np.zeros(h.size), h / 2 * f0, h / 2 * f1, h * f1])
        g = couplings[[0, 1, 1, 2]][:, first] * np.exp(
            -1j * stages[..., None] * np.arange(couplings.shape[-1]))
        # -ih H'_j at each of the band's hops
        z = (-1j * h[:, None]) * np.concatenate(
            [np.conj(g[..., :0:-1]), 2.0 * g[..., :1].real, g[..., 1:]],
            axis=-1)[..., self.hops + couplings.shape[-1] - 1]
        symbols = _rk4(1j * (z @ self.waves).imag, 1.0, np.multiply)
        phases = np.exp(-1j * etas[:-1, None] * self.offsets)
        diagonals = (np.fft.fft(symbols, axis=-1)[:, self.offsets]
                     / self.points)[run] * phases
        if self.edges is None:
            return diagonals, None, etas
        i, _, r, c = self.edges
        block = _rk4(np.moveaxis(z, -1, 1), self.wall,
                     lambda zj, y: _hops(zj, y, self.hops))
        return diagonals, block[r, c][:, run].T * phases[:, i], etas

    def load(self, diagonals, walls, lo, hi):
        """Steps lo..hi - 1 of a table as the first steps that apply takes."""
        gains = self.gains.reshape(self.gains.shape[:3])  # without a block's columns
        gains[:hi - lo] = diagonals[lo:hi, :, None]
        if walls is not None:
            i, n, *_ = self.edges
            gains[:hi - lo, i, n] = walls[lo:hi]

    def apply(self, j, buf, out):
        """out = step j of the loaded steps applied to psi, which is all but
        the last row of ``buf``."""
        buf.take(self.rows, axis=0, out=self.terms, mode="clip")
        np.multiply(self.gains[j], self.terms, out=self.terms)
        np.add.reduce(self.terms, axis=0, out=out)


def _march(psi0, times, counts, protocol, sites, ring, dispersion, memo=None,
           edges=True):
    """RK4 from t = 0 through the checkpoint times, counts[i] steps of span_i /
    counts[i] in interval i, from eta = 0; returns (psi at each time, edge,
    eta at the last time). Co-moving maps march phi = e^{i eta N} psi, psi0
    at t = 0, in tables that run across checkpoints, and a checkpoint's psi is
    e^{-i eta N} phi at its step. ``memo`` holds the integration's _CoMoving
    and tallies the marches: "static" on an open 1-d window where every
    sample of f and the couplings equals the first, "co-moving" otherwise.
    Edge amplitudes are kept per chunk if ``edges`` (else the edge is 0)."""
    counts = np.asarray(counts, dtype=int)
    ends, starts = np.cumsum(counts), np.concatenate(([0.0], times[:-1]))
    hs = (np.asarray(times) - starts) / np.maximum(counts, 1)
    total = int(ends[-1])
    memo = {"steps": 0, "marches": set()} if memo is None else memo

    def samples(first, last):
        # h of steps first..last - 1, then f and the couplings at their
        # starts, middles and ends. Only the tail steps (an interval's last,
        # and step last - 1) sample their ends: any other step ends where the
        # next one starts
        step = np.arange(first, last)
        k = np.searchsorted(ends, step, side="right")
        tail = np.flatnonzero((step == ends[k] - 1) | (step == last - 1))
        step = 2 * (step - ends[k] + counts[k])
        times = 0.5 * hs[np.concatenate((k, k, k[tail]))]  # in place, to bound memory
        times *= np.concatenate((step, step + 1, step[tail] + 2))
        times += starts[np.concatenate((k, k, k[tail]))]
        grid = np.arange(k.size) + np.array([[0], [k.size], [1]])
        grid[2, tail] = 2 * k.size + np.arange(tail.size)
        return (hs[k], np.full(times.shape, protocol.f(times), dtype=float)[grid],
                _couplings(protocol, dispersion, times)[grid])

    held = np.zeros((len(psi0) + 1,) + psi0.shape[1:], dtype=complex)
    psi = held[:-1]
    psi[...] = psi0
    k = int(np.searchsorted(ends, 0, side="right"))  # the next checkpoint
    out = [psi.copy() for _ in range(k)]
    if total == 0:
        return out, 0.0, 0.0
    track_edge = edges and not ring and psi0.ndim == 1
    edge_rows = np.concatenate((np.arange(len(psi0))[:_EDGE_SITES],
                                np.arange(len(psi0))[-_EDGE_SITES:]))
    amps = np.empty((_CHUNK_STEPS, edge_rows.size), dtype=complex)
    edge, eta, s = 0.0, 0.0, 0
    _, f_vals, couplings = sampled = samples(0, min(total, _TABLE_STEPS))
    f_val, band = f_vals[0, 0], couplings[0, 0]
    static = not ring and psi0.ndim == 1
    comoving = memo.get("comoving") or memo.setdefault("comoving", _CoMoving(
        (0.0, 1.0) if dispersion is None else dispersion.couplings, psi0.shape,
        ring))  # one per integration; tight binding (0, g_t) hops by +-1
    memo["steps"] += total
    while k < counts.size:
        first = s - s % _CHUNK_STEPS
        if s == first:
            lo = s % _TABLE_STEPS
            if lo == 0:
                table = None  # drop the last table before building this one
                if s:
                    sampled = samples(s, min(s + _TABLE_STEPS, total))
                _, f_vals, couplings = sampled
                static = static and np.all(f_vals == f_val) \
                    and np.all(couplings == band)
                *table, etas = comoving.table(*sampled, eta)
                eta = float(etas[-1])
            comoving.load(*table, lo, lo + min(_CHUNK_STEPS, total - s))
        last = min(int(ends[k]), first + _CHUNK_STEPS)
        for i in range(s - first, last - first):
            comoving.apply(i, held, psi)
            if track_edge:
                psi.take(edge_rows, out=amps[i], mode="clip")
        s = last
        if track_edge and (s % _CHUNK_STEPS == 0 or s == total):
            prob = np.sum(np.abs(amps[:s - first]) ** 2, axis=1)
            edge = max(edge, float(np.max(prob)))
        while k < counts.size and ends[k] == s:
            out.append(psi.copy())  # eta after step s of its table
            _gauge(out[-1], -etas[(s - 1) % _TABLE_STEPS + 1], sites)
            k += 1
    memo["marches"].add("static" if static else "co-moving")
    return out, edge, eta


def _gauge(psi, eta, sites):
    """psi_n *= e^{i eta n} in place, on axis 0."""
    phase = np.exp(1j * eta * sites)
    psi *= phase.reshape(phase.shape + (1,) * (psi.ndim - 1))


def _default_dt(protocol, dispersion, t_final):
    """1 / rho, capped at |t_final| (1e-3 if rho = 0): rho = 2 max sum_m |g_m|
    + M max|f| + 2 pi / period sums the rates a co-moving step sees, the
    band, its phases e^{-i m eta} and a periodic drive itself."""
    probe = np.linspace(0.0, max(abs(t_final), 1e-12), 257)
    couplings = np.abs(_couplings(protocol, dispersion, probe))
    # a left-to-right sum over m, so dt does not follow numpy's reduction order
    rate = 2.0 * float(np.max(sum(couplings.T))) + (couplings.shape[-1] - 1) \
        * float(np.max(np.abs(protocol.f(probe))))
    if protocol.period is not None:
        rate += 2.0 * np.pi / protocol.period
    return min(1.0 / rate if rate > 0.0 else 1e-3, abs(t_final) or np.inf)


def _check_steps(steps, name):
    if steps > _MAX_STEPS:
        raise ValueError(f"the oracle's {name} would take {steps:.3g} RK4 steps "
                         f"(at most {_MAX_STEPS:.0e})")


def _first_dt(protocol, dispersion, t_final):
    """The step of the first pass, _default_dt's. Raises ValueError when that
    pass would take more than _MAX_STEPS steps."""
    dt = _default_dt(protocol, dispersion, t_final)
    _check_steps(abs(t_final) / dt, "first pass")
    return dt


def _integrate_block(psi0, times, protocol, sites, ring, dispersion, config):
    """March through the checkpoint times in one _march per pass, comparing
    each run with one at twice its steps in every interval (a zero-length one
    takes none); only this fine run, which may be accepted, records edges.
    After a failed pair the next coarse step is its largest coarse step shrunk
    by the error as h^4 and the norm drift as h^5 on a static march (RK4's
    |R(iy)|^2 = 1 - y^6/72 + ...) or h^4 co-moving, at least by half (the fine
    run then opens the next pair). memo["passes"]: (steps, error, drift) per pass."""
    t_final = times[-1]
    target = config.error_per_time * max(abs(t_final), 1.0)
    dt = _first_dt(protocol, dispersion, t_final)
    spans = np.diff(np.r_[0.0, times])
    norm0 = float(np.linalg.norm(psi0))
    memo = {"steps": 0, "marches": set(), "passes": []}
    passes = memo["passes"]

    def run(counts, edges=True):
        _check_steps(counts.sum(), f"pass {len(passes) + 1}" if passes else "first pass")
        passes.append((int(counts.sum()), None, None))
        return _march(psi0, times, counts, protocol, sites, ring, dispersion,
                      memo, edges=edges)[:2]

    counts, prev = np.ceil(spans / dt), None
    for refinements in range(1, _MAX_REFINEMENTS + 1):
        if prev is None:
            prev = run(counts, edges=False)[0]
        cur, edge = run(2 * counts)
        err = max(float(np.max(np.abs(c - p))) for c, p in zip(cur, prev))
        drift = max(abs(float(np.linalg.norm(c)) - norm0) for c in cur) \
            if psi0.ndim == 1 else 0.0
        passes[-1] = (passes[-1][0], err, drift)
        if err < target and drift < 1e-9:
            _log.debug("accepted dt = %.6g after %d refinements: error %.3g "
                       "(target %.3g), norm drift %.3g, peak edge probability "
                       "%.3g; passes (error, drift) %s; %s march, %d steps marched",
                       float(np.max(spans / np.maximum(2 * counts, 1))),
                       refinements, err, target, drift, edge, ", ".join(
                           str(n) if e is None else f"{n} ({e:.3g}, {d:.3g})"
                           for n, e, d in passes),
                       " + ".join(sorted(memo["marches"])), memo["steps"])
            return cur, edge
        power = 5 if memo["marches"] == {"static"} else 4
        dt = float(np.max(spans / np.maximum(counts, 1))) * min(
            [0.5] + [_SAFETY * (bound / miss) ** (1.0 / p)
                     for bound, miss, p in ((target, err, 4), (1e-9, drift, power))
                     if bound <= miss < np.inf])
        coarse = np.maximum(2 * counts, np.ceil(spans / dt))
        prev = cur if np.array_equal(coarse, 2 * counts) else None
        counts = coarse
    raise RuntimeError(
        f"step refinement stalled at dt = {dt:g} without reaching {target:g}")


def integrate_series(state0: LatticeState, protocol: DriveProtocol, times,
                     config: OracleConfig | None = None,
                     dispersion=None) -> list[LatticeState]:
    """Integrate the Schrodinger equation, returning the state at each time.

    ``times`` must be finite, nondecreasing and nonnegative. Marches the
    state's own window and boundary; the caller picks an open window large
    enough (WindowLeakError when probability touches its edge).
    """
    config = config or OracleConfig()
    times = [float(t) for t in times]
    if not all(0.0 <= a <= b < np.inf for a, b in zip([0.0] + times, times)):
        raise ValueError("times must be finite, nondecreasing and nonnegative")
    ring = state0.ring
    sites = state0.sites.astype(float)
    order = 1 if dispersion is None else dispersion.order
    if ring and sites.size < order:  # a seam hop is twisted once
        raise ValueError(f"a ring of {sites.size} sites is shorter than the "
                         f"band order {order}")
    if not times:
        return []
    psi0 = state0.amplitudes.astype(complex)

    finals, edge = _integrate_block(psi0, times, protocol, sites, ring,
                                    dispersion, config)
    out = [LatticeState(state0.n_min, psi, ring=ring, leak=edge) for psi in finals]
    if not ring and edge > config.leak_tolerance:
        raise WindowLeakError(
            f"boundary probability {edge:.3e} exceeds {config.leak_tolerance:g}")
    return out


def integrate(state0: LatticeState, protocol: DriveProtocol, t: float,
              config: OracleConfig | None = None, dispersion=None) -> LatticeState:
    """Integrate to a single final time t."""
    return integrate_series(state0, protocol, [float(t)], config=config,
                            dispersion=dispersion)[0]


def monodromy_spectrum(protocol: DriveProtocol, ring_sites: int,
                       config: OracleConfig | None = None):
    """Quasienergies from the one-period propagator on an L-site ring.

    Builds U(T) column by column (one RK4 run of the identity block),
    checks unitarity to 1e-7, transforms to the ring Bloch basis where
    U(T) must be diagonal, and returns (kappa_j, eps_j) with the
    eigenphases folded to (-pi/T, pi/T].
    """
    if not (isinstance(ring_sites, (int, np.integer)) and ring_sites >= 8):
        raise ValueError(f"ring_sites must be an integer of at least 8, "
                         f"not {ring_sites!r}")
    if protocol.resonance_order() is None:
        raise ValueError("monodromy requires a resonant periodic protocol")
    config = config or OracleConfig()
    period = protocol.period

    # at resonance the labels' offset only contributes a trivial 2 pi phase
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
