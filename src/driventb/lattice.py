"""States on the one-dimensional lattice and their static functionals.

A state lives on a finite window of integer sites [n_min, n_max] (the
bosonic labeling, n in Z). The infinite lattice is approximated by hard
truncation; any operation that can push amplitude past the window edge
records the lost probability on the returned state instead of dropping it
silently. Windows can also be rings (periodic labels), which is what the
Floquet machinery uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "WindowLeakError",
    "LatticeState",
    "BlochAmplitudes",
    "CoherenceParameters",
    "single_site",
    "gaussian_state",
    "state_from_amplitudes",
    "make_state",
    "apply_shift",
    "bloch_transform",
    "inverse_bloch",
    "coherence_parameters",
]

_NORM_TOL = 1e-8
_GAUSS_MASS_TOL = 1e-8


class WindowLeakError(RuntimeError):
    """Probability escaped the finite window beyond the caller's tolerance."""


@dataclass(frozen=True)
class LatticeState:
    """Complex amplitudes c_n on the window [n_min, n_min + len - 1].

    ``ring`` marks periodic site labels. ``leak`` is the probability lost
    by whichever truncating operation produced this state (0 for exact
    constructions); it is bookkeeping, not part of the state's identity.
    """

    n_min: int
    amplitudes: np.ndarray
    ring: bool = False
    leak: float = 0.0

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_min", int(self.n_min))

    @property
    def n_max(self) -> int:
        return self.n_min + self.amplitudes.size - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.n_min, self.n_max)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "LatticeState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return replace(self, amplitudes=self.amplitudes / nrm, leak=0.0)

    def overlap(self, other: "LatticeState") -> complex:
        """<self|other> on the intersection of the two windows."""
        lo = max(self.n_min, other.n_min)
        hi = min(self.n_max, other.n_max)
        if hi < lo:
            return 0j
        a = self.amplitudes[lo - self.n_min: hi - self.n_min + 1]
        b = other.amplitudes[lo - other.n_min: hi - other.n_min + 1]
        return complex(np.vdot(a, b))

    def embedded(self, window: tuple[int, int]) -> "LatticeState":
        """The same state on a larger window (zero padding)."""
        lo, hi = int(window[0]), int(window[1])
        if lo > self.n_min or hi < self.n_max:
            raise ValueError("target window must contain the current one")
        amps = np.zeros(hi - lo + 1, dtype=complex)
        amps[self.n_min - lo: self.n_min - lo + self.amplitudes.size] = self.amplitudes
        return LatticeState(lo, amps, ring=False, leak=self.leak)


def _check_window(window) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    return lo, hi


def single_site(n0: int, window: tuple[int, int]) -> LatticeState:
    """The Wannier state |n0> on the given window."""
    lo, hi = _check_window(window)
    n0 = int(n0)
    if not lo <= n0 <= hi:
        raise ValueError(f"site {n0} outside window [{lo}, {hi}]")
    amps = np.zeros(hi - lo + 1, dtype=complex)
    amps[n0 - lo] = 1.0
    return LatticeState(lo, amps)


def gaussian_state(n0: float, sigma: float, kappa0: float,
                   window: tuple[int, int]) -> LatticeState:
    """Normalized Gaussian packet c_n ~ exp(-(n-n0)^2/(4 sigma^2) + i kappa0 n).

    sigma is the real-space width in sites, kappa0 the carrier Bloch index.
    Raises if the window would cut off more than 1e-8 of the packet's mass;
    smaller tails are truncated and renormalized. A center more than half a
    site outside the window, or a sigma wider than it, cuts off at least
    half, and both fail before any array is built.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    lo, hi = _check_window(window)
    # below 1e-100, 4 sigma^2 can underflow or (n - n0)^2 / (4 sigma^2) overflow
    if not 1e-100 <= sigma <= hi - lo + 1:
        raise ValueError(f"sigma {sigma:g} outside [1e-100, {hi - lo + 1}], the "
                         "window's length")
    if not lo - 0.5 < n0 < hi + 0.5:
        raise ValueError(f"center {n0:g} lies outside the window [{lo}, {hi}]")
    if not np.isfinite(float(kappa0) * max(abs(lo), abs(hi))):
        raise ValueError(f"kappa0 {kappa0:g} times the window's sites overflows")
    sites = np.arange(lo, hi + 1)
    envelope = np.exp(-((sites - n0) ** 2) / (4.0 * sigma ** 2))
    mass_in = float(np.sum(envelope ** 2))

    near = np.arange(np.floor(n0 - 20.0 * sigma) - 2, np.ceil(n0 + 20.0 * sigma) + 3)
    mass_total = float(np.sum(np.exp(-((near - n0) ** 2) / (2.0 * sigma ** 2))))
    if mass_total == 0.0:
        raise ValueError(f"sigma {sigma:g} at center {n0:g}: every weight underflows")
    missing = 1.0 - mass_in / mass_total
    if missing > _GAUSS_MASS_TOL:
        raise ValueError(
            f"sigma {sigma:g} at center {n0:g}: window [{lo}, {hi}] holds only "
            f"{1.0 - missing:.10f} of the Gaussian mass "
            f"(missing {missing:.3e} > {_GAUSS_MASS_TOL:g})")

    amps = envelope * np.exp(1j * kappa0 * sites)
    return LatticeState(lo, amps).normalized()


def state_from_amplitudes(amplitudes, window: tuple[int, int],
                          ring: bool = False) -> LatticeState:
    """Normalized state from an explicit amplitude list."""
    lo, hi = _check_window(window)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.size != hi - lo + 1:
        raise ValueError(f"values hold {amps.size} amplitudes for a "
                         f"{hi - lo + 1}-site window")
    if np.max(np.abs(amps), initial=0.0) >= 1e100:  # so that the norm stays finite
        raise ValueError("values must satisfy |c_n| < 1e100")
    if np.linalg.norm(amps) == 0.0:
        raise ValueError("values must not all be zero")
    return LatticeState(lo, amps, ring=ring).normalized()


def make_state(spec: dict, window: tuple[int, int]) -> LatticeState:
    """Build an initial state from a descriptor dict (CLI-facing).

    Kinds: {"kind": "single_site", "site": n0},
           {"kind": "gaussian", "center": n0, "sigma": s, "kappa0": k},
           {"kind": "amplitudes", "values": [...]}.
    """
    kind = spec.get("kind")
    if kind == "single_site":
        return single_site(spec.get("site", 0), window)
    if kind == "gaussian":
        return gaussian_state(spec.get("center", 0.0), spec["sigma"],
                              spec.get("kappa0", 0.0), window)
    if kind == "amplitudes":
        return state_from_amplitudes(spec["values"], window)
    raise ValueError(f"unknown state kind {kind!r}")


def apply_shift(state: LatticeState, m: int) -> LatticeState:
    """Apply the unitary shift K^m, i.e. amplitudes c'_n = c_{n+m}.

    On a ring the labels wrap; on an open window the amplitudes pushed past
    the edge are dropped and their probability recorded in ``leak``.
    """
    m = int(m)
    size = state.amplitudes.size
    if abs(m) > size:
        raise ValueError(f"|m| = {abs(m)} exceeds the window length {size}")
    if m == 0:
        return state
    if state.ring:
        wrapped = np.take(state.amplitudes, np.arange(m, m + size), mode="wrap")
        return replace(state, amplitudes=wrapped, leak=0.0)
    amps = np.zeros(size, dtype=complex)
    if m > 0:
        amps[:size - m] = state.amplitudes[m:]
        dropped = state.amplitudes[:m]
    else:
        amps[-m:] = state.amplitudes[:size + m]
        dropped = state.amplitudes[size + m:]
    return replace(state, amplitudes=amps,
                   leak=float(np.sum(np.abs(dropped) ** 2)))


@dataclass(frozen=True)
class BlochAmplitudes:
    """psi(kappa) on M equispaced Bloch indices in [-pi, pi)."""

    kappa: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", np.asarray(self.kappa, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.kappa.shape != self.values.shape or self.kappa.ndim != 1:
            raise ValueError("kappa and values must be matching 1-d arrays")

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm_squared(self) -> float:
        """(2 pi / M) sum |psi|^2; equals the site-space norm for M >= window."""
        m = self.kappa.size
        return float(2.0 * np.pi / m * np.sum(self.density))


def bloch_grid(m: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(int(m)) / int(m)


def _fft_factors(lo: int, size: int, m: int):
    """The factors that make sums over kappa_j = -pi + 2 pi j/M M-point FFTs:
    e^{-2 pi i lo j/M} for j < M, lo j reduced modulo M in int64, and
    e^{i pi n} = (-1)^n for n = lo..lo+size-1."""
    j = np.arange(m, dtype=np.int64)
    return (np.exp(-2j * np.pi * ((int(lo) % m) * j % m) / m),
            1.0 - 2.0 * ((lo + np.arange(size)) % 2))


def bloch_transform(state: LatticeState, m: int) -> BlochAmplitudes:
    """psi(kappa_j) = (2 pi)^{-1/2} sum_n c_n e^{-i n kappa_j} on M grid points,
    by an M-point FFT.

    M must be at least the window length, otherwise site amplitudes alias.
    """
    m = int(m)
    c = state.amplitudes
    if m < c.size:
        raise ValueError("Bloch grid must have at least as many points as sites")
    shift, sign = _fft_factors(state.n_min, c.size, m)
    values = shift * np.fft.fft(sign * c, m) / np.sqrt(2.0 * np.pi)
    return BlochAmplitudes(bloch_grid(m), values)


def inverse_bloch(bloch: BlochAmplitudes, window: tuple[int, int]) -> LatticeState:
    """c_n = sqrt(2 pi)/M sum_j psi(kappa_j) e^{i n kappa_j} on the grid
    kappa_j of ``bloch_grid(M)``, by an M-point inverse FFT."""
    lo, hi = _check_window(window)
    m = bloch.kappa.size
    if m < hi - lo + 1:
        raise ValueError("Bloch grid smaller than the target window")
    shift, sign = _fft_factors(lo, hi - lo + 1, m)
    amps = np.fft.ifft(np.conj(shift) * bloch.values)[:sign.size]
    return LatticeState(lo, sign * amps * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class CoherenceParameters:
    """Static functionals of a state that fix all first/second moments in time.

    K = <K>, J = <[N, K]_+>, L = <K^2>, plus the number moments and the
    covariance matrix of (C, S, N) with C = (K + K^dag)/2, S = (K - K^dag)/(2i).
    """

    K: complex
    J: complex
    L: complex
    n_mean: float
    n2_mean: float
    cs_covariances: np.ndarray = field(repr=False)

    def __post_init__(self):
        cov = np.asarray(self.cs_covariances, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("cs_covariances must be 3x3 (order C, S, N)")
        object.__setattr__(self, "cs_covariances", cov)

    @property
    def c_mean(self) -> float:
        return self.K.real

    @property
    def s_mean(self) -> float:
        return self.K.imag

    @property
    def var_N(self) -> float:
        return self.n2_mean - self.n_mean ** 2

    @property
    def var_K(self) -> float:
        """|<K^2> - <K>^2|; constant under the evolution."""
        return abs(self.L - self.K ** 2)


def coherence_parameters(state: LatticeState) -> CoherenceParameters:
    """Evaluate the coherence parameters of a normalized state.

    K = sum_n c*_{n-1} c_n, J = sum_n (2n - 1) c*_{n-1} c_n,
    L = sum_n c*_{n-2} c_n; covariances are
    D_AB = <(1/2)[A, B]_+> - <A><B> over (C, S, N).
    """
    nrm = state.norm()
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalized (norm = {nrm:.3e})")
    c = state.amplitudes
    n = state.sites.astype(float)
    if state.ring:
        # c_{n-1} and c_{n-2} aligned with c_n
        c_m1, c_m2 = (np.take(c, np.arange(-k, c.size - k), mode="wrap")
                      for k in (1, 2))
        K = complex(np.sum(np.conj(c_m1) * c))
        J = complex(np.sum((2.0 * n - 1.0) * np.conj(c_m1) * c))
        L = complex(np.sum(np.conj(c_m2) * c))
    else:
        K = complex(np.sum(np.conj(c[:-1]) * c[1:]))
        J = complex(np.sum((2.0 * n[1:] - 1.0) * np.conj(c[:-1]) * c[1:]))
        L = complex(np.sum(np.conj(c[:-2]) * c[2:])) if c.size >= 3 else 0.0

    p = np.abs(c) ** 2
    n_mean = float(np.sum(n * p))
    n2_mean = float(np.sum(n * n * p))

    c_mean, s_mean = K.real, K.imag
    cc = 0.5 * (1.0 + L.real) - c_mean ** 2
    ss = 0.5 * (1.0 - L.real) - s_mean ** 2
    cs = 0.5 * L.imag - c_mean * s_mean
    cn = 0.5 * J.real - c_mean * n_mean
    sn = 0.5 * J.imag - s_mean * n_mean
    nn = n2_mean - n_mean ** 2
    cov = np.array([[cc, cs, cn],
                    [cs, ss, sn],
                    [cn, sn, nn]])
    return CoherenceParameters(K=K, J=J, L=L, n_mean=n_mean, n2_mean=n2_mean,
                               cs_covariances=cov)
