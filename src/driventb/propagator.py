"""The factorized time-evolution operator and its application to states.

For a band E(kappa) = sum_m (g_m e^{i m kappa} + c.c.) the propagator is a
number-operator phase times one shift-operator exponential per harmonic,

    U(t) = exp(-i eta_t N) prod_m exp(-i chi_m K^m - i chi_m* K^dag m),
    chi_m(t) = g_m int_0^t exp(-i m eta_tau) dtau,

the weight m being fixed by the ladder action K^m |n> = |n - m>, i.e.
[K^m, N] = m K^m; the band owns that rule (README "Conventions" covers the
demonstrably wrong 2^(m-1) alternative, kept for comparison). Tight binding
is the band {1: chi_t}, with Bessel-function matrix elements

    U_{n n'}(t) = exp(-i (n'-n)(phi_t + pi/2) - i n eta_t) J_{n'-n}(2|chi_t|).

One entry point, ``apply_propagator(state, eta, {m: chi_m})``, serves every
band; ``evolve`` feeds it a drive's phase integrals at one time or over a
time grid. Both routes multiply the state's FFT, on a ring or on an open
window padded past the kernel's reach to a 2^a 3^b 5^c length, by that of
U_R: "bloch" by the phase e^{-i Phi(kappa)}, "site" by the FFT of the
harmonics' Bessel kernel. The eta shift is the site phase e^{-i eta n} on
the kept sites only, good to about an ulp. The times group by pad, and so
by FFT length: a group shares one forward FFT, and its spectra form times x
kappa blocks of at most _BLOCK entries (one time where the FFT is longer),
each with one inverse FFT along the rows. One time is the one-row case.
"""

from __future__ import annotations

from bisect import bisect_left
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
_ETA_MAX = float(np.finfo(np.float32).max)  # _site_phase needs a float32 head of eta
_BLOCK = 8192  # complex entries (128 KiB) per temporary of a block of Bloch rows
# every 2^a 3^b 5^c <= 2^40, in order: the FFT lengths _fft_size picks from
_SMOOTH = sorted(p << a for p in (3 ** b * 5 ** c for b in range(26) for c in range(18))
                 if p <= 1 << 40 for a in range(((1 << 40) // p).bit_length()))


@dataclass(frozen=True)
class SingleBandDispersion:
    """Band E(kappa) = sum_{m=0..M} (g_m e^{i m kappa} + g_m* e^{-i m kappa}).

    couplings[m] is g_m in reciprocal-time units; the tight-binding model is
    couplings = (0, g0). M must be at least 1. ``convention`` names the
    weight rule of ``weight``: "index" (the algebra's) or "power2".
    """

    couplings: tuple
    convention: str = "index"

    def __post_init__(self):
        object.__setattr__(self, "couplings",
                           tuple(complex(g) for g in self.couplings))
        if len(self.couplings) < 2:
            raise ValueError("need couplings g_0..g_M with M >= 1")
        if not np.all(np.isfinite(np.asarray(self.couplings))):
            raise ValueError("couplings must be finite")
        if self.convention not in ("index", "power2"):
            raise ValueError(f"unknown convention {self.convention!r}")

    @property
    def order(self) -> int:
        return len(self.couplings) - 1

    def energy(self, kappa):
        return _band_phase(dict(enumerate(self.couplings)),
                           np.asarray(kappa, dtype=float))

    def weight(self, m: int) -> float:
        """Exponent weight w in chi_m = g_m int exp(-i w eta): m under "index",
        as [K^m, N] = m K^m fixes it, 2^(m-1) under "power2"."""
        if m == 0:
            return 0.0
        return float(m if self.convention == "index" else 2 ** (m - 1))


def _chis(protocol: DriveProtocol, t, dispersion=None) -> dict:
    """{m: chi_m(t)}: the drive's {1: chi_t}, or one integral per nonzero
    coupling of the dispersion (whose g replaces the drive's); complex
    values at a scalar t, arrays of t's shape at an array."""
    if dispersion is None:
        return {1: protocol.chi(t)}
    return {m: g * protocol.int_exp_eta(t, dispersion.weight(m))
            for m, g in enumerate(dispersion.couplings) if g != 0.0}


def _band_phase(chis: dict, kappa, rows: tuple = ()):
    """Phi(kappa) = sum_m (chi_m e^{i m kappa} + c.c.), by real cosines; with
    rows = (k,) each chi_m is a column of k times, one row of Phi per time."""
    phi = np.zeros(rows + np.shape(kappa))
    for m, chi in chis.items():
        phi += 2.0 * np.abs(chi) * np.cos(m * kappa + np.angle(chi))
    return phi


def _site_phase(theta, lo: int, size: int) -> np.ndarray:
    """e^{-i theta n} for n = lo..lo+size-1: the outer product of a row
    factor over lo + B k and a column factor over 0 <= j < B ~ sqrt(size).
    theta splits into a float32 head, whose product with |n| < 2^29 is
    exact, and a tail, so each factor is good to about an ulp. An array of
    thetas gives one row per theta, each the row of its scalar call."""
    b = int(size ** 0.5) + 1
    n = np.concatenate((lo + b * np.arange(-(-size // b)), np.arange(b)))
    theta = np.asarray(theta, dtype=float)[..., None]
    head = theta.astype(np.float32).astype(float)
    f = np.exp(-1j * (head * n)) * np.exp(-1j * ((theta - head) * n))
    outer = f[..., :-b, None] * f[..., None, -b:]
    return outer.reshape(theta.shape[:-1] + (-1,))[..., :size]


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
                dispersion: SingleBandDispersion | None = None):
    """The unit-modulus Bloch-diagonal factor e^{-i Phi(kappa)} of U_R(t).

    Tight binding: Phi = 2|chi_t| cos(kappa - phi_t). With a dispersion:
    Phi = sum_m (chi_m e^{i m kappa} + c.c.) including the m = 0 offset.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.exp(-1j * _band_phase(_chis(protocol, t, dispersion), kappa))


def evolve(state: LatticeState, protocol: DriveProtocol, t,
           path: str = "bloch", dispersion: SingleBandDispersion | None = None):
    """Apply U(t) to a state: a scalar t gives the evolved state, a 1-d
    array of times the list of evolved states, with the phase integrals
    evaluated once for the whole grid and the times run in blocks that
    share a forward FFT (see the module docstring).

    Without a dispersion the drive's g_t hops between neighbours; with one,
    ``protocol`` supplies only the field f_t and the band supplies the
    couplings, each harmonic m weighted by ``dispersion.weight(m)``.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {times.shape}")
    states = _propagate(state, protocol.eta(times), _chis(protocol, times, dispersion),
                        path)
    return states[0] if times.ndim == 0 else states


def _fft_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n up to 2^40 (a 16 TiB complex array)."""
    return _SMOOTH[bisect_left(_SMOOTH, n)]


def apply_propagator(state: LatticeState, eta: float, chis: dict,
                     path: str = "bloch") -> LatticeState:
    """U = e^{-i eta N} prod_m exp(-i (chi_m K^m + h.c.)) applied to a state.

    ``chis`` maps m >= 0 to chi_m; tight binding is {1: chi_t}. path="bloch"
    applies the diagonal Bloch phase by FFT on an enlarged ring; path="site"
    convolves, c'_n = sum_j a_j c_{n+j}, with the shift-expansion
    coefficients, by the same FFT. The probability on the sites cropped
    back to an open window is recorded in ``leak``. Raises ValueError before
    allocating where |eta| or a 2|chi_m| is out of range or the pad
    (``_pads``) passes 2^24 sites; a ring has no bloch pad.
    """
    return _propagate(state, eta, chis, path)[0]


def _propagate(state: LatticeState, eta, chis: dict, path: str = "bloch") -> list:
    """The states U|state> at each time of a scalar or 1-d ``eta`` and of
    ``chis`` ({m: chi_m}) of its shape."""
    eta = np.asarray(eta, dtype=float).reshape(-1)
    chis = {m: np.asarray(chi, dtype=complex).reshape(-1) for m, chi in chis.items()}
    states = [None] * eta.size
    for rows, kept, leaks in _blocks(state, eta, chis, path):
        for i, amps, leak in zip(rows, kept, leaks):
            states[i] = LatticeState(state.n_min, amps, ring=state.ring, leak=leak)
    return states


def _pads(eta: np.ndarray, chis: dict) -> np.ndarray:
    """Each time's pad 4 + sum_m m N_m, with N_m = bessel_cutoff(2|chi_m|)
    harmonic m's kernel half-width, for 1-d eta and chis; raises where some
    |eta| is past _ETA_MAX or NaN, then where some 2|chi_m| is past the
    Bessel range. The propagator's reach rule, which load_scenario checks too."""
    bad = eta[~(np.abs(eta) <= _ETA_MAX)]  # NaN fails too
    if bad.size:
        raise ValueError(f"eta must satisfy |eta| <= {_ETA_MAX:.3g}, got {bad[0]:.3g}")
    # hypot is Python's abs of a complex, bit for bit; np.abs is not
    return 4 + sum((m * bessel_cutoff(2.0 * np.hypot(chi.real, chi.imag))
                    for m, chi in chis.items() if m > 0), np.zeros(eta.shape, np.int64))


def _blocks(state: LatticeState, eta: np.ndarray, chis: dict, path: str = "bloch"):
    """Yield (time indices, kept amplitudes, leaks) block by block, as the
    module docstring sets out, for 1-d eta and chis. Every time's ranges
    are checked (``_pads``) before anything is allocated."""
    if path not in ("bloch", "site"):
        raise ValueError(f"unknown path {path!r}")
    pads = _pads(eta, chis)
    if (path == "site" or not state.ring) and pads.max(initial=0) > 1 << 24:
        raise ValueError(f"the propagator would reach {pads.max()} sites past the "
                         "window, more than 2^24")  # the window cap, on both routes
    groups: dict = {}  # the times of each pad; a ring is not padded
    for i, pad in enumerate(pads.tolist()):
        groups.setdefault(0 if state.ring else pad, []).append(i)
    size = state.amplitudes.size
    for pad, times in groups.items():
        spec = state.amplitudes
        if not state.ring:  # the kernel reaches sum_m m N_m sites
            spec = np.zeros(_fft_size(size + 2 * pad + 1), dtype=complex)
            spec[pad: pad + size] = state.amplitudes
        spec = np.fft.fft(spec)  # rebound, so the padded copy is freed
        n, step = spec.size, max(1, _BLOCK // spec.size)
        kappa = 2.0 * np.pi * np.arange(n) / n
        for start in range(0, len(times), step):
            rows = times[start: start + step]
            if path == "bloch":
                cols = {m: chi[rows, None] for m, chi in chis.items()}
                out = np.exp(-1j * _band_phase(cols, kappa, (len(rows),)))
            else:  # each kernel a_j at -j mod n, wrapping a ring it is longer than
                out = np.zeros((len(rows), n), dtype=complex)
                for i, row in zip(rows, out):
                    a = _site_kernel({m: complex(chi[i]) for m, chi in chis.items()})
                    np.add.at(row, (a.size // 2 - np.arange(a.size)) % n, a)
                out = np.fft.fft(out, axis=-1)
            np.multiply(spec, out, out=out)  # spec * out: out * spec can differ in a bit
            yield rows, *_crop(state, eta[rows], np.fft.ifft(out, axis=-1), pad)


def _crop(state: LatticeState, eta, out: np.ndarray, pad: int) -> tuple:
    """The state's sites from pad on in each row of ``out``, times the site
    phase e^{-i eta n} of its time, and each row's leak: the probability on
    the sites cropped off (none on a ring, where pad is 0)."""
    size = state.amplitudes.size
    kept, phase = out[:, pad: pad + size], _site_phase(eta, state.n_min, size)
    if not pad:  # all of out, nothing cropped: multiplied in place
        return np.multiply(kept, phase, out=kept), [0.0] * len(out)
    leaks = [sum(float(np.vdot(e, e).real) for e in (row[:pad], row[pad + size:]))
             for row in out]
    return kept * phase, leaks
