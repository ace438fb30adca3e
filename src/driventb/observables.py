"""Closed-form time dependence of expectation values and variances.

Everything here is Heisenberg-picture: the moments at time t come from the
initial state's coherence parameters plus the drive's phase integrals, with
no state ever evolved, through (u, v) = (2 Re chi, -2 Im chi):

    <K>_t  = e^{-i eta_t} <K>_0                      (variance of K constant)
    <N>_t  = <N>_0 + v_t <C>_0 - u_t <S>_0
    Var_N(t) = Var_N(0) + 2 v D_CN - 2 u D_SN + v^2 D_CC + u^2 D_SS
               - 2 u v D_CS

with D_AB the covariances of (C, S, N) at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bessel import _bessel_zeros
from .drives import DriveProtocol, HarmonicDrive, FourierDrive
from .lattice import CoherenceParameters, LatticeState
from .propagator import _chis

__all__ = [
    "ObservableSeries",
    "ModeReport",
    "LocalizationReport",
    "expect_K",
    "expect_N",
    "variance_N",
    "observable_series",
    "classify_mode",
    "localization_report",
    "expect_N_single_band",
]


def expect_K(coh: CoherenceParameters, protocol: DriveProtocol, t):
    """<K>_t = e^{-i eta_t} <K>_0."""
    return np.exp(-1j * np.asarray(protocol.eta(t))) * coh.K


def expect_N(coh: CoherenceParameters, protocol: DriveProtocol, t):
    """<N>_t = <N>_0 + v_t <C>_0 - u_t <S>_0."""
    return _expect_N_uv(coh, *protocol.uv(t))


def _expect_N_uv(coh: CoherenceParameters, u, v):
    return coh.n_mean + v * coh.c_mean - u * coh.s_mean


def _variance_N_uv(coh: CoherenceParameters, u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    d = coh.cs_covariances
    return (d[2, 2] + 2.0 * v * d[0, 2] - 2.0 * u * d[1, 2]
            + v * v * d[0, 0] + u * u * d[1, 1] - 2.0 * u * v * d[0, 1])


def variance_N(coh: CoherenceParameters, protocol: DriveProtocol, t):
    """Var_N(t) from the (C, S, N) covariances at t = 0 and (u_t, v_t)."""
    return _variance_N_uv(coh, *protocol.uv(t))


@dataclass(frozen=True)
class ObservableSeries:
    """Closed-form moment evolution sampled on a time grid."""

    times: np.ndarray
    eta: np.ndarray
    chi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    expect_K: np.ndarray
    expect_N: np.ndarray
    var_N: np.ndarray
    var_K: np.ndarray


def observable_series(coh: CoherenceParameters, protocol: DriveProtocol,
                      times) -> ObservableSeries:
    """The moments on a time grid from one evaluation of eta and chi, with
    (u, v) = (2 Re chi, -2 Im chi)."""
    times = np.asarray(times, dtype=float)
    eta = np.asarray(protocol.eta(times), dtype=float)
    chi = np.asarray(protocol.chi(times), dtype=complex)
    u, v = 2.0 * chi.real, -2.0 * chi.imag
    return ObservableSeries(
        times=times, eta=eta, chi=chi, u=u, v=v,
        expect_K=np.asarray(np.exp(-1j * eta) * coh.K, dtype=complex),
        expect_N=np.asarray(_expect_N_uv(coh, u, v), dtype=float),
        var_N=np.asarray(_variance_N_uv(coh, u, v), dtype=float),
        var_K=np.full(times.shape, coh.var_K),
    )


@dataclass(frozen=True)
class ModeReport:
    """Oscillating vs breathing classification with the raw numbers attached.

    "oscillating": sharp momentum distribution, the packet translates
    rigidly. "breathing": flat momentum distribution, the center freezes
    and the width pulses. Anything in between is "mixed". The thresholds
    are reporting conveniences, not physics; re-threshold from the raw
    covariances if needed.
    """

    mode: str
    c_mean: float
    s_mean: float
    covariances: np.ndarray = field(repr=False)

    @property
    def d_cc(self) -> float:
        return float(self.covariances[0, 0])

    @property
    def d_ss(self) -> float:
        return float(self.covariances[1, 1])

    @property
    def d_cs(self) -> float:
        return float(self.covariances[0, 1])


def classify_mode(coh: CoherenceParameters) -> ModeReport:
    """Classify the initial state per its momentum localization."""
    d = coh.cs_covariances
    cc, ss, cs = d[0, 0], d[1, 1], d[0, 1]
    if cc < 0.05 and ss < 0.05 and abs(cs) < 0.05:
        mode = "oscillating"
    elif (abs(coh.c_mean) < 0.05 and abs(coh.s_mean) < 0.05
          and 0.45 <= cc <= 0.55 and 0.45 <= ss <= 0.55):
        mode = "breathing"
    else:
        mode = "mixed"
    return ModeReport(mode=mode, c_mean=coh.c_mean, s_mean=coh.s_mean,
                      covariances=d.copy())


@dataclass(frozen=True)
class LocalizationReport:
    """Secular-spreading prediction for a resonant drive.

    ``gamma`` is the drift rate of chi (variance grows like
    gamma^2 D_SS t^2 for broad, position-symmetric states); dynamic
    localization is gamma = 0. ``nearest_zeros`` brackets the drive's
    f1/omega between the adjacent Bessel zeros where that happens
    (harmonic drives only). ``degenerate`` marks the trivial case of a
    cosine-series drive with no ac field (f1 = 0, every f_m = 0).
    """

    order: int
    gamma: float
    localized: bool
    degenerate: bool
    var_slope_coefficient: float | None
    nearest_zeros: tuple


def localization_report(protocol: DriveProtocol,
                        coh: CoherenceParameters | None = None) -> LocalizationReport:
    """Evaluate the dynamic-localization condition for a resonant protocol."""
    n = protocol.resonance_order()
    if n is None:
        raise ValueError("localization report requires a resonant periodic protocol")
    gamma = protocol.drift_rate()
    localized = abs(gamma) < 1e-10

    degenerate = isinstance(protocol, FourierDrive) and not any(protocol.modes) and n >= 1

    nearest: tuple = ()
    if isinstance(protocol, HarmonicDrive) and n <= 50:
        x = abs(protocol.f1 / protocol.omega)
        # j_{n,k} > (k - 1/4) pi: the first floor(x/pi + 1/4) + 1 zeros pass x
        zeros = _bessel_zeros(n, min(50, int(x / np.pi + 0.25) + 1))
        # a zero within 1e-14 of x, the zeros' own accuracy, counts as reached,
        # so a drive tuned to a zero lists it and the next one
        reached = zeros <= x * (1.0 + 1e-14)
        below, above = zeros[reached], zeros[~reached]
        nearest = tuple(np.r_[below[-1:], above[:1]].tolist())

    slope = None if coh is None else gamma ** 2 * float(coh.cs_covariances[1, 1])
    return LocalizationReport(order=n, gamma=gamma, localized=localized,
                              degenerate=degenerate,
                              var_slope_coefficient=slope,
                              nearest_zeros=nearest)


def expect_N_single_band(state: LatticeState, dispersion, protocol: DriveProtocol, t):
    """<N>_t for an arbitrary band, from generalized coherence moments.

    <N>_t = <N>_0 - 2 sum_m m Im(chi_m(t) <K^m>_0) with <K^m>_0 =
    sum_n c*_{n-m} c_n, n - m taken around a ring. The weight m is the
    commutator factor of K^m with N.
    """
    c = state.amplitudes
    p = np.abs(c) ** 2
    n_sites = state.sites.astype(float)
    out = float(np.sum(n_sites * p))
    chis = _chis(protocol, t, dispersion)
    for m, chi in chis.items():
        if m == 0:
            continue
        if state.ring:
            k_m = complex(np.vdot(np.roll(c, m), c))
        else:
            k_m = complex(np.sum(np.conj(c[:-m]) * c[m:])) if m < c.size else 0.0
        out = out - 2.0 * m * np.imag(np.asarray(chi) * k_m)
    return out
