"""Field protocols and their phase integrals.

A drive is the pair of real, possibly time dependent functions (f_t, g_t)
in reduced units (hbar = 1, lattice constant d = 1): f_t is the on-site
field gradient, g_t the hopping amplitude. Everything the closed-form
dynamics needs is condensed into scalar functions of time,

    eta_t = int_0^t f_tau dtau,
    chi_t = int_0^t g_tau exp(-i eta_tau) dtau = |chi_t| exp(-i phi_t),
    u_t   = 2 int_0^t g_tau cos(eta_tau) dtau = 2 Re chi_t,
    v_t   = 2 int_0^t g_tau sin(eta_tau) dtau = -2 Im chi_t,

which this module evaluates in closed form where one exists (dc, harmonic,
finite cosine series) and by adaptive quadrature for tabulated fields.

Sign conventions:
    dc:        f_t = f0
    harmonic:  f_t = f0 - f1 cos(w t)
    fourier:   f_t = f0 + sum_m f_m cos(m w t),  beta_m = f_m / (m w)

For a time periodic drive with period T the Bloch frequency is the mean
field w_B = (1/T) int_0^T f dt, and the drive is resonant when w_B/w is a
nonnegative integer n; chi_t then splits into a_n * t plus a T-periodic
remainder, a_n being a Fourier coefficient of g_t exp(-i eta~_t). Resonant
denominators are never divided through: the exp integral has an exact
series branch, so near-resonant protocols evaluate continuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bessel import _DROP, bessel_j_multivar_orders, bessel_j_orders

__all__ = [
    "PhaseIntegrals",
    "DriveProtocol",
    "DCDrive",
    "HarmonicDrive",
    "FourierDrive",
    "TabulatedDrive",
    "fourier_amplitude",
    "drift_rate",
]

_RESONANCE_RTOL = 1e-9


@dataclass(frozen=True)
class PhaseIntegrals:
    """The scalar functions that parameterize the propagator at one time."""

    t: float
    eta: float
    chi: complex
    u: float
    v: float

    @property
    def chi_abs(self) -> float:
        return abs(self.chi)

    @property
    def phi(self) -> float:
        """Phase of chi in the convention chi = |chi| exp(-i phi)."""
        return 0.0 if self.chi == 0 else float(-np.angle(self.chi))


def _eint(w: float, t):
    """int_0^t exp(-i w tau) dtau with a series branch for small |w t|."""
    t = np.asarray(t, dtype=float)
    wt = w * t
    series = t * (1.0 - 0.5j * wt - wt * wt / 6.0)
    if w == 0.0:
        return series
    small = np.abs(wt) < 1e-6
    exact = (1.0 - np.exp(-1j * wt)) / (1j * w)
    return np.where(small, series, exact)


def _require_finite(drive, *names):
    """Reject a non-finite field; the message starts with the field name."""
    for name in names:
        if not np.all(np.isfinite(getattr(drive, name))):
            raise ValueError(f"{name} must be finite")


def _scalar_or_array(value, scalar: bool):
    return value.item() if scalar else value


def simpson_doubling(fn, a: float, b: float, tol: float = 1e-11,
                     min_panels: int = 8, max_doublings: int = 22):
    """Composite Simpson with panel doubling and Richardson acceptance.

    ``fn`` must accept an array of nodes. Two refinements have to agree to
    ``tol`` before the Richardson extrapolated value is returned.
    """
    if b == a:
        return 0.0 * fn(np.array([a]))[0]

    def simpson(n):
        x = np.linspace(a, b, 2 * n + 1)
        y = fn(x)
        h = (b - a) / (2 * n)
        return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())

    n = min_panels
    prev = simpson(n)
    for _ in range(max_doublings):
        n *= 2
        cur = simpson(n)
        if abs(cur - prev) < 15.0 * tol:
            return cur + (cur - prev) / 15.0
        prev = cur
    raise ValueError("quadrature did not converge (panel cap exceeded)")


class DriveProtocol:
    """Common interface of the field protocols.

    Instances are immutable values; every method is a pure function of
    (protocol, t) and accepts scalar or array times. Subclasses provide
    ``period`` (the driving period T, or None when aperiodic) and ``omega``
    (2 pi / T, or None).
    """

    def f(self, t):
        raise NotImplementedError

    def g(self, t):
        raise NotImplementedError

    def eta(self, t):
        raise NotImplementedError

    def chi(self, t):
        raise NotImplementedError

    def int_exp_eta(self, t, scale: float = 1.0):
        """int_0^t exp(-i scale eta_tau) dtau."""
        raise NotImplementedError

    def uv(self, t):
        """(u_t, v_t) = (2 Re chi_t, -2 Im chi_t)."""
        chi = self.chi(t)
        return 2.0 * np.real(chi), -2.0 * np.imag(chi)

    def phase(self, t) -> PhaseIntegrals:
        """Bundle eta, chi, u, v at a single time t."""
        t = float(t)
        u, v = self.uv(t)
        return PhaseIntegrals(t=t, eta=float(self.eta(t)), chi=complex(self.chi(t)),
                              u=float(u), v=float(v))

    @property
    def omega_bloch(self) -> float:
        """Bloch frequency: the mean of f_t (equals f0 for the closed forms)."""
        return self.f0  # type: ignore[attr-defined]

    @property
    def bloch_period(self) -> float | None:
        wb = abs(self.omega_bloch)
        return None if wb == 0.0 else 2.0 * np.pi / wb

    def eta_tilde(self, t):
        """Periodic part of eta: eta_t - w_B t."""
        if self.period is None:
            raise ValueError("eta_tilde requires a periodic protocol")
        return self.eta(t) - self.omega_bloch * np.asarray(t, dtype=float)

    def resonance_order(self) -> int | None:
        """n = w_B / w when that is a nonnegative integer, else None."""
        if self.period is None:
            return None
        x = self.omega_bloch / self.omega
        n = round(x)
        if n >= 0 and abs(x - n) <= _RESONANCE_RTOL * max(1.0, abs(x)):
            return int(n)
        return None

    def fourier_amplitude(self, nu: int) -> complex:
        """a_nu = (1/T) int_0^T g_t exp(-i nu w t - i eta~_t) dt.

        Periodic-trapezoid quadrature with node doubling; spectrally
        accurate for the analytic closed-form drives.
        """
        if self.period is None:
            raise ValueError("fourier_amplitude requires a periodic protocol")
        T = self.period

        def mean_of(n_nodes: int) -> complex:
            tt = T * np.arange(n_nodes) / n_nodes
            vals = self.g(tt) * np.exp(-1j * (nu * self.omega * tt + self.eta_tilde(tt)))
            return complex(vals.mean())

        nodes = 64
        floor = 4 * (self._spectral_bandwidth() + abs(nu) + 8)
        while nodes < floor:
            nodes *= 2
        prev = mean_of(nodes)
        for _ in range(18):
            nodes *= 2
            cur = mean_of(nodes)
            if abs(cur - prev) < 1e-11:
                return cur
            prev = cur
        raise ValueError("fourier_amplitude quadrature did not converge")

    def _spectral_bandwidth(self) -> float:
        """Rough harmonic content of g_t exp(-i eta~_t), for quadrature sizing."""
        return 16.0

    def _linear_chi_coefficient(self) -> complex:
        """Coefficient a_n of the secular term in chi, at resonance."""
        n = self.resonance_order()
        if n is None:
            return 0.0
        return self.fourier_amplitude(n)

    def drift_rate(self) -> float:
        """gamma_n = 2 a_n for resonant drives (signed when a_n is real), else 0."""
        if self.resonance_order() is None:
            return 0.0
        a = complex(self._linear_chi_coefficient())
        if abs(a.imag) <= 1e-10 * (abs(a) + 1.0):
            return 2.0 * a.real
        return 2.0 * abs(a)


@dataclass(frozen=True)
class DCDrive(DriveProtocol):
    """Constant field and hopping: f_t = f0, g_t = g0."""

    f0: float
    g0: float

    period = None
    omega = None

    def __post_init__(self):
        _require_finite(self, "f0", "g0")

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.f0) if t.ndim else self.f0

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.g0) if t.ndim else self.g0

    def eta(self, t):
        return self.f0 * np.asarray(t, dtype=float)

    def chi(self, t):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(self.g0 * _eint(self.f0, np.asarray(t, dtype=float)),
                                scalar)

    def int_exp_eta(self, t, scale: float = 1.0):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(_eint(scale * self.f0, np.asarray(t, dtype=float)),
                                scalar)

    def uv(self, t):
        t = np.asarray(t, dtype=float)
        if self.f0 == 0.0:
            return 2.0 * self.g0 * t, 0.0 * t
        amp = 2.0 * self.g0 / self.f0
        return amp * np.sin(self.f0 * t), amp * (1.0 - np.cos(self.f0 * t))

    def drift_rate(self) -> float:
        # a nonzero constant field keeps chi bounded; chi = g0 t when f0 = 0
        return 2.0 * self.g0 if self.f0 == 0.0 else 0.0


class _CoefficientDrive(DriveProtocol):
    """Shared closed form for drives where exp(-i s eta~_t) has a known
    harmonic expansion sum_nu c_nu(s) exp(i nu w t)."""

    def _exp_eta_coefficients(self, scale: float):
        """Return (offset, c) with c[k] the coefficient of exp(i (k-offset) w t)."""
        raise NotImplementedError

    def _linear_chi_coefficient(self) -> complex:
        n = self.resonance_order()
        if n is None:
            return 0.0
        offset, coeff = self._exp_eta_coefficients(1.0)
        # past the trimmed support the coefficient is below the drop tolerance
        return self.g0 * coeff[offset + n] if offset + n < coeff.size else 0.0

    def _sum_over_harmonics(self, t, scale: float):
        t = np.asarray(t, dtype=float)
        offset, coeff = self._exp_eta_coefficients(scale)
        total = np.zeros(t.shape, dtype=complex)
        wb = scale * self.omega_bloch
        for k, c in enumerate(coeff):
            if abs(c) < _DROP:
                continue
            total += c * _eint(wb - (k - offset) * self.omega, t)
        return total

    def int_exp_eta(self, t, scale: float = 1.0):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(self._sum_over_harmonics(t, scale), scalar)

    def chi(self, t):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(self.g0 * self._sum_over_harmonics(t, 1.0), scalar)


@dataclass(frozen=True)
class HarmonicDrive(_CoefficientDrive):
    """Combined dc-ac drive f_t = f0 - f1 cos(w t), g_t = g0."""

    f0: float
    f1: float
    omega: float
    g0: float

    def __post_init__(self):
        _require_finite(self, "f0", "f1", "omega", "g0")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if abs(self.f1 / self.omega) >= 1e6:
            raise ValueError("f1 must satisfy |f1/omega| < 1e6")

    @property
    def period(self) -> float:  # type: ignore[override]
        return 2.0 * np.pi / self.omega

    def f(self, t):
        return self.f0 - self.f1 * np.cos(self.omega * np.asarray(t, dtype=float))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.g0) if t.ndim else self.g0

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        return self.f0 * t - (self.f1 / self.omega) * np.sin(self.omega * t)

    def _exp_eta_coefficients(self, scale: float):
        # exp(+i s beta sin(w t)) = sum_nu J_nu(s beta) exp(i nu w t)
        coeff = bessel_j_orders(scale * self.f1 / self.omega)
        return coeff.size // 2, coeff

    def _spectral_bandwidth(self) -> float:
        return abs(self.f1 / self.omega) + 8.0


@dataclass(frozen=True)
class FourierDrive(_CoefficientDrive):
    """Finite cosine-series drive f_t = f0 + sum_m f_m cos(m w t), g_t = g0."""

    f0: float
    modes: tuple
    omega: float
    g0: float
    _coeff_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(float(m) for m in self.modes))
        if len(self.modes) < 1:
            raise ValueError("modes needs at least one cosine amplitude")
        _require_finite(self, "f0", "modes", "omega", "g0")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if np.sum(np.abs(self.betas)) >= 1e3:
            raise ValueError("modes must satisfy sum |f_m/(m omega)| < 1e3")

    @property
    def period(self) -> float:  # type: ignore[override]
        return 2.0 * np.pi / self.omega

    @property
    def betas(self) -> np.ndarray:
        m = np.arange(1, len(self.modes) + 1)
        return np.asarray(self.modes) / (m * self.omega)

    def f(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.f0) if t.ndim else self.f0
        for m, fm in enumerate(self.modes, start=1):
            out = out + fm * np.cos(m * self.omega * t)
        return out

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.g0) if t.ndim else self.g0

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        out = self.f0 * t
        for m, beta in enumerate(self.betas, start=1):
            out = out + beta * np.sin(m * self.omega * t)
        return out

    def _exp_eta_coefficients(self, scale: float):
        # exp(-i s sum_m beta_m sin(m u)) = sum_nu J_nu({-s beta_m}) exp(i nu u)
        key = float(scale)
        cached = self._coeff_cache.get(key)
        if cached is None:
            coeff = bessel_j_multivar_orders(-scale * self.betas)
            cached = self._coeff_cache[key] = (coeff.size // 2, coeff)
        return cached

    def _spectral_bandwidth(self) -> float:
        m = np.arange(1, len(self.modes) + 1)
        return float(np.sum(m * np.abs(self.betas))) + 8.0


class TabulatedDrive(DriveProtocol):
    """Drive defined by sampled (t, f) and (t, g) tables, linearly interpolated.

    The grid must be strictly increasing and start at 0. Periodic tables
    repeat with period t[-1]; aperiodic ones are defined on [0, t[-1]] only.
    eta is exact for the interpolant (trapezoid rule is exact on piecewise
    linear f); chi and the exp(-i s eta) integrals use per-segment Simpson
    quadrature with node doubling, so interpolation kinks always sit on
    quadrature nodes.
    """

    def __init__(self, times, f_values, g_values, periodic: bool = False):
        times = np.asarray(times, dtype=float)
        f_values = np.asarray(f_values, dtype=float)
        g_values = np.asarray(g_values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least 2 samples")
        if f_values.shape != times.shape or g_values.shape != times.shape:
            raise ValueError("value arrays must match the time grid")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not (np.all(np.isfinite(f_values)) and np.all(np.isfinite(g_values))):
            raise ValueError("samples must be finite")
        self.times = times
        self.f_values = f_values
        self.g_values = g_values
        self.periodic = bool(periodic)
        seg = np.diff(times)
        self._eta_nodes = np.concatenate(
            [[0.0], np.cumsum(0.5 * seg * (f_values[:-1] + f_values[1:]))])
        self._cumulative_cache: dict = {}

    @classmethod
    def from_files(cls, f_path, g_path, periodic: bool = False) -> "TabulatedDrive":
        """Build from two-column (t, value) text tables on a common grid."""
        tf = np.loadtxt(f_path, ndmin=2)
        tg = np.loadtxt(g_path, ndmin=2)
        if tf.shape[1] != 2 or tg.shape[1] != 2:
            raise ValueError("tables must have two columns (t, value)")
        if tf.shape[0] != tg.shape[0] or not np.allclose(tf[:, 0], tg[:, 0],
                                                         rtol=0.0, atol=1e-12):
            raise ValueError("f and g tables must share the same time grid")
        return cls(tf[:, 0], tf[:, 1], tg[:, 1], periodic=periodic)

    @property
    def period(self) -> float | None:  # type: ignore[override]
        return float(self.times[-1]) if self.periodic else None

    @property
    def omega(self) -> float | None:  # type: ignore[override]
        return None if self.period is None else 2.0 * np.pi / self.period

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def f0(self) -> float:
        """Mean field over the table span (the Bloch frequency when periodic)."""
        return float(self._eta_nodes[-1] / self.times[-1])

    def _reduce(self, t):
        """Map times onto the base table: (full cycles, remainder)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12):
            raise ValueError("tabulated drives are defined for t >= 0")
        span = self.times[-1]
        if self.periodic:
            k = np.floor(t / span + 1e-15).astype(int)
            return k, t - k * span
        if np.any(t > span * (1.0 + 1e-12)):
            raise ValueError("t beyond the tabulated horizon")
        return np.zeros(t.shape, dtype=int), np.clip(t, 0.0, span)

    def f(self, t):
        _, s = self._reduce(t)
        return np.interp(s, self.times, self.f_values)

    def g(self, t):
        _, s = self._reduce(t)
        return np.interp(s, self.times, self.g_values)

    def _eta_base(self, s):
        """eta on the base span [0, T], exact for the linear interpolant."""
        idx = np.clip(np.searchsorted(self.times, s, side="right") - 1, 0,
                      self.times.size - 2)
        ds = s - self.times[idx]
        f_here = np.interp(s, self.times, self.f_values)
        return self._eta_nodes[idx] + 0.5 * ds * (self.f_values[idx] + f_here)

    def eta(self, t):
        scalar = np.ndim(t) == 0
        k, s = self._reduce(t)
        out = k * self._eta_nodes[-1] + self._eta_base(s)
        return _scalar_or_array(out, scalar)

    def _segment_cumulative(self, scale: float, with_g: bool) -> np.ndarray:
        """Cumulative integral of [g] exp(-i scale eta) at the table nodes."""
        key = (float(scale), bool(with_g))
        cached = self._cumulative_cache.get(key)
        if cached is not None:
            return cached

        def integrand(x):
            w = np.interp(x, self.times, self.g_values) if with_g else 1.0
            return w * np.exp(-1j * scale * self._eta_base(x))

        a = self.times[:-1]
        b = self.times[1:]

        def simpson(subdiv):
            frac = np.linspace(0.0, 1.0, 2 * subdiv + 1)
            nodes = a[:, None] + (b - a)[:, None] * frac[None, :]
            vals = integrand(nodes.ravel()).reshape(nodes.shape)
            h = (b - a) / (2 * subdiv)
            weights = np.ones(2 * subdiv + 1)
            weights[1:-1:2] = 4.0
            weights[2:-1:2] = 2.0
            return (h / 3.0) * (vals @ weights)

        subdiv = 4
        prev = simpson(subdiv)
        for _ in range(14):
            subdiv *= 2
            cur = simpson(subdiv)
            if np.max(np.abs(cur - prev)) < 1e-13:
                break
            prev = cur
        result = np.concatenate([[0.0 + 0.0j], np.cumsum(cur)])
        self._cumulative_cache[key] = result
        return result

    def _base_integral(self, s, scale: float, with_g: bool):
        """int_0^s [g] exp(-i scale eta) dtau for s inside the base span."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        nodes = self._segment_cumulative(scale, with_g)
        idx = np.clip(np.searchsorted(self.times, s, side="right") - 1, 0,
                      self.times.size - 2)
        out = nodes[idx].astype(complex)

        def integrand(x):
            w = np.interp(x, self.times, self.g_values) if with_g else 1.0
            return w * np.exp(-1j * scale * self._eta_base(x))

        for i, (si, j) in enumerate(zip(s, idx)):
            t0 = float(self.times[j])
            if si > t0:
                out[i] += simpson_doubling(integrand, t0, float(si), tol=1e-13,
                                           min_panels=4)
        return out

    def _integral(self, t, scale: float, with_g: bool):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        k, s = self._reduce(t_arr)
        k = np.atleast_1d(k)
        base = self._base_integral(np.atleast_1d(s), scale, with_g)
        if not self.periodic or np.all(k == 0):
            return base.reshape(np.shape(t_arr))
        full = self._segment_cumulative(scale, with_g)[-1]
        q = np.exp(-1j * scale * self._eta_nodes[-1])
        out = np.empty(t_arr.shape, dtype=complex)
        flat = out.reshape(-1)
        for i, (ki, bi) in enumerate(zip(k.reshape(-1), base.reshape(-1))):
            # int(k T + s) = int_T * sum_{j<k} q^j + q^k * int(s)
            flat[i] = full * (q ** np.arange(ki)).sum() + q ** ki * bi
        return out

    def chi(self, t):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(self._integral(t, 1.0, with_g=True), scalar)

    def int_exp_eta(self, t, scale: float = 1.0):
        scalar = np.ndim(t) == 0
        return _scalar_or_array(self._integral(t, scale, with_g=False), scalar)

    def _spectral_bandwidth(self) -> float:
        return float(self.times.size)


def fourier_amplitude(protocol: DriveProtocol, nu: int) -> complex:
    """Fourier coefficient a_nu of g_t exp(-i eta~_t) for a periodic protocol."""
    return protocol.fourier_amplitude(int(nu))


def drift_rate(protocol: DriveProtocol) -> float:
    """Secular growth rate gamma of chi_t (chi ~ gamma t / 2); 0 off resonance."""
    return protocol.drift_rate()
