"""Field protocols and their phase integrals.

A drive is the pair of real, possibly time dependent functions (f_t, g_t)
in reduced units (hbar = 1, lattice constant d = 1): f_t is the on-site
field gradient, g_t the hopping amplitude. Everything the closed-form
dynamics needs is condensed into scalar functions of time,

    eta_t = int_0^t f_tau dtau,
    chi_t = int_0^t g_tau exp(-i eta_tau) dtau = |chi_t| exp(-i phi_t),
    u_t   = 2 int_0^t g_tau cos(eta_tau) dtau = 2 Re chi_t,
    v_t   = 2 int_0^t g_tau sin(eta_tau) dtau = -2 Im chi_t,

which this module evaluates in closed form where one exists (dc, finite
cosine series, harmonic being the one-mode series) and by fixed-order
Gauss-Legendre quadrature for tabulated fields, a whole time grid in a few
array operations.

Sign conventions:
    dc:        f_t = f0
    harmonic:  f_t = f0 - f1 cos(w t),  the fourier drive with modes = (-f1,)
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
    "DriveProtocol",
    "DCDrive",
    "HarmonicDrive",
    "FourierDrive",
    "TabulatedDrive",
]

_RESONANCE_RTOL = 1e-9
# a harmonic with |d| max(t, 1) below this goes through _eint, not Horner
_NEAR_RESONANT = 1.0
# the 8-point Gauss-Legendre rule for tables: numpy's leggauss(8), mirrored from x > 0
_GL_HALF = np.array([
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]])
_GL_NODES, _GL_WEIGHTS = np.c_[[[-1.0], [1.0]] * _GL_HALF[:, ::-1], _GL_HALF]
_PANEL_PHASE = 1.0  # the most phase (rad) one panel of a table spans


def _eint(w: float, t):
    """int_0^t exp(-i w tau) dtau with a series branch for small |w t|."""
    t = np.asarray(t, dtype=float)
    wt = w * t
    small = np.abs(wt) < 1e-6
    ws = np.where(small, wt, 0.0)  # wt * wt would overflow past |wt| ~ 1e154
    series = t * (1.0 - 0.5j * ws - ws * ws / 6.0)
    if w == 0.0:
        return series
    exact = (1.0 - np.exp(-1j * wt)) / (1j * w)
    return np.where(small, series, exact)


def _require_finite(drive, *names):
    """Reject a non-finite field; the message starts with the field name."""
    for name in names:
        if not np.all(np.isfinite(getattr(drive, name))):
            raise ValueError(f"{name} must be finite")


def _scalar_or_array(value, scalar: bool):
    return value.item() if scalar else value


def _at_weight(scale: float) -> str:
    return "" if scale == 1.0 else f" at band weight {scale:g}"


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
        """g_t; the closed-form drives hop with a constant g0."""
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.g0) if t.ndim else self.g0  # type: ignore[attr-defined]

    def eta(self, t):
        raise NotImplementedError

    def _integral(self, t: np.ndarray, scale: float, with_g: bool) -> np.ndarray:
        """int_0^t [g_tau] exp(-i scale eta_tau) dtau at every entry of t."""
        raise NotImplementedError

    def chi(self, t):
        return _scalar_or_array(self._integral(np.asarray(t, dtype=float), 1.0, True),
                                np.ndim(t) == 0)

    def int_exp_eta(self, t, scale: float = 1.0):
        """int_0^t exp(-i scale eta_tau) dtau."""
        return _scalar_or_array(self._integral(np.asarray(t, dtype=float), scale, False),
                                np.ndim(t) == 0)

    def check_scale(self, scale: float) -> None:
        """Raise ValueError, naming the field, when exp(-i scale eta_t) is
        outside the range the phase integrals support."""

    def uv(self, t):
        """(u_t, v_t) = (2 Re chi_t, -2 Im chi_t)."""
        chi = self.chi(t)
        return 2.0 * np.real(chi), -2.0 * np.imag(chi)

    @property
    def max_hop(self) -> float:
        """max_t |g_t|, so that |chi_t| <= max_hop * t."""
        return abs(self.g0)  # type: ignore[attr-defined]

    @property
    def omega_bloch(self) -> float:
        """Bloch frequency: the mean of f_t (equals f0 for the closed forms)."""
        return self.f0  # type: ignore[attr-defined]

    @property
    def bloch_period(self) -> float | None:
        wb = abs(self.omega_bloch)
        return None if wb == 0.0 else 2.0 * np.pi / wb

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
        """a_nu = (1/T) int_0^T g_t exp(-i nu w t - i eta~_t) dt."""
        raise ValueError("fourier_amplitude requires a periodic protocol")

    def drift_rate(self) -> float:
        """gamma_n = 2 a_n for resonant drives (signed when a_n is real), else 0."""
        n = self.resonance_order()
        if n is None:
            return 0.0
        a = complex(self.fourier_amplitude(n))
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

    def eta(self, t):
        return self.f0 * np.asarray(t, dtype=float)

    def _integral(self, t, scale: float, with_g: bool):
        integral = _eint(scale * self.f0, t)
        return self.g0 * integral if with_g else integral

    def drift_rate(self) -> float:
        # a nonzero constant field keeps chi bounded; chi = g0 t when f0 = 0
        return 2.0 * self.g0 if self.f0 == 0.0 else 0.0


@dataclass(frozen=True)
class FourierDrive(DriveProtocol):
    """Finite cosine-series drive f_t = f0 + sum_m f_m cos(m w t), g_t = g0.

    exp(-i s eta~_t) has the harmonic expansion sum_nu c_nu(s) exp(i nu w t),
    c_nu(s) = J_nu({-s beta_m}), cached per scale s.
    """

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
        self.check_scale(1.0)

    def check_scale(self, scale: float) -> None:
        if np.sum(np.abs(scale * self.betas)) >= 1e3:
            raise ValueError("modes must satisfy sum |f_m/(m omega)| < 1e3"
                             + _at_weight(scale))

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

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        out = self.f0 * t
        for m, beta in enumerate(self.betas, start=1):
            out = out + beta * np.sin(m * self.omega * t)
        return out

    def _exp_eta_series(self, scale: float) -> np.ndarray:
        """The coefficients [c_{-N}(s), ..., c_N(s)]."""
        # exp(-i s sum_m beta_m sin(m u)) = sum_nu J_nu({-s beta_m}) exp(i nu u)
        return bessel_j_multivar_orders(-scale * self.betas)

    def _exp_eta_coefficients(self, scale: float):
        """Return (offset, c) with c[k] the coefficient of exp(i (k-offset) w t)."""
        key = float(scale)
        cached = self._coeff_cache.get(key)
        if cached is None:
            coeff = self._exp_eta_series(key)
            cached = self._coeff_cache[key] = (coeff.size // 2, coeff)
        return cached

    def fourier_amplitude(self, nu: int) -> complex:
        """a_nu = g0 c_nu(1)."""
        offset, coeff = self._exp_eta_coefficients(1.0)
        k = offset + int(nu)
        # past the trimmed support the coefficient is below the drop tolerance
        return complex(self.g0 * coeff[k]) if 0 <= k < coeff.size else 0j

    def _integral(self, t, scale: float, with_g: bool):
        """sum_k c_k int_0^t exp(-i d_k tau) dtau, d_k = s w_B - (k-offset) w.

        Away from resonance a term is a_k (1 - exp(-i d_k t)), a_k = c_k/(i d_k),
        so the sum is sum_k a_k - exp(-i d_m t) P(exp(i w t)), P a Laurent
        polynomial around the slowest harmonic m, by Horner on each side.
        Terms with |d_k| max(t, 1) < 1 would cancel there; _eint sums them.
        """
        offset, coeff = self._exp_eta_coefficients(scale)
        d = scale * self.omega_bloch - (np.arange(coeff.size) - offset) * self.omega
        span = max(float(np.max(np.abs(t), initial=0.0)), 1.0)
        kept = np.abs(coeff) >= _DROP
        near = kept & (np.abs(d) * span < _NEAR_RESONANT)
        total = np.zeros(t.shape, dtype=complex)
        for k in np.flatnonzero(near):
            total += coeff[k] * _eint(d[k], t)
        a = np.divide(coeff, 1j * d, out=np.zeros(coeff.size, dtype=complex),
                      where=kept & ~near)
        from numpy.polynomial.polynomial import polyval  # a ms-long import, on first use
        m = int(np.argmin(np.abs(d)))
        z = np.exp(1j * self.omega * t)
        poly = polyval(z, a[m:]) + polyval(np.conj(z), np.r_[0.0, a[:m][::-1]])
        total += a.sum() - np.exp(-1j * d[m] * t) * poly
        return self.g0 * total if with_g else total


class HarmonicDrive(FourierDrive):
    """Combined dc-ac drive f_t = f0 - f1 cos(w t), g_t = g0: the one-mode
    cosine series, modes = (-f1,)."""

    def __init__(self, f0: float, f1: float, omega: float, g0: float):
        if not np.isfinite(f1):
            raise ValueError("f1 must be finite")
        super().__init__(f0, (-float(f1),), omega, g0)

    @property
    def f1(self) -> float:
        return -self.modes[0]

    def check_scale(self, scale: float) -> None:
        if abs(scale * self.f1 / self.omega) >= 1e6:
            raise ValueError("f1 must satisfy |f1/omega| < 1e6" + _at_weight(scale))

    def _exp_eta_series(self, scale: float) -> np.ndarray:
        # exp(+i s beta sin(w t)) = sum_nu J_nu(s beta) exp(i nu w t); one
        # kernel, rounded as (s f1)/w, reaching |beta| < 1e6
        return bessel_j_orders(scale * self.f1 / self.omega)


class TabulatedDrive(DriveProtocol):
    """Drive defined by sampled (t, f) and (t, g) tables, linearly interpolated.

    The grid must be strictly increasing and start at 0. Periodic tables
    repeat with period t[-1]; aperiodic ones are defined on [0, t[-1]] only.
    eta is exact for the interpolant (trapezoid rule is exact on piecewise
    linear f). chi, the exp(-i s eta) integrals and a_nu use one 8-node
    Gauss-Legendre rule on panels that split every table segment so that
    the phase turns by at most 1 rad across a panel; table nodes are panel
    edges, so interpolation kinks never sit inside a panel. The integral
    to a time is the cumulative sum up to its panel plus the same rule on
    the partial panel; whole periods add up as a closed-form geometric sum.
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
        self._panel_cache: dict = {}

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
    def max_hop(self) -> float:  # type: ignore[override]
        return float(np.max(np.abs(self.g_values)))

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
            k = np.floor(t / span + 1e-15)  # a float: no cast to overflow
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

    def _gauss(self, a, b, scale: float, with_g: bool, rate: float = 0.0):
        """int_a^b [g] exp(-i (scale eta + rate tau)) dtau on panels inside one
        segment each."""
        half = 0.5 * (b - a)
        x = (a + half)[..., None] + half[..., None] * _GL_NODES
        vals = np.exp(-1j * scale * self._eta_base(x))
        if rate:
            vals *= np.exp(-1j * rate * x)
        if with_g:
            vals *= np.interp(x, self.times, self.g_values)
        return half * (vals @ _GL_WEIGHTS)

    def _panels(self, scale: float, with_g: bool, rate: float = 0.0):
        """Panel edges on [0, T] and the integral of [g] exp(-i (scale eta +
        rate tau)) up to each edge; a panel turns that phase by at most
        _PANEL_PHASE."""
        key = (float(scale), bool(with_g), float(rate))
        cached = self._panel_cache.get(key)
        if cached is None:
            turn = np.abs(scale * self.f_values + rate)
            count = np.ceil(np.maximum(turn[:-1], turn[1:]) * np.diff(self.times)
                            / _PANEL_PHASE)
            edges = np.append(np.concatenate([
                np.linspace(a, b, max(int(n), 1), endpoint=False)
                for a, b, n in zip(self.times[:-1], self.times[1:], count)]),
                self.times[-1])
            cumulative = np.concatenate([[0.0], np.cumsum(
                self._gauss(edges[:-1], edges[1:], scale, with_g, rate))])
            cached = self._panel_cache[key] = (edges, cumulative)
        return cached

    def _integral(self, t, scale: float, with_g: bool):
        k, s = self._reduce(np.atleast_1d(t))
        s = np.clip(s, 0.0, self.times[-1])
        edges, cumulative = self._panels(scale, with_g)
        p = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, edges.size - 2)
        out = cumulative[p] + self._gauss(edges[p], s, scale, with_g)
        if self.periodic:
            # int(k T + s) = int_T sum_{j<k} q^j + q^k int(s), q = exp(-i theta)
            theta = scale * self._eta_nodes[-1]
            half = 0.5 * (theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi)))
            sin_half = np.sin(half)
            ratio = np.divide(np.sin(k * half), sin_half, out=k.astype(float),
                              where=sin_half != 0.0)
            geometric = np.exp(-1j * (k - 1) * half) * ratio
            out = cumulative[-1] * geometric + np.exp(-2j * k * half) * out
        return out.reshape(t.shape)

    def fourier_amplitude(self, nu: int) -> complex:
        """a_nu = (1/T) int_0^T g exp(-i (eta + (nu w - w_B) tau)) dtau, on the
        Gauss-Legendre panels of chi with that linear phase rate added."""
        if self.period is None:
            return super().fourier_amplitude(nu)
        rate = int(nu) * self.omega - self.omega_bloch
        return complex(self._panels(1.0, True, rate)[1][-1] / self.period)
