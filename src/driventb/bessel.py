"""Integer-order Bessel functions of the first kind and friends.

Self-contained (no scipy): backward-recurrence J_n, the Jacobi-Anger
kernels [J_{-N}, ..., J_N] cut by one rule (``bessel_cutoff``, then 1e-17
off the ends), the many-argument J_nu({beta_m}) of multi-harmonic driving
as a convolution of those kernels, and positive zeros of J_n for the
dynamic localization condition from one tridiagonal eigenvalue solve.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_cutoff", "bessel_j", "bessel_j_array", "bessel_j_orders",
           "bessel_j_multivar", "bessel_j_multivar_orders", "bessel_zero"]

_MAX_ARG = 1e6
_DROP = 1e-17
_RESCALE = 1e250


def bessel_j_array(nmax: int, x: float) -> np.ndarray:
    """Return ``[J_0(x), J_1(x), ..., J_nmax(x)]``.

    Backward (Miller) recurrence started well past the turning point,
    normalized with the even-order sum identity J_0 + 2*sum_k J_2k = 1.
    Absolute accuracy is ~1e-14 over |x| <= 1e6. Orders whose true value
    underflows double precision come out as exact zeros.
    """
    nmax = int(nmax)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = float(x)
    ax = float(_checked_abs(x))

    out = np.zeros(nmax + 1)
    if ax < 1e-8:
        # leading power-series term; the first correction is O(x^2) ~ 1e-16
        out[0] = 1.0 - 0.25 * ax * ax
        term = 1.0
        for n in range(1, nmax + 1):
            term *= 0.5 * ax / n
            if term == 0.0:
                break
            out[n] = term
    else:
        start = int(max(nmax, ax) + 12.0 * max(ax, 1.0) ** (1.0 / 3.0)) + 42
        jp = 0.0       # J_{k+1}, unnormalized
        jc = 1e-30     # J_k
        even_sum = 2.0 * jc if start % 2 == 0 else 0.0
        for k in range(start, 0, -1):
            jm = (2.0 * k / ax) * jc - jp
            jp, jc = jc, jm
            n = k - 1
            if n <= nmax:
                out[n] = jc
            if n == 0:
                even_sum += jc
            elif n % 2 == 0:
                even_sum += 2.0 * jc
            if abs(jc) > _RESCALE:
                jp /= _RESCALE
                jc /= _RESCALE
                even_sum /= _RESCALE
                out /= _RESCALE
        out /= even_sum

    if x < 0.0:
        out[1::2] *= -1.0
    return out


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n (any sign), using J_{-n}(x) = (-1)^n J_n(x)."""
    n = int(n)
    an = abs(n)
    val = bessel_j_array(an, x)[an]
    if n < 0 and an % 2 == 1:
        val = -val
    return float(val)


def _checked_abs(x) -> np.ndarray:
    """|x| of a scalar or an array; a ValueError names its first bad element."""
    ax = np.abs(np.asarray(x, dtype=float))
    bad = ax[~(ax <= _MAX_ARG)]  # NaN is bad too
    if bad.size:
        raise ValueError(f"|x| = {bad[0]} outside supported range (< {_MAX_ARG:g})")
    return ax


def bessel_cutoff(x):
    """An order past which |J_n(x)| < 1e-17; the margin follows the Airy
    transition width (|x|/2)^(1/3) around n = |x| (DLMF 10.19). An int, or an
    array for an array x; ValueError past the range of ``bessel_j_array``."""
    ax = _checked_abs(x)
    n = np.atleast_1d(ax + 14.0 * np.maximum(ax, 1.0) ** (1.0 / 3.0))
    # Python's float ** where numpy's vectorized ** could round to another ceiling
    for i in np.flatnonzero(np.abs(n - np.rint(n)) <= 1e-13 * n):
        a = float(ax.flat[i])
        n[i] = a + 14.0 * max(a, 1.0) ** (1.0 / 3.0)
    n = np.ceil(n).astype(np.int64).reshape(ax.shape) + 28
    return int(n) if n.ndim == 0 else n


def bessel_j_orders(x: float) -> np.ndarray:
    """Coefficients ``[J_{-N}(x), ..., J_N(x)]`` of exp(i x sin u), N the
    last order with |J_N(x)| >= 1e-17."""
    arr = bessel_j_array(bessel_cutoff(x), x)
    n = int(np.flatnonzero(np.abs(arr) >= _DROP)[-1])
    out = np.concatenate([arr[n:0:-1], arr[:n + 1]])
    out[:n][::-2] *= -1.0  # J_{-k} = (-1)^k J_k
    return out


def _spread_product(kernels) -> np.ndarray:
    """Coefficients of prod_m sum_k a_k z^(m k) over the pairs (m >= 1,
    [a_{-N}, ..., a_N]): each kernel spread to every m-th order, convolved.
    An empty product is [1]."""
    out = None
    for m, kernel in kernels:
        if m != 1:
            spread = np.zeros(m * (kernel.size - 1) + 1, dtype=kernel.dtype)
            spread[::m] = kernel
            kernel = spread
        out = kernel if out is None else np.convolve(out, kernel)
    return np.ones(1) if out is None else out


def bessel_j_multivar_orders(betas) -> np.ndarray:
    """Coefficients ``[J_{-N}({beta_m}), ..., J_N({beta_m})]`` of
    exp(i sum_m beta_m sin(m u)), m = 1..len(betas), cut like
    ``bessel_j_orders``: the convolution of the kernels J_k(beta_m), mode m
    spread to every m-th order. Requires sum |beta_m| < 1e3."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.ndim != 1 or betas.size < 1:
        raise ValueError("betas must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(betas)):
        raise ValueError("betas must be finite")
    if np.sum(np.abs(betas)) >= 1e3:
        raise ValueError("sum |beta_m| out of supported range (< 1e3)")
    c = _spread_product(enumerate(map(bessel_j_orders, betas), start=1))
    mid = c.size // 2
    n = int(np.max(np.abs(np.flatnonzero(np.abs(c) >= _DROP) - mid)))
    return c[mid - n: mid + n + 1]


def bessel_j_multivar(nu: int, betas) -> float:
    """Many-argument Bessel function J_nu({beta_m}): one entry of
    ``bessel_j_multivar_orders(betas)``, 0 past its support."""
    c = bessel_j_multivar_orders(betas)
    k = int(nu) + c.size // 2
    return float(c[k]) if 0 <= k < c.size else 0.0


def _bessel_zeros(n: int, count: int, first: int = 1) -> np.ndarray:
    """Zeros ``first``, ..., ``count`` of J_n, ascending (all of the first
    ``count`` by default).

    They are 2/lambda for the largest eigenvalues lambda of the symmetric
    tridiagonal matrix with off-diagonals 1/sqrt((n+k)(n+k+1)), k = 1, 2,
    ... (Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38, 169,
    1991), truncated at ``bessel_cutoff`` of a bound on zero ``count``.
    Its diagonal is zero, so the even rows and columns of its square hold
    the lambda^2, at half the size; one Newton step with
    J_n' = (n/x) J_n - J_{n+1} then polishes each zero.
    """
    k = n + np.arange(1.0, bessel_cutoff((count + 0.5 * n) * np.pi))
    off = 1.0 / np.sqrt(k * (k + 1.0))
    t = np.diag(off, 1) + np.diag(off, -1)
    zeros = 2.0 / np.sqrt(np.linalg.eigvalsh(t[::2] @ t[:, ::2])[-first:-count - 1:-1])
    for i, x in enumerate(zeros):
        j = bessel_j_array(n + 1, x)
        zeros[i] = x - j[n] / (n / x * j[n] - j[n + 1])
    return zeros


def bessel_zero(n: int, k: int) -> float:
    """The k-th positive zero of J_n, for integers 0 <= n <= 50, 1 <= k <= 50.

    One tridiagonal eigenvalue solve and a Newton step (``_bessel_zeros``),
    so |J_n(root)| < 1e-12.
    """
    for name, value in (("order n", n), ("zero index k", k)):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n, k = int(n), int(k)
    if not 0 <= n <= 50:
        raise ValueError("order n must be in [0, 50]")
    if not 1 <= k <= 50:
        raise ValueError("zero index k must be in [1, 50]")
    return float(_bessel_zeros(n, k, first=k)[0])
