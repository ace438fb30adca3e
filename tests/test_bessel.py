import math

import numpy as np
import pytest

from driventb.bessel import (bessel_cutoff, bessel_j, bessel_j_array,
                             bessel_j_multivar, bessel_j_multivar_orders,
                             bessel_j_orders, bessel_zero)


def series_j(n, x, tol=1e-18):
    """Power-series oracle, summed to machine convergence (moderate |x|)."""
    n = abs(int(n))
    term = (x / 2.0) ** n / math.factorial(n)
    total = term
    for k in range(1, 400):
        term *= -(x / 2.0) ** 2 / (k * (n + k))
        total += term
        if abs(term) < tol * max(abs(total), 1e-300):
            break
    return total


def test_values_at_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for m in (1, 2, 5, -3):
        assert bessel_j(m, 0.0) == 0.0


def test_j1_of_1_against_series_oracle():
    oracle = series_j(1, 1.0)
    assert abs(oracle - 0.4400505857449335) < 1e-15
    assert abs(bessel_j(1, 1.0) - oracle) < 1e-14


@pytest.mark.parametrize("n,x", [(0, 0.5), (1, 1.0), (3, 2.7), (7, 13.4),
                                 (20, 8.0), (2, 19.5), (40, 11.0)])
def test_against_series_oracle(n, x):
    # the alternating series self-cancels to ~eps * exp(x); allow it that much
    oracle_floor = np.exp(x) * 2.3e-16
    assert abs(bessel_j(n, x) - series_j(n, x)) < 1e-12 + oracle_floor


def test_unitarity_sum():
    total = sum(bessel_j(m, 5.0) ** 2 for m in range(-40, 41))
    assert abs(total - 1.0) < 1e-12


def test_negative_order_and_argument_parity():
    for n in range(0, 7):
        assert bessel_j(-n, 3.3) == pytest.approx(
            (-1.0) ** n * bessel_j(n, 3.3), abs=1e-15)
        assert bessel_j(n, -3.3) == pytest.approx(
            (-1.0) ** n * bessel_j(n, 3.3), abs=1e-15)


def test_recurrence_consistency():
    rng = np.random.default_rng(7)
    for x in np.concatenate([[0.1, 1.0, 100.0], rng.uniform(0.1, 100.0, 20)]):
        arr = bessel_j_array(30, x)
        for n in range(1, 29):
            resid = arr[n - 1] + arr[n + 1] - (2.0 * n / x) * arr[n]
            assert abs(resid) < 1e-10


def test_generating_function_closure():
    # sum_m J_m(x) e^{i m theta} = exp(x (e^{i theta} - e^{-i theta}) / 2)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 10.0, 8):
        arr = bessel_j_array(40, x)
        for theta in np.linspace(0.0, 2.0 * np.pi, 9):
            total = arr[0] + sum(
                arr[m] * (np.exp(1j * m * theta)
                          + (-1.0) ** m * np.exp(-1j * m * theta))
                for m in range(1, 41))
            assert abs(total - np.exp(1j * x * np.sin(theta))) < 1e-10


def test_accuracy_grid_against_scipy():
    sp = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(3)
    orders = np.concatenate([[0, 1, 2, 200], rng.integers(0, 200, 30)])
    args = np.concatenate([[0.0, 1e-7, 500.0], rng.uniform(0.0, 500.0, 30)])
    for n in orders:
        for x in args:
            assert abs(bessel_j(int(n), float(x)) - sp.jv(int(n), float(x))) < 1e-12


def test_argument_range_error():
    with pytest.raises(ValueError):
        bessel_j(0, 2e6)


@pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, 1.0, 7.3, 50.0, 333.3, 2e3,
                               1.5e4, 1e5])
def test_orders_first_dropped_order_is_below_tolerance(x):
    sp = pytest.importorskip("scipy.special")
    kernel = bessel_j_orders(x)
    n = kernel.size // 2
    assert n <= bessel_cutoff(x)
    # both ends kept, both first dropped orders below 1e-17
    assert min(abs(kernel[0]), abs(kernel[-1])) >= 1e-17
    assert abs(sp.jv(n + 1, x)) < 1e-17
    assert abs(sp.jv(-n - 1, x)) < 1e-17


def test_cutoff_bounds_the_kernel_half_width():
    # the bloch route sizes its pad from the cutoff, not from the kernel
    for x in np.logspace(-10, 5, 61):
        assert bessel_cutoff(x) >= bessel_j_orders(x).size // 2
    with pytest.raises(ValueError, match="outside supported range"):
        bessel_cutoff(2e6)


def test_cutoff_of_an_array_is_the_scalar_rule():
    # numpy's array x ** (1/3) differs from Python's in the last bit for a
    # few percent of arguments; the cutoffs may part only where
    # x + 14 x^(1/3) is within a bit of an integer, so those x are drawn too
    def rule(x):
        ax = abs(x)
        return math.ceil(ax + 14.0 * max(ax, 1.0) ** (1.0 / 3.0)) + 28

    rng = np.random.default_rng(2026)
    k = np.concatenate([np.arange(43.0, 2e4), rng.integers(2 * 10 ** 4, 10 ** 6, 10 ** 4)])
    root = k - 14.0 * np.cbrt(k)  # Newton on x + 14 x^(1/3) = k, from x > 1
    for _ in range(4):
        root -= (root + 14.0 * np.cbrt(root) - k) / (1.0 + 14.0 / 3.0 * np.cbrt(root) ** -2)
    near = np.concatenate([np.nextafter(root, 0.0), root, np.nextafter(root, 2e6)])
    x = np.concatenate([np.arange(0.0, 1e4 + 0.25, 0.5), rng.uniform(0.0, 1e6, 3 * 10 ** 5),
                        -rng.uniform(0.0, 2.0, 1000), near[near <= 1e6], [1e6]])
    got = bessel_cutoff(x)
    assert got.dtype == np.int64 and got.shape == x.shape
    assert np.array_equal(got, [rule(v) for v in x.tolist()])
    for v in x[::101].tolist():
        assert type(bessel_cutoff(v)) is int and bessel_cutoff(v) == rule(v)
    # one range check for both: the first element past it is named
    for bad in (2e6, np.inf, np.nan):
        with pytest.raises(ValueError, match=rf"^\|x\| = {bad} outside supported range"):
            bessel_cutoff(np.array([1.0, bad, 3e6]))


def test_orders_are_the_array_with_mirrored_signs():
    for x in (0.0, 2.5, -2.5, 40.0):
        kernel = bessel_j_orders(x)
        n = kernel.size // 2
        assert np.array_equal(kernel[n:],
                              bessel_j_array(bessel_cutoff(x), x)[:n + 1])
        # J_{-k} = (-1)^k J_k
        signs = (-1.0) ** np.arange(n + 1)
        assert np.array_equal(kernel[n::-1], signs * kernel[n:])


def test_multivar_orders_parseval_and_single_mode():
    c = bessel_j_multivar_orders([5.0, 0.0, 10.0])
    assert abs(np.sum(c ** 2) - 1.0) < 1e-13
    assert np.array_equal(bessel_j_multivar_orders([3.0]), bessel_j_orders(3.0))


def test_multivar_all_zero_betas_is_kronecker():
    assert bessel_j_multivar(0, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    for nu in (1, -2, 5):
        assert abs(bessel_j_multivar(nu, [0.0, 0.0, 0.0])) < 1e-12


def test_multivar_single_variable_reduces_to_bessel_j():
    for nu in range(-4, 5):
        for x in (0.3, 1.0, 2.5, 7.0):
            assert bessel_j_multivar(nu, [x]) == pytest.approx(
                bessel_j(nu, x), abs=1e-10)


def test_multivar_against_dense_trapezoid_oracle():
    betas = np.array([1.0, 0.5])
    nodes = 1 << 16
    u = 2.0 * np.pi * np.arange(nodes) / nodes
    integrand = np.exp(1j * (betas[0] * np.sin(u) + betas[1] * np.sin(2 * u)
                             - 1.0 * u))
    oracle = integrand.mean().real
    assert bessel_j_multivar(1, betas) == pytest.approx(oracle, abs=1e-10)


def test_multivar_index_reflection():
    # J_{-nu}({beta}) = J_nu({-beta})
    betas = [0.9, -0.4, 0.2]
    for nu in (1, 2, 3):
        assert bessel_j_multivar(-nu, betas) == pytest.approx(
            bessel_j_multivar(nu, [-b for b in betas]), abs=1e-10)


def test_multivar_argument_validation():
    with pytest.raises(ValueError):
        bessel_j_multivar(0, [])
    with pytest.raises(ValueError):
        bessel_j_multivar(0, [np.inf])
    with pytest.raises(ValueError):
        bessel_j_multivar(0, [600.0, 500.0])


def test_first_zeros():
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-10)
    assert bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-10)


@pytest.mark.parametrize("n,k", [(0, 1), (0, 3), (1, 1), (2, 4), (5, 5),
                                 (20, 10), (50, 1), (50, 50)])
def test_zeros_are_roots(n, k):
    root = bessel_zero(n, k)
    assert abs(bessel_j(n, root)) < 1e-12
    # the Newton step leaves the eigenvalue's zero within one ulp of exact
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        assert abs(mp.mpf(root) - mp.besseljzero(n, k)) <= np.spacing(root)


def test_zeros_are_increasing_in_k():
    zeros = [bessel_zero(3, k) for k in range(1, 8)]
    assert all(b > a for a, b in zip(zeros, zeros[1:]))


def test_zero_argument_validation():
    with pytest.raises(ValueError):
        bessel_zero(-1, 1)
    with pytest.raises(ValueError):
        bessel_zero(0, 0)
    with pytest.raises(ValueError):
        bessel_zero(51, 1)
    # a real order or index is not truncated to an integer one
    with pytest.raises(ValueError, match="^order n must be an integer"):
        bessel_zero(1.5, 1)
    with pytest.raises(ValueError, match="^zero index k must be an integer"):
        bessel_zero(1, 1.9)


def test_zeros_match_scipy_over_the_supported_range():
    sp = pytest.importorskip("scipy.special")
    for n in range(51):
        reference = sp.jn_zeros(n, 50)
        for k in range(1, 51):
            assert abs(bessel_zero(n, k) - reference[k - 1]) <= 1e-12, (n, k)
