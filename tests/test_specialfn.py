"""Theta, eta, elliptic K, and fundamental-domain reduction.

Closed-form oracles, frozen as literals:

    theta[0,0](0 | i) = pi^(1/4) / Gamma(3/4) = 1.0864348112133080
    eta(i)            = Gamma(1/4) / (2 pi^(3/4)) = 0.7682254223260566
    K(1/2)            = 1.8540746773013719

The series values are additionally checked against an independent direct
summation with no lattice reduction.
"""

import cmath
import math
import types

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from conetorus import (
    PeriodRatio,
    as_sigma,
    dedekind_eta,
    elliptic_K,
    reduce_to_fundamental_domain,
    sigma_from_t,
    theta,
)
from conetorus import specialfn
from conetorus.errors import BranchCutError, DomainError

THETA00_AT_I = 1.0864348112133080
ETA_AT_I = 0.7682254223260566
K_AT_HALF = 1.8540746773013719


def brute_theta(a, b, z, sigma, n_max=200):
    # direct summation, no argument reduction: the independent oracle
    total = 0.0 + 0j
    for n in range(-n_max, n_max + 1):
        h = n + 0.5 * a
        total += cmath.exp(1j * math.pi * h * h * sigma + 2j * math.pi * h * (z + 0.5 * b))
    return total


def test_theta_null_value_oracle():
    val = theta((0, 0), 0.0, 1j)
    target = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(val - target) <= 1e-14 * abs(target)
    assert abs(val - THETA00_AT_I) <= 1e-14
    assert abs(val.imag) <= 1e-15


def test_eta_at_i_oracle():
    val = dedekind_eta(1j)
    target = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(val - target) <= 1e-14 * target
    assert abs(val - ETA_AT_I) <= 1e-14


def test_elliptic_k_real_oracles():
    val = elliptic_K(0.5)
    assert abs(val - K_AT_HALF) <= 1e-13
    for m in (0.1, 0.3, 0.5, 0.7, 0.9, -2.0):
        ref = scipy.special.ellipk(m)
        got = elliptic_K(m)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        assert abs(got.imag) <= 1e-15 * abs(ref)
    assert abs(elliptic_K(0.0) - math.pi / 2.0) <= 1e-15


def test_elliptic_k_complex_quadrature():
    rng = np.random.default_rng(101)
    for _ in range(5):
        m = complex(rng.uniform(-1.5, 0.9), rng.uniform(-1.0, 1.0))

        def integrand(x, m=m):
            return 1.0 / cmath.sqrt(1.0 - m * math.sin(x) ** 2)

        re, _ = scipy.integrate.quad(lambda x: integrand(x).real, 0.0, math.pi / 2.0)
        im, _ = scipy.integrate.quad(lambda x: integrand(x).imag, 0.0, math.pi / 2.0)
        ref = complex(re, im)
        assert abs(elliptic_K(m) - ref) <= 1e-9 * abs(ref)


def test_elliptic_k_branch_cut_raises():
    for m in (1.0, 1.5, 7.0):
        with pytest.raises(BranchCutError):
            elliptic_K(m)


def test_theta_matches_direct_series():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sigma = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0))
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        for char in ((0, 0), (0, 1), (1, 0), (1, 1)):
            ref = brute_theta(*char, z, sigma)
            got = theta(char, z, sigma)
            scale = max(abs(ref), 1e-3)
            assert abs(got - ref) <= 1e-12 * scale


def test_theta_quasi_periodicity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sigma = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5))
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for a in (0, 1):
            for b in (0, 1):
                base = theta((a, b), z, sigma)
                shift1 = theta((a, b), z + 1.0, sigma)
                assert abs(shift1 - cmath.exp(1j * math.pi * a) * base) <= 1e-12 * abs(base)
                shifts = theta((a, b), z + sigma, sigma)
                factor = cmath.exp(-1j * math.pi * (sigma + 2.0 * z)) * cmath.exp(-1j * math.pi * b)
                assert abs(shifts - factor * base) <= 1e-11 * abs(factor * base)


def test_theta_accepts_arrays():
    z = np.array([0.1 + 0.2j, -0.4 + 0.1j, 1.7 - 0.3j])
    vals = theta((0, 1), z, 0.2 + 0.9j)
    assert vals.shape == z.shape
    for zi, vi in zip(z, vals):
        assert abs(vi - theta((0, 1), complex(zi), 0.2 + 0.9j)) <= 1e-13 * abs(vi)


@pytest.mark.parametrize("t", [1e-3 * (1 + 1j), 0.999 - 0.01j, 30.0 - 20.0j])
def test_theta_grid_matches_pointwise_theta(t):
    # the one-product grid evaluator against the pointwise series, on an
    # odd x even cell-centred grid, for sigma toward each cusp of t
    sigma = sigma_from_t(t).sigma
    p = (np.arange(33) + 0.5) / 33
    q = (np.arange(64) + 0.5) / 64
    z = p[:, None] + sigma * q[None, :]
    for char in ((0, 0), (0, 1), (1, 0), (1, 1)):
        grid = specialfn._theta_grid(char, p, q, sigma)
        ref = theta(char, z, sigma)
        assert np.max(np.abs(grid - ref) / np.abs(ref)) <= 1e-13, char


def test_theta_null_product_is_eta_cubed():
    # theta[0,0] theta[0,1] theta[1,0] (0) = 2 eta^3
    rng = np.random.default_rng(10)
    for _ in range(10):
        sigma = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 2.0))
        lhs = theta((0, 0), 0.0, sigma) * theta((0, 1), 0.0, sigma) * theta((1, 0), 0.0, sigma)
        rhs = 2.0 * dedekind_eta(sigma) ** 3
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_jacobi_quartic_identity():
    # theta[0,0]^4 = theta[1,0]^4 + theta[0,1]^4 at z = 0
    rng = np.random.default_rng(11)
    for _ in range(20):
        sigma = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.5))
        t3 = theta((0, 0), 0.0, sigma) ** 4
        t2 = theta((1, 0), 0.0, sigma) ** 4
        t4 = theta((0, 1), 0.0, sigma) ** 4
        assert abs(t3 - t2 - t4) <= 1e-12 * abs(t3)


def test_eta_against_raw_product():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sigma = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        q = cmath.exp(2j * math.pi * sigma)
        prod = 1.0 + 0j
        for n in range(1, 300):
            prod *= 1.0 - q ** n
        ref = cmath.exp(1j * math.pi * sigma / 12.0) * prod
        assert abs(dedekind_eta(sigma) - ref) <= 1e-13 * abs(ref)


def test_eta_modularity():
    rng = np.random.default_rng(13)
    for _ in range(15):
        sigma = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 1.5))
        lhs = dedekind_eta(sigma + 1.0)
        rhs = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(sigma)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        lhs = dedekind_eta(-1.0 / sigma)
        rhs = cmath.sqrt(-1j * sigma) * dedekind_eta(sigma)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_eta_small_imaginary_part():
    # the walk keeps accuracy where the raw q-product would need 10^5 terms
    sigma = 0.3 + 0.01j
    lhs = dedekind_eta(sigma)
    rhs = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(sigma - 1.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    rhs_s = dedekind_eta(-1.0 / sigma) / cmath.sqrt(-1j * sigma)
    assert abs(lhs - rhs_s) <= 1e-12 * abs(lhs)


def test_eta_where_q_underflows():
    # q = exp(2 pi i sigma) rounds to 0 at the reduced point; eta = q^(1/24)
    ref = math.exp(-200.0 * math.pi / 12.0)
    assert abs(dedekind_eta(200j) - ref) <= 1e-15 * ref
    # next to the cusp 1/2 the walk ends at Im sigma near 250
    sigma = 0.5 + 0.001j
    val = dedekind_eta(sigma)
    with mpmath.workdps(40):
        s = mpmath.mpc(sigma.real, sigma.imag)
        q = mpmath.exp(2j * mpmath.pi * s)
        ref = complex(mpmath.exp(1j * mpmath.pi * s / 12) * mpmath.qp(q))
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_agm_stops_at_its_fixed_point(monkeypatch):
    # the exit test |a - b| <= 1e-17 |a| is below double precision; a pair
    # that rounding keeps one ulp apart must end the loop, not run to the cap
    calls = []

    def counting_sqrt(x):
        calls.append(x)
        return cmath.sqrt(x)

    monkeypatch.setattr(specialfn, "cmath", types.SimpleNamespace(sqrt=counting_sqrt))
    rng = np.random.default_rng(15)
    per_call = []
    for _ in range(100):
        t = complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))
        for m in (t, 1.0 - t):
            calls.clear()
            specialfn._complete_K(m)
            per_call.append(len(calls))
    assert max(per_call) <= 25
    assert sum(per_call) <= 10 * len(per_call)


def test_reduce_to_fundamental_domain():
    rng = np.random.default_rng(14)
    for _ in range(50):
        sigma = complex(rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-2.0, 1.0))
        out = reduce_to_fundamental_domain(sigma)
        red, (a, b, c, d) = out.reduced
        assert a * d - b * c == 1
        assert abs(red.real) <= 0.5 + 1e-9
        assert abs(red) >= 1.0 - 1e-9
        mapped = (a * sigma + b) / (c * sigma + d)
        assert abs(mapped - red) <= 1e-9 * max(1.0, abs(red))


def test_reduce_is_identity_on_reduced_points():
    for sigma in (1j, 0.25 + 1.1j, -0.5 + 2.0j):
        red, mat = reduce_to_fundamental_domain(sigma).reduced
        assert mat == (1, 0, 0, 1)
        assert red == sigma


def test_domain_guards():
    with pytest.raises(DomainError):
        as_sigma(0.5 - 0.1j)
    with pytest.raises(DomainError):
        as_sigma(complex("nan") + 1j)
    with pytest.raises(DomainError):
        theta((0, 0), float("nan"), 1j)
    with pytest.raises(DomainError):
        theta((2, 0), 0.0, 1j)
    with pytest.raises(DomainError):
        PeriodRatio(sigma=1.0 - 1j)


def test_period_ratio_validates_reduction():
    with pytest.raises(DomainError):
        PeriodRatio(sigma=1j, reduced=(1j, (1, 1, 1, 1)))
    with pytest.raises(DomainError):
        PeriodRatio(sigma=1j, reduced=(0.2 + 0.5j, (1, 0, 0, 1)))
