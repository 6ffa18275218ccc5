"""Determinant formula, tau route, and the variational cross-check.

Frozen anchors:

    F(1/2) = F(2) = F(-1) = 2^(-1/3) = 0.7937005259840998
    b(-oo)(t=4) = 5/48                 (exact rational from the Taylor data)
    s_from_t(-0.28 + 0.96 i) = (1+i)/2 (since w((1+i)/2) = ((1+i/2)/(1-i/2))^2)

Regression baselines (deterministic, no closed form):

    det_value(0.3).log_value  = -1.3169898899502732
    det_value(2.0).log_value  = -1.2857373411823205
    det_prelim(0.3).log_value = -1.3169898899502737
"""

import cmath
import math

import numpy as np
import pytest

from conetorus import (
    F,
    b_minus_inf_closed,
    b_minus_inf_from_AB,
    conformal_map,
    det_prelim,
    det_value,
    flat_det,
    g_orbit,
    s_from_t,
    schiffer_b0,
    sigma_from_t,
    tau_bergman,
    taylor_AB,
)
from conetorus.detformula import TAU_BASE_POINT, DetValue
from conetorus.errors import DomainError
from conetorus.numdiff import log_aligned, wirtinger

F_SQUARE_TORUS = 0.7937005259840998
DET_03 = -1.3169898899502732
DET_20 = -1.2857373411823205
DET_PRELIM_03 = -1.3169898899502737


def upper_t(rng, n, im_lo=0.15, im_hi=1.2):
    out = []
    while len(out) < n:
        t = complex(rng.uniform(-2.0, 3.0), rng.uniform(im_lo, im_hi))
        if abs(t) > 0.2 and abs(t - 1.0) > 0.2:
            out.append(t)
    return out


def test_f_symmetric_point_literal():
    for t in (0.5, 2.0, -1.0):
        val = F(t)
        assert abs(val - 2.0 ** (-1.0 / 3.0)) <= 1e-15
        assert abs(val - F_SQUARE_TORUS) <= 1e-15


def test_f_group_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = complex(rng.uniform(-6.0, 7.0), rng.uniform(-6.0, 6.0))
        if abs(t) < 0.05 or abs(t - 1.0) < 0.05:
            continue
        base = F(t)
        assert abs(F(1.0 / t) - base) <= 1e-12 * base
        assert abs(F(1.0 - t) - base) <= 1e-12 * base


def test_det_regression_baselines():
    assert abs(det_value(0.3).log_value - DET_03) <= 1e-12
    assert abs(det_value(2.0).log_value - DET_20) <= 1e-12
    assert abs(det_prelim(0.3).log_value - DET_PRELIM_03) <= 1e-12
    # 0.3 and 0.7 are the same orbit, hence the same determinant
    assert abs(det_value(0.7).log_value - DET_03) <= 1e-12


def test_flat_det_gamma_oracle():
    # |eta(i)|^4 = Gamma(1/4)^4 / (16 pi^3)
    target = math.log(math.gamma(0.25) ** 4 / (16.0 * math.pi ** 3))
    assert abs(flat_det(1j).log_value - target) <= 1e-13


def test_flat_det_modular_invariance():
    rng = np.random.default_rng(32)
    for _ in range(10):
        s = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0))
        base = flat_det(s).log_value
        for a, b, c, d in ((1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1)):
            img = (a * s + b) / (c * s + d)
            assert abs(flat_det(img).log_value - base) <= 1e-11


def test_det_orbit_invariance():
    rng = np.random.default_rng(33)
    for t in upper_t(rng, 20):
        base = det_value(t).log_value
        for m in g_orbit(t).members:
            assert abs(det_value(m).log_value - base) <= 1e-9


def test_det_value_composition():
    rng = np.random.default_rng(34)
    for t in upper_t(rng, 10):
        expect = flat_det(sigma_from_t(t)).log_value + math.log(F(t))
        assert abs(det_value(t).log_value - expect) <= 1e-13


def test_s_from_t_literal_and_residual():
    s = s_from_t(-0.28 + 0.96j)
    assert abs(s - (0.5 + 0.5j)) <= 1e-12
    rng = np.random.default_rng(35)
    for t in upper_t(rng, 25):
        s = s_from_t(t)
        assert abs(s) <= 1.0 + 1e-9
        assert s.real >= -1e-9 and s.imag >= -1e-9
        assert abs(conformal_map(s) - t) <= 1e-12 * max(1.0, abs(t))


def test_s_from_t_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        s_from_t(0.3 - 0.4j)


def test_b_minus_inf_rational_literal():
    # at t = 4 the preimage and Taylor data are algebraic and b(-oo) = 5/48
    val = b_minus_inf_from_AB(4.0)
    assert abs(val - 5.0 / 48.0) <= 1e-12
    assert abs(b_minus_inf_closed(4.0) - 5.0 / 48.0) <= 1e-15


def test_b_minus_inf_dual_routes_agree():
    rng = np.random.default_rng(36)
    for t in upper_t(rng, 30):
        a_route = b_minus_inf_from_AB(t)
        c_route = b_minus_inf_closed(t)
        assert abs(a_route - c_route) <= 1e-8


def small_t_b_dual_gap(b_closed):
    """Largest gap between b_closed and the Taylor route at |t| in 1e-4..1e-2."""
    gaps = []
    for r in (1e-4, 1e-3, 1e-2):
        for angle in np.linspace(0.1, math.pi - 0.1, 7):
            t = r * cmath.exp(1j * angle)
            gaps.append(abs(b_closed(t) - b_minus_inf_from_AB(t)))
    return max(gaps)


def test_b_minus_inf_dual_routes_agree_at_small_t():
    # a difference quotient with a fixed step cannot resolve the 1/t pole here
    assert small_t_b_dual_gap(b_minus_inf_closed) <= 1e-8


def test_small_t_b_dual_rejects_dropped_density_term():
    def without_density_term(t):
        return 0.125 * (1.0 / t + 1.0 / (t - 1.0))

    assert small_t_b_dual_gap(without_density_term) > 1e-2


def test_taylor_reversion_order():
    # u = A x + B x^3 + O(x^5): the log-log residual slope is close to 5;
    # radii start at 3e-3 to stay above the double-precision residual floor
    rng = np.random.default_rng(37)
    for t in upper_t(rng, 5):
        data = taylor_AB(t)
        theta_dir = rng.uniform(0.0, 2.0 * math.pi)
        sizes = np.geomspace(3e-3, 3e-2, 6)
        resid = []
        for r in sizes:
            u = r * cmath.exp(1j * theta_dir)
            w = conformal_map(data.s + u * u)
            x = cmath.sqrt(w - t)
            if abs(x - u / data.A) > abs(x + u / data.A):
                x = -x
            resid.append(abs(u - (data.A * x + data.B * x ** 3)))
        slope = np.polyfit(np.log(sizes), np.log(resid), 1)[0]
        assert slope >= 4.7


def test_variational_identity():
    rng = np.random.default_rng(38)
    for t in upper_t(rng, 5, im_lo=0.25):

        def log_det(z):
            return det_value(z).log_value

        lhs = wirtinger(log_det, t)
        rhs = 0.5 * (schiffer_b0(t) - b_minus_inf_closed(t))
        assert abs(lhs - rhs) <= 1e-6


def test_schiffer_b0_needs_imaginary_part():
    with pytest.raises(DomainError):
        schiffer_b0(0.3 + 1e-5j)


def test_prelim_route_consistency():
    rng = np.random.default_rng(39)
    diffs = [det_prelim(t) - det_value(t) for t in upper_t(rng, 30)]
    assert float(np.std(diffs)) < 1e-8
    # in this normalization the two routes agree on the nose
    assert abs(det_prelim(0.3 + 0.4j) - det_value(0.3 + 0.4j)) <= 1e-12


def near_branch_ray(a, offset, length=2.0):
    """t beyond a on the ray from the tau base point through a, pushed
    sideways by ``offset``; the straight path to t passes a closer still."""
    d = (a - TAU_BASE_POINT) / abs(a - TAU_BASE_POINT)
    return a + length * d + offset * 1j * d


def test_tau_monodromy_across_branch_rays():
    # from the right of the ray through a to its left, the straight path
    # from the base point swings across a: arg t(t-1) drops by 2 pi and tau
    # gains a primitive twelfth root of unity
    for a in (0.0, 1.0):
        ratio = tau_bergman(near_branch_ray(a, 1e-6)) / tau_bergman(near_branch_ray(a, -1e-6))
        assert abs(ratio - cmath.exp(-1j * math.pi / 6.0)) <= 1e-6


def test_variational_identity_next_to_branch_paths():
    def log_det(z):
        return det_value(z).log_value

    for a in (0.0, 1.0):
        for offset in (3e-5, 3e-6):
            t = near_branch_ray(a, offset)
            assert abs((det_prelim(t) - det_value(t))
                       - (det_prelim(0.3 + 0.4j) - det_value(0.3 + 0.4j))) <= 1e-12
            lhs = wirtinger(log_det, t)
            b_inf = b_minus_inf_closed(t)
            assert abs(lhs - 0.5 * (schiffer_b0(t) - b_inf)) <= 1e-6

            # the Wirtinger stencil straddles the path: continued from the
            # base point, its points pick up different twelfth roots of unity
            tau_ref = tau_bergman(t)

            def log_tau_straight(z):
                return log_aligned(tau_bergman(z), tau_ref)

            def log_im_sigma(z):
                return math.log(sigma_from_t(z).sigma.imag)

            b0_straight = 2.0 * wirtinger(log_tau_straight, t) + 2.0 * wirtinger(log_im_sigma, t)
            assert abs(lhs - 0.5 * (b0_straight - b_inf)) > 1.0


def test_det_domain_guards():
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            det_value(bad)
    with pytest.raises(DomainError):
        DetValue(log_value=float("nan"))
    # the tau continuation fails only on a path through 0 or 1: the straight
    # path from 1/4 + i/4 to -1/4 - i/4 runs through 0
    with pytest.raises(DomainError):
        tau_bergman(-0.25 - 0.25j)
    assert (DetValue(2.0) - DetValue(0.5)) == 1.5
