"""Determinant formula, tau route, and the variational cross-check.

Frozen anchors:

    F(1/2) = F(2) = F(-1) = 2^(-1/3) = 0.7937005259840998
    b(-oo)(t=4) = 5/48                 (exact in the quarter-disk chart:
                                        q = s^2 = 1/3, s w'(s) = 12, w''(s) = 162)

Regression baselines (deterministic, no closed form):

    det_value(0.3).log_value  = -1.3169898899502732
    det_value(2.0).log_value  = -1.2857373411823205
    det_prelim(0.3).log_value = -1.3169898899502737
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conetorus import (
    F,
    b_minus_inf_closed,
    b_minus_inf_from_AB,
    conformal_map,
    conformal_map_prime,
    det_prelim,
    det_value,
    detformula,
    flat_det,
    g_orbit,
    schiffer_b0,
    sigma_from_t,
    specialfn,
)
from conetorus.detformula import DetValue
from conetorus.errors import DomainError
from conetorus.numdiff import wirtinger

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


def test_flat_det_where_eta_to_the_fourth_goes_subnormal():
    # |eta|^4 = e^(-pi Im sigma / 3) is subnormal at 700i and 0 at 720i; eta
    # itself has lost digits at 2840i and is 0 at 3000i and, reduced, at 1e-4 i
    for sigma in (700j, 720j, 2840j, 3000j, 1e-4j):
        # flat_det is modular invariant: the reference is taken at -1/sigma
        y = max(sigma.imag, 1.0 / sigma.imag)
        with mpmath.workdps(30):
            s = mpmath.mpc(0, y)
            q = mpmath.exp(2j * mpmath.pi * s)
            ref = float(mpmath.log(y) - mpmath.pi * y / 3 + 4 * mpmath.log(abs(mpmath.qp(q))))
        assert abs(flat_det(sigma).log_value - ref) <= 1e-15 * abs(ref), sigma


def test_det_value_next_to_zero_against_mpmath():
    # K(1-t) starts its AGM from sqrt(t); sqrt(1 - (1-t)) would be 0 here
    for t in (1e-18, -1e-18, 1e-30, 1e-18j):
        with mpmath.workdps(50):
            tm = mpmath.mpc(t.real, t.imag) if isinstance(t, complex) else mpmath.mpf(t)
            s = 1j * mpmath.ellipk(1 - tm) / mpmath.ellipk(tm)
            q = mpmath.exp(2j * mpmath.pi * s)
            r = mpmath.sqrt(tm)
            log_f = (mpmath.log(abs(tm)) + mpmath.log(abs(tm - 1))) / 24 \
                - mpmath.log(abs(r - 1) + abs(r + 1)) / 4
            ref = float(mpmath.log(s.imag) - mpmath.pi * s.imag / 3
                        + 4 * mpmath.log(abs(mpmath.qp(q))) + log_f)
            sigma_ref = complex(s)
        assert abs(det_value(t).log_value - ref) <= 1e-13 * abs(ref)
        if t != -1e-18:
            # on the cut mpmath may take the other side; det does not care
            assert abs(sigma_from_t(t).sigma - sigma_ref) <= 1e-14 * abs(sigma_ref)


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


def test_b_minus_inf_rational_literal():
    # at t = 4 every quantity of the chart route is rational and b(-oo) = 5/48
    assert b_minus_inf_from_AB(4.0) == 5.0 / 48.0
    assert abs(b_minus_inf_closed(4.0) - 5.0 / 48.0) <= 1e-15


def b_dual_gap(b_chart):
    """Largest gap between a chart route and the closed form, verify's b_dual samples."""
    rng = np.random.default_rng(36)
    return max(abs(b_chart(t) - b_minus_inf_closed(t)) for t in upper_t(rng, 30))


def chart_q_and_p(t):
    """q = s^2 for a preimage s of t under the quarter-disk map, and P = s w'(s)."""
    s = cmath.sqrt((t - 1.0) / (cmath.sqrt(t) + 1.0) ** 2)
    return s * s, s * conformal_map_prime(s)


def test_b_minus_inf_dual_routes_agree():
    assert b_dual_gap(b_minus_inf_from_AB) <= 1e-8


def test_b_dual_rejects_dropped_model_term():
    def without_model_term(t):
        q, p = chart_q_and_p(t)
        return b_minus_inf_from_AB(t) - abs(q) / (2.0 * (1.0 + abs(q)) * p)

    assert b_dual_gap(without_model_term) > 1e-2


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
    # fit u = A x + B x^3 + ... from the chart itself, with x^2 = w - t and
    # u^2 = z - s: the fitted A, B reproduce the chart route's b(-oo), and the
    # log-log residual slope of the two-term truncation is close to 5; radii
    # start at 3e-3 to stay above the double-precision residual floor
    rng = np.random.default_rng(37)
    for t in upper_t(rng, 5) + [z.conjugate() for z in upper_t(rng, 3)]:
        q, _ = chart_q_and_p(t)
        s = cmath.sqrt(q)
        sizes = np.geomspace(3e-3, 3e-2, 6)
        us = sizes * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        xs = []
        for u in us:
            x = cmath.sqrt(conformal_map(s + u * u) - t)
            # one sign of x along the ray, so u / x stays on one branch
            if xs and abs(u / x - us[0] / xs[0]) > abs(u / x + us[0] / xs[0]):
                x = -x
            xs.append(x)
        xs = np.array(xs)
        fit = np.linalg.lstsq(np.vander(xs ** 2, 4, increasing=True), us / xs, rcond=None)[0]
        A, B = fit[0], fit[1]
        b_fit = A * A * s.conjugate() / (2.0 * (1.0 + abs(q))) - B / A
        assert abs(b_fit - b_minus_inf_from_AB(t)) <= 1e-6 * abs(b_minus_inf_from_AB(t))
        resid = np.abs(us - (A * xs + B * xs ** 3))
        slope = np.polyfit(np.log(sizes), np.log(resid), 1)[0]
        assert slope >= 4.7


def log_det(z):
    return det_value(z).log_value


def variational_residual(t):
    return abs(wirtinger(log_det, t) - 0.5 * (schiffer_b0(t) - b_minus_inf_closed(t)))


def test_variational_identity():
    rng = np.random.default_rng(38)
    for t in upper_t(rng, 5, im_lo=0.25):
        assert variational_residual(t) <= 1e-6


def test_variational_identity_next_to_0_and_1():
    # the Wirtinger step scales with the distance to the nearer singular point
    for base in (0.0, 1.0):
        for r in (1e-4, 1e-3, 1e-2):
            for k in range(7):
                t = base + r * cmath.exp(1j * (0.1 + 2.0 * math.pi * k / 7.0))
                assert variational_residual(t) <= 1e-6


def test_variational_identity_on_the_real_axis():
    # b(0) exists on the real axis; on the cuts both sides take the limit from above
    for t in (0.3, 2.0, -3.0, 40.0):
        assert variational_residual(t) <= 1e-6


def test_variational_identity_rejects_eta_mutants(monkeypatch):
    # b(0) no longer touches eta, so a wrong eta in det_value must show
    eta = detformula.dedekind_eta
    rng = np.random.default_rng(40)
    points = upper_t(rng, 5, im_lo=0.25)
    for mutant in (lambda s: eta(s) * cmath.exp(0.3 * s), lambda s: eta(s) ** 2):
        monkeypatch.setattr(detformula, "dedekind_eta", mutant)
        assert max(variational_residual(t) for t in points) > 1e-2


def mp_b0(t):
    """b(0) at 50 digits: 2 d/dt (2 log eta(sigma) + log Im sigma) + (1/t + 1/(t-1)) / 6.

    Since eta o sigma is holomorphic, d/dt of 2 log eta equals d/dt of the
    real 4 log |eta|, so the differenced function is the flat log det,
    which is modular invariant and is evaluated at the reduced point.
    """

    def log_flat_det(z):
        s = 1j * mpmath.ellipk(1 - z) / mpmath.ellipk(z)
        while True:
            s -= mpmath.nint(s.real)
            if abs(s) >= 1:
                break
            s = -1 / s
        q = mpmath.exp(2j * mpmath.pi * s)
        return mpmath.log(s.imag) - mpmath.pi * s.imag / 3 + 4 * mpmath.log(abs(mpmath.qp(q)))

    with mpmath.workdps(50):
        x, y = mpmath.mpf(t.real), mpmath.mpf(t.imag)
        dx = mpmath.diff(lambda u: log_flat_det(mpmath.mpc(u, y)), x)
        dy = mpmath.diff(lambda v: log_flat_det(mpmath.mpc(x, v)), y)
        tm = mpmath.mpc(x, y)
        return complex((dx - 1j * dy) + (1 / tm + 1 / (tm - 1)) / 6)


def test_schiffer_b0_mpmath_oracle():
    for t in (1e-3 * cmath.exp(0.7j), 1.0 + 1e-3 * cmath.exp(2.0j), 0.3 + 0.4j,
              -0.5 - 0.8j, 50.0 - 30.0j, 1.7 + 0.3j):
        ref = mp_b0(t)
        assert abs(schiffer_b0(t) - ref) <= 1e-13 * abs(ref)


def orbit_fixed_point_gap(b0):
    """Largest |b(0) - b(-oo)| where d/dt log det vanishes by symmetry.

    1/2, 2 and -1 are fixed by an involution of the order-6 group with
    derivative -1 there, e^(i pi/3) by the rotation t -> 1/(1-t).
    """
    return max(abs(b0(t) - b_minus_inf_closed(t))
               for t in (0.5, 2.0, -1.0, cmath.exp(1j * math.pi / 3.0)))


def test_b0_equals_b_minus_inf_at_orbit_fixed_points():
    assert orbit_fixed_point_gap(schiffer_b0) <= 1e-14


def test_orbit_fixed_points_reject_dropped_im_sigma_term():
    def without_im_sigma_term(t):
        k, e = specialfn._complete_KE(complex(t))
        return (e / k - 0.5) / (t * (1.0 - t))

    assert orbit_fixed_point_gap(without_im_sigma_term) > 1e-2


def test_b0_continuous_across_real_cuts():
    # sigma jumps by a modular transformation there, b(0) does not
    for x in (-3.0, 2.0, 40.0):
        above, below = x + 1e-9j, x - 1e-9j
        assert abs(sigma_from_t(above).sigma - sigma_from_t(below).sigma) > 0.1
        assert abs(schiffer_b0(above) - schiffer_b0(below)) <= 1e-8


def test_prelim_route_consistency():
    rng = np.random.default_rng(39)
    diffs = [det_prelim(t) - det_value(t) for t in upper_t(rng, 30)]
    assert float(np.std(diffs)) < 1e-8
    # in this normalization the two routes agree on the nose
    assert abs(det_prelim(0.3 + 0.4j) - det_value(0.3 + 0.4j)) <= 1e-12


def near_branch_ray(a, offset, length=2.0):
    """t beyond a on the ray from 1/4 + i/4 through a, pushed sideways by
    ``offset``; the segment from 1/4 + i/4 to t passes a closer still."""
    base = 0.25 + 0.25j
    d = (a - base) / abs(a - base)
    return a + length * d + offset * 1j * d


def test_variational_identity_next_to_branch_paths():
    for a in (0.0, 1.0):
        for offset in (3e-5, 3e-6):
            t = near_branch_ray(a, offset)
            assert abs((det_prelim(t) - det_value(t))
                       - (det_prelim(0.3 + 0.4j) - det_value(0.3 + 0.4j))) <= 1e-12
            assert variational_residual(t) <= 1e-6


def test_det_domain_guards():
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            det_value(bad)
    with pytest.raises(DomainError):
        DetValue(log_value=float("nan"))
    assert (DetValue(2.0) - DetValue(0.5)) == 1.5
