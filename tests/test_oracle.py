"""The scalar layers against a 50-digit mpmath oracle over the whole domain.

t is drawn log-uniformly in |t| or in |t-1|, from 1e-12 to 1e12, at any
angle: toward the cusps 0, 1 and oo and far from them.  Each oracle is the
formula itself evaluated at 50 digits,

    sigma(t)  = i K(1-t) / K(t)
    eta       = e^(i pi sigma / 12) prod (1 - q^n),  q = e^(2 pi i sigma)
    log det   = log Im sigma + 4 log |eta| + log F(t)
    b(-oo)    = (1/8) [1/t + 1/(t-1) + (|t|/t + |t-1|/(t-1)) / (1 + |t| + |t-1|)]

and every comparison is held to 1e-13 relative: log det relative to
max(1, |log det|), and b(-oo) next to its zero at t = 1/2 as b_error says.

The special functions themselves are drawn the same way: K(m) with m like t,
and theta, eta and t(sigma) with sigma toward every cusp, that is toward
rationals p/q of each parity class mod 2, away from the real axis, and
toward i oo.  Next to a cusp the direct theta series cancels and eta is
ill-conditioned in sigma, so there the 1e-13 is relative to the size of
what rounding cannot avoid, as theta_error, eta_error and round_trip_scale
say.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conetorus import (
    b_minus_inf_from_AB,
    dedekind_eta,
    det_value,
    elliptic_K,
    flat_det,
    g_orbit,
    moduli,
    reduce_to_fundamental_domain,
    sigma_from_t,
    specialfn,
    t_from_sigma,
    theta,
)
from conetorus.errors import DomainError
from conetorus.moduli import unimodular_equivalent

DPS = 50
BOUND = 1e-13

centers = st.sampled_from([0.0, 1.0])
log_radii = st.floats(min_value=-12.0, max_value=12.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def polar_t(center, log_r, angle):
    r = 10.0 ** log_r
    return complex(center + r * math.cos(angle), r * math.sin(angle))


def in_range(t):
    # |t| = 1 at a small angle lands next to 1, so both distances are bounded
    return min(abs(t), abs(t - 1.0)) >= 1e-12


def any_t():
    on_axis = st.builds(lambda c, log_r, sign: complex(c + sign * 10.0 ** log_r, 0.0),
                        centers, log_radii, st.sampled_from([-1.0, 1.0]))
    return st.one_of(st.builds(polar_t, centers, log_radii, angles), on_axis).filter(in_range)


def off_axis_t():
    return st.builds(polar_t, centers, log_radii, angles).filter(
        lambda t: t.imag != 0.0 and in_range(t))


def mp_b_minus_inf(t):
    with mpmath.workdps(DPS):
        tm = mpmath.mpc(t.real, t.imag)
        at, at1 = abs(tm), abs(tm - 1)
        return complex((1 / tm + 1 / (tm - 1) + (at / tm + at1 / (tm - 1)) / (1 + at + at1)) / 8)


def mp_sigma(t):
    # with the digits that 1 - t needs to keep a tiny t
    with mpmath.workdps(DPS + max(0, math.ceil(-math.log10(abs(t))))):
        tm = mpmath.mpc(t.real, t.imag)
        return complex(1j * mpmath.ellipk(1 - tm) / mpmath.ellipk(tm))


def mp_log_det(t):
    with mpmath.workdps(DPS):
        tm = mpmath.mpc(t.real, t.imag)
        sigma = 1j * mpmath.ellipk(1 - tm) / mpmath.ellipk(tm)
        eta = mpmath.exp(1j * mpmath.pi * sigma / 12) * mpmath.qp(mpmath.exp(2j * mpmath.pi * sigma))
        r = mpmath.sqrt(tm)
        log_f = (mpmath.log(abs(tm)) + mpmath.log(abs(tm - 1))) / 24 \
            - mpmath.log(abs(r - 1) + abs(r + 1)) / 4
        return float(mpmath.log(sigma.imag) + 4 * mpmath.log(abs(eta)) + log_f)


def b_error(b_route, t):
    """Error of a b(-oo) route relative to |b|.

    Next to t = 1/2, the only zero of b(-oo), the two terms of either route
    cancel; there the error is taken relative to 1e-3 (1/|t| + 1/|t-1|),
    the size of |b| at |t - 1/2| = 1e-3.
    """
    ref = mp_b_minus_inf(t)
    scale = max(abs(ref), 1e-3 * (1.0 / abs(t) + 1.0 / abs(t - 1.0)))
    return abs(b_route(t) - ref) / scale


def log_det_error(log_det, t):
    ref = mp_log_det(t)
    return abs(log_det(t) - ref) / max(1.0, abs(ref))


@settings(max_examples=300, deadline=None)
@given(any_t())
@example(0.5 + 0.0j)
@example(4.0 + 0.0j)
@example(-0.25 - 1e-300j)
def test_b_minus_inf_from_AB_matches_oracle(t):
    assert b_error(b_minus_inf_from_AB, t) <= BOUND


@pytest.mark.parametrize("t", [
    91822196.79706396 + 16062476.092084829j,  # w(s) evaluated next to its pole
    0.3 - 0.4j,  # lower half plane, outside the quarter disk's image
    1.0 + 1e-9j,  # sqrt(t) - 1 cancels
])
def test_b_minus_inf_from_AB_where_the_preimage_search_failed(t):
    assert abs(b_minus_inf_from_AB(t) - mp_b_minus_inf(t)) <= BOUND * abs(mp_b_minus_inf(t))


@settings(max_examples=200, deadline=None)
@given(off_axis_t())
def test_sigma_from_t_matches_oracle(t):
    ref = mp_sigma(t)
    assert abs(sigma_from_t(t).sigma - ref) <= BOUND * abs(ref)


@settings(max_examples=200, deadline=None)
@given(off_axis_t())
def test_det_value_matches_oracle(t):
    assert log_det_error(lambda z: det_value(z).log_value, t) <= BOUND


def test_det_value_oracle_rejects_missing_F():
    def flat_part_only(t):
        return flat_det(sigma_from_t(t)).log_value

    for t in (0.3 + 0.4j, 1e-6 - 2e-6j, 1.0 + 1e-9j, -3e8 + 1e9j):
        assert log_det_error(flat_part_only, t) > 1e-3


@settings(max_examples=200, deadline=None)
@given(off_axis_t())
def test_roundtrip_lands_on_an_orbit_member(t):
    t_back = t_from_sigma(sigma_from_t(t))
    assert min(abs(t_back - m) / abs(m) for m in g_orbit(t).members) <= BOUND


# sigma toward the cusps: rationals of every class mod 2 ((1, 0), (0, 1) and
# (1, 1) for p/q), approached at angles away from the real axis, and i oo
cusps = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1.0 / 3.0, -2.0 / 3.0, 0.4])
cusp_log_radii = st.floats(min_value=-2.5, max_value=0.0)
cusp_angles = st.floats(min_value=0.2, max_value=math.pi - 0.2)


def any_sigma():
    toward_i_oo = st.builds(lambda x, log_y: complex(x, 10.0 ** log_y),
                            st.floats(min_value=-0.5, max_value=0.5),
                            st.floats(min_value=0.0, max_value=2.0))
    return st.one_of(st.builds(polar_t, cusps, cusp_log_radii, cusp_angles), toward_i_oo)


def mp_theta(char, z, sigma):
    """theta[a,b](z|sigma) as its series at 50 digits, and the sum of |terms|."""
    a, b = char
    y = sigma.imag
    # the terms peak at n + a/2 = -Im z / y and fall below 1e-50 of the peak
    # within sqrt(50 log 10 / (pi y)) of it
    center = -z.imag / y
    width = math.sqrt(DPS * math.log(10.0) / (math.pi * y)) + 2.0
    with mpmath.workdps(DPS):
        s, w = mpmath.mpc(sigma.real, sigma.imag), mpmath.mpc(z.real, z.imag) + mpmath.mpf(b) / 2
        value, scale = mpmath.mpc(0), mpmath.mpf(0)
        for n in range(math.floor(center - width), math.ceil(center + width) + 1):
            v = n + mpmath.mpf(a) / 2
            term = mpmath.expjpi(v * v * s + 2 * v * w)
            value += term
            scale += abs(term)
        return complex(value), float(scale)


def theta_error(char, z, sigma):
    """Error relative to the sum of |terms|, |theta| itself unless the terms cancel.

    Next to a cusp the series cancels (theta[0,1](0|iy) ~ 2 y^(-1/2) e^(-pi/4y));
    any summation in double precision is then off by a rounding of its terms.
    """
    ref, scale = mp_theta(char, z, sigma)
    return abs(theta(char, z, sigma) - ref) / scale


def theta_arguments():
    """z = 0, or z = x + sigma u within 1.5 periods, capped where |theta|,
    about e^(pi Im(sigma) u^2), would pass e^50.

    The cap keeps the rounding of the quasi-periodicity exponent (up to
    pi Im(sigma) u^2 in size) near 50 ulp.
    """
    def spread(sigma, x, u):
        return sigma, complex(x) + sigma * u * min(1.5, math.sqrt(50.0 / (math.pi * sigma.imag)))

    coords = st.floats(min_value=-1.5, max_value=1.5)
    return st.one_of(st.builds(lambda s: (s, 0j), any_sigma()),
                     st.builds(spread, any_sigma(), coords,
                               st.floats(min_value=-1.0, max_value=1.0)))


@settings(max_examples=60, deadline=None)
@given(theta_arguments())
@example((1j, 0j))
@example((0.5 + 0.003j, 0j))
@example((1.0 / 3.0 + 0.003j, 0.7 + 0.002j))
def test_theta_matches_oracle(args):
    sigma, z = args
    for char in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert theta_error(char, z, sigma) <= BOUND


def test_theta_oracle_rejects_a_shorter_series(monkeypatch):
    # cut at e^-20 of the largest term instead of e^-42 (dropping only the
    # last term or three is not visible: the cut leaves that much margin)
    monkeypatch.setattr(specialfn, "_TAIL_EXPONENT", 20.0)
    worst = max(theta_error(char, z, sigma) for char in ((0, 0), (0, 1), (1, 0), (1, 1))
                for sigma, z in ((0.5 + 0.003j, 0j), (1.0 / 3.0 + 0.003j, 0.7 + 0.002j)))
    assert worst > 10.0 * BOUND


def mp_eta(sigma):
    """eta(sigma) = sum_n (-1)^n e^(i pi sigma (6n+1)^2 / 12), Euler's pentagonal series.

    Its terms are at most 1 in size and |eta| stays above 1e-40 on the drawn
    sigma (Im of the reduced point is at most 10^2.5), so 60 digits beyond
    the 50 absorb the cancellation.
    """
    dps = DPS + 60
    n_max = math.ceil(math.sqrt(12.0 * dps * math.log(10.0) / (36.0 * math.pi * sigma.imag))) + 1
    with mpmath.workdps(dps):
        s = mpmath.mpc(sigma.real, sigma.imag)
        return complex(mpmath.fsum((-1) ** n * mpmath.expjpi(s * (6 * n + 1) ** 2 / 12)
                                   for n in range(-n_max, n_max + 1)))


def eta_error(sigma):
    """Error relative to |eta| times its condition number in sigma, if above 1.

    eta is e^(i pi r / 12) up to a bounded factor at the reduced point r, and
    the reduction scales a change of sigma by Im(r) / Im(sigma); so a relative
    rounding u of sigma moves eta by about (pi / 12) |sigma| Im(r) / Im(sigma) u.
    """
    ref = mp_eta(sigma)
    red = reduce_to_fundamental_domain(sigma).reduced[0]
    kappa = max(1.0, math.pi / 12.0 * abs(sigma) * red.imag / sigma.imag)
    return abs(dedekind_eta(sigma) - ref) / (abs(ref) * kappa)


@settings(max_examples=60, deadline=None)
@given(any_sigma())
@example(1j)
@example(0.5 + 0.003j)
@example(complex(0.5, 100.0))
def test_dedekind_eta_matches_oracle(sigma):
    assert eta_error(sigma) <= BOUND


def test_eta_oracle_rejects_a_walk_without_its_multiplier(monkeypatch):
    walk = specialfn._walk_to_fundamental_domain
    monkeypatch.setattr(specialfn, "_walk_to_fundamental_domain",
                        lambda sigma, tol: (*walk(sigma, tol)[:2], 1.0 + 0j))
    sigmas = (0.5 + 0.003j, 0.03j, -2.0 / 3.0 + 0.01j)
    assert min(eta_error(sigma) for sigma in sigmas) > 1e3 * BOUND


def mp_K(m):
    with mpmath.workdps(DPS):
        return complex(mpmath.ellipk(mpmath.mpc(m.real, m.imag)))


@settings(max_examples=300, deadline=None)
@given(any_t().filter(lambda m: m.imag != 0.0 or m.real < 1.0))
@example(1e-12 + 0j)
@example(1.0 - 1e-12 + 0j)
@example(-1e12 + 0j)
def test_elliptic_K_matches_oracle(m):
    ref = mp_K(m)
    assert abs(elliptic_K(m) - ref) <= BOUND * abs(ref)


def round_trip_scale(sigma):
    """How far a relative rounding of sigma or of t(sigma) moves the reduced point.

    A relative change u of t moves sigma by |t dsigma/dt| u = u / (pi |theta[0,0](0|sigma)|^4)
    (t = lambda / (lambda - 1) for the modular lambda, and dlambda/dsigma =
    i pi lambda theta[0,1]^4); the reduction scales both that and the rounding
    |sigma| u of sigma by Im(r) / Im(sigma).  Next to the cusps where t -> 1
    it grows without bound: a double t near 1 does not hold 1 - t.
    """
    red = reduce_to_fundamental_domain(sigma).reduced[0]
    theta00 = mp_theta((0, 0), 0j, sigma)[0]
    return red.imag / sigma.imag * (abs(sigma) + 1.0 / (math.pi * abs(theta00) ** 4))


def t_round_trip_lands(sigma):
    try:
        t = t_from_sigma(sigma)
    except DomainError:
        # only deep in a cusp, where t, 1 - t or 1 / t leaves the double range
        return reduce_to_fundamental_domain(sigma).reduced[0].imag > 12.0
    return unimodular_equivalent(mp_sigma(t), sigma,
                                 tol=BOUND * round_trip_scale(sigma))


@settings(max_examples=100, deadline=None)
@given(any_sigma())
@example(1j)
@example(0.5 + 0.003j)
@example(1.0 + 0.1j)
def test_t_from_sigma_lands_on_an_equivalent_sigma(sigma):
    assert t_round_trip_lands(sigma)


def test_sigma_round_trip_rejects_theta00_for_theta01(monkeypatch):
    # t = -(theta[1,0] / theta[0,0])^4 = -lambda is not in the orbit of t
    def swapped(char, z, sigma):
        return specialfn.theta((0, 0) if tuple(char) == (0, 1) else char, z, sigma)

    monkeypatch.setattr(moduli, "theta", swapped)
    # at reduced points of moderate height, where theta[0,0] and theta[0,1] differ
    assert not any(t_round_trip_lands(sigma)
                   for sigma in (0.3 + 1.1j, 0.5 + 0.3j, 1.0 / 3.0 + 0.1j, 1.0 + 0.5j))
