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
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conetorus import (
    b_minus_inf_from_AB,
    det_value,
    flat_det,
    g_orbit,
    sigma_from_t,
    t_from_sigma,
)

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
    with mpmath.workdps(DPS):
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

