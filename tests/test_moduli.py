"""Branch-point and period-ratio charts on the moduli space.

Frozen anchors (t with extra symmetry):

    sigma(1/2) = i          the square torus, t = 1/2 fixed by t -> 1 - t
    sigma(2)   = (1+i)/2    same orbit {1/2, 2, -1}
    sigma(-1)  = 1 + i
    t(i)       = -1         the theta-quotient chart picks the member -1

Round trips t -> sigma -> t are contracted at orbit level only.
"""

import warnings

import mpmath
import numpy as np
import pytest

from conetorus import (
    g_orbit,
    moduli,
    reduce_to_fundamental_domain,
    same_moduli_point,
    sigma_from_t,
    t_from_sigma,
    unimodular_equivalent,
    validate_t,
)
from conetorus.errors import BranchConventionWarning, DomainError


def sample_t(rng, n):
    # annulus around the forbidden points, same box the acceptance suite uses
    out = []
    while len(out) < n:
        t = complex(rng.uniform(-6.0, 7.0), rng.uniform(-6.0, 6.0))
        if abs(t) > 0.05 and abs(t - 1.0) > 0.05:
            out.append(t)
    return out


def test_sigma_anchor_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchConventionWarning)
        assert abs(sigma_from_t(0.5).sigma - 1j) <= 1e-12
        assert abs(sigma_from_t(2.0).sigma - (0.5 + 0.5j)) <= 1e-12
        assert abs(sigma_from_t(-1.0).sigma - (1.0 + 1.0j)) <= 1e-12


def test_t_from_sigma_anchor():
    t = t_from_sigma(1j)
    assert abs(t - (-1.0)) <= 1e-12
    assert same_moduli_point(0.5, t, tol=1e-12)


def mp_t_from_sigma(sigma):
    with mpmath.workdps(50):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(sigma.real, sigma.imag))
        return complex(-(mpmath.jtheta(2, 0, q) / mpmath.jtheta(4, 0, q)) ** 4)


def test_t_from_sigma_toward_the_real_axis():
    # theta at the reduced point, t carried back by the anharmonic map of the
    # reduction; a direct series loses every digit at the first point
    for sigma in (0.2 + 0.05j, -0.49 + 0.02j, 0.01j, 0.3 + 1e-3j, 0.001 + 0.0001j):
        ref = mp_t_from_sigma(sigma)
        assert abs(t_from_sigma(sigma) - ref) <= 1e-10 * abs(ref)


def test_t_from_sigma_in_every_reduction_class():
    # one sigma per class mod 2 of the reduction matrix, so that every entry
    # of the table that picks t(sigma) among the orbit members is used
    classes = set()
    for sigma in (-0.6 + 0.1j, 0.3 + 0.3j, -0.7 + 0.15j, -0.7 + 0.3j, -0.55 + 0.1j, 0.1 + 0.3j):
        classes.add(tuple(x % 2 for x in reduce_to_fundamental_domain(sigma).reduced[1]))
        ref = mp_t_from_sigma(sigma)
        assert abs(t_from_sigma(sigma) - ref) <= 1e-10 * abs(ref)
    assert classes == set(moduli._ORBIT_INDEX)


def test_t_from_sigma_out_of_range():
    # t(1e-5 i) = 1/t(1e5 i) overflows, t(1000 i) underflows to 0, and the
    # third sigma reduces to Im 19.9, where its t = 1 - t_red rounds to
    # 1+2.6e-28i and keeps none of t_red's real part
    for sigma in (1e-5j, 1000j, 1.0098006657784124 + 0.0019866933079506124j):
        with pytest.raises(DomainError, match="not representable"):
            t_from_sigma(sigma)


def test_t_from_sigma_next_to_zero():
    # t(100 i) ~ -16 exp(-100 pi) is representable although 1 - t and
    # 1 / (1 - t) round to exactly 1; t_from_sigma returns it unchanged,
    # while g_orbit refuses the orbit
    t = t_from_sigma(100j)
    ref = mp_t_from_sigma(100j)
    assert t == -5.8409649271928684e-136
    assert abs(t - ref) <= 1e-13 * abs(ref)
    with pytest.raises(DomainError, match=r"orbit of t = .*, 1-t is \(1\+0j\)"):
        g_orbit(t)


def test_sigma_from_t_next_to_zero():
    # the AGM of K(1-t) starts from sqrt(t), not from sqrt(1 - (1-t)) = 0
    for t in (1e-18, 1e-30, 1e-18j):
        with mpmath.workdps(50):
            tm = mpmath.mpmathify(t)
            ref = complex(1j * mpmath.ellipk(1 - tm) / mpmath.ellipk(tm))
        assert abs(sigma_from_t(t).sigma - ref) <= 1e-14 * abs(ref)


def test_orbit_members_and_closure():
    rng = np.random.default_rng(21)
    for t in sample_t(rng, 30):
        orb = g_orbit(t)
        assert len(orb.members) == 6
        mem = set()
        for m in orb.members:
            mem.add(m)
            # closure under both generators
            assert same_moduli_point(t, 1.0 / m, tol=1e-9)
            assert same_moduli_point(t, 1.0 - m, tol=1e-9)
        assert orb.canonical in mem


def test_canonical_is_orbit_invariant():
    rng = np.random.default_rng(22)
    for t in sample_t(rng, 20):
        base = g_orbit(t).canonical
        for m in g_orbit(t).members:
            again = g_orbit(m).canonical
            assert abs(again - base) <= 1e-9 * max(1.0, abs(base))


def test_roundtrip_lands_in_orbit():
    rng = np.random.default_rng(23)
    for t in sample_t(rng, 50):
        sig = sigma_from_t(t)
        back = t_from_sigma(sig)
        assert same_moduli_point(t, back, tol=1e-9)


def test_sigma_in_upper_half_plane():
    rng = np.random.default_rng(24)
    for t in sample_t(rng, 50):
        assert sigma_from_t(t).sigma.imag > 0.0


def test_orbit_members_share_reduced_sigma():
    # sigma is a well-defined point of the modular curve on each orbit
    rng = np.random.default_rng(25)
    for t in sample_t(rng, 10):
        s0 = sigma_from_t(t).sigma
        for m in g_orbit(t).members:
            assert unimodular_equivalent(s0, sigma_from_t(m).sigma, tol=1e-9)


def test_unimodular_equivalent_detects_images():
    rng = np.random.default_rng(26)
    mats = [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 4, 1), (3, -2, 2, -1)]
    for _ in range(10):
        s = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0))
        for a, b, c, d in mats:
            assert a * d - b * c == 1
            img = (a * s + b) / (c * s + d)
            assert unimodular_equivalent(s, img)
        assert not unimodular_equivalent(s, s + 0.3j)


def test_real_cut_warns_and_matches_limit():
    with pytest.warns(BranchConventionWarning):
        s_cut = sigma_from_t(2.0).sigma
    s_lim = sigma_from_t(2.0 + 1e-9j).sigma
    assert abs(s_cut - s_lim) <= 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # inside (0, 1) there is no cut, so no warning
        sigma_from_t(0.5)


def test_validate_t_guards():
    for bad in (0.0, 1.0, complex("inf"), complex("nan")):
        with pytest.raises(DomainError):
            validate_t(bad)
    with pytest.raises(DomainError):
        g_orbit(1.0 + 0.0j)
    assert validate_t(0.5 + 0.0j) == 0.5 + 0.0j
