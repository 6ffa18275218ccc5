"""Coordinates on the moduli space of the once-branched torus.

A surface in the family is pinned down either by the branch point
t in C minus {0, 1} of its degree-two covering over the sphere, or by the
period ratio sigma of the covering torus.  The two charts are related by

    sigma(t) = i K(1-t) / K(t),
    t(sigma) = -(theta[1,0](0|sigma) / theta[0,1](0|sigma))^4,

and t is only defined up to the order-6 group generated by
t -> 1/t and t -> 1 - t, so round trips are contracted at the level of
group orbits, not pointwise.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import BranchConventionWarning, DomainError, NormalizationError
from .specialfn import (PeriodRatio, _agm, _complete_K, as_sigma,
                        reduce_to_fundamental_domain, theta)

__all__ = [
    "GOrbit",
    "sigma_from_t",
    "t_from_sigma",
    "g_orbit",
    "same_moduli_point",
    "unimodular_equivalent",
    "validate_t",
]


def validate_t(t) -> complex:
    """Check that t is a finite complex number away from 0 and 1."""
    tc = complex(t)
    if not (math.isfinite(tc.real) and math.isfinite(tc.imag)):
        raise DomainError("branch point t must be finite")
    if tc == 0 or tc == 1:
        raise DomainError(f"branch point t must avoid 0 and 1, got {tc}")
    return tc


@dataclass(frozen=True)
class GOrbit:
    """Orbit of a branch point under the order-6 group.

    ``members`` lists, in a fixed order and with possible repetitions,
        t, 1/t, 1-t, 1/(1-t), t/(t-1), (t-1)/t.
    ``canonical`` is the member with the lexicographically smallest
    key (|t|, Re t, Im t), which makes it reproducible across the orbit.
    """

    members: tuple[complex, ...]
    canonical: complex

    def __post_init__(self) -> None:
        if len(self.members) != 6:
            raise DomainError("an orbit has exactly six listed members")
        if self.canonical not in self.members:
            raise NormalizationError("canonical member must be one of the six")


_MEMBER_NAMES = ("t", "1/t", "1-t", "1/(1-t)", "t/(t-1)", "(t-1)/t")


def _orbit_members(tc: complex) -> tuple[complex, ...]:
    """The six images of t in GOrbit order, unchecked."""
    return (tc, 1.0 / tc, 1.0 - tc, 1.0 / (1.0 - tc), tc / (tc - 1.0), (tc - 1.0) / tc)


def g_orbit(t) -> GOrbit:
    """All six images of t under the group generated by 1/t and 1-t.

    Raises DomainError when a member leaves the domain in double precision:
    1 - t rounds to 1 for |t| below the double spacing at 1, 1/t overflows
    for subnormal t, and 1/(1-t) underflows to 0 for |t| near the top of
    the double range.
    """
    tc = validate_t(t)
    members = _orbit_members(tc)
    for name, m in zip(_MEMBER_NAMES, members):
        if not (math.isfinite(m.real) and math.isfinite(m.imag)) or m == 0 or m == 1:
            raise DomainError(f"branch point t must avoid 0 and 1 over its whole moduli "
                              f"orbit, but in the orbit of t = {tc}, {name} is {m}")
    canonical = min(members, key=lambda m: (abs(m), m.real, m.imag))
    return GOrbit(members=members, canonical=canonical)


def same_moduli_point(t1, t2, tol: float = 1.0e-9) -> bool:
    """True when t2 lies within tol of some member of the orbit of t1."""
    return _orbit_distance(t1, t2) <= tol


def _orbit_distance(t1, t2) -> float:
    """Distance from t2 to the nearest member of the orbit of t1."""
    return min(abs(complex(t2) - m) for m in g_orbit(t1).members)


def sigma_from_t(t) -> PeriodRatio:
    """Period ratio of the covering torus, sigma = i K(1-t) / K(t).

    K is the complete elliptic integral as a function of k^2.  For t on the
    real cuts (-oo, 0) and (1, oo) the limit from the upper half plane is
    taken (a BranchConventionWarning is emitted); this is realized through
    IEEE signed zeros, so no finite nudge of t is involved.  Off the real
    axis, for |t| and |t-1| from 1e-12 to 1e12, the relative error against
    a 50-digit evaluation stays below 3e-15 (measured), and a round trip
    through t_from_sigma lands within 2e-14 relative of an orbit member.
    """
    tc = validate_t(t)
    if tc.imag == 0.0 and (tc.real < 0.0 or tc.real > 1.0):
        warnings.warn("t lies on a real cut; using the limit from Im t > 0",
                      BranchConventionWarning, stacklevel=2)
    # adding +0.0 turns an imaginary -0.0 into +0.0, the side of Im t > 0
    k2_t = complex(tc.real, tc.imag + 0.0)
    # the AGM of K(1-t) starts from its complementary modulus sqrt(t) itself:
    # sqrt(1 - (1-t)) cancels to 0 for |t| below about 1e-17
    sigma = 1j * _agm(cmath.sqrt(k2_t))[0] / _complete_K(k2_t)
    if sigma.imag <= 0.0:
        # the principal-branch ratio lands in the upper half plane on the
        # whole slit plane; flipping the sign would only mask a branch bug
        raise NormalizationError(f"period ratio left the upper half plane: {sigma}")
    return PeriodRatio(sigma=sigma)


# (a, b, c, d) mod 2 of the reduction matrix M -> position of t(sigma) in
# the orbit members of t(M sigma), from t(sigma+1) = t/(t-1) and t(-1/sigma) = 1/t
_ORBIT_INDEX = {(1, 0, 0, 1): 0, (0, 1, 1, 0): 1, (1, 0, 1, 1): 2,
                (0, 1, 1, 1): 3, (1, 1, 0, 1): 4, (1, 1, 1, 0): 5}


def t_from_sigma(sigma) -> complex:
    """Branch point from theta constants, t = -(theta[1,0]/theta[0,1])(0|sigma)^4.

    The theta constants are taken at the reduced point M sigma, where the
    series are short and theta[0,1] is near 1, and t follows from the
    anharmonic map of M mod 2.  So t keeps its relative accuracy as
    Im sigma -> 0; where it leaves the double range, DomainError is raised.
    DomainError is also raised where t lies within 2^-52 of 1: there 1 - t
    keeps none of the digits of the small reduced value.  A t within about
    1e-8 of 1 still loses part of them, since 1 - t then carries a relative
    error of about 1e-16 / |1 - t|.  Composing with sigma_from_t returns a
    point in the same group orbit as the input (not necessarily the
    identical representative).
    """
    s = as_sigma(sigma)
    red, (a, b, c, d) = reduce_to_fundamental_domain(s).reduced
    t_red = -((theta((1, 0), 0.0, red) / theta((0, 1), 0.0, red)) ** 4)
    try:
        members = _orbit_members(validate_t(t_red))
        t = validate_t(members[_ORBIT_INDEX[(a % 2, b % 2, c % 2, d % 2)]])
        if abs(t - 1.0) < 2.0 ** -52:
            raise DomainError
    except DomainError:
        raise DomainError(f"t(sigma) is not representable in double precision at {s}") from None
    return t


def unimodular_equivalent(s1, s2, tol: float = 1.0e-9) -> bool:
    """True when the two period ratios reduce to the same fundamental point."""
    return _reduced_gap(s1, s2) <= tol


def _reduced_gap(s1, s2) -> float:
    """Distance between the reduced points of two period ratios, up to boundary identification."""
    r1 = reduce_to_fundamental_domain(as_sigma(s1)).reduced[0]
    r2 = reduce_to_fundamental_domain(as_sigma(s2)).reduced[0]
    # points on the boundary of the fundamental domain may reduce to either
    # of two identified representatives
    return min(abs(r1 - cand) for cand in (
        r2, complex(r2.real - 1.0, r2.imag), complex(r2.real + 1.0, r2.imag), -1.0 / r2))
