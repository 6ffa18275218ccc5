"""Closed-form determinant of the Friedrichs Laplacian on the cone surface,
together with the independent routes used to cross-check it.

For a branch point t with period ratio sigma = sigma(t) the determinant is,
up to one universal multiplicative constant,

    det = |Im sigma| |eta(sigma)|^4 F(t),
    F(t) = |t|^(1/24) |t-1|^(1/24) / ( |sqrt(t)-1| + |sqrt(t)+1| )^(1/4),

and F is invariant under the order-6 group acting on t.  Everything here
works with the logarithm of the determinant; the unknown constant is
tracked by a flag on DetValue, so only differences of log values carry
meaning.

Two consistency routes are provided.  The first expresses the determinant
through the modulus of the Bergman tau function, |tau| = |eta(sigma)|^2
|t (t - 1)|^(1/12); the phase of tau is never used.  The second is the
variational identity d/dt log det = (b(0) - b(-oo)) / 2; of its
coefficients, b(-oo) comes either from the quarter-disk chart, as a
rational expression in q = s^2 for a preimage s of t and valid on all of
C minus {0, 1}, or as an exact Wirtinger derivative of log rho, and b(0)
in closed form from the complete elliptic integrals K(t) and E(t).
Nothing here differences numerically: the identity's left side is left
to its callers.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .geometry import _rho_inverse
from .moduli import sigma_from_t, validate_t
from .specialfn import _complete_KE, as_sigma, dedekind_eta, reduce_to_fundamental_domain

__all__ = [
    "DetValue",
    "F",
    "flat_det",
    "det_value",
    "tau_bergman",
    "det_prelim",
    "b_minus_inf_from_AB",
    "b_minus_inf_closed",
    "schiffer_b0",
]


@dataclass(frozen=True)
class DetValue:
    """Logarithm of a determinant, possibly only defined up to a constant.

    When ``up_to_constant`` is set, the absolute number is meaningless and
    only differences against other DetValue instances are contractual.
    Subtraction returns the plain float difference of the logs.
    """

    log_value: float
    up_to_constant: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_value):
            raise DomainError("determinant log value must be finite")

    def __sub__(self, other: "DetValue") -> float:
        return self.log_value - other.log_value


def F(t) -> float:
    """Moduli part of the determinant formula.

    F(t) = |t|^(1/24) |t-1|^(1/24) / (|sqrt(t)-1| + |sqrt(t)+1|)^(1/4).
    Branch of the square root is irrelevant (the two choices swap the
    summands), and F(t) = F(1/t) = F(1-t).
    """
    tc = validate_t(t)
    r = cmath.sqrt(tc)
    denom = (abs(r - 1.0) + abs(r + 1.0)) ** 0.25
    return abs(tc) ** (1.0 / 24.0) * abs(tc - 1.0) ** (1.0 / 24.0) / denom


def flat_det(sigma) -> DetValue:
    """Log determinant of the flat unit-area torus, log(|Im sigma| |eta|^4).

    Modular invariant: unimodular images of sigma give the same value.
    Summed in logs, since |eta|^4 ~ e^(-pi Im sigma / 3) is subnormal from Im sigma ~ 680.
    Where eta itself is subnormal or 0 (reduced Im sigma above about 2706) its
    q-product is 1, and the value is log Im sigma_r - pi Im sigma_r / 3 at the
    reduced point sigma_r.
    """
    s = as_sigma(sigma)
    eta = abs(dedekind_eta(s))
    if eta < sys.float_info.min:
        s = reduce_to_fundamental_domain(s).reduced[0]
        return DetValue(math.log(s.imag) - math.pi * s.imag / 3.0)
    return DetValue(math.log(s.imag) + 4.0 * math.log(eta))


def det_value(t) -> DetValue:
    """Log determinant of the cone surface at branch point t.

    log det = log(|Im sigma| |eta(sigma)|^4) + log F(t) with
    sigma = sigma_from_t(t); invariant under the order-6 group on t.
    Off the real axis, for |t| and |t-1| from 1e-12 to 1e12, it is within
    2e-14 max(1, |log det|) of a 50-digit evaluation (measured).
    """
    tc = validate_t(t)
    sigma = sigma_from_t(tc)
    return DetValue(flat_det(sigma).log_value + math.log(F(tc)))


def tau_bergman(t) -> complex:
    """Bergman tau function on the family, up to a constant factor.

    tau(t) = eta(sigma(t))^2 (t (t-1))^(1/12) with the principal twelfth
    root.  Only |tau| enters the determinant, so the branch is immaterial.
    """
    tc = validate_t(t)
    return dedekind_eta(sigma_from_t(tc)) ** 2 * (tc * (tc - 1.0)) ** (1.0 / 12.0)


def det_prelim(t) -> DetValue:
    """Determinant route through the tau function, up to a constant.

    log( |Im sigma| |tau|^2 * (|t| |t-1| (|sqrt(t)+1| + |sqrt(t)-1|)^2)^(-1/8) ).
    The difference det_prelim(t) - det_value(t) must be independent of t.
    """
    tc = validate_t(t)
    sigma = as_sigma(sigma_from_t(tc))
    tau = tau_bergman(tc)
    log_val = (math.log(sigma.imag) + 2.0 * math.log(abs(tau))
               - math.log(_rho_inverse(tc)) / 8.0)
    return DetValue(log_val)


def b_minus_inf_from_AB(t) -> complex:
    """Cone coefficient b(-oo) from the quarter-disk chart at the preimage of t.

    With s a preimage of t under w(z) = ((1 + z^2) / (1 - z^2))^2 and
    x^2 = w - t, u^2 = z - s, series reversion gives u = A x + B x^3 + ...
    with A^2 = 1 / w'(s) and B/A = -w''(s) / (4 w'(s)^2), and

        b(-oo) = A^2 conj(s) / (2 (1 + |s|^2)) - B/A,

    the first factor being the model coefficient of the round metric in
    the u-parameter.  Everything is a function of q = s^2: with r = sqrt(t),

        q = (t-1) / (r+1)^2,   1 + q = 2r / (r+1),   1 - q = 2 / (r+1),
        P = s w'(s) = 8 q (1+q) / (1-q)^3,
        w''(s) = 8 (1 + 8q + 3q^2) / (1-q)^4,
        b(-oo) = |q| / (2 (1 + |q|) P) + q w''(s) / (4 P^2).

    No root of q is taken and the four preimages +-s, +-1/s give the same
    value, so this holds on all of C minus {0, 1}.  Measured against a
    50-digit evaluation of b_minus_inf_closed's formula for |t| and |t-1|
    from 1e-12 to 1e12 at all angles: relative error below 5e-15 outside
    |t - 1/2| < 1e-3, and below 1e-16 (1/|t| + 1/|t-1|) inside it, where
    b(-oo) has its only zero.
    """
    tc = validate_t(t)
    r = cmath.sqrt(tc)
    rp = r + 1.0
    q = (tc - 1.0) / (rp * rp)
    one_minus_q = 2.0 / rp
    p = 8.0 * q * (2.0 * r / rp) / one_minus_q**3
    w2 = 8.0 * (1.0 + 8.0 * q + 3.0 * q * q) / one_minus_q**4
    aq = abs(q)
    return aq / (2.0 * (1.0 + aq) * p) + q * w2 / (4.0 * p * p)


def b_minus_inf_closed(t) -> complex:
    """Closed form of b(-oo) as an exact Wirtinger t-derivative.

    b(-oo) = d/dt (1/4) log( 2 |t| |t-1| (1 + |t| + |t-1|) ), which is
    d/dt of -(1/4) log rho at w = t.  With d|t|/dt = |t| / (2 t) this is

        (1/8) [ 1/t + 1/(t-1) + (|t|/t + |t-1|/(t-1)) / (1 + |t| + |t-1|) ].

    Measured against a 50-digit evaluation for |t| and |t-1| from 1e-12 to
    1e12 at all angles: relative error below 4e-15 outside |t - 1/2| < 1e-3,
    and below 1e-16 (1/|t| + 1/|t-1|) inside it, where b(-oo) has its only
    zero.
    """
    tc = validate_t(t)
    at, at1 = abs(tc), abs(tc - 1.0)
    return 0.125 * (1.0 / tc + 1.0 / (tc - 1.0)
                    + (at / tc + at1 / (tc - 1.0)) / (1.0 + at + at1))


def schiffer_b0(t) -> complex:
    """Curvature coefficient b(0) = 2 d/dt log tau + 2 d/dt log Im sigma.

    The combination eliminates the Schiffer projective connection: the
    Bergman tau derivative carries the Bergman projective connection and
    the Im sigma derivative removes the abelian-differential square between
    the two, leaving -(1/6) of the Schiffer evaluation at the cone point.
    With tau = eta(sigma)^2 (t (t-1))^(1/12), Legendre's relation
    dsigma/dt = -i pi / (4 t (1-t) K^2) and Ramanujan's
    E2(sigma) = (2K/pi)^2 (3E/K - 2 + t), where K = K(t) and E = E(t),
    give it in closed form,

        b(0) = (E/K - 1/2 - pi / (4 K^2 Im sigma)) / (t (1 - t)).

    E2 and 1/Im sigma carry opposite modular anomalies, so b(0) is
    continuous across the real cuts, where sigma jumps; on a cut K, E and
    sigma all take the limit from Im t > 0.
    """
    tc = validate_t(t)
    sigma = as_sigma(sigma_from_t(tc))
    # adding +0.0 turns an imaginary -0.0 into +0.0: sigma_from_t's side of the cuts
    k, e = _complete_KE(complex(tc.real, tc.imag + 0.0))
    return (e / k - 0.5 - math.pi / (4.0 * k * k * sigma.imag)) / (tc * (1.0 - tc))
