"""Finite-difference helpers shared by the derivative-based identities.

Everything here is plain Richardson-extrapolated central differencing.
The Wirtinger derivative uses the convention
d/dt = (d/dx - i d/dy) / 2 for t = x + i y.
"""

from __future__ import annotations

import cmath
import math

__all__ = ["wirtinger", "log_aligned", "laplacian5"]

# Richardson pair of steps of the Wirtinger derivative
_H_COARSE = 1.0e-4
_H_FINE = 1.0e-5


def _wirtinger_once(f, t: complex, h: float) -> complex:
    dx = (f(t + h) - f(t - h)) / (2.0 * h)
    dy = (f(t + 1j * h) - f(t - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy)


def wirtinger(f, t) -> complex:
    """Wirtinger derivative of f at t by two-step Richardson extrapolation.

    Central differences at steps hc = 1e-4 and hf = 1e-5 are combined so the
    O(h^2) error cancels:  D = (hc^2 D_fine - hf^2 D_coarse) / (hc^2 - hf^2).
    """
    tc = complex(t)
    d_coarse = _wirtinger_once(f, tc, _H_COARSE)
    d_fine = _wirtinger_once(f, tc, _H_FINE)
    w = _H_COARSE * _H_COARSE / (_H_COARSE * _H_COARSE - _H_FINE * _H_FINE)
    return w * d_fine + (1.0 - w) * d_coarse


def log_aligned(value: complex, reference: complex) -> complex:
    """Logarithm of ``value`` with the branch nearest to arg(reference)."""
    raw = cmath.log(value)
    shift = round((cmath.phase(reference) - raw.imag) / (2.0 * math.pi))
    return complex(raw.real, raw.imag + 2.0 * math.pi * shift)


def laplacian5(f, w: complex, h: float) -> float:
    """Five-point Laplacian of a real-valued f at w, Richardson extrapolated.

    Combines the stencil at steps h and 2h as (4 L_h - L_{2h}) / 3, which
    removes the leading O(h^2) truncation term.  Extrapolating upward (2h,
    not h/2) keeps the 1/step^2 roundoff amplification at the h level.
    """

    def one(step: float) -> float:
        return (
            f(w + step)
            + f(w - step)
            + f(w + 1j * step)
            + f(w - 1j * step)
            - 4.0 * f(w)
        ) / (step * step)

    return (4.0 * one(h) - one(2.0 * h)) / 3.0
