"""Finite-difference helpers for the identity checks.

Everything here is plain Richardson-extrapolated central differencing:
the Wirtinger derivative of the variational identity's left side, and the
five-point Laplacian of the curvature checks.  The formula layer itself
differences nothing.  The Wirtinger derivative uses the convention
d/dt = (d/dx - i d/dy) / 2 for t = x + i y.
"""

from __future__ import annotations

__all__ = ["wirtinger", "laplacian5"]

# Richardson pair of steps of the Wirtinger derivative, relative to the
# distance min(1, |t|, |t-1|) from t to the nearer singular point
_H_COARSE = 3.0e-3
_H_FINE = 1.5e-3


def _wirtinger_once(f, t: complex, h: float) -> complex:
    dx = (f(t + h) - f(t - h)) / (2.0 * h)
    dy = (f(t + 1j * h) - f(t - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy)


def wirtinger(f, t) -> complex:
    """Wirtinger derivative of f at t by two-step Richardson extrapolation.

    Central differences at steps hc = 3e-3 r and hf = 1.5e-3 r, with
    r = min(1, |t|, |t-1|), are combined so the O(h^2) error cancels:
    D = (hc^2 D_fine - hf^2 D_coarse) / (hc^2 - hf^2).  Scaling by r keeps
    the stencil well inside the disk on which f is smooth when f has its
    singularities at 0 and 1, as the determinant does.
    """
    tc = complex(t)
    r = min(1.0, abs(tc), abs(tc - 1.0))
    hc, hf = _H_COARSE * r, _H_FINE * r
    d_coarse = _wirtinger_once(f, tc, hc)
    d_fine = _wirtinger_once(f, tc, hf)
    w = hc * hc / (hc * hc - hf * hf)
    return w * d_fine + (1.0 - w) * d_coarse


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
