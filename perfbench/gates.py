"""Correctness gates of the benchmark.

Every gate is a pure function of values the workloads computed, returning
``(passed, residual)``.  None of them needs a stored reference: the formula
gates compare two routes through the package, and the solver gates compare
against exact discrete answers (the flat-torus symbol, or the transposed
grid of the image point ``1 - t``).

Tolerances of the formula identities are the package's own
``conetorus.verify.DEFAULT_TOLERANCES``; the remaining ones are fixed here.
"""

from __future__ import annotations

import math

import numpy as np

# largest |(est_a - est_b) - (det_a - det_b)| of the zeta estimate on the
# 128^2 / 64^2 Richardson pair.  The pair 0.02 vs 0.3 misses by about 0.014,
# and the F == 1 mutant by about 0.1, so the gate sits between the two.
DET_GAP_TOL = 0.04

# relative agreement of two spectra that must be equal up to roundoff
SOLVER_REL_TOL = 1.0e-10


def within(residual: float, tol: float) -> tuple[bool, float]:
    """Pass when the residual is finite and at most tol."""
    residual = float(residual)
    return (math.isfinite(residual) and residual <= tol), residual


def roundtrip_orbit(t_back: complex, orbit_members, tol: float) -> tuple[bool, float]:
    """t -> sigma -> t lands in the orbit of t (distance to the nearest member)."""
    return within(min(abs(complex(t_back) - m) for m in orbit_members), tol)


def sigma_reduction(sigma: complex, reduced: complex, matrix, tol: float) -> tuple[bool, float]:
    """The reduction matrix maps sigma onto the reduced point, relatively."""
    a, b, c, d = matrix
    image = (a * sigma + b) / (c * sigma + d)
    return within(abs(image - reduced) / abs(reduced), tol)


def det_orbit(values, tol: float) -> tuple[bool, float]:
    """log det is constant over the six orbit members."""
    return within(max(abs(v - values[0]) for v in values), tol)


def prelim_consistency(offset: float, reference_offset: float, tol: float) -> tuple[bool, float]:
    """det_prelim - det_value is the same constant as at the reference point."""
    return within(abs(offset - reference_offset), tol)


def b_dual(b_closed: complex, b_taylor: complex, tol: float) -> tuple[bool, float]:
    """The two routes to b(-oo) agree."""
    return within(abs(b_closed - b_taylor), tol)


def variational_identity(dlogdet: complex, b0: complex, b_inf: complex,
                         tol: float) -> tuple[bool, float]:
    """d/dt log det = (b(0) - b(-oo)) / 2."""
    return within(abs(dlogdet - 0.5 * (b0 - b_inf)), tol)


def det_gap(est_diff: float, formula_diff: float) -> tuple[bool, float]:
    """Spectral zeta estimate of log det(t_a) - log det(t_b) matches the formula."""
    return within(abs(est_diff - formula_diff), DET_GAP_TOL)


def weyl_slope(slope: float, area: float, tol: float) -> tuple[bool, float]:
    """Counting-function slope equals area / (4 pi)."""
    return within(abs(slope - area / (4.0 * math.pi)), tol)


def max_rel_gap(a, b) -> float:
    """Largest relative difference of two ascending spectra, zero modes skipped."""
    a = np.asarray(a, dtype=np.float64)[1:]
    b = np.asarray(b, dtype=np.float64)[1:]
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b) / np.abs(b)))


def transpose_spectra(spec_t, spec_image) -> tuple[bool, float]:
    """Spectra of t and 1 - t agree: their square grids are exact transposes.

    A solver check only: the two discretizations are the same matrix up to
    a permutation, so this says nothing about the determinant formula.
    """
    return within(max_rel_gap(spec_t, spec_image), SOLVER_REL_TOL)


def flat_symbol_terms(sigma: complex, n1: int, n2: int):
    """The three terms of the flat-torus symbol on the sheared n1 x n2 grid.

    The periodic stencil is diagonal under the 2-d DFT, with symbol
    4 gpp n1^2 sin^2(th_j/2) + 4 gqq n2^2 sin^2(th_k/2)
    + 2 gpq n1 n2 sin th_j sin th_k, returned as the arrays (pp, qq, cross),
    which broadcast to shape (n1, n2).
    """
    y2 = sigma.imag * sigma.imag
    gpp = abs(sigma) ** 2 / y2
    gqq = 1.0 / y2
    gpq = -sigma.real / y2
    th_j = 2.0 * math.pi * np.arange(n1) / n1
    th_k = 2.0 * math.pi * np.arange(n2) / n2
    pp = 4.0 * gpp * n1 * n1 * np.sin(th_j / 2.0)[:, None] ** 2
    qq = 4.0 * gqq * n2 * n2 * np.sin(th_k / 2.0)[None, :] ** 2
    cross = 2.0 * gpq * n1 * n2 * np.sin(th_j)[:, None] * np.sin(th_k)[None, :]
    return pp, qq, cross


def flat_eigenvalues(sigma: complex, pp, qq, cross) -> np.ndarray:
    """Ascending eigenvalues of the unit-area flat torus from its symbol terms.

    The unit-area weight 1 / Im sigma multiplies the symbol by Im sigma.
    """
    return np.sort(((pp + qq + cross) * sigma.imag).ravel())


def flat_spectrum(eigenvalues, exact_sorted) -> tuple[bool, float]:
    """Computed flat eigenvalues match the lowest exact symbol values."""
    eig = np.asarray(eigenvalues, dtype=np.float64)
    return within(max_rel_gap(eig, exact_sorted[: eig.size]), SOLVER_REL_TOL)
