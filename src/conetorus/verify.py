"""Named invariant suites behind the command-line ``verify`` command.

Each suite draws its sample points from a seeded generator, runs a batch of
identity checks at the tolerances in DEFAULT_TOLERANCES, and returns one
CheckResult per named check.  A check passes when its worst residual is
below its tolerance; a NaN residual fails.  Suites take no arguments: the
tolerances, the samples and the spectral grid are fixed, so reruns are
byte-identical.

Suites:
  symmetry     F(t) = F(1/t) = F(1-t) on 200 annulus samples
  roundtrip    t -> sigma -> t orbit round trips, orbit-constant det_value,
               unimodular invariance of the fundamental-domain reduction
  variational  the two b(-inf) routes, d/dt log det = (b(0) - b(-inf))/2,
               and det_prelim - det_value constancy
  curvature    pushforward of the round metric, Gauss curvature = 1
  spectral     solver residual, Weyl slope, isospectrality of t and
               1/(1-t) (grids that are not transposes), grid area
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detformula import (
    F,
    b_minus_inf_closed,
    b_minus_inf_from_AB,
    det_prelim,
    det_value,
    schiffer_b0,
)
from .errors import BranchConventionWarning
from .geometry import (
    conformal_map,
    conformal_map_prime,
    gauss_curvature,
    metric_rho,
    round_sphere_density,
)
from .moduli import _orbit_distance, _reduced_gap, g_orbit, sigma_from_t, t_from_sigma
from .numdiff import laplacian5, wirtinger
from .spectral import assemble, isospectral_orbit_check, lowest_eigenvalues, weyl_check

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "run_suite"]

DEFAULT_TOLERANCES = {
    "f_symmetry": 1.0e-12,
    "roundtrip_orbit": 1.0e-9,
    "det_orbit": 1.0e-9,
    "sigma_reduction": 1.0e-9,
    "b_dual": 1.0e-8,
    "variational_identity": 1.0e-6,
    "prelim_consistency": 1.0e-8,
    "pushforward": 1.0e-10,
    "curvature_one": 1.0e-6,
    "curvature_oracle": 1.0e-8,
    "zero_mode": 1.0e-8,
    "weyl_slope": 0.05,
    "isospectral": 1.0e-2,
    "grid_area": 0.01,
}

_SEED = 20260214


@dataclass
class CheckResult:
    """Outcome of one named check over a sample batch."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    count: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status}  {self.name}: {self.count} checks, "
            f"max residual {self.residual:.3e} vs tol {self.tolerance:.1e}{extra}"
        )


def _check(name: str, count: int, residuals, detail: str = "") -> CheckResult:
    """The pass rule: the worst residual must lie below DEFAULT_TOLERANCES[name].

    The worst is np.max of the residuals, which keeps a NaN, so a NaN
    residual fails.
    """
    tol = DEFAULT_TOLERANCES[name]
    worst = float(np.max(residuals))
    return CheckResult(name, worst < tol, worst, tol, count, detail)


def _draw(rng, n: int, draw, keep) -> list:
    """The first n values of draw(rng) that satisfy keep (rejection sampling)."""
    out = []
    while len(out) < n:
        z = draw(rng)
        if keep(z):
            out.append(z)
    return out


def _annulus_samples(rng, n: int) -> list[complex]:
    """t in the box [-6, 7] x [-6, 6] with |t| and |t - 1| above 0.05."""
    return _draw(rng, n, lambda r: complex(r.uniform(-6.0, 7.0), r.uniform(-6.0, 6.0)),
                 lambda t: abs(t) > 0.05 and abs(t - 1.0) > 0.05)


def _upper_samples(rng, n: int) -> list[complex]:
    """t in the strip 0.15 < Im t < 1.2, -2 < Re t < 3, with |t| and |t - 1| above 0.2."""
    return _draw(rng, n, lambda r: complex(r.uniform(-2.0, 3.0), r.uniform(0.15, 1.2)),
                 lambda t: abs(t) > 0.2 and abs(t - 1.0) > 0.2)


def suite_symmetry() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    n = 200
    gaps = []
    for t in _annulus_samples(rng, n):
        f0 = F(t)
        gaps.append([abs(F(image) - f0) / f0 for image in (1.0 / t, 1.0 - t)])
    return [_check("f_symmetry", n, gaps)]


def suite_roundtrip() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 1)
    results = []

    n = 50
    samples = _annulus_samples(rng, n)
    results.append(_check("roundtrip_orbit", n, [
        _orbit_distance(t, t_from_sigma(sigma_from_t(t))) for t in samples]))

    n = 50
    gaps = []
    for t in _upper_samples(rng, n):
        base = det_value(t)
        gaps.append([abs(det_value(member) - base) for member in g_orbit(t).members[1:]])
    results.append(_check("det_orbit", n, gaps))

    n = 25
    pairs = []
    for _ in range(n):
        s = complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-1.5, 1.5)))
        # random SL(2, Z) word: alternating translations and inversions
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.integers(1, 5)):
            k = int(rng.integers(-3, 4))
            a, b = a + k * c, b + k * d
            a, b, c, d = -c, -d, a, b
        pairs.append((s, (a * s + b) / (c * s + d)))
    results.append(_check("sigma_reduction", n, [_reduced_gap(s, moved) for s, moved in pairs]))
    return results


def suite_variational() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 2)
    results = []

    n = 30
    results.append(_check("b_dual", n, [abs(b_minus_inf_from_AB(t) - b_minus_inf_closed(t))
                                        for t in _upper_samples(rng, n)]))

    n = 20
    gaps = []
    for t in _upper_samples(rng, n):
        lhs = wirtinger(lambda z: det_value(z).log_value, t)
        rhs = 0.5 * (schiffer_b0(t) - b_minus_inf_closed(t))
        gaps.append(abs(lhs - rhs))
    results.append(_check("variational_identity", n, gaps))

    n = 50
    diffs = np.array([det_prelim(t) - det_value(t) for t in _upper_samples(rng, n)])
    results.append(_check("prelim_consistency", n, np.std(diffs),
                          detail="residual is the standard deviation of the difference"))
    return results


def suite_curvature() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 3)
    results = []

    n = 50
    gaps = []
    zs = _draw(rng, n, lambda r: complex(r.uniform(0.0, 1.0), r.uniform(0.0, 1.0)),
               lambda z: 0.05 <= abs(z) < 0.97 and abs(z - 1j) >= 0.05 and abs(z - 1.0) >= 0.05)
    for z in zs:
        lhs = metric_rho(conformal_map(z)) * abs(conformal_map_prime(z)) ** 2
        rhs = round_sphere_density(z)
        gaps.append(abs(lhs - rhs) / rhs)
    results.append(_check("pushforward", n, gaps))

    n = 100
    ws = _draw(rng, n, lambda r: complex(r.uniform(-4.0, 5.0), r.uniform(-4.0, 4.0)),
               lambda w: 0.3 <= abs(w) <= 5.0 and abs(w - 1.0) >= 0.3)
    results.append(_check("curvature_one", n, [abs(gauss_curvature(w) - 1.0) for w in ws]))

    n = 20
    gaps = []
    for _ in range(n):
        w = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        # larger step than the metric_rho case: truncation is negligible for
        # the round density, roundoff is not
        k = -laplacian5(lambda p: math.log(round_sphere_density(p)), w, 5.0e-3) / (
            2.0 * round_sphere_density(w)
        )
        gaps.append(abs(k - 1.0))
    results.append(_check("curvature_oracle", n, gaps))
    return results


def suite_spectral() -> list[CheckResult]:
    """Grid area, solver residual, Weyl slope and orbit isospectrality at t = 0.3,
    on 128^2 with 40 modes.

    The isospectral check compares t with its orbit member 1/(1-t), whose
    period ratio has a different real part, so the two grids are not
    transposes of each other and the residual is the discretization's own
    gap (3.7e-3 at 128^2; at 64^2 it is 1.2e-2, above the 1e-2 tolerance).
    """
    t = 0.3 + 0.0j
    grid, modes = 128, 40
    results = []
    op = assemble(sigma_from_t(t), t, grid)

    # midpoint-rule area of the sampled conformal factor
    area = float(op.weight.sum()) * op.sigma.imag / op.weight.size
    results.append(_check("grid_area", 1, abs(area - 2.0 * math.pi) / (2.0 * math.pi),
                          detail=f"area {area:.6f} vs 2*pi"))

    spec = lowest_eigenvalues(op, modes)
    results.append(_check("zero_mode", 1, spec.diagnostics.residual))

    slope = weyl_check(spec)
    results.append(_check("weyl_slope", 1, abs(slope - 0.5), detail=f"slope {slope:.4f} vs 0.5"))

    t_image = 1.0 / (1.0 - t)
    with warnings.catch_warnings():
        # t_image lies on the real cut (1, oo); the limits from either side
        # are mirror images of one surface and share its spectrum
        warnings.simplefilter("ignore", BranchConventionWarning)
        image = lowest_eigenvalues(assemble(sigma_from_t(t_image), t_image, grid), 16)
    results.append(_check("isospectral", 15, isospectral_orbit_check(spec, image, 15)))
    return results


SUITES = {
    "symmetry": suite_symmetry,
    "roundtrip": suite_roundtrip,
    "variational": suite_variational,
    "curvature": suite_curvature,
    "spectral": suite_spectral,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite; unknown names raise KeyError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
