"""Named invariant suites behind the command-line ``verify`` command.

Each suite draws its sample points from a seeded generator, runs a batch of
identity checks at the tolerances in DEFAULT_TOLERANCES, and returns one
CheckResult per named check.  Suites take no arguments: the tolerances,
the samples and the spectral grid are fixed, so reruns are byte-identical.

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
from .moduli import g_orbit, same_moduli_point, sigma_from_t, t_from_sigma, unimodular_equivalent
from .numdiff import laplacian5, wirtinger
from .spectral import assemble, isospectral_orbit_check, lowest_eigenvalues, weyl_check

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "SUITES", "run_suite"]

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


def _annulus_samples(rng, n: int, min_dist: float = 0.05, box: float = 6.0):
    """t samples with min_dist < |t|, |t-1| and |t| well below 20."""
    out = []
    while len(out) < n:
        t = complex(rng.uniform(-box, box + 1.0), rng.uniform(-box, box))
        if abs(t) > min_dist and abs(t - 1.0) > min_dist:
            out.append(t)
    return out


def _upper_samples(rng, n: int, im_lo: float = 0.15, im_hi: float = 1.2):
    """t samples in the upper half-plane, away from 0, 1, and the real axis."""
    out = []
    while len(out) < n:
        t = complex(rng.uniform(-2.0, 3.0), rng.uniform(im_lo, im_hi))
        if abs(t) > 0.2 and abs(t - 1.0) > 0.2:
            out.append(t)
    return out


def suite_symmetry() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    tol = DEFAULT_TOLERANCES["f_symmetry"]
    worst = 0.0
    n = 200
    for t in _annulus_samples(rng, n):
        f0 = F(t)
        for image in (1.0 / t, 1.0 - t):
            worst = max(worst, abs(F(image) - f0) / f0)
    return [CheckResult("f_symmetry", worst < tol, worst, tol, n)]


def suite_roundtrip() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 1)
    results = []

    tol = DEFAULT_TOLERANCES["roundtrip_orbit"]
    n = 50
    bad = 0
    for t in _annulus_samples(rng, n):
        t_back = t_from_sigma(sigma_from_t(t))
        if not same_moduli_point(t, t_back, tol=tol):
            bad += 1
    results.append(
        CheckResult("roundtrip_orbit", bad == 0, float(bad), tol, n,
                    detail="residual counts failed round trips")
    )

    tol = DEFAULT_TOLERANCES["det_orbit"]
    n = 50
    worst = 0.0
    for t in _upper_samples(rng, n):
        base = det_value(t)
        for member in g_orbit(t).members[1:]:
            worst = max(worst, abs(det_value(member) - base))
    results.append(CheckResult("det_orbit", worst < tol, worst, tol, n))

    tol = DEFAULT_TOLERANCES["sigma_reduction"]
    n = 25
    bad = 0
    for _ in range(n):
        s = complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-1.5, 1.5)))
        # random SL(2, Z) word: alternating translations and inversions
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.integers(1, 5)):
            k = int(rng.integers(-3, 4))
            a, b = a + k * c, b + k * d
            a, b, c, d = -c, -d, a, b
        moved = (a * s + b) / (c * s + d)
        if not unimodular_equivalent(s, moved, tol=tol):
            bad += 1
    results.append(
        CheckResult("sigma_reduction", bad == 0, float(bad), tol, n,
                    detail="residual counts failed equivalences")
    )
    return results


def suite_variational() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 2)
    results = []

    tol = DEFAULT_TOLERANCES["b_dual"]
    n = 30
    worst = 0.0
    for t in _upper_samples(rng, n):
        worst = max(worst, abs(b_minus_inf_from_AB(t) - b_minus_inf_closed(t)))
    results.append(CheckResult("b_dual", worst < tol, worst, tol, n))

    tol = DEFAULT_TOLERANCES["variational_identity"]
    n = 20
    worst = 0.0
    for t in _upper_samples(rng, n):
        lhs = wirtinger(lambda z: det_value(z).log_value, t)
        rhs = 0.5 * (schiffer_b0(t) - b_minus_inf_closed(t))
        worst = max(worst, abs(lhs - rhs))
    results.append(CheckResult("variational_identity", worst < tol, worst, tol, n))

    tol = DEFAULT_TOLERANCES["prelim_consistency"]
    n = 50
    diffs = np.array([det_prelim(t) - det_value(t) for t in _upper_samples(rng, n)])
    spread = float(np.std(diffs))
    results.append(
        CheckResult("prelim_consistency", spread < tol, spread, tol, n,
                    detail="residual is the standard deviation of the difference")
    )
    return results


def suite_curvature() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 3)
    results = []

    tol = DEFAULT_TOLERANCES["pushforward"]
    n = 50
    worst = 0.0
    got = 0
    while got < n:
        z = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        if abs(z) >= 0.97 or abs(z) < 0.05 or abs(z - 1j) < 0.05 or abs(z - 1.0) < 0.05:
            continue
        got += 1
        lhs = metric_rho(conformal_map(z)) * abs(conformal_map_prime(z)) ** 2
        rhs = round_sphere_density(z)
        worst = max(worst, abs(lhs - rhs) / rhs)
    results.append(CheckResult("pushforward", worst < tol, worst, tol, n))

    tol = DEFAULT_TOLERANCES["curvature_one"]
    n = 100
    worst = 0.0
    got = 0
    while got < n:
        w = complex(rng.uniform(-4.0, 5.0), rng.uniform(-4.0, 4.0))
        if abs(w) < 0.3 or abs(w - 1.0) < 0.3 or abs(w) > 5.0:
            continue
        got += 1
        worst = max(worst, abs(gauss_curvature(w) - 1.0))
    results.append(CheckResult("curvature_one", worst < tol, worst, tol, n))

    tol = DEFAULT_TOLERANCES["curvature_oracle"]
    n = 20
    worst = 0.0
    for _ in range(n):
        w = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        # larger step than the metric_rho case: truncation is negligible for
        # the round density, roundoff is not
        k = -laplacian5(lambda p: math.log(round_sphere_density(p)), w, 5.0e-3) / (
            2.0 * round_sphere_density(w)
        )
        worst = max(worst, abs(k - 1.0))
    results.append(CheckResult("curvature_oracle", worst < tol, worst, tol, n))
    return results


def suite_spectral() -> list[CheckResult]:
    """Grid area, solver residual, Weyl slope and orbit isospectrality at t = 0.3,
    on 128^2 with 40 modes.

    The isospectral check compares t with its orbit member 1/(1-t), whose
    period ratio has a different real part, so the two grids are not
    transposes of each other and the residual is the discretization's own
    gap (3.8e-3 at 128^2; at 64^2 it is 1.5e-2, above the 1e-2 tolerance).
    """
    t = 0.3 + 0.0j
    grid, modes = 128, 40
    results = []
    op = assemble(sigma_from_t(t), t, grid)

    tol = DEFAULT_TOLERANCES["grid_area"]
    # midpoint-rule area of the sampled conformal factor
    area = float(op.weight.sum()) * op.sigma.imag / op.weight.size
    resid = abs(area - 2.0 * math.pi) / (2.0 * math.pi)
    results.append(
        CheckResult("grid_area", resid < tol, resid, tol, 1,
                    detail=f"area {area:.6f} vs 2*pi")
    )

    spec = lowest_eigenvalues(op, modes)

    tol = DEFAULT_TOLERANCES["zero_mode"]
    resid = spec.diagnostics.residual
    results.append(CheckResult("zero_mode", resid < tol, resid, tol, 1))

    tol = DEFAULT_TOLERANCES["weyl_slope"]
    slope = weyl_check(spec)
    resid = abs(slope - 0.5)
    results.append(
        CheckResult("weyl_slope", resid < tol, resid, tol, 1,
                    detail=f"slope {slope:.4f} vs 0.5")
    )

    tol = DEFAULT_TOLERANCES["isospectral"]
    t_image = 1.0 / (1.0 - t)
    with warnings.catch_warnings():
        # t_image lies on the real cut (1, oo); the limits from either side
        # are mirror images of one surface and share its spectrum
        warnings.simplefilter("ignore", BranchConventionWarning)
        image = lowest_eigenvalues(assemble(sigma_from_t(t_image), t_image, grid), 16)
    resid = isospectral_orbit_check(spec, image, 15)
    results.append(CheckResult("isospectral", resid < tol, resid, tol, 15))
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
