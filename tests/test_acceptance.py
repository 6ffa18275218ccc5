"""End-to-end acceptance checks, one per contract, one summary line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; each test
prints

    PASS  <criterion>: <count> checks, max residual <r> vs tol <tol>

and fails loudly otherwise.  The heavy spectra (grid 256^2, 60 modes) come
from session fixtures shared with the spectral unit tests.
"""

import math

import numpy as np
import pytest

from conetorus import (
    TorusCovering,
    conformal_factor_on_torus,
    det_value,
    isospectral_orbit_check,
    sigma_from_t,
    weyl_check,
    zeta_det_estimate,
)
from conetorus.verify import (
    suite_curvature,
    suite_roundtrip,
    suite_symmetry,
    suite_variational,
)


def report(name, passed, residual, tolerance, count):
    status = "PASS" if passed else "FAIL"
    print(f"{status}  {name}: {count} checks, max residual {residual:.3e} vs tol {tolerance:.1e}")
    assert passed, f"{name}: residual {residual:.3e} exceeds {tolerance:.1e}"


@pytest.fixture(scope="module")
def symmetry_checks():
    return {c.name: c for c in suite_symmetry()}


@pytest.fixture(scope="module")
def roundtrip_checks():
    return {c.name: c for c in suite_roundtrip()}


@pytest.fixture(scope="module")
def variational_checks():
    return {c.name: c for c in suite_variational()}


@pytest.fixture(scope="module")
def curvature_checks():
    return {c.name: c for c in suite_curvature()}


def test_01_f_symmetry(symmetry_checks):
    c = symmetry_checks["f_symmetry"]
    report("F invariance under t -> 1/t, 1-t", c.passed, c.residual, c.tolerance, c.count)


def test_02_det_orbit_invariance(roundtrip_checks):
    c = roundtrip_checks["det_orbit"]
    report("determinant constant on moduli orbits", c.passed, c.residual, c.tolerance, c.count)


def test_03_roundtrip_orbits(roundtrip_checks):
    c = roundtrip_checks["roundtrip_orbit"]
    report("t -> sigma -> t orbit round trip", c.passed, c.residual, c.tolerance, c.count)


def test_04_b_minus_inf_dual(variational_checks):
    c = variational_checks["b_dual"]
    report("b(-oo) closed form vs Taylor route", c.passed, c.residual, c.tolerance, c.count)


def test_05_variational_identity(variational_checks):
    c = variational_checks["variational_identity"]
    report("d/dt log det = (b(0) - b(-oo))/2", c.passed, c.residual, c.tolerance, c.count)


def test_06_prelim_consistency(variational_checks):
    c = variational_checks["prelim_consistency"]
    report("tau route offset is constant", c.passed, c.residual, c.tolerance, c.count)


def test_07_curvature_and_pushforward(curvature_checks):
    c1 = curvature_checks["curvature_one"]
    c2 = curvature_checks["pushforward"]
    report("curvature one on the w-sphere", c1.passed, c1.residual, c1.tolerance, c1.count)
    report("round-metric pushforward identity", c2.passed, c2.residual, c2.tolerance, c2.count)


def test_08_covering_branch_values_and_area():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    n = 5
    for _ in range(n):
        t = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.2, 1.0))
        if abs(t) < 0.3 or abs(t - 1.0) < 0.3:
            t = 0.4 + 0.9j
        cov = TorusCovering(sigma_from_t(t), t)
        values = list(cov.branch_points().values())
        finite = [v for v in values if not math.isinf(abs(v))]
        assert len(values) == 4 and len(finite) == 3
        resid = max(
            min(abs(v) for v in finite),
            min(abs(v - 1.0) for v in finite),
            min(abs(v - t) for v in finite) / max(1.0, abs(t)),
        )
        worst = max(worst, resid)
    report("covering branch values {0, 1, oo, t}", worst <= 1e-8, worst, 1e-8, n)

    t = 0.3 + 0.4j
    area = conformal_factor_on_torus(sigma_from_t(t), t, 256).area()
    resid = abs(area - 2.0 * math.pi) / (2.0 * math.pi)
    report("torus area 2*pi at grid 256^2", resid <= 0.01, resid, 1e-2, 1)


def test_09_spectral_cross_checks(spec_t03_256, spec_t07_256):
    resid = max(spec_t03_256.diagnostics[0], spec_t07_256.diagnostics[0])
    report("eigenpair residual below 1e-8", resid <= 1e-8, resid, 1e-8, 2)

    worst_slope = max(abs(weyl_check(s) - 0.5) for s in (spec_t03_256, spec_t07_256))
    report("Weyl slope 0.5 +- 0.05 at 256^2, M=60", worst_slope <= 0.05, worst_slope, 5e-2, 2)

    # t and 1 - t have transposed grids: this checks a discrete symmetry of
    # the solver, not the discretization (verify's spectral suite does that)
    gap = isospectral_orbit_check(spec_t03_256, spec_t07_256, 15)
    report("grid-transpose symmetry t=0.3 vs 0.7, first 15 modes", gap <= 1e-2, gap, 1e-2, 15)


def test_10_headline_determinant_ratio(spec_t03_256, spec_t07_256):
    est_diff = zeta_det_estimate(spec_t03_256) - zeta_det_estimate(spec_t07_256)
    formula_diff = det_value(0.3) - det_value(0.7)
    resid = abs(est_diff - formula_diff)
    report("zeta estimate vs formula, t=0.3 vs 0.7", resid <= 0.1, resid, 1e-1, 1)
