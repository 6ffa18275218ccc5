"""Sphere metric, quarter-disk chart, torus covering, and the sampled
conformal factor.

The pushforward identity rho(w(z)) |w'(z)|^2 = 4 / (1 + |z|^2)^2 is exact
and pins the metric normalization; curvature one and the 2 pi area are the
derived checks downstream of it.  The sampled conformal factor is checked
against rho(mu) |mu'|^2 with mu' from the theta series at 50 digits.
"""

import cmath
import math
from itertools import permutations

import mpmath
import numpy as np
import pytest

from conetorus import (
    ConformalField,
    TorusCovering,
    conformal_factor_on_torus,
    conformal_map,
    conformal_map_prime,
    g_orbit,
    gauss_curvature,
    load_field,
    metric_rho,
    round_sphere_density,
    save_field,
    sigma_from_t,
)
from conetorus import geometry
from conetorus.errors import DomainError, NormalizationError
from conetorus.geometry import _e2phi_from_cover, _grid_coords
from conetorus.numdiff import laplacian5


def quarter_disk_points(rng, n):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        if 0.05 < abs(z) < 0.95:
            out.append(z)
    return out


def test_pushforward_identity():
    rng = np.random.default_rng(41)
    for z in quarter_disk_points(rng, 50):
        w = conformal_map(z)
        lhs = metric_rho(w) * abs(conformal_map_prime(z)) ** 2
        rhs = round_sphere_density(z)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_chart_corner_values():
    assert abs(conformal_map(1j) - 0.0) <= 1e-15
    assert abs(conformal_map(0.0) - 1.0) <= 1e-15
    # the pole at z = 1 is guarded
    with pytest.raises(DomainError):
        conformal_map(1.0)
    with pytest.raises(DomainError):
        conformal_map_prime(-1.0)


def test_curvature_at_fixed_points():
    assert abs(gauss_curvature(2.0 + 1.0j) - 1.0) <= 1e-6
    assert abs(gauss_curvature(-3.0 + 0.0j) - 1.0) <= 1e-6


def test_curvature_random_points_default_step():
    rng = np.random.default_rng(42)
    count = 0
    while count < 40:
        w = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if abs(w) < 0.3 or abs(w - 1.0) < 0.3:
            continue
        assert abs(gauss_curvature(w) - 1.0) <= 1e-6
        count += 1


def test_curvature_round_metric_oracle():
    # same stencil on the round density must return exactly curvature one;
    # step larger than the metric_rho case since roundoff, not truncation,
    # limits the accuracy here
    rng = np.random.default_rng(43)
    for _ in range(10):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))

        def log_density(p):
            return math.log(round_sphere_density(p))

        k = -laplacian5(log_density, z, 5e-3) / (2.0 * round_sphere_density(z))
        assert abs(k - 1.0) <= 1e-8


def test_curvature_step_guard():
    with pytest.raises(DomainError):
        gauss_curvature(1.0 + 1e-4j)


def test_metric_rho_branch_free():
    # both square-root branches give the same density
    rng = np.random.default_rng(44)
    for _ in range(20):
        w = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if abs(w) < 0.1 or abs(w - 1.0) < 0.1:
            continue
        r = cmath.sqrt(w)
        direct = 1.0 / (abs(w) * abs(w - 1.0) * (abs(r + 1.0) + abs(r - 1.0)) ** 2)
        flipped = 1.0 / (abs(w) * abs(w - 1.0) * (abs(-r + 1.0) + abs(-r - 1.0)) ** 2)
        assert direct == flipped
        assert abs(metric_rho(w) - direct) <= 1e-15 * direct
    with pytest.raises(DomainError):
        metric_rho(0.0)


def test_covering_periodicity_and_evenness():
    t = 0.3 + 0.4j
    sig = sigma_from_t(t).sigma
    cov = TorusCovering(sig, t)
    rng = np.random.default_rng(45)
    for _ in range(15):
        z = complex(rng.uniform(0.05, 0.95), 0.0) + sig * rng.uniform(0.05, 0.95)
        base = cov.mu(z)
        assert abs(cov.mu(z + 1.0) - base) <= 1e-10 * max(1.0, abs(base))
        assert abs(cov.mu(z + sig) - base) <= 1e-10 * max(1.0, abs(base))
        assert abs(cov.mu(-z) - base) <= 1e-10 * max(1.0, abs(base))


def test_covering_branch_values():
    rng = np.random.default_rng(46)
    for _ in range(5):
        t = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.2, 1.2))
        if abs(t) < 0.3 or abs(t - 1.0) < 0.3:
            continue
        cov = TorusCovering(sigma_from_t(t), t)
        assert abs(cov.recovered_t - t) <= 1e-8 * max(1.0, abs(t))
        points = cov.branch_points()
        assert cmath.isinf(points[0j])
        finite = [v for v in points.values() if cmath.isfinite(v)]
        assert min(abs(v - 0.0) for v in finite) <= 1e-12
        assert min(abs(v - 1.0) for v in finite) <= 1e-12
        assert min(abs(v - t) for v in finite) <= 1e-8 * max(1.0, abs(t))


def test_covering_local_structure():
    # double pole at 0, quadratic branching at the cone point
    t = 0.3 + 0.4j
    sig = sigma_from_t(t).sigma
    cov = TorusCovering(sig, t)
    d = 1e-4 * cmath.exp(0.7j)
    pole_a = cov.mu(d) * d * d
    pole_b = cov.mu(d / 2.0) * (d / 2.0) ** 2
    assert abs(pole_a - pole_b) <= 1e-6 * abs(pole_a)
    z0 = cov.cone_point
    dev_a = cov.mu(z0 + d) - t
    dev_b = cov.mu(z0 + d / 2.0) - t
    assert abs(dev_a / dev_b - 4.0) <= 1e-5


def test_covering_map_preimage_pair():
    t = -0.7 + 0.9j
    sig = sigma_from_t(t).sigma
    z = 0.31 + sig * 0.18
    cov = TorusCovering(sig, t)
    w = cov.mu(z)
    # z and -z are the two sheet preimages of a generic value; they are
    # distinct mod the lattice since 2z = 0.62 + 0.36 sigma is not a period
    assert abs(cov.mu(-z) - w) <= 1e-10 * max(1.0, abs(w))


def test_cone_slope_of_conformal_factor():
    # e^(2 phi) vanishes quadratically at the cone point: radial log-log
    # slope 2 within 2 percent
    t = 0.3 + 0.4j
    sig = sigma_from_t(t).sigma
    cov = TorusCovering(sig, t)
    z0 = cov.cone_point
    rng = np.random.default_rng(47)
    radii = np.geomspace(1e-3, 1e-2, 8)
    for theta in rng.uniform(0.0, 2.0 * math.pi, 5):
        zs = z0 + radii * np.exp(1j * theta)
        vals = _e2phi_from_cover(cov, lambda i: cov._theta(i, zs))
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert abs(slope - 2.0) <= 0.04


def _mp_theta_and_prime(a, b, z, sigma):
    """theta[a,b](z | sigma) and its z-derivative by direct summation."""
    # Im z reaches 1.5 Im sigma on the grid, which moves the largest term
    # to n = -1 or -2; the margin leaves the tail below 1e-80
    val = der = mpmath.mpc(0)
    n_max = int(mpmath.sqrt(60 / sigma.imag)) + 4
    for n in range(-n_max, n_max + 1):
        h = n + mpmath.mpf(a) / 2
        term = mpmath.exp(1j * mpmath.pi * (h * h * sigma + 2 * h * (z + mpmath.mpf(b) / 2)))
        val += term
        der += 2j * mpmath.pi * h * term
    return val, der


def _mp_wp_and_prime(z, sigma):
    t11, d11 = _mp_theta_and_prime(1, 1, z + sigma / 2, sigma)
    t01, d01 = _mp_theta_and_prime(0, 1, z + sigma / 2, sigma)
    return (t11 / t01) ** 2, 2 * t11 * (d11 * t01 - t11 * d01) / t01**3


def _mp_conformal_factor(sigma, t, zs):
    """rho(mu) |mu'|^2 at 50 digits, with mu' from the theta series.

    The half periods over 0, 1 and t are labelled afresh: the labeling
    whose branch value lies closest to t.
    """
    with mpmath.workdps(50):
        s = mpmath.mpc(sigma)
        e = [_mp_wp_and_prime(h, s)[0] for h in (mpmath.mpf(1) / 2, s / 2, (1 + s) / 2)]
        ea, eb, _ = min(permutations(e), key=lambda p: abs((p[2] - p[0]) / (p[1] - p[0]) - t))
        out = []
        for z in zs:
            wp, wp_d = _mp_wp_and_prime(mpmath.mpc(z), s)
            mu, mu_d = (wp - ea) / (eb - ea), wp_d / (eb - ea)
            r = mpmath.sqrt(mu)
            rho = 1 / (abs(mu) * abs(mu - 1) * (abs(r + 1) + abs(r - 1)) ** 2)
            out.append(float(rho * abs(mu_d) ** 2))
    return np.array(out)


def _oracle_gap(sigma, t, n=256):
    """Largest relative error of the sampled factor against the oracle.

    Cells: next to the cone, next to the pole, where |mu| is closest to
    1e3, and a generic one.
    """
    field = conformal_factor_on_torus(sigma, t, n)
    p, q = _grid_coords(n, n)
    z = p[:, None] + sigma * q[None, :]
    mu = np.abs(TorusCovering(sigma, t).mu(z))
    cells = [
        field.singular_points[0][0],
        (0, 0),
        np.unravel_index(np.argmin(np.abs(mu - 1.0e3)), mu.shape),
        (n // 3, n // 6),
    ]
    got = np.array([field.values[c] for c in cells])
    ref = _mp_conformal_factor(sigma, t, [z[c] for c in cells])
    return float(np.max(np.abs(got - ref) / ref))


def _cone_on_each_half_period(t):
    """sigma(t) with one orbit member of t per half period carrying the cone."""
    sigma = sigma_from_t(t).sigma
    by_cone = {TorusCovering(sigma, m).cone_point: m for m in g_orbit(t).members}
    assert len(by_cone) == 3
    return sigma, list(by_cone.values())


def test_conformal_factor_matches_mpmath_oracle():
    cases = [(sigma_from_t(t).sigma, t) for t in (0.3 + 0.25j, 0.999 - 0.01j, 30.0 - 20.0j, 0.02)]
    sigma, members = _cone_on_each_half_period(0.3 + 0.25j)
    cases += [(sigma, m) for m in members]
    for sigma, t in cases:
        assert _oracle_gap(sigma, t) <= 1e-9, (sigma, t)


def test_conformal_factor_oracle_next_to_the_cone_at_1024():
    # the cone cell is where a difference mu - t used to cancel: 7.2e-9 there
    t = 0.999 - 0.01j
    assert _oracle_gap(sigma_from_t(t).sigma, t, n=1024) <= 1e-11


def test_conformal_factor_oracle_rejects_theta00_numerator(monkeypatch):
    # the numerator takes theta[0,0](z) whatever half period carries the cone
    exact = geometry._e2phi_from_cover

    def mutant(cov, theta_at):
        i00 = [char for _, char in cov._LABELS_AND_CHARS].index((0, 0))
        wrong = theta_at(i00) / theta_at(cov._ic)
        return exact(cov, theta_at) * np.abs(wrong) ** 2

    monkeypatch.setattr(geometry, "_e2phi_from_cover", mutant)
    sigma, members = _cone_on_each_half_period(0.3 + 0.25j)
    gaps = sorted(_oracle_gap(sigma, m) for m in members)
    assert gaps[0] <= 1e-9 and gaps[1] > 1e-2


# |t| from 1e-9 to 1e12, next to 1, and the orbit's fixed points 1/2, -1, 2, e^(i pi/3)
LABELING_T = [0.3 + 0.25j, 0.5, -1.0, 2.0, cmath.exp(1j * math.pi / 3), 1e-6 + 2e-6j,
              3e-9 - 1e-9j, 1e7 - 1e6j, 1e8 + 1e8j, 7e11 + 1e11j, 0.999 - 0.01j,
              1.0 + 2e-7j, 30.0 - 20.0j, 0.02, -3.0 + 0.01j, 1e-4j]


def test_covering_accepts_every_orbit_member_at_any_scale():
    for t in LABELING_T:
        sigma = sigma_from_t(t).sigma
        for m in g_orbit(t).members:
            assert abs(TorusCovering(sigma, m).recovered_t - m) <= 1e-12 * abs(m), (t, m)


def test_covering_rejects_a_period_ratio_of_a_nearby_t():
    for t in LABELING_T:
        for m in g_orbit(t).members:
            with pytest.raises(NormalizationError):
                TorusCovering(sigma_from_t(m * (1.0 + 1e-6)), m)


def test_area_converges_to_2pi():
    t = 0.3 + 0.4j
    field = conformal_factor_on_torus(sigma_from_t(t), t, 64)
    assert abs(field.area() - 2.0 * math.pi) <= 1e-9
    # non-square grids are allowed
    field_ns = conformal_factor_on_torus(sigma_from_t(t), t, (64, 32))
    assert abs(field_ns.area() - 2.0 * math.pi) <= 1e-7


def test_field_values_and_singular_cell():
    t = 0.3 + 0.4j
    field = conformal_factor_on_torus(sigma_from_t(t), t, 64)
    assert field.values.shape == (64, 64)
    assert np.all(field.values > 0.0)
    ((j, k), order), = field.singular_points
    assert order == 2
    jm, km = np.unravel_index(np.argmin(field.values), field.values.shape)
    dj = min(abs(jm - j), 64 - abs(jm - j))
    dk = min(abs(km - k), 64 - abs(km - k))
    assert max(dj, dk) <= 1  # the smallest sample sits next to the cone
    assert field.values[j, k] <= 10.0 * field.values[jm, km]
    assert field.values[j, k] <= 1e-2 * field.values.max()


def test_field_grid_guards():
    t = 0.3 + 0.4j
    with pytest.raises(DomainError):
        conformal_factor_on_torus(sigma_from_t(t), t, 16)
    with pytest.raises(NormalizationError):
        # 0.55 is not in the moduli orbit cut out by sigma(0.3 + 0.4i)
        conformal_factor_on_torus(sigma_from_t(t), 0.55 + 0.0j, 64)


def test_save_load_roundtrip(tmp_path):
    t = 2.0 + 1.0j
    field = conformal_factor_on_torus(sigma_from_t(t), t, 32)
    path = tmp_path / "field.txt"
    save_field(field, path)
    back = load_field(path)
    assert isinstance(back, ConformalField)
    assert back.sigma == field.sigma
    assert back.t == field.t
    assert back.grid_shape == field.grid_shape
    assert back.singular_points == field.singular_points
    assert back.labeling == field.labeling
    assert np.array_equal(back.values, field.values)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a grid file\n1 2 3\n")
    with pytest.raises(DomainError):
        load_field(path)
