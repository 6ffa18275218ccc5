"""Geometric side of the construction: the sphere-to-sphere conformal map,
the curvature-one metric with one 4*pi cone, the degree-two covering of the
sphere by a torus, and the pulled-back conformal factor on a grid.

The base metric on the w-sphere is

    rho(w) |dw|^2,
    rho(w) = 1 / ( |w| |w-1| ( |sqrt(w)+1| + |sqrt(w)-1| )^2 )
           = 1 / ( 2 |w| |w-1| (1 + |w| + |w-1|) ),

which has curvature one away from w in {0, 1, oo}, cone angle pi at each of
0, 1, oo, and a 4*pi cone at w = t once pulled back through the covering.
The quarter-disk chart

    w(z) = ((1 + z^2) / (1 - z^2))^2

sends the corners i, 0, 1 to 0, 1, oo, and pushes the round density
4 / (1 + |z|^2)^2 forward to rho exactly.  These sphere-chart functions
(conformal_map, conformal_map_prime, metric_rho, round_sphere_density,
gauss_curvature) take one scalar point and return a Python scalar.

The covering (TorusCovering) and the pulled-back factor e^(2 phi) =
rho(mu) |mu'|^2 are written in the three even theta functions; the factor
costs two theta series per grid point, each one matrix product on the grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError, NormalizationError
from .moduli import validate_t
from .numdiff import laplacian5
from .specialfn import _theta_grid, as_sigma, theta

__all__ = [
    "conformal_map",
    "conformal_map_prime",
    "metric_rho",
    "round_sphere_density",
    "gauss_curvature",
    "TorusCovering",
    "ConformalField",
    "conformal_factor_on_torus",
    "save_field",
    "load_field",
]


def conformal_map(z) -> complex:
    """The degree-four rational map w(z) = ((1 + z^2) / (1 - z^2))^2 at a scalar z.

    On the closed quarter disk {|z| <= 1, 0 <= Arg z <= pi/2} it is a
    bijection onto the closed upper half plane; poles sit at z = +-1.
    """
    z = complex(z)
    if z == 1.0 or z == -1.0:
        raise DomainError("conformal map has poles at z = +-1")
    v = (1.0 + z * z) / (1.0 - z * z)
    return v * v


def conformal_map_prime(z) -> complex:
    """Derivative of the quarter-disk map, w'(z) = 8 z (1 + z^2) / (1 - z^2)^3, at a scalar z."""
    z = complex(z)
    if z == 1.0 or z == -1.0:
        raise DomainError("conformal map has poles at z = +-1")
    return 8.0 * z * (1.0 + z * z) / (1.0 - z * z) ** 3


def _rho_inverse(w: complex) -> float:
    """|w| |w-1| (|sqrt(w)+1| + |sqrt(w)-1|)^2 = 1 / rho(w) at a scalar w."""
    r = cmath.sqrt(w)
    return abs(w) * abs(w - 1.0) * (abs(r + 1.0) + abs(r - 1.0)) ** 2


def metric_rho(w) -> float:
    """Density of the curvature-one metric on the w-sphere, at a scalar w.

    rho(w) = 1 / ( |w| |w-1| (|sqrt(w)+1| + |sqrt(w)-1|)^2 ).  The value does
    not depend on the branch of the square root since the two choices only
    swap the summands.  Raises at the conical points w = 0, 1 where the
    density is infinite.
    """
    w = complex(w)
    if w == 0.0 or w == 1.0:
        raise DomainError("metric density is infinite at the conical points 0, 1")
    return 1.0 / _rho_inverse(w)


def round_sphere_density(z) -> float:
    """Density 4 / (1 + |z|^2)^2 of the unit round sphere in a plane chart, at a scalar z."""
    return 4.0 / (1.0 + abs(complex(z)) ** 2) ** 2


def gauss_curvature(w) -> float:
    """Gauss curvature of rho |dw|^2 at w by finite differences.

    K = -(1 / (2 rho)) Lap log rho with the Euclidean Laplacian approximated
    by the Richardson-extrapolated five-point stencil at steps h and 2h.
    The step h = 10^-3 max(1, |w|) grows with |w| because log rho flattens
    out while 1 / (2 rho) amplifies stencil roundoff.  The point must keep a
    distance of at least 10 h from the conical points 0 and 1.
    """
    wc = complex(w)
    h = 1.0e-3 * max(1.0, abs(wc))
    if min(abs(wc), abs(wc - 1.0)) < 10.0 * h:
        raise DomainError(
            f"step {h} too large at w = {wc}: the stencil reaches a conical point"
        )

    def log_rho(p: complex) -> float:
        return math.log(metric_rho(p))

    lap = laplacian5(log_rho, wc, h)
    return -lap / (2.0 * metric_rho(wc))


# largest distance, relative to |t|, between t and the chosen labeling's branch value
_MATCH_TOL = 1.0e-8
_TIE_TOL = 1.0e-12  # labelings whose distances differ by less than this tie


class TorusCovering:
    """Degree-two covering of the w-sphere by the torus C / (Z + sigma Z).

    theta_h is the even theta vanishing at the half period h, n_h = theta_h(0),
    and a, b, c are the half periods over 0, 1 and t.  Then

        mu = u / (u - v),   u = n_b^2 theta_a(z)^2,   v = n_a^2 theta_b(z)^2,
        (1 - t) u + t v = (n_a n_b / n_c)^2 theta_c(z)^2,
        t = +-(n_b / n_c)^4, minus exactly when a = (1+sigma)/2,

    so mu has its double pole at the origin.  The labeling (which half
    period goes to 0, to 1 and to t) is the one of the six whose branch
    value matches the requested t, not just up to the order-6 group.
    """

    # label of each half period and characteristic of the even theta vanishing there
    _LABELS_AND_CHARS = (("1/2", (1, 0)), ("sigma/2", (0, 1)), ("(1+sigma)/2", (0, 0)))

    def __init__(self, sigma, t):
        self.sigma = as_sigma(sigma)
        self.t = validate_t(t)

        s = self.sigma
        self._half_periods = (0.5 + 0j, s / 2.0, (1.0 + s) / 2.0)
        n = [theta(char, 0.0, s) for _, char in self._LABELS_AND_CHARS]

        def branch_value(ia, ib, ic):
            return (-1.0 if ia == 2 else 1.0) * (n[ib] / n[ic]) ** 4

        # at the orbit's fixed points two labelings reproduce t; rounding must
        # not pick one, so near-equal errors go to the earliest cone, then 0
        order = sorted(permutations(range(3)), key=lambda p: (p[2], p[0]))
        errs = {p: abs(branch_value(*p) - self.t) for p in order}
        floor = min(errs.values()) + _TIE_TOL * abs(self.t)
        ia, ib, ic = next(p for p in order if errs[p] <= floor)
        t_rec, err = branch_value(ia, ib, ic), errs[ia, ib, ic]
        if err > _MATCH_TOL * abs(self.t):
            raise NormalizationError(
                f"no half-period labeling reproduces t = {self.t}; closest "
                f"recovered value {t_rec} differs by {err:.3e} (is (sigma, t) "
                "a consistent pair?)"
            )
        self._ia, self._ib, self._ic = ia, ib, ic
        self._n_abc = (n[ia], n[ib], n[ic])
        self.recovered_t = t_rec

    def _theta(self, i, z):
        """The even theta that vanishes at half period i, at z."""
        return theta(self._LABELS_AND_CHARS[i][1], z, self.sigma)

    @property
    def labeling(self) -> str:
        """Human-readable record of the half-period assignment."""
        lab = [label for label, _ in self._LABELS_AND_CHARS]
        return f"0<-{lab[self._ia]} 1<-{lab[self._ib]} t<-{lab[self._ic]} inf<-0"

    @property
    def cone_point(self) -> complex:
        """The half period lying over w = t, where the 4*pi cone sits."""
        return self._half_periods[self._ic]

    def branch_points(self) -> dict[complex, complex]:
        """Map from ramification point on the torus to its branch value."""
        a, b, c = (self._half_periods[i] for i in (self._ia, self._ib, self._ic))
        return {0j: complex("inf"), a: 0j, b: 1 + 0j, c: self.recovered_t}

    def mu(self, z):
        """Value of the covering map at a point or array of points."""
        na, nb, _ = self._n_abc
        u = (nb * self._theta(self._ia, z)) ** 2
        v = (na * self._theta(self._ib, z)) ** 2
        return u / (u - v)


@dataclass
class ConformalField:
    """Conformal factor e^(2 phi) of the pulled-back cone metric on a grid.

    Samples live at z = (j + 1/2)/n1 + sigma (k + 1/2)/n2 (half-cell offset,
    so no sample hits a ramification point).  ``singular_points`` lists
    pairs ((j, k), order): the grid index nearest to a distinguished point
    of the metric and the local vanishing order of e^(2 phi) there.
    """

    sigma: complex
    t: complex
    grid_shape: tuple[int, int]
    values: np.ndarray
    singular_points: tuple[tuple[tuple[int, int], int], ...]
    labeling: str = ""

    def area(self) -> float:
        """Midpoint-rule area of the curved metric; tends to 2 pi."""
        n1, n2 = self.grid_shape
        return float(self.values.sum()) * self.sigma.imag / (n1 * n2)


def _grid_coords(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres p_j = (j + 1/2) / n1, q_k = (k + 1/2) / n2 of z = p_j + sigma q_k."""
    return (np.arange(n1) + 0.5) / n1, (np.arange(n2) + 0.5) / n2


def _e2phi_from_cover(cov: TorusCovering, theta_at) -> np.ndarray:
    """Pullback density rho(mu) |mu'|^2, in the notation of TorusCovering:

        e^(2 phi) = 2 pi^2 |n_a n_b n_c|^2 |theta_c|^2 / (|u| + |v| + |u - v|),

    since mu - t = (n_a n_b / n_c)^2 theta_c^2 / (u - v), theta_h = theta_at(h).
    Two theta series per point: theta_c and one of theta_a, theta_b; the theta
    relation gives the other of u, v, dividing by the larger of |t| and |1 - t|.
    The cone's double zero is theta_c's own; cancellation falls only in the denominator.
    """
    na, nb, nc = cov._n_abc
    t = cov.recovered_t
    th_c = theta_at(cov._ic)
    w = (na * nb / nc * th_c) ** 2
    if abs(t) >= abs(1.0 - t):
        u = (nb * theta_at(cov._ia)) ** 2
        v = (w - (1.0 - t) * u) / t
    else:
        v = (na * theta_at(cov._ib)) ** 2
        u = (w - t * v) / (1.0 - t)
    scale = 2.0 * math.pi**2 * abs(na * nb * nc) ** 2
    return scale * np.abs(th_c) ** 2 / (np.abs(u) + np.abs(v) + np.abs(u - v))


def grid_pair(grid_shape) -> tuple[int, int]:
    """(n1, n2) from an integer (square grid) or a pair; both at least 32."""
    if isinstance(grid_shape, int):
        n1 = n2 = grid_shape
    else:
        n1, n2 = (int(n) for n in grid_shape)
    if n1 < 32 or n2 < 32:
        raise DomainError(f"grid {n1}x{n2} too coarse; need at least 32 points per side")
    return n1, n2


def conformal_factor_on_torus(sigma, t, grid_shape) -> ConformalField:
    """Sample the conformal factor of the lifted cone metric on a torus grid.

    ``grid_shape`` is an integer for a square grid or a pair (n1, n2); both
    sides must be at least 32.  The pair (sigma, t) must describe the same
    surface, i.e. t must match one of the six branch values reachable from
    sigma (checked at construction of the covering).
    """
    s = as_sigma(sigma)
    tc = validate_t(t)
    n1, n2 = grid_pair(grid_shape)

    cov = TorusCovering(s, tc)
    p, q = _grid_coords(n1, n2)
    vals = _e2phi_from_cover(cov, lambda i: _theta_grid(cov._LABELS_AND_CHARS[i][1], p, q, s))
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise NormalizationError("conformal factor must be finite and nonnegative")

    # locate the cone in (p, q) coordinates; both lie in [0, 1)
    cone = cov.cone_point
    q_coord = cone.imag / s.imag
    p_coord = cone.real - q_coord * s.real
    j = int(np.clip(round(p_coord * n1 - 0.5), 0, n1 - 1))
    k = int(np.clip(round(q_coord * n2 - 0.5), 0, n2 - 1))

    return ConformalField(
        sigma=s,
        t=tc,
        grid_shape=(n1, n2),
        values=vals,
        singular_points=(((j, k), 2),),
        labeling=cov.labeling,
    )


_FIELD_MAGIC = "# conetorus conformal-factor grid v1"


def save_field(field: ConformalField, path) -> None:
    """Write a ConformalField as a text grid file with a self-describing header."""
    with open(path, "w") as fh:
        fh.write(_FIELD_MAGIC + "\n")
        fh.write(f"# sigma {field.sigma.real!r} {field.sigma.imag!r}\n")
        fh.write(f"# t {field.t.real!r} {field.t.imag!r}\n")
        fh.write(f"# grid {field.grid_shape[0]} {field.grid_shape[1]}\n")
        for (j, k), order in field.singular_points:
            fh.write(f"# singular {j} {k} {order}\n")
        fh.write(f"# labeling {field.labeling}\n")
        np.savetxt(fh, field.values, fmt="%.17e")


def load_field(path) -> ConformalField:
    """Read a grid file produced by save_field."""
    header: dict[str, list[str]] = {}
    singular = []
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != _FIELD_MAGIC:
            raise DomainError(f"not a conformal-factor grid file: {path}")
        pos = fh.tell()
        while True:
            line = fh.readline()
            if not line.startswith("#"):
                break
            parts = line[1:].split()
            if parts[0] == "singular":
                singular.append(((int(parts[1]), int(parts[2])), int(parts[3])))
            elif parts[0] == "labeling":
                header["labeling"] = parts[1:]
            else:
                header[parts[0]] = parts[1:]
            pos = fh.tell()
        fh.seek(pos)
        values = np.loadtxt(fh, ndmin=2)
    sigma = complex(float(header["sigma"][0]), float(header["sigma"][1]))
    t = complex(float(header["t"][0]), float(header["t"][1]))
    n1, n2 = int(header["grid"][0]), int(header["grid"][1])
    if values.shape != (n1, n2):
        raise DomainError(f"grid file body {values.shape} disagrees with header ({n1}, {n2})")
    return ConformalField(
        sigma=sigma,
        t=t,
        grid_shape=(n1, n2),
        values=values,
        singular_points=tuple(singular),
        labeling=" ".join(header.get("labeling", [])),
    )
