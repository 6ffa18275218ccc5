"""The benchmark's workloads: seeded inputs, one pass of work, and its gates.

A pass is the unit the harness times and repeats; every pass of a run does
the same work on the same inputs.  It is a list of points (one timed item
each: a t value in ``formula_scan``, one t of the pair in ``zeta_det``, one
eigensolve in ``spectrum_fine``); every point records its wall time and the
gates it failed.  The package only ever sees the generated inputs.

Every call into the package goes through a ``Lib``, which looks each
function up at call time: the tracer's wrappers and the mutants of the
gate tests both take effect that way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import gates

# formula_scan: N points per pass, log-uniform in |t| over 10^-4 .. 10^4
N_POINTS = 200
LOG10_T_RANGE = (-4.0, 4.0)
# schiffer_b0 differences with a fixed step and documents |Im t| > 2e-4
SCHIFFER_MIN_IM = 2.0e-4
# reference point of the det_prelim - det_value offset; computed in warm-up
PRELIM_REF_T = 0.3 + 0.4j

# zeta_det: a discriminating pair (not one orbit), jittered by the seed
ZETA_PAIR = (0.02, 0.3)
ZETA_JITTER = 0.05
ZETA_GRID, ZETA_COARSE_GRID, ZETA_MODES = 128, 64, 100

# spectrum_fine: complex t, so Re sigma != 0 and the cross term is present
FINE_T_BOX = ((0.2, 0.4), (0.15, 0.35))
FINE_GRID, FINE_MODES = 256, 24

# warm-up: every layer once, on a problem too small to time
WARM_GRID, WARM_MODES = 32, 51

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Lib:
    """Package functions resolved at call time, with optional overrides."""

    def __init__(self, modules, **overrides):
        self._modules = modules
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        for mod in self._modules:
            if hasattr(mod, name):
                return getattr(mod, name)
        raise AttributeError(name)


@dataclass
class Point:
    """One timed item of a pass."""

    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    t: complex | None = None


def _fail_on_exception(point: Point, stage: str, exc: Exception) -> None:
    point.failures.append(f"{stage}:{type(exc).__name__}")


def _gate(point: Point, name: str, result: tuple[bool, float], residuals: dict) -> None:
    passed, resid = result
    residuals[name] = max(residuals.get(name, 0.0), resid)
    if not passed:
        point.failures.append(name)


def scan_points(rng) -> list[complex]:
    """N_POINTS points, log-uniform in |t| and uniform in angle, off the real axis.

    Point i sits in the i-th of N_POINTS equal slices of log|t|, at an offset the
    seed draws (the same for all slices), and at angle 2 pi frac(1/4 + i g)
    with g the golden ratio, which spreads the angles evenly.  The angles
    do not depend on the seed: tau_bergman's sampled continuation costs
    about 1/(angle to the two directions whose straight path from the base
    point passes next to 0 or 1), so a seeded angle would let a single point
    move the time of a pass by tens of percent.
    """
    u = rng.random()
    lo, hi = LOG10_T_RANGE
    out = []
    for i in range(N_POINTS):
        r = 10.0 ** (lo + (hi - lo) * (i + u) / N_POINTS)
        angle = 2.0 * math.pi * ((0.25 + i * GOLDEN) % 1.0)
        out.append(complex(r * math.cos(angle), r * math.sin(angle)))
    return out


def scan_point(lib, t: complex, tol: dict, prelim_ref: float, residuals: dict) -> Point:
    """All public calls and identity gates of formula_scan at one t."""
    p = Point(t=t)
    try:
        sigma = lib.sigma_from_t(t)
        t_back = lib.t_from_sigma(sigma)
        _gate(p, "roundtrip_orbit",
              gates.roundtrip_orbit(t_back, lib.g_orbit(t).members, tol["roundtrip_orbit"]),
              residuals)
        red = lib.reduce_to_fundamental_domain(sigma)
        point, matrix = red.reduced
        _gate(p, "sigma_reduction",
              gates.sigma_reduction(red.sigma, point, matrix, tol["sigma_reduction"]), residuals)
    except Exception as exc:  # a failed call is a failed operation, not a crash
        _fail_on_exception(p, "moduli", exc)

    det_t = None
    try:
        values = [lib.det_value(m).log_value for m in lib.g_orbit(t).members]
        det_t = values[0]
        _gate(p, "det_orbit", gates.det_orbit(values, tol["det_orbit"]), residuals)
    except Exception as exc:
        _fail_on_exception(p, "det_value", exc)

    try:
        prelim = lib.det_prelim(t).log_value
        if det_t is not None:
            _gate(p, "prelim_consistency",
                  gates.prelim_consistency(prelim - det_t, prelim_ref, tol["prelim_consistency"]),
                  residuals)
    except Exception as exc:
        _fail_on_exception(p, "det_prelim", exc)

    b_inf = None
    try:
        b_inf = lib.b_minus_inf_closed(t)
        if t.imag > 0.0:
            _gate(p, "b_dual", gates.b_dual(b_inf, lib.b_minus_inf_from_AB(t), tol["b_dual"]),
                  residuals)
    except Exception as exc:
        _fail_on_exception(p, "b_minus_inf", exc)

    if abs(t.imag) > SCHIFFER_MIN_IM and b_inf is not None:
        b0 = dlogdet = None
        try:
            b0 = lib.schiffer_b0(t)
        except Exception as exc:
            _fail_on_exception(p, "schiffer_b0", exc)
        try:
            dlogdet = lib.wirtinger(lambda z: lib.det_value(z).log_value, t)
        except Exception as exc:
            _fail_on_exception(p, "wirtinger", exc)
        if b0 is not None and dlogdet is not None:
            _gate(p, "variational_identity",
                  gates.variational_identity(dlogdet, b0, b_inf, tol["variational_identity"]),
                  residuals)
    return p


def prelim_offset(lib) -> float:
    return (lib.det_prelim(PRELIM_REF_T).log_value
            - lib.det_value(PRELIM_REF_T).log_value)


def _zero_mode(spec, residuals: dict) -> None:
    """Record the raw zero mode relative to the gap (diagnostics[0]).

    Not a gate of the benchmark: lowest_eigenvalues itself raises
    ConvergenceError above 1e-8, which counts as a spectral failure.
    """
    residuals["zero_mode"] = max(residuals.get("zero_mode", 0.0), spec.diagnostics[0])


def zeta_point(lib, t: float, solver_seed: int, residuals: dict, tol: dict):
    """Richardson zeta estimate of log det at one t; returns (Point, estimate)."""
    p = Point(t=complex(t))
    est = None
    try:
        sigma = lib.sigma_from_t(t)
        fine_op = lib.assemble(sigma, t, ZETA_GRID)
        coarse_op = lib.assemble(sigma, t, ZETA_COARSE_GRID)
        fine = lib.lowest_eigenvalues(fine_op, ZETA_MODES, seed=solver_seed)
        coarse = lib.lowest_eigenvalues(coarse_op, ZETA_MODES, seed=solver_seed)
        est = lib.zeta_det_estimate(fine, coarse).log_value
        for spec in (fine, coarse):
            _zero_mode(spec, residuals)
        _gate(p, "weyl_slope",
              gates.weyl_slope(lib.weyl_check(fine), fine.area, tol["weyl_slope"]), residuals)
    except Exception as exc:
        _fail_on_exception(p, "spectral", exc)
    return p, est


def warm_up(lib, tol: dict, solver_seed: int) -> float:
    """Call every traced layer once on small inputs; return the prelim offset.

    Keeps first-call costs out of the timed passes, and gives every
    per-layer metric a measured floor on workloads that skip the layer.
    """
    residuals: dict = {}
    offset = prelim_offset(lib)
    scan_point(lib, PRELIM_REF_T, tol, offset, residuals)
    sigma = lib.sigma_from_t(PRELIM_REF_T)
    spec = lib.lowest_eigenvalues(lib.assemble(sigma, PRELIM_REF_T, WARM_GRID), WARM_MODES,
                                  seed=solver_seed)
    lib.zeta_det_estimate(spec)
    lib.lowest_eigenvalues(lib.flat_operator(sigma, WARM_GRID), 10, seed=solver_seed)
    return offset


class Workload:
    """Base: the harness calls run_pass repeatedly with a mark callback."""

    name = ""
    why = ""

    def __init__(self, lib, seed: int, tol: dict):
        self.lib = lib
        self.tol = tol
        self.rng = np.random.default_rng(seed)
        self.solver_seed = seed % (2**32)
        self.residuals: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.prelim_ref = 0.0

    def sizes(self) -> str:
        raise NotImplementedError

    def warm(self) -> None:
        self.prelim_ref = warm_up(self.lib, self.tol, self.solver_seed)

    def run_pass(self, index: int, mark) -> list[Point]:
        raise NotImplementedError


def _timed(mark, label, fn):
    mark(label)
    start = time.perf_counter()
    point = fn()
    point.seconds = time.perf_counter() - start
    return point


class FormulaScan(Workload):
    name = "formula_scan"
    why = ("closed-formula and variational traffic: only the scalar layers "
           "(specialfn, moduli, detformula, numdiff) work")

    def __init__(self, lib, seed: int, tol: dict):
        super().__init__(lib, seed, tol)
        self.points = scan_points(self.rng)

    def sizes(self) -> str:
        return (f"N={N_POINTS} t points per pass, |t| log-uniform in 1e{LOG10_T_RANGE[0]:+.0f}"
                f"..1e{LOG10_T_RANGE[1]:+.0f} with a seeded offset, golden-ratio angles")

    def run_pass(self, index: int, mark) -> list[Point]:
        return [_timed(mark, (index, i),
                       lambda t=t: scan_point(self.lib, t, self.tol, self.prelim_ref,
                                              self.residuals))
                for i, t in enumerate(self.points)]


class ZetaDet(Workload):
    name = "zeta_det"
    why = ("the paper's spectral check of the formula: many-mode ARPACK "
           "eigensolves dominate")

    def __init__(self, lib, seed: int, tol: dict):
        super().__init__(lib, seed, tol)
        jitter = self.rng.uniform(-ZETA_JITTER, ZETA_JITTER, size=2)
        self.pair = tuple(float(t * (1.0 + j)) for t, j in zip(ZETA_PAIR, jitter))

    def sizes(self) -> str:
        return (f"pair t=({self.pair[0]:.6g}, {self.pair[1]:.6g}); grids "
                f"{ZETA_GRID}^2 and {ZETA_COARSE_GRID}^2, m={ZETA_MODES} modes each")

    def run_pass(self, index: int, mark) -> list[Point]:
        estimates = []
        points = []
        for i, t in enumerate(self.pair):
            def one(t=t):
                p, est = zeta_point(self.lib, t, self.solver_seed, self.residuals, self.tol)
                estimates.append(est)
                return p
            points.append(_timed(mark, (index, i), one))

        def compare():
            p = Point()
            try:
                formula = (self.lib.det_value(self.pair[0]).log_value
                           - self.lib.det_value(self.pair[1]).log_value)
            except Exception as exc:
                _fail_on_exception(p, "det_value", exc)
                return p
            if None not in estimates:
                passed, err = gates.det_gap(estimates[0] - estimates[1], formula)
                self.extra["det_gap_err"] = err
                if not passed:
                    p.failures.append("det_gap")
            return p

        # the comparison belongs to the pair: its time and failures go to both points
        cmp = _timed(mark, (index, len(self.pair)), compare)
        for p in points:
            p.seconds += cmp.seconds / len(points)
            p.failures.extend(cmp.failures)
        return points


class SpectrumFine(Workload):
    name = "spectrum_fine"
    why = ("the spectral layer at a fine grid with few modes: bound by the "
           "LU factor, its triangular solves and its memory")

    def __init__(self, lib, seed: int, tol: dict):
        super().__init__(lib, seed, tol)
        (x0, x1), (y0, y1) = FINE_T_BOX
        self.t = complex(self.rng.uniform(x0, x1), self.rng.uniform(y0, y1))
        self._flat_exact = None

    def sizes(self) -> str:
        return (f"t={self.t.real:.6g}{self.t.imag:+.6g}i, its image 1-t and the flat torus at "
                f"the same sigma; grid {FINE_GRID}^2, m={FINE_MODES} modes per solve")

    def warm(self) -> None:
        super().warm()
        sigma = complex(self.lib.as_sigma(self.lib.sigma_from_t(self.t)))
        self._flat_exact = gates.flat_eigenvalues(
            sigma, *gates.flat_symbol_terms(sigma, FINE_GRID, FINE_GRID))

    def run_pass(self, index: int, mark) -> list[Point]:
        lib = self.lib
        spectra = {}

        def solve(key, t):
            def one():
                p = Point(t=t)
                try:
                    if key == "flat":
                        op = lib.flat_operator(lib.sigma_from_t(self.t), FINE_GRID)
                    else:
                        op = lib.assemble(lib.sigma_from_t(t), t, FINE_GRID)
                    spec = lib.lowest_eigenvalues(op, FINE_MODES, seed=self.solver_seed)
                    spectra[key] = spec.eigenvalues
                    _zero_mode(spec, self.residuals)
                except Exception as exc:
                    _fail_on_exception(p, "spectral", exc)
                return p
            return one

        keys = (("t", self.t), ("1-t", 1.0 - self.t), ("flat", None))
        points = {key: _timed(mark, (index, i), solve(key, t))
                  for i, (key, t) in enumerate(keys)}
        if "t" in spectra and "1-t" in spectra:
            passed, resid = gates.transpose_spectra(spectra["t"], spectra["1-t"])
            self.residuals["transpose"] = max(self.residuals.get("transpose", 0.0), resid)
            if not passed:
                points["t"].failures.append("transpose")
                points["1-t"].failures.append("transpose")
        if "flat" in spectra:
            _gate(points["flat"], "flat_symbol",
                  gates.flat_spectrum(spectra["flat"], self._flat_exact), self.residuals)
        return list(points.values())


WORKLOADS = {w.name: w for w in (FormulaScan, ZetaDet, SpectrumFine)}
