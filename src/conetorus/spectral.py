"""Direct spectral verification of the determinant formula.

The curved Laplacian of the cone metric e^(2 phi) |dz|^2 on the torus
C / (Z + sigma Z) is realized as a generalized symmetric eigenproblem

    K psi = lambda W psi,

where K is the flat Laplacian in sheared coordinates z = p + sigma q
(five-point stencil plus the cross-derivative term of the constant
parallelogram metric) and W is the diagonal of conformal-factor samples.
Keeping the degenerate weight at the cone point as-is selects the
Friedrichs extension: the quadratic form is the plain Dirichlet form on
grid functions, with no boundary condition inserted at the puncture.

K is a periodic constant-coefficient stencil, diagonal under the 2-d DFT,
and is stored as its symbol: the eigensolver runs Lanczos on FFT matvecs
and never forms a matrix.

The deck involution z -> -z of the double cover of the sphere is, on the
cell-centred grid, reversal of the flattened array.  K (its symbol is even
in frequency) and W (made exactly reversal-symmetric by ``assemble``)
commute with it, so the spectrum is the union of an even and an odd
sector.  A cone metric's even sector is the round sphere modulo {+-z, +-1/z}
at every t, with its spectrum in closed form (``_even_spectrum``): only
the odd sector is solved, on its own grid values (``_deck_sector``).  The
flat torus has a constant weight: its spectrum is the symbol over it.

For real t in (0, 1) the lattice is rectangular (Re sigma = 0) and complex
conjugation lifts to the torus too: K and W also commute with row reversal
p -> -p, which ``assemble`` makes exact.  On grids with even sides the odd
sector is then cosine-sine plus sine-cosine parity along the two axes, each
solved on the (n1/2 x n2/2) quarter grid, where K is diagonal in the
orthonormal DCT-II/DST-II basis (``_reflection_sector``, scipy.fft).

Eigenvalues feed three cross-checks: the Weyl counting slope (area / 4 pi),
isospectrality across a moduli-group orbit, and a coarse estimate of
-zeta'(0) from a tail-completed spectral zeta.

scipy's ARPACK (``scipy.sparse.linalg``, most of the package's import time)
is imported on the first cone-metric solve, not with this module, so the
closed-form layers, flat spectra and the CLI commands that solve nothing
start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .detformula import DetValue
from .errors import ConvergenceError, DomainError
from .geometry import conformal_factor_on_torus, grid_pair
from .moduli import g_orbit, validate_t
from .specialfn import as_sigma

__all__ = [
    "AssembledOperator",
    "SpectrumResult",
    "assemble",
    "flat_operator",
    "lowest_eigenvalues",
    "weyl_check",
    "isospectral_orbit_check",
    "zeta_det_estimate",
]

# (p, q) parities of the deck-odd sectors of row and column reversal: 0 is
# the cosine (DCT-II) basis along that axis, 1 the sine (DST-II) basis
_REFLECTION_SECTORS = ((0, 1), (1, 0))
# lowest eigenpairs of each sector whose residual every solve measures
_CHECKED_PAIRS = 2

# zeta_det_estimate averages over cutoffs in this top fraction of the modes
_AVERAGE_WINDOW = 0.25


def eigsh(a, k=6, which="LM", v0=None, tol=0):
    """scipy.sparse.linalg.eigsh, imported on the first call and passed the arguments."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(a, k=k, which=which, v0=v0, tol=tol)


@dataclass
class AssembledOperator:
    """Stiffness/weight pair of the discretized eigenproblem.

    ``stiffness`` is the symbol of K: its eigenvalue at each frequency of
    the rfft2 half-spectrum, shape (n1, n2 // 2 + 1), zero only at (0, 0).
    ``area`` is the exact metric area and ``zeta0`` the exact value of the
    spectral zeta at s = 0 (heat-trace constant minus the zero mode); both
    are known in closed form for the two metrics assembled here and anchor
    the Weyl tail of the zeta estimator.
    """

    stiffness: np.ndarray
    weight: np.ndarray
    sigma: complex
    t: complex | None
    grid_shape: tuple[int, int]
    area: float
    zeta0: float


class SolverDiagnostics(NamedTuple):
    """How one solve went; ``[0]`` and ``[1]`` are residual and matvecs.

    ``residual`` is the largest relative residual
    |K psi - lambda W psi| / |lambda W psi| over the checked eigenpairs
    (the two lowest of each solved sector); ``matvecs`` is the number of
    applications of one sector's operator, summed over all sectors and
    re-solves; ``sectors`` counts the solved sectors, 1 (deck involution) or
    2 (row and column reversal) for a cone metric and 0 for the flat torus;
    ``resolves`` counts the coverage guard's re-solves.
    """

    residual: float
    matvecs: int
    sectors: int
    resolves: int


class _Sector(NamedTuple):
    """One symmetry sector, on the grid values its Lanczos run works on.

    ``weight`` is W on those values, ``mult`` the number of grid points
    each of them stands for (D), ``full`` extends them to the whole grid by
    the sector's parity and ``inv_k`` applies K^+ within the sector.
    """

    start: np.ndarray
    weight: np.ndarray
    mult: float
    full: Callable
    inv_k: Callable


@dataclass
class SpectrumResult:
    """Eigenvalues of one discretization, with solver diagnostics.

    ``eigenvalues`` is ascending, zero mode first: a flat torus's are the
    symbol's, a cone metric's deck-even ones the continuum's and its
    deck-odd ones the grid's.  ``diagnostics`` is a SolverDiagnostics.
    """

    eigenvalues: np.ndarray
    grid_shape: tuple[int, int]
    sigma: complex
    t: complex | None
    diagnostics: SolverDiagnostics
    area: float
    zeta0: float
    seed: int = 0


def _flat_symbol(sigma: complex, n1: int, n2: int) -> np.ndarray:
    """Symbol of the negative flat Laplacian on the sheared periodic grid.

    In coordinates (p, q) with z = p + sigma q the flat metric has inverse
    g^pp = |sigma|^2 / (Im sigma)^2, g^qq = 1 / (Im sigma)^2,
    g^pq = -Re sigma / (Im sigma)^2, and
    -Lap = -(g^pp d_pp + 2 g^pq d_pq + g^qq d_qq).  Periodic second
    differences and products of central first differences have the symbol
        4 g^pp n1^2 sin^2(th_j/2) + 4 g^qq n2^2 sin^2(th_k/2)
        + 2 g^pq n1 n2 sin th_j sin th_k,
    th_j = 2 pi j / n1, th_k = 2 pi k / n2, on the rfft2 half k <= n2 // 2,
    with row j holding the signed frequency j - n1 for j > n1 / 2.  Against
    2 pi j / n1 near 2 pi, this keeps the low frequencies' relative accuracy
    (the entries move by up to 8.3e-15 relative at 128^2).
    """
    y2 = sigma.imag * sigma.imag
    try:
        gpp, gqq = abs(sigma) ** 2 / y2, 1.0 / y2
    except (OverflowError, ZeroDivisionError):
        gpp = gqq = math.inf
    # a finite positive g^qq also bounds flat_operator's weight 1 / Im sigma
    if not (0.0 < gpp < math.inf and 0.0 < gqq < math.inf):
        raise DomainError(f"flat metric is not representable in double precision at {sigma}")
    gpq = -sigma.real / y2
    # signed frequencies: rows j and n1 - j of the symbol are then exactly
    # equal whenever the cross term vanishes
    f = np.arange(n1)
    th_j = 2.0 * math.pi * np.where(2 * f > n1, f - n1, f) / n1
    th_k = 2.0 * math.pi * np.arange(n2 // 2 + 1) / n2
    return (4.0 * gpp * n1 * n1 * np.sin(th_j / 2.0)[:, None] ** 2
            + 4.0 * gqq * n2 * n2 * np.sin(th_k / 2.0)[None, :] ** 2
            + 2.0 * gpq * n1 * n2 * np.sin(th_j)[:, None] * np.sin(th_k)[None, :])


def _fourier_multiply(symbol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the periodic operator with the given half-spectrum symbol to a grid."""
    return np.fft.irfft2(np.fft.rfft2(x) * symbol, s=x.shape)


def assemble(sigma, t, grid_shape) -> AssembledOperator:
    """Discretize the cone-metric eigenproblem on an n1 x n2 periodic grid.

    Returns the symbol of the flat Dirichlet form's stiffness and the
    diagonal weight of conformal-factor samples, averaged with its reversal
    so that it is exactly even under the deck involution.  On a rectangular
    lattice (Re sigma == 0, real t in (0, 1)) the metric is also even under
    z -> conj(z), and the weight is averaged with its row reversal as well,
    unless that moves a sample by more than 1e-13 relative (the sampled
    asymmetry is <= 1.3e-15).  The weight vanishes quadratically at the cone
    and is kept as sampled (Friedrichs extension): O(h^2) beside it, 1.6e-32
    on a sample at it (grid (33, 35), t = 0.3+0.4i).
    """
    s = as_sigma(sigma)
    tc = validate_t(t)
    field = conformal_factor_on_torus(s, tc, grid_shape)
    w = field.values.reshape(-1)
    w = 0.5 * (w + w[::-1])
    if s.real == 0.0:
        rows = w.reshape(field.grid_shape)
        even = 0.5 * (rows + rows[::-1])
        # the average of two deck-even arrays related by row reversal stays deck-even
        if np.all(np.abs(even - rows) <= 1e-13 * rows):
            w = even.reshape(-1)
    return AssembledOperator(
        stiffness=_flat_symbol(s, *field.grid_shape),
        weight=w,
        sigma=s,
        t=tc,
        grid_shape=field.grid_shape,
        # curvature one and a single 4 pi cone: area 2 pi, and
        # zeta(0) = area/(12 pi) + (1/12)(2 pi/gamma - gamma/2 pi) - 1
        area=2.0 * math.pi,
        zeta0=1.0 / 6.0 - 1.0 / 8.0 - 1.0,
    )


def flat_operator(sigma, grid_shape) -> AssembledOperator:
    """Stiffness/weight pair of the flat unit-area torus, for calibration.

    The constant weight is 1 / Im sigma, so the continuum spectrum is
    4 pi^2 |m + n sigma|^2 / Im sigma over integer pairs.
    """
    s = as_sigma(sigma)
    n1, n2 = grid_pair(grid_shape)
    w = np.full(n1 * n2, 1.0 / s.imag)
    return AssembledOperator(
        stiffness=_flat_symbol(s, n1, n2), weight=w, sigma=s, t=None, grid_shape=(n1, n2),
        area=1.0, zeta0=-1.0,
    )


def _unfolded_symbol(symbol: np.ndarray, n2: int) -> np.ndarray:
    """An even symbol's values: its rfft2 half-spectrum and its mirrored columns 0 < k < n2/2."""
    return np.concatenate((symbol.ravel(), symbol[:, 1:(n2 + 1) // 2].ravel()))


def _inv_symbol(symbol: np.ndarray) -> np.ndarray:
    """K^+ on the given entries of its symbol: 1 / symbol, and 0 on the constant mode."""
    inv = np.zeros(symbol.shape)
    np.divide(1.0, symbol, out=inv, where=symbol > 0.0)
    return inv


def _deck_sector(op: AssembledOperator, v0: np.ndarray, inv_symbol: np.ndarray) -> _Sector:
    """The odd sector of the deck involution, on the first h = n // 2 grid values.

    Reversal of the flattened grid pairs entry i with n - 1 - i, so an odd
    vector is fixed by its first h entries, each standing for two grid
    points; on odd n it vanishes at the middle entry, its own mirror.
    inv_symbol is K^+ on op.stiffness.
    """
    n1, n2 = op.grid_shape
    h = n1 * n2 // 2

    def full(x):
        y = np.zeros(n1 * n2)
        y[:h] = x
        y[::-1][:h] = -x
        return y.reshape(n1, n2)

    return _Sector(v0.ravel()[:h], op.weight[:h], 2.0, full,
                   lambda x: _fourier_multiply(inv_symbol, full(x)).ravel()[:h])


def _reflection_sector(op: AssembledOperator, parity, v0: np.ndarray,
                       inv_symbol: np.ndarray) -> _Sector:
    """The sector of the parities (a, b) under row and column reversal, p -> -p and q -> -q.

    Its vectors are fixed by their values on the quarter grid j < n1/2,
    k < n2/2, each standing for four grid points.  Extended to the whole
    grid by the parity, the orthonormal DCT-II (parity 0) or DST-II
    (parity 1) basis along each axis gives the modes cos 2 pi f p_j
    (0 <= f < n1/2) or sin 2 pi f p_j (0 < f <= n1/2), likewise along q, so
    K is diagonal there with the entries op.stiffness[a:a + n1/2, b:b + n2/2].
    inv_symbol is K^+ on op.stiffness.
    """
    from scipy import fft

    n1, n2 = op.grid_shape
    h1, h2 = n1 // 2, n2 // 2
    a, b = parity
    forward, inverse = (fft.dct, fft.dst), (fft.idct, fft.idst)
    inv_symbol = inv_symbol[a:a + h1, b:b + h2]

    def inv_k(x):
        c = forward[a](forward[b](x.reshape(h1, h2), axis=1, norm="ortho"), axis=0, norm="ortho")
        x = inverse[b](inv_symbol * c, axis=1, norm="ortho")
        return inverse[a](x, axis=0, norm="ortho").ravel()

    def full(x):
        x = x.reshape(h1, h2)
        x = np.concatenate((x, (1 - 2 * a) * x[::-1]), axis=0)
        return np.concatenate((x, (1 - 2 * b) * x[:, ::-1]), axis=1)

    start = v0[a * h1:(a + 1) * h1, b * h2:(b + 1) * h2].ravel()
    weight = op.weight.reshape(n1, n2)[:h1, :h2].ravel()
    return _Sector(start, weight, 4.0, full, inv_k)


def _reflection_even(op: AssembledOperator) -> bool:
    """True when K and W commute exactly with row reversal p -> -p (and so with q -> -q)."""
    n1, n2 = op.grid_shape
    rows = op.weight.reshape(n1, n2)
    return (n1 % 2 == 0 and n2 % 2 == 0
            and np.array_equal(op.stiffness[1:], op.stiffness[:0:-1])
            and np.array_equal(rows, rows[::-1]))


def _even_spectrum(count: int) -> np.ndarray:
    """The lowest count eigenvalues of a cone metric's deck-even half, zero mode first.

    The quotient of the torus by z -> -z (area pi, curvature one, smooth over
    the cone, with cone points of angle pi over the half periods) is the round
    sphere modulo {+-z, +-1/z}: l (l + 1) at multiplicity (2 l + 1 + 3 (-1)^l) / 4,
    whatever t is.  Degrees l <= 2 sqrt(count) + 2 hold at least count modes.
    """
    ls = np.arange(2 * math.isqrt(count) + 3)
    return np.repeat(ls * (ls + 1.0), (2 * ls + 1 + 3 * (-1) ** ls) // 4)[:count]


def lowest_eigenvalues(op: AssembledOperator, m: int, seed: int = 0) -> SpectrumResult:
    """First m eigenvalues (zero mode included) of K psi = lambda W psi.

    With t None the weight must be constant (the flat torus), and the
    eigenvalues are the symbol's values over it.  With t set it must be the
    cone metric that ``assemble`` builds, solved by ``_odd_spectrum``.
    Requires 10 <= m <= (number of grid points) / 10 and a weight exactly
    even under the reversal (DomainError otherwise).
    """
    n1, n2 = op.grid_shape
    n = n1 * n2
    if m < 10:
        raise DomainError("ask for at least 10 modes; fewer are not meaningful here")
    if m > n // 10:
        raise DomainError(f"m = {m} too large for a {n1}x{n2} grid; "
                          "need m <= grid points / 10")
    if not np.array_equal(op.weight, op.weight[::-1]):
        raise DomainError("weight must be exactly even under the deck involution "
                          "(reversal of the flattened grid)")
    symbol = op.stiffness
    if symbol[0, 0] != 0.0 or not np.all(symbol.ravel()[1:] > 0.0):
        raise ConvergenceError("stiffness symbol must be 0 at frequency (0, 0), > 0 elsewhere")
    if op.t is not None:
        lam, diagnostics = _odd_spectrum(op, m, seed)
    elif np.all(op.weight == op.weight[0]):
        lam = np.sort(_unfolded_symbol(symbol, n2))[:m] / op.weight[0]
        diagnostics = SolverDiagnostics(0.0, 0, 0, 0)
    else:
        raise DomainError("a flat torus (t None) needs a constant weight")
    return SpectrumResult(
        eigenvalues=lam,
        grid_shape=op.grid_shape,
        sigma=op.sigma,
        t=op.t,
        diagnostics=diagnostics,
        area=op.area,
        zeta0=op.zeta0,
        seed=seed,
    )


def _odd_spectrum(op: AssembledOperator, m: int, seed: int) -> tuple[np.ndarray, SolverDiagnostics]:
    """A cone metric's lowest m eigenvalues, and the SolverDiagnostics of their solve.

    The deck-even half is ``_even_spectrum(m)``, the deck-odd half the
    reciprocals of the top eigenvalues of B = W^(1/2) K^+ W^(1/2) on the odd
    sectors of the module docstring.  With S = 2 or 4, twice their number,
    each gets one seeded Lanczos run for ceil((m - 1) / S) + S modes on its
    grid values x, each standing for D grid points: with out = sqrt(D w) and
    inn = out / D, B is x -> out K^+ (inn x), and psi = full(K^+ (inn x)).

    Coverage guard: a sector of k modes whose largest computed eigenvalue
    lies below the merged cutoff could miss a mode below it.  With c merged
    modes above its top, it is solved again with k + c + 1, up to its
    dimension less one, and ConvergenceError is raised if even that does not
    cover the cutoff.  The two lowest eigenpairs of each solved sector must
    have a residual below 1e-8, measured with K and W on the full grid.
    """
    # with eigsh, the first solve of a process imports scipy's ARPACK
    from scipy.sparse.linalg import LinearOperator

    w = op.weight.reshape(op.grid_shape)
    v0 = np.random.default_rng(seed).standard_normal(op.grid_shape)
    inv_symbol = _inv_symbol(op.stiffness)
    sectors = ([_reflection_sector(op, parity, v0, inv_symbol) for parity in _REFLECTION_SECTORS]
               if _reflection_even(op) else [_deck_sector(op, v0, inv_symbol)])
    known = _even_spectrum(m)
    matvecs = resolves = 0

    def solve_sector(sector, k):
        dim = sector.start.size
        out = np.sqrt(sector.mult * sector.weight)
        inn = out / sector.mult

        def apply_b(x):
            nonlocal matvecs
            matvecs += 1
            return out * sector.inv_k(inn * x)

        b_op = LinearOperator((dim, dim), matvec=apply_b, dtype=np.float64)
        mu, vecs = eigsh(b_op, k=k, which="LA", v0=sector.start, tol=0.0)
        if not np.all(mu > 0.0):
            raise ConvergenceError("spectral gap not resolved; got a nonpositive lambda")
        lam_s = 1.0 / mu
        residual = 0.0
        # ascending mu: the lowest eigenpairs come last
        for lam_j, x in zip(lam_s[-_CHECKED_PAIRS:], vecs.T[-_CHECKED_PAIRS:]):
            psi = sector.full(sector.inv_k(inn * x))
            w_psi = lam_j * w * psi
            gap = _fourier_multiply(op.stiffness, psi) - w_psi
            residual = max(residual, float(np.linalg.norm(gap) / np.linalg.norm(w_psi)))
        return lam_s, residual

    # ceil((m - 1) / S) + S modes from each solved sector; eigsh needs k < dim
    family = 2 * len(sectors)
    k_first = -(-(m - 1) // family) + family
    ks = [min(k_first, sector.start.size - 1) for sector in sectors]
    solved = [solve_sector(sector, k) for sector, k in zip(sectors, ks)]
    while True:
        lam = np.sort(np.concatenate([known, *(lam_s for lam_s, _ in solved)]))[:m]
        short = [i for i, (lam_s, _) in enumerate(solved) if lam_s.max() < lam[-1]]
        if not short:
            break
        for i in short:
            k_max = sectors[i].start.size - 1
            if ks[i] >= k_max:
                raise ConvergenceError("a parity sector cannot cover the requested modes")
            # the merged modes at or below this sector's top are true modes
            # below the cutoff, so at most c - 1 of its missing ones are too
            c = int(np.count_nonzero(lam > solved[i][0].max()))
            ks[i] = min(ks[i] + c + 1, k_max)
            solved[i] = solve_sector(sectors[i], ks[i])
            resolves += 1

    residual = max(r for _, r in solved)
    if not residual <= 1.0e-8:
        raise ConvergenceError(f"eigenpairs not resolved: relative residual {residual:.3e}")
    return lam, SolverDiagnostics(residual, matvecs, len(sectors), resolves)


def weyl_check(spec: SpectrumResult) -> float:
    """Slope of the eigenvalue counting function, expected area / (4 pi).

    Least-squares line through the staircase midpoints k - 1/2 against
    lambda_k (k counts nonzero modes from 1), skipping k < 5 where the
    staircase is too coarse.  Needs at least 30 nonzero modes.
    """
    lam = spec.eigenvalues[1:]
    if lam.size < 30:
        raise DomainError("Weyl slope needs at least 30 nonzero modes")
    ks = np.arange(1, lam.size + 1, dtype=np.float64)
    return float(np.polyfit(lam[4:], ks[4:] - 0.5, 1)[0])


def isospectral_orbit_check(spec_a: SpectrumResult, spec_b: SpectrumResult, m: int) -> float:
    """Largest relative gap between the first m nonzero modes of two spectra.

    spec_b.t must be a member of the moduli orbit of spec_a.t, where the
    two discretizations describe the same surface and differ only by
    discretization error.  A flat spectrum (t is None) has no orbit and is
    rejected.
    """
    if spec_a.t is None or spec_b.t is None:
        raise DomainError("isospectral check needs two cone-metric spectra; a flat one has no t")
    if not any(abs(spec_b.t - mem) <= 1e-12 * max(1.0, abs(mem))
               for mem in g_orbit(spec_a.t).members):
        raise DomainError("spec_b.t is not in the moduli orbit of spec_a.t")
    if not 1 <= m < min(spec_a.eigenvalues.size, spec_b.eigenvalues.size):
        raise DomainError(f"m = {m}: need m >= 1 and both spectra holding m nonzero modes")
    la, lb = spec_a.eigenvalues[1:m + 1], spec_b.eigenvalues[1:m + 1]
    return float(np.max(np.abs(la - lb) / la))


def zeta_det_estimate(spec: SpectrumResult, coarse: SpectrumResult | None = None) -> DetValue:
    """Coarse -zeta'(0) from the computed part of the spectrum.

    The zeta function is split at a cutoff into the exact sum over the
    computed nonzero eigenvalues and a Weyl tail.  Replacing the tail
    staircase by its midpoint line slope * lambda + zeta0, with the slope
    area / (4 pi) and the intercept zeta(0) both known exactly from heat
    invariants, the tail integral continues to s = 0 in closed form and

        -zeta'(0) ~ sum_{k <= M} log lambda_k - slope C (log C - 1),
        slope C = M - zeta(0).

    (On a spectrum whose staircase follows the midpoint line exactly this
    is Stirling-exact up to O(1/M).)  Number-theoretic staircase
    oscillation is damped by averaging the estimate over cutoffs in the top
    quarter of the computed range.  No parameter is fitted; nothing anchors
    the absolute scale beyond the heat invariants.

    ``coarse``, a spectrum of the same problem (equal sigma, t, area and
    zeta0) at half the grid and the same mode count, switches on h^2
    Richardson elimination of the eigenvalue discretization bias (which
    grows like M^2 h^2 and does not cancel between different moduli).  The
    staircase-oscillation part of the error is a property of the continuum
    spectrum and survives: this is a coarse estimator, only good to roughly
    0.1 in the log, and best used in differences at matched grid and mode
    count.
    """
    if coarse is not None:
        if coarse.eigenvalues.size != spec.eigenvalues.size:
            raise DomainError("coarse spectrum must hold the same number of modes")
        if 2 * coarse.grid_shape[0] != spec.grid_shape[0] or \
                2 * coarse.grid_shape[1] != spec.grid_shape[1]:
            raise DomainError("coarse spectrum must come from the half-resolution grid")
        if (coarse.sigma, coarse.t, coarse.area, coarse.zeta0) != \
                (spec.sigma, spec.t, spec.area, spec.zeta0):
            raise DomainError("coarse spectrum must come from the same surface "
                              "(sigma, t, area and zeta0)")
        fine_val = zeta_det_estimate(spec).log_value
        coarse_val = zeta_det_estimate(coarse).log_value
        return DetValue(log_value=(4.0 * fine_val - coarse_val) / 3.0,
                        up_to_constant=False)
    lam = spec.eigenvalues[1:]
    m = lam.size
    if m < 50:
        raise DomainError("zeta estimate needs at least 50 nonzero modes")
    slope = spec.area / (4.0 * math.pi)
    # consistency of the exact Weyl line with the computed staircase
    drift = abs(slope * lam[-1] - (m - spec.zeta0))
    if drift > 0.2 * m:
        raise ConvergenceError(
            f"Weyl tail inconsistent with the computed spectrum: counting "
            f"drift {drift:.1f} at mode {m}"
        )
    logs = np.cumsum(np.log(lam))
    m_lo = max(10, int(math.ceil((1.0 - _AVERAGE_WINDOW) * m)))
    ests = []
    for m_cut in range(m_lo, m + 1):
        cut = (m_cut - spec.zeta0) / slope
        ests.append(logs[m_cut - 1] - slope * cut * (math.log(cut) - 1.0))
    return DetValue(log_value=float(np.mean(ests)), up_to_constant=False)
