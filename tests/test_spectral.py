"""Discretized cone-metric Laplacian: flat oracle, refinement, Weyl slope,
isospectrality, and the coarse determinant estimator.

The flat torus is the exactly solvable calibration case: unit-area
eigenvalues are 4 pi^2 |m + n sigma|^2 / Im sigma over integer pairs, and
the determinant is log(Im sigma |eta|^4) with no free constant.  All
estimator contracts below were sized on those closed forms; the curved
cross-moduli check at the end compares the estimator against the determinant
formula across genuinely different surfaces.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conetorus import (
    SpectrumResult,
    assemble,
    cli,
    conformal_factor_on_torus,
    det_value,
    flat_det,
    flat_operator,
    geometry,
    isospectral_orbit_check,
    lowest_eigenvalues,
    sigma_from_t,
    spectral,
    weyl_check,
    zeta_det_estimate,
)
from conetorus.errors import ConvergenceError, DomainError
from conetorus.spectral import _fourier_multiply
from conetorus.verify import suite_spectral


def cut_modes(spec, m_keep):
    # keep the zero mode plus the first m_keep nonzero modes
    return dataclasses.replace(spec, eigenvalues=spec.eigenvalues[: m_keep + 1])


def flat_lattice_eigenvalues(sigma, count):
    vals = []
    for m in range(-20, 21):
        for n in range(-20, 21):
            vals.append(4.0 * math.pi ** 2 * abs(m + n * sigma) ** 2 / sigma.imag)
    return np.sort(np.asarray(vals))[:count]


def exact_flat_spectrum(sigma, n, m):
    """The first m discrete eigenvalues of the flat n x n operator, in closed form.

    The weight is the constant 1 / Im sigma, so the eigenvalues are the
    stiffness symbol times Im sigma.  The rfft2 half-spectrum holds each
    column 0 < k < n / 2 once for the two frequencies k and n - k.
    """
    op = flat_operator(sigma, n)
    half = op.stiffness
    full = np.concatenate((half.ravel(), half[:, 1:n // 2].ravel()))
    return SpectrumResult(
        eigenvalues=np.sort(full)[:m] * op.sigma.imag, grid_shape=op.grid_shape,
        sigma=op.sigma, t=None, diagnostics=(0.0, 0), area=op.area, zeta0=op.zeta0,
    )


def test_flat_square_torus_spectrum():
    spec = lowest_eigenvalues(flat_operator(1j, 64), 13, seed=0)
    exact = flat_lattice_eigenvalues(1j, 13)
    assert spec.eigenvalues[0] == 0.0
    rel = np.abs(spec.eigenvalues[1:] - exact[1:]) / exact[1:]
    assert rel.max() <= 5e-3
    # exact multiplicities 4, 4, 4 at lattice norms 1, 2, 4
    for block in (spec.eigenvalues[1:5], spec.eigenvalues[5:9], spec.eigenvalues[9:13]):
        assert (block.max() - block.min()) <= 1e-8 * block.max()


def test_flat_anisotropic_spectrum():
    sigma = 2j
    spec = lowest_eigenvalues(flat_operator(sigma, 64), 11, seed=0)
    exact = flat_lattice_eigenvalues(sigma, 11)
    rel = np.abs(spec.eigenvalues[1:] - exact[1:]) / exact[1:]
    assert rel.max() <= 5e-3


def test_sheared_stiffness_flat_spectrum():
    # Re sigma != 0 exercises the cross-derivative term
    sigma = 0.5 + 1.0j
    spec = lowest_eigenvalues(flat_operator(sigma, 64), 10, seed=0)
    exact = flat_lattice_eigenvalues(sigma, 10)
    rel = np.abs(spec.eigenvalues[1:] - exact[1:]) / exact[1:]
    assert rel.max() <= 5e-3


def _shift_plus(n):
    return sp.diags([np.ones(n - 1), np.ones(1)], [1, -(n - 1)], format="csr")


def sparse_stiffness(sigma, n1, n2):
    """Oracle: the stencil assembled as a sparse matrix, grid index j * n2 + k.

    Periodic second differences along p and q plus the cross term from the
    product of central first differences, with the inverse-metric
    coefficients of the sheared coordinates z = p + sigma q.
    """
    y2 = sigma.imag * sigma.imag
    gpp, gqq, gpq = abs(sigma) ** 2 / y2, 1.0 / y2, -sigma.real / y2

    def second_diff(n):
        s = _shift_plus(n)
        return (s + s.T - 2.0 * sp.identity(n, format="csr")) * float(n * n)

    def central_diff(n):
        s = _shift_plus(n)
        return (s - s.T) * (0.5 * n)

    return -(gpp * sp.kron(second_diff(n1), sp.identity(n2))
             + gqq * sp.kron(sp.identity(n1), second_diff(n2))
             + 2.0 * gpq * sp.kron(central_diff(n1), central_diff(n2))).tocsr()


def sparse_lowest(op, m):
    """Oracle: shift-invert Lanczos on the sparse stencil and the weight."""
    n1, n2 = op.grid_shape
    return sparse_sector_lowest(op, m, sp.identity(n1 * n2, format="csr"))


def parity_extension(n1, n2, sign):
    """P: the grid functions even (sign 1) or odd (-1) under the deck involution.

    Reversal of the flattened grid pairs entry i with n - 1 - i; P has one
    column per pair, holding 1 at i and sign at its mirror.  On odd n the
    middle entry is its own mirror, and only the even extension holds it.
    """
    n = n1 * n2
    half = n // 2
    h = n - half if sign > 0 else half
    rows = np.concatenate((np.arange(h), n - 1 - np.arange(half)))
    cols = np.concatenate((np.arange(h), np.arange(half)))
    vals = np.concatenate((np.ones(h), np.full(half, float(sign))))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, h))


def sparse_sector_lowest(op, m, p):
    """Oracle: the stencil and the weight restricted to the range of p (P^T K P, P^T W P)."""
    n1, n2 = op.grid_shape
    k = (p.T @ sparse_stiffness(op.sigma, n1, n2) @ p).tocsc()
    w = (p.T @ sp.diags(op.weight) @ p).tocsc()
    vals = spla.eigsh(
        k, k=m, M=w, sigma=-0.05, which="LM",
        v0=np.random.default_rng(0).standard_normal(k.shape[0]),
        return_eigenvectors=False, tol=0.0,
    )
    return np.sort(vals)


def sparse_odd_lowest(op, m):
    """Oracle: the m lowest modes of the stencil on the deck-odd grid functions."""
    return sparse_sector_lowest(op, m, parity_extension(*op.grid_shape, -1.0))


def odd_part(eigenvalues):
    """A cone spectrum less the package's exact even list, whose floats it holds as they are."""
    even = list(spectral._even_spectrum(eigenvalues.size))
    odd = []
    for v in eigenvalues:
        if v in even:
            even.remove(v)
        else:
            odd.append(v)
    return np.array(odd)


def cross_term(sigma, n1, n2):
    """The cross-derivative part of the stiffness symbol (half-spectrum)."""
    th_j = 2.0 * math.pi * np.arange(n1) / n1
    th_k = 2.0 * math.pi * np.arange(n2 // 2 + 1) / n2
    gpq = -sigma.real / sigma.imag ** 2
    return 2.0 * gpq * n1 * n2 * np.sin(th_j)[:, None] * np.sin(th_k)[None, :]


T_ORACLE = 0.3 + 0.4j  # Re sigma != 0, so the cross term is present
ORACLE_CASES = {
    "curved": lambda: assemble(sigma_from_t(T_ORACLE), T_ORACLE, 64),
    "flat": lambda: flat_operator(sigma_from_t(T_ORACLE), 64),
    "curved_64x128": lambda: assemble(sigma_from_t(T_ORACLE), T_ORACLE, (64, 128)),
    # odd sides: at 33 x 35 the reversal of the flattened grid fixes the
    # middle entry, which belongs to the even sector
    "curved_33x35": lambda: assemble(sigma_from_t(T_ORACLE), T_ORACLE, (33, 35)),
    # the cone sits on that middle entry above (weight 1.6e-32); at t = 2 it
    # lies off the grid and the middle entry has weight 27.5
    "curved_33x35_t2": lambda: assemble(sigma_from_t(2.0), 2.0, (33, 35)),
    "flat_33x35": lambda: flat_operator(0.5 + 1j, (33, 35)),
    "curved_63x64": lambda: assemble(sigma_from_t(T_ORACLE), T_ORACLE, (63, 64)),
    # real t in (0, 1): a rectangular lattice, solved in the two odd sectors
    # of row and column reversal
    "rectangular": lambda: assemble(sigma_from_t(0.3), 0.3, 64),
    "rectangular_64x128": lambda: assemble(sigma_from_t(0.3), 0.3, (64, 128)),
}


def oracle_gap(op, m=16):
    """Largest relative gap of the solve's nonzero modes to the sparse oracle's.

    A flat torus is compared with the whole stencil.  A cone metric's odd
    modes are compared with the odd-restricted stencil, and its merged list
    with the package's exact even list joined with that oracle.
    """
    fft = lowest_eigenvalues(op, m, seed=0).eigenvalues
    if op.t is None:
        return relative_gap(fft[1:], sparse_lowest(op, m)[1:])
    odd_oracle = sparse_odd_lowest(op, m)
    odd = odd_part(fft)
    merged = np.sort(np.concatenate((spectral._even_spectrum(m), odd_oracle)))[:m]
    return max(relative_gap(odd, odd_oracle[:odd.size]), relative_gap(fft[1:], merged[1:]))


def relative_gap(values, reference):
    return float(np.max(np.abs(values - reference) / reference))


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_fft_solver_matches_sparse_oracle(case):
    assert oracle_gap(ORACLE_CASES[case]()) <= 1e-10


def test_sparse_oracle_rejects_symbol_without_cross_term():
    op = ORACLE_CASES["curved"]()
    assert abs(op.sigma.real) > 0.1
    mutant = dataclasses.replace(op, stiffness=op.stiffness - cross_term(op.sigma, 64, 64))
    assert oracle_gap(mutant) > 1e-3


def test_flat_oracle_rejects_the_half_spectrum_alone(monkeypatch):
    # a flat spectrum is the symbol's values over the weight; without the
    # mirrored columns 0 < k < n2 / 2 each of those frequencies counts once
    # (measured gaps 1.47 and 1.60)
    monkeypatch.setattr(spectral, "_unfolded_symbol", lambda symbol, n2: symbol.ravel())
    for case in ("flat", "flat_33x35"):
        assert oracle_gap(ORACLE_CASES[case]()) > 1e-10


def test_flat_spectrum_needs_a_constant_weight():
    # deck-even but not constant: without t the weight cannot be a cone metric
    op = flat_operator(0.5 + 1j, 32)
    w = op.weight.copy()
    w[[0, -1]] *= 2.0
    with pytest.raises(DomainError, match="constant weight"):
        lowest_eigenvalues(dataclasses.replace(op, weight=w), 10)


DECK_SECTOR = spectral._deck_sector


def deck_sector_variant(h, sign):
    """A deck sector maker on the first h(n) flattened grid values, mirrored with the given sign.

    With h(n) = n // 2 and sign -1 it builds the package's odd sector.
    """
    def make(op, v0, inv_symbol):
        n1, n2 = op.grid_shape
        n, k = n1 * n2, h(n1 * n2)

        def full(x):
            y = np.zeros(n)
            y[:k] = x
            y[::-1][:n // 2] = sign * x[:n // 2]
            return y.reshape(n1, n2)

        return spectral._Sector(v0.ravel()[:k], op.weight[:k], 2.0, full,
                                lambda x: _fourier_multiply(inv_symbol, full(x)).ravel()[:k])
    return make


# Mutant: the odd sector's values extended by +x, so the solve runs on the
# even sector less the middle entry
EVEN_EXTENSION = deck_sector_variant(lambda n: n // 2, 1.0)
# Mutant: the middle entry of an odd grid, the reversal's fixed point, kept
# in the odd sector and counted as a mirrored pair
FIXED_POINT_AT_MULTIPLICITY_TWO = deck_sector_variant(lambda n: n - n // 2, -1.0)


def test_deck_sector_variant_builds_the_odd_sector():
    op = ORACLE_CASES["curved_33x35_t2"]()
    v0 = np.random.default_rng(0).standard_normal(op.grid_shape)
    inv_symbol = spectral._inv_symbol(op.stiffness)
    ours = deck_sector_variant(lambda n: n // 2, -1.0)(op, v0, inv_symbol)
    theirs = DECK_SECTOR(op, v0, inv_symbol)
    x = np.random.default_rng(1).standard_normal(theirs.start.size)
    assert np.array_equal(ours.start, theirs.start) and ours.mult == theirs.mult
    assert np.array_equal(ours.full(x), theirs.full(x))
    assert np.array_equal(ours.inv_k(x), theirs.inv_k(x))


def test_sparse_oracle_rejects_both_sectors_even(monkeypatch):
    # the even extension solves the even sector, which holds the constant:
    # with a nonconstant weight, B = W^1/2 K^+ W^1/2 then does not keep its
    # eigenvectors off W^1/2 1, so every cone solve on the deck path raises
    monkeypatch.setattr(spectral, "_deck_sector", EVEN_EXTENSION)
    with pytest.raises(ConvergenceError, match="residual"):
        oracle_gap(ORACLE_CASES["curved"]())


def test_sparse_oracle_rejects_the_fixed_point_at_multiplicity_two(monkeypatch):
    # the fixed point must carry weight for the mutant to show: at t = 0.3+0.4i
    # the cone sits on it and the mutant passes
    monkeypatch.setattr(spectral, "_deck_sector", FIXED_POINT_AT_MULTIPLICITY_TWO)
    with pytest.raises(ConvergenceError, match="residual"):
        oracle_gap(ORACLE_CASES["curved_33x35_t2"]())


def test_sparse_oracle_rejects_a_cosine_where_a_sine_belongs(monkeypatch):
    # the sin.cos sector built with a DCT along p solves cos.cos, which holds
    # the constant and fails the residual check as above
    monkeypatch.setattr(spectral, "_REFLECTION_SECTORS", ((0, 1), (0, 0)))
    with pytest.raises(ConvergenceError, match="residual"):
        oracle_gap(ORACLE_CASES["rectangular"]())


@pytest.mark.parametrize("t, grid, family", [
    (0.3, 64, 4), (0.02, 64, 4), (0.3, (64, 128), 4),
    (0.3 + 0.4j, 64, 2), (0.3, (33, 35), 2), (0.3, (32, 35), 2),
])
def test_sector_count(t, grid, family):
    # the cone metric solves the odd half of its sector family; the flat
    # torus of the same lattice solves nothing
    sigma = sigma_from_t(t)
    spec = lowest_eigenvalues(assemble(sigma, t, grid), 12)
    assert spec.diagnostics.sectors == family // 2
    assert spec.diagnostics.resolves == 0
    spec = lowest_eigenvalues(flat_operator(sigma, grid), 12)
    assert spec.diagnostics == (0.0, 0, 0, 0)


def test_weight_off_row_reversal_takes_the_deck_sectors():
    # deck-even but not row-even: the solve falls back to the odd deck sector
    op = ORACLE_CASES["rectangular"]()
    w = op.weight.copy()
    w[[0, -1]] = np.nextafter(w[0], np.inf)
    spec = lowest_eigenvalues(dataclasses.replace(op, weight=w), 12)
    assert spec.diagnostics.sectors == 1


def sector_maps(n1, n2, deck_sector=DECK_SECTOR):
    """Dense maps of the flat (n1, n2) torus's odd deck sector and odd quarter-grid sectors.

    The quarter-grid sectors come only on grids with two even sides.
    Yields (name, D K^+, full, D, parity gap), with ``full`` as an
    (n1 n2) x dim matrix.  The parity gap is the largest departure of its
    columns from the sector's parity: oddness under reversal of the
    flattened grid for the deck sector, under row and under column reversal
    for a quarter-grid one.
    """
    sigma = 0.5 + 1j
    op = spectral.AssembledOperator(
        stiffness=spectral._flat_symbol(sigma, n1, n2), weight=np.ones(n1 * n2), sigma=sigma,
        t=None, grid_shape=(n1, n2), area=1.0, zeta0=-1.0)
    v0 = np.zeros((n1, n2))
    inv_symbol = spectral._inv_symbol(op.stiffness)
    sectors = [("deck", deck_sector(op, v0, inv_symbol), [((0, 1), -1.0)])]
    if n1 % 2 == 0 and n2 % 2 == 0:
        sectors += [(f"quarter{a}{b}", spectral._reflection_sector(op, (a, b), v0, inv_symbol),
                     [((0,), 1 - 2 * a), ((1,), 1 - 2 * b)])
                    for a, b in spectral._REFLECTION_SECTORS]
    for name, sector, parities in sectors:
        eye = np.eye(sector.weight.size)
        dk = np.stack([sector.mult * sector.inv_k(e) for e in eye], axis=1)
        full = np.stack([sector.full(e) for e in eye], axis=-1)
        parity = max(np.abs(np.flip(full, axes) - sign * full).max() for axes, sign in parities)
        yield name, dk, full.reshape(n1 * n2, -1), sector.mult, parity


def sector_map_gaps(n1, n2, deck_sector=DECK_SECTOR):
    """Largest departures from symmetry of D K^+, from parity and from D = full^T full.

    Also returns each sector's dimension by name.
    """
    gaps = {"symmetric": 0.0, "parity": 0.0, "multiplicity": 0.0}
    fulls, mults = {}, {}
    for name, dk, full, mult, parity in sector_maps(n1, n2, deck_sector):
        gaps["symmetric"] = max(gaps["symmetric"], np.abs(dk - dk.T).max() / np.abs(dk).max())
        gaps["parity"] = max(gaps["parity"], parity)
        fulls[name], mults[name] = full, mult
    for family in ("deck", "quarter"):
        names = [name for name in fulls if name.startswith(family)]
        if names:
            # the family's extensions are orthogonal, with squared norms D
            f = np.concatenate([fulls[name] for name in names], axis=1)
            d = np.concatenate([np.full(fulls[name].shape[1], mults[name]) for name in names])
            gaps["multiplicity"] = max(gaps["multiplicity"], np.abs(f.T @ f - np.diag(d)).max())
    return gaps, {name: f.shape[1] for name, f in fulls.items()}


SECTOR_GRIDS = [(6, 8), (5, 7), (6, 7), (7, 6), (9, 9)]


@pytest.mark.parametrize("grid", SECTOR_GRIDS)
def test_sector_maps_are_symmetric_and_split_the_grid(grid):
    n1, n2 = grid
    n = n1 * n2
    gaps, dims = sector_map_gaps(n1, n2)
    assert all(gap <= 1e-13 for gap in gaps.values()), gaps
    assert dims["deck"] == n // 2
    quarters = [dims[name] for name in dims if name.startswith("quarter")]
    assert quarters == ([n // 4] * 2 if n1 % 2 == 0 and n2 % 2 == 0 else [])


def test_sector_map_check_rejects_the_fixed_point_at_multiplicity_two():
    # only grids with two odd sides have a fixed point
    for n1, n2 in ((5, 7), (9, 9)):
        gaps, _ = sector_map_gaps(n1, n2, FIXED_POINT_AT_MULTIPLICITY_TWO)
        assert gaps["symmetric"] > 0.1 and gaps["multiplicity"] == 1.0 and gaps["parity"] == 2.0


def counted_requests(monkeypatch, cut_first=0):
    """Record the k of every eigsh call; the first call asks for cut_first fewer modes."""
    ks = []
    solve = spectral.eigsh

    def counted(*args, **kwargs):
        if not ks:
            kwargs["k"] -= cut_first
        ks.append(kwargs["k"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counted)
    return ks


def test_coverage_resolve_matches_sparse_oracle(monkeypatch):
    # each odd reflection sector is asked for ceil(119 / 4) + 4 = 34 modes;
    # at t = 0.02 sin.cos holds more than that below the merged cutoff, and,
    # short of it with one merged mode above its top, is solved again with
    # 34 + 1 + 1
    ks = counted_requests(monkeypatch)
    assert oracle_gap(assemble(sigma_from_t(0.02), 0.02, 64), m=120) <= 1e-10
    assert ks == [34, 34, 36]


def test_coverage_resolve_of_a_deck_sector_matches_sparse_oracle(monkeypatch):
    # the odd deck sector asked for ceil(15 / 2) + 2 - 3 modes falls short
    # with five merged modes above its top, and is solved again with 7 + 5 + 1
    ks = counted_requests(monkeypatch, cut_first=3)
    assert oracle_gap(ORACLE_CASES["curved"]()) <= 1e-10
    assert ks == [7, 13]


def test_coverage_guard_gives_up_at_the_sector_dimension(monkeypatch):
    # the first sector's solves never reach the merged cutoff, with six
    # merged modes above their top: its k grows by 7 up to the sector
    # dimension - 1, then the solve raises instead of returning an
    # incomplete list; every other first solve (k = 7) covers
    ks = []

    def short_sector(b_op, k, **kwargs):
        ks.append(k)
        covers = len(ks) > 1 and k == 7
        lam = 2.0 + 0.01 * np.arange(k) if covers else 1.0 + 0.01 * np.arange(3)
        return np.sort(1.0 / lam), np.eye(b_op.shape[0], lam.size)

    monkeypatch.setattr(spectral, "eigsh", short_sector)
    for t, ks_expected in (
        # the odd deck sector, of dimension 512 (sheared lattice)
        (0.3 + 0.4j, [7, *range(14, 505, 7), 511]),
        # two odd reflection sectors of dimension 256 (rectangular lattice)
        (0.3, [7, 7, *range(14, 253, 7), 255]),
    ):
        ks.clear()
        with pytest.raises(ConvergenceError, match="cannot cover"):
            lowest_eigenvalues(assemble(sigma_from_t(t), t, 32), 10)
        assert ks == ks_expected


def test_assembled_weight_exactly_even():
    for t, grid in itertools.product((T_ORACLE, 0.3), (64, (33, 35))):
        op = assemble(sigma_from_t(t), t, grid)
        assert np.array_equal(op.weight, op.weight[::-1])
        raw = conformal_factor_on_torus(sigma_from_t(t), t, grid).values.ravel()
        assert np.max(np.abs(op.weight - raw) / raw) <= 1e-14
        # at real t the weight is also even under row reversal p -> -p
        rows = op.weight.reshape(op.grid_shape)
        assert np.array_equal(rows, rows[::-1]) == (t == 0.3)


def test_asymmetric_weight_rejected():
    op = ORACLE_CASES["curved"]()
    w = op.weight.copy()
    w[0] = np.nextafter(w[0], np.inf)
    with pytest.raises(DomainError):
        lowest_eigenvalues(dataclasses.replace(op, weight=w), 16)


def test_assembled_operator_structure():
    t = 0.3 + 0.4j
    op = assemble(sigma_from_t(t), t, (32, 33))
    assert op.stiffness.shape == (32, 17)
    assert op.weight.shape == (32 * 33,)
    assert np.all(op.weight > 0.0)
    # the operator K of the symbol is symmetric: <K x, y> = <x, K y>
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 32, 33))
    kx, ky = _fourier_multiply(op.stiffness, x), _fourier_multiply(op.stiffness, y)
    assert abs(np.vdot(kx, y) - np.vdot(x, ky)) <= 1e-12 * np.linalg.norm(kx) * np.linalg.norm(y)
    # constant vector is an exact kernel vector
    ones = np.ones((32, 33))
    assert np.abs(_fourier_multiply(op.stiffness, ones)).max() <= 1e-10 * ones.size
    assert op.area == pytest.approx(2.0 * math.pi)
    assert op.zeta0 == pytest.approx(1.0 / 6.0 - 1.0 / 8.0 - 1.0)


def test_wrong_eigenvalues_raise(wrong_eigenvalues):
    for t in (0.3 + 0.4j, 0.3):  # deck and reflection sectors
        with pytest.raises(ConvergenceError):
            lowest_eigenvalues(assemble(sigma_from_t(t), t, 32), 10)


@pytest.mark.parametrize("entry, value", [((3, 2), 0.0), ((5, 0), -1.0), ((0, 0), 1.0)])
def test_bad_symbol_raises(entry, value):
    op = flat_operator(0.5 + 1.0j, 32)
    op.stiffness[entry] = value
    with pytest.raises(ConvergenceError):
        lowest_eigenvalues(op, 10)


def test_mode_count_guards():
    op = flat_operator(1j, 32)
    with pytest.raises(DomainError):
        lowest_eigenvalues(op, 9)
    with pytest.raises(DomainError):
        lowest_eigenvalues(op, 200)  # above points / 10
    with pytest.raises(DomainError):
        flat_operator(1j, 16)


def test_zero_mode_clamped_and_diagnosed():
    spec = cone_spectrum(0.3 + 0.4j, 64, 12)
    assert spec.eigenvalues[0] == 0.0
    assert spec.diagnostics[0] <= 1e-8
    assert spec.diagnostics[1] > 0
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)


def test_seed_reproducibility():
    op = assemble(sigma_from_t(T_ORACLE), T_ORACLE, 64)
    a = lowest_eigenvalues(op, 12, seed=3)
    b = lowest_eigenvalues(op, 12, seed=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = lowest_eigenvalues(op, 12, seed=4)
    assert np.allclose(a.eigenvalues[1:], c.eigenvalues[1:], rtol=1e-9)


def test_spectrum_json_roundtrip(capsys):
    # the CLI's JSON report carries every SpectrumResult field, floats at 15 digits
    spec = lowest_eigenvalues(flat_operator(1j, 32), 10, seed=1)
    assert cli.main(["spectrum", "--sigma", "i", "--grid", "32", "--modes", "10",
                     "--seed", "1", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)["outputs"]

    def printed(x):
        return float(format(x, ".15g"))

    assert [float(v) for v in d["eigenvalues"]] == [printed(v) for v in spec.eigenvalues]
    assert tuple(d["grid_shape"]) == spec.grid_shape
    assert complex(*map(float, d["sigma"])) == spec.sigma
    assert d["t"] is None
    assert float(d["diagnostics"]["residual"]) == printed(spec.diagnostics[0])
    assert d["diagnostics"]["matvecs"] == spec.diagnostics[1]
    assert d["diagnostics"]["sectors"] == spec.diagnostics.sectors == 0
    assert d["diagnostics"]["resolves"] == spec.diagnostics.resolves
    assert float(d["area"]) == spec.area and float(d["zeta0"]) == spec.zeta0
    assert d["seed"] == 1


def test_eigenvalue_five_refinement():
    # second-order stencil: the fifth odd mode (the even ones are exact)
    # rises monotonically to its limit with a factor ~4 error drop per
    # refinement (measured 19.668, 19.722, 19.736)
    t = 0.3 + 0.0j
    vals = []
    for n in (64, 128, 256):
        spec = lowest_eigenvalues(assemble(sigma_from_t(t), t, n), 12, seed=0)
        vals.append(odd_part(spec.eigenvalues)[4])
    assert vals[0] < vals[1] < vals[2]
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert math.log2(d1 / d2) >= 1.0


def even_sector_gap(t):
    """Largest relative gap of the package's 12 lowest even modes to the even-restricted stencil.

    The package's even modes are its merged 64^2 spectrum less the modes of
    the odd-restricted stencil.  The stencil restricted to the deck-even
    grid functions (P^T K P, P^T W P) is solved at 64^2 and 128^2 and its
    eigenvalues Richardson-combined, which removes their h^2 error.
    """
    op = assemble(sigma_from_t(t), t, 64)
    merged = lowest_eigenvalues(op, 60).eigenvalues
    odd = sparse_odd_lowest(op, 60)
    even = np.array([v for v in merged if not np.any(np.abs(odd - v) <= 1e-9 * v)])
    assert even.size >= 13

    def oracle(n):
        op_n = assemble(sigma_from_t(t), t, n)
        return sparse_sector_lowest(op_n, 13, parity_extension(n, n, 1.0))[1:]

    richardson = (4.0 * oracle(128) - oracle(64)) / 3.0
    return relative_gap(even[1:13], richardson)


@pytest.mark.parametrize("t", [0.3 + 0.4j, 0.3 - 0.4j, 0.02, 0.999 - 0.01j, 1e-3 + 1e-3j, 2.0])
def test_even_sector_is_the_round_sphere_quotient(t):
    # measured: <= 1.2e-4, and 6.3e-4 at t = 2
    assert even_sector_gap(t) <= 2e-3


def test_even_sector_oracle_rejects_the_full_sphere_multiplicity(monkeypatch):
    # the round sphere's own multiplicity 2 l + 1, not its quotient's
    def full_sphere(count):
        ls = np.arange(2 * math.isqrt(count) + 3)
        return np.repeat(ls * (ls + 1.0), 2 * ls + 1)[:count]

    monkeypatch.setattr(spectral, "_even_spectrum", full_sphere)
    assert even_sector_gap(0.3 + 0.4j) > 2e-3


def test_even_sector_oracle_rejects_theta00_numerator(monkeypatch):
    # the numerator takes theta[0,0](z) whatever half period carries the
    # cone; at t = 2 it is another one (at the other t above the mutant is
    # exact)
    exact = geometry._e2phi_from_cover

    def mutant(cov, theta_at):
        i00 = [char for _, char in cov._LABELS_AND_CHARS].index((0, 0))
        return exact(cov, theta_at) * np.abs(theta_at(i00) / theta_at(cov._ic)) ** 2

    monkeypatch.setattr(geometry, "_e2phi_from_cover", mutant)
    assert even_sector_gap(2.0) > 2e-3


def test_first_ten_modes_grid_stability(spec_t03_256):
    t = 0.3 + 0.0j
    spec128 = lowest_eigenvalues(assemble(sigma_from_t(t), t, 128), 11, seed=0)
    fine = spec_t03_256.eigenvalues[1:11]
    rel = np.abs(spec128.eigenvalues[1:11] - fine) / fine
    assert rel.max() <= 1e-2


def test_weyl_slope_curved(spec_t03_256):
    slope = weyl_check(spec_t03_256)
    assert 0.45 <= slope <= 0.55
    # halving the mode count moves the fitted slope by well under 5 percent
    slope30 = weyl_check(cut_modes(spec_t03_256, 30))
    assert abs(slope30 - slope) <= 0.05 * slope


def test_weyl_slope_flat_unit_area():
    spec = lowest_eigenvalues(flat_operator(1j, 128), 60, seed=0)
    target = 1.0 / (4.0 * math.pi)
    assert abs(weyl_check(spec) - target) <= 0.05 * target
    # the solver reproduces the discrete spectrum known in closed form
    exact = exact_flat_spectrum(1j, 128, 60).eigenvalues
    assert spec.eigenvalues[0] == exact[0] == 0.0
    assert np.max(np.abs(spec.eigenvalues[1:] - exact[1:]) / exact[1:]) <= 1e-10


def test_weyl_needs_thirty_modes():
    spec = lowest_eigenvalues(flat_operator(1j, 64), 12, seed=0)
    with pytest.raises(DomainError):
        weyl_check(spec)


def cone_spectrum(t, grid, modes):
    return lowest_eigenvalues(assemble(sigma_from_t(t), t, grid), modes, seed=0)


def test_isospectral_two_vs_half():
    gap = isospectral_orbit_check(cone_spectrum(2.0 + 0.0j, 192, 16),
                                  cone_spectrum(0.5 + 0.0j, 192, 16), 15)
    assert gap <= 1e-2


def test_spectral_suite_isospectral_is_not_a_transpose():
    # t = 0.3 against 1/(1-t): the residual is a discretization gap, far
    # above the 3e-15 of the grid-transpose pair 0.3 / 0.7
    checks = {c.name: c for c in suite_spectral()}
    assert all(c.passed for c in checks.values())
    assert checks["isospectral"].residual > 1e-4


def test_isospectral_identity_and_guard():
    spec = cone_spectrum(0.3 + 0.4j, 64, 11)
    assert isospectral_orbit_check(spec, spec, 10) == 0.0
    with pytest.raises(DomainError):
        isospectral_orbit_check(spec, cone_spectrum(0.35 + 0.4j, 64, 11), 10)
    # the orbit guard allows 1e-12 max(1, |t|) of rounding
    moved = dataclasses.replace(spec, t=spec.t * (1.0 + 5e-13))
    assert isospectral_orbit_check(spec, moved, 10) == 0.0
    for m in (11, 0, -1):
        with pytest.raises(DomainError):
            isospectral_orbit_check(spec, spec, m)
    # a flat spectrum has no t, so no orbit
    flat = lowest_eigenvalues(flat_operator(spec.sigma, 64), 11, seed=0)
    for spec_a, spec_b in ((flat, spec), (spec, flat), (flat, flat)):
        with pytest.raises(DomainError, match="flat"):
            isospectral_orbit_check(spec_a, spec_b, 10)


def test_zeta_estimate_guards(spec_t03_256):
    small = cut_modes(spec_t03_256, 20)
    with pytest.raises(DomainError):
        zeta_det_estimate(small)
    # a wrong Weyl line is rejected: relabel the flat spectrum with the
    # curved area and the counting drift trips the tail consistency check
    flat = lowest_eigenvalues(flat_operator(1j, 128), 60, seed=0)
    bad = dataclasses.replace(flat, area=2.0 * math.pi, zeta0=-23.0 / 24.0)
    with pytest.raises(ConvergenceError):
        zeta_det_estimate(bad)


def test_zeta_richardson_input_validation():
    fine = lowest_eigenvalues(flat_operator(1j, 128), 60, seed=0)
    coarse = lowest_eigenvalues(flat_operator(1j, 64), 60, seed=0)
    with pytest.raises(DomainError):
        zeta_det_estimate(fine, cut_modes(coarse, 55))
    with pytest.raises(DomainError):
        zeta_det_estimate(fine, fine)
    est = zeta_det_estimate(fine, coarse)
    assert est.up_to_constant is False
    # a coarse spectrum of another surface
    for other in (lowest_eigenvalues(flat_operator(2j, 64), 60, seed=0),
                  dataclasses.replace(coarse, t=0.3 + 0.0j),
                  dataclasses.replace(coarse, area=2.0 * math.pi),
                  dataclasses.replace(coarse, zeta0=-23.0 / 24.0)):
        with pytest.raises(DomainError, match="same surface"):
            zeta_det_estimate(fine, other)


def test_zeta_flat_calibration_and_stability():
    # the flat discrete spectra are known in closed form (the solver is
    # checked against them in test_weyl_slope_flat_unit_area); one M=200
    # spectrum per grid serves every mode count by truncation
    pairs = {}
    for sigma, m in ((1j, 200), (2j, 150), (0.3 + 0.8j, 150)):
        pairs[sigma] = (exact_flat_spectrum(sigma, 256, m), exact_flat_spectrum(sigma, 128, m))

    def est(sigma, m):
        fine, coarse = pairs[sigma]
        return zeta_det_estimate(cut_modes(fine, m), cut_modes(coarse, m)).log_value

    # differences across moduli track the closed form within 0.1
    # (measured errors: -0.074 for 2i vs i, -0.0025 for 0.3+0.8i vs i)
    for sigma in (2j, 0.3 + 0.8j):
        est_diff = est(sigma, 150) - est(1j, 150)
        formula_diff = flat_det(sigma) - flat_det(1j)
        assert abs(est_diff - formula_diff) <= 0.1

    # doubling the mode count moves the estimate by < 0.05 (measured -0.028)
    assert abs(est(1j, 200) - est(1j, 100)) <= 0.05

    # the flat absolute normalization is also recovered coarsely
    assert abs(est(1j, 200) - flat_det(1j).log_value) <= 0.15


def test_zeta_curved_cross_moduli():
    # estimator vs formula across genuinely different surfaces
    # (measured: est diff +0.046, formula diff +0.031)
    ests = {}
    for t in (0.3 + 0.0j, 2.0 + 0.0j):
        fine = lowest_eigenvalues(assemble(sigma_from_t(t), t, 256), 150, seed=0)
        coarse = lowest_eigenvalues(assemble(sigma_from_t(t), t, 128), 150, seed=0)
        ests[t] = zeta_det_estimate(fine, coarse).log_value
    est_diff = ests[2.0 + 0.0j] - ests[0.3 + 0.0j]
    formula_diff = det_value(2.0) - det_value(0.3)
    assert abs(est_diff - formula_diff) <= 0.1
