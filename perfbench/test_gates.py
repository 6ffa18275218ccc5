"""Every benchmark gate passes on the package and rejects a mutant.

    PYTHONPATH=src python3 -m pytest perfbench/test_gates.py

Formula gates run one formula_scan point through a ``Lib`` with one
function replaced.  Spectral gates reuse real spectra and perturb them or
the reference they are checked against.  About 10 s, most of it the
zeta_det pair at its benchmark grids.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import conetorus as ct  # noqa: E402
from conetorus import numdiff  # noqa: E402
from conetorus.verify import DEFAULT_TOLERANCES  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

T_SCAN = 1.7 + 0.6j
TOL = dict(DEFAULT_TOLERANCES)


def scan(**overrides):
    lib = workloads.Lib([ct, numdiff], **overrides)
    ref = workloads.prelim_offset(workloads.Lib([ct, numdiff]))
    return workloads.scan_point(lib, T_SCAN, TOL, ref, {}).failures


def test_formula_point_passes_unmutated():
    assert scan() == []


def _without_F(t):
    return ct.DetValue(ct.det_value(t).log_value - math.log(ct.F(t)))


@pytest.mark.parametrize("gate, overrides", [
    ("variational_identity", {"det_value": _without_F}),
    ("det_orbit", {"det_value": lambda t: ct.DetValue(ct.det_value(t).log_value
                                                      + 1e-6 * abs(t))}),
    ("roundtrip_orbit", {"t_from_sigma": lambda s: ct.t_from_sigma(s) * (1.0 + 1e-6)}),
    ("sigma_reduction", {"reduce_to_fundamental_domain": lambda s: SimpleNamespace(
        sigma=complex(s.sigma), reduced=(
            ct.reduce_to_fundamental_domain(s).reduced[0] * (1.0 + 1e-6),
            ct.reduce_to_fundamental_domain(s).reduced[1]))}),
    ("prelim_consistency", {"det_prelim": lambda t: ct.DetValue(ct.det_prelim(t).log_value
                                                                + 1e-6 * t.real)}),
    ("b_dual", {"b_minus_inf_closed": lambda t: ct.b_minus_inf_closed(t) * (1.0 + 1e-6)}),
])
def test_formula_gate_rejects_mutant(gate, overrides):
    assert gate in scan(**overrides)


@pytest.fixture(scope="module")
def zeta_pair():
    """The zeta_det pair at its benchmark grids, without seed jitter."""
    lib = workloads.Lib([ct, numdiff])
    out = []
    for t in workloads.ZETA_PAIR:
        sigma = ct.sigma_from_t(t)
        fine = ct.lowest_eigenvalues(ct.assemble(sigma, t, workloads.ZETA_GRID),
                                     workloads.ZETA_MODES)
        coarse = ct.lowest_eigenvalues(ct.assemble(sigma, t, workloads.ZETA_COARSE_GRID),
                                       workloads.ZETA_MODES)
        out.append((t, fine, lib.zeta_det_estimate(fine, coarse).log_value))
    return out


def test_det_gap_rejects_F_equal_one(zeta_pair):
    (ta, _, est_a), (tb, _, est_b) = zeta_pair
    est = est_a - est_b
    formula = ct.det_value(ta) - ct.det_value(tb)
    mutant = _without_F(ta) - _without_F(tb)
    assert gates.det_gap(est, formula)[0]
    passed, err = gates.det_gap(est, mutant)
    assert not passed and err > 2 * gates.DET_GAP_TOL


def test_weyl_rejects_stretched_spectrum(zeta_pair):
    _, fine, _ = zeta_pair[0]
    assert gates.weyl_slope(ct.weyl_check(fine), fine.area, TOL["weyl_slope"])[0]
    stretched = SimpleNamespace(eigenvalues=fine.eigenvalues * 1.25)
    assert not gates.weyl_slope(ct.weyl_check(stretched), fine.area, TOL["weyl_slope"])[0]


def test_unresolved_zero_mode_is_an_unexplained_failure():
    """The solver's own zero-mode check (ConvergenceError) fails the point."""
    import run

    def unresolved(op, m, seed=None):
        raise ct.ConvergenceError("zero mode not resolved")

    lib = workloads.Lib([ct, numdiff], lowest_eigenvalues=unresolved)
    p, est = workloads.zeta_point(lib, workloads.ZETA_PAIR[1], 0, {}, TOL)
    assert est is None and p.failures == ["spectral:ConvergenceError"]
    assert run.attribute_failures([p])[1] == 1


GRID = 64
T_FINE = 0.3 + 0.25j


@pytest.fixture(scope="module")
def flat_case():
    sigma = ct.as_sigma(ct.sigma_from_t(T_FINE))
    spec = ct.lowest_eigenvalues(ct.flat_operator(sigma, GRID), workloads.FINE_MODES)
    return sigma, spec.eigenvalues, gates.flat_symbol_terms(sigma, GRID, GRID)


def test_flat_symbol_gate(flat_case):
    sigma, eig, (pp, qq, cross) = flat_case
    exact = gates.flat_eigenvalues(sigma, pp, qq, cross)
    assert gates.flat_spectrum(eig, exact)[0]
    # eigenvalues off by 1e-8 relative are rejected
    assert not gates.flat_spectrum(eig * (1.0 + 1e-8), exact)[0]
    # a symbol without the cross term is rejected
    assert not gates.flat_spectrum(eig, gates.flat_eigenvalues(sigma, pp, qq, 0.0 * cross))[0]


def test_flat_symbol_cross_sign_is_an_equivalent_mutant(flat_case):
    """Flipping the cross term's sign maps the symbol at (j, k) to (-j, k).

    The set of eigenvalues is unchanged (the mirror torus is isometric), so
    no spectral gate can reject this mutant; the gate accepts it, and the
    test pins that down instead of claiming otherwise.
    """
    sigma, eig, (pp, qq, cross) = flat_case
    flipped = gates.flat_eigenvalues(sigma, pp, qq, -cross)
    exact = gates.flat_eigenvalues(sigma, pp, qq, cross)
    assert np.max(np.abs(flipped - exact)[1:] / exact[1:]) < 1e-13
    assert gates.flat_spectrum(eig, flipped)[0]


def test_transpose_gate_rejects_perturbed_spectrum():
    specs = [ct.lowest_eigenvalues(ct.assemble(ct.sigma_from_t(t), t, GRID),
                                   workloads.FINE_MODES).eigenvalues
             for t in (T_FINE, 1.0 - T_FINE)]
    assert gates.transpose_spectra(*specs)[0]
    assert not gates.transpose_spectra(specs[0] * (1.0 + 1e-8), specs[1])[0]


def test_scan_points_follow_the_seed():
    a = workloads.scan_points(np.random.default_rng(5))
    b = workloads.scan_points(np.random.default_rng(5))
    c = workloads.scan_points(np.random.default_rng(6))
    assert a == b and a != c and len(a) == workloads.N_POINTS
    mags = np.log10(np.abs(a))
    assert mags.min() >= -4.0 and mags.max() <= 4.0


def test_layer_totals_self_and_busy_time():
    # outer A [0, 10] holds B [1, 4], which holds a nested A [2, 3]
    a, b = "detformula.det_value", "moduli.sigma_from_t"
    spans = [[a, 0.0, 10.0, -1, (0, 0)],
             [b, 1.0, 4.0, 0, (0, 0)],
             [a, 2.0, 3.0, 1, (0, 0)],
             [a, 20.0, 21.0, -1, ("warmup", 0)]]
    out = tracing.layer_totals(spans, [("spectral.modes", 24, (0, 1))], 0)
    assert out[f"{a}_s"] == 10.0 and out[f"{a}_calls"] == 2
    assert out[f"{a}_self_s"] == 7.0 + 1.0
    assert out[f"{b}_s"] == 3.0 and out[f"{b}_self_s"] == 2.0
    assert out["spectral.modes"] == 24 and out["trace.spans"] == 3


def test_schiffer_and_wirtinger_failures_carry_their_own_tags():
    def broken(*args, **kwargs):
        raise ct.DomainError("mutant")

    assert scan(schiffer_b0=broken) == ["schiffer_b0:DomainError"]
    assert scan(wirtinger=broken) == ["wirtinger:DomainError"]


def test_domain_errors_are_known_only_next_to_the_branch_path():
    import run

    # seed 1 of formula_scan: the straight path from 1/4+i/4 passes 0 at
    # 7e-6 of its length, and tau_bergman's continuation gives up there
    grazing = -605.6497272773818 - 626.3519896601364j
    with pytest.raises(ct.DomainError):
        ct.tau_bergman(grazing)
    assert run.near_branch_path(grazing)
    assert not run.near_branch_path(T_SCAN)
    for stage in ("det_prelim", "schiffer_b0"):
        near = workloads.Point(t=grazing, failures=[f"{stage}:DomainError"])
        far = workloads.Point(t=T_SCAN, failures=[f"{stage}:DomainError"])
        assert run.attribute_failures([near])[1] == 0
        assert run.attribute_failures([far])[1] == 1
    assert run.attribute_failures(
        [workloads.Point(t=grazing, failures=["wirtinger:DomainError"])])[1] == 1


def test_unresolved_layer_stops_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("spectral", "no_such_function", "spectral.assemble"),))
    original = ct.det_value
    with pytest.raises(LookupError):
        with tracing.Tracer().installed():
            pass
    assert ct.det_value is original


def test_hd_quantile_matches_scipy():
    from scipy.stats.mstats import hdquantiles

    import run

    x = np.random.default_rng(0).lognormal(size=200)
    for q in (0.5, 0.95):
        assert run.hd_quantile(x, q) == pytest.approx(hdquantiles(x, prob=[q])[0], rel=1e-12)
    assert run.hd_quantile([3.0], 0.95) == 3.0


def test_only_known_defects_leave_the_run_correct():
    import run

    known = workloads.Point(t=1e-3 + 1e-3j, failures=["b_dual", "variational_identity"])
    outside = workloads.Point(t=2.0 + 1.0j, failures=["b_dual"])
    unknown = workloads.Point(t=0.5 + 0.5j, failures=["det_orbit"])
    assert run.attribute_failures([known]) == ({"b_dual": 1, "variational_identity": 1}, 0)
    assert run.attribute_failures([known, outside, unknown])[1] == 2
