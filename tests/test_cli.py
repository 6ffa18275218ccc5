"""Command-line interface: parsing, report shape, determinism, exit codes."""

import csv
import io
import json
import math
import re
import shlex
import struct
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conetorus import cli, sigma_from_t, verify
from conetorus.cli import main, parse_complex
from conetorus.geometry import load_field
from conetorus.verify import DEFAULT_TOLERANCES, SUITES, run_suite

# "$ <argv>" lines, each followed by the stdout of that command
CORPUS = Path(__file__).with_name("cli_corpus.txt")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_complex_forms():
    cases = {
        "2": 2.0 + 0.0j,
        "-0.5": -0.5 + 0.0j,
        "i": 1.0j,
        "-i": -1.0j,
        "0.3+0.4i": 0.3 + 0.4j,
        "0.3-0.4i": 0.3 - 0.4j,
        "-1.5+2i": -1.5 + 2.0j,
        "2.5e-3i": 2.5e-3j,
        "1e2+3.5e-1i": 100.0 + 0.35j,
        " 1 + 2i ": 1.0 + 2.0j,
    }
    for text, want in cases.items():
        assert parse_complex(text) == want
    for bad in ("", "abc", "1+2j", "1J", "(1+2i)", "++i", "1\ti", "1+\n2i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(-0.0, -0.0)
@example(5e-324, -2.2250738585072014e-308)
def test_parse_complex_reads_repr_back_bit_for_bit(a, b):
    text = f"{a!r}{'+' if math.copysign(1.0, b) > 0 else ''}{b!r}i"
    z = parse_complex(text)
    assert struct.pack("<2d", z.real, z.imag) == struct.pack("<2d", a, b), text


def test_det_report_and_orbit_equality(capsys):
    code_a, out_a = run_cli(["det", "--t", "2", "--format", "json"], capsys)
    code_b, out_b = run_cli(["det", "--t", "0.5", "--format", "json"], capsys)
    assert code_a == 0 and code_b == 0
    rep_a, rep_b = json.loads(out_a), json.loads(out_b)
    assert rep_a["pass"] is True
    val_a = float(rep_a["outputs"]["log_det"])
    val_b = float(rep_b["outputs"]["log_det"])
    assert abs(val_a - val_b) <= 1e-9
    assert rep_a["outputs"]["orbit_canonical"] == rep_b["outputs"]["orbit_canonical"]


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ["det", "--t", "0.7+0.2i", "--format", "json"],
        ["orbit", "--t", "0.3+0.4i"],
        ["spectrum", "--sigma", "i", "--grid", "32", "--modes", "10", "--format", "json"],
        ["spectrum", "--t", "0.3+0.4i", "--grid", "32", "--modes", "10", "--format", "json"],
    ):
        _, first = run_cli(list(argv), capsys)
        _, second = run_cli(list(argv), capsys)
        assert first == second


def test_exit_code_2_on_domain_errors(capsys):
    assert main(["det", "--t", "1"]) == 2
    capsys.readouterr()
    assert main(["det", "--t", "0"]) == 2
    capsys.readouterr()
    assert main(["det"]) == 2  # missing --t
    capsys.readouterr()
    assert main(["sigma", "--t", "2", "--sigma", "i"]) == 2  # both charts given
    capsys.readouterr()
    assert main(["sigma"]) == 2
    capsys.readouterr()
    assert main(["spectrum", "--t", "0.3", "--grid", "48"]) == 2  # not a power of two
    capsys.readouterr()
    assert main(["verify", "--suite", "no-such-suite"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["det"], ["orbit"], ["field-dump", "--output", "field.txt"], ["sigma"], ["spectrum"],
    ["sigma", "--t", "2", "--sigma", "i"],
    ["spectrum", "--t", "0.3", "--sigma", "i", "--grid", "32"],
])
def test_missing_or_duplicated_chart_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: conetorus {argv[0]} ")


def test_orbit_member_on_a_branch_point_exits_2(capsys):
    # 1 - t and 1 / (1 - t) round to exactly 1 at |t| = 1e-18
    assert main(["orbit", "--t", "1e-18"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: branch point t must avoid 0 and 1")


@pytest.mark.parametrize("t, member", [
    ("1e308+1e308i", "1/t is -0j"),  # 1/t and 1/(1-t) underflow to zero
    ("5e-324", "1/t is (inf+0j)"),  # finite t whose reciprocal overflows
])
@pytest.mark.parametrize("command", ["det", "orbit"])
def test_orbit_that_leaves_the_double_range_exits_2(command, t, member, capsys):
    assert main([command, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: branch point t must avoid 0 and 1 over its whole "
                                   "moduli orbit, but in the orbit of t = ")
    assert captured.err.endswith(f", {member}\n")


def test_exit_code_2_on_solver_failure(wrong_eigenvalues, capsys):
    for argv in (["spectrum", "--t", "0.3+0.4i", "--grid", "32", "--modes", "10"],
                 ["verify", "--suite", "spectral"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eigenpairs not resolved")


def test_exit_code_2_on_normalization_error(monkeypatch, tmp_path, capsys):
    # a period ratio that belongs to another surface: the covering cannot
    # reproduce t and raises NormalizationError
    monkeypatch.setattr(cli, "sigma_from_t", lambda t: sigma_from_t(t + 0.1))
    out_file = str(tmp_path / "field.txt")
    for argv in (["spectrum", "--t", "0.3+0.4i", "--grid", "32", "--modes", "10"],
                 ["field-dump", "--t", "0.3+0.4i", "--grid", "32", "--output", out_file]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no half-period labeling reproduces t")


def test_cli_corpus_matches_golden_output(capsys):
    """det, orbit and sigma at ten t, text and json, against stored stdout.

    The stored output was produced by an earlier version of the package;
    any change to it must be deliberate.
    """
    blocks = re.split(r"^\$ ", CORPUS.read_text(), flags=re.M)[1:]
    assert len(blocks) == 60
    for block in blocks:
        command, _, want = block.partition("\n")
        code, out = run_cli(shlex.split(command), capsys)
        assert code == 0
        assert out == want, command


def test_sigma_subcommand_reduces(capsys):
    code, out = run_cli(["sigma", "--sigma", "5.3+0.2i", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    red = parse_complex(rep["outputs"]["reduced_sigma"])
    assert abs(red.real) <= 0.5 + 1e-9
    assert abs(red) >= 1.0 - 1e-9
    a, b, c, d = rep["outputs"]["unimodular_map"]
    assert a * d - b * c == 1
    assert "t" in rep["outputs"]


def test_sigma_subcommand_next_to_the_real_axis(capsys):
    code, out = run_cli(["sigma", "--sigma", "0.001+0.0001i", "--format", "json"], capsys)
    assert code == 0
    t = parse_complex(json.loads(out)["outputs"]["t"])
    # 50-digit mpmath value of -(theta_2 / theta_4)^4 at this sigma
    ref = -7.26592067774479e133 - 2.3358793246520213e133j
    assert abs(t - ref) <= 1e-10 * abs(ref)
    # t(1e-5 i) overflows, and t(sigma) at the second sigma lies within
    # 2^-52 of 1, where 1 - t has lost every digit: a clean exit 2, not inf
    # or 1+2.6e-28i with pass true
    for sigma in ("0.00001i", "1.0098006657784124+0.0019866933079506124i"):
        assert main(["sigma", "--sigma", sigma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: t(sigma) is not representable")


def test_orbit_subcommand(capsys):
    code, out = run_cli(["orbit", "--t", "0.3+0.4i", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    members = [parse_complex(m) for m in rep["outputs"]["members"]]
    assert len(members) == 6
    assert parse_complex(rep["outputs"]["canonical"]) in members


def test_spectrum_flat_and_curved(capsys):
    code, out = run_cli(
        ["spectrum", "--sigma", "i", "--grid", "64", "--modes", "12", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    lam = [float(v) for v in rep["outputs"]["eigenvalues"]]
    assert lam[0] == 0.0
    assert all(b >= a for a, b in zip(lam, lam[1:]))
    assert float(rep["residuals"]["zero_mode"]) <= 1e-8

    code, out = run_cli(
        ["spectrum", "--t", "0.3+0.4i", "--grid", "32", "--modes", "10", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert float(rep["outputs"]["area"]) == pytest.approx(6.283185307179586)


def test_verify_suite_pass_and_fail_exit_codes(monkeypatch, capsys):
    code, out = run_cli(["verify", "--suite", "symmetry", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    line = rep["outputs"]["checks"][0]
    assert "f_symmetry" in line and "200 checks" in line

    monkeypatch.setitem(DEFAULT_TOLERANCES, "f_symmetry", 1e-20)
    code, out = run_cli(["verify", "--suite", "symmetry", "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("suite, check, name", [
    ("symmetry", "f_symmetry", "F"),
    ("variational", "b_dual", "b_minus_inf_from_AB"),
])
def test_verify_fails_on_a_nan_residual(suite, check, name, monkeypatch, capsys):
    # Python's max(0.0, nan) is 0.0: a running max would report a pass
    monkeypatch.setattr(verify, name, lambda t: math.nan)
    code, out = run_cli(["verify", "--suite", suite, "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["residuals"][check] == "nan"
    assert [line.split()[0] for line in rep["outputs"]["checks"]].count("FAIL") == 1


@pytest.mark.parametrize("scale, passed", [(1.0 + 1e-12, True), (1.0 + 1e-8, False)])
def test_roundtrip_orbit_reports_its_distance(scale, passed, monkeypatch):
    # the residual is the worst distance from t(sigma(t)) to the orbit of t,
    # not a count of failed round trips, which reads 0 until one fails
    exact = verify.t_from_sigma
    monkeypatch.setattr(verify, "t_from_sigma", lambda sigma: exact(sigma) * scale)
    check = {c.name: c for c in verify.suite_roundtrip()}["roundtrip_orbit"]
    assert check.passed is passed
    assert 0.1 * (scale - 1.0) <= check.residual <= 10.0 * (scale - 1.0)


# (check, count, tolerance) of every suite, in report order
SUITE_CHECKS = {
    "symmetry": [("f_symmetry", 200, 1e-12)],
    "roundtrip": [("roundtrip_orbit", 50, 1e-9), ("det_orbit", 50, 1e-9),
                  ("sigma_reduction", 25, 1e-9)],
    "variational": [("b_dual", 30, 1e-8), ("variational_identity", 20, 1e-6),
                    ("prelim_consistency", 50, 1e-8)],
    "curvature": [("pushforward", 50, 1e-10), ("curvature_one", 100, 1e-6),
                  ("curvature_oracle", 20, 1e-8)],
    "spectral": [("grid_area", 1, 1e-2), ("zero_mode", 1, 1e-8), ("weyl_slope", 1, 0.05),
                 ("isospectral", 15, 1e-2)],
}


def test_suite_checks_have_their_counts_and_tolerances():
    assert sorted(SUITE_CHECKS) == sorted(SUITES)
    for suite, expected in SUITE_CHECKS.items():
        assert [(c.name, c.count, c.tolerance) for c in run_suite(suite)] == expected


@pytest.mark.parametrize("argv", [
    ["tau", "--t", "0.3"],
    ["verify", "--suite", "symmetry", "--tol", "f_symmetry=1"],
    ["verify", "--suite", "spectral", "--grid", "128"],
    ["verify", "--suite", "spectral", "--modes", "40"],
])
def test_retired_subcommand_and_verify_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: conetorus ")


@pytest.mark.parametrize("sigma", ["1e-300i", "1e160i", "1e300+1i"])
def test_spectrum_at_an_unrepresentable_flat_metric_exits_2(sigma, capsys):
    # Im sigma^2 underflows, or |sigma|^2 overflows
    assert main(["spectrum", "--sigma", sigma, "--grid", "32", "--modes", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: flat metric is not representable")


def test_csv_output_is_parseable(capsys):
    code, out = run_cli(
        ["spectrum", "--sigma", "i", "--grid", "32", "--modes", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(r) == 2 for r in rows[1:])
    keys = [r[0] for r in rows]
    assert "inputs.weight" in keys  # the value contains a comma and must stay quoted


def test_report_written_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["det", "--t", "0.3+0.4i", "--format", "json", "--output", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out_file.read_text())
    assert rep["command"] == "det"


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    for argv in (["det", "--t", "0.3", "--output", str(tmp_path / "no" / "such" / "x.txt")],
                 ["field-dump", "--t", "0.3", "--grid", "32", "--output", str(tmp_path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_field_dump_writes_loadable_grid(tmp_path, capsys):
    grid_file = tmp_path / "field.txt"
    code, out = run_cli(
        ["field-dump", "--t", "0.3+0.4i", "--grid", "32", "--output", str(grid_file)],
        capsys,
    )
    assert code == 0
    field = load_field(grid_file)
    assert field.grid_shape == (32, 32)
    assert "labeling" in out


def test_covering_accepts_large_t(tmp_path, capsys):
    # the labeling check is relative to |t|: t off by 1e-14 relative passes
    out_file = str(tmp_path / "field.txt")
    for argv in (["spectrum", "--t", "1e7-1e6i", "--grid", "32", "--modes", "10"],
                 ["field-dump", "--t", "1e8+1e8i", "--grid", "32", "--output", out_file]):
        assert run_cli(argv, capsys)[0] == 0


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
