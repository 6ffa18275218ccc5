"""Command-line interface.

Subcommands: det, sigma, orbit, spectrum, verify, field-dump.
Complex flags use the "a+bi" syntax.  Reports go to stdout as text, json,
or csv (--format); reruns are byte-identical (fixed seeds, floats printed
with 15 significant digits).  Exit status: 0 on success and all checks
passing, 1 when a verification suite fails, 2 on bad usage (a missing or
duplicated --t/--sigma included), unparseable or out-of-domain input, an
--output path that cannot be written, when a numerical scheme does not
converge, or when a constructed object fails its consistency check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .detformula import F, det_value
from .errors import ConvergenceError, DomainError, NormalizationError
from .geometry import conformal_factor_on_torus, save_field
from .moduli import g_orbit, sigma_from_t, t_from_sigma
from .spectral import assemble, flat_operator, lowest_eigenvalues
from .specialfn import reduce_to_fundamental_domain
from .verify import SUITES, run_suite

__all__ = ["main", "parse_complex"]


def parse_complex(text: str) -> complex:
    """Parse "a+bi" / "a-bi" with either part optional ("2", "i", "-0.5i"); no "j", no "("."""
    s = text.strip().replace(" ", "")
    if any(c in s for c in "jJ("):
        raise ValueError(f"cannot parse complex literal {text!r}")
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def _fmt_real(x: float) -> str:
    return format(float(x), ".15g")


def _fmt_complex(z: complex) -> str:
    re, im = _fmt_real(z.real), _fmt_real(abs(z.imag))
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def _jsonable(v):
    if isinstance(v, complex):
        return _fmt_complex(v)
    if isinstance(v, float):
        return _fmt_real(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _emit(report: dict, fmt: str, out) -> None:
    report = _jsonable(report)
    if fmt == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    flat = []

    def walk(prefix, v):
        if isinstance(v, dict):
            for k in v:
                walk(f"{prefix}.{k}" if prefix else k, v[k])
        elif isinstance(v, list):
            for i, x in enumerate(v):
                walk(f"{prefix}[{i}]", x)
        else:
            flat.append((prefix, v))

    walk("", report)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(flat)
    else:
        width = max(len(k) for k, _ in flat)
        for k, v in flat:
            out.write(f"{k:<{width}}  {v}\n")


def _power_of_two(text: str) -> int:
    n = int(text)
    if n < 32 or n > 1024 or (n & (n - 1)) != 0:
        raise argparse.ArgumentTypeError("grid must be a power of two between 32 and 1024")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conetorus",
        description="Determinant of the Laplacian on a once-conical genus-one surface.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, sigma_chart=False):
        chart = q.add_mutually_exclusive_group(required=True) if sigma_chart else q
        chart.add_argument("--t", type=parse_complex, required=not sigma_chart,
                           help='branch coordinate, complex literal like "0.3+0.4i"')
        if sigma_chart:
            chart.add_argument("--sigma", type=parse_complex,
                               help="period ratio in the upper half-plane")
        q.add_argument("--format", choices=("text", "json", "csv"), default="text")
        q.add_argument("--output", default=None, help="write the report here instead of stdout")

    add_common(sub.add_parser("det", help="log-determinant (up to a constant) at t"))
    add_common(sub.add_parser("sigma", help="period ratio from t, or reduce a given sigma"),
               sigma_chart=True)
    add_common(sub.add_parser("orbit", help="the six-element moduli orbit of t"))

    q = sub.add_parser("spectrum", help="low eigenvalues of the cone-metric Laplacian")
    add_common(q, sigma_chart=True)
    q.add_argument("--grid", type=_power_of_two, default=128)
    q.add_argument("--modes", type=int, default=40)
    q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("verify", help="run a named invariant suite")
    q.add_argument("--suite", choices=sorted(SUITES), required=True)
    q.add_argument("--format", choices=("text", "json", "csv"), default="text")
    q.add_argument("--output", default=None)

    q = sub.add_parser("field-dump", help="write the conformal-factor grid to a file")
    q.add_argument("--t", type=parse_complex, required=True)
    q.add_argument("--grid", type=_power_of_two, default=128)
    q.add_argument("--output", required=True)
    return p


def _cmd_det(args) -> dict:
    t = args.t
    sig = sigma_from_t(t)
    return {
        "inputs": {"t": t},
        "outputs": {
            "log_det": det_value(t).log_value,
            "up_to_constant": True,
            "sigma": sig.sigma,
            "F": F(t),
            "orbit_canonical": g_orbit(t).canonical,
        },
    }


def _cmd_sigma(args) -> dict:
    if args.t is not None:
        sig = sigma_from_t(args.t)
        red = reduce_to_fundamental_domain(sig.sigma)
        inputs = {"t": args.t}
    else:
        red = reduce_to_fundamental_domain(args.sigma)
        inputs = {"sigma": args.sigma}
    cur, (a, b, c, d) = red.reduced
    out = {"sigma": red.sigma, "reduced_sigma": cur, "unimodular_map": [a, b, c, d]}
    if args.t is None:
        out["t"] = t_from_sigma(red.sigma)
    return {"inputs": inputs, "outputs": out}


def _cmd_orbit(args) -> dict:
    orb = g_orbit(args.t)
    return {
        "inputs": {"t": args.t},
        "outputs": {"members": orb.members, "canonical": orb.canonical},
    }


def _cmd_spectrum(args) -> dict:
    if args.t is not None:
        op = assemble(sigma_from_t(args.t), args.t, args.grid)
        inputs = {"t": args.t, "grid": args.grid, "modes": args.modes, "seed": args.seed}
    else:
        op = flat_operator(args.sigma, args.grid)
        inputs = {"sigma": args.sigma, "grid": args.grid, "modes": args.modes,
                  "seed": args.seed, "weight": "flat, unit area"}
    spec = lowest_eigenvalues(op, args.modes, seed=args.seed)
    return {
        "inputs": inputs,
        "outputs": {
            "area": spec.area,
            "diagnostics": {"matvecs": spec.diagnostics.matvecs,
                            "residual": spec.diagnostics.residual,
                            "resolves": spec.diagnostics.resolves,
                            "sectors": spec.diagnostics.sectors},
            "eigenvalues": [float(v) for v in spec.eigenvalues],
            "grid_shape": list(spec.grid_shape),
            "seed": spec.seed,
            "sigma": [spec.sigma.real, spec.sigma.imag],
            "t": None if spec.t is None else [spec.t.real, spec.t.imag],
            "zeta0": spec.zeta0,
        },
        "residuals": {"zero_mode": spec.diagnostics.residual},
    }


def _cmd_verify(args) -> dict:
    checks = run_suite(args.suite)
    return {
        "inputs": {"suite": args.suite,
                   "tolerances": {c.name: c.tolerance for c in checks}},
        "outputs": {"checks": [c.line() for c in checks]},
        "residuals": {c.name: c.residual for c in checks},
        "pass": all(c.passed for c in checks),
    }


def _cmd_field_dump(args) -> dict:
    field = conformal_factor_on_torus(sigma_from_t(args.t), args.t, args.grid)
    save_field(field, args.output)
    return {
        "inputs": {"t": args.t, "grid": args.grid},
        "outputs": {"path": args.output, "area": field.area(),
                    "labeling": field.labeling},
    }


_COMMANDS = {
    "det": _cmd_det,
    "sigma": _cmd_sigma,
    "orbit": _cmd_orbit,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "field-dump": _cmd_field_dump,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on parse errors and 0 on --help/--version
        return int(exc.code or 0)

    try:
        report = {"command": args.command, **_COMMANDS[args.command](args)}
        report.setdefault("residuals", {})
        ok = report.setdefault("pass", True)
        out_path = getattr(args, "output", None)
        if out_path is not None and args.command != "field-dump":
            with open(out_path, "w", encoding="ascii") as fh:
                _emit(report, args.format, fh)
        else:
            _emit(report, getattr(args, "format", "text"), sys.stdout)
    except (DomainError, ValueError, ConvergenceError, NormalizationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
