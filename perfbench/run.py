"""conetorus benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload formula_scan --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The run

1. times ``SETUP_REPEATS`` fresh interpreters, one after another, from
   start to their first ``det_value`` (the fastest is ``setup_s``),
2. warms every layer once on small inputs,
3. repeats passes of the workload until the next one would overrun
   ``--seconds`` (at least one; with ``--trace 1`` untraced and traced
   passes alternate, at least one of each),
4. prints machine notes, gate residuals, failures and every metric with
   its unit, then one JSON line: correct, attempted, failed, metrics.

End-to-end timings (``--trace 0``) start from each point's fastest
repetition over the passes: their sum is the pass time ``wall_s``, and
their Harrell-Davis median and 95th percentile are the point times.  Per-layer metrics
(``--trace 1``) are the warm-up's spans plus the mean traced pass; the
spans are written to ``perfbench/traces/`` at the end.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# single-threaded BLAS: steadier on a small shared machine, and the load
# the numbers describe.  Set before numpy is imported, here and in children.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import conetorus; "
    "conetorus.det_value(0.3 + 0.4j); print('ready', flush=True)"
)
CHILD_TIMEOUT_S = 60.0

# tau_bergman continues arg t(t-1) along the straight path from its base
# point and raises DomainError when 2^15 subdivisions do not suffice, which
# takes a path that passes 0 or 1 within about 2^-15 of its length.  The
# region allows three times that; schiffer_b0 also moves t by up to its
# largest Wirtinger step.
TAU_BASE_POINT = 0.25 + 0.25j
BRANCH_REL_DIST = 1.0e-4
WIRTINGER_STEP = 1.0e-4


def branch_gap(t: complex) -> float:
    """Distance from 0 or 1, whichever is nearer, to the path from the base point to t."""
    d = t - TAU_BASE_POINT
    gap = math.inf
    for z in (0.0, 1.0):
        s = ((z - TAU_BASE_POINT) * d.conjugate()).real / abs(d) ** 2 if d else 0.0
        gap = min(gap, abs(TAU_BASE_POINT + min(max(s, 0.0), 1.0) * d - z))
    return gap


def near_branch_path(t: complex, slack: float = 0.0) -> bool:
    return branch_gap(t) < BRANCH_REL_DIST * abs(t - TAU_BASE_POINT) + slack


# Failures the parent commit is known to have, by gate or failing call,
# with the region where they are expected.  Anything else marks the run
# incorrect.  All of them still count in `failed`.
SMALL_T = 0.05
KNOWN_DEFECTS = {
    "b_dual": ("b_minus_inf_closed differences with a fixed step 1e-4 (ROADMAP item 4)",
               lambda t: abs(t) < SMALL_T),
    "variational_identity": ("the Wirtinger derivatives use the same fixed step 1e-4 "
                             "(ROADMAP item 4)", lambda t: abs(t) < SMALL_T),
    "det_prelim:DomainError": ("tau_bergman's sampled arg continuation gives up where its "
                               "path passes next to 0 or 1 (ROADMAP item 5)",
                               near_branch_path),
    "schiffer_b0:DomainError": ("the same continuation, at schiffer_b0's stencil points "
                                "(ROADMAP item 5)",
                                lambda t: near_branch_path(t, WIRTINGER_STEP)),
}


WORKLOAD_NAMES = ("formula_scan", "zeta_det", "spectrum_fine")


def attribute_failures(failed_points) -> tuple[dict[str, int], int]:
    """Points per failure tag, and how many failures no known defect explains."""
    tally: dict[str, int] = {}
    unexplained = 0
    for p in failed_points:
        for tag in sorted(set(p.failures)):
            tally[tag] = tally.get(tag, 0) + 1
            known = KNOWN_DEFECTS.get(tag)
            if known is None or p.t is None or not known[1](p.t):
                unexplained += 1
    return tally, unexplained


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all three in turn, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import conetorus from this checkout's src/, or exit 2."""
    if not (SRC / "conetorus" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package source at {SRC / 'conetorus'}; "
                         "run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import conetorus

    if Path(conetorus.__file__).resolve().parent != (SRC / "conetorus").resolve():
        sys.stderr.write(f"benchmark: imported conetorus from {conetorus.__file__}, "
                         "not from this checkout\n")
        sys.exit(2)
    return conetorus


def time_setup() -> float:
    """Start-to-first-det_value wall time of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                            stdout=subprocess.PIPE, text=True, env=os.environ.copy())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return elapsed


def machine_notes(np_mod, scipy_mod) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return (f"nproc={usable} cpu_count={os.cpu_count()} blas_threads={BLAS_THREADS} "
            f"cpu=\"{cpu}\" python={sys.version.split()[0]} numpy={np_mod.__version__} "
            f"scipy={scipy_mod.__version__}")


def run_window(workload, seconds: float, tracer):
    """Repeat passes until the next would end past ``seconds``.

    Returns a list of (traced, wall seconds, points).  With a tracer,
    untraced and traced passes alternate, starting untraced.
    """
    passes = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        mark = tracer.mark if traced else (lambda item: None)
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                points = workload.run_pass(index, mark)
        else:
            points = workload.run_pass(index, mark)
        passes.append((traced, time.perf_counter() - t0, points))
        index += 1
        need_more = tracer is not None and index < 2
        elapsed = time.perf_counter() - start
        typical = statistics.median(wall for _, wall, _ in passes)
        if not need_more and elapsed + typical > seconds:
            return passes


def fastest_repetitions(passes) -> list[float]:
    """Each point's fastest time over the given passes of identical work.

    The machine's speed changes in bursts of seconds; the fastest of a
    point's repetitions filters most of that out.
    """
    return [min(times) for times in zip(*([p.seconds for p in pts] for pts in passes))]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    A formula point's time jumps when tau_bergman doubles its subdivision;
    with a plain percentile the seed decides which side of such a jump p95
    lands on, and p95 moved by 0.28 of its median over ten seeds.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def end_to_end(setup_times, passes) -> dict:
    point_s = fastest_repetitions([pts for _, _, pts in passes])
    pass_s = sum(point_s)
    return {
        "setup_s": (min(setup_times), "s"),
        "wall_s": (pass_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "points_per_s": (len(point_s) / pass_s, "1/s"),
        "point_p50_ms": (hd_quantile(point_s, 0.5) * 1e3, "ms"),
        "point_p95_ms": (hd_quantile(point_s, 0.95) * 1e3, "ms"),
    }


def per_layer(tracer, passes) -> dict:
    import tracing

    traced = [i for i, (is_traced, _, _) in enumerate(passes) if is_traced]
    warm = tracing.layer_totals(tracer.spans, tracer.counts, "warmup")
    per_pass = [tracing.layer_totals(tracer.spans, tracer.counts, i) for i in traced]
    out = {}
    for key, value in warm.items():
        mean = statistics.fmean(p[key] for p in per_pass)
        unit = "s" if key.endswith("_s") else "count"
        out[key] = (value + mean, unit)
    traced_wall = sum(fastest_repetitions([pts for t, _, pts in passes if t]))
    untraced_wall = sum(fastest_repetitions([pts for t, _, pts in passes if not t]))
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("benchmark: --seconds must be positive\n")
        return 2
    if args.workload == "all":
        # separate processes, so each peak RSS belongs to its own workload
        codes = [subprocess.call([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)])
                 for name in WORKLOAD_NAMES]
        return max(codes)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    ct = import_package()

    import json
    import warnings

    import numpy as np
    import scipy

    import gates
    import tracing
    from conetorus import numdiff
    from conetorus.errors import BranchConventionWarning
    from conetorus.verify import DEFAULT_TOLERANCES
    from workloads import WORKLOADS, Lib

    # real-axis points are part of the inputs on purpose
    warnings.simplefilter("ignore", BranchConventionWarning)

    print(f"conetorus benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine_notes(np, scipy)}")

    # the first child compiles the byte code and is not timed
    time_setup()
    setup_times = [time_setup() for _ in range(SETUP_REPEATS)]

    tracer = tracing.Tracer() if args.trace else None
    lib = Lib([ct, numdiff])
    workload = WORKLOADS[args.workload](lib, args.seed, dict(DEFAULT_TOLERANCES))
    print(f"workload: {workload.why}")
    print(f"inputs: {workload.sizes()}")

    if tracer is not None:
        tracer.mark(("warmup", 0))
        with tracer.installed():
            workload.warm()
    else:
        workload.warm()

    passes = run_window(workload, args.seconds, tracer)
    points = [p for _, _, pts in passes for p in pts]
    failed = [p for p in points if p.failures]
    print(f"passes: {len(passes)} ({sum(1 for t, _, _ in passes if t)} traced), "
          f"{len(points)} points")

    tally, unexplained = attribute_failures(failed)
    for name, resid in sorted(workload.residuals.items()):
        print(f"residual: {name} max {resid:.3e}")
    for tag, count in sorted(tally.items()):
        note = KNOWN_DEFECTS.get(tag, ("not a known defect",))[0]
        print(f"failures: {tag} {count} points  ({note})")
    if unexplained:
        print(f"failures: {unexplained} not attributed to a known defect")

    print(f"metric: fail_frac {len(failed) / len(points):.6g} ratio "
          f"({len(failed)} of {len(points)} points)")
    if "det_gap_err" in workload.extra:
        print(f"metric: det_gap_err {workload.extra['det_gap_err']:.6g} log "
              f"(gate {gates.DET_GAP_TOL})")

    if tracer is None:
        metrics = end_to_end(setup_times, passes)
    else:
        metrics = per_layer(tracer, passes)
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "passes": [[t, w] for t, w, _ in passes]})
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} {value:.6g} {unit}")

    result = {
        "correct": unexplained == 0,
        "attempted": len(points),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
