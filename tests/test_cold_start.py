"""Cold start: scipy's ARPACK is imported by the first cone-metric eigensolve, not by the package.

A fresh interpreter imports conetorus from this checkout's src/, runs the
closed-form layers, the det command and a flat spectrum, which is exact and
solves nothing, and only then the cone-metric solves: a sheared lattice
(the deck sector, no scipy.fft) and a rectangular one.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import conetorus
from conetorus import cli
conetorus.det_value(0.3 + 0.4j)
conetorus.g_orbit(0.3 + 0.4j)
conetorus.conformal_factor_on_torus(conetorus.sigma_from_t(0.3), 0.3, 32)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["det", "--t", "0.3"]) == 0
conetorus.lowest_eigenvalues(conetorus.flat_operator(1j, 32), 10)
assert conetorus.__file__.startswith(sys.argv[1]), conetorus.__file__
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:3]
t = 0.3 + 0.4j
conetorus.lowest_eigenvalues(conetorus.assemble(conetorus.sigma_from_t(t), t, 32), 10)
assert "scipy.sparse.linalg" in sys.modules
# the DCT/DST transforms load with the first solve of a rectangular lattice
assert "scipy.fft" not in sys.modules
conetorus.lowest_eigenvalues(conetorus.assemble(conetorus.sigma_from_t(0.3), 0.3, 32), 10)
assert "scipy.fft" in sys.modules
"""


def test_scipy_loads_on_the_first_eigensolve_only():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
