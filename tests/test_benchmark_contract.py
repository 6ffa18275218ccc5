"""The names the benchmark in perfbench/ reaches in the package must resolve.

perfbench/tracing.py wraps each (module, attribute) of its LAYERS, and a
traced run stops with LookupError on one that no longer resolves.
perfbench/workloads.py calls the package through ``lib.<name>``, looked up
in ``conetorus`` and then ``conetorus.numdiff`` (perfbench/run.py), and
reads its gates' tolerances as ``tol["<key>"]`` from DEFAULT_TOLERANCES.
These tests only read the two files; they import nothing from perfbench/.
"""

import ast
import importlib
import re
from pathlib import Path

import conetorus
from conetorus import numdiff
from conetorus.verify import DEFAULT_TOLERANCES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_layers():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


def workload_names(pattern):
    names = set(re.findall(pattern, (PERFBENCH / "workloads.py").read_text()))
    assert names, pattern
    return sorted(names)


def test_traced_layers_resolve():
    layers = traced_layers()
    assert len(layers) >= 10
    missing = [(module, attr) for module, attr, _ in layers if not callable(
        getattr(importlib.import_module(f"conetorus.{module}"), attr, None))]
    assert missing == []


def test_workload_calls_resolve():
    missing = [name for name in workload_names(r"\blib\.(\w+)")
               if not any(callable(getattr(mod, name, None)) for mod in (conetorus, numdiff))]
    assert missing == []


def test_workload_tolerance_keys_resolve():
    assert [key for key in workload_names(r'\btol\["(\w+)"\]')
            if key not in DEFAULT_TOLERANCES] == []
