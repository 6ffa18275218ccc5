"""Spans around the package's layer functions, recorded from outside.

A traced run replaces each layer function listed in LAYERS by a wrapper,
in every ``conetorus`` module that binds it (the package re-exports and the
``from .x import f`` bindings alike), so calls between layers are seen as
nested spans.  Nothing in the package changes and untraced runs install
nothing.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  An entry that no longer resolves stops
# the traced run: a renamed function would otherwise read as a free layer.
LAYERS = (
    ("specialfn", "theta", "specialfn.theta"),
    ("specialfn", "dedekind_eta", "specialfn.eta"),
    # sigma_from_t calls the AGM helper behind elliptic_K directly
    ("specialfn", "elliptic_K", "specialfn.elliptic_K"),
    ("specialfn", "_complete_K", "specialfn.elliptic_K"),
    ("specialfn", "reduce_to_fundamental_domain", "specialfn.reduce"),
    ("moduli", "sigma_from_t", "moduli.sigma_from_t"),
    ("moduli", "t_from_sigma", "moduli.t_from_sigma"),
    ("moduli", "g_orbit", "moduli.g_orbit"),
    ("detformula", "det_value", "detformula.det_value"),
    ("detformula", "det_prelim", "detformula.det_prelim"),
    ("detformula", "tau_bergman", "detformula.tau_bergman"),
    ("detformula", "b_minus_inf_closed", "detformula.b_minus_inf"),
    ("detformula", "b_minus_inf_from_AB", "detformula.b_minus_inf"),
    ("detformula", "schiffer_b0", "detformula.schiffer_b0"),
    ("numdiff", "wirtinger", "numdiff.wirtinger"),
    ("geometry", "conformal_factor_on_torus", "geometry.field"),
    ("spectral", "assemble", "spectral.assemble"),
    ("spectral", "flat_operator", "spectral.assemble"),
    ("spectral", "lowest_eigenvalues", "spectral.eigsolve"),
    ("spectral", "zeta_det_estimate", "spectral.zeta"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS)) + ("spectral.eigsolve_flat",)

COUNT_NAMES = ("spectral.grid_points", "spectral.stiffness_nnz", "spectral.modes")


def _eigsolve_name_and_counts(args, kwargs):
    """Split flat from curved solves and count the problem size of each."""
    op = args[0] if args else kwargs.get("op")
    m = args[1] if len(args) > 1 else kwargs.get("m", 0)
    stiffness = getattr(op, "stiffness", None)
    counts = {
        "spectral.grid_points": len(getattr(op, "weight", ())),
        "spectral.stiffness_nnz": int(getattr(stiffness, "nnz", 0)),
        "spectral.modes": int(m),
    }
    name = "spectral.eigsolve_flat" if getattr(op, "t", 0) is None else "spectral.eigsolve"
    return name, counts


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index or -1, item]; the item is the
    (pass, point) pair the workload marked last, with pass "warmup" for the
    warm-up.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, object]] = []
        self.item: tuple = ("setup", 0)
        self._stack: list[int] = []

    def mark(self, item) -> None:
        self.item = item

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "spectral.eigsolve":
                span_name, counts = _eigsolve_name_and_counts(args, kwargs)
                self.counts.extend((k, v, self.item) for k, v in counts.items())
            parent = self._stack[-1] if self._stack else -1
            rec = [span_name, time.perf_counter(), None, parent, self.item]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the LAYERS functions; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "conetorus" or key.startswith("conetorus."))]
        originals = []
        for mod_name, attr, name in LAYERS:
            home = sys.modules.get(f"conetorus.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                raise LookupError(f"traced layer conetorus.{mod_name}.{attr} not found; "
                                  "update tracing.LAYERS")
            originals.append((attr, name, original))
        saved = []
        for attr, name, original in originals:
            wrapper = self.wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": item[0],
                                     "point": item[1]}) + "\n")


def layer_totals(spans, counts, pass_label) -> dict[str, float]:
    """Busy time, self time and calls per span name over one pass's spans.

    ``<name>_s`` is the time at least one span of that name is open (nested
    spans of the same name are not counted twice); ``<name>_self_s`` is
    that time minus what child spans cover; ``<name>_calls`` counts spans.
    The COUNT_NAMES are summed over the pass's eigensolves, and
    ``trace.spans`` counts all of the pass's spans.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for n in SPAN_NAMES:
        out[f"{n}_s"] = 0.0
        out[f"{n}_self_s"] = 0.0
        out[f"{n}_calls"] = 0
    for idx, (name, start, end, parent, item) in enumerate(spans):
        if item[0] != pass_label:
            continue
        dur = end - start
        out[f"{name}_self_s"] += dur - child_time[idx]
        out[f"{name}_calls"] += 1
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            out[f"{name}_s"] += dur
    for n in COUNT_NAMES:
        out[n] = 0
    out["trace.spans"] = sum(1 for span in spans if span[4][0] == pass_label)
    for name, value, item in counts:
        if item[0] == pass_label:
            out[name] += value
    return out
