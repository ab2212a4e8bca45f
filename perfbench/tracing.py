"""Per-layer spans recorded around detcouple's module-level entry points.

The tracer wraps functions from the outside: it never edits the library.
``install`` replaces each traced function in every ``detcouple`` module that
holds a reference to it (``from .sde import block_gaussians`` makes a second
reference), and ``uninstall`` puts the originals back.  A wrapper passes its
arguments and result through untouched, so tracing cannot change a number.

A span is ``(id, layer, thread_id, start, end, parent, nested, op)``.
``parent`` is the id of the enclosing span on the same thread (None at a
thread's root).  ``nested`` marks a span inside another span of the same
layer; busy time sums only the outermost ones, so no layer counts twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time

# layer -> (module, attribute paths).  A path "Class.method" wraps a method.
LAYERS = {
    "profiles.eval": ("detcouple.profiles", ("DistanceProfile.eval",)),
    "profiles.admissibility": ("detcouple.profiles", ("check_admissibility",)),
    "sde.simulate": ("detcouple.sde", ("simulate_ensemble",)),
    "sde.kernel": ("detcouple.sde", ("_advance_batch",)),
    "sde.distance": ("detcouple.sde", ("_unit_distance",)),
    "sde.noise": ("detcouple.sde", ("block_gaussians",)),
    "coupling.matrices": ("detcouple.coupling",
                          ("euclidean_matrices", "sphere_matrices", "hyperbolic_matrices")),
    "verify.scan": ("detcouple.verify", ("identity_scan",)),
    "verify.oracle": ("detcouple.verify", ("rotation_ensemble",)),
    "cli.write_csv": ("detcouple.cli", ("write_paths_csv",)),
    "cli.write_json": ("detcouple.cli", ("write_summary_json",)),
}


def _csv_bytes(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return {"cli.csv_bytes": os.path.getsize(path)}


# counters read at a layer boundary after the call returns
COUNTERS = {"cli.write_csv": _csv_bytes}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []            # (op, name, value)
        self.op = None
        self.untraced = []          # "layer: reason" for names that were missing
        self._local = threading.local()
        self._ids = itertools.count()   # next() on a count is atomic under the GIL
        self._patches = []          # (owner, attribute, original)

    # -- install / uninstall ------------------------------------------------

    def install(self, op: int) -> None:
        self.op = op
        self.untraced = []
        for layer, (modname, paths) in LAYERS.items():
            for path in paths:
                try:
                    self._wrap(layer, modname, path)
                except (ImportError, AttributeError) as exc:
                    self.untraced.append(f"{layer}: {modname}.{path} ({exc.__class__.__name__})")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.op = None

    def _wrap(self, layer: str, modname: str, path: str) -> None:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        wrapper = self._make_wrapper(layer, original)
        if outer:
            self._patch(owner, attr, original, wrapper)
            return
        # every detcouple module that imported the function by name
        for mname, module in list(sys.modules.items()):
            if mname == "detcouple" or mname.startswith("detcouple."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _make_wrapper(self, layer, original):
        counter = COUNTERS.get(layer)
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            nested = any(name == layer for _, name in stack)
            sid = next(ids)
            stack.append((sid, layer))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, layer, threading.get_ident(), start, end, parent, nested,
                              self.op))
                if counter is not None and not nested:
                    for name, value in counter(args, kwargs).items():
                        self.counts.append((self.op, name, value))

        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, op: int) -> dict:
        """Busy seconds, call counts and counters of one traced operation."""
        busy = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        workers = set()     # threads that ran stepping work inside simulate_ensemble
        for _sid, layer, tid, start, end, _parent, nested, span_op in self.spans:
            if span_op != op or nested:
                continue
            busy[layer] += end - start
            calls[layer] += 1
            if layer.startswith("sde.") and layer != "sde.simulate":
                workers.add(tid)
        out = {f"{layer}_s": busy[layer] for layer in LAYERS}
        out.update({f"{layer}_calls": calls[layer] for layer in LAYERS})
        out["sde.workers"] = len(workers)
        out["cli.csv_bytes"] = sum(v for o, name, v in self.counts
                                   if o == op and name == "cli.csv_bytes")
        return out

    def span_records(self, op: int) -> list:
        keys = ("id", "layer", "thread", "start", "end", "parent", "nested", "op")
        return [dict(zip(keys, s)) for s in self.spans if s[-1] == op]
