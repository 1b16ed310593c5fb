"""Spans around the calls into each layer, for the benchmark's traced run.

The tracer wraps, from outside the library, every public function of each
``l2torsion`` module, a few methods, and the ``numpy.linalg`` functions the
library calls. A span records its op, its parent span, its name, start and
end. Spans stay in memory until the run ends. A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans of an op add up to the op's wall time.

Only the traced run installs the wrappers. End-to-end metrics come from
runs without them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cellular", "torsion", "extcoh", "spectral", "detline", "backends",
          "serialize")
# (module, class, method) wrapped on the class, so every instance sees them
METHODS = (
    ("backends", "Morphism", "standardized_blocks"),
    ("backends", "SubObject", "compress"),
    ("extcoh", "ChainComplexC", "laplacian"),
    ("cellular", "Representation", "unimodular_defect"),
)
# constructions are spans named after the class; ChainComplexC runs d^2 = 0
CONSTRUCTORS = (("extcoh", "ChainComplexC"),)
# numpy.linalg functions the library calls; the first eight are the LAPACK
# decompositions and solves, the rest keep linalg.self_s complete
LINALG = ("svd", "eigh", "eigvalsh", "inv", "qr", "cholesky", "solve",
          "slogdet", "pinv", "norm", "matrix_power")
MATRIX_COUNTED = {"svd": "svd", "eigh": "eigh", "eigvalsh": "eigh",
                  "inv": "inv", "qr": "qr", "cholesky": "cholesky",
                  "solve": "solve"}

ROOT = "op"  # the span around one whole op, in the benchmark's own code

STAGE_TOTALS = (
    "torsion.hodge_split", "torsion.default_epsilon",
    "extcoh.determinant_class_test", "torsion.split_complex", "torsion.nu_map",
    "torsion.torsion_acyclic", "torsion.les_connecting_iso",
    "torsion.cone_torsion_check", "cellular.cochain_complex",
    "cellular.unimodular_defect", "serialize.report_to_json",
)
CALL_COUNTS = (
    "torsion.torsion", "torsion.hodge_split", "torsion.nu_map",
    "extcoh.ChainComplexC", "extcoh.laplacian", "spectral.singular_density",
    "spectral.spectral_density", "backends.standardized_blocks",
    "backends.compose",
)
SELF_TIMES = (
    "torsion.torsion", "spectral.classify_determinant",
    "backends.standardized_blocks", "backends.kernel_and_image_closure",
    "backends.orthocomplement",
)
MATRIX_KINDS = ("svd", "eigh", "inv", "qr", "cholesky", "solve")


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric the traced run reports, per op."""
    out = []
    for layer in LAYERS + ("linalg",):
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.errors", "count", "lower")]
    out += [(f"{name}.total_s", "s", "lower") for name in STAGE_TOTALS]
    out += [(f"{name}.calls", "count", "lower") for name in CALL_COUNTS]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMES]
    out += [(f"linalg.{kind}.matrices", "count", "lower") for kind in MATRIX_KINDS]
    out += [
        ("linalg.svd_per_fiber_diff", "ratio", "lower"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.self_sum_share", "ratio", "higher"),
    ]
    return out


def _batch(a) -> int:
    """Matrices in a (possibly stacked) argument: the product of its batch dims."""
    shape = np.shape(a)
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


class Tracer:
    def __init__(self):
        # (op, span id, parent id, name, start, end, self time,
        #  outermost span of its name, error left the layer)
        self.spans = []
        self.counts = Counter()
        self._stack = []  # [span id, layer, child time] of the open spans
        self._open = Counter()  # open spans per name, to spot nesting
        self._next_id = 0
        self._root = self.wrap(ROOT, lambda fn: fn())
        self.op = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_enter=None):
        """``fn`` wrapped in a span called ``name``.

        ``on_enter(args, kwargs)`` runs first, for counters that read the
        arguments.
        """
        layer = name.split(".")[0]
        errors = (np.linalg.LinAlgError if layer == "linalg"
                  else importlib.import_module("l2torsion.errors").L2TorsionError)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            if on_enter is not None:
                on_enter(args, kwargs)
            outermost = not tracer._open[name]
            tracer._open[name] += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            left = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except errors:
                left = parent is None or parent[1] != layer
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((
                    tracer.op, span_id, None if parent is None else parent[0],
                    name, start, end, duration - frame[2], outermost, left,
                ))

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Run one op under the root span; returns its result."""
        self.op = op_id
        return self._root(fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap the library and numpy.linalg in place, for the whole process."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"l2torsion.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(
                        name, obj,
                        self._count_fiber_diffs if name == "torsion.torsion" else None,
                    )
        # ``from .x import y`` bound each function in many namespaces
        for modname, mod in list(sys.modules.items()):
            if modname == "l2torsion" or modname.startswith("l2torsion."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"l2torsion.{layer}"), cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(importlib.import_module(f"l2torsion.{layer}"), cls_name)
            cls.__init__ = self.wrap(f"{layer}.{cls_name}", cls.__init__)
        for fname in LINALG:
            setattr(np.linalg, fname, self.wrap(
                f"linalg.{fname}", getattr(np.linalg, fname),
                self._matrix_counter(MATRIX_COUNTED[fname])
                if fname in MATRIX_COUNTED else None,
            ))

    def _count_fiber_diffs(self, args, kwargs) -> None:
        c = args[0] if args else kwargs["c"]
        self.counts["torsion_fiber_diffs"] += c.backend.n_fibers * len(c.diffs)

    def _matrix_counter(self, kind: str):
        def count(args, kwargs) -> None:
            n = _batch(args[0] if args else next(iter(kwargs.values())))
            self.counts[f"linalg.{kind}.matrices"] += n
            if kind == "svd" and self._open["torsion.torsion"]:
                self.counts["svd_in_torsion"] += n
        return count

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops: int, op_wall_s: float) -> dict:
        """Per-op values of every layer metric, from the spans and counters.

        ``op_wall_s`` is the wall time of the traced ops measured outside
        the tracer; ``trace.self_sum_share`` compares the self times with it.
        """
        calls, self_s, errors = Counter(), defaultdict(float), Counter()
        total_s = defaultdict(float)
        for _, _, _, name, start, end, own, outermost, left in self.spans:
            layer = name.split(".")[0]
            for key in (layer, name):
                calls[key] += 1
                self_s[key] += own
            errors[layer] += left
            if outermost:  # a nested span's time is already in its ancestor's
                total_s[name] += end - start

        out = {}
        for layer in LAYERS + ("linalg",):
            out[f"{layer}.calls"] = calls[layer] / n_ops
            out[f"{layer}.self_s"] = self_s[layer] / n_ops
            out[f"{layer}.errors"] = errors[layer] / n_ops
        for name in STAGE_TOTALS:
            out[f"{name}.total_s"] = total_s[name] / n_ops
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls[name] / n_ops
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for kind in MATRIX_KINDS:
            out[f"linalg.{kind}.matrices"] = self.counts[f"linalg.{kind}.matrices"] / n_ops
        fiber_diffs = self.counts["torsion_fiber_diffs"]
        out["linalg.svd_per_fiber_diff"] = (
            self.counts["svd_in_torsion"] / fiber_diffs if fiber_diffs else 0.0
        )
        out["trace.self_sum_share"] = sum(s[6] for s in self.spans) / op_wall_s
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("op", "id", "parent", "name", "start", "end", "self_s",
                "outermost", "error")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
