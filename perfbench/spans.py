"""Span tracing around calls into the public functions of ``noncrossing``.

Every wrapped call records one span: layer name, start and end
(``perf_counter_ns``), the enclosing span, the request id and an object
count.  Spans stay in memory until :meth:`Tracer.write` at the end of the
run.  A layer's self time is its span duration minus the time covered by
its direct child spans.

Modules bind public names at import (``from .transforms import
moments_to_cumulants``), so :func:`install` rebinds the wrapper in every
``noncrossing`` module and in module-level dicts that hold the function,
then checks that no original is left reachable there.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> {public function: (layer name, object counter or None)}
LAYERS = {
    "partitions": {
        "enumerate_nc": ("partitions.enumerate", len),
        "enumerate_ncl": ("partitions.enumerate", len),
        "enumerate_ncs": ("partitions.enumerate", len),
        "enumerate_ncls": ("partitions.enumerate", len),
        "class_members": ("partitions.class_members", None),
        "kreweras": ("partitions.kreweras", None),
        "validate_nc": ("partitions.validate", None),
        "validate_ncl": ("partitions.validate", None),
        "connected_components": ("partitions.structure", None),
        "exterior_blocks": ("partitions.structure", None),
        "restrict": ("partitions.structure", None),
        "is_ncls": ("partitions.structure", None),
    },
    "trees": {
        "enumerate_planar_trees": ("trees.enumerate", len),
        "enumerate_bicolor": ("trees.enumerate", len),
        "enumerate_bicolor_elementary": ("trees.enumerate", len),
        "connected_from_tree": ("trees.theta", None),
        "tree_from_connected": ("trees.theta", None),
        "bicolor_from_ncls": ("trees.lambda", None),
        "ncls_from_bicolor": ("trees.lambda", None),
        "vertex_order": ("trees.decompose", None),
        "elementary_decomposition": ("trees.decompose", None),
    },
    "transforms": {
        "moments_to_cumulants": ("transforms.m2k", None),
        "cumulants_to_moments": ("transforms.k2m", None),
        "moments_to_tcoeffs": ("transforms.m2t", None),
        "tcoeffs_to_moments": ("transforms.t2m", None),
        "cumulant_via_classes": ("transforms.class_sum", None),
        "cumulant_via_trees": ("transforms.tree_sum", None),
        "eval_tree": ("transforms.eval", None),
        "eval_bicolor": ("transforms.eval", None),
        "ncls_weight": ("transforms.eval", None),
        "free_multiplicative": ("transforms.kreweras_sum", None),
        "verify_t_multiplicativity": ("transforms.multiplicativity", None),
    },
    "freeness": {
        "mixed_tcoeff": ("freeness.mixed_tcoeff", None),
        "mixed_moment": ("freeness.mixed_moment", None),
        "freeness_vanishing_suite": ("freeness.vanishing", lambda r: r.words_checked),
    },
    "jsonio": {
        "parse_nc": ("jsonio.parse", None),
        "parse_ncl": ("jsonio.parse", None),
        "parse_tree": ("jsonio.parse", None),
        "parse_moments": ("jsonio.parse", None),
        "parse_cumulants": ("jsonio.parse", None),
        "parse_tcoeffs": ("jsonio.parse", None),
        "parse_scenario": ("jsonio.parse", None),
    },
    "cli": {
        "main": ("cli.main", None),
    },
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # (name, start_ns, end_ns, parent span or -1, request id, objects)
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                objects = count(result) if count is not None and result is not None else 0
                spans[sid] = (name, start, end, parent, tracer.request, objects)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def aggregate(self) -> dict:
        """Per layer: calls, self and total time (ns), objects, first call (ns)."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, _, _, objects) in enumerate(self.spans):
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "self_ns": 0, "total_ns": 0,
                                   "objects": 0, "first_ns": end - start}
            agg["calls"] += 1
            agg["self_ns"] += end - start - covered[sid]
            agg["total_ns"] += end - start
            agg["objects"] += objects
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\tobjects\n")
            for sid, (name, start, end, parent, request, objects) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{request}\t{name}\t{start}\t{end}\t{objects}\n")


def install(tracer: Tracer) -> dict:
    """Wrap every function in :data:`LAYERS` and each ``verify`` suite.

    Returns the originals by layer-table key (``"partitions.kreweras"``
    etc.) so callers can still reach e.g. ``cache_info``.
    """
    wrapped = {}  # id(original) -> (original, wrapper)
    originals = {}
    for modname, table in LAYERS.items():
        mod = importlib.import_module(f"noncrossing.{modname}")
        for attr, (name, count) in table.items():
            fn = getattr(mod, attr)
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, count))
            originals[f"{modname}.{attr}"] = fn
    verify = importlib.import_module("noncrossing.verify")
    for suite, fn in verify.SUITES.items():
        wrapped[id(fn)] = (fn, tracer.wrap(f"verify.{suite}", fn, len))

    def swap(value):
        hit = wrapped.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
            return tuple(swap(v) for v in value)
        return value

    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    value[key] = swap(item)
            else:
                setattr(mod, attr, swap(value))

    escaped = [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if not attr.startswith("__")
        for item in (value.values() if isinstance(value, dict) else (value,))
        for v in (item if isinstance(item, tuple) else (item,))
        if id(v) in wrapped and wrapped[id(v)][0] is v
    ]
    if escaped:
        raise RuntimeError(f"calls would escape the trace through {escaped}")
    return originals


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "noncrossing" or name.startswith("noncrossing."))]
