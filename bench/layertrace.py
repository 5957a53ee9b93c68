"""Per-layer self time and work counts, recorded by wrappers around qsheaf.

A layer is one qsheaf module (the `moncat` package counts as one).  The
tracer wraps every public module-level function of each layer, at every
module-level binding that refers to it, so `canon` is caught whether it is
reached through `qsheaf.cli`, `qsheaf.sheaf`, or its own recursive call in
`qsheaf.moncat.core`.  A wrapped call is a span: its duration minus the
duration of the wrapped calls it makes is charged to its layer as self
time.  Code outside any span (the benchmark itself) is charged to nobody,
and a method call is charged to the layer of the span that makes it.

Functions in `COUNT_ONLY` are called millions of times per task; a timing
wrapper there would cost more than the call, so they are counted but their
time stays with the calling span.  A few constructors and methods are
counted the same way, and some results are folded into work counts by the
hooks in `_RESULT_HOOKS`.  `uninstall` restores every binding.
"""

import importlib
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "qsheaf.cli": "cli",
    "qsheaf.quantale": "quantale",
    "qsheaf.finset": "finset",
    "qsheaf.moncat": "moncat",
    "qsheaf.moncat.core": "moncat",
    "qsheaf.moncat.coherence": "moncat",
    "qsheaf.coverage": "coverage",
    "qsheaf.presheaf": "presheaf",
    "qsheaf.sheaf": "sheaf",
    "qsheaf.reflect": "reflect",
}

# source files measured by `<layer>.src_lines`, relative to src/qsheaf
LAYER_FILES = {
    "cli": ["cli.py"],
    "quantale": ["quantale.py"],
    "finset": ["finset.py"],
    "moncat": ["moncat/__init__.py", "moncat/core.py", "moncat/coherence.py"],
    "coverage": ["coverage.py"],
    "presheaf": ["presheaf.py"],
    "sheaf": ["sheaf.py"],
    "reflect": ["reflect.py"],
}

COUNT_ONLY = {"canon", "label_key"}

# (module, class, method, counter): calls counted without a span
_METHOD_COUNTERS = [
    ("qsheaf.finset", "FinSetObj", "__init__", "finset.objs_built"),
    ("qsheaf.coverage", "CoverFamily", "__init__", "coverage.families"),
    ("qsheaf.moncat.core", "ThinCategory", "tensor_obj", "moncat.tensor_obj_calls"),
    ("qsheaf.moncat.core", "FinSetCategory", "tensor_obj", "moncat.tensor_obj_calls"),
    ("qsheaf.moncat.core", "ProductCategory", "tensor_obj", "moncat.tensor_obj_calls"),
]


def _sum_checked(report):
    return sum(e.checked or 0 for e in report.entries)


# "layer.function" -> [(counter, value of the returned object)]
_RESULT_HOOKS = {
    "coverage.check_flavor": [("coverage.checked", _sum_checked)],
    "presheaf.hom_presheaves": [("presheaf.homs_found", len)],
    "sheaf.compatible_families": [("sheaf.compatible_families", len)],
    "sheaf.check_sheaf_equalizer": [
        ("sheaf.cross_checked", lambda r: r.cross_checked),
        ("sheaf.covers_examined", lambda r: len(r.outcomes)),
    ],
    "reflect.sheafify": [("reflect.forcing_iterations", lambda r: r.iterations)],
    "reflect.enumerate_sheaves": [("reflect.battery_size", len)],
    "reflect.subsheaf_lattice": [("reflect.lattice_members", lambda r: len(r.members))],
    "reflect.star": [("reflect.star_certified", lambda r: int(r.epi_certified))],
    "moncat.verify_appendix_suite": [("moncat.appendix_checked", _sum_checked)],
}


class Tracer:
    """Installs the wrappers, accumulates self time and counts, removes them."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()  # result-hook counts
        self._calls = {}  # key -> itertools.count, the cheapest call counter
        self._child = [0.0]  # per open span: time spent in its child spans
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _tick(self, key):
        return self._calls.setdefault(key, itertools.count()).__next__

    def _span(self, layer, key, fn):
        child, self_s, counts = self._child, self.self_s, self.counts
        hooks = _RESULT_HOOKS.get(key, ())
        clock = time.perf_counter
        tick = self._tick(key)

        def span(*args, **kwargs):
            tick()
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed
            for counter, value in hooks:
                counts[counter] += value(result)
            return result

        span.__wrapped__ = fn
        return span

    def _counter(self, key, fn):
        tick = self._tick(key)

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall ----------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(name) for name in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for name, module in modules.items():
            layer = LAYERS[name]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != name
                    or id(obj) in wrappers
                ):
                    continue
                key = f"{layer}.{attr}"
                if attr in COUNT_ONLY or inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._counter(key, obj)
                else:
                    wrappers[id(obj)] = self._span(layer, key, obj)
        for name, module in list(sys.modules.items()):
            if name != "qsheaf" and not name.startswith("qsheaf."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch_attr(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._undo.append(("item", obj, k, v))
                            obj[k] = wrappers[id(v)]
        for modname, cls_name, method, key in _METHOD_COUNTERS:
            cls = getattr(modules[modname], cls_name)
            self._patch_attr(cls, method, self._counter(key, vars(cls)[method]))

    def _patch_attr(self, owner, attr, value):
        self._undo.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Raw self times and counts, as plain JSON-ready dicts.

        Call it once, after `uninstall`: reading a call counter advances it.
        """
        counts = dict(self.counts)
        for key, calls in self._calls.items():
            counts[key] = counts.get(key, 0) + next(calls)  # next() = calls so far
        return {"self_s": dict(self.self_s), "counts": counts}


# per-layer count metric -> the Tracer counter it reports
COUNT_METRICS = {
    "coverage.families": "coverage.families",
    "coverage.checked": "coverage.checked",
    "presheaf.hasse_edges_calls": "presheaf.hasse_edges",
    "presheaf.hom_calls": "presheaf.hom_presheaves",
    "presheaf.homs_found": "presheaf.homs_found",
    "sheaf.compatible_families": "sheaf.compatible_families",
    "sheaf.cross_checked": "sheaf.cross_checked",
    "reflect.forcing_iterations": "reflect.forcing_iterations",
    "reflect.battery_size": "reflect.battery_size",
    "reflect.lattice_members": "reflect.lattice_members",
    "reflect.star_cells": "reflect.star",
    "moncat.canon_calls": "moncat.canon",
    "moncat.tensor_obj_calls": "moncat.tensor_obj_calls",
    "moncat.appendix_checked": "moncat.appendix_checked",
    "finset.objs_built": "finset.objs_built",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw, src_dir):
    """Per-layer metrics from a `Tracer.snapshot`: name -> (value, unit)."""
    self_s, c = raw["self_s"], Counter(raw["counts"])
    out = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in LAYER_FILES}
    out["quantale.calls"] = (
        sum(n for k, n in c.items() if k.startswith("quantale.")),
        "count",
    )
    for metric, counter in COUNT_METRICS.items():
        out[metric] = (c[counter], "count")
    # diagrams built per cover the equalizer check examined
    out["sheaf.crosscheck_ratio"] = (
        _ratio(c["sheaf.cross_checked"], c["sheaf.covers_examined"]),
        "ratio",
    )
    # certified `star` results per `star` call
    out["reflect.epi_certified_ratio"] = (
        _ratio(c["reflect.star_certified"], c["reflect.star"]),
        "ratio",
    )
    for layer, files in LAYER_FILES.items():
        lines = 0
        for rel in files:
            with open(src_dir / "qsheaf" / rel, encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
        out[f"{layer}.src_lines"] = (lines, "lines")
    return out
