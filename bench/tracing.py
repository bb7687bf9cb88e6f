"""Spans around calls into the public functions of the six ``simplexci``
modules, recorded from outside the library.

``Tracer.install`` replaces every public function of ``cli``, ``estimators``,
``geometry``, ``inference``, ``distributions`` and ``montecarlo`` with a
timing wrapper, in every module namespace that holds it (so a call through
``from .geometry import project_cone`` is traced too), plus the two
classmethods ``PanelData.from_long`` and ``SpdMatrix.from_matrix``.
``uninstall`` puts the originals back, so untraced invocations run the
library exactly as shipped. Spans stay in memory until the run ends.

A span is ``(id, parent, name, start, end, boundary)``: ``parent`` is the id
of the enclosing span (-1 at the top) and ``boundary`` is set for
``geometry.project_cone`` when the candidate weight has a zero entry.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

MODULES = ("cli", "estimators", "geometry", "inference", "distributions", "montecarlo")
CLASSMETHODS = (("estimators", "PanelData", "from_long"), ("geometry", "SpdMatrix", "from_matrix"))


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._patches: List[tuple] = []
        self._modules = {m: importlib.import_module(f"simplexci.{m}") for m in MODULES}
        self._namespaces = [importlib.import_module("simplexci"), *self._modules.values()]

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        is_cone = name == "geometry.project_cone"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            boundary = False
            if is_cone:
                w = args[1] if len(args) > 1 else kwargs["w"]
                boundary = bool(np.min(w) <= 0.0)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, boundary))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function, in every namespace that imports it."""
        originals: Dict[int, object] = {}
        wrappers: Dict[int, object] = {}
        for short, module in self._modules.items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                originals[id(obj)] = obj
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for namespace in self._namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and obj is originals[id(obj)]:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)])
        for short, cls_name, meth in CLASSMETHODS:
            cls = getattr(self._modules[short], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            wrapped = self._wrap(f"{short}.{cls_name}.{meth}", original.__func__)
            setattr(cls, meth, classmethod(wrapped))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def take(self) -> List[tuple]:
        """Spans recorded since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: List[tuple]) -> dict:
    """Per-layer metrics of one traced invocation.

    For every span name: ``.s`` inclusive seconds, ``.self_s`` seconds minus
    child spans and ``.calls``; ``geometry.project_cone`` also gets
    ``.boundary_s`` and ``.boundary_calls``, and ``inference.point_test``
    the median and 99th percentile of its call time in microseconds.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    point_us = []
    out: Dict[str, float] = {}
    for sid, parent, name, start, end, boundary in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        if parent >= 0:
            child[parent] += duration
        if boundary:
            total["geometry.project_cone.boundary"] += duration
            calls["geometry.project_cone.boundary"] += 1
        if name == "inference.point_test":
            point_us.append(duration * 1e6)
    self_time = defaultdict(float)
    for sid, parent, name, start, end, boundary in spans:
        self_time[name] += (end - start) - child.get(sid, 0.0)
    for name in self_time:
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.calls"] = calls[name]
    if calls["geometry.project_cone.boundary"]:
        out["geometry.project_cone.boundary_s"] = total["geometry.project_cone.boundary"]
        out["geometry.project_cone.boundary_calls"] = calls["geometry.project_cone.boundary"]
    if point_us:
        out["inference.point_test.us_p50"] = float(np.percentile(point_us, 50))
        out["inference.point_test.us_p99"] = float(np.percentile(point_us, 99))
    return out
