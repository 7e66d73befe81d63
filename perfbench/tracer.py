"""Spans around polycomp's public functions, installed from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
and the public methods of ``LatticePolytope`` and ``PointConfiguration``,
with a wrapper that records calls, self time and returned item counts.  A
method counts the items it returns only on its first call on an object:
the polytope's methods cache their results, and a repeated call returns
the same items again.  A function that another module imported by name
(``from .linalg import rref``) is rebound there too, by identity, so no
call goes unseen.  Self time is a span's duration minus the time of the
spans it encloses.  Spans stay in memory; ``snapshot()`` returns the
totals.  Only traced passes install it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import Counter

MODULES = ("linalg", "polytope", "compressed", "triangulate", "cutpoly", "margins",
           "simplex", "bounds", "jsonio")
# per-element vector helpers: called millions of times, too small for a span
UNTRACED = {"linalg.dot", "linalg.vsub", "linalg.vadd", "linalg.primitive",
            "linalg.identity_matrix", "linalg.mat_mul"}
# class -> prefix of its method spans; LatticePolytope's are polytope.<method>
CLASSES = {("polytope", "LatticePolytope"): "polytope",
           ("polytope", "PointConfiguration"): "polytope.config"}
SEARCHES = ("triangulate.all_pulling_unimodular", "bounds.pull_first_unimodular")


def _item_count(name, result):
    if name == "compressed.is_compressed":
        return len(result.profiles)
    try:
        return len(result)
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.out = Counter()
        self.rules = Counter()  # outermost margins_compressed verdict rules
        self.searched_orderings = 0  # pulling triangulations inside searches
        self.top_s = 0.0  # total duration of spans with no enclosing span
        self._stack = []  # child-time accumulators of the open spans
        self._active = Counter()  # open spans per name

    def wrap(self, name, fn, method=False):
        counted = weakref.WeakSet()  # objects whose first call was counted

        def traced(*args, **kwargs):
            stack = self._stack
            frame = [0.0]
            stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
            if not method:
                self._count(name, result)
            elif args[0] not in counted:
                counted.add(args[0])
                self._count(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _count(self, name, result):
        self.out[name] += _item_count(name, result)
        if name == "margins.margins_compressed" and not self._active[name]:
            rule = "unknown" if result.verdict == "unknown" else result.rule.split("(")[0]
            self.rules[rule] += 1
        elif name == "triangulate.pulling_triangulation_of":
            if any(self._active[s] for s in SEARCHES):
                self.searched_orderings += 1

    def install(self):
        """Wrap the traced functions and rebind every reference to them."""
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"polycomp.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    replaced[obj] = self.wrap(name, obj)
        for (short, cls_name), prefix in CLASSES.items():
            cls = getattr(importlib.import_module(f"polycomp.{short}"), cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                    label = "init" if attr == "__init__" else attr
                    setattr(cls, attr, self.wrap(f"{prefix}.{label}", obj, method=True))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "polycomp" or mod_name.startswith("polycomp."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])
        return self

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "out": dict(self.out),
            "rules": dict(self.rules),
            "searched_orderings": self.searched_orderings,
            "top_s": self.top_s,
        }
