"""Span recording around the public functions of each superint module.

Spans are recorded from the benchmark's side only: every public function of
a layer module (its ``__all__``, or its names without a leading underscore
when it has none, plus any private function another module imports, such as
``poisson._bracket_jets``) is replaced by a recording
wrapper under every name that refers to it — in its own module, in the
modules that import it and in the package namespace.  ``Observable``'s
evaluation methods (jets) and ``CObservable.order1`` (poisson) are wrapped on
their classes.  Nothing inside the program is edited, and :meth:`Tracer.remove`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("systems", "jets", "poisson", "geometry", "catalog", "dynamics", "cli")
_METHODS = {"jets": [("Observable", ("eval", "__call__", "value", "dual"))],
            "poisson": [("CObservable", ("order1", "__call__", "value"))]}


class Tracer:
    """Records (name, start, end, parent) spans while installed.

    ``spans`` holds one list per call: ``[name index, start, end, parent
    index]``; the parent is the innermost open span or -1.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, layer, qualname, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        pkg = importlib.import_module("superint")
        mods = {layer: importlib.import_module(f"superint.{layer}") for layer in LAYERS}
        namespaces = [pkg] + list(mods.values())
        for layer, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                a for a in vars(mod) if not a.startswith("_")]
            targets = {}
            for ns in [mod] + [n for n in namespaces if n is not mod]:
                for attr, obj in vars(ns).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and (ns is not mod or attr in public)):
                        targets.setdefault(id(obj), (attr, obj))
            for attr, obj in targets.values():
                wrapper = self._wrap(layer, attr, obj)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, name, wrapper)
            for cls_name, methods in _METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                wrapped = {}
                for meth in methods:
                    fn = cls.__dict__[meth]
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(layer, f"{cls_name}.{meth}", fn)
                    self._patch(cls, meth, wrapped[id(fn)])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self):
        """Index of the next span; spans from a mark on form one section."""
        return len(self.spans)

    def layer_totals(self, start, stop):
        """Per layer: self seconds and calls entering it, over spans[start:stop].

        Self time is a span's duration minus the part its direct children
        cover.  A call counts once per entry into the layer, so a module
        calling its own wrapped functions adds self time but not calls.
        """
        layer_of = [n.split(".", 1)[0] for n in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name = {}
        child = [0.0] * (stop - start)
        for i in range(stop - 1, start - 1, -1):
            name_id, t0, t1, parent = self.spans[i]
            dur = t1 - t0
            layer = layer_of[name_id]
            self_s[layer] += dur - child[i - start]
            by_name[self.names[name_id]] = by_name.get(self.names[name_id], 0) + 1
            if parent >= start:
                child[parent - start] += dur
                if layer_of[self.spans[parent][0]] == layer:
                    continue
            calls[layer] += 1
        return self_s, calls, by_name

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans}, fh)
