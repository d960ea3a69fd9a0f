"""Span tracer that wraps betahmm's public functions from outside the program.

Every public function and public method defined in a ``betahmm`` module is
replaced, at every module attribute that binds it, by a wrapper that records
one span per call: name, layer (the defining module), start, end, parent span
and run id. Spans stay in memory until the caller writes them out. Optional
probes read counters from a call's arguments and result after its span has
closed, so their cost falls into the tracing overhead, not into a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict


def public_callables(package):
    """Yield (module, owner class or None, attribute, function) for each target."""
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, None, name, obj
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(val):
                        yield module, obj, attr, val


class Tracer:
    """Records nested spans of one thread; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.names: set = set()
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    def install(self, package, probes: dict) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for module, owner, attr, fn in public_callables(package):
            layer = module.__name__.rsplit(".", 1)[-1]
            qual = f"{owner.__name__}.{attr}" if owner is not None else attr
            name = f"{layer}.{qual}"
            self.names.add(name)
            wrapper = self._wrap(fn, name, layer, probes.get(name))
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrapped[id(fn)] = (fn, wrapper)
        # rebind every alias, so `from .em import log_likelihood` in cli is traced too
        for module in modules:
            for attr, val in list(vars(module).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((module, attr, val))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, layer: str, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[sid] = (name, layer, start, end, parent, tracer.run_id)
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        return wrapper

    def write_jsonl(self, fh) -> None:
        for sid, (name, layer, start, end, parent, run) in enumerate(self.spans):
            fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "start": start,
                                 "end": end, "parent": parent, "run": run}) + "\n")


class SpanView:
    """Durations, self times and outermost totals over a list of recorded spans."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for sid, s in enumerate(spans):
            if s[4] is not None:
                child[s[4]] += self.dur[sid]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def outermost(self, member) -> float:
        """Time inside spans for which ``member(span)`` holds, nested ones counted once."""
        total = 0.0
        for sid, s in enumerate(self.spans):
            if not member(s):
                continue
            parent = s[4]
            while parent is not None and not member(self.spans[parent]):
                parent = self.spans[parent][4]
            if parent is None:
                total += self.dur[sid]
        return total

    def named(self, *names: str) -> float:
        """Time inside calls of the given span names, nested calls counted once."""
        return self.outermost(lambda s: s[0] in names)

    def layer(self, layer: str, exclude: tuple = ()) -> float:
        """Time inside calls into a layer, nested calls counted once."""
        return self.outermost(lambda s: s[1] == layer and s[0] not in exclude)

    def layer_self(self) -> dict:
        out: dict = defaultdict(float)
        for sid, s in enumerate(self.spans):
            out[s[1]] += self.self_time[sid]
        return dict(out)

    def breakdown(self, root: str) -> dict:
        """Self time per layer inside the subtrees rooted at spans named ``root``."""
        inside = [False] * len(self.spans)
        out: dict = defaultdict(float)
        for sid, s in enumerate(self.spans):
            # parents are recorded before their children, so one forward pass suffices
            inside[sid] = s[0] == root or (s[4] is not None and inside[s[4]])
            if inside[sid]:
                out[s[1]] += self.self_time[sid]
        return dict(out)
