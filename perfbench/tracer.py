"""Spans around program functions, recorded from outside the program.

``Tracer.install`` replaces a function with a timing wrapper in every
loaded module of the ``legrack`` package whose globals hold it.  Callers
resolve such names in their module globals at call time, so the wrapper
sees calls made through ``from .x import f`` as well as through ``x.f``.
A name that no longer exists is reported as absent.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; a generator function gets one span per ``next()``.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the time covered by root spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """A function to wrap: ``module.attr``, recorded under ``span``.

    ``on_result(tallies, args, kwargs, result)`` may add counts derived
    from a call's arguments and result.
    """

    module: str
    attr: str
    span: str
    on_result: Callable | None = None


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float


PACKAGE = "legrack"


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tallies: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, fn, span_id: int, on_result):
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, tallies = self._stack, self.tallies

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(name_id)
                    name_id.append(span_id)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(idx)
                    start.append(perf_counter())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = perf_counter()
                        stack.pop()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(span_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tallies, args, kwargs, result)
            return result
        return wrapper

    def install(self, layers) -> None:
        """Wrap every layer's function wherever the package refers to it."""
        for layer in layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            original = getattr(module, layer.attr, None)
            if not callable(original):
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            if layer.span not in self.span_names:
                self.span_names.append(layer.span)
            wrapper = self._wrap(original, self.span_names.index(layer.span),
                                 layer.on_result)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        """Put every replaced function back."""
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    # --- results -------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.span_names)
        total = [0.0] * len(self.span_names)
        self_s = [0.0] * len(self.span_names)
        for i, k in enumerate(self.name_id):
            calls[k] += 1
            total[k] += dur[i]
            self_s[k] += dur[i] - child[i]
        return {name: SpanStats(calls[k], total[k], self_s[k])
                for k, name in enumerate(self.span_names)}

    def root_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(self.end[i] - self.start[i]
                   for i, p in enumerate(self.parent) if p < 0)

    def dump(self, stem: str) -> None:
        """Write the spans to ``stem.spans`` and a JSON index to ``stem.json``.

        ``stem.spans`` holds four arrays of ``count`` items each, in native
        byte order: name id (int32), parent span index (int32, -1 for a
        root), start and end (float64 seconds, ``time.perf_counter``).
        """
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "count": len(self.name_id),
            "layout": ["name_id:i4", "parent:i4", "start:f8", "end:f8"],
            "byteorder": sys.byteorder,
            "names": self.span_names,
            "absent": self.absent,
            "tallies": self.tallies,
            "stats": {k: vars(v) for k, v in self.stats().items()},
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
