"""In-memory spans around the public functions of the program's layers.

The tracer never edits the library: it rebinds module attributes to thin
wrappers, from the benchmark's side, after the program has been imported.
Every attribute of every loaded module of the package that holds the
original function is rebound, so module-qualified calls
(``spin_group.haar_orthogonal`` from ``sde``) and bare global calls inside
the defining module (``path_rng`` inside ``evolve_ensemble``) both reach the
wrapper.

A span is (name, start, end, parent, run id). A generator function gets one
span per ``next()``, so its span covers exactly the time spent inside the
generator. Self time is a span's duration minus that of its direct
children. A name that the program no longer defines is recorded as absent
and traced as nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Span store and counters for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.depth: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.run_id = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.depth[name] += 1
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        self.span_end[idx] = end
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")
        self.depth[self.names[self.span_name[idx]]] -= 1

    def spans(self) -> list:
        """All spans as (name, start, end, parent, run id) tuples."""
        return [
            (self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
             self.span_parent[i], self.span_run[i])
            for i in range(len(self.span_name))
        ]


def self_times(spans) -> dict:
    """Per name: (inclusive seconds, self seconds) from (name, start, end, parent, ...) spans.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; spans of one name (the segments of a generator)
    add up.
    """
    child_time = defaultdict(float)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        incl, own = totals.get(name, (0.0, 0.0))
        totals[name] = (incl + (end - start), own + (end - start) - child_time[i])
    return totals


def root_time(spans) -> float:
    """Time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)


def span_wrapper(tracer: Tracer, key: str, fn, on_error=None):
    """Time ``fn`` as span ``key``; re-entrant calls run inside the outer span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.depth[key]:
            return fn(*args, **kwargs)
        tracer.counts[key + ".calls"] += 1
        idx = tracer.open(key)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.close(idx)

    return wrapper


def generator_wrapper(tracer: Tracer, key: str, fn, on_item=None):
    """Time each ``next()`` of the generator ``fn`` returns as one span ``key``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key + ".calls"] += 1
        inner = fn(*args, **kwargs)

        def segments():
            try:
                while True:
                    idx = tracer.open(key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    if on_item is not None:
                        on_item(args, kwargs, item)
                    yield item
            finally:
                inner.close()

        return segments()

    return wrapper


def counting_wrapper(tracer: Tracer, key: str, fn, on_call=None):
    """Count calls of ``fn`` without a span (for functions called per rewrite)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key + ".calls"] += 1
        if on_call is not None:
            on_call()
        return fn(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module.function`` of the package.

    ``make`` builds the wrapper from (tracer, key, original); the default is
    a span, or one span per ``next()`` for a generator function.
    """

    module: str
    function: str
    make: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.function}"


def rebind(package: str, original, replacement) -> None:
    """Point every attribute of the loaded package modules that holds ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, package: str, targets) -> list:
    """Wrap every target that exists; returns the keys of the absent ones."""
    absent = []
    for target in targets:
        try:
            module = importlib.import_module(f"{package}.{target.module}")
        except ImportError:
            absent.append(target.key)
            continue
        original = getattr(module, target.function, None)
        if not callable(original):
            absent.append(target.key)
            continue
        if target.make is not None:
            wrapper = target.make(tracer, target.key, original)
        elif inspect.isgeneratorfunction(original):
            wrapper = generator_wrapper(tracer, target.key, original)
        else:
            wrapper = span_wrapper(tracer, target.key, original)
        rebind(package, original, wrapper)
    return absent
