"""Span tracing from outside the program: wrap ``repro`` entry points.

The traced run of the benchmark never edits the code under test.  It
replaces the public entry points named in :mod:`perfbench.layers` with
thin wrappers that record one span per call, runs the search, and puts
every original attribute back.  A layer's *self time* is its span time
minus the time of the spans nested directly inside it, so the self
times of all layers plus the time outside any span add up to the wall
time of the traced window.

Two kinds of callables are wrapped:

* plain functions and methods: one span per call;
* generator functions (the agent loop, proposer ``observe``): the
  simulator resumes these many times per call, so every resumption is
  its own span, and only the first one counts as a call.

Functions that other modules import by name (``from ..nas.builder
import compile_architecture``) are patched in every ``repro`` module
that holds a reference to them, not only where they are defined.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Tracer", "Patch", "self_times", "install", "uninstall"]


class Tracer:
    """Collects spans in memory while ``active``.

    Each span is ``[name, parent, start, end, counted]``: ``parent`` is
    the index of the enclosing span (-1 at top level) and ``counted``
    is 1 for a call and 0 for the later resumptions of a generator.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []

    def enter(self, name: str, counted: int = 1) -> int:
        if not self.active:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), 0.0, counted])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][3] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, counter: str, amount: float) -> None:
        if self.active:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.counters = {}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self seconds)}`` from a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; summed over every span this equals the time covered by the
    top-level spans.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, _, start, end, counted) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + counted, self_s + (end - start) - child[i])
    return out


def _call_wrapper(fn, tracer: Tracer, name: str, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if measure is not None:
            tracer.add(f"{name}.bytes", measure(result))
        return result
    return wrapper


def _timed_resumptions(gen, tracer: Tracer, name: str):
    """Drive ``gen`` and record one span per resumption of it."""
    value, error, counted = None, None, 1
    while True:
        idx = tracer.enter(name, counted)
        counted = 0
        try:
            target = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit(idx)
        try:
            value, error = (yield target), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:    # noqa: BLE001 — thrown into gen
            value, error = None, exc


def _gen_wrapper(fn, tracer: Tracer, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_resumptions(fn(*args, **kwargs), tracer, name)
    return wrapper


@dataclass(frozen=True)
class Patch:
    """One wrapped target: ``"module:Class.method"`` or
    ``"module:function"``.  A method target also covers every loaded
    subclass that defines the method itself."""

    layer: str
    target: str
    measure: Callable | None = None


def _resolve(target: str):
    module_name, _, qual = target.partition(":")
    obj = importlib.import_module(module_name)
    *owners, attr = qual.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def install(patches, tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo log for :func:`uninstall`."""
    undo: list[tuple[object, str, object]] = []
    try:
        for patch in patches:
            owner, attr = _resolve(patch.target)
            if inspect.isclass(owner):
                for cls in _subclasses(owner):
                    if attr in vars(cls):
                        orig = vars(cls)[attr]
                        undo.append((cls, attr, orig))
                        setattr(cls, attr, _wrap(orig, tracer, patch))
                continue
            orig = getattr(owner, attr)
            wrapped = _wrap(orig, tracer, patch)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is orig:
                        undo.append((module, name, orig))
                        setattr(module, name, wrapped)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def _wrap(fn, tracer: Tracer, patch: Patch):
    if inspect.isgeneratorfunction(fn):
        return _gen_wrapper(fn, tracer, patch.layer)
    return _call_wrapper(fn, tracer, patch.layer, patch.measure)


def uninstall(undo) -> None:
    """Put every wrapped attribute back, newest first."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()
