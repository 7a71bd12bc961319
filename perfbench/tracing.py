"""Span recorder that wraps the library's public functions from outside.

The library itself carries no tracing.  Inside `Tracer.installed()` every
binding of a traced function in the loaded `elegant.*` modules (the
defining module and each module that imported the name) and the traced
methods on their classes are replaced by a wrapper that records a span;
leaving the block puts the originals back.

A span holds its name, start, end, parent span, run id, the exception type
if the call raised, and optional work counts attached by a hook.  Spans are
kept in memory; the caller writes them out when the run ends.  A layer's
self time is its duration minus the part of that interval its child spans
cover, so on one thread the self times of all spans under a root add up
to the root's duration; worker threads' spans overlap, and their sum
exceeds it.

Recording is thread-safe: each thread keeps its own span stack, appends
go through a lock, and a span opened on a worker thread (a `--jobs > 1`
cache build) takes the innermost open span of the thread that opened the
current root as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run: str
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around wrapped library calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._run = ""
        self._root_stack: list | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        opener = stack or self._root_stack
        parent = opener[-1].id if opener else None
        with self._lock:
            self._next_id += 1
            sp = Span(id=self._next_id, name=name, start=0.0, parent=parent, run=self._run)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def root(self, name: str, run: str):
        """Open the root span of one run; worker-thread spans hang under it."""
        self._run = run
        with self.span(name) as sp:
            self._root_stack = self._stack()
            try:
                yield sp
            finally:
                self._root_stack = None

    def wrap(self, fn, name: str, hook=None):
        """Wrapper recording a span per call; hook(span, args, kwargs, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(sp, args, kwargs, out)
                return out

        return traced

    @contextmanager
    def installed(self, functions: dict, methods: dict):
        """Patch traced callables for the duration of the block.

        functions maps a span name to (function, hook); every attribute of
        a loaded elegant module that is that function object gets the
        wrapper.  methods maps a span name to (class, attribute, hook) and
        keeps staticmethod/classmethod descriptors intact.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self.wrap(fn, name, hook) for name, (fn, hook) in functions.items()}
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "elegant" or n.startswith("elegant."))]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if callable(value) and id(value) in wrappers:
                        self._patch(module, attr, wrappers[id(value)])
            for name, (cls, attr, hook) in methods.items():
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, name, hook))
                elif isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, hook))
                else:
                    new = self.wrap(raw, name, hook)
                self._patch(cls, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(self._patches):
                setattr(owner, attr, old)
            self._patches = []

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its children."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.id, ())]
        out[sp.id] = (sp.end - sp.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans) -> dict:
    """Per span name: summed self time, call count and summed counts."""
    selfs = self_times(spans)
    out: dict[str, LayerStats] = defaultdict(LayerStats)
    for sp in spans:
        st = out[sp.name]
        st.self_s += selfs[sp.id]
        st.calls += 1
        for key, value in sp.counts.items():
            st.counts[key] += value
    return dict(out)


def ancestors(spans) -> dict:
    """Span id -> set of names on its parent chain."""
    by_id = {sp.id: sp for sp in spans}
    out = {}
    for sp in spans:
        names = set()
        p = sp.parent
        while p is not None and p in by_id:
            names.add(by_id[p].name)
            p = by_id[p].parent
        out[sp.id] = names
    return out
