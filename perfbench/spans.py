"""In-memory span tracing around the calls into each layer of ``repro``.

The benchmark never edits the program: it wraps the public functions and
methods each layer exposes, from the outside, for the length of one traced
pass, and restores the originals afterwards.  A span is (name, start, end,
parent).  Spans are kept in parallel arrays (a few bytes each, so a pass
with millions of policy decisions still fits in memory) and written out
when the pass ends.

A layer's *self time* is the duration of its spans minus the part of each
span that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import _thread
import functools
import gzip
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable


class SpanRecorder:
    """Spans of the thread that created the recorder, in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.foreign_calls = 0
        self._owner = _thread.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by tests and tools)."""
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return index

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``hook(args, result)``, when given, sees each call's arguments and
        return value; hooks gather the counts that live in return values
        (steps of an execution, bugs of a search).
        """
        nid = self.name_id(name)
        clock = self.clock
        stack = self.stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        owner = self._owner
        get_ident = _thread.get_ident
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner:
                # Real OS threads of the py: substrate never call a traced
                # boundary; count it if one ever does, so it cannot hide.
                recorder.foreign_calls += 1
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, path: Path) -> None:
        """Write every span as one gzipped JSON line ``[name, start, end,
        parent]`` (``parent`` is a line index, -1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for nid, parent, start, end in zip(self.name_ids, self.parents, self.starts, self.ends):
                handle.write(f'["{names[nid]}",{start!r},{end!r},{parent}]\n')


def self_times(recorder: SpanRecorder) -> tuple[dict[str, float], Counter]:
    """Per span name: summed self time, and the number of outermost calls.

    A span's self time is its duration minus the union of its direct
    children's intervals.  Spans are stored in start order, so each
    parent's children arrive sorted by start and one running cursor per
    parent merges overlapping children.  A call nested directly inside a
    span of the same name (a subclass calling ``super()``) is not counted
    again.
    """
    n = len(recorder)
    covered = [0.0] * n
    cover_end = [float("-inf")] * n
    name_ids, parents, starts, ends = (
        recorder.name_ids, recorder.parents, recorder.starts, recorder.ends
    )
    for i in range(n):
        parent = parents[i]
        if parent < 0:
            continue
        start, end = starts[i], ends[i]
        if start >= cover_end[parent]:
            covered[parent] += end - start
            cover_end[parent] = end
        elif end > cover_end[parent]:
            covered[parent] += end - cover_end[parent]
            cover_end[parent] = end
    totals = [0.0] * len(recorder.names)
    calls: Counter = Counter()
    for i in range(n):
        nid = name_ids[i]
        totals[nid] += (ends[i] - starts[i]) - covered[i]
        parent = parents[i]
        if parent < 0 or name_ids[parent] != nid:
            calls[recorder.names[nid]] += 1
    return {name: totals[i] for i, name in enumerate(recorder.names)}, calls


def durations(recorder: SpanRecorder, name: str) -> list[float]:
    """Wall duration of every span called ``name``."""
    nid = recorder.name_id(name)
    return [
        end - start
        for span_nid, start, end in zip(recorder.name_ids, recorder.starts, recorder.ends)
        if span_nid == nid
    ]


class Patcher:
    """Installs wrappers and undoes every one of them on :meth:`restore`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, name: str, hook: Callable | None = None,
                 modules: Iterable[Any] = ()) -> None:
        """Wrap a module-level function and every alias of it in ``modules``
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr)
        wrapped = self.recorder.wrap(name, original, hook)
        self._set(module, attr, wrapped)
        for other in modules:
            if other is module:
                continue
            for alias, value in list(vars(other).items()):
                if value is original:
                    self._set(other, alias, wrapped)

    def methods(self, base: type, attrs: Iterable[str], name: Callable[[type, str], str],
                hook: Callable | None = None) -> None:
        """Wrap ``attrs`` on ``base`` and on every subclass that defines them.

        ``name(cls, attr)`` gives the span name.
        Classes are patched, not instances: executors bind policy and
        sanitizer hooks per instance at construction, so a wrapper has to
        be in place on the class before the instance exists.
        """
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if fn is None or not callable(fn) or getattr(fn, "__isabstractmethod__", False):
                    continue
                self._set(cls, attr, self.recorder.wrap(name(cls, attr), fn, hook))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
