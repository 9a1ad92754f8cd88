"""In-memory span recorder and the probes that feed it.

A traced run wraps the public entry points of each layer (see
``probes.py``) so that every call records a span: name, start, end and
the span that was open when it began.  Spans live in flat arrays until
the run ends; :meth:`SpanStore.self_times` then derives each span's
self time as its duration minus the time its child spans cover, and
:meth:`SpanStore.write` dumps the spans as JSON.

Forked ``exec`` workers inherit the probes.  Each one reports the
aggregates of the spans it recorded itself through a pipe opened by
the parent (:meth:`SpanStore.child_entry`), so work done in workers is
counted with the pass that caused it.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class SpanStore:
    """Spans in flat arrays plus plain event counters."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        # Aggregates reported by forked workers: name -> [self_s, calls].
        self.remote: Dict[str, List[float]] = {}
        self._pipe: Optional[Tuple[int, int]] = None
        self._pipe_lock = None

    # -- recording ---------------------------------------------------------

    def name_of(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self._names)
            self._names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- derived numbers ---------------------------------------------------

    def self_times(self, first: int = 0) -> Dict[str, List[float]]:
        """``name -> [self seconds, calls]`` over spans ``first`` onward."""
        count = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(first, count)]
        for i in range(first, count):
            parent = self.parent[i]
            if parent >= first:
                own[parent - first] -= self.end[i] - self.start[i]
        totals: Dict[str, List[float]] = {}
        for i in range(first, count):
            entry = totals.setdefault(self._names[self.name_id[i]], [0.0, 0])
            entry[0] += own[i - first]
            entry[1] += 1
        return totals

    def root_seconds(self, first: int = 0) -> float:
        """Summed duration of the spans with no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(first, len(self.start))
            if self.parent[i] < 0
        )

    def write(self, path: str) -> int:
        """Dump every span, column-wise, with times in microseconds.

        Span ``i`` is ``names[name[i]]``, running from ``start_us[i]`` to
        ``end_us[i]`` after the first span began, inside span
        ``parent[i]`` (-1 for a top-level span).
        """
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            json.dump({
                "names": self._names,
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start_us": [round((t - origin) * 1e6) for t in self.start],
                "end_us": [round((t - origin) * 1e6) for t in self.end],
                "counts": self.counts,
                "workers": self.remote,
            }, handle, separators=(",", ":"))
        return len(self.start)

    # -- forked workers ----------------------------------------------------

    def open_pipe(self) -> None:
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)
        self._pipe = (read_end, write_end)
        # Inherited by every forked worker: one report is written whole.
        self._pipe_lock = multiprocessing.get_context("fork").Lock()

    def close_pipe(self) -> None:
        if self._pipe is not None:
            self.drain_pipe()
            for fd in self._pipe:
                os.close(fd)
            self._pipe = None

    def child_entry(self, original: Callable) -> Callable:
        """Wrap a forked worker's entry point to report its aggregates."""
        store = self

        @functools.wraps(original)
        def entry(*args, **kwargs):
            first = len(store.start)
            store._stack.clear()
            store.counts = {}
            try:
                return original(*args, **kwargs)
            finally:
                report = {"spans": store.self_times(first),
                          "counts": store.counts}
                line = json.dumps(report, separators=(",", ":")).encode()
                view = memoryview(line + b"\n")
                with store._pipe_lock:
                    while view:
                        view = view[os.write(store._pipe[1], view):]

        return entry

    def drain_pipe(self) -> None:
        """Fold every worker report written so far into the store."""
        if self._pipe is None:
            return
        chunks = []
        while True:
            try:
                chunk = os.read(self._pipe[0], 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        for line in b"".join(chunks).splitlines():
            report = json.loads(line)
            for name, (seconds, calls) in report["spans"].items():
                entry = self.remote.setdefault(name, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
            for key, amount in report["counts"].items():
                self.count(key, amount)


class Probe:
    """One public entry point to wrap with a span and/or a counter.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  A plain
    function is patched in every loaded ``repro`` module that bound it
    by name, so callers that did ``from x import f`` are seen too.
    ``tally`` maps ``(args, kwargs, result)`` to extra counts.  With
    ``span=None`` the probe only counts calls (for lookups too hot and
    too small to time).
    """

    def __init__(
        self,
        target: str,
        span: Optional[str],
        calls: Optional[str] = None,
        tally: Optional[Callable] = None,
    ) -> None:
        self.target = target
        self.span = span
        self.calls = calls
        self.tally = tally

    def wrap(self, store: SpanStore, original: Callable) -> Callable:
        calls, tally = self.calls, self.tally
        if self.span is None:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                store.counts[calls] = store.counts.get(calls, 0) + 1
                return original(*args, **kwargs)
            return counted

        name_id = store.name_of(self.span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = store.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                store.close(index)
            if calls is not None:
                store.counts[calls] = store.counts.get(calls, 0) + 1
            if tally is not None:
                for key, amount in tally(args, kwargs, result).items():
                    store.counts[key] = store.counts.get(key, 0) + amount
            return result

        return traced


def per_call_cost(calls: int = 50_000, repeats: int = 5) -> Tuple[float, float]:
    """Seconds a span probe and a counting probe add to one call.

    Each is the median over ``repeats`` batches of ``calls`` calls of a
    wrapped no-op, less the same batch of bare calls.
    """
    store = SpanStore()

    def noop():
        return None

    def per_call(function) -> float:
        samples = []
        for _ in range(repeats):
            started = _clock()
            for _ in range(calls):
                function()
            samples.append((_clock() - started) / calls)
        return statistics.median(samples)

    bare = per_call(noop)
    span = per_call(Probe("", "calibration").wrap(store, noop))
    counted = per_call(Probe("", None, "calibration").wrap(store, noop))
    return max(0.0, span - bare), max(0.0, counted - bare)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Instrumented:
    """Context manager that installs probes and removes them on exit."""

    def __init__(self, store: SpanStore, probes, child_entry: str) -> None:
        self._store = store
        self._probes = probes
        self._child_entry = child_entry
        self._undo: List[Tuple[object, str, object, bool]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in getattr(owner, "__dict__", {})
        previous = owner.__dict__[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, previous, own))
        setattr(owner, attr, replacement)

    def __enter__(self) -> SpanStore:
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self._store

    def _install(self) -> None:
        store = self._store
        for probe in self._probes:
            owner, attr = _resolve(probe.target)
            if isinstance(owner, type):
                raw = next(
                    (k.__dict__[attr] for k in owner.__mro__
                     if attr in k.__dict__),
                )
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(probe.wrap(store, raw.__func__))
                else:
                    wrapped = probe.wrap(store, raw)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = probe.wrap(store, original)
            for name, module in list(sys.modules.items()):
                if (
                    (name == "repro" or name.startswith("repro."))
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapped)
        owner, attr = _resolve(self._child_entry)
        self._patch(owner, attr, store.child_entry(getattr(owner, attr)))
        store.open_pipe()

    def __exit__(self, *exc) -> bool:
        for owner, attr, previous, own in reversed(self._undo):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self._store.close_pipe()
        return False
