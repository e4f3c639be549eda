"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a
function or method on its module or class with a timing wrapper, and
:meth:`Tracer.unwrap_all` puts the originals back.  Spans nest through a
context variable, so each asyncio task and each thread keeps its own
stack, and a done-callback starts from the stack of the code that
registered it.

Per span name the tracer keeps a count, the total duration and the total
*self* time (duration minus the union of the intervals its direct children
cover).  It also keeps every duration of the names listed as ``sampled``
(for percentiles) and the first ``keep`` raw spans, which are written out
at the end of the run for the span-tree check.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import time

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("id", "name", "parent", "key", "start", "children", "gc")

    def __init__(self, sid, name, parent, key):
        self.id = sid
        self.name = name
        self.parent = parent
        self.key = key
        self.children = None
        #: Garbage-collection pause time inside this span.
        self.gc = 0


def covered_ns(intervals) -> int:
    """Length of the union of ``(start, end, ...)`` intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e, *_ in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    def __init__(self, sampled=(), keep: int = 100_000, waits=None) -> None:
        #: span name -> child span name: count the union of those children's
        #: intervals as ``<name>.waiting_ns`` (time spent awaiting them).
        self.waits = dict(waits or {})
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        #: name -> [count, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: name -> every duration (ns), for the names in ``sampled``
        self.samples: dict[str, list[int]] = {n: [] for n in sampled}
        #: name -> the GC pause time inside each sampled span (ns)
        self.sample_gc: dict[str, list[int]] = {n: [] for n in sampled}
        #: Free-form counts recorded by ``after`` hooks (bytes, rows, ...).
        self.counts: dict[str, int] = {}
        #: First ``keep`` spans: (id, parent_id, name, start, end, self, key)
        self.spans: list[tuple] = []
        self.keep = keep
        self._ids = 0
        self._undo: list[tuple] = []
        self._gc_start = 0
        self.gc_ns = 0
        #: Total duration of outermost spans (what the spans account for).
        self.root_ns = 0

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name, key):
        parent = self._current.get()
        if key is None and parent is not None:
            key = parent.key
        self._ids += 1
        span = _Span(self._ids, name, parent, key)
        token = self._current.set(span)
        span.start = _now()
        return span, token

    def _exit(self, span, token) -> None:
        end = _now()
        self._current.reset(token)
        start = span.start
        dur = end - start
        self_ns = dur - covered_ns(span.children) if span.children else dur
        parent = span.parent
        if parent is None:
            self.root_ns += dur
        elif parent.children is None:
            parent.children = [(start, end, span.name)]
        else:
            parent.children.append((start, end, span.name))
        waited = self.waits.get(span.name)
        if waited is not None and span.children:
            self.count(
                f"{span.name}.waiting_ns",
                covered_ns(c for c in span.children if c[2] == waited),
            )
        st = self.stats.get(span.name)
        if st is None:
            self.stats[span.name] = [1, dur, self_ns]
        else:
            st[0] += 1
            st[1] += dur
            st[2] += self_ns
        samples = self.samples.get(span.name)
        if samples is not None:
            samples.append(dur)
            self.sample_gc[span.name].append(span.gc)
        if len(self.spans) < self.keep:
            self.spans.append(
                (
                    span.id,
                    parent.id if parent is not None else 0,
                    span.name,
                    start,
                    end,
                    self_ns,
                    span.key,
                )
            )

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, key=None, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``key(*args, **kwargs)`` gives the span's key (children inherit
        their parent's); ``after(result, args, kwargs)`` runs after the
        span closes, for counts.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        enter, exit_ = self._enter, self._exit

        if inspect.iscoroutinefunction(func):

            async def wrapper(*args, **kwargs):
                span, token = enter(name, key(*args, **kwargs) if key else None)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    exit_(span, token)
                if after is not None:
                    after(result, args, kwargs)
                return result

        else:

            def wrapper(*args, **kwargs):
                span, token = enter(name, key(*args, **kwargs) if key else None)
                try:
                    result = func(*args, **kwargs)
                finally:
                    exit_(span, token)
                if after is not None:
                    after(result, args, kwargs)
                return result

        functools.update_wrapper(wrapper, func)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def track_gc(self) -> None:
        """Add the interpreter's garbage-collection pauses to ``gc_ns`` and
        to the spans they interrupt."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_start = _now()
            return
        pause = _now() - self._gc_start
        self.gc_ns += pause
        span = self._current.get()
        while span is not None:
            span.gc += pause
            span = span.parent

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- export --------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data view of everything recorded so far (cumulative)."""
        return {
            "stats": {n: list(v) for n, v in self.stats.items()},
            "samples": {n: list(v) for n, v in self.samples.items()},
            "sample_gc": {n: list(v) for n, v in self.sample_gc.items()},
            "counts": dict(self.counts),
            "gc_ns": self.gc_ns,
            "root_ns": self.root_ns,
        }


def check_span_tree(spans) -> list[str]:
    """Problems in a list of raw spans (empty when well formed): every
    child lies inside its parent and every self time is >= 0."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent, name, start, end, self_ns, _key in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if self_ns < 0:
            problems.append(f"span {sid} {name} has self time {self_ns} < 0")
        p = by_id.get(parent)
        if p is not None and not (p[3] <= start and end <= p[4]):
            problems.append(
                f"span {sid} {name} lies outside its parent {p[0]} {p[2]}"
            )
    return problems
