"""In-memory spans and counters for the benchmark's traced run.

A span is one call of a wrapped function: name, start, end, the span that
caused it, and the request (benchmark operation) it belongs to. Spans are
kept in memory and written out when the run ends. Aggregates per name hold
the call count, inclusive time and self time, where self time is a span's
duration minus the part of it its child spans cover.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost open span of the same thread. A thread whose stack is empty
takes as parent the innermost open "adopting" span of any thread: the
sweep span adopts the spans of the thread pool it starts. Children in
other threads can overlap each other, so an adopting span subtracts the
union of its children's intervals, not their sum.

Hot leaf calls (FFTs) are not spans: `leaf` only counts them and adds their
time, and they count as covered time of the enclosing span. Aggregates and
counters live in per-thread dicts that are merged on read, so no update is
shared between threads.
"""

from __future__ import annotations

import itertools
import threading
import time

perf_counter = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "child_s", "intervals")

    def __init__(self, span_id, adopting):
        self.span_id = span_id
        self.child_s = 0.0
        self.intervals = [] if adopting else None

    def cover(self, start, end):
        self.child_s += end - start
        if self.intervals is not None:
            self.intervals.append((start, end))

    def covered(self):
        if self.intervals is None:
            return self.child_s
        total, reach = 0.0, float("-inf")
        for start, end in sorted(self.intervals):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total


class _ThreadState:
    __slots__ = ("stack", "agg", "counts")

    def __init__(self):
        self.stack = []
        self.agg = {}     # name -> [calls, inclusive_s, self_s]
        self.counts = {}  # name -> number


class Tracer:
    """Spans, per-name aggregates and counters of one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._adopters = []
        self._ids = itertools.count(1)
        self.spans = []  # (span_id, parent_id, request, thread, name, start, end)
        self.request = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name, fn, args, kwargs, *, record=True, adopting=False):
        """Call fn(*args, **kwargs) inside a span named `name`.

        Returns (result, exception, duration). The exception, if any, is
        returned rather than raised so that the caller can count it first.
        With record=False only the aggregate is kept, not the span itself.
        """
        st = self._state()
        stack = st.stack
        adopter = None
        if stack:
            parent_id = stack[-1].span_id
        else:
            with self._lock:
                adopter = self._adopters[-1] if self._adopters else None
            parent_id = adopter.span_id if adopter is not None else 0
        frame = _Frame(next(self._ids), adopting)
        if adopting:
            with self._lock:
                self._adopters.append(frame)
        stack.append(frame)
        result = exc = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # handed back to the wrapper to re-raise
            exc = err
        finally:
            end = perf_counter()
            stack.pop()
            if adopting:
                with self._lock:
                    self._adopters.remove(frame)
        dur = end - start
        agg = st.agg.get(name)
        if agg is None:
            agg = st.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame.covered()
        if stack:
            stack[-1].cover(start, end)
        elif adopter is not None:
            with self._lock:
                adopter.intervals.append((start, end))
        if record:
            self.spans.append((frame.span_id, parent_id, self.request,
                               threading.get_ident(), name, start, end))
        return result, exc, dur

    def leaf(self, name, start, end, nbytes):
        """Count one hot leaf call and its time without recording a span."""
        st = self._state()
        agg = st.agg.get(name)
        if agg is None:
            agg = st.agg[name] = [0, 0.0, 0.0]
        dur = end - start
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur
        st.counts[name + ".bytes"] = st.counts.get(name + ".bytes", 0) + nbytes
        if st.stack:
            st.stack[-1].cover(start, end)

    def count(self, name, value=1):
        st = self._state()
        st.counts[name] = st.counts.get(name, 0) + value

    def untimed(self, start, end):
        """Mark [start, end) of tracer bookkeeping as covered in the open span."""
        st = self._state()
        if st.stack:
            st.stack[-1].cover(start, end)

    def aggregate(self, name):
        """Merged (calls, inclusive_s, self_s) over all threads."""
        calls, incl, self_s = 0, 0.0, 0.0
        with self._lock:
            states = list(self._states)
        for st in states:
            agg = st.agg.get(name)
            if agg is not None:
                calls += agg[0]
                incl += agg[1]
                self_s += agg[2]
        return calls, incl, self_s

    def counter(self, name):
        with self._lock:
            states = list(self._states)
        return sum(st.counts.get(name, 0) for st in states)
