"""In-memory span tracing around calls into the program's public API.

The benchmark never edits the program: a :class:`Tracer` replaces a
function or method attribute with a wrapper that records one span per
call (name, start, end, parent) while tracing is switched on, and puts
the original back on :meth:`Tracer.restore`.  Spans stay in memory and
are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        #: ``[id, name, start, end, parent_id, round]`` per finished span
        self.spans = []
        self.round = None
        self._stack = []
        self._patched = []
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a plain call when
        tracing is off).  ``name`` may be a callable of the arguments."""
        if not self.enabled:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append([span_id, name, start, end, parent, self.round])

    def patch(self, owner, attr, name, on_call=None):
        """Wrap ``owner.attr`` (a module function or a class method) so
        each call is a span; ``on_call(result, *args, **kwargs)`` may
        count work from the call while tracing is on."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if on_call is not None and tracer.enabled:
                on_call(result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self, round_index=None):
        """``{name: seconds}``: each span's duration minus its direct
        children's, summed per name (spans of ``round_index`` only, when
        given)."""
        return self_times(
            [s for s in self.spans
             if round_index is None or s[5] == round_index])

    def write(self, path, meta=None):
        payload = {
            "meta": meta or {},
            "fields": ["id", "name", "start", "end", "parent", "round"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans):
    """Self time per span name.  Calls are single-threaded and nested, so
    a span's children cover disjoint parts of it and their durations
    subtract directly."""
    child_time = {}
    for span_id, _name, start, end, parent, _round in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for span_id, name, start, end, _parent, _round in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals
