"""In-memory span tracer for the benchmark's traced run.

A span is one call into a wrapped public function of gripstream. The
wrapper is installed where the caller looks the function up: ``ingest``
imports ``decode_frame`` by name, so that call is wrapped as
``gripstream.ingest.decode_frame``. Each span records its name, its id,
the id of the enclosing span on the same thread, wall start and end,
thread CPU time, self CPU time (its CPU time minus that of its child
spans) and a unit count (frames, samples, windows, values or calls).

Self time uses the thread CPU clock, so time a receiver thread spends
waiting for the interpreter lock while the other glove's thread runs is
not charged to whatever span it was in. Spans stay in per-thread arrays
until :meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from array import array

SPAN_FIELDS = ("name", "span", "parent", "start_s", "end_s", "cpu_s", "self_cpu_s", "units")
_NFIELDS = len(SPAN_FIELDS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> "_ThreadState":
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
        return name_id

    def count(self, name: str, value: int) -> None:
        """Add ``value`` to a named counter of the calling thread."""
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def wrap(self, owner, attr: str, name, units=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``units`` maps (args, kwargs, result) to the span's unit count
        (default 1: the call itself).
        """
        original = getattr(owner, attr)
        fixed_id = None if callable(name) else self._name_id(name)
        ids, clock, cpu_clock = self._ids, time.perf_counter, time.thread_time

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [next(ids), 0.0]  # span id, CPU time of child spans
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start, cpu0 = clock(), cpu_clock()
            try:
                result = original(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
            name_id = fixed_id if fixed_id is not None else self._name_id(name(args, kwargs))
            count = 1 if units is None else units(args, kwargs, result)
            state.spans.extend((name_id, frame[0], parent, start, end, cpu, cpu - frame[1], count))
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores the original."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self):
        """Yield every recorded span as a tuple in SPAN_FIELDS order."""
        for state in self._threads:
            data = state.spans
            for i in range(0, len(data), _NFIELDS):
                yield tuple(data[i:i + _NFIELDS])

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for state in self._threads:
            for name, value in state.counters.items():
                total[name] = total.get(name, 0) + value
        return total

    def aggregate(self) -> dict[str, list[float]]:
        """Per span name: [calls, units, self CPU s, CPU s, wall s]."""
        out: dict[str, list[float]] = {}
        for name_id, _, _, start, end, cpu, self_cpu, units in self.spans():
            row = out.setdefault(self.names[int(name_id)], [0, 0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += units
            row[2] += self_cpu
            row[3] += cpu
            row[4] += end - start
        return out

    def busy_during(self, outer: str, inner: tuple[str, ...]) -> float:
        """CPU seconds of ``inner`` spans, on any thread, that start inside an ``outer`` span.

        Used for the receiver: its serving threads decode and build while
        the main thread waits in ``SessionRecorder.run``.
        """
        ids = {self._name_ids[n] for n in inner if n in self._name_ids}
        outer_id = self._name_ids.get(outer)
        windows = sorted((s[3], s[4]) for s in self.spans() if s[0] == outer_id)
        starts = [w[0] for w in windows]
        busy = 0.0
        for span in self.spans():
            if span[0] in ids:
                i = bisect.bisect_right(starts, span[3]) - 1
                if i >= 0 and span[3] <= windows[i][1]:
                    busy += span[5]
        return busy

    def write(self, path) -> None:
        """Save the spans: one JSON header line, then rows of float64 values."""
        header = {"fields": SPAN_FIELDS, "names": self.names,
                  "rows": sum(len(s.spans) // _NFIELDS for s in self._threads),
                  "counters": self.counters()}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for state in self._threads:
                state.spans.tofile(fh)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []
        self.spans = array("d")
        self.counters: dict[str, int] = {}
