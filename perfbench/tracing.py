"""Spans and stack sampling for the benchmark's traced runs.

Everything here lives in the benchmark: spans wrap the calls the
benchmark makes into each layer's public functions (or, for calls made
inside the program, a patch that the benchmark installs for the length of
one traced operation and then removes). Nothing in ``src/`` is edited.

``OoOCore.run`` is one opaque call, so :class:`StackSampler` attributes
its host time to layers: about once a millisecond of CPU time it reads
the main thread's stack and charges the sample to the innermost
``repro`` module.
"""

from __future__ import annotations

import json
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional

#: ``repro`` module prefix -> layer label; the first match wins, so a
#: package entry (``repro.memory.``) covers all of its modules
LAYERS = (
    ("repro.core.ooo_core", "core.ooo_core"),
    ("repro.core.fetch_engine", "core.fetch_engine"),
    ("repro.core.block_cache", "core.block_cache"),
    ("repro.core.apf", "core.apf"),
    ("repro.branch.tage", "branch.tage"),
    ("repro.branch.history", "branch.history"),
    ("repro.backend.exec_model", "backend.exec_model"),
    ("repro.memory.", "memory"),
    ("repro.frontend.rename", "frontend.rename"),
    ("repro.sampling.fastforward", "sampling.fastforward"),
)
OTHER = "other"
LAYER_NAMES = tuple(label for _prefix, label in LAYERS) + (OTHER,)


def layer_of(module: str) -> str:
    for prefix, label in LAYERS:
        if module == prefix or module.startswith(prefix):
            return label
    return OTHER


class SpanRecorder:
    """In-memory spans: name, start, end, parent and request id.

    Spans nest by call order on the one thread that drives the benchmark.
    They are written out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.request_id: Optional[str] = None
        self.enabled = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        if not self.enabled:
            yield {}
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "request_id": self.request_id,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, owner, attr: str, name: str,
                on_result: Optional[Callable] = None,
                context: Callable = nullcontext) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span named ``name`` for the block.

        ``on_result(record, result)`` may add fields (such as an
        instruction count) to the span from the call's return value;
        ``context()`` is entered around each call (a sampler's ``arm``).
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name) as record, context():
                result = original(*args, **kwargs)
                if on_result is not None and record:
                    on_result(record, result)
                return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: each span's duration less
        the part of its interval that its child spans cover."""
        children: Dict[int, List[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        totals: Dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for child in sorted(children.get(s["id"], ()),
                                key=lambda c: c["start"]):
                lo = max(cursor, child["start"])
                hi = min(s["end"], child["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s["name"]] = (totals.get(s["name"], 0.0)
                                 + (s["end"] - s["start"]) - covered)
        return totals

    def mean_ms(self, name: str) -> float:
        """Mean duration of the ``name`` spans in ms (0 when none)."""
        spans = self.named(name)
        if not spans:
            return 0.0
        return 1000.0 * sum(s["end"] - s["start"] for s in spans) / len(spans)

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta, "self_time_s": self.self_times(),
               "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)


class StackSampler:
    """Charge CPU time inside armed regions to the innermost ``repro``
    module on the main thread's stack.

    A profiling interval timer (``ITIMER_PROF``, about one signal per
    millisecond of CPU time) interrupts the main thread, and the handler
    reads the interrupted frame. A sampling *thread* would instead get
    the interpreter lock mostly when the main thread releases it, inside
    NumPy calls, and so over-charge the layers that make them. Forked
    workers do not inherit the timer.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.counts: Counter = Counter()
        self.armed = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    @contextmanager
    def arm(self) -> Iterator[None]:
        self.armed = True
        try:
            yield
        finally:
            self.armed = False

    def _sample(self, _signum, frame) -> None:
        if not self.armed:
            return
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                self.counts[layer_of(module)] += 1
                return
            frame = frame.f_back

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> Dict[str, float]:
        total = self.total
        return {label: (self.counts[label] / total if total else 0.0)
                for label in LAYER_NAMES}
