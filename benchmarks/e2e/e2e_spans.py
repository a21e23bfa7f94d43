"""The harness's own span recorder and the wrappers that feed it.

Spans are taken from outside the engine, around public calls only: each is
``[name, start, end, parent, request, tag]`` on the monotonic clock, kept in
memory and written out when the run ends.  A span's layer is the part of its
name before the first dot; a layer's self time is its spans' durations minus
what their direct children cover.  Spans inside the engine are a later issue.

One request's spans may live on several threads (the asyncio client, a
serving worker, an executor thread): a span opened on a thread with no open
span of its own hangs under the root span of that thread's current request.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, REQUEST, TAG = range(6)


class Recorder:
    """In-memory span store; safe to feed from several threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: request id -> index of its root span.
        self.roots: Dict[str, int] = {}
        #: request id -> monotonic time of ``AdmissionQueue.submit``.
        self.submitted: Dict[str, float] = {}
        #: request id -> when its most recent non-root span ended.
        self.last_end: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _append(self, span: list) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, request: Optional[str]) -> None:
        """Make ``request`` this thread's current request (None = none)."""
        self._local.request = request

    def open_root(self, name: str, request: str) -> int:
        """Open one request's root span.

        Roots stay off the thread's span stack: asyncio clients interleave
        on one thread, so a stack there would nest unrelated requests.
        """
        index = self._append([name, time.perf_counter(), None, None,
                              request, None])
        self.roots[request] = index
        self.adopt(request)
        return index

    def close_root(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()

    def open(self, name: str, request: Optional[str] = None) -> int:
        if request is not None:
            self.adopt(request)
        request = getattr(self._local, "request", None)
        stack = self._stack()
        parent = stack[-1] if stack else self.roots.get(request)
        index = self._append([name, time.perf_counter(), None, parent,
                              request, None])
        stack.append(index)
        return index

    def close(self, index: int, tag: Optional[str] = None) -> None:
        span = self.spans[index]
        span[END] = self.last_end[span[REQUEST]] = time.perf_counter()
        span[TAG] = tag
        self._stack().pop()

    def add(self, name: str, start: float, end: float, request: str) -> None:
        """Record a finished span under ``request``'s root."""
        self._append([name, start, end, self.roots.get(request), request,
                      None])

    # -- reading ------------------------------------------------------------

    def finished(self) -> List[list]:
        return [span for span in self.spans if span[END] is not None]

    def durations_ms(self, name: str, tag: Optional[str] = None,
                     rooted: bool = False) -> List[float]:
        """Durations of the finished spans called ``name``.

        ``rooted`` keeps only spans that belong to a request, which leaves
        out the harness's own calls outside any op.
        """
        return [(span[END] - span[START]) * 1e3 for span in self.finished()
                if span[NAME] == name
                and (tag is None or span[TAG] == tag)
                and (not rooted or span[PARENT] is not None)]

    def root_name(self, span: list) -> Optional[str]:
        root = self.roots.get(span[REQUEST])
        return None if root is None else self.spans[root][NAME]

    def self_ms(self) -> List[float]:
        """Per span, its duration minus what its direct children cover
        (milliseconds; 0.0 for a span still open)."""
        own = [0.0 if span[END] is None else span[END] - span[START]
               for span in self.spans]
        for span in self.finished():
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return [max(seconds, 0.0) * 1e3 for seconds in own]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_ms()):
            totals[span[NAME].split(".", 1)[0]] += own / 1e3
        return dict(totals)

    def coverage(self) -> float:
        """Share of summed op time that named layers account for."""
        op_time = sum(span[END] - span[START] for span in self.finished()
                      if span[PARENT] is None and span[NAME].startswith("op."))
        if op_time <= 0.0:
            return 0.0
        return 1.0 - self.self_times().get("op", 0.0) / op_time

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "tag"],
                       "spans": self.spans}, handle)


def _wrap(recorder: Recorder, cls: type, attr: str, name: str,
          tag_of: Optional[Callable[[Any], Optional[str]]] = None,
          ) -> Callable[[], None]:
    """Replace ``cls.attr`` by a span-recording wrapper; returns the undo."""
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name)
        tag = "raised"
        try:
            result = original(*args, **kwargs)
            tag = tag_of(result) if tag_of is not None else None
            return result
        finally:
            recorder.close(index, tag)

    setattr(cls, attr, wrapper)
    return lambda: setattr(cls, attr, original)


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Class-level wrappers on the engine's public calls, for one region."""
    from repro.analysis.contracts import PlanContractVerifier
    from repro.api.database import Database
    from repro.api.session import Session
    from repro.core.optimizer import Optimizer
    from repro.executor.runtime import Executor
    from repro.serving.cache import ResultCache
    from repro.serving.queue import AdmissionQueue
    from repro.sql.binder import Binder
    from repro.sql.parser import Parser

    def result_tag(result: Any) -> str:
        return "result_hit" if result.from_result_cache else "result_miss"

    undo = [
        _wrap(recorder, Parser, "parse", "sql.parse"),
        _wrap(recorder, Binder, "bind", "sql.bind"),
        _wrap(recorder, Session, "plan", "api.plan"),
        _wrap(recorder, Session, "execute", "api.execute", result_tag),
        _wrap(recorder, Database, "optimize", "api.optimize",
              lambda pair: "plan_hit" if pair[1] else "plan_miss"),
        _wrap(recorder, Optimizer, "optimize", "core.optimize"),
        _wrap(recorder, PlanContractVerifier, "verify", "analysis.verify"),
        _wrap(recorder, Executor, "execute", "executor.execute"),
        _wrap(recorder, ResultCache, "lookup", "api.result_lookup"),
        _wrap(recorder, ResultCache, "store", "api.result_store"),
        _wrap(recorder, Database, "register_table", "storage.register_table"),
    ]

    # The admission queue is where a request changes threads, so its two
    # wrappers also carry the request id across and stamp the queue wait.
    submit, take = AdmissionQueue.submit, AdmissionQueue.next

    @functools.wraps(submit)
    def traced_submit(self: Any, tenant: str, request: Any) -> None:
        recorder.submitted[request.name] = time.perf_counter()
        index = recorder.open("serving.submit", request=request.name)
        try:
            submit(self, tenant, request)
        finally:
            recorder.close(index)

    @functools.wraps(take)
    def traced_next(self: Any, timeout: Optional[float] = None) -> Any:
        item = take(self, timeout)
        if item is not None:
            name = item[1].name
            recorder.adopt(name)
            recorder.add("serving.queue_wait", recorder.submitted[name],
                         time.perf_counter(), name)
        return item

    AdmissionQueue.submit, AdmissionQueue.next = traced_submit, traced_next
    try:
        yield recorder
    finally:
        AdmissionQueue.submit, AdmissionQueue.next = submit, take
        for restore in undo:
            restore()
