"""In-memory span recorder and the blocking-path analysis over its spans.

A span is one dict: ``name``, ``start``, ``end`` (seconds on
``CLOCK_MONOTONIC``, which every process on the host shares, so client
and server spans line up), ``trace`` (the request's trace id), ``id``,
``parent`` and free-form ``attrs``.  Spans stay in memory until
:meth:`Recorder.dump` writes them out, so recording costs one list
append under a lock.

Parents are resolved two ways: spans opened on the same thread or
asyncio task nest through a context variable; spans of one request that
run on another thread name their parent layer (``parent_name``) and are
joined to the open span of that layer with the same trace id.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """Collects spans; thread- and task-safe."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._open: Dict[tuple, str] = {}

    def _new_id(self) -> str:
        return f"{self.tag}{next(self._ids)}"

    def add(self, name: str, start: float, end: float, trace: Optional[str],
            parent: Optional[str] = None, parent_name: Optional[str] = None,
            **attrs) -> str:
        """Record a finished span; returns its id."""
        sid = self._new_id()
        with self._lock:
            if parent is None and parent_name is not None:
                parent = self._open.get((trace, parent_name))
            self.spans.append({
                "name": name, "start": start, "end": end, "trace": trace,
                "id": sid, "parent": parent, "attrs": attrs,
            })
        return sid

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None,
             parent_name: Optional[str] = None, **attrs):
        """Time the block as a span nested under the innermost open span
        of this thread or task (or under ``parent_name`` of ``trace``)."""
        stack = _STACK.get()
        outer = stack[-1] if stack else None
        if trace is None and outer is not None:
            trace = outer[1]
        parent = outer[0] if outer is not None and outer[1] == trace else None
        sid = self._new_id()
        with self._lock:
            if parent is None and parent_name is not None:
                parent = self._open.get((trace, parent_name))
            self._open[(trace, name)] = sid
        token = _STACK.set(stack + ((sid, trace),))
        start = now()
        try:
            yield
        finally:
            end = now()
            _STACK.reset(token)
            with self._lock:
                if self._open.get((trace, name)) == sid:
                    del self._open[(trace, name)]
                self.spans.append({
                    "name": name, "start": start, "end": end,
                    "trace": trace, "id": sid, "parent": parent,
                    "attrs": attrs,
                })

    def take(self) -> List[dict]:
        with self._lock:
            out, self.spans = self.spans, []
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.take():
                fh.write(json.dumps(sp) + "\n")


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def blocking_path(root: dict, children: Dict[str, List[dict]]) -> Dict[str, float]:
    """Self time per span name along the root's blocking path (seconds).

    Walking back from a span's end, the child that ended last before the
    cursor is the one the span was waiting for; it joins the path, the
    cursor moves to its start, and the gaps are the span's own time.
    Parallel siblings (tiles on two workers) therefore count once.  The
    values add up to the root's duration.
    """
    out: Dict[str, float] = {}

    def walk(span: dict, lo: float, hi: float) -> None:
        cursor, own = hi, 0.0
        kids = [c for c in children.get(span["id"], ())
                if c["start"] < cursor and c["end"] > lo]
        while True:
            live = [c for c in kids if c["start"] < cursor]
            if not live:
                break
            nxt = max(live, key=lambda c: min(c["end"], cursor))
            end = min(nxt["end"], cursor)
            start = max(nxt["start"], lo)
            own += cursor - end
            walk(nxt, start, end)
            cursor = start
            kids.remove(nxt)
            if cursor <= lo:
                break
        own += max(cursor - lo, 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own

    walk(root, root["start"], root["end"])
    return out


def by_trace(spans: Iterable[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for sp in spans:
        out.setdefault(sp["trace"], []).append(sp)
    return out


def link_roots(spans: List[dict], root_name: str, orphan_names: Iterable[str]) -> None:
    """Parent spans recorded in another process (no parent id of their
    own) to the root span of the same trace."""
    roots = {sp["trace"]: sp["id"] for sp in spans if sp["name"] == root_name}
    names = set(orphan_names)
    for sp in spans:
        if sp["parent"] is None and sp["name"] in names:
            sp["parent"] = roots.get(sp["trace"])


def path_breakdown(spans: List[dict], root_name: str) -> List[Dict[str, float]]:
    """One blocking-path breakdown (milliseconds per span name) per root."""
    children: Dict[str, List[dict]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    rows = []
    for sp in spans:
        if sp["name"] == root_name:
            path = blocking_path(sp, children)
            rows.append({k: v * 1e3 for k, v in path.items()})
    return rows
