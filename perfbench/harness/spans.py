"""In-memory spans around the harness's own calls into each layer.

A span is ``(id, parent, op, name, start, end)``; spans of one op share the
op id. Nothing is written while the benchmark runs — :meth:`Tracer.write`
dumps the list as JSON lines at the end. Self time of a span is its
duration minus the duration of its direct children.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional


class Tracer:
    """Collects spans; one instance per traced run (single-threaded use)."""

    def __init__(self) -> None:
        # Parallel lists, appended on span *exit*; cheaper than objects.
        self.names: List[str] = []
        self.ops: List[Optional[int]] = []
        self.parents: List[int] = []
        self.ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self._next_id = 0

    def span(self, name: str, op: Optional[int] = None) -> "_Span":
        """Context manager timing the enclosed block as a child of the open span."""
        return _Span(self, name, op)

    # -- aggregation ---------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Duration in seconds of every span called ``name``, in exit order."""
        return [
            end - start
            for n, start, end in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Summed self time (duration minus direct children) of spans called ``name``."""
        child_time: Dict[int, float] = {}
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(
            (end - start) - child_time.get(span_id, 0.0)
            for span_id, n, start, end in zip(self.ids, self.names, self.starts, self.ends)
            if n == name
        )

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> int:
        """Write one JSON object per span, ordered by start time; returns the count."""
        rows = sorted(
            zip(self.starts, self.ids, self.parents, self.ops, self.names, self.ends)
        )
        origin = rows[0][0] if rows else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for start, span_id, parent, op, name, end in rows:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent if parent >= 0 else None,
                            "op": op,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 3),
                            "dur_us": round((end - start) * 1e6, 3),
                        }
                    )
                    + "\n"
                )
        return len(rows)


class _Span:
    """One open span (a plain class: cheaper per use than a generator context)."""

    __slots__ = ("tracer", "name", "op", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, op: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent = stack[-1] if stack else -1
        stack.append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.ids.append(self.span_id)
        tracer.parents.append(self.parent)
        tracer.names.append(self.name)
        tracer.ops.append(self.op)
        tracer.starts.append(self.start)
        tracer.ends.append(end)
