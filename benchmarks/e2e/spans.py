"""In-memory spans for the traced run, and the arithmetic done on them.

The harness owns the tracing: it wraps spans around calls *into* each
layer's public functions from outside (nothing under ``src/`` knows it
is being traced). A span is ``{id, name, start, end, parent, run}``;
spans are kept in a list and flushed as JSONL when the round ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

Span = Dict[str, Any]


class Tracer:
    """Collects spans; the innermost open span is the parent of the next."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record: Span = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap` for a coroutine function."""

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return await fn(*args, **kwargs)

        return traced

    def flush(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (children may overlap)."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and merged before
    subtracting, so nested spans are not subtracted twice (a grandchild
    lies inside its parent, which is already a child) and overlapping
    siblings — concurrent tasks — count their shared time once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: duration(span) - covered(children.get(span["id"], ()))
        for span in spans
    }


def totals_by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: how many, summed duration, summed self time."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += duration(span)
        row["self"] += own[span["id"]]
    return out


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: Tail percentiles a latency may be reported at, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.95, 0.90, 0.75)


def supported_tail(samples: int, beyond: int = 10) -> float:
    """The highest tail percentile with at least ``beyond`` samples past it.

    A percentile with fewer samples beyond it is set by a handful of
    outliers and does not repeat; 0.5 (the median) when the sample is
    too small for any tail.
    """
    for q in TAIL_PERCENTILES:
        if samples - int(q * samples) - 1 >= beyond:
            return q
    return 0.5
