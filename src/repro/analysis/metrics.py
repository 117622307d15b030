"""Metrics extraction: operation latencies and step-cost aggregation.

The paper reports no machine numbers (it is a theory paper), so E10's
"performance" axis is simulator-relative: operation latency measured in
*virtual steps* (one shared-memory access or local pause per step).
These are exactly the complexity-style quantities one would derive from
the algorithms analytically — Verify's round count, Help's scan width —
measured instead of counted by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.history import History, OperationRecord
from repro.sim.system import System


@dataclass
class LatencyStats:
    """Summary statistics for one operation type's latencies (in steps)."""

    count: int
    mean: float
    minimum: int
    maximum: int
    p50: float
    p95: float

    @staticmethod
    def from_samples(samples: Sequence[int]) -> "LatencyStats":
        """Compute stats; raises on empty samples (caller filters)."""
        if not samples:
            raise ValueError("no samples")
        ordered = sorted(samples)
        return LatencyStats(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
        )

    def row(self) -> Tuple[int, float, int, int, float, float]:
        """Tuple form for table rendering."""
        return (
            self.count,
            round(self.mean, 1),
            self.minimum,
            self.maximum,
            self.p50,
            self.p95,
        )


def _percentile(ordered: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sample."""
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def operation_latencies(
    history: History,
    obj: Optional[str] = None,
    pids: Optional[Iterable[int]] = None,
) -> Dict[str, List[int]]:
    """Latency samples (response - invocation, in steps) per operation name."""
    keep = set(pids) if pids is not None else None
    samples: Dict[str, List[int]] = {}
    for record in history.operations(obj=obj, complete_only=True):
        if keep is not None and record.pid not in keep:
            continue
        samples.setdefault(record.op, []).append(
            int(record.responded_at - record.invoked_at)
        )
    return samples


def register_access_totals(system: System, prefix: str) -> Dict[str, int]:
    """Total reads+writes per register under ``prefix``, plus a grand total."""
    totals: Dict[str, int] = {}
    grand = 0
    for name in system.registers.names():
        if not name.startswith(prefix):
            continue
        count = system.registers.read_count(name) + system.registers.write_count(name)
        totals[name] = count
        grand += count
    totals["<total>"] = grand
    return totals


def merge_latency_samples(
    runs: Iterable[Dict[str, List[int]]]
) -> Dict[str, List[int]]:
    """Pool per-operation samples across several runs."""
    pooled: Dict[str, List[int]] = {}
    for run in runs:
        for op, samples in run.items():
            pooled.setdefault(op, []).extend(samples)
    return pooled
