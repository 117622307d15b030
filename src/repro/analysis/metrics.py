"""Metrics extraction: operation latencies in virtual steps.

The paper reports no machine numbers (it is a theory paper), so E10's
"performance" axis is simulator-relative: operation latency measured in
*virtual steps* (one shared-memory access or local pause per step).
These are exactly the complexity-style quantities one would derive from
the algorithms analytically — Verify's round count, Help's scan width —
measured instead of counted by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.history import History


@dataclass
class LatencyStats:
    """Summary statistics for one operation type's latencies (in steps)."""

    count: int
    mean: float
    maximum: int

    @staticmethod
    def from_samples(samples: Sequence[int]) -> "LatencyStats":
        """Compute stats; raises on empty samples (caller filters)."""
        if not samples:
            raise ValueError("no samples")
        return LatencyStats(
            count=len(samples),
            mean=sum(samples) / len(samples),
            maximum=max(samples),
        )


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


def merge_latency_samples(
    runs: Iterable[Dict[str, List[int]]]
) -> Dict[str, List[int]]:
    """Pool per-operation samples across several runs."""
    pooled: Dict[str, List[int]] = {}
    for run in runs:
        for op, samples in run.items():
            pooled.setdefault(op, []).extend(samples)
    return pooled
