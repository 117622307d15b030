"""Histories: invocation/response records of high-level operations.

A *history* (Section 3.1 of the paper) is the sequence of invocation and
response events of operations applied to implemented objects. The kernel
appends to the history whenever a program yields ``Invoke`` or
``Respond``; everything the correctness checkers consume lives here.

Key concepts mapped from the paper:

* ``OperationRecord`` — one operation, with its invocation time, response
  time (or ``None`` while incomplete), arguments, and result.
* ``precedes`` — Definition 1: ``o`` precedes ``o'`` iff the response of
  ``o`` is before the invocation of ``o'``.
* ``History.restrict(correct)`` — Definition 6: ``H|correct``, the
  subhistory of the correct processes' steps.
* completions — Definition 2 is realized by checkers enumerating either
  removing or completing each incomplete operation.

Times are virtual-clock step indices assigned by the kernel, so they are
totally ordered and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import HistoryError
from repro.sim.fingerprint import abstract_value, digest64


@dataclass(frozen=True)
class OperationRecord:
    """One operation on an implemented object.

    Attributes:
        op_id: Unique id, assigned in invocation order.
        pid: Invoking process.
        obj: Name of the implemented object (e.g. ``"vreg"``).
        op: Operation name (e.g. ``"verify"``).
        args: Frozen argument tuple.
        invoked_at: Virtual time of the invocation step.
        responded_at: Virtual time of the response step, or None.
        result: The response value (meaningful only when complete).
    """

    op_id: int
    pid: int
    obj: str
    op: str
    args: Tuple[Any, ...]
    invoked_at: int
    responded_at: Optional[int] = None
    result: Any = None

    @property
    def complete(self) -> bool:
        """Whether the operation has both invocation and response."""
        return self.responded_at is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Definition 1: this op's response is before ``other``'s invocation."""
        return self.responded_at is not None and self.responded_at < other.invoked_at

    def concurrent_with(self, other: "OperationRecord") -> bool:
        """Definition 1: neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def completed(self, responded_at: int, result: Any) -> "OperationRecord":
        """A copy of this record with a response added (for completions)."""
        return replace(self, responded_at=responded_at, result=result)

    def describe(self) -> str:
        """Compact one-line rendering for error messages and reports."""
        args = ", ".join(repr(a) for a in self.args)
        resp = (
            f"-> {self.result!r} @ {self.responded_at}"
            if self.complete
            else "(incomplete)"
        )
        return (
            f"[{self.op_id}] p{self.pid} {self.obj}.{self.op}({args}) "
            f"@ {self.invoked_at} {resp}"
        )


@dataclass(frozen=True)
class Annotation:
    """A named waypoint recorded by an ``Annotate`` effect."""

    time: int
    pid: int
    label: str
    payload: Any = None


class History:
    """Mutable container of operation records, owned by one System.

    The kernel is the only writer; checkers and tests read through the
    query methods. Records are stored in invocation order.
    """

    def __init__(self) -> None:
        self._records: Dict[int, OperationRecord] = {}
        self._order: List[int] = []
        self._next_id = 0
        self._annotations: List[Annotation] = []
        #: Bumped on every operation-record mutation (annotations are
        #: excluded); an observable change counter for tests and
        #: tooling that cache derived views of the history.
        self.version = 0
        self._fp_fold = 0
        #: Set by the bulk builders (restrict / with_synthetic): the
        #: fold is recomputed lazily on first demand, so derived
        #: histories built on the checker hot path pay nothing unless
        #: somebody actually fingerprints them.
        self._fp_stale = False
        #: Eager two-XOR maintenance only starts once someone has asked
        #: for the fold (the explorer does, every step; fuzzing and
        #: campaign runs never do) — until then record events skip the
        #: per-event blake2b digests entirely and just mark the fold
        #: stale.
        self._fp_eager = False

    @staticmethod
    def _fp_digest(record: OperationRecord) -> int:
        """Digest of one record's verdict-relevant content (times excluded)."""
        return digest64(
            "op\x00"
            + repr(
                (
                    record.op_id,
                    record.pid,
                    record.obj,
                    record.op,
                    record.args,
                    record.responded_at is not None,
                    abstract_value(record.result),
                )
            )
        )

    # ------------------------------------------------------------------
    # Kernel-facing mutation
    # ------------------------------------------------------------------
    def record_invocation(
        self, pid: int, obj: str, op: str, args: Tuple[Any, ...], time: int
    ) -> int:
        """Append an invocation event; returns the fresh operation id."""
        op_id = self._next_id
        self._next_id += 1
        record = OperationRecord(
            op_id=op_id, pid=pid, obj=obj, op=op, args=args, invoked_at=time
        )
        self._records[op_id] = record
        self._order.append(op_id)
        self.version += 1
        if self._fp_eager:
            self._fp_fold ^= self._fp_digest(record)
        else:
            self._fp_stale = True
        return op_id

    def record_response(self, op_id: int, result: Any, time: int) -> None:
        """Attach the response event to operation ``op_id``."""
        record = self._records.get(op_id)
        if record is None:
            raise HistoryError(f"response for unknown operation id {op_id}")
        if record.complete:
            raise HistoryError(f"operation {op_id} already has a response")
        completed = record.completed(time, result)
        self._records[op_id] = completed
        self.version += 1
        if self._fp_eager:
            self._fp_fold ^= self._fp_digest(record) ^ self._fp_digest(completed)
        else:
            self._fp_stale = True

    def record_annotation(self, annotation: Annotation) -> None:
        """Append a trace waypoint."""
        self._annotations.append(annotation)

    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of per-record digests (see ``repro.sim.fingerprint``).

        Maintained eagerly by :meth:`record_invocation` /
        :meth:`record_response` (two XORs per event) and rebuilt lazily
        after bulk construction; ``full=True`` recomputes from the
        records — the correctness oracle.
        """
        if full:
            fold = 0
            for record in self._records.values():
                fold ^= self._fp_digest(record)
            return fold
        self._fp_eager = True
        if self._fp_stale:
            self._fp_fold = self.fingerprint_fold(full=True)
            self._fp_stale = False
        return self._fp_fold

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def operations(
        self,
        obj: Optional[str] = None,
        op: Optional[str] = None,
        pid: Optional[int] = None,
        complete_only: bool = False,
    ) -> List[OperationRecord]:
        """Records filtered by object / operation / pid, in invocation order."""
        out = []
        for op_id in self._order:
            record = self._records[op_id]
            if obj is not None and record.obj != obj:
                continue
            if op is not None and record.op != op:
                continue
            if pid is not None and record.pid != pid:
                continue
            if complete_only and not record.complete:
                continue
            out.append(record)
        return out

    def operation(self, op_id: int) -> OperationRecord:
        """The record with id ``op_id``."""
        if op_id not in self._records:
            raise HistoryError(f"no operation with id {op_id}")
        return self._records[op_id]

    def incomplete_operations(self) -> List[OperationRecord]:
        """Operations with an invocation but no response (Definition 2)."""
        return [r for r in self.all() if not r.complete]

    def all(self) -> List[OperationRecord]:
        """Every record in invocation order."""
        return [self._records[i] for i in self._order]

    def __len__(self) -> int:
        return len(self._order)

    @property
    def annotations(self) -> Tuple[Annotation, ...]:
        """All trace waypoints in recording order."""
        return tuple(self._annotations)

    def annotation_time(self, label: str) -> int:
        """Time of the first annotation with ``label`` (raises if absent)."""
        for ann in self._annotations:
            if ann.label == label:
                return ann.time
        raise HistoryError(f"no annotation labelled {label!r}")

    # ------------------------------------------------------------------
    # Derived histories
    # ------------------------------------------------------------------
    def restrict(self, pids: Iterable[int]) -> "History":
        """``H|correct`` (Definition 6): only the given processes' operations.

        Times and operation ids are preserved, so precedence in the
        restriction agrees with precedence in the original history.
        """
        keep = set(pids)
        sub = History()
        sub._next_id = self._next_id
        for op_id in self._order:
            record = self._records[op_id]
            if record.pid in keep:
                sub._records[op_id] = record
                sub._order.append(op_id)
        sub._annotations = [a for a in self._annotations if a.pid in keep]
        sub.version = self.version
        sub._fp_stale = True
        return sub

    def with_synthetic(self, extra: Sequence[OperationRecord]) -> "History":
        """A copy of this history with synthesized records merged in.

        Used by the Byzantine-linearizability checker, which constructs
        ``H'`` by adding Write/Sign operations on behalf of a Byzantine
        writer (Definitions 78 and 143). Synthetic records must carry ids
        not present in this history and be complete; *existing* records
        may be incomplete (Definition 2 lets the linearization search
        drop or complete them).
        """
        merged = History()
        for record in extra:
            if not record.complete:
                raise HistoryError(
                    f"synthetic record must be complete: {record.describe()}"
                )
        records = list(self.all()) + list(extra)
        records.sort(key=lambda r: (r.invoked_at, r.op_id))
        for record in records:
            if record.op_id in merged._records:
                raise HistoryError(f"duplicate operation id {record.op_id}")
            merged._records[record.op_id] = record
            merged._order.append(record.op_id)
        merged._next_id = max((r.op_id for r in records), default=-1) + 1
        merged._annotations = list(self._annotations)
        merged.version = self.version + len(extra)
        merged._fp_stale = True
        return merged

    def max_time(self) -> int:
        """The largest event time recorded (0 for an empty history)."""
        latest = 0
        for record in self.all():
            latest = max(latest, record.invoked_at, record.responded_at or 0)
        for ann in self._annotations:
            latest = max(latest, ann.time)
        return latest

    def describe(self) -> str:
        """Multi-line rendering of the entire history (for failures)."""
        return "\n".join(r.describe() for r in self.all()) or "(empty history)"


def fresh_op_ids(history: History, count: int) -> List[int]:
    """``count`` operation ids guaranteed unused by ``history``.

    Convenience for checkers synthesizing Byzantine-writer operations.
    """
    base = max((r.op_id for r in history.all()), default=-1) + 1
    return list(range(base, base + count))
