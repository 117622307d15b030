"""Linearizability checking (Herlihy & Wing; Definitions 2–5).

The checker answers: *is there a completion of the history and a
permutation of its operations that (a) respects real-time precedence and
(b) replays through the sequential spec with matching responses?* It uses
the classic Wing–Gong search: build the linearization left to right,
always appending an operation none of whose (real-time) predecessors is
still pending, and memoize failed ``(linearized-set, state)`` pairs.

Incomplete operations (invocation without response — Definition 2) may be
either dropped or linearized with *any* spec-produced response; the
search explores both.

The search core is an *iterative* loop over integer bitmasks: operations
are indexed ``0..n-1``, the linearized set is one machine int,
predecessor sets are precomputed masks, and every ``spec.apply``
transition is memoized per ``(state, op, args)`` — shareable across
runs through a :class:`repro.spec.context.CheckContext`. Three further
refinements keep pathological histories cheap:

* **candidate ordering** — complete operations are tried before
  incomplete ones (their fixed responses prune hardest), each group in
  invocation order, fixing the pathological orderings raw record order
  could produce;
* **symmetry reduction** — operations that are observably
  interchangeable (same op, args, completion status and result, and
  identical predecessor/successor masks) are linearized in index order
  only; any witness using another order permutes into this one;
* **no recursion** — an explicit stack bounds memory by the history
  length, so 500-operation sequential histories check in linear time
  without touching the interpreter's recursion limit.

Complexity is exponential in the width of concurrency, which is fine for
the histories this library produces (tens of operations, bounded overlap).
The memoization makes sequential-heavy histories linear-time in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import LinearizabilityViolation
from repro.sim.history import History, OperationRecord
from repro.spec.context import CheckContext
from repro.spec.sequential import SequentialSpec

#: Sentinel for "spec.apply raised ValueError here" in the apply memo.
_INAPPLICABLE = object()


@dataclass
class LinearizationResult:
    """Outcome of a linearizability check.

    Attributes:
        ok: Whether a valid linearization exists.
        order: Witness linearization as a list of operation ids (only the
            operations that were *kept*: dropped incomplete operations are
            absent), or None when not linearizable.
        explored: Number of search nodes expanded (diagnostics).
        reason: Human-readable failure summary when ``ok`` is False.
    """

    ok: bool
    order: Optional[List[int]] = None
    explored: int = 0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def copy(self) -> "LinearizationResult":
        """An independent copy (cached results hand these out)."""
        return LinearizationResult(
            ok=self.ok,
            order=None if self.order is None else list(self.order),
            explored=self.explored,
            reason=self.reason,
        )


def find_linearization(
    records: Sequence[OperationRecord],
    spec: SequentialSpec,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
) -> LinearizationResult:
    """Search for a linearization of ``records`` against ``spec``.

    Args:
        records: The operations of one object (complete and incomplete).
        spec: The object's sequential specification.
        max_nodes: Search budget; exceeding it raises
            :class:`LinearizabilityViolation` (so a silent wrong verdict
            is impossible — budget exhaustion is loud).
        ctx: Optional :class:`CheckContext`; shares the per-spec
            ``apply`` memo and the whole-result cache across the many
            checks of one campaign cell / exploration / replay batch.
    """
    records = tuple(records)
    cache_key: Optional[Tuple] = None
    if ctx is not None:
        try:
            cache_key = (spec, records, max_nodes)
            cached = ctx.table("linearize").get(cache_key)
        except TypeError:
            cache_key = None
        else:
            if cached is not None:
                ctx.hits += 1
                return cached.copy()
            ctx.misses += 1
    apply_table = (
        ctx.apply_table(spec) if ctx is not None else {}
    )
    result = _search(records, spec, max_nodes, apply_table)
    if cache_key is not None:
        ctx.table("linearize")[cache_key] = result.copy()
    return result


def _search(
    records: Tuple[OperationRecord, ...],
    spec: SequentialSpec,
    max_nodes: int,
    apply_table: Dict,
) -> LinearizationResult:
    """The iterative bitmask Wing–Gong search core."""
    n = len(records)
    initial = spec.initial_state()
    if n == 0:
        return LinearizationResult(ok=True, order=[], explored=0)

    # Static candidate order: complete operations first (their fixed
    # responses prune hardest), each group in invocation order. Bit i
    # of every mask refers to recs[i].
    recs = sorted(
        records, key=lambda r: (not r.complete, r.invoked_at, r.op_id)
    )

    # Predecessor masks (Definition 1 precedence, complete ops only) and
    # the target: every complete op must be linearized.
    preds = [0] * n
    target = 0
    for j in range(n):
        q = recs[j]
        if not q.complete:
            continue
        target |= 1 << j
        responded = q.responded_at
        bit = 1 << j
        for i in range(n):
            if responded < recs[i].invoked_at:
                preds[i] |= bit

    # Symmetry reduction: interchangeable operations (identical op,
    # args, completion status, result, predecessor mask and successor
    # mask) are only tried in index order — any witness using a member
    # out of order permutes into one that doesn't.
    succs = [0] * n
    for i in range(n):
        bit = 1 << i
        for j in range(n):
            if preds[j] & bit:
                succs[i] |= 1 << j
    try:
        groups: Dict[Hashable, int] = {}
        for i in range(n):
            r = recs[i]
            key = (
                r.op, r.args, r.complete,
                r.result if r.complete else None,
                preds[i], succs[i],
            )
            prev = groups.get(key)
            if prev is not None:
                preds[i] |= 1 << prev
            groups[key] = i
    except TypeError:
        pass  # unhashable args/results: skip the reduction, stay sound

    ops: List[Tuple[str, Tuple[Any, ...], bool, Any]] = [
        (r.op, r.args, r.complete, r.result) for r in recs
    ]
    apply = spec.apply
    table_get = apply_table.get

    explored = 0
    failed: Set[Tuple[int, Hashable]] = set()
    # One frame per partial linearization: [done-mask, state, next
    # candidate index]. path holds the chosen indices, in order.
    stack: List[List] = [[0, initial, 0]]
    path: List[int] = []
    witness: Optional[List[int]] = None
    if target == 0:
        witness = []  # nothing to linearize (all ops incomplete+dropped)
    else:
        explored = 1  # the root node
        if explored > max_nodes:
            raise LinearizabilityViolation(
                f"linearizability search exceeded {max_nodes} nodes; "
                f"history too concurrent for the budget"
            )

    while witness is None and stack:
        frame = stack[-1]
        done, state, idx = frame[0], frame[1], frame[2]
        pushed = False
        while idx < n:
            bit = 1 << idx
            if done & bit or preds[idx] & ~done:
                idx += 1
                continue
            op, args, complete, expected = ops[idx]
            key = (state, op, args)
            try:
                outcome = table_get(key)
            except TypeError:
                key = None  # unhashable args: apply uncached, stay sound
                outcome = None
            if outcome is None:
                try:
                    outcome = apply(state, op, args)
                except ValueError:
                    outcome = _INAPPLICABLE
                if key is not None:
                    apply_table[key] = outcome
            if outcome is _INAPPLICABLE:
                idx += 1
                continue
            next_state, response = outcome
            if complete and response != expected:
                idx += 1
                continue
            child_done = done | bit
            if target & ~child_done == 0:
                path.append(idx)
                witness = list(path)
                break
            if (child_done, next_state) in failed:
                idx += 1
                continue
            explored += 1
            if explored > max_nodes:
                raise LinearizabilityViolation(
                    f"linearizability search exceeded {max_nodes} nodes; "
                    f"history too concurrent for the budget"
                )
            frame[2] = idx + 1
            path.append(idx)
            stack.append([child_done, next_state, 0])
            pushed = True
            break
        if pushed or witness is not None:
            continue
        failed.add((done, state))
        stack.pop()
        if path:
            path.pop()

    if witness is None:
        return LinearizationResult(
            ok=False,
            explored=explored,
            reason=_failure_summary(records, spec),
        )
    return LinearizationResult(
        ok=True,
        order=[recs[i].op_id for i in witness],
        explored=explored,
    )


def check_linearizable(
    history: History,
    spec: SequentialSpec,
    obj: Optional[str] = None,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
) -> LinearizationResult:
    """Check one object's operations in ``history`` against ``spec``.

    ``obj`` filters the history to a single implemented object; None uses
    every record (valid only for single-object histories).
    """
    records = history.operations(obj=obj)
    return find_linearization(records, spec, max_nodes=max_nodes, ctx=ctx)


def _failure_summary(
    records: Sequence[OperationRecord], spec: SequentialSpec
) -> str:
    lines = [f"no linearization against {spec.describe()} for:"]
    for record in sorted(records, key=lambda r: r.invoked_at):
        lines.append("  " + record.describe())
    return "\n".join(lines)
