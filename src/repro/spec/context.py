"""Shared memo tables for the specification-checking layer.

The oracle layer answers the same questions over and over: a campaign
cell judges hundreds of runs of *one* scenario, corpus replays re-check
the same shrunk histories on every test run, and the systematic
explorer's sibling schedules frequently converge to byte-identical
histories. A :class:`CheckContext` is the shared scratchpad that makes
the repetition cheap:

* **spec.apply memoization** — ``apply_table(spec)`` caches
  ``(state, op, args) -> (next_state, response)`` per sequential spec.
  The Wing–Gong search replays the same transitions across nodes, runs,
  and histories; one table per spec means a transition is computed once
  per *cell*, not once per search node.
* **one result table** — ``linearize`` caches complete linearization
  results keyed by ``(spec, records, max_nodes)``: the exact records
  :func:`repro.spec.judge.judge` linearized, synthesized ones included,
  so the key covers everything a verdict depends on — even the
  applications' synthesis, which reads register witness state rather
  than the history. The checker stores and hands out *copies*, so a
  cached result can never be corrupted through a returned object. Two
  runs that produce the same history — extremely common under schedule
  exploration, where most interleavings commute — share one search.
  Keys use real equality (no digests), so a cache hit is a *proof* of
  identical inputs, never a collision gamble.

A context is deliberately scoped: one per campaign cell, exploration,
fuzzing shard, or replay batch. It is not thread- or process-safe —
pool workers each build their own (contexts do not cross pickling
boundaries). Passing ``ctx=None`` everywhere keeps the stateless
behaviour, so contexts are a pure accelerator, never a semantic knob.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

__all__ = ["CheckContext"]


class CheckContext:
    """Memo tables shared across the checks of one scenario/cell.

    Attributes:
        hits: ``linearize`` cache hits (diagnostics).
        misses: ``linearize`` cache misses (diagnostics).
        linearize: ``(spec, records, max_nodes) -> LinearizationResult``.
    """

    __slots__ = ("hits", "misses", "linearize", "_apply_tables")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.linearize: Dict[Any, Any] = {}
        self._apply_tables: Dict[Any, Dict] = {}

    def apply_table(self, spec: Hashable) -> Dict:
        """The ``(state, op, args) -> apply outcome`` table for ``spec``.

        Specs are frozen dataclasses, so equal spec values (the common
        case across runs of one cell) share one table.
        """
        table = self._apply_tables.get(spec)
        if table is None:
            table = self._apply_tables[spec] = {}
        return table
