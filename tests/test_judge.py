"""The one judge (repro.spec.judge) and its single memo table.

Every verdict is Byzantine linearizability under a family's rules, and
the only whole-result memo is ``find_linearization``'s ``linearize``
table, keyed by the exact records linearized — synthesized ones
included. The application families synthesize from register witness
state, not from the history, so two runs with equal correct records can
still deserve different verdicts; a key over the history alone would
hand one run the other's verdict.
"""

from __future__ import annotations

import pytest

from repro.scenarios import binding_for
from repro.sim.history import History
from repro.spec import BroadcastSpec, CheckContext, judge

SPEC = BroadcastSpec(senders=(1, 2, 3), slots=1)


def _app_history() -> History:
    """p2 delivers Byzantine sender p3's slot-0 message ``"x"``."""
    history = History()
    op_id = history.record_invocation(2, "bcast", "deliver", (3, 0), 10)
    history.record_response(op_id, "x", 20)
    return history


@pytest.mark.parametrize("settled_first", [True, False])
def test_shared_context_separates_different_settled_slots(settled_first):
    rules = binding_for("broadcast").rules
    ctx = CheckContext()
    settled = (((3, (0, "x")),), 30)
    unsettled = ((), 30)
    # Two runs, equal records; only the witness state they ended in
    # (which slots settled) differs.
    runs = [(_app_history(), settled), (_app_history(), unsettled)]
    if not settled_first:
        runs.reverse()
    verdicts = {
        witness: judge(history, {1, 2}, "bcast", SPEC, rules, witness=witness, ctx=ctx)
        for history, witness in runs
    }
    # The settled slot explains the delivery; without it nothing does.
    assert verdicts[settled] is None
    assert verdicts[unsettled].startswith("bcast linearizability: ")
    assert ctx.misses == 2 and ctx.hits == 0


def test_equal_inputs_share_one_search():
    rules = binding_for("broadcast").rules
    ctx = CheckContext()
    witness = (((3, (0, "x")),), 30)
    for history in (_app_history(), _app_history()):
        assert judge(history, {1, 2}, "bcast", SPEC, rules, witness=witness, ctx=ctx) is None
    assert (ctx.misses, ctx.hits) == (1, 1)


def test_property_failures_are_the_verdict():
    # Theorem 29's H2 shape: Test -> 1, then Test' -> 0 under a
    # Byzantine setter — the relay property names the failure.
    history = History()
    first = history.record_invocation(2, "tos", "test", (), 1)
    history.record_response(first, 1, 2)
    second = history.record_invocation(3, "tos", "test", (), 5)
    history.record_response(second, 0, 6)
    binding = binding_for("test_or_set")
    reason = judge(history, {2, 3}, "tos", binding.spec_factory(), binding.rules, owner=1)
    assert reason.startswith("[relay (Lemma 28.3)] ")
