"""The paper's synthesis rules for a Byzantine owner's operations.

:func:`repro.spec.judge.judge` decides Byzantine linearizability
(Definitions 6–9: some ``H'`` with ``H'|correct = H|correct`` is
linearizable) for every family; this module holds the register
families' :class:`~repro.spec.judge.Rules`. When the owner is
Byzantine, the existential over ``H'`` is resolved constructively — the
paper's own Appendix constructions (Definition 78 for verifiable,
Definition 143 for authenticated, the Appendix C analogue for sticky,
and Lemma 28's window for test-or-set) synthesize the owner's
operations:

* one ``Sign(v)`` / ``Write(v)`` per value that some correct process
  verified, placed inside the window ``(t_0^v, t_1^v)`` between the last
  failed and the first successful verification of ``v`` — a window whose
  *existence* is exactly the relay property;
* a ``Write(v)`` glued immediately before every Read that returned ``v``
  (and before every synthesized Sign).

The judge hands the synthesized history to the generic Wing–Gong
checker. When the window for some value is empty, or the final
linearization fails, the verdict is negative with a pinpointed reason. Soundness: a
positive verdict exhibits a concrete ``H'`` and linearization, so it is
a *proof* of Byzantine linearizability; the paper's appendix proves the
construction is also complete for histories its algorithms produce.

Synthesized operations carry fractional (float) virtual times so they can
be squeezed between integer-step events without colliding; precedence
comparisons are unaffected.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.sim.history import OperationRecord
from repro.sim.values import freeze, is_bottom
from repro.spec.judge import Case, Rules
from repro.spec.properties import (
    authenticated_properties,
    sticky_properties,
    test_or_set_properties,
    verifiable_properties,
)
from repro.spec.sequential import DONE, SUCCESS

#: Width of a synthesized operation's interval, in virtual-time units.
_SLIVER = 1.0 / 4096.0


class _Placer:
    """Allocates pairwise-disjoint slivers of virtual time.

    The synthesized writer operations all belong to one (sequential)
    process, so their intervals must not overlap; the placer hands out
    non-colliding centers, nudging right in sliver-sized hops.
    """

    def __init__(self) -> None:
        self._taken: List[Tuple[float, float]] = []

    def place(
        self, center: float, upper: Optional[float] = None
    ) -> Optional[Tuple[float, float]]:
        """A free interval of width ``_SLIVER`` at/after ``center``.

        Returns None when no free slot exists below ``upper``.
        """
        lo = center
        while True:
            candidate = (lo, lo + _SLIVER)
            if upper is not None and candidate[1] >= upper:
                return None
            if self._free(candidate):
                self._taken.append(candidate)
                return candidate
            lo += 2 * _SLIVER

    def place_before(
        self, target: float, lower: Optional[float] = None
    ) -> Optional[Tuple[float, float]]:
        """A free interval hugging ``target`` from the left.

        Steps leftwards in sliver hops from just below ``target`` so a
        glued operation sits as close as possible to the operation it
        must immediately precede, minimizing the chance of another
        synthesized operation landing in between. Returns None when the
        search would cross ``lower``.
        """
        hi = target - _SLIVER
        while True:
            candidate = (hi - _SLIVER, hi)
            if lower is not None and candidate[0] <= lower:
                return None
            if self._free(candidate):
                self._taken.append(candidate)
                return candidate
            hi -= 2 * _SLIVER

    def _free(self, candidate: Tuple[float, float]) -> bool:
        return all(
            candidate[1] <= a or candidate[0] >= b for (a, b) in self._taken
        )


def _window(
    verifies: Sequence[OperationRecord], value: Any
) -> Tuple[float, float, Optional[str]]:
    """The paper's ``(t_0^v, t_1^v)`` window (Definition 47 / 139).

    ``t_0^v``: max invocation time of a false-returning Verify(value);
    ``t_1^v``: min response time of a true-returning Verify(value).
    Returns (t0, t1, error) where error explains an empty window.
    """
    t0 = 0.0
    t1 = math.inf
    for record in verifies:
        if record.args and freeze(record.args[0]) == value and record.complete:
            if record.result is False:
                t0 = max(t0, float(record.invoked_at))
            elif record.result is True:
                t1 = min(t1, float(record.responded_at))
    if t1 <= t0:
        return t0, t1, (
            f"relay window for value {value!r} is empty: a Verify returning "
            f"false was invoked at {t0:g}, after a Verify returned true at "
            f"{t1:g} — the relay property is violated"
        )
    return t0, t1, None


def _writer_record(
    op_id: int, case: Case, op: str, args: Tuple[Any, ...],
    interval: Tuple[float, float], result: Any,
) -> OperationRecord:
    return OperationRecord(
        op_id=op_id,
        pid=case.owner,
        obj=case.obj,
        op=op,
        args=tuple(freeze(a) for a in args),
        invoked_at=interval[0],
        responded_at=interval[1],
        result=result,
    )


#: A synthesis rule's outcome: ``H'|obj`` or why none exists.
_Synthesis = Union[str, List[OperationRecord]]


# ----------------------------------------------------------------------
# Verifiable register (Definition 78 construction)
# ----------------------------------------------------------------------
def _synthesize_verifiable(records: List[OperationRecord], case: Case) -> _Synthesis:
    done = [r for r in records if r.complete]
    verifies = [r for r in done if r.op == "verify"]
    reads = [r for r in done if r.op == "read"]
    placer = _Placer()
    synthesized: List[OperationRecord] = []
    id_pool = case.fresh_ids()

    # Step 2: one Sign(v) per verified value, inside its relay window.
    # The anchor is snapped to floor(mid) + 0.25: real events sit at
    # integer times and glue writes hug them from just below, so the
    # 0.25-offset band can never interleave a glued Write/Read pair
    # (a window midpoint landing exactly on a read's invocation would
    # otherwise split the read from its glued write).
    sign_records: List[OperationRecord] = []
    verified_values = {
        freeze(r.args[0]) for r in verifies if r.result is True
    }
    for value in sorted(verified_values, key=repr):
        t0, t1, err = _window(verifies, value)
        if err:
            return err
        upper = t1 if math.isfinite(t1) else t0 + 1.0
        anchor = math.floor((t0 + upper) / 2.0) + 0.25
        interval = placer.place(anchor, upper=upper)
        if interval is None:
            return f"no room to place Sign({value!r}) in ({t0:g},{t1:g})"
        record = _writer_record(
            next(id_pool), case, "sign", (value,), interval, SUCCESS
        )
        sign_records.append(record)
        synthesized.append(record)

    # Step 3: a Write(v) glued immediately before every Read -> v and
    # every synthesized Sign(v).
    glue_targets: List[Tuple[float, Any]] = []
    for read in reads:
        glue_targets.append((float(read.invoked_at), freeze(read.result)))
    for sign in sign_records:
        glue_targets.append((float(sign.invoked_at), freeze(sign.args[0])))
    for target_time, value in sorted(glue_targets):
        interval = placer.place_before(target_time, lower=target_time - 1.0)
        if interval is None:
            return f"no room to glue Write({value!r}) before {target_time:g}"
        synthesized.append(
            _writer_record(next(id_pool), case, "write", (value,), interval, DONE)
        )
    return records + synthesized


# ----------------------------------------------------------------------
# Authenticated register (Definition 143 construction)
# ----------------------------------------------------------------------
def _synthesize_authenticated(records: List[OperationRecord], case: Case) -> _Synthesis:
    v0 = case.spec.initial
    done = [r for r in records if r.complete]
    verifies = [r for r in done if r.op == "verify"]
    reads = [r for r in done if r.op == "read"]
    placer = _Placer()
    synthesized: List[OperationRecord] = []
    id_pool = case.fresh_ids()

    # Step 2: one Write(v) per verified value v != v0, inside its window
    # (anchored off the integer grid — see _synthesize_verifiable's Step 2).
    verified_values = {
        freeze(r.args[0]) for r in verifies if r.result is True
    } - {v0}
    for value in sorted(verified_values, key=repr):
        t0, t1, err = _window(verifies, value)
        if err:
            return err
        upper = t1 if math.isfinite(t1) else t0 + 1.0
        anchor = math.floor((t0 + upper) / 2.0) + 0.25
        interval = placer.place(anchor, upper=upper)
        if interval is None:
            return f"no room to place Write({value!r}) in ({t0:g},{t1:g})"
        synthesized.append(
            _writer_record(next(id_pool), case, "write", (value,), interval, DONE)
        )

    # v0 must never have failed to verify (Observation 146).
    for record in verifies:
        if (
            record.args
            and freeze(record.args[0]) == v0
            and record.result is False
        ):
            return f"Verify(v0={v0!r}) returned false: {record.describe()}"

    # Step 3: a Write(v) glued just before the *response* of every
    # Read -> v, constrained to land after t_0^v (Lemma 142). Reads
    # returning v0 get a glued Write(v0) too — v0 is in the value domain
    # and a Byzantine writer may well have (re)written it, which is the
    # only way a later read can legally observe v0 after another value.
    for read in sorted(reads, key=lambda r: r.responded_at):
        value = freeze(read.result)
        t0, _t1, err = _window(verifies, value)
        if err:
            return err
        response_time = float(read.responded_at)
        if response_time <= t0:
            return (
                f"Read -> {value!r} responded at {response_time:g}, not "
                f"after t0={t0:g} (Lemma 142 violated: a later Verify of "
                f"the value the read returned came back false)"
            )
        interval = placer.place_before(response_time, lower=t0)
        if interval is None:
            return f"no room to glue Write({value!r}) before read response"
        synthesized.append(
            _writer_record(next(id_pool), case, "write", (value,), interval, DONE)
        )
    return records + synthesized


# ----------------------------------------------------------------------
# Sticky register (Appendix C construction)
# ----------------------------------------------------------------------
def _synthesize_sticky(records: List[OperationRecord], case: Case) -> _Synthesis:
    reads = [r for r in records if r.complete and r.op == "read"]
    returned_values = {
        freeze(r.result) for r in reads if not is_bottom(r.result)
    }
    if len(returned_values) > 1:
        return (
            f"uniqueness violated: correct reads returned distinct "
            f"values {sorted(map(repr, returned_values))}"
        )
    if not returned_values:
        return records
    (value,) = returned_values
    t1 = min(float(r.responded_at) for r in reads if freeze(r.result) == value)
    t0 = max(
        (float(r.invoked_at) for r in reads if is_bottom(r.result)),
        default=0.0,
    )
    if t1 <= t0:
        return (
            f"stickiness window empty: a Read -> ⊥ was invoked at "
            f"{t0:g} after a Read -> {value!r} responded at {t1:g}"
        )
    interval = _Placer().place((t0 + t1) / 2.0, upper=t1)
    assert interval is not None  # fresh placer over an open window
    write = _writer_record(
        next(case.fresh_ids()), case, "write", (value,), interval, DONE
    )
    return records + [write]


# ----------------------------------------------------------------------
# Test-or-set (Lemma 28's object)
# ----------------------------------------------------------------------
def _synthesize_test_or_set(records: List[OperationRecord], case: Case) -> _Synthesis:
    tests = [r for r in records if r.complete and r.op == "test"]
    ones = [r for r in tests if r.result == 1]
    if not ones:
        return records
    t1 = min(float(r.responded_at) for r in ones)
    t0 = max(
        (float(r.invoked_at) for r in tests if r.result == 0),
        default=0.0,
    )
    if t1 <= t0:
        return (
            f"test-or-set relay window empty: Test -> 0 invoked at "
            f"{t0:g} after Test -> 1 responded at {t1:g} "
            f"(Lemma 28(3) violated)"
        )
    interval = _Placer().place((t0 + t1) / 2.0, upper=t1)
    assert interval is not None
    set_op = _writer_record(next(case.fresh_ids()), case, "set", (), interval, DONE)
    return records + [set_op]


# ----------------------------------------------------------------------
# The register families' rules
# ----------------------------------------------------------------------
VERIFIABLE = Rules(
    "Byzantine", _synthesize_verifiable, verifiable_properties
)
AUTHENTICATED = Rules(
    "Byzantine", _synthesize_authenticated, authenticated_properties
)
STICKY = Rules("Byzantine", _synthesize_sticky, sticky_properties)
TEST_OR_SET = Rules("Byzantine", _synthesize_test_or_set, test_or_set_properties)
