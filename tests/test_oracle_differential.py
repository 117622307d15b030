"""Differential net for the bitmask Wing–Gong checker.

Pits :func:`repro.spec.find_linearization` against a naive brute-force
reference (enumerate completions × permutations, replay each through the
spec) on hundreds of randomized small histories over all five sequential
specs — complete and incomplete operations alike. Every positive verdict
is additionally validated: the witness must replay through the spec with
matching responses and respect real-time precedence.

A second net pits each register family's two judging halves against
each other — ``Rules.properties`` (:mod:`repro.spec.properties`) vs
``Rules.synthesize`` linearized once, taken from the family's binding
as the campaign runs them — on generated histories with a correct
writer whose last operation may be pending: the properties are
necessary conditions, so a history they reject must not linearize
either.

Also pins the loud-budget contract (``explored`` exhaustion raises, with
and without a shared :class:`CheckContext`) and the 500-operation
sequential-history regression for the iterative rewrite (the recursive
checker risked ``RecursionError`` and pathological candidate orders).
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinearizabilityViolation
from repro.scenarios import binding_for
from repro.sim.history import History, OperationRecord
from repro.sim.values import BOTTOM
from repro.spec import (
    AtomicRegisterSpec,
    AuthenticatedRegisterSpec,
    CheckContext,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
    find_linearization,
)
from repro.spec.judge import linearize, restrict
from repro.spec.sequential import DONE, FAIL, SUCCESS


def brute_force_linearizable(records, spec) -> bool:
    """Reference checker: try every completion and every permutation."""
    complete = [r for r in records if r.complete]
    incomplete = [r for r in records if not r.complete]
    for keep_mask in range(1 << len(incomplete)):
        kept = [
            r for i, r in enumerate(incomplete) if keep_mask >> i & 1
        ]
        for perm in permutations(complete + kept):
            if _legal(perm, spec):
                return True
    return False


def _legal(perm, spec) -> bool:
    for later_index in range(len(perm)):
        for earlier_index in range(later_index):
            if perm[later_index].precedes(perm[earlier_index]):
                return False
    state = spec.initial_state()
    for record in perm:
        try:
            state, response = spec.apply(state, record.op, record.args)
        except ValueError:
            return False
        if record.complete and response != record.result:
            return False
    return True


def validate_witness(records, spec, order) -> None:
    """A positive verdict's witness must itself be a legal linearization."""
    by_id = {r.op_id: r for r in records}
    perm = [by_id[op_id] for op_id in order]
    assert _legal(perm, spec), f"invalid witness {order}"
    kept = {r.op_id for r in perm}
    for record in records:
        if record.complete:
            assert record.op_id in kept, f"complete op {record.op_id} dropped"


# ----------------------------------------------------------------------
# Randomized history generation, shaped to each spec's vocabulary
# ----------------------------------------------------------------------
_DOMAIN = (10, 20, 30)


def _random_op(rng, kind):
    if kind == "regular":
        if rng.random() < 0.5:
            return "write", (rng.choice(_DOMAIN),), DONE
        return "read", (), rng.choice(_DOMAIN + (0, None))
    if kind == "verifiable":
        roll = rng.random()
        if roll < 0.3:
            return "write", (rng.choice(_DOMAIN),), DONE
        if roll < 0.5:
            return "sign", (rng.choice(_DOMAIN),), rng.choice((SUCCESS, FAIL))
        if roll < 0.75:
            return "verify", (rng.choice(_DOMAIN),), rng.choice((True, False))
        return "read", (), rng.choice(_DOMAIN + (0, None))
    if kind == "authenticated":
        roll = rng.random()
        if roll < 0.4:
            return "write", (rng.choice(_DOMAIN),), DONE
        if roll < 0.7:
            return "verify", (rng.choice(_DOMAIN),), rng.choice((True, False))
        return "read", (), rng.choice(_DOMAIN + (0, None))
    if kind == "sticky":
        if rng.random() < 0.4:
            return "write", (rng.choice(_DOMAIN),), DONE
        return "read", (), rng.choice(_DOMAIN + (BOTTOM,))
    # test_or_set
    if rng.random() < 0.3:
        return "set", (), DONE
    return "test", (), rng.choice((0, 1))


def _random_history(rng, kind):
    count = rng.randint(1, 6)
    records = []
    for op_id in range(count):
        op, args, result = _random_op(rng, kind)
        invoked = rng.randint(0, 20)
        if rng.random() < 0.25:
            responded, result = None, None
        else:
            responded = invoked + rng.randint(1, 10)
        records.append(
            OperationRecord(
                op_id=op_id,
                pid=1 + op_id % 3,
                obj="r",
                op=op,
                args=args,
                invoked_at=invoked,
                responded_at=responded,
                result=result,
            )
        )
    return records


_SPECS = {
    "regular": AtomicRegisterSpec(initial=0),
    "verifiable": VerifiableRegisterSpec(initial=0),
    "authenticated": AuthenticatedRegisterSpec(initial=0),
    "sticky": StickyRegisterSpec(),
    "test_or_set": TestOrSetSpec(),
}


@pytest.mark.parametrize("kind", sorted(_SPECS))
def test_differential_vs_brute_force(kind):
    """120 randomized histories per spec (600 total) against the reference."""
    spec = _SPECS[kind]
    rng = random.Random(hash(kind) & 0xFFFF)
    ctx = CheckContext()
    agreements = {True: 0, False: 0}
    for case in range(120):
        records = _random_history(rng, kind)
        expected = brute_force_linearizable(records, spec)
        for shared_ctx in (None, ctx):
            result = find_linearization(records, spec, ctx=shared_ctx)
            assert result.ok == expected, (
                f"{kind} case {case} (ctx={'shared' if shared_ctx else 'none'}): "
                f"checker said {result.ok}, brute force said {expected}, "
                f"history:\n" + "\n".join(r.describe() for r in records)
            )
            if result.ok:
                validate_witness(records, spec, result.order)
        agreements[expected] += 1
    # The generator must exercise both verdicts, or the net is dead.
    assert agreements[True] > 10 and agreements[False] > 10, agreements


def test_unhashable_args_still_check():
    """Unhashable operation args skip the memo tables, never crash."""
    spec = AtomicRegisterSpec(initial=0)
    records = [
        OperationRecord(
            op_id=0, pid=1, obj="r", op="write", args=([1, 2],),
            invoked_at=0, responded_at=1, result=DONE,
        ),
        OperationRecord(
            op_id=1, pid=2, obj="r", op="read", args=(),
            invoked_at=2, responded_at=3, result=(1, 2),  # frozen form
        ),
    ]
    for ctx in (None, CheckContext()):
        result = find_linearization(records, spec, ctx=ctx)
        assert result.ok and result.order == [0, 1]


def test_budget_exhaustion_raises_loudly():
    """``explored`` exhaustion must raise, never return a quiet verdict."""
    spec = TestOrSetSpec()
    records = [
        OperationRecord(
            op_id=i, pid=i + 1, obj="r", op="test", args=(),
            invoked_at=0, responded_at=100, result=i % 2,
        )
        for i in range(8)
    ]
    with pytest.raises(LinearizabilityViolation):
        find_linearization(records, spec, max_nodes=2)
    # A shared context must not swallow the raise either (the failed
    # search is never cached, so it raises again).
    ctx = CheckContext()
    for _ in range(2):
        with pytest.raises(LinearizabilityViolation):
            find_linearization(records, spec, max_nodes=2, ctx=ctx)


def test_long_sequential_history_checks_linearly():
    """500 sequential ops: no recursion limit, no pathological ordering."""
    spec = AtomicRegisterSpec(initial=0)
    records = []
    value = 0
    for op_id in range(500):
        time = 2 * op_id
        if op_id % 2 == 0:
            value = op_id
            records.append(
                OperationRecord(
                    op_id=op_id, pid=1, obj="r", op="write", args=(value,),
                    invoked_at=time, responded_at=time + 1, result=DONE,
                )
            )
        else:
            records.append(
                OperationRecord(
                    op_id=op_id, pid=2, obj="r", op="read", args=(),
                    invoked_at=time, responded_at=time + 1, result=value,
                )
            )
    result = find_linearization(records, spec)
    assert result.ok
    assert result.order == list(range(500))
    # Sequential histories must stay linear-time: one node per op.
    assert result.explored <= 501


def test_shared_context_caches_whole_results():
    """Identical (records, spec) pairs hit the whole-result cache."""
    spec = AtomicRegisterSpec(initial=0)
    records = (
        OperationRecord(
            op_id=0, pid=1, obj="r", op="write", args=(5,),
            invoked_at=0, responded_at=1, result=DONE,
        ),
        OperationRecord(
            op_id=1, pid=2, obj="r", op="read", args=(),
            invoked_at=2, responded_at=3, result=5,
        ),
    )
    ctx = CheckContext()
    first = find_linearization(records, spec, ctx=ctx)
    assert ctx.misses == 1 and ctx.hits == 0
    second = find_linearization(records, spec, ctx=ctx)
    assert ctx.hits == 1
    assert first.ok and second.ok and first.order == second.order
    # Cached results are independent copies, not aliases.
    second.order.append(99)
    assert find_linearization(records, spec, ctx=ctx).order == first.order


# ----------------------------------------------------------------------
# Observable properties are necessary conditions of Byzantine
# linearizability
# ----------------------------------------------------------------------
#: family -> examples. Verifiable histories that linearize only through
#: a pending writer operation are the rarest (about 2 % of draws), so
#: that family gets more examples.
_FAMILIES = {"verifiable": 400, "authenticated": 100, "sticky": 100, "test_or_set": 100}

#: One written value keeps reads and verifies on what the writer touches.
_V = _DOMAIN[0]


def _writer_script(ops):
    """A correct writer's results: Sign(v) succeeds iff it wrote v before."""
    return [
        (op, (_V,), SUCCESS if "write" in ops[:i] else FAIL)
        if op == "sign"
        else (op, () if op == "set" else (_V,), DONE)
        for i, op in enumerate(ops)
    ]


_reads = st.sampled_from((0, _V)).map(lambda r: ("read", (), r))
_verifies = st.booleans().map(lambda r: ("verify", (_V,), r))

#: family -> (writer operation names, one reader script). Built once:
#: strategy construction, not drawing, dominates a fresh strategy's cost.
_SCRIPTS = {
    "verifiable": (
        st.lists(st.sampled_from(("write", "sign")), min_size=1, max_size=3),
        st.lists(_reads | _verifies, max_size=2),
    ),
    "authenticated": (
        st.lists(st.just("write"), min_size=1, max_size=3),
        st.lists(_reads | _verifies, max_size=2),
    ),
    "sticky": (
        st.lists(st.just("write"), min_size=1, max_size=3),
        st.lists(
            st.sampled_from((BOTTOM, _V)).map(lambda r: ("read", (), r)), max_size=2
        ),
    ),
    "test_or_set": (
        st.lists(st.just("set"), min_size=1, max_size=3),
        st.lists(st.sampled_from((0, 1)).map(lambda r: ("test", (), r)), max_size=2),
    ),
}


@st.composite
def _writer_histories(draw, family):
    """Writer pid 1 and readers 2, 3, all correct, at distinct times;
    the writer's last operation is optionally left pending."""
    writer_ops, reader_script = _SCRIPTS[family]
    scripts = {1: _writer_script(draw(writer_ops))}
    for pid in (2, 3):
        scripts[pid] = draw(reader_script)
    writer_pending = draw(st.booleans())
    # Every process alternates invocation and response events; a
    # permutation of the per-process event tokens interleaves them.
    tokens = [pid for pid, ops in scripts.items() for _ in range(2 * len(ops))]
    history = History()
    open_op = {}
    seen = dict.fromkeys(scripts, 0)
    last_writer_event = 2 * len(scripts[1]) - 1
    for time, pid in enumerate(draw(st.permutations(tokens))):
        event = seen[pid]
        seen[pid] += 1
        op, args, result = scripts[pid][event // 2]
        if event % 2 == 0:
            open_op[pid] = history.record_invocation(pid, "r", op, args, time)
        elif not (writer_pending and pid == 1 and event == last_writer_event):
            history.record_response(open_op[pid], result, time)
    return history


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_property_rejection_implies_byzantine_rejection(family):
    binding = binding_for(family)

    @settings(max_examples=_FAMILIES[family], deadline=None)
    @given(history=_writer_histories(family))
    def check(history):
        records, case = restrict(
            history, {1, 2, 3}, "r", binding.spec_factory(), 1
        )
        report = binding.rules.properties(records, case)
        if not report.ok:
            verdict = linearize(records, case, binding.rules.synthesize)
            assert not verdict.ok, f"{report.summary()}\n{history.describe()}"

    check()
