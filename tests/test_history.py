"""Unit tests for history recording (repro.sim.history)."""

from __future__ import annotations

import pytest

from repro.errors import HistoryError
from repro.sim.history import History, OperationRecord, fresh_op_ids


def make_record(op_id, pid, inv, resp=None, op="read", result=None, obj="r"):
    return OperationRecord(
        op_id=op_id,
        pid=pid,
        obj=obj,
        op=op,
        args=(),
        invoked_at=inv,
        responded_at=resp,
        result=result,
    )


class TestRecording:
    def test_invocation_then_response(self):
        history = History()
        op_id = history.record_invocation(1, "reg", "write", (5,), time=10)
        history.record_response(op_id, "done", time=20)
        (record,) = history.all()
        assert record.op_id == op_id and record.complete
        assert record.invoked_at == 10 and record.responded_at == 20
        assert record.result == "done"

    def test_response_for_unknown_op(self):
        with pytest.raises(HistoryError):
            History().record_response(99, None, time=1)

    def test_double_response_rejected(self):
        history = History()
        op_id = history.record_invocation(1, "reg", "read", (), time=1)
        history.record_response(op_id, 0, time=2)
        with pytest.raises(HistoryError):
            history.record_response(op_id, 0, time=3)

    def test_ids_in_invocation_order(self):
        history = History()
        first = history.record_invocation(1, "r", "a", (), 1)
        second = history.record_invocation(2, "r", "b", (), 2)
        assert first < second
        assert [r.op_id for r in history.all()] == [first, second]

    def test_incomplete_listed(self):
        history = History()
        history.record_invocation(1, "r", "a", (), 1)
        assert [record.complete for record in history.all()] == [False]


class TestPrecedence:
    def test_precedes(self):
        early = make_record(0, 1, inv=1, resp=5)
        late = make_record(1, 2, inv=10, resp=12)
        assert early.precedes(late)
        assert not late.precedes(early)

    def test_concurrent(self):
        a = make_record(0, 1, inv=1, resp=10)
        b = make_record(1, 2, inv=5, resp=15)
        assert not a.precedes(b) and not b.precedes(a)

    def test_incomplete_never_precedes(self):
        pending = make_record(0, 1, inv=1)
        other = make_record(1, 2, inv=100, resp=120)
        assert not pending.precedes(other)
        assert not other.precedes(pending)


class TestQueries:
    def make_history(self) -> History:
        history = History()
        a = history.record_invocation(1, "x", "write", (1,), 1)
        history.record_response(a, "done", 2)
        b = history.record_invocation(2, "x", "read", (), 3)
        history.record_response(b, 1, 4)
        c = history.record_invocation(3, "y", "read", (), 5)
        history.record_response(c, 0, 6)
        history.record_invocation(2, "x", "read", (), 7)  # incomplete
        return history

    def test_filter_by_obj(self):
        history = self.make_history()
        assert len(history.operations(obj="x")) == 3
        assert len(history.operations(obj="y")) == 1

    def test_filter_by_op_and_pid(self):
        history = self.make_history()
        assert len(history.operations(op="read", pid=2)) == 2
        assert len(history.operations(op="read", pid=2, complete_only=True)) == 1

    def test_restrict(self):
        history = self.make_history()
        sub = history.restrict({2})
        assert all(r.pid == 2 for r in sub.all())
        assert len(sub) == 2
        # Times unchanged by restriction.
        assert sub.all()[0].invoked_at == 3


class TestSynthetic:
    def test_fresh_op_ids_disjoint(self):
        history = History()
        a = history.record_invocation(1, "x", "read", (), 1)
        ids = fresh_op_ids(history, 3)
        assert len(ids) == 3
        assert a not in ids
