"""Unit tests for program composition helpers (repro.sim.process)."""

from __future__ import annotations

import pytest

from repro.sim import (
    FunctionClient,
    OpCall,
    Pause,
    ScriptClient,
    System,
    WriteRegister,
    all_done,
    call,
    idle_forever,
    pause_steps,
    swmr,
)


class TestCall:
    def test_records_and_returns(self):
        system = System(n=2)

        def procedure():
            yield Pause()
            return "value"

        results = []

        def client():
            result = yield from call("obj", "op", (1, 2), procedure())
            results.append(result)

        system.spawn(1, "c", client())
        system.run(20)
        assert results == ["value"]
        (record,) = system.history.all()
        assert record.obj == "obj" and record.op == "op"
        assert record.args == (1, 2)
        assert record.result == "value"

    def test_interval_brackets_procedure(self):
        system = System(n=2)

        def procedure():
            for _ in range(3):
                yield Pause()
            return None

        def client():
            yield from call("o", "p", (), procedure())

        system.spawn(1, "c", client())
        system.run(20)
        (record,) = system.history.all()
        assert record.responded_at - record.invoked_at == 4  # 3 pauses + respond


class TestScriptClient:
    def test_sequential_execution(self):
        system = System(n=2)
        order = []

        def make(tag):
            def procedure():
                order.append(tag)
                yield Pause()
                return tag

            return procedure

        client = ScriptClient(
            [OpCall("o", "a", (), make("a")), OpCall("o", "b", (), make("b"))]
        )
        system.spawn(1, "c", client.program())
        system.run(50)
        assert client.done
        assert order == ["a", "b"]
        assert client.result_of("a") == "a"

    def test_on_result_callback(self):
        system = System(n=2)
        seen = []

        def procedure():
            yield Pause()
            return 7

        client = ScriptClient(
            [OpCall("o", "x", (), procedure, on_result=seen.append)]
        )
        system.spawn(1, "c", client.program())
        system.run(20)
        assert seen == [7]

    def test_results_accumulate_in_order(self):
        system = System(n=2)

        def make(value):
            def procedure():
                yield Pause()
                return value

            return procedure

        client = ScriptClient(
            [OpCall("o", "op", (i,), make(i)) for i in range(4)]
        )
        system.spawn(1, "c", client.program())
        system.run(100)
        assert [r for (_o, _op, _a, r) in client.results] == [0, 1, 2, 3]

    def test_pause_between(self):
        system = System(n=2)

        def procedure():
            yield Pause()
            return None

        client = ScriptClient(
            [OpCall("o", "x", (), procedure), OpCall("o", "y", (), procedure)],
            pause_between=5,
        )
        system.spawn(1, "c", client.program())
        system.run(100)
        records = system.history.all()
        gap = records[1].invoked_at - records[0].responded_at
        assert gap >= 5


class TestFunctionClient:
    def test_result_captured(self):
        system = System(n=2)

        def fn():
            yield Pause()
            return 99

        client = FunctionClient(fn)
        system.spawn(1, "c", client.program())
        system.run(10)
        assert client.done and client.result == 99

    def test_all_done_predicate(self):
        system = System(n=2)

        def fn():
            yield Pause()

        clients = [FunctionClient(fn), FunctionClient(fn)]
        system.spawn(1, "a", clients[0].program())
        system.spawn(2, "b", clients[1].program())
        predicate = all_done(clients)
        assert not predicate()
        system.run(20)
        assert predicate()

    def test_all_done_with_out_of_order_completion(self):
        # The predicate consumes finished clients from the back; whatever
        # order they finish in, it holds exactly when the last one has,
        # and stays true once true.
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0), (1, 0, 2)):
            clients = [FunctionClient(lambda: iter(())) for _ in range(3)]
            predicate = all_done(clients)
            for index in order:
                assert not predicate()
                clients[index].done = True
            assert predicate() and predicate()

    def test_all_done_of_no_clients_holds_at_once(self):
        assert all_done([])()

    def test_all_done_built_before_any_client_finished(self):
        # Built first, asked only after everything completed — and the
        # caller's list is neither consumed nor tracked afterwards.
        system = System(n=2)

        def fn():
            yield Pause()

        clients = [FunctionClient(fn), FunctionClient(fn)]
        predicate = all_done(clients)
        for pid, client in enumerate(clients, start=1):
            system.spawn(pid, "c", client.program())
        assert system.run_until(predicate, 50) > 0
        assert predicate() and len(clients) == 2
        clients.append(FunctionClient(fn))
        assert predicate()


class TestUtilities:
    def test_pause_steps_counts(self):
        gen = pause_steps(3)
        effects = list(gen)
        assert len(effects) == 3
        assert all(isinstance(e, Pause) for e in effects)

    def test_idle_forever_takes_one_step_and_parks_for_good(self):
        system = System(n=2)
        system.install_register(swmr("R", writer=2, initial=0))
        cid = system.spawn(1, "idle", idle_forever())

        def writer():
            for value in range(10):
                yield WriteRegister("R", value)

        system.spawn(2, "w", writer())
        system.run(100)
        assert system.steps_of(cid) == 1
        assert system.runnable() == ()
        assert system.metrics.writes == 10  # all of them the writer's
