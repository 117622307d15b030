"""Unit tests for program composition helpers (repro.sim.process)."""

from __future__ import annotations

import pytest

from repro.sim import (
    FunctionClient,
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
from tests.conftest import count_steps


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


class _Target:
    """A test-local script target: each operation is a procedure factory."""

    name = "o"

    def __init__(self, **procedures):
        self._procedures = procedures

    def op(self, pid, opname, *args):
        return call(self.name, opname, args, self._procedures[opname](*args))


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
            _Target(a=make("a"), b=make("b")), 1, [("a", ()), ("b", ())]
        )
        system.spawn(1, "c", client.program())
        system.run(50)
        assert client.done
        assert order == ["a", "b"]
        assert client.result_of("a") == "a"

    def test_results_accumulate_in_order(self):
        system = System(n=2)

        def procedure(value):
            yield Pause()
            return value

        client = ScriptClient(
            _Target(op=procedure), 1, [("op", (i,)) for i in range(4)]
        )
        system.spawn(1, "c", client.program())
        system.run(100)
        assert [r for (_op, _a, r) in client.results] == [0, 1, 2, 3]

    def test_pause_between(self):
        system = System(n=2)

        def procedure():
            yield Pause()
            return None

        client = ScriptClient(
            _Target(x=procedure, y=procedure), 1, [("x", ()), ("y", ())],
            pause_between=5,
        )
        system.spawn(1, "c", client.program())
        system.run(100)
        records = system.history.all()
        gap = records[1].invoked_at - records[0].responded_at
        assert gap >= 5


class TestOneEntryPoint:
    """Every scripted row runs through its target's ``op``."""

    def test_app_args_are_recorded_frozen(self):
        from repro.apps import AtomicSnapshot

        system = System(n=4)
        snap = AtomicSnapshot(system).install()
        snap.start_helpers()
        system.spawn(1, "client", snap.op(1, "update", [1, 2]))
        system.run(20_000)
        (record,) = system.history.all()
        assert record.obj == snap.name and record.args == ((1, 2),)

    @pytest.mark.parametrize("family", ["register", "app", "test_or_set"])
    def test_unknown_operation_is_a_configuration_error(self, family):
        from repro.apps import AtomicSnapshot
        from repro.core import StickyRegister, TestOrSetFromSticky, VerifiableRegister
        from repro.errors import ConfigurationError
        from tests.conftest import run_clients, spawn_script

        system = System(n=4)
        target = {
            "register": lambda: VerifiableRegister(system, "reg"),
            "app": lambda: AtomicSnapshot(system),
            "test_or_set": lambda: TestOrSetFromSticky(StickyRegister(system, "r")),
        }[family]().install()
        client = spawn_script(system, target, 2, [("frobnicate", (1,))])
        with pytest.raises(ConfigurationError, match="frobnicate"):
            run_clients(system, [client])
        assert system.history.all() == [] and not client.done


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
        steps = count_steps(system)
        system.run(100)
        assert steps[cid] == 1
        assert system.runnable() == ()
        assert system.metrics.writes == 10  # all of them the writer's
