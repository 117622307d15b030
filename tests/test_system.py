"""Unit tests for the simulation kernel (repro.sim.system)."""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    OwnershipError,
    ReadPermissionError,
    SchedulerError,
    StepLimitExceeded,
    UnknownRegisterError,
)
from repro.sim import (
    Await,
    Broadcast,
    FunctionClient,
    Invoke,
    Pause,
    ReadRegister,
    ReceiveAll,
    Respond,
    RandomScheduler,
    Send,
    System,
    TraceScheduler,
    WriteRegister,
    swmr,
    swsr,
)
from tests.conftest import count_steps


class TestConstruction:
    def test_default_f(self):
        assert System(n=4).f == 1
        assert System(n=7).f == 2
        assert System(n=3).f == 0

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            System(n=0)

    def test_pids(self):
        assert list(System(n=3).pids) == [1, 2, 3]


class TestByzantineBookkeeping:
    def test_declare(self):
        system = System(n=4)
        system.declare_byzantine(3)
        assert system.byzantine == {3}
        assert system.correct == {1, 2, 4}

    def test_bound_enforced(self):
        system = System(n=4)
        system.declare_byzantine(2)
        with pytest.raises(ConfigurationError):
            system.declare_byzantine(3)

    def test_bound_can_be_disabled(self):
        system = System(n=4, enforce_bound=False)
        system.declare_byzantine(2, 3, 4)
        assert len(system.byzantine) == 3

    def test_unknown_pid(self):
        with pytest.raises(ConfigurationError):
            System(n=3).declare_byzantine(9)


class TestStepping:
    def test_effects_execute(self):
        system = System(n=2)
        system.install_register(swmr("R", writer=1, initial=0))
        seen = []

        def program():
            yield WriteRegister("R", 5)
            value = yield ReadRegister("R")
            seen.append(value)

        system.spawn(1, "client", program())
        system.run(10)
        assert seen == [5]
        assert system.registers.peek("R") == 5

    def test_clock_advances_per_step(self):
        system = System(n=1)

        def program():
            for _ in range(5):
                yield Pause()

        system.spawn(1, "client", program())
        # 5 pause effects plus the completion resume = 6 steps.
        assert system.run(100) == 6
        assert system.clock == 6

    def test_no_runnable_returns_false(self):
        assert System(n=1).step() is False

    def test_finished_coroutine_drops_out(self):
        system = System(n=1)

        def short():
            yield Pause()

        system.spawn(1, "client", short())
        system.run(10)
        assert system.runnable() == ()

    def test_ownership_enforced_through_effects(self):
        system = System(n=2)
        system.install_register(swmr("R", writer=1))

        def thief():
            yield WriteRegister("R", "stolen")

        system.spawn(2, "client", thief())
        with pytest.raises(OwnershipError):
            system.run(5)

    def test_effects_dispatch_by_exact_type(self):
        class Subclassed(Pause):
            pass

        for effect in (42, Subclassed()):
            system = System(n=1)

            def program(effect=effect):
                yield effect

            system.spawn(1, "c", program())
            with pytest.raises(ConfigurationError, match="unknown effect"):
                system.step()

    def test_duplicate_spawn_rejected(self):
        system = System(n=2)

        def program():
            yield Pause()

        system.spawn(1, "x", program())
        with pytest.raises(ConfigurationError):
            system.spawn(1, "x", program())

    def test_despawn(self):
        system = System(n=2)

        def forever():
            while True:
                yield Pause()

        cid = system.spawn(1, "x", forever())
        system.run(3)
        system.despawn(cid)
        assert system.runnable() == ()


class TestRunUntil:
    def test_reaches_goal(self):
        system = System(n=1)
        state = {"count": 0}

        def program():
            for _ in range(100):
                state["count"] += 1
                yield Pause()

        system.spawn(1, "client", program())
        taken = system.run_until(lambda: state["count"] >= 10, max_steps=1000)
        assert taken == 10

    def test_raises_on_budget(self):
        system = System(n=1)

        def forever():
            while True:
                yield Pause()

        system.spawn(1, "client", forever())
        with pytest.raises(StepLimitExceeded) as exc:
            system.run_until(lambda: False, max_steps=50, label="never")
        assert exc.value.steps == 50

    def test_raises_when_nothing_runnable(self):
        system = System(n=1)
        with pytest.raises(StepLimitExceeded):
            system.run_until(lambda: False, max_steps=10)

    def test_zero_cost_when_already_true(self):
        system = System(n=1)
        assert system.run_until(lambda: True, max_steps=10) == 0


class TestHistoryIntegration:
    def test_invoke_respond_recorded(self):
        system = System(n=2)

        def program():
            op_id = yield Invoke("obj", "op", (1,))
            yield Pause()
            yield Respond(op_id, "result")

        system.spawn(2, "client", program())
        system.run(10)
        (record,) = system.history.all()
        assert record.pid == 2 and record.op == "op"
        assert record.complete and record.result == "result"
        assert record.responded_at - record.invoked_at == 2


class TestMessaging:
    def test_send_and_receive_immediate_without_network(self):
        system = System(n=2)
        got = []

        def sender():
            yield Send(2, "hello")

        def receiver():
            while not got:
                messages = yield ReceiveAll()
                got.extend(messages)

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver())
        system.run(20)
        assert got == [(1, "hello")]

    def test_broadcast_reaches_everyone_including_sender(self):
        system = System(n=3)
        inboxes = {}

        def sender():
            yield Broadcast("m")
            inboxes[1] = (yield ReceiveAll())

        def receiver(pid):
            def program():
                while pid not in inboxes:
                    messages = yield ReceiveAll()
                    if messages:
                        inboxes[pid] = messages
            return program()

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver(2))
        system.spawn(3, "r", receiver(3))
        system.run(50)
        assert inboxes[1] == ((1, "m"),)
        assert inboxes[2] == ((1, "m"),)
        assert inboxes[3] == ((1, "m"),)

    def test_sender_identity_not_spoofable(self):
        # The Send effect carries no sender field: the kernel stamps the
        # stepping process's pid, so a Byzantine process cannot forge it.
        system = System(n=2)
        received = []

        def liar():
            yield Send(2, ("init", 99, "fake"))

        def receiver():
            while not received:
                received.extend((yield ReceiveAll()))

        system.spawn(1, "liar", liar())
        system.spawn(2, "r", receiver())
        system.run(20)
        (sender, _payload) = received[0]
        assert sender == 1  # true origin, not 99

    def test_send_to_unknown_pid(self):
        system = System(n=2)

        def program():
            yield Send(9, "x")

        system.spawn(1, "s", program())
        with pytest.raises(ConfigurationError):
            system.run(5)


class TestReadInTheLoop:
    """The step loop executes ``ReadRegister`` itself; an unknown name
    is covered by ``TestAwait::test_unknown_register_fails_like_a_read``."""

    @staticmethod
    def _reader(system, pid, name, seen):
        def program():
            seen.append((yield ReadRegister(name)))
            yield Pause()

        system.spawn(pid, "r", program())

    def test_a_refused_swsr_reader_raises(self):
        system = System(n=3)
        system.install_register(swsr("R", writer=1, reader=2, initial=7))
        self._reader(system, 3, "R", [])
        with pytest.raises(ReadPermissionError, match="process 3"):
            system.step()

    def test_an_allowed_read_returns_the_value_and_counts_once(self):
        for spec in (
            swmr("R", writer=1, initial=7),
            swsr("R", writer=1, reader=2, initial=7),
        ):
            system = System(n=2)
            system.install_register(spec)
            seen = []
            self._reader(system, 2, "R", seen)
            assert system.step() and system.metrics.reads == 1
            assert seen == []  # the value is sent on the next resume
            assert system.step() and seen == [7]
            assert system.metrics.reads == 1  # the Pause reads nothing
            assert system.step() and system.metrics.reads == 1


class TestMetrics:
    def test_counters(self):
        system = System(n=2)
        system.install_register(swmr("R", writer=1, initial=0))

        def program():
            yield WriteRegister("R", 1)
            yield ReadRegister("R")
            yield Pause()
            op = yield Invoke("o", "p", ())
            yield Respond(op, None)

        system.spawn(1, "c", program())
        system.run(10)
        metrics = system.metrics
        assert (metrics.reads, metrics.writes, metrics.responses) == (1, 1, 1)
        assert metrics.messages_sent == 0

    def test_on_step_sees_the_retiring_step(self):
        system = System(n=2)

        def program():
            yield Pause()
            yield Pause()

        cid = system.spawn(1, "c", program())
        seen = []
        system.on_step = lambda stepped, effect: seen.append((stepped, effect))
        assert system.run(10) == 3
        assert seen == [(cid, Pause()), (cid, Pause()), (cid, None)]

    def test_steps_of(self):
        system = System(n=2)

        def pauses(count):
            def program():
                for _ in range(count):
                    yield Pause()
            return program()

        first = system.spawn(1, "c", pauses(2))
        second = system.spawn(2, "c", pauses(4))
        steps = count_steps(system)
        system.run(20)
        # Each coroutine's pauses plus the step that retires it.
        assert (steps[first], steps[second]) == (3, 5)

    def test_messages_sent_counts_each_destination(self):
        system = System(n=3)

        def program():
            yield Send(2, "one")
            yield Broadcast("all")

        system.spawn(1, "s", program())
        system.run(10)
        # A broadcast goes to all n processes, the sender included.
        assert system.metrics.messages_sent == 1 + 3


# ----------------------------------------------------------------------
# Await: parking on watched registers
# ----------------------------------------------------------------------
def _watcher(watches, names):
    """Forever: read ``names``, log the watch, await it."""

    def program():
        while True:
            seen = []
            for name in names:
                seen.append((name, (yield ReadRegister(name))))
            watches.append(tuple(seen))
            yield Await(tuple(seen))

    return program()


def _writes(*pairs):
    def program():
        for name, value in pairs:
            yield WriteRegister(name, value)

    return program()


def _await_system(prefix):
    """Two registers and a scheduler that forces ``prefix``: indices
    into the sorted runnable tuple (W, B, C while all three run)."""
    system = System(n=3, scheduler=TraceScheduler(prefix=prefix))
    system.install_register(swmr("R", writer=2, initial=0))
    system.install_register(swmr("S", writer=3, initial=0))
    return system


W, B, C = (1, "w"), (2, "b"), (3, "c")


class TestAwait:
    def test_write_between_read_and_await_resumes_at_once(self):
        system = _await_system([0, 1, 0])  # W, B, W
        system.spawn(1, "w", _watcher([], ["R"]))
        system.spawn(2, "b", _writes(("R", 1)))
        system.run(3)  # read R = 0, write R = 1, await ((R, 0),)
        assert W in system.runnable()

    def test_only_a_watched_write_wakes(self):
        system = _await_system([0, 0, 1, 0])  # W, W, C, B
        system.spawn(1, "w", _watcher([], ["R"]))
        system.spawn(2, "b", _writes(("R", 1)))
        system.spawn(3, "c", _writes(("S", 1)))
        system.run(2)  # read, park
        assert system.runnable() == (B, C)
        system.run(1)  # a write to S
        assert W not in system.runnable()
        assert system._coroutines[W].parked
        system.run(1)  # a write to R
        assert W in system.runnable()

    def test_a_write_wakes_only_its_own_watchers(self):
        system = _await_system([0, 0, 1, 1, 0])  # W, W, C, C, B
        system.spawn(1, "w", _watcher([], ["R"]))
        system.spawn(2, "b", _writes(("R", 1)))
        system.spawn(3, "c", _watcher([], ["S"]))
        system.run(4)  # W and C each read and park
        assert system.runnable() == (B,)
        system.run(1)  # a write to R, while C is parked on S
        assert system.runnable() == (W, B)
        assert system._coroutines[C].parked
        assert system._watchers == {"S": [C]}

    def test_a_write_of_the_same_value_wakes(self):
        system = _await_system([0, 0, 0])  # W, W, B
        system.spawn(1, "w", _watcher([], ["R"]))
        system.spawn(2, "b", _writes(("R", 0)))
        system.run(3)
        assert W in system.runnable()

    def test_await_nothing_never_wakes(self):
        system = System(n=2)
        system.install_register(swmr("R", writer=2, initial=0))
        system.spawn(1, "w", _watcher([], []))
        system.spawn(2, "b", _writes(*[("R", v) for v in range(5)]))
        steps = count_steps(system)
        system.run(100)
        assert system.runnable() == ()
        assert steps[W] == 1

    def test_everything_parked_raises_at_once(self):
        for observe in (False, True):
            system = System(n=1)
            system.spawn(1, "w", _watcher([], []))
            if observe:
                system.on_step = lambda cid, effect: None
            with pytest.raises(StepLimitExceeded, match="no runnable") as exc:
                system.run_until(lambda: False, max_steps=1000)
            assert exc.value.steps == 1
            assert system.clock == 1

    def test_unknown_register_fails_like_a_read(self):
        for effect in (ReadRegister("nope"), Await((("nope", 0),))):
            system = System(n=1)

            def program(effect=effect):
                yield effect

            system.spawn(1, "w", program())
            with pytest.raises(UnknownRegisterError, match="nope"):
                system.run(1)

    def test_despawn_drops_the_watch(self):
        system = _await_system([0, 0, 0])  # W, W, B
        system.spawn(1, "w", _watcher([], ["R"]))
        system.spawn(2, "b", _writes(("R", 1)))
        system.run(2)
        system.despawn(W)
        system.run(1)  # the write finds no watcher to wake
        assert system.runnable() == (B,)

    def test_step_and_inlined_run_until_agree_under_parks(self):
        """An ``on_step`` observer does not change a run that parks."""

        def run(observe):
            system = System(n=4, scheduler=RandomScheduler(seed=3))
            for pid in (2, 3):
                system.install_register(swmr(f"r/{pid}", writer=pid, initial=0))
            watches = {1: [], 4: []}
            for pid, log in watches.items():
                system.spawn(pid, "w", _watcher(log, ["r/2", "r/3"]))
            for pid in (2, 3):

                def writer(name=f"r/{pid}"):
                    for value in range(40):
                        op = yield Invoke("o", "write", (value % 3,))
                        yield WriteRegister(name, value % 3)
                        yield Pause()
                        yield Respond(op, None)

                system.spawn(pid, "c", writer())
            if observe:
                system.on_step = lambda cid, effect: None
            with pytest.raises(StepLimitExceeded, match="no runnable"):
                system.run_until(lambda: False, max_steps=10_000)
            events = [
                (op.pid, op.args, op.invoked_at, op.responded_at)
                for op in system.history.all()
            ]
            return events, system.clock, watches

        plain, observed = run(False), run(True)
        assert plain == observed
        assert all(len(log) > 1 for log in plain[2].values())  # both woke


#: Registers, each owned by its own writer coroutine, for the property.
_NAMES = ("r/2", "r/3")


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    writes=st.lists(
        st.tuples(st.sampled_from(_NAMES), st.integers(0, 2)), max_size=12
    ),
    watches=st.lists(
        st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=80, deadline=None)
def test_no_coroutine_stays_parked_on_a_stale_watch(seed, writes, watches):
    """A parked coroutine's watched registers all still hold what it saw."""
    system = System(n=5, scheduler=RandomScheduler(seed=seed))
    for name in _NAMES:
        system.install_register(swmr(name, writer=int(name[-1]), initial=0))
    logs = {}
    for index, names in enumerate(watches):
        cid = (1, f"w{index}")
        logs[cid] = []
        system.spawn(*cid, _watcher(logs[cid], names))
    for name in _NAMES:
        mine = [(n, v) for n, v in writes if n == name]
        system.spawn(int(name[-1]), "c", _writes(*mine))

    def check(cid, effect):
        runnable = system.runnable()
        for watcher, log in logs.items():
            if log and watcher not in runnable:
                for name, value in log[-1]:
                    assert system.registers.peek(name) == value

    system.on_step = check
    system.run(200)
