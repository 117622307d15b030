"""Tests for the fault-injection subsystem (repro.faults).

FaultPlan parsing/validation and identity, FaultyNetwork's submit- and
delivery-side suppression, the retransmission channel layer, the
stall-to-verdict ProgressMonitor, and the mp-emulation scenario cells
end to end: identical fault seeds reproduce identical runs, clean cells
agree with the reliable-network baseline, and quorum-starving plans pin
a ``STALLED`` verdict that replays like any safety violation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignCell, run_cell
from repro.errors import ConfigurationError, StallDetected
from repro.explore import execute_trace, make_scenario
from repro.faults import (
    FaultPlan,
    FaultyNetwork,
    ProgressMonitor,
    RetransmitChannels,
)
from repro.faults.plan import FaultJudge
from repro.mp import RandomDelayNetwork
from repro.scenarios import mp_emulation
from repro.sim import RandomScheduler, Send
from tests.channel_cases import ChannelFacadeCases, ClockedSystem, VirtualEndpoint


LOSSY = (("drop", 0, 0, 0.25), ("dup", 0, 0, 0.1), ("delay", 0, 0, 0.15, 9))
WRITER_CUT = (("drop", 1, 0, 1.0),)
SPLIT = (("partition", ((1, 2), (3, 4)), 0, None),)

_ENDS = st.integers(0, 4)
_TIMES = st.integers(0, 9)
_SPANS = st.integers(1, 9)
#: One well-formed entry of each fault kind.
_ENTRIES = (
    st.tuples(st.sampled_from(["drop", "dup"]), _ENDS, _ENDS, st.floats(0, 1))
    | st.tuples(st.just("delay"), _ENDS, _ENDS, st.floats(0, 1), _SPANS)
    | st.builds(
        lambda pids, cut, start, span: (
            "partition",
            (tuple(pids[:cut]), tuple(pids[cut:])),
            start,
            span and start + span,
        ),
        st.permutations([1, 2, 3, 4]),
        st.integers(1, 3),
        _TIMES,
        st.none() | _SPANS,
    )
    | st.tuples(st.just("crash"), st.integers(1, 4), _TIMES)
    | st.builds(
        lambda pid, at, span: ("crash", pid, at, at + span),
        st.integers(1, 4),
        _TIMES,
        _SPANS,
    )
)
#: What a ``--chaos`` literal or a corpus ``faults=`` param can hold in
#: place of a pid, a time, a probability or a group list.
_JUNK = st.sampled_from(
    [-1, 0, True, None, "x", 1.5, float("nan"), ()]
    + [(1, 2), ((1,), ("b",)), ((0,), (2,))]
)


@st.composite
def fault_specs(draw):
    """A well-formed spec, or one with a single argument swapped for junk
    or an entry cut short."""
    spec = draw(st.lists(_ENTRIES, max_size=3))
    if spec and draw(st.booleans()):
        index = draw(st.integers(0, len(spec) - 1))
        entry = list(spec[index])
        position = draw(st.integers(0, len(entry)))
        if position == len(entry):
            entry.pop()
        else:
            entry[position] = draw(_JUNK)
        spec[index] = tuple(entry)
    return tuple(spec)


class TestFaultPlan:
    def test_wildcard_and_exact_link_matching(self):
        plan = FaultPlan.from_spec((("drop", 1, 2, 0.5), ("dup", 0, 3, 0.5)))
        drop, dup = plan.link_rules
        assert drop.matches(1, 2) and not drop.matches(1, 3)
        assert not drop.matches(2, 2)
        assert dup.matches(1, 3) and dup.matches(4, 3) and not dup.matches(1, 2)

    def test_partition_window_and_crash_recovery(self):
        plan = FaultPlan.from_spec(
            (("partition", ((1,), (2,)), 10, 20), ("crash", 3, 5, 15))
        )
        assert not plan.partitioned(1, 2, 9)
        assert plan.partitioned(1, 2, 10) and plan.partitioned(2, 1, 19)
        assert not plan.partitioned(1, 2, 20)
        # A pid outside every group communicates freely.
        assert not plan.partitioned(1, 3, 15)
        assert not plan.crashed(3, 4)
        assert plan.crashed(3, 5) and plan.crashed(3, 14)
        assert not plan.crashed(3, 15)  # recovered
        assert plan.crashed_pids(10) == (3,)
        assert plan.crashed_pids(30) == ()

    def test_crash_stop_is_forever(self):
        plan = FaultPlan.from_spec((("crash", 4, 7),))
        assert not plan.crashed(4, 6)
        assert plan.crashed(4, 7) and plan.crashed(4, 10_000)

    @pytest.mark.parametrize(
        "spec",
        [
            "not-a-tuple",
            ((),),
            (("drop", 1, 2),),  # wrong arity
            (("drop", 1, 2, 1.5),),  # probability out of range
            (("drop", -1, 2, 0.5),),  # bad endpoint
            (("delay", 1, 2, 0.5, 0),),  # extra must be >= 1
            (("partition", ((1,),), 0, None),),  # < 2 groups
            (("partition", ((), (2,)), 0, None),),  # empty group
            (("partition", ((1, 2), (2, 3)), 0, None),),  # overlap
            (("partition", ((1,), (2,)), 5, 5),),  # end <= start
            (("crash", 0, 5),),  # pid must be >= 1
            (("crash", 1, 5, 5),),  # recovery not after crash
            (("flood", 1, 2, 0.5),),  # unknown kind
            ((["drop"], 1, 2, 0.5),),  # unhashable kind
            (("drop", 1, 2, True),),  # bool probability
            (("delay", 1, 2, 0.5, True),),  # bool extra
            (("crash", 2, "x"),),  # time not an int
            (("crash", True, 3),),  # bool pid
            (("crash", 2, -1),),  # negative time
            (("crash", 2, 3, 4.5),),  # recovery not an int
            (("partition", ((1,), (2,)), "a", None),),  # start not an int
            (("partition", ((1,), (2,)), 0, "z"),),  # end not an int
            (("partition", ((1,), ("b",)), 0, None),),  # member not a pid
            (("partition", ((0,), (2,)), 0, None),),  # member 0 is no pid
            (("partition", ((True,), (2,)), 0, None),),  # bool member
            (("partition", (1, 2), 0, None),),  # groups not tuples
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec(spec)

    @settings(max_examples=300, deadline=None)
    @given(spec=fault_specs(), clocks=st.lists(st.integers(), min_size=1, max_size=4))
    def test_a_spec_parses_into_a_total_plan_or_is_refused(self, spec, clocks):
        try:
            plan = FaultPlan.from_spec(spec)
        except ConfigurationError:
            return
        streams = [random.Random(0)] * len(plan.link_rules)
        judge = FaultJudge(plan, streams)
        for now in clocks:
            for sender in range(1, 5):
                for dest in range(1, 5):
                    plan.crashed(sender, now)
                    plan.partitioned(sender, dest, now)
                    judge.submit(sender, dest, now)
                    judge.deliverable(sender, dest, now)
            assert judge.describe_suppression(now).startswith("plan[")

    def test_fingerprint_identity(self):
        a = FaultPlan.from_spec(LOSSY, seed=1)
        b = FaultPlan.from_spec(LOSSY, seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != FaultPlan.from_spec(LOSSY, seed=2).fingerprint()
        assert a.fingerprint() != FaultPlan.from_spec(WRITER_CUT, seed=1).fingerprint()

    def test_describe(self):
        plan = FaultPlan.from_spec(WRITER_CUT + SPLIT + (("crash", 4, 0),))
        text = plan.describe()
        assert "drop(1->*,p=1)" in text
        assert "partition(1,2|3,4)@[0,inf)" in text
        assert "crash(p4@0)" in text
        assert FaultPlan.from_spec(()).describe() == "no-faults"


class _SinkInner:
    """Minimal inner network: holds submissions, delivers all on tick."""

    def __init__(self):
        self.queue = []
        self.submissions = []

    def submit(self, sender, dest, payload, now):
        self.queue.append((sender, dest, payload))
        self.submissions.append((sender, dest, payload, now))

    def tick(self, now, system):
        queue, self.queue = self.queue, []
        for sender, dest, payload in queue:
            system.deliver(sender, dest, payload)

    def pending(self):
        return len(self.queue)


class _SinkSystem:
    def __init__(self):
        self.delivered = []

    def deliver(self, sender, dest, payload):
        self.delivered.append((sender, dest, payload))


class TestFaultyNetwork:
    def test_certain_drop(self):
        net = FaultyNetwork(_SinkInner(), FaultPlan.from_spec((("drop", 1, 0, 1.0),)))
        sink = _SinkSystem()
        net.submit(1, 2, "x", now=0)
        net.submit(3, 2, "y", now=0)  # unmatched sender passes
        net.tick(1, sink)
        assert sink.delivered == [(3, 2, "y")]
        assert net.judge.dropped == 1 and net.delivered == 1
        assert net.judge.suppressed_links == {(1, 2): 1}

    def test_certain_duplication(self):
        net = FaultyNetwork(_SinkInner(), FaultPlan.from_spec((("dup", 0, 0, 1.0),)))
        sink = _SinkSystem()
        net.submit(1, 2, "x", now=0)
        net.tick(1, sink)
        assert sink.delivered == [(1, 2, "x"), (1, 2, "x")]
        assert net.judge.duplicated == 1

    def test_delay_holds_until_due(self):
        inner = _SinkInner()
        net = FaultyNetwork(
            inner, FaultPlan.from_spec((("delay", 0, 0, 1.0, 10),))
        )
        sink = _SinkSystem()
        net.submit(1, 2, "x", now=0)
        assert inner.submissions == [] and net.pending() == 1
        net.tick(9, sink)
        assert sink.delivered == []
        net.tick(10, sink)
        assert sink.delivered == [(1, 2, "x")]
        assert net.judge.delayed == 1 and net.pending() == 0

    def test_partition_cuts_in_flight_messages(self):
        # Submitted before the window opens, due inside it: the
        # delivery checkpoint must still cut it.
        net = FaultyNetwork(
            _SinkInner(),
            FaultPlan.from_spec((("partition", ((1,), (2,)), 5, None),)),
        )
        sink = _SinkSystem()
        net.submit(1, 2, "x", now=0)  # window not yet open: submit passes
        net.tick(6, sink)
        assert sink.delivered == []
        assert net.judge.partitioned == 1

    def test_crash_suppresses_both_directions(self):
        net = FaultyNetwork(
            _SinkInner(), FaultPlan.from_spec((("crash", 2, 0, 50),))
        )
        sink = _SinkSystem()
        net.submit(2, 3, "from-crashed", now=1)
        net.submit(3, 2, "to-crashed", now=1)
        net.tick(2, sink)
        assert sink.delivered == []
        assert net.judge.suppressed_crash == 2
        # After recovery both directions flow again.
        net.submit(2, 3, "up", now=60)
        net.submit(3, 2, "up-too", now=60)
        net.tick(61, sink)
        assert sorted(sink.delivered) == [(2, 3, "up"), (3, 2, "up-too")]

    def test_identical_plans_make_identical_decisions(self):
        def run():
            net = FaultyNetwork(
                _SinkInner(), FaultPlan.from_spec(LOSSY, seed=9)
            )
            sink = _SinkSystem()
            for index in range(50):
                net.submit(1 + index % 3, 1 + (index + 1) % 3, ("m", index), index)
                net.tick(index, sink)
            net.tick(10_000, sink)
            return net.metrics(), sink.delivered

        assert run() == run()

    def test_fingerprint_fold_incremental_matches_full(self):
        net = FaultyNetwork(
            RandomDelayNetwork(seed=4, max_delay=6),
            FaultPlan.from_spec((("delay", 0, 0, 0.5, 20),), seed=2),
        )
        sink = _SinkSystem()
        for index in range(30):
            net.submit(1, 2, ("m", index), index)
            if index % 5 == 0:
                net.tick(index, sink)
            assert net.fingerprint_fold() == net.fingerprint_fold(full=True)
        # Two drains: the first moves held messages into the inner net
        # (with a fresh delay), the second delivers them.
        net.tick(10_000, sink)
        net.tick(20_000, sink)
        assert net.fingerprint_fold() == net.fingerprint_fold(full=True) == 0

    def test_describe_suppression(self):
        net = FaultyNetwork(
            _SinkInner(),
            FaultPlan.from_spec(WRITER_CUT + (("crash", 4, 0),)),
        )
        net.submit(1, 2, "x", now=0)
        text = net.describe_suppression(0)
        assert "plan[" in text and "down=p4" in text and "cut=1->2:1" in text


#: Every kind of fault at once, with windows that open and close inside
#: the pinned 500-message run below.
PIN_PLAN = (
    ("drop", 0, 0, 0.2),
    ("dup", 0, 0, 0.15),
    ("delay", 0, 0, 0.2, 7),
    ("drop", 2, 3, 0.5),
    ("partition", ((1, 2), (3, 4)), 120, 180),
    ("crash", 4, 300, 360),
    ("crash", 3, 420),
)


def _pin_digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestDecisionStreamPin:
    """The virtual-clock decision stream, byte for byte.

    A fixed 500-message sequence through ``FaultyNetwork`` over a seeded
    ``RandomDelayNetwork``: which copies of each message arrive and when,
    the delivery order, the counters and the in-flight fingerprint fold
    are pinned literals, so any change to the draw order, the checkpoint
    order or the in-flight queue moves one of them.
    """

    def test_fixed_sequence_pins_fates_order_metrics_and_fold(self):
        net = FaultyNetwork(
            RandomDelayNetwork(seed=0), FaultPlan.from_spec(PIN_PLAN, seed=5)
        )

        class _Clocked:
            def __init__(self):
                self.now = 0
                self.delivered = []

            def deliver(self, sender, dest, payload):
                self.delivered.append((self.now, sender, dest, payload[1]))

        sink = _Clocked()
        folds = []
        for index in range(500):
            sender = 1 + (index * 7) % 4
            dest = 1 + (index * 3 + 1) % 4
            net.submit(sender, dest, ("m", index), index)
            sink.now = index
            net.tick(index, sink)
            if index in (199, 349):
                folds.append(net.fingerprint_fold())
        folds.append(net.fingerprint_fold(full=True))
        sink.now = 10_000
        net.tick(10_000, sink)
        assert net.pending() == 0 and net.fingerprint_fold() == 0
        fates = [[] for _ in range(500)]
        for now, _sender, _dest, index in sink.delivered:
            fates[index].append(now)
        assert _pin_digest(fates) == "4db6c7018f28e432"
        assert _pin_digest(sink.delivered) == "333e1c3cd9e3946d"
        assert net.metrics() == {
            "submitted": 500,
            "delivered": 300,
            "dropped": 136,
            "duplicated": 41,
            "delayed": 91,
            "partitioned": 35,
            "suppressed_crash": 70,
        }
        assert folds == [
            14827688620172719172,
            8347248028621991212,
            11741087749918273618,
        ]


class _ScanJudge:
    """:class:`FaultJudge`'s rule as a full scan: every message runs both
    window checks and tests every link rule (the reference for the
    judge's per-link rule cache and its skipped scans)."""

    def __init__(self, plan, stream):
        self.plan, self.draw = plan, stream.random
        self.ledger = dict.fromkeys(
            ("dropped", "duplicated", "delayed", "partitioned", "suppressed_crash"), 0
        )
        self.links = {}

    def submit(self, sender, dest, now):
        plan = self.plan
        if plan.crashed(sender, now):
            cut = "suppressed_crash"
        elif plan.partitioned(sender, dest, now):
            cut = "partitioned"
        else:
            copies, extra, dropped = 1, 0, False
            for rule in plan.link_rules:
                if rule.matches(sender, dest) and self.draw() < rule.prob:
                    if rule.kind == "drop":
                        dropped = True
                    elif rule.kind == "dup":
                        copies += 1
                    else:
                        extra += rule.extra
            if not dropped:
                self.ledger["duplicated"] += copies - 1
                self.ledger["delayed"] += copies if extra else 0
                return copies, extra
            cut = "dropped"
        self._cut(cut, sender, dest)
        return 0, 0

    def deliverable(self, sender, dest, now):
        plan = self.plan
        if plan.crashed(dest, now) or plan.crashed(sender, now):
            self._cut("suppressed_crash", sender, dest)
        elif plan.partitioned(sender, dest, now):
            self._cut("partitioned", sender, dest)
        else:
            return True
        return False

    def _cut(self, counter, sender, dest):
        self.ledger[counter] += 1
        self.links[(sender, dest)] = self.links.get((sender, dest), 0) + 1


class TestJudgeAgainstFullScan:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.lists(_ENTRIES, min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
        messages=st.lists(
            st.tuples(
                st.integers(1, 4), st.integers(1, 4), st.integers(0, 8), _TIMES
            ),
            max_size=60,
        ),
    )
    def test_decisions_and_ledger_match_the_full_scan(self, spec, seed, messages):
        # Src- and dst-specific link rules beside wildcards, crash and
        # partition windows that open and close mid-sequence: the judge
        # must decide every message, and draw, exactly as the scan does.
        plan = FaultPlan.from_spec(spec)
        stream = random.Random(seed)
        judge = FaultJudge(plan, [stream] * len(plan.link_rules))
        reference = _ScanJudge(plan, random.Random(seed))
        now = 0
        for sender, dest, gap, flight in messages:
            now += gap
            assert judge.submit(sender, dest, now) == reference.submit(
                sender, dest, now
            )
            assert judge.deliverable(sender, dest, now + flight) == (
                reference.deliverable(sender, dest, now + flight)
            )
        assert judge.metrics() == reference.ledger
        assert judge.suppressed_links == reference.links
        assert stream.random() == reference.draw()


class TestRetransmitChannels(ChannelFacadeCases):
    """The shared channel cases, plus what only this façade has."""

    endpoint = VirtualEndpoint

    def test_broadcast_is_one_channel_send_per_destination(self):
        ch = RetransmitChannels(ClockedSystem(n=3))
        effects = ch.broadcast_effects(2, "hello")
        assert [effect.to for effect in effects] == [1, 2, 3]
        assert all(effect.payload == ("CH", 1, "hello") for effect in effects)

    def test_one_instance_keeps_every_process_apart(self):
        ch = RetransmitChannels(ClockedSystem())
        assert ch.send_effects(1, 3, "a") == [Send(3, ("CH", 1, "a"))]
        assert ch.send_effects(2, 3, "b") == [Send(3, ("CH", 1, "b"))]
        assert (ch.pending_count(1), ch.pending_count(2)) == (1, 1)
        assert ch.pending_count() == 2 and ch.sent == 2
        # p3 dedups per sender; the ack clears only that sender's frame.
        assert ch.on_receive(3, 1, ("CH", 1, "a"))[0] == "a"
        assert ch.on_receive(3, 2, ("CH", 1, "b"))[0] == "b"
        ch.on_receive(1, 3, ("CH-ACK", 1))
        assert (ch.pending_count(1), ch.pending_count(2)) == (0, 1)
        assert ch.metrics()["acked"] == 1


class TestProgressMonitor:
    def test_progress_resets_the_window(self):
        system = ClockedSystem()
        counter = [0]
        monitor = ProgressMonitor(system, signals=lambda: (counter[0],), window=10)
        for clock in range(0, 100, 5):
            system.clock = clock
            counter[0] += 1  # progress every observation
            monitor.observe()
        assert monitor.stalled is None

    def test_stall_raises_with_diagnosis(self):
        system = ClockedSystem()

        class _Net:
            @staticmethod
            def describe_suppression(now):
                return f"plan[test] at {now}"

        monitor = ProgressMonitor(
            system,
            signals=lambda: (0,),
            window=10,
            describe_pending=lambda: "p1 write#1/2",
            network=_Net(),
        )
        monitor.observe()  # establish the baseline
        system.clock = 10
        with pytest.raises(StallDetected) as info:
            monitor.observe()
        reason = info.value.reason
        assert reason.startswith("STALLED: no progress for 10 steps")
        assert "pending: p1 write#1/2" in reason
        assert "plan[test] at 10" in reason
        assert monitor.stalled == reason

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            ProgressMonitor(ClockedSystem(), signals=lambda: (), window=0)

    def test_rejects_window_within_channel_backoff(self):
        # The footgun: a stall window at or below the channels' capped
        # backoff reads every legitimate retransmit gap as a stall.
        system = ClockedSystem()
        ch = RetransmitChannels(system, base_timeout=4, max_backoff=64)
        with pytest.raises(ConfigurationError) as info:
            ProgressMonitor(system, signals=lambda: (), window=64, channels=ch)
        assert "capped backoff" in str(info.value)
        # Strictly above the cap is fine, with or without channels.
        ProgressMonitor(system, signals=lambda: (), window=65, channels=ch)
        ProgressMonitor(system, signals=lambda: (), window=1, channels=None)

    def test_abandonment_surfaces_as_metrics_plus_stall_not_a_hang(self):
        # A frame whose destination never acks (a partitioned peer) is
        # retransmitted up to max_retries, then abandoned: the exhaustion
        # is a counter, and the *monitor* converts the resulting silence
        # into the STALLED verdict — abandonment itself never raises.
        system = ClockedSystem()
        ch = RetransmitChannels(
            system, base_timeout=2, max_backoff=4, max_retries=3
        )
        monitor = ProgressMonitor(
            system,
            signals=lambda: (ch.acked, ch.duplicates_dropped),
            window=20,
            describe_pending=lambda: "p1 write#1/1",
            channels=ch,
        )
        ch.send_effects(1, 2, "x")
        stalled = None
        while stalled is None:
            system.clock += 1
            ch.due_retransmits(1, system.clock)
            try:
                monitor.observe()
            except StallDetected as exc:
                stalled = exc.reason
        metrics = ch.metrics()
        assert metrics["exhausted"] == 1 and metrics["pending"] == 0
        assert metrics["retransmitted"] == 3  # the full retry budget
        assert stalled.startswith("STALLED:")
        assert "pending: p1 write#1/1" in stalled


def _mp_scenario(faults=(), retransmit=False, fault_seed=0):
    params = dict(n=4, f=1, seed=0)
    if faults:
        params["faults"] = faults
    if retransmit:
        params["retransmit"] = True
    if fault_seed:
        params["fault_seed"] = fault_seed
    return make_scenario("mp_register", **params)


class TestEmulationUnderFaults:
    """The mp_register scenario end to end under the pinned fault plans."""

    def drive(self, scenario, seed=0):
        built = scenario.build(RandomScheduler(seed=seed))
        built.drive()
        return built

    def test_identical_fault_seeds_reproduce_identical_runs(self):
        def run():
            built = self.drive(_mp_scenario(LOSSY, retransmit=True, fault_seed=3))
            return (
                built.system.fingerprint(full=True),
                built.system.network.metrics(),
                built.check(),
            )

        first, second = run(), run()
        assert first == second
        assert first[2] is None  # and the run is clean

    def test_lossy_with_retransmit_completes_clean(self):
        built = self.drive(_mp_scenario(LOSSY, retransmit=True))
        assert built.check() is None
        network = built.system.network
        assert network.judge.dropped > 0  # the plan really was lossy

    def test_crash_within_f_completes_clean(self):
        built = self.drive(_mp_scenario((("crash", 4, 0),)))
        assert built.check() is None
        assert built.system.network.judge.suppressed_crash > 0

    def test_writer_cut_without_retransmit_stalls(self):
        built = self.drive(_mp_scenario(WRITER_CUT))
        reason = built.check()
        assert reason is not None and reason.startswith("STALLED:")
        assert "pending:" in reason and "plan[drop(1->*,p=1)]" in reason

    def test_quorum_starving_partition_stalls_despite_retransmit(self):
        built = self.drive(_mp_scenario(SPLIT, retransmit=True))
        reason = built.check()
        assert reason is not None and reason.startswith("STALLED:")


#: The three ``campaign-mp`` cells and the two STALLED ``mp_register``
#: cells of the catalog: name -> (faults, retransmit).
MP_CELLS = {
    "reliable": ((), False),
    "lossy": (LOSSY, True),
    "crash": ((("crash", 4, 0),), False),
    "writer_cut": (WRITER_CUT, False),
    "split": (SPLIT, True),
}


def _observe_mp_run(monkeypatch, name, observer=False):
    """Drive one cell at seed 0 and return what the run left behind.

    With ``observer``, a no-op ``on_step`` hook sees every step; an
    observer must not change the run.
    """
    channels = []

    class _Recorded(RetransmitChannels):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            channels.append(self)

    monkeypatch.setattr(mp_emulation, "RetransmitChannels", _Recorded)
    built = _mp_scenario(*MP_CELLS[name]).build(RandomScheduler(seed=0))
    system = built.system
    if observer:
        system.on_step = lambda cid, effect: None
    built.drive()
    network = system.network
    judge = getattr(network, "judge", None)
    return {
        "clock": system.clock,
        "metrics": dataclasses.asdict(system.metrics),
        "history": system.history.all(),
        "submitted": network.submitted,
        "delivered": network.delivered,
        "ledger": None if judge is None else (judge.metrics(), judge.suppressed_links),
        "channels": channels[0].metrics() if channels else None,
        "reason": built.check(),
        "fingerprint": system.fingerprint(full=True),
    }


#: Per cell at seed 0: (final clock, delivered, (retransmitted, acked)
#: or None without channels, the STALLED reason or None).
MP_PINNED = {
    "reliable": (258, 80, None, None),
    "lossy": (968, 481, (236, 74), None),
    "crash": (262, 54, None, None),
    "writer_cut": (
        2736,
        28,
        None,
        "STALLED: no progress for 2500 steps (clock=2736); pending: p1 "
        "write#1/2; plan[drop(1->*,p=1)] cut=1->2:3,1->3:3,1->1:1,1->4:1",
    ),
    "split": (
        3351,
        202,
        (273, 36),
        "STALLED: no progress for 2500 steps (clock=3351); pending: p1 "
        "write#1/2; plan[partition(1,2|3,4)@[0,inf)] "
        "cut=2->3:55,2->4:55,3->1:35,3->2:35",
    ),
}


class TestNetworkedStepPaths:
    """Networked runs tick the network inside the kernel's one step
    loop; an ``on_step`` observer rides along on every step. With and
    without one, they must leave the same run behind."""

    @pytest.mark.parametrize("name", sorted(MP_CELLS))
    def test_observer_path_matches_the_inlined_loop(self, monkeypatch, name):
        inlined = _observe_mp_run(monkeypatch, name)
        stepped = _observe_mp_run(monkeypatch, name, observer=True)
        assert stepped == inlined

    @pytest.mark.parametrize("name", sorted(MP_CELLS))
    def test_pinned_clock_deliveries_retransmits_and_stall(self, monkeypatch, name):
        run = _observe_mp_run(monkeypatch, name)
        channels = run["channels"]
        resends = channels and (channels["retransmitted"], channels["acked"])
        assert (run["clock"], run["delivered"], resends, run["reason"]) == (
            MP_PINNED[name]
        )


def _mp_cell(faults=(), retransmit=False, expect=False, budget=4):
    return CampaignCell(
        implementation="mp_emulation",
        scenario=_mp_scenario(faults, retransmit),
        engine="swarm",
        budget=budget,
        expect_violation=expect,
    )


def _comparable(outcome):
    """The cell verdict modulo label and steps (the pinned comparison)."""
    return {
        "expected": "violation" if outcome.cell.expect_violation else "clean",
        "ok": outcome.ok,
        "violations": sorted({v.fingerprint() for v in outcome.violations}),
        "runs": outcome.runs,
        "incomplete": outcome.incomplete,
    }


class TestCampaignCells:
    def test_clean_fault_cells_match_the_reliable_baseline(self):
        baseline = _comparable(run_cell(_mp_cell()))
        lossy = _comparable(run_cell(_mp_cell(LOSSY, retransmit=True)))
        crash = _comparable(run_cell(_mp_cell((("crash", 4, 0),))))
        assert baseline["ok"] and baseline["violations"] == []
        # The fingerprints differ only in the scenario label; everything
        # observable — verdict, classes, run/incomplete counts — agrees.
        assert lossy == baseline
        assert crash == baseline

    def test_stalled_cell_pins_the_liveness_verdict(self):
        outcome = run_cell(_mp_cell(WRITER_CUT, expect=True, budget=2))
        assert outcome.ok
        assert outcome.violations
        assert all(v.is_stall for v in outcome.violations)
        assert all("STALLED:" in v.fingerprint() for v in outcome.violations)
        assert "stall class(es)" in outcome.describe()

    def test_stalled_run_replays_as_completed(self):
        # The stall is a verdict, not an abort: its trace replays to the
        # same STALLED class, which is what corpus entries rely on.
        scenario = _mp_scenario(WRITER_CUT)
        outcome = run_cell(_mp_cell(WRITER_CUT, expect=True, budget=2))
        violation = outcome.violations[0]
        record = execute_trace(scenario, violation.trace)
        assert record.violation is not None
        assert record.violation.reason.startswith("STALLED:")

    def test_stall_wording_only_for_stalls(self):
        clean = run_cell(_mp_cell())
        assert "stall" not in clean.describe()
