"""One protocol core, two clocks: the drivers must not diverge.

The quorum protocol, the retransmit channel and the stall window are
each written once (:class:`repro.mp.swmr_emulation.ReplicaCore`,
:class:`repro.faults.channels.ChannelCore`,
:class:`repro.faults.monitor.StallWindow`) and driven twice — by the
simulator on virtual steps and by the live cluster on wall-clock
seconds. These tests deliver one seeded schedule to both drivers of a
core and require the same state and the same outgoing traffic after
every single event, so a driver that reorders, drops or reinterprets
what the core returned fails here rather than in a flaky cluster run.
The one sanctioned difference is the channel's retransmit timeout
(fixed on virtual steps, measured on the wall clock); there each
driver's deadlines are held to a reference model of its own rule.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import ConfigurationError
from repro.faults.channels import ChannelCore, DedupWindow
from repro.faults.monitor import StallWindow
from repro.mp import RandomDelayNetwork, RegisterEmulation
from repro.mp.swmr_emulation import ALL
from repro.net import NetNode
from repro.net.channels import MIN_RTO
from repro.sim import Broadcast, Pause, ReceiveAll, Send, System
from tests.channel_cases import VirtualEndpoint, WallEndpoint

N, F = 4, 1
#: name -> (writer, initial); "r" is written by p1, "s" by p2.
REGISTERS = {"r": (1, 0), "s": (2, ())}


# ----------------------------------------------------------------------
# The replica core behind RegisterEmulation and behind NetNode
# ----------------------------------------------------------------------
def _pair(effect):
    if isinstance(effect, Broadcast):
        return (ALL, effect.payload)
    assert isinstance(effect, Send)
    return (effect.to, effect.payload)


def _run_to_pause(program):
    """Advance a client generator to its next ``Pause`` (or its return):
    ``(outgoing pairs, finished, result)``."""
    out = []
    try:
        effect = next(program)
        while not isinstance(effect, Pause):
            out.append(_pair(effect))
            effect = next(program)
    except StopIteration as stop:
        return out, True, stop.value
    return out, False, None


class SimReplica:
    """Process ``pid`` of a :class:`RegisterEmulation`, stepped by hand."""

    def __init__(self, pid):
        system = System(n=N, f=F)
        system.network = RandomDelayNetwork(seed=0)
        self.pid = pid
        self.emu = RegisterEmulation(system, f=F)
        for name, (writer, initial) in REGISTERS.items():
            self.emu.add_register(name, writer=writer, initial=initial)
        self.core = self.emu.state_of(pid)
        self.daemon = self.emu.replica_program(pid)
        assert isinstance(next(self.daemon), ReceiveAll)

    def deliver(self, sender, payload):
        out = []
        effect = self.daemon.send([(sender, payload)])
        while not isinstance(effect, ReceiveAll):
            out.append(_pair(effect))
            effect = next(self.daemon)
        return out


class LiveReplica:
    """An un-started :class:`NetNode`, its two send seams recorded."""

    def __init__(self, pid):
        self.node = NetNode(pid, N, F, REGISTERS, requery=3600.0)
        self.sent = []
        self.node._send = lambda dst, payload: self.sent.append((dst, payload))
        self.node._broadcast = lambda payload: self.sent.append((ALL, payload))

    @property
    def core(self):
        return self.node.replica

    def deliver(self, sender, payload):
        self.node._deliver(sender, payload, None)
        return self.take()

    def take(self):
        out, self.sent[:] = list(self.sent), []
        return out


def snapshot(core):
    return (
        core.accepted,
        core.echo_votes,
        core.echoed,
        core.acks,
        core.value_reports,
        core.version,
    )


def message_schedule(seed, count):
    """``count`` seeded ``(sender, payload)`` deliveries: all seven
    kinds over small domains (so echo thresholds are crossed, pairs get
    adopted, PULLs land above and below what is held), salted with the
    malformed shapes the handler must ignore."""
    rng = random.Random(seed)
    names = ["r", "r", "r", "s", "nope"]
    seqs = [0, 1, 1, 2, 2, 3, True, "2", -1]
    values = ["a", "b", (1, 2)]
    ids = [1, 2, 3, "x"]

    def one():
        name, seq, value = rng.choice(names), rng.choice(seqs), rng.choice(values)
        kind = rng.choice(
            ["WRITE", "ECHO", "ECHO", "ECHO", "ACK", "READ", "VALUE", "PULL", "PULL-ACK"]
        )
        if kind in ("WRITE", "ECHO"):
            payload = (kind, name, seq, value)
        elif kind == "ACK":
            payload = (kind, name, seq)
        elif kind == "READ":
            payload = (kind, name, rng.choice(ids))
        elif kind == "VALUE":
            payload = (kind, name, rng.choice(ids), seq, value)
        elif kind == "PULL":
            payload = (kind, name, seq, value, rng.choice(ids))
        else:
            payload = (kind, name, rng.choice(ids))
        roll = rng.random()
        if roll < 0.06:
            payload = payload[:-1]  # wrong arity
        elif roll < 0.10:
            payload = rng.choice([(), "WRITE", None, ("NOISE", name), list(payload)])
        return rng.randint(1, N), payload

    return [one() for _ in range(count)]


def test_schedule_exercises_what_it_claims():
    sim = SimReplica(3)
    kinds_answered = set()
    for sender, payload in message_schedule(seed=12, count=400):
        for _dst, reply in sim.deliver(sender, payload):
            kinds_answered.add(reply[0])
    assert kinds_answered == {"ECHO", "ACK", "VALUE", "PULL-ACK"}
    assert sim.core.accepted["r"][0] > 0  # something was adopted
    assert any(len(votes) > F for votes in sim.core.echo_votes.values())
    assert sim.core.acks and sim.core.value_reports


@pytest.mark.parametrize("seed", [12, 13])
def test_both_drivers_make_the_same_transitions(seed):
    async def go():
        sim, live = SimReplica(3), LiveReplica(3)
        assert snapshot(sim.core) == snapshot(live.core)
        for step, (sender, payload) in enumerate(message_schedule(seed, 400)):
            assert sim.deliver(sender, payload) == live.deliver(sender, payload), (
                step,
                sender,
                payload,
            )
            assert snapshot(sim.core) == snapshot(live.core), (step, sender, payload)

    asyncio.run(go())


def test_a_recovering_replica_answers_no_reads():
    sim = SimReplica(3)
    sim.core.recovering = True
    assert sim.deliver(2, ("READ", "r", 1)) == []
    assert sim.deliver(1, ("WRITE", "r", 1, "a"))  # everything else still runs
    sim.core.recovering = False
    assert sim.deliver(2, ("READ", "r", 1)) == [(2, ("VALUE", "r", 1, 1, "a"))]


def test_both_drivers_open_and_complete_operations_alike():
    """p1 writes ``r`` and then reads it back with write-back, on both
    drivers, fed the same replies: same traffic, same state, same result."""

    async def settle(task):
        for _ in range(5):
            await asyncio.sleep(0)
        return task.done()

    async def go():
        sim, live = SimReplica(1), LiveReplica(1)

        def deliver_both(sender, payload):
            assert sim.deliver(sender, payload) == live.deliver(sender, payload)
            assert snapshot(sim.core) == snapshot(live.core)

        # write("r", "v"): WRITE to all, done at n - f acks (own included).
        sim_op = sim.emu.write(1, "r", "v")
        live_op = asyncio.ensure_future(live.node.write("r", "v", record=False))
        out, finished, _ = _run_to_pause(sim_op)
        assert not finished and not await settle(live_op)
        assert out == live.take() == [(ALL, ("WRITE", "r", 1, "v"))]
        deliver_both(2, ("ACK", "r", 1))
        assert not _run_to_pause(sim_op)[1] and not await settle(live_op)
        deliver_both(3, ("ACK", "r", 1))
        assert _run_to_pause(sim_op) == ([], True, "done")
        assert await settle(live_op) and live_op.result() == "done"

        # read("r") with write-back: READ, f + 1 matching VALUEs (own
        # included), then PULL until n - f hold the pair.
        sim_op = sim.emu.read(1, "r", requery_every=10**9, write_back=True)
        live_op = asyncio.ensure_future(live.node.read("r", record=False))
        out, finished, _ = _run_to_pause(sim_op)
        assert not finished and not await settle(live_op)
        assert out == live.take() == [(ALL, ("READ", "r", 1))]
        deliver_both(4, ("VALUE", "r", 1, 0, 0))  # a stale replica: no quorum yet
        assert _run_to_pause(sim_op) == ([], False, None)
        deliver_both(2, ("VALUE", "r", 1, 1, "v"))
        out, finished, _ = _run_to_pause(sim_op)
        assert not finished and not await settle(live_op)
        assert out == live.take() == [(ALL, ("PULL", "r", 1, "v", 2))]
        deliver_both(2, ("PULL-ACK", "r", 2))
        deliver_both(3, ("PULL-ACK", "r", 2))
        assert _run_to_pause(sim_op) == ([], True, "v")
        assert await settle(live_op) and live_op.result() == "v"
        assert snapshot(sim.core) == snapshot(live.core)

    asyncio.run(go())


# ----------------------------------------------------------------------
# The channel core behind RetransmitChannels and behind WallClockChannels
# ----------------------------------------------------------------------
class ChannelModel:
    """The channel core's timing contract, restated plainly: which
    frames a driver resends when, what it counts, when it gives up.

    The first retransmit of a frame to ``dst`` waits ``rto(dst)``, then
    each next one doubles, capped; a frame is abandoned after
    ``max_retries`` resends. With ``estimate`` the RTO is RFC 6298's,
    from round trips of frames acked on their first copy once the driver
    has resent anything (the wall driver); without, it is
    ``base_timeout`` (the virtual driver).
    """

    def __init__(self, base_timeout, max_backoff, max_retries, estimate):
        self.base, self.cap, self.retries = base_timeout, max_backoff, max_retries
        self.estimate = estimate
        self.rtt = {}  # dst -> (srtt, rttvar)
        self.pending = {}  # (dst, seq) -> [sent_at, attempts, due, payload]
        self.counts = dict(retransmitted=0, acked=0, exhausted=0)

    def rto(self, dst):
        if dst not in self.rtt:
            return self.base
        srtt, rttvar = self.rtt[dst]
        return min(max(srtt + 4 * rttvar, MIN_RTO), self.cap)

    def frame(self, dst, seq, payload, now):
        self.pending[(dst, seq)] = [now, 0, now + self.rto(dst), payload]

    def ack(self, sender, seq, now):
        if type(seq) is not int or (sender, seq) not in self.pending:
            return
        sent_at, attempts, _due, _payload = self.pending.pop((sender, seq))
        self.counts["acked"] += 1
        if self.estimate and attempts == 0 and self.counts["retransmitted"]:
            sample = now - sent_at
            if sender not in self.rtt:
                self.rtt[sender] = (sample, sample / 2)
            else:
                srtt, rttvar = self.rtt[sender]
                rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
                self.rtt[sender] = (0.875 * srtt + 0.125 * sample, rttvar)

    def due(self, now):
        out = []
        for key, entry in list(self.pending.items()):
            if entry[2] > now:
                continue
            entry[1] += 1
            if entry[1] > self.retries:
                del self.pending[key]
                self.counts["exhausted"] += 1
                continue
            self.counts["retransmitted"] += 1
            entry[2] = now + min(self.rto(key[0]) * 2 ** entry[1], self.cap)
            out.append((key[0], ("CH", key[1], entry[3])))
        return out

    def deadlines(self):
        return {key: tuple(entry[:3]) for key, entry in self.pending.items()}


def test_both_channel_facades_make_the_same_transitions():
    """One seeded schedule of sends, clock ticks and arrivals (acks real,
    stray and forged, peer frames fresh and duplicated, bare and
    malformed payloads) at integer times with jitter 0, delivered to
    both drivers.

    What no clock decides must be identical across the two, event by
    event: the frames, what each arrival yields (inner payload and
    acks), dedup and the send count. The wall driver times its first
    retransmit by its measured RTO, so the rest — every pending frame's
    ``(sent_at, attempts, due)``, the retransmit sets, the retransmit,
    ack and abandonment counters, pending counts — is held, per driver,
    to one :class:`ChannelModel` fed that driver's timeout rule."""
    rng = random.Random(7)
    timing = dict(base_timeout=3, max_backoff=12, max_retries=3)
    virtual, wall = VirtualEndpoint(pid=1, **timing), WallEndpoint(pid=1, **timing)
    models = {
        virtual: ChannelModel(**timing, estimate=False),
        wall: ChannelModel(**timing, estimate=True),
    }
    now, framed, parted = 0, [], 0
    for step in range(600):
        now += rng.randint(0, 2)
        roll = rng.random()
        if roll < 0.35:
            dst, payload = rng.randint(2, 4), ("WRITE", "r", step, "v")
            got = virtual.frame(dst, payload, now)
            assert got == wall.frame(dst, payload, now) == ("CH", got[1], payload)
            framed.append((dst, got[1]))
            for model in models.values():
                model.frame(dst, got[1], payload, now)
        elif roll < 0.60:
            for driver, model in models.items():
                assert driver.due(now) == model.due(now), step
        else:
            sender = rng.randint(2, 4)
            # Mostly a recent frame, so some acks beat their first resend.
            target = rng.choice(framed[-3:]) if framed else (sender, 1)
            arrival = rng.choice(
                [
                    ("CH-ACK", target[1]),
                    ("CH-ACK", rng.choice([True, 2.0])),
                    ("CH", rng.randint(1, 8), ("ECHO", "r", 1, "v")),
                    ("READ", "r", step),
                    ("CH", "1", "x"),
                ]
            )
            if arrival[0] == "CH-ACK" and rng.random() < 0.7:
                sender = target[0]  # mostly acks that match
            got = virtual.receive(sender, arrival, now)
            assert got == wall.receive(sender, arrival, now)
            if arrival[0] == "CH-ACK":
                for model in models.values():
                    model.ack(sender, arrival[1], now)
        shared = ("sent", "duplicates_dropped")
        metrics = {driver: driver.metrics() for driver in models}
        assert [metrics[virtual][k] for k in shared] == [metrics[wall][k] for k in shared]
        parted += virtual.deadlines() != wall.deadlines()
        for driver, model in models.items():
            assert driver.deadlines() == model.deadlines(), step
            assert driver.pending() == len(model.pending)
            assert {k: metrics[driver][k] for k in model.counts} == model.counts
    for driver in models:
        metrics = driver.metrics()
        assert metrics["retransmitted"] > 0 and metrics["acked"] > 0
        assert metrics["duplicates_dropped"] > 0
        assert metrics["exhausted"] > 0  # some frames ran out of retries
    # The wall driver did measure, and its deadlines did part from the
    # virtual driver's: the model, not a copy, is what they agree with.
    assert any(wall.channels.rto(dst) != 3 for dst in (2, 3, 4))
    assert parted > 0


# ----------------------------------------------------------------------
# Bounded dedup: a low-water mark plus a sparse set, same decisions
# ----------------------------------------------------------------------
def _arrival_orders():
    rng = random.Random(3)
    in_order = list(range(1, 40))
    shuffled = in_order[:]
    rng.shuffle(shuffled)
    gap_then_fill = [1, 2, 5, 6, 9, 5, 3, 4, 4, 7, 8, 9, 10]
    duplicated = [seq for seq in in_order for _ in range(rng.randint(1, 3))]
    outside = [0, -3, 0, 1, -3, 2, 10**9, 2, 10**9]  # nothing a peer would send
    noisy = [rng.randint(-2, 30) for _ in range(300)]
    return {
        "in_order": in_order,
        "shuffled": shuffled,
        "gap_then_fill": gap_then_fill,
        "duplicated": duplicated,
        "outside_the_numbering": outside,
        "noisy": noisy,
    }


@pytest.mark.parametrize("order", sorted(_arrival_orders()))
def test_dedup_window_decides_like_an_ever_growing_set(order):
    arrivals = _arrival_orders()[order]
    core = ChannelCore(2, base_timeout=1, max_backoff=1, max_retries=0)
    seen, duplicates = set(), 0
    for seq in arrivals:
        inner, acks = core.on_receive(1, ("CH", seq, ("payload", seq)))
        assert acks == [("CH-ACK", seq)]  # the always-ACK rule
        if seq in seen:
            duplicates += 1
            assert inner is None
        else:
            seen.add(seq)
            assert inner == ("payload", seq)
    assert core.duplicates_dropped == duplicates


def test_dedup_window_holds_only_what_is_above_a_gap():
    window = DedupWindow()
    for seq in range(1, 1001):
        assert window.admit(seq)
    assert (window.low, window.above) == (1000, set())
    assert window.admit(1003) and window.admit(1002)
    assert (window.low, window.above) == (1000, {1002, 1003})
    assert window.admit(1001)  # the gap fills; the sparse set folds away
    assert (window.low, window.above) == (1003, set())
    assert not window.admit(7) and not window.admit(1003)


# ----------------------------------------------------------------------
# The stall window on either clock
# ----------------------------------------------------------------------
def test_stall_window_judges_steps_and_seconds_alike():
    counter = [0]
    steps = StallWindow(lambda: (counter[0],), 10, " steps")
    seconds = StallWindow(lambda: (counter[0],), 0.5, "s")
    verdicts = []
    for tick in range(40):
        if tick in (3, 4, 20):
            counter[0] += 1  # progress: the window reopens
        pair = (steps.expired(tick), seconds.expired(tick * 0.05))
        assert pair[0] == pair[1], tick
        verdicts.append(pair[0])
    # Quiet from tick 4 to 20 (expired from 14 on), and again from 30 on.
    assert [t for t, v in enumerate(verdicts) if v] == list(range(14, 20)) + list(
        range(30, 40)
    )

    class _Channels:
        max_backoff = 10

    with pytest.raises(ConfigurationError, match="capped backoff \\(10 steps\\)"):
        StallWindow(lambda: (), 10, " steps", channels=[_Channels()])
    with pytest.raises(ConfigurationError, match="capped backoff \\(10s\\)"):
        StallWindow(lambda: (), 10, "s", channels=[_Channels()])
    window = StallWindow(
        lambda: (),
        11,
        "s",
        channels=[_Channels()],
        describe_pending=lambda: "c0 write",
        describe_suppression=lambda: "plan[x]",
    )
    assert window.diagnose("HEAD") == "HEAD; pending: c0 write; plan[x]"
