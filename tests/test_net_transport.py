"""The live node's event-loop plumbing (repro.net.node / wire / chaos).

What the protocol tests in ``test_net.py`` cannot see: that the frame
splitter is indifferent to where the socket cuts the byte stream, that
the codec still writes the bytes it always wrote, that a peer's payloads
leave as one document in one ``write`` per loop tick and a dead peer's
are dropped, that waits are futures resolved by delivery and paced by a
timer, and that a malformed frame closes its connection visibly instead
of raising through the connection's callbacks.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, NetworkError
from repro.faults import FaultPlan
from repro.net import (
    ChaosClock,
    ChaosProxy,
    LiveCluster,
    LiveProfile,
    NetNode,
    WallClockChannels,
    wire,
)
from repro.net.node import _RECONNECT_PAUSE, _Connection, _Link
from repro.net.oracle import LiveHistory

REGISTERS = {f"reg:{pid}": (pid, 0) for pid in range(1, 5)}

#: One of every document shape the runtime puts on a socket.
DOCUMENTS = [
    wire.hello(3),
    wire.hello(0),
    wire.msg(("CH", 7, ("WRITE", "reg:1", 7, 1000007))),
    wire.msg(("CH-ACK", 7)),
    wire.msg(("VALUE", (("led:3", 41, 5, ((2, 1), (4, 3))), ("led:2", 41, 0, ())))),
    wire.msg(("PULL", (("led:3", 5, ((2, 1), (4, 3)), 42),))),
    wire.msg(("ECHO", "reg:2", 1, "zażółć gęślą jaźń ☃")),
    wire.msg(
        ("CH-ACK", 8), ("CH", 9, ("READ", (("reg:4", 2),))), ("ACK", "reg:1", 3)
    ),
    {"t": "req", "id": 9, "op": "write", "args": ["reg:1", [1, [2, []]]]},
    {"t": "res", "id": 9, "ok": True, "value": {"n": 4, "accounts": [1, 2]}},
]


def parent_encode(doc):
    """``wire.encode`` as the parent commit wrote it."""
    body = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    return len(body).to_bytes(4, "big") + body


def decoded(doc):
    """What the decode path yields for ``doc``: its JSON round trip, a
    ``msg`` batch frozen to a tuple of hashable payloads."""
    doc = json.loads(json.dumps(doc))
    if doc["t"] == "msg":
        doc["m"] = wire.freeze(doc["m"])
    return doc


def parent_freeze(value):
    """``wire.freeze`` as the parent commit wrote it."""
    if isinstance(value, list):
        return tuple(parent_freeze(item) for item in value)
    return value


def read_all(data):
    """Every document ``read_doc`` yields from ``data`` followed by EOF."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        docs = []
        while True:
            doc = await wire.read_doc(reader)
            if doc is None:
                return docs
            docs.append(doc)

    return asyncio.run(go())


async def eventually(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# Codec and splitter
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("doc", DOCUMENTS)
    def test_encode_writes_the_parents_bytes(self, doc):
        assert wire.encode(doc) == parent_encode(doc)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple),
            max_leaves=20,
        )
    )
    def test_freeze_matches_the_recursive_definition(self, value):
        frozen = wire.freeze(value)
        assert frozen == parent_freeze(value)
        assert type(frozen) is type(parent_freeze(value))
        if not isinstance(value, list):
            assert frozen is value

    def test_freeze_leaves_lists_inside_tuples_alone(self):
        # Only JSON arrays are rebuilt; a tuple is already frozen and is
        # not walked (the parent's rule, kept).
        value = ([1], 2)
        assert wire.freeze(value) is value
        assert wire.freeze([[1, [2]], (3, [4])]) == ((1, (2,)), (3, [4]))

    @pytest.mark.parametrize(
        "value", [{"x": 1}, ["ECHO", "reg:1", 1, {"x": 1}], [1, [2, [{}]]]]
    )
    def test_freeze_refuses_a_json_object_at_any_depth(self, value):
        with pytest.raises(NetworkError):
            wire.freeze(value)

    def test_a_batch_too_large_for_one_frame_splits_into_halves(self):
        payloads = [("ECHO", "reg:1", seq, "x" * 400_000) for seq in range(1, 6)]
        data = wire.encode_batch(payloads)
        docs = wire.Splitter().feed(data)
        assert len(docs) > 1
        assert [p for doc in docs for p in doc["m"]] == payloads
        assert wire.encode_batch(payloads[:2]) == wire.encode(wire.msg(*payloads[:2]))
        with pytest.raises(NetworkError):
            wire.encode_batch([("ECHO", "reg:1", 1, "x" * wire.MAX_FRAME)])


class TestSplitter:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(DOCUMENTS), min_size=1, max_size=6))
    def test_any_cut_yields_what_read_doc_yields(self, docs):
        data = b"".join(wire.encode(doc) for doc in docs)
        expected = read_all(data)
        assert expected == [decoded(doc) for doc in docs]
        for cut in range(len(data) + 1):  # includes cuts inside a prefix
            splitter = wire.Splitter()
            got = splitter.feed(data[:cut]) + splitter.feed(data[cut:])
            assert got == expected, cut
            assert splitter.feed(b"") == []
        splitter = wire.Splitter()
        got = []
        for index in range(len(data)):  # one byte at a time
            got += splitter.feed(data[index : index + 1])
        assert got == expected

    def test_an_incomplete_tail_is_kept_not_guessed_at(self):
        first, second = wire.encode(wire.hello(1)), wire.encode(wire.msg(("ACK", 1)))
        splitter = wire.Splitter()
        assert splitter.feed(first + second[:-1]) == [wire.hello(1)]
        assert splitter.feed(b"") == []
        assert splitter.feed(second[-1:]) == [{"t": "msg", "m": (("ACK", 1),)}]
        # ... and read_doc agrees that a truncated frame is no document.
        assert read_all(first + second[:-1]) == [wire.hello(1)]


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


#: Frames no well-behaved peer sends: (case, the bytes after the hello).
MALFORMED = [
    ("oversized", (wire.MAX_FRAME + 1).to_bytes(4, "big") + b"{}"),
    ("not-utf8", _framed(b'{"t":"\xff\xfe"}')),
    ("not-json", _framed(b"not-json")),
    ("empty-body", _framed(b"")),
    ("not-an-object", _framed(b"[1,2]")),
    ("no-kind", _framed(b'{"m":[1]}')),
    ("hello-pid-not-int", _framed(b'{"pid":"two","t":"hello"}')),
    ("msg-without-m", _framed(b'{"t":"msg"}')),
    ("msg-m-not-an-array", _framed(b'{"m":"READ","t":"msg"}')),
    ("object-in-payload", _framed(b'{"m":[["ECHO","reg:1",1,{"x":1}]],"t":"msg"}')),
]


class TestMalformedFrames:
    @pytest.mark.parametrize("case,frame", MALFORMED, ids=[c for c, _ in MALFORMED])
    def test_splitter_and_read_doc_raise_the_typed_error(self, case, frame):
        with pytest.raises(NetworkError):
            wire.Splitter().feed(frame)
        with pytest.raises(NetworkError):
            read_all(frame)

    async def _offend(self, port, frame):
        """Dial, say hello as peer 2, send ``frame``; True if we got hung up on."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(wire.encode(wire.hello(2)) + frame)
        await writer.drain()
        closed = await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        return closed

    async def _deliver_one(self, node, port):
        """A well-formed connection still gets its frame delivered."""
        before = node.delivered
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            wire.encode(wire.hello(2)) + wire.encode(wire.msg(("READ", "reg:1", 1)))
        )
        await writer.drain()
        await eventually(lambda: node.delivered == before + 1)
        writer.close()

    def test_a_live_node_hangs_up_counts_and_keeps_serving(self, caplog, capfd):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            try:
                for count, (case, frame) in enumerate(MALFORMED, start=1):
                    assert await self._offend(node.port, frame), case
                    await eventually(lambda: node.bad_frames == count)
                    assert node.metrics()["bad_frames"] == count
                    await self._deliver_one(node, node.port)
                # Refused whole: no part of a bad frame reached the core.
                assert node.replica.echo_votes == {}
            finally:
                await node.stop()

        with caplog.at_level(logging.DEBUG):
            asyncio.run(go())
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert capfd.readouterr().err == ""

    def test_a_live_proxy_hangs_up_counts_and_keeps_forwarding(self, caplog, capfd):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            proxy = ChaosProxy(
                FaultPlan.from_spec(()), 1, ("127.0.0.1", node.port), ChaosClock()
            )
            await proxy.start()
            try:
                for count, (case, frame) in enumerate(MALFORMED, start=1):
                    assert await self._offend(proxy.port, frame), case
                    await eventually(lambda: proxy.bad_frames == count)
                    assert proxy.metrics()["bad_frames"] == count
                    await self._deliver_one(node, proxy.port)
                # The proxy reads batches through the node's decode path,
                # so it refuses every one of them and forwards none.
                assert node.bad_frames == 0
            finally:
                await proxy.stop()
                await node.stop()

        with caplog.at_level(logging.DEBUG):
            asyncio.run(go())
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert capfd.readouterr().err == ""

    def test_inbound_reads_ask_for_one_wire_chunk(self):
        # asyncio's default 256 KiB buffer per recv thrashes the heap top
        # in some allocation layouts (see wire.cap_reads).
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            proxy = ChaosProxy(
                FaultPlan.from_spec(()), 1, ("127.0.0.1", node.port), ChaosClock()
            )
            await proxy.start()
            _reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
            try:
                writer.write(
                    wire.encode(wire.hello(2))
                    + wire.encode(wire.msg(("READ", "reg:1", 1)))
                )
                await writer.drain()
                await eventually(lambda: node.delivered == 1)
                assert [t.max_size for t in node._connections] == [1 << 16]
                assert [w.transport.max_size for w in proxy._connections] == [1 << 16]
            finally:
                writer.close()
                await proxy.stop()
                await node.stop()

        asyncio.run(go())

    def test_a_malformed_first_frame_is_the_same_error(self):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
                writer.write(_framed(b"not-json"))
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                await eventually(lambda: node.bad_frames == 1)
            finally:
                await node.stop()

        asyncio.run(go())

    def test_a_client_request_holding_an_object_is_refused_untouched(
        self, caplog, capfd
    ):
        async def go():
            history = LiveHistory()
            node = NetNode(2, 4, 1, REGISTERS, history=history)
            await node.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
                writer.write(
                    wire.encode(wire.hello(0))
                    + wire.encode(
                        {"t": "req", "id": 1, "op": "write", "args": ["reg:2", {"a": 1}]}
                    )
                    + wire.encode({"t": "req", "id": 2, "op": "info", "args": []})
                )
                splitter, docs = wire.Splitter(), []
                while len(docs) < 2:
                    docs += await asyncio.wait_for(wire.read_docs(reader, splitter), 5.0)
                writer.close()
            finally:
                await node.stop()
            return node, history, {doc["id"]: doc for doc in docs}

        with caplog.at_level(logging.DEBUG):
            node, history, responses = asyncio.run(go())
        assert responses[1]["ok"] is False
        assert responses[1]["value"].startswith("NetworkError")
        # The same connection goes on serving.
        assert responses[2]["ok"] is True and responses[2]["value"]["pid"] == 2
        # Refused before the history or the core saw it.
        assert len(history) == 0
        assert node.replica.accepted["reg:2"] == (0, 0)
        assert node.replica.write_seq["reg:2"] == 0
        assert node.bad_frames == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert capfd.readouterr().err == ""


# ----------------------------------------------------------------------
# Outbound links
# ----------------------------------------------------------------------
class StubTransport:
    def __init__(self):
        self.writes = []
        self.closing = False

    def write(self, data):
        self.writes.append(data)

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class Sink:
    """A listening socket that decodes whatever is sent to it."""

    def __init__(self):
        self.docs = []
        self.connections = 0

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        self.connections += 1
        splitter = wire.Splitter()
        try:
            while True:
                docs = await wire.read_docs(reader, splitter)
                if docs is None:
                    break
                self.docs += docs
        finally:
            writer.close()

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


async def closed_port():
    server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


class TestLinks:
    def test_one_write_per_peer_per_tick_in_order(self):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            try:
                stubs = {}
                for dst in (2, 3):
                    link = node._links[dst] = _Link(dst)
                    link.transport = stubs[dst] = StubTransport()
                to_two = [("READ", "reg:1", index) for index in range(5)]
                for payload in to_two:
                    node._enqueue(2, payload)
                node._enqueue(3, ("ACK", "reg:1", 1))
                assert stubs[2].writes == [] and stubs[3].writes == []
                await asyncio.sleep(0)
                # One document per peer per tick, its payloads in order.
                assert stubs[2].writes == [wire.encode(wire.msg(*to_two))]
                assert stubs[3].writes == [wire.encode(wire.msg(("ACK", "reg:1", 1)))]
                # The next tick is the next batch.
                node._enqueue(2, ("READ", "reg:1", 99))
                await asyncio.sleep(0)
                assert len(stubs[2].writes) == 2 and len(stubs[3].writes) == 1
                assert node._links[2].frames == []
            finally:
                await node.stop()
            assert stubs[2].closing and stubs[3].closing

        asyncio.run(go())

    def test_a_dead_peers_frames_are_dropped_not_hoarded(self):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            node.set_routes({2: ("127.0.0.1", await closed_port())})
            try:
                for index in range(500):
                    node._enqueue(2, ("READ", "reg:1", index))
                    if index % 50 == 49:
                        await asyncio.sleep(0.002)
                link = node._links[2]
                await eventually(lambda: link.dial is None and not link.frames)
                assert link.transport is None
                # After the pause, the next frame is a fresh dial ...
                await asyncio.sleep(_RECONNECT_PAUSE * 1.5)
                node._enqueue(2, ("READ", "reg:1", 0))
                await asyncio.sleep(0)
                assert link.dial is not None
                # ... and inside the pause after it fails (waited for
                # exactly, not polled) nothing is kept and nobody dials ...
                await asyncio.wait_for(link.dial, 5.0)
                node._enqueue(2, ("READ", "reg:1", 0))
                await asyncio.sleep(0)
                assert link.frames == [] and link.dial is None
                # ... no route is the same rule.
                node._enqueue(3, ("READ", "reg:1", 0))
                await asyncio.sleep(0)
                assert node._links[3].frames == [] and node._links[3].dial is None
            finally:
                await node.stop()

        asyncio.run(go())

    def test_a_closing_transport_drops_then_the_next_frame_redials(self):
        async def go():
            sink = Sink()
            await sink.start()
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            node.set_routes({2: ("127.0.0.1", sink.port)})
            try:
                link = node._links[2] = _Link(2)
                link.transport = broken = StubTransport()
                broken.closing = True
                node._enqueue(2, ("READ", "reg:1", 1))
                await asyncio.sleep(0)
                assert broken.writes == []
                assert link.frames == [] and link.transport is None
                node._enqueue(2, ("READ", "reg:1", 2))
                await eventually(lambda: len(sink.docs) == 2)
                assert sink.docs == [wire.hello(1), decoded(wire.msg(("READ", "reg:1", 2)))]
            finally:
                await node.stop()
                await sink.stop()

        asyncio.run(go())

    def test_frames_offered_during_a_dial_follow_the_hello_in_order(self):
        async def go():
            sink = Sink()
            await sink.start()
            node = NetNode(1, 4, 1, REGISTERS)
            await node.start()
            node.set_routes({2: ("127.0.0.1", sink.port)})
            try:
                node._enqueue(2, ("READ", "reg:1", 0))
                await asyncio.sleep(0)  # the flush: nothing to write to, so dial
                link = node._links[2]
                assert link.dial is not None and link.transport is None
                node._enqueue(2, ("READ", "reg:1", 1))
                node._enqueue(2, ("READ", "reg:1", 2))
                assert len(link.frames) == 3
                # The hello, then one document holding all three.
                await eventually(lambda: len(sink.docs) == 2)
                assert sink.docs == [
                    wire.hello(1),
                    decoded(wire.msg(*[("READ", "reg:1", index) for index in range(3)])),
                ]
                assert link.frames == [] and link.dial is None
                assert sink.connections == 1
            finally:
                await node.stop()
                await sink.stop()

        asyncio.run(go())

    def test_stop_and_restart_leave_no_link_and_no_waiter_behind(self):
        async def go():
            cluster = LiveCluster(
                LiveProfile(n=4, f=1, clients=8, rounds=2, ops_per_client=2, seed=1)
            )
            await cluster.start()
            try:
                report = await cluster.run()
                assert report.clean and report.rounds_completed == 2
                assert [len(node._waiters) for node in cluster.nodes] == [0] * 4
                node = cluster.nodes[0]
                transports = [link.transport for link in node._links.values()]
                assert len(transports) == 3 and None not in transports
                await node.stop()
                assert node._links == {} and node._retransmit_timer is None
                assert all(transport.is_closing() for transport in transports)
                await node.restart()
                assert len(node._waiters) == 0
                read = asyncio.ensure_future(node.read("reg:2"))
                await asyncio.sleep(0)
                assert node._retransmit_timer is not None  # its frames re-arm it
                assert await read == await cluster.nodes[1].read("reg:2")
                assert len(node._waiters) == 0
            finally:
                await cluster.stop()
            assert all(node._links == {} for node in cluster.nodes)

        asyncio.run(go())


class TestRetransmitTimer:
    """Lost frames are resent by one deadline timer per node."""

    BASE = 0.03

    async def node_towards_sink(self):
        sink = Sink()
        await sink.start()
        node = NetNode(
            1, 4, 1, REGISTERS, channels=WallClockChannels(1, base_timeout=self.BASE)
        )
        await node.start()
        node.set_routes({2: ("127.0.0.1", sink.port)})
        return node, sink

    @staticmethod
    def received(sink):
        return [p for doc in sink.docs if doc["t"] == "msg" for p in doc["m"]]

    def test_a_lost_first_copy_is_resent_by_the_deadline_timer(self):
        async def go():
            node, sink = await self.node_towards_sink()
            try:
                # Nothing polls: the node runs no task of its own.
                assert asyncio.all_tasks() == {asyncio.current_task()}
                assert node._retransmit_timer is None
                enqueue, lost = node._enqueue, []
                node._enqueue = lambda dst, payload: lost.append(payload)
                loop = asyncio.get_running_loop()
                sent = loop.time()
                node._send(2, ("READ", "reg:1", 1))
                node._enqueue = enqueue
                assert lost == [("CH", 1, ("READ", "reg:1", 1))]
                timer = node._retransmit_timer
                assert timer is not None and timer.when() <= sent + self.BASE + 0.01
                await eventually(lambda: self.received(sink) != [])
                # The timer, not a poll: resent one (jittered) RTO later.
                assert loop.time() - sent >= self.BASE * 0.75
                assert self.received(sink)[0] == lost[0]
                assert node.channels.retransmitted >= 1
                # Unacked, it stays armed for the backed-off resend.
                assert node._retransmit_timer is not None
                # Having resent, the node times a fresh frame's loopback
                # round trip (Karn's rule: never the resent one's).
                node._deliver(2, ("CH-ACK", 1), time.monotonic())
                assert node.channels.rto(2) == self.BASE
                node._send(2, ("READ", "reg:1", 2))
                node._deliver(2, ("CH-ACK", 2), time.monotonic())
                assert node.channels.rto(2) < self.BASE
            finally:
                await node.stop()
                await sink.stop()

        asyncio.run(go())

    def test_an_ack_leaves_the_timer_nothing_to_resend(self):
        async def go():
            node, sink = await self.node_towards_sink()
            try:
                node._send(2, ("READ", "reg:1", 1))
                node._deliver(2, ("CH-ACK", 1), time.monotonic())
                assert node.channels.pending_count() == 0
                await asyncio.sleep(self.BASE * 2)
                # It fired, found nothing due and nothing pending: disarmed.
                assert node._retransmit_timer is None
                assert node.channels.retransmitted == 0
                # Nothing was ever resent, so nothing is timed either.
                assert node.channels.rto(2) == self.BASE
            finally:
                await node.stop()
                await sink.stop()

        asyncio.run(go())

    def test_a_stopped_node_emits_nothing_when_the_old_deadline_passes(self):
        async def go():
            node, sink = await self.node_towards_sink()
            try:
                node._send(2, ("READ", "reg:1", 1))
                assert node._retransmit_timer is not None
                await node.stop()
                assert node._retransmit_timer is None
                emitted = []
                node._enqueue = lambda dst, payload: emitted.append(payload)
                await asyncio.sleep(self.BASE * 3)
                assert emitted == [] and node.channels.retransmitted == 0
            finally:
                await node.stop()
                await sink.stop()

        asyncio.run(go())


class TestProxyBatches:
    def test_decisions_follow_the_payload_sequence_not_the_batching(self):
        payloads = [("READ", "reg:1", index) for index in range(60)]
        plan = FaultPlan.from_spec((("drop", 0, 0, 0.3), ("dup", 0, 0, 0.2)), seed=11)

        async def through_proxy(documents):
            sink = Sink()
            await sink.start()
            proxy = ChaosProxy(plan, 1, ("127.0.0.1", sink.port), ChaosClock())
            await proxy.start()
            try:
                _reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
                writer.write(
                    wire.encode(wire.hello(2))
                    + b"".join(wire.encode(doc) for doc in documents)
                )
                judge = proxy.judge
                await eventually(
                    lambda: proxy.forwarded - judge.duplicated + judge.dropped
                    == len(payloads)
                )
                await eventually(
                    lambda: sum(len(doc.get("m", ())) for doc in sink.docs)
                    == proxy.forwarded
                )
                writer.close()
            finally:
                await proxy.stop()
                await sink.stop()
            return [p for doc in sink.docs[1:] for p in doc["m"]], proxy.metrics()

        one_batch = asyncio.run(through_proxy([wire.msg(*payloads)]))
        one_each = asyncio.run(through_proxy([wire.msg(p) for p in payloads]))
        assert one_batch == one_each
        arrived, metrics = one_batch
        assert metrics["dropped"] > 0 and metrics["duplicated"] > 0
        assert len(arrived) == metrics["forwarded"]


    def test_a_delayed_copy_is_cut_by_a_partition_that_opened_during_its_delay(
        self,
    ):
        # Held 300 ms by the delay rule; the partition opens at 100 ms.
        # The copy is judged again when its delay ends, as the simulator
        # judges an in-flight message at delivery, so it never arrives.
        plan = FaultPlan.from_spec(
            (("delay", 0, 0, 1.0, 300), ("partition", ((1,), (2,)), 100, None))
        )

        class _SetClock:
            ms = 0

            def now(self):
                return self.ms

        clock = _SetClock()

        async def go():
            sink = Sink()
            await sink.start()
            proxy = ChaosProxy(plan, 1, ("127.0.0.1", sink.port), clock)
            await proxy.start()
            try:
                _reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
                writer.write(
                    wire.encode(wire.hello(2))
                    + wire.encode(wire.msg(("READ", "reg:1", 1)))
                )
                await eventually(lambda: proxy.metrics()["delayed"] == 1)
                clock.ms = 150
                await eventually(lambda: proxy.metrics()["partitioned"] == 1)
                writer.close()
                return proxy.metrics(), [doc for doc in sink.docs if doc["t"] == "msg"]
            finally:
                await proxy.stop()
                await sink.stop()

        metrics, forwarded = asyncio.run(go())
        assert forwarded == [] and metrics["forwarded"] == 0
        assert metrics["partitioned"] == 1 and metrics["delayed"] == 1


# ----------------------------------------------------------------------
# Inbound chunks
# ----------------------------------------------------------------------
#: Any JSON value: what a peer can put in a payload.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**400),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=10,
)
_KINDS = ("WRITE", "ECHO", "READ", "VALUE", "PULL", "PULL-ACK", "ACK", "CH-ACK")
_FIELD = st.sampled_from(sorted(REGISTERS)) | JSON_VALUES | st.integers(0, 3)
#: Payloads shaped like the protocol's (a kind, a register, anything
#: after; or a kind and a list of per-register entries), or not, and
#: either bare or channel-framed.
_SHAPED = (
    JSON_VALUES
    | st.builds(
        lambda kind, name, rest: [kind, name, *rest],
        st.sampled_from(_KINDS),
        st.sampled_from(sorted(REGISTERS)) | JSON_VALUES,
        st.lists(JSON_VALUES | st.integers(0, 3), max_size=3),
    )
    | st.builds(
        lambda kind, entries: [kind, entries],
        st.sampled_from(_KINDS),
        st.lists(st.lists(_FIELD, max_size=5), max_size=5),
    )
)
PAYLOADS = _SHAPED | st.builds(
    lambda seq, inner: ["CH", seq, inner], JSON_VALUES | st.integers(-1, 5), _SHAPED
)


def has_object(value):
    if isinstance(value, dict):
        return True
    return isinstance(value, list) and any(has_object(item) for item in value)


class TestInboundChunks:
    @settings(max_examples=150, deadline=None)
    @given(batch=st.lists(PAYLOADS, max_size=6), data=st.data())
    def test_a_batch_is_delivered_whole_or_refused_however_it_is_cut(
        self, batch, data
    ):
        node = NetNode(1, 4, 1, REGISTERS, channels=WallClockChannels(1))
        delivered = []
        deliver = node._deliver

        def recording(sender, payload, framed):
            if framed:
                delivered.append(payload)
            deliver(sender, payload, framed)

        node._deliver = recording
        stream = wire.encode(wire.hello(2)) + wire.encode(wire.msg(*batch))
        cuts = sorted(data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=4)))
        connection, transport = _Connection(node), StubTransport()
        connection.connection_made(transport)
        for start, stop in zip([0] + cuts, cuts + [len(stream)]):
            if start < stop and not transport.closing:
                connection.data_received(stream[start:stop])  # never raises
        if has_object(batch):
            assert node.bad_frames == 1 and transport.closing and delivered == []
        else:
            assert node.bad_frames == 0 and not transport.closing
            assert json.dumps(delivered) == json.dumps(batch)
        replica = node.replica
        for table in (replica.echo_votes, replica.acks, replica.value_reports):
            for key in table:
                hash(key)
        hash(tuple(replica.accepted.items()))


# ----------------------------------------------------------------------
# Waiting
# ----------------------------------------------------------------------
class TestWaiting:
    def test_a_cancelled_read_leaves_no_parked_future(self):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS, requery=3600.0)
            read = asyncio.ensure_future(node.read("reg:2"))
            await asyncio.sleep(0)
            assert len(node._waiters) == 1  # alone, it has no quorum
            read.cancel()
            with pytest.raises(asyncio.CancelledError):
                await read
            assert len(node._waiters) == 0

        asyncio.run(go())

    def test_one_delivery_wakes_every_waiter_to_recheck_its_own_predicate(self):
        async def go():
            node = NetNode(1, 4, 1, REGISTERS, requery=3600.0)
            count = 200
            ok = [False] * count
            checks = [0] * count

            def op(index):
                """One wait, ready once ``ok[index]``; returns ``index + 1``."""

                def ready(core):
                    checks[index] += 1
                    return ok[index]

                # Sent to a peer of an un-started node: goes nowhere.
                yield (2, ("READ", (("reg:1", 1),))), ready, True
                return index + 1

            waits = [asyncio.ensure_future(node._drive(op(i))) for i in range(count)]
            await asyncio.sleep(0)
            assert len(node._waiters) == count and checks == [1] * count
            for index in range(0, count, 2):
                ok[index] = True
            node._deliver(2, ("NOISE", "x"), None)  # one delivery
            assert node._waiters == []
            await asyncio.sleep(0)
            assert checks == [2] * count
            assert [w.done() for w in waits] == [i % 2 == 0 for i in range(count)]
            assert len(node._waiters) == count // 2  # the rest parked again
            # A burst is one wake-up: the second notify of a tick finds
            # the list already cleared.
            ok[:] = [True] * count
            node._notify()
            node._notify()
            results = await asyncio.wait_for(asyncio.gather(*waits), 5.0)
            assert results == [i + 1 for i in range(count)]
            assert checks == [2 + (i % 2) for i in range(count)]
            assert len(node._waiters) == 0

        asyncio.run(go())

    def test_a_write_in_flight_across_its_nodes_restart_completes(self):
        # The crash drops the WRITE's frames and the restart the channel
        # layer's pending copies; the wait, woken on the new core, sends
        # its WRITE once more, and that is what carries the write.
        async def go():
            cluster = LiveCluster(
                LiveProfile(n=4, f=1, clients=1, rounds=1, ops_per_client=1)
            )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                write = asyncio.ensure_future(node.write("reg:1", 7))
                await asyncio.sleep(0)
                assert not write.done()
                await node.stop()
                await node.restart()
                assert await asyncio.wait_for(write, 3.0) == "done"
                assert node.replica.write_seq["reg:1"] == 1
                assert await node.read("reg:1") == 7
                assert await cluster.nodes[1].read("reg:1") == 7
            finally:
                await cluster.stop()

        asyncio.run(go())

    def test_a_restart_recovers_every_register_in_one_read_round(self):
        # The requery base is far above a loopback round trip, so a
        # second READ would mean recovery needed a second round.
        async def go():
            cluster = LiveCluster(
                LiveProfile(
                    n=4, f=1, clients=1, rounds=1, ops_per_client=1, requery=5.0
                )
            )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                assert await node.write("reg:1", 7) == "done"
                assert await node.transfer(2, 3) == "ok"
                await node.stop()
                queries = []
                broadcast = node._broadcast

                def recording(payload):
                    if payload[0] == "READ":
                        queries.append(payload)
                    broadcast(payload)

                node._broadcast = recording
                await asyncio.wait_for(node.restart(), 3.0)
                assert len(queries) == 1
                assert [name for name, _rid in queries[0][1]] == list(node.registers)
                accepted = node.replica.accepted
                assert accepted["reg:1"] == (1, 7)
                assert accepted["led:1"] == (1, ((2, 3),))
                assert node.replica.write_seq["led:1"] == 1
            finally:
                await cluster.stop()

        asyncio.run(go())

    def test_a_ledger_op_is_one_read_and_one_pull_and_creates_no_task(self):
        async def go():
            cluster = LiveCluster(
                LiveProfile(
                    n=4, f=1, clients=1, rounds=1, ops_per_client=1, requery=5.0
                )
            )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                # Dials every link (the echoes reach every pair of peers).
                assert await node.transfer(3, 2) == "ok"

                def dialled():
                    links = [
                        link for peer in cluster.nodes for link in peer._links.values()
                    ]
                    return len(links) == 12 and all(link.transport for link in links)

                await eventually(dialled)
                sent = []
                broadcast = node._broadcast

                def recording(payload):
                    sent.append(payload)
                    broadcast(payload)

                node._broadcast = recording
                tasks = []
                loop = asyncio.get_running_loop()

                def factory(loop, coro, **kwargs):
                    tasks.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(factory)
                try:
                    assert await node.balance(3) == 12
                finally:
                    loop.set_task_factory(None)
                assert tasks == []
                ledgers = [f"led:{pid}" for pid in range(1, 5)]
                assert [(kind, [e[0] for e in entries]) for kind, entries in sent] == [
                    ("READ", ledgers),
                    ("PULL", ["led:1"]),  # the one ledger with seq > 0
                ]
            finally:
                await cluster.stop()

        asyncio.run(go())

    def test_a_refused_operation_records_nothing(self):
        async def go():
            history = LiveHistory()
            node = NetNode(1, 4, 1, REGISTERS, history=history, requery=3600.0)
            for op in (node.write("nope", 1), node.write("reg:2", 1), node.read("nope")):
                with pytest.raises(ConfigurationError):
                    await op
            assert history.history.operations() == [] and node._waiters == []

        asyncio.run(go())

    def test_a_lost_query_is_resent_after_one_requery_interval(self):
        async def go():
            requery = 0.05
            cluster = LiveCluster(
                LiveProfile(n=4, f=1, clients=1, rounds=1, ops_per_client=1, requery=requery)
            )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                loop = asyncio.get_running_loop()
                sent_at = []
                broadcast = node._broadcast

                def lossy_broadcast(payload):
                    if payload[0] == "READ":
                        sent_at.append(loop.time())
                        if len(sent_at) == 1:
                            return  # the first query never leaves
                    broadcast(payload)

                node._broadcast = lossy_broadcast
                started = loop.time()
                assert await node.read("reg:2", write_back=False) == 0
                assert len(sent_at) == 2
                assert sent_at[1] - started >= requery
            finally:
                await cluster.stop()

        asyncio.run(go())

    def test_the_requery_interval_doubles_up_to_sixteen_times(self):
        async def go():
            requery = 0.004
            node = NetNode(1, 4, 1, REGISTERS, requery=requery)
            loop = asyncio.get_running_loop()
            sent_at = []
            node._broadcast = lambda payload: sent_at.append(loop.time())
            read = asyncio.ensure_future(node.read("reg:2"))
            await eventually(lambda: len(sent_at) >= 8)
            read.cancel()
            with pytest.raises(asyncio.CancelledError):
                await read
            gaps = [later - earlier for earlier, later in zip(sent_at, sent_at[1:])]
            expected = [requery * min(2**step, 16) for step in range(len(gaps))]
            assert expected[4:7] == [requery * 16] * 3
            for gap, interval in zip(gaps, expected):
                # A timer is never early; late only by scheduling noise.
                assert interval * 0.99 <= gap < interval + 0.05, (gaps, expected)

        asyncio.run(go())
