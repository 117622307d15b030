"""Wire format of the live-network runtime.

Every connection — node↔node, client↔node, and both legs of a chaos
proxy — speaks the same framing: a 4-byte big-endian length prefix
followed by a UTF-8 JSON document. JSON keeps frames inspectable with
``tcpdump``/``nc`` and round-trips every payload the virtual-time
protocol uses; the one lossy step (tuples become arrays) is undone on
receipt by :func:`freeze`, mirroring the corpus loader's
``thaw_params`` so protocol payloads stay the hashable tuples the
emulation logic compares.

Document kinds:

* ``{"t": "hello", "pid": P}`` — first frame of every connection.
  ``pid >= 1`` identifies a cluster peer (the authenticated-channels
  assumption, discharged on localhost by trusting the handshake);
  ``pid == 0`` marks a remote load client.
* ``{"t": "msg", "m": [payload, ...]}`` — a batch of protocol payloads
  between peers (each possibly channel-framed), in send order: a node
  writes one per peer per event-loop tick. This is the only kind a
  chaos proxy faults, payload by payload; the handshake always passes
  through.
* ``{"t": "req", "id": I, "op": O, "args": [...]}`` /
  ``{"t": "res", "id": I, "ok": B, "value": V}`` — the remote-client
  request protocol (``read`` / ``write`` / ``transfer`` / ``balance``
  / ``info``).

Decoding has one path. :class:`Splitter` takes the bytes a socket read
returned — however many frames, cut wherever — and returns every
document they complete, each through the same validation step; the
node's connection protocol feeds it each chunk it receives, the chaos
proxy reads by the chunk through it (:func:`read_docs`), and
:func:`read_doc`, the one-frame call for a caller that owns no splitter,
checks its frame with the same two helpers. A ``msg`` document comes
out with its batch already frozen, so node and proxy validate payloads
identically. Whatever is not a length-prefixed JSON object with a
``"t"``, a ``msg`` whose ``"m"`` is not an array, or a payload holding a
JSON object anywhere (no protocol payload is a mapping) raises
:class:`repro.errors.NetworkError`, and nothing else.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError

#: Frames above this are a protocol error, not a slow read.
MAX_FRAME = 1 << 20

_LEN_BYTES = 4

#: Bytes asked of the socket per read; a chunk holds whatever the
#: sender's flushes put in it, usually many frames.
_CHUNK = 1 << 16

_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def freeze(value: Any) -> Any:
    """Recursively turn JSON arrays back into tuples (hashable payloads).

    Raises:
        NetworkError: a JSON object at any depth of an array — a mapping
            is no protocol payload and would not be hashable.
    """
    if isinstance(value, list):
        return tuple(
            [
                freeze(item) if isinstance(item, (list, dict)) else item
                for item in value
            ]
        )
    if isinstance(value, dict):
        raise NetworkError("a JSON object is not a protocol payload")
    return value


def encode(doc: Dict[str, Any]) -> bytes:
    """One wire frame for ``doc`` (length prefix + compact JSON)."""
    body = _dumps(doc).encode()
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame too large: {len(body)} bytes")
    return len(body).to_bytes(_LEN_BYTES, "big") + body


def _body_length(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise NetworkError(f"frame too large: {length} bytes")
    return length


def _document(body: bytes) -> Dict[str, Any]:
    """Decode and validate one frame body — the only decode path.

    A ``msg`` document's batch is returned frozen: ``doc["m"]`` is a
    tuple of hashable payloads.

    Raises:
        NetworkError: the body is not UTF-8, not JSON, not an object,
            has no ``"t"``, is a ``hello`` whose ``pid`` is not an
            integer, or is a ``msg`` whose ``"m"`` is not an array or
            holds a JSON object.
    """
    try:
        doc = json.loads(body.decode())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise NetworkError(f"undecodable frame: {exc}") from None
    if not isinstance(doc, dict) or "t" not in doc:
        raise NetworkError(f"malformed frame: {doc!r}")
    kind = doc["t"]
    if kind == "msg":
        batch = doc.get("m")
        if not isinstance(batch, list):
            raise NetworkError(f"msg frame without a payload array: {doc!r}")
        doc["m"] = freeze(batch)
    elif kind == "hello" and not isinstance(doc.get("pid", 0), int):
        raise NetworkError(f"hello frame with a non-integer pid: {doc!r}")
    return doc


class Splitter:
    """Incremental frame decoder: bytes in, complete documents out.

    :meth:`feed` takes whatever a socket read returned — any number of
    frames, cut anywhere, the length prefix included — and returns every
    document the bytes so far complete, validated; the incomplete tail
    is kept for the next call.
    """

    __slots__ = ("_tail",)

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Every document completed by ``data``, in order.

        Raises:
            NetworkError: a frame is oversized or fails validation; the
                stream cannot be resynchronised after that.
        """
        buf = self._tail + data if self._tail else data
        docs = []
        pos, end = 0, len(buf)
        while end - pos >= _LEN_BYTES:
            start = pos + _LEN_BYTES
            stop = start + _body_length(buf[pos:start])
            if stop > end:
                break
            docs.append(_document(buf[start:stop]))
            pos = stop
        self._tail = buf[pos:]
        return docs


def cap_reads(transport: asyncio.BaseTransport) -> None:
    """Make an inbound ``transport`` ask the socket for :data:`_CHUNK`
    bytes per read.

    asyncio's selector transports ``recv`` into a fresh 256 KiB buffer
    on every read and shrink it to what arrived. Whether glibc then hands
    that heap top back to the kernel and asks for it again on the next
    read depends on what else the process allocated first, so the live
    workloads' processor time moved by a quarter across changes that did
    not touch this path. Frames are tens of bytes; a chunk-sized read
    loses nothing. Transports without the attribute are left as they are.
    """
    if hasattr(transport, "max_size"):
        transport.max_size = _CHUNK


async def read_docs(
    reader: asyncio.StreamReader, splitter: Splitter
) -> Optional[List[Dict[str, Any]]]:
    """The documents the connection's next chunk completes (possibly
    none), or ``None`` on EOF."""
    data = await reader.read(_CHUNK)
    if not data:
        return None
    return splitter.feed(data)


async def read_hello(
    reader: asyncio.StreamReader, splitter: Splitter
) -> Optional[Tuple[Dict[str, Any], List[Dict[str, Any]]]]:
    """A new connection's handshake and the documents that arrived in
    its chunk, or ``None`` if it closed first or opened with anything
    but a ``hello``."""
    docs: Optional[List[Dict[str, Any]]] = []
    while not docs:
        docs = await read_docs(reader, splitter)
        if docs is None:
            return None
    if docs[0]["t"] != "hello":
        return None
    return docs[0], docs[1:]


async def read_doc(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """The next frame's document, or ``None`` on a clean EOF.

    Reads exactly one frame, so a caller holding no :class:`Splitter`
    can interleave it with its own reads; sessions that own the
    connection read by the chunk through :func:`read_docs` instead.
    """
    try:
        header = await reader.readexactly(_LEN_BYTES)
        body = await reader.readexactly(_body_length(header))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return _document(body)


def hello(pid: int) -> Dict[str, Any]:
    """The handshake document identifying a connection's sender."""
    return {"t": "hello", "pid": pid}


def msg(*payloads: Any) -> Dict[str, Any]:
    """A batch of peer protocol payloads (the kind chaos proxies fault)."""
    return {"t": "msg", "m": payloads}


def encode_batch(payloads: Sequence[Any]) -> bytes:
    """``payloads`` as one ``msg`` frame — or, when that would exceed
    :data:`MAX_FRAME`, as consecutive frames of halves, so a batch never
    refuses what one frame per payload would have carried."""
    try:
        return encode(msg(*payloads))
    except NetworkError:
        if len(payloads) < 2:
            raise
        half = len(payloads) // 2
        return encode_batch(payloads[:half]) + encode_batch(payloads[half:])
