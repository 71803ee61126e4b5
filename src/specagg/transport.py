"""Length-prefixed binary protocol between the two peers.

Frame = 6-byte header (type u8, codec u8, body_len u32 LE) + body.  All
multi-byte integers are little-endian; probabilities travel as IEEE binary16.
Codec 1 wraps the body in zlib; the header length is always the on-wire
(compressed) body size, so frames stay self-delimiting either way.

A live stream knows the run's vocabulary, so it rejects a header that
announces a body larger than the biggest legal frame (a draft keeping every
token) before reading it, and stops inflating a compressed body at the same
size.  It also rejects a draft over another vocabulary or one whose token is
not among its kept ids, so a draft that reaches the aggregator can be looked
up by binary search.  Socket reads and writes on both roles time out after
FRAME_TIMEOUT_S.
"""

from __future__ import annotations

import enum
import heapq
import selectors
import socket
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .common import Side
from .dists import CompressedDist

HEADER = struct.Struct("<BBI")
_DRAFT_FIXED = struct.Struct("<IIdf")
_DIST_HEAD = struct.Struct("<II")
_TARGET = struct.Struct("<IIBBB")
_PROBE = struct.Struct("<BId")
_PAIR_DTYPE = np.dtype([("id", "<u4"), ("value", "<f2")])

FRAME_TIMEOUT_S = 30.0  # a peer that stalls this long inside a read or write is gone


class MsgType(enum.IntEnum):
    DRAFT = 1
    TARGET = 2
    PROBE = 4
    HELLO = 5
    BYE = 6


class Codec(enum.IntEnum):
    NONE = 0
    BLOCK = 1


class ProbeKind(enum.IntEnum):
    ECHO_REQUEST = 0
    ECHO_REPLY = 1
    ROLLBACK_ACK = 2


class TransportError(RuntimeError):
    pass


class TruncatedFrameError(TransportError):
    """Stream ended in the middle of a frame."""


class FrameLengthError(TransportError):
    """Body length does not match the encoded payload."""


class UnknownCodecError(TransportError):
    pass


class UnknownMessageTypeError(TransportError):
    pass


class ConnectionClosedError(TransportError):
    """Peer closed the stream at a frame boundary."""


class MalformedMessageError(TransportError):
    """A well-framed body whose fields break the message's invariants."""


@dataclass(frozen=True)
class Hello:
    """Handshake marker; deliberately empty."""


@dataclass(frozen=True)
class Bye:
    """Graceful end of stream."""


@dataclass(frozen=True)
class DraftMsg:
    step: int
    token: int
    h: float
    decode_ms: float
    dist: CompressedDist


@dataclass(frozen=True)
class TargetMsg:
    """Aggregation outcome broadcast; l = device, r = cloud on the wire."""

    step: int
    target: int
    accept_l: bool
    accept_r: bool
    switch_to: Side | None = None


@dataclass(frozen=True)
class ProbeMsg:
    kind: ProbeKind
    seq: int
    t_send: float


Message = Hello | Bye | DraftMsg | TargetMsg | ProbeMsg

_SIDE_CODE = {None: 0, Side.DEVICE: 1, Side.CLOUD: 2}
_CODE_SIDE = {0: None, 1: Side.DEVICE, 2: Side.CLOUD}


def _encode_dist(dist: CompressedDist) -> bytes:
    pairs = np.empty(len(dist), dtype=_PAIR_DTYPE)
    pairs["id"] = dist.token_ids
    pairs["value"] = dist.values
    return _DIST_HEAD.pack(len(dist), dist.vocab_size) + pairs.tobytes()


def _decode_dist(body: bytes, offset: int) -> tuple[CompressedDist, int]:
    if len(body) - offset < _DIST_HEAD.size:
        raise FrameLengthError("distribution header truncated")
    count, vocab_size = _DIST_HEAD.unpack_from(body, offset)
    offset += _DIST_HEAD.size
    nbytes = count * _PAIR_DTYPE.itemsize
    if len(body) - offset < nbytes:
        raise FrameLengthError("distribution pairs truncated")
    pairs = np.frombuffer(body, dtype=_PAIR_DTYPE, count=count, offset=offset)
    try:
        dist = CompressedDist(
            vocab_size=vocab_size,
            token_ids=pairs["id"].copy(),
            values=pairs["value"].copy(),
        )
    except ValueError as exc:
        raise MalformedMessageError(f"bad draft distribution: {exc}") from exc
    return dist, offset + nbytes


def _encode_body(msg: Message) -> tuple[MsgType, bytes]:
    if isinstance(msg, Hello):
        return MsgType.HELLO, b""
    if isinstance(msg, Bye):
        return MsgType.BYE, b""
    if isinstance(msg, DraftMsg):
        fixed = _DRAFT_FIXED.pack(msg.step, msg.token, msg.h, msg.decode_ms)
        return MsgType.DRAFT, fixed + _encode_dist(msg.dist)
    if isinstance(msg, TargetMsg):
        return MsgType.TARGET, _TARGET.pack(
            msg.step,
            msg.target,
            int(msg.accept_l),
            int(msg.accept_r),
            _SIDE_CODE[msg.switch_to],
        )
    if isinstance(msg, ProbeMsg):
        return MsgType.PROBE, _PROBE.pack(int(msg.kind), msg.seq, msg.t_send)
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _decode_body(msg_type: int, body: bytes) -> Message:
    if msg_type == MsgType.HELLO or msg_type == MsgType.BYE:
        if body:
            raise FrameLengthError(f"type {msg_type} carries no body")
        return Hello() if msg_type == MsgType.HELLO else Bye()
    if msg_type == MsgType.DRAFT:
        if len(body) < _DRAFT_FIXED.size:
            raise FrameLengthError("draft body truncated")
        step, token, h, decode_ms = _DRAFT_FIXED.unpack_from(body, 0)
        dist, end = _decode_dist(body, _DRAFT_FIXED.size)
        if end != len(body):
            raise FrameLengthError(f"{len(body) - end} trailing bytes in draft")
        return DraftMsg(step=step, token=token, h=h, decode_ms=decode_ms, dist=dist)
    if msg_type == MsgType.TARGET:
        if len(body) != _TARGET.size:
            raise FrameLengthError(f"target body must be {_TARGET.size} bytes")
        step, target, a_l, a_r, switch = _TARGET.unpack(body)
        if switch not in _CODE_SIDE:
            raise FrameLengthError(f"bad switch code {switch}")
        return TargetMsg(
            step=step,
            target=target,
            accept_l=bool(a_l),
            accept_r=bool(a_r),
            switch_to=_CODE_SIDE[switch],
        )
    if msg_type == MsgType.PROBE:
        if len(body) != _PROBE.size:
            raise FrameLengthError(f"probe body must be {_PROBE.size} bytes")
        kind, seq, t_send = _PROBE.unpack(body)
        try:
            probe_kind = ProbeKind(kind)
        except ValueError:
            raise MalformedMessageError(f"unknown probe kind {kind}") from None
        return ProbeMsg(kind=probe_kind, seq=seq, t_send=t_send)
    raise UnknownMessageTypeError(f"unknown message type {msg_type}")


def max_body_len(vocab_size: int) -> int:
    """Largest legal decoded body for a vocabulary: a draft keeping every token."""
    return _DRAFT_FIXED.size + _DIST_HEAD.size + vocab_size * _PAIR_DTYPE.itemsize


def _deflate_bound(n: int) -> int:
    """Worst-case zlib output for n input bytes (zlib's compressBound)."""
    return n + (n >> 12) + (n >> 14) + (n >> 25) + 13


def _open_body(msg_type: int, codec: int, body: bytes, limit: int | None) -> Message:
    """Undo the codec, inflating at most `limit` bytes, then decode the body."""
    if codec == Codec.BLOCK:
        inflater = zlib.decompressobj()
        try:
            body = inflater.decompress(body, 0 if limit is None else limit + 1)
        except zlib.error as exc:
            raise FrameLengthError(f"bad compressed body: {exc}") from exc
        if limit is not None and len(body) > limit:
            raise FrameLengthError(f"compressed body inflates past {limit} bytes")
        if not inflater.eof:
            raise FrameLengthError("bad compressed body: truncated stream")
    elif codec != Codec.NONE:
        raise UnknownCodecError(f"unknown codec {codec}")
    return _decode_body(msg_type, body)


def encode_frame(msg: Message, codec: Codec = Codec.NONE) -> bytes:
    msg_type, body = _encode_body(msg)
    if codec == Codec.BLOCK:
        body = zlib.compress(body)
    elif codec != Codec.NONE:
        raise UnknownCodecError(f"unknown codec {codec}")
    return HEADER.pack(int(msg_type), int(codec), len(body)) + body


def decode_frame(data: bytes) -> tuple[Message, int]:
    """Parse one frame from the front of data; returns (message, bytes used)."""
    if len(data) < HEADER.size:
        raise TruncatedFrameError(f"{len(data)} bytes is shorter than a header")
    msg_type, codec, body_len = HEADER.unpack_from(data, 0)
    end = HEADER.size + body_len
    if len(data) < end:
        raise TruncatedFrameError(f"body needs {body_len} bytes, have {len(data) - HEADER.size}")
    return _open_body(msg_type, codec, data[HEADER.size : end], None), end


def decode_stream(data: bytes) -> list[Message]:
    """Split a byte string of concatenated frames back into messages."""
    out: list[Message] = []
    offset = 0
    while offset < len(data):
        msg, used = decode_frame(data[offset:])
        out.append(msg)
        offset += used
    return out


class MessageStream:
    """Framed, full-duplex message exchange over a connected socket.

    Not thread-safe: one thread sends and one thread receives.  Byte
    counters feed the bandwidth estimate.
    """

    def __init__(self, sock: socket.socket, codec: Codec = Codec.NONE, *, vocab_size: int) -> None:
        sock.settimeout(FRAME_TIMEOUT_S)
        self._sock = sock
        self._codec = codec
        self._vocab_size = vocab_size
        self._max_body = max_body_len(vocab_size)
        self._max_wire = _deflate_bound(self._max_body)
        self.bytes_sent = 0
        self.bytes_received = 0

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, msg: Message) -> int:
        frame = encode_frame(msg, self._codec)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ConnectionClosedError(f"send failed: {exc}") from exc
        self.bytes_sent += len(frame)
        return len(frame)

    def _recv_exact(self, n: int, *, mid_frame: bool) -> bytes:
        chunks: list[bytes] = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(n - got)
            except TimeoutError as exc:
                if got or mid_frame:
                    raise TruncatedFrameError(f"peer stalled {n - got} bytes short") from exc
                raise ConnectionClosedError(f"peer silent for {FRAME_TIMEOUT_S} s") from exc
            except OSError as exc:
                raise ConnectionClosedError(f"socket error: {exc}") from exc
            if not chunk:
                if got == 0 and not mid_frame:
                    raise ConnectionClosedError("peer closed the connection")
                raise TruncatedFrameError(f"stream ended {n - got} bytes short")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv(self) -> Message:
        header = self._recv_exact(HEADER.size, mid_frame=False)
        msg_type, codec, body_len = HEADER.unpack(header)
        if body_len > self._max_wire:
            raise FrameLengthError(f"body of {body_len} bytes exceeds the {self._max_wire} limit")
        body = self._recv_exact(body_len, mid_frame=True) if body_len else b""
        self.bytes_received += HEADER.size + body_len
        msg = _open_body(msg_type, codec, body, self._max_body)
        if isinstance(msg, DraftMsg):
            self._check_draft(msg)
        return msg

    def _check_draft(self, msg: DraftMsg) -> None:
        """A draft must be over this run's vocabulary and keep its own token."""
        ids = msg.dist.token_ids
        if msg.dist.vocab_size != self._vocab_size:
            raise MalformedMessageError(
                f"draft vocabulary {msg.dist.vocab_size} != stream vocabulary {self._vocab_size}"
            )
        pos = int(ids.searchsorted(msg.token))
        if pos == ids.size or ids[pos] != msg.token:
            raise MalformedMessageError(f"draft token {msg.token} is not among its kept ids")

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class DelayedInbox:
    """Delivers received messages only after a fixed one-way delay.

    Runs on the caller's thread.  `recv` waits on the socket and on a
    wake-up socket pair at once; each frame read gets its due time stamped
    on arrival and goes on a heap, and the socket is drained whenever it is
    readable, so injected latency applies once, never per message.  `wake`,
    safe from any thread, makes a waiting `recv` return None.
    """

    def __init__(self, stream: MessageStream, delay_ms: float = 0.0) -> None:
        self._stream = stream
        self._delay_s = delay_ms / 1000.0
        self._heap: list[tuple[float, int, Message]] = []
        self._seq = 0
        self._bye = False
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._selector.register(stream.fileno(), selectors.EVENT_READ)

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # a wake-up is already pending

    def _read_frame(self) -> None:
        msg = self._stream.recv()
        heapq.heappush(self._heap, (time.perf_counter() + self._delay_s, self._seq, msg))
        self._seq += 1
        if isinstance(msg, Bye):
            self._bye = True  # the peer may close next; read no further
            self._selector.unregister(self._stream.fileno())

    def recv(self, timeout: float | None = None) -> Message | None:
        """Next due message; None if woken first; TimeoutError after timeout."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            now = time.perf_counter()
            if self._heap and self._heap[0][0] <= now:
                return heapq.heappop(self._heap)[2]
            if self._heap:
                wait = self._heap[0][0] - now
            elif self._bye:
                raise ConnectionClosedError("stream ended after bye")
            else:
                wait = None
            if deadline is not None:
                remaining = deadline - now
                if remaining <= 0:
                    raise TimeoutError("no message within timeout")
                wait = remaining if wait is None else min(wait, remaining)
            woken = False
            for key, _ in self._selector.select(wait):
                if key.fileobj is self._wake_r:
                    while True:
                        try:
                            self._wake_r.recv(4096)
                        except BlockingIOError:
                            break
                    woken = True
                else:
                    self._read_frame()
            if woken:
                return None

    def close(self) -> None:
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()


def listen_once(
    host: str, port: int, timeout: float = 30.0, codec: Codec = Codec.NONE, *, vocab_size: int
) -> tuple[MessageStream, int]:
    """Accept exactly one peer; returns the stream and the bound port."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    bound_port = server.getsockname()[1]
    server.listen(1)
    server.settimeout(timeout)
    try:
        conn, _ = server.accept()
    finally:
        server.close()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageStream(conn, codec, vocab_size=vocab_size), bound_port


def connect(
    host: str, port: int, timeout: float = 30.0, codec: Codec = Codec.NONE, *, vocab_size: int
) -> MessageStream:
    """Connect to a listening peer, retrying briefly while it comes up."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return MessageStream(sock, codec, vocab_size=vocab_size)
        except OSError:
            if time.perf_counter() >= deadline:
                raise
            time.sleep(0.05)
