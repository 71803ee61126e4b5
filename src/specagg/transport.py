"""Length-prefixed binary protocol between the two peers.

Frame = 5-byte header (type u8, body_len u32 LE) + body.  All multi-byte
integers are little-endian; probabilities travel as IEEE binary16.  A float
field that is not finite, or a negative decode time, is rejected: one such
value would stay in a running estimate for the rest of the run.

A live stream knows the run's vocabulary, so it rejects a header that
announces a body larger than the biggest legal frame (a draft keeping every
token) before reading it.  It also rejects an outcome whose target lies
outside the vocabulary, and a draft over another vocabulary or one whose
token is not among its kept ids, so a draft that reaches the aggregator can
be looked up by binary search.  Socket reads and writes on both roles time
out after FRAME_TIMEOUT_S, and both roles give up on reaching the peer after
CONNECT_TIMEOUT_S.
"""

from __future__ import annotations

import enum
import fcntl
import math
import selectors
import socket
import struct
import termios
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .common import Side
from .dists import CompressedDist

HEADER = struct.Struct("<BI")
_DRAFT_FIXED = struct.Struct("<IIdf")
_DIST_HEAD = struct.Struct("<II")
_TARGET = struct.Struct("<IIBBB")
_PROBE = struct.Struct("<BI")
_PAIR_DTYPE = np.dtype([("id", "<u4"), ("value", "<f2")])

FRAME_TIMEOUT_S = 30.0  # a peer that stalls this long inside a read or write is gone
CONNECT_TIMEOUT_S = 30.0  # how long `listen_once` and `connect` wait for the peer


class MsgType(enum.IntEnum):
    DRAFT = 1
    TARGET = 2
    PROBE = 4
    HELLO = 5
    BYE = 6


class ProbeKind(enum.IntEnum):
    # 0 was the echo request, retired: a node's Hello is its echo request
    ECHO_REPLY = 1
    ROLLBACK_ACK = 2


class TransportError(RuntimeError):
    pass


class TruncatedFrameError(TransportError):
    """Stream ended in the middle of a frame."""


class FrameLengthError(TransportError):
    """Body length does not match the encoded payload."""


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
    """The echo reply to a Hello, or a rollback ack; seq is an ack's step."""

    kind: ProbeKind
    seq: int


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
        return MsgType.PROBE, _PROBE.pack(int(msg.kind), msg.seq)
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
        if not (math.isfinite(h) and math.isfinite(decode_ms) and decode_ms >= 0.0):
            raise MalformedMessageError(f"draft h={h} decode_ms={decode_ms} out of range")
        dist, end = _decode_dist(body, _DRAFT_FIXED.size)
        if end != len(body):
            raise FrameLengthError(f"{len(body) - end} trailing bytes in draft")
        return DraftMsg(step=step, token=token, h=h, decode_ms=decode_ms, dist=dist)
    if msg_type == MsgType.TARGET:
        if len(body) != _TARGET.size:
            raise FrameLengthError(f"target body must be {_TARGET.size} bytes")
        step, target, a_l, a_r, switch = _TARGET.unpack(body)
        if a_l not in (0, 1) or a_r not in (0, 1):
            raise MalformedMessageError(f"accept bytes must be 0 or 1, got {a_l}, {a_r}")
        if switch not in _CODE_SIDE:
            raise MalformedMessageError(f"bad switch code {switch}")
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
        kind, seq = _PROBE.unpack(body)
        try:
            probe_kind = ProbeKind(kind)
        except ValueError:
            raise MalformedMessageError(f"unknown probe kind {kind}") from None
        return ProbeMsg(kind=probe_kind, seq=seq)
    raise UnknownMessageTypeError(f"unknown message type {msg_type}")


def max_body_len(vocab_size: int) -> int:
    """Largest legal decoded body for a vocabulary: a draft keeping every token."""
    return _DRAFT_FIXED.size + _DIST_HEAD.size + vocab_size * _PAIR_DTYPE.itemsize


def encode_frame(msg: Message) -> bytes:
    msg_type, body = _encode_body(msg)
    return HEADER.pack(int(msg_type), len(body)) + body


def decode_frame(data: bytes) -> tuple[Message, int]:
    """Parse one frame from the front of data; returns (message, bytes used)."""
    if len(data) < HEADER.size:
        raise TruncatedFrameError(f"{len(data)} bytes is shorter than a header")
    msg_type, body_len = HEADER.unpack_from(data, 0)
    end = HEADER.size + body_len
    if len(data) < end:
        raise TruncatedFrameError(f"body needs {body_len} bytes, have {len(data) - HEADER.size}")
    return _decode_body(msg_type, data[HEADER.size : end]), end


class MessageStream:
    """Framed, full-duplex message exchange over a connected socket.

    Not thread-safe: one thread sends and one thread receives.
    `bytes_received` counts every byte read, so `DelayedInbox` can read
    exactly the frames the socket held when it was found readable.  A frame
    sent with `flush=False` waits, in send order, for the next `flush`, so
    frames sent together leave in one write.
    """

    def __init__(self, sock: socket.socket, *, vocab_size: int) -> None:
        sock.settimeout(FRAME_TIMEOUT_S)
        self._sock = sock
        self._vocab_size = vocab_size
        self._max_body = max_body_len(vocab_size)
        self._unwritten: list[bytes] = []
        self.bytes_received = 0

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, msg: Message, *, flush: bool = True) -> int:
        """Frame one message; write it, and every frame before it, unless not
        `flush`.  Returns the frame's length."""
        frame = encode_frame(msg)
        self._unwritten.append(frame)
        if flush:
            self.flush()
        return len(frame)

    def flush(self) -> None:
        """Write every frame not yet written, in send order, with one sendall."""
        if not self._unwritten:
            return
        data = b"".join(self._unwritten)
        self._unwritten.clear()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(f"send failed: {exc}") from exc

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
        msg_type, body_len = HEADER.unpack(header)
        if body_len > self._max_body:
            raise FrameLengthError(f"body of {body_len} bytes exceeds the {self._max_body} limit")
        body = self._recv_exact(body_len, mid_frame=True) if body_len else b""
        self.bytes_received += HEADER.size + body_len
        msg = _decode_body(msg_type, body)
        if isinstance(msg, DraftMsg):
            self._check_draft(msg)
        elif isinstance(msg, TargetMsg) and msg.target >= self._vocab_size:
            raise MalformedMessageError(
                f"target {msg.target} outside stream vocabulary {self._vocab_size}"
            )
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

    Runs on the caller's thread.  `recv` waits on the socket; each frame read
    gets its due time stamped on arrival and joins a FIFO (every frame waits
    the same delay, so due times never decrease), and each time the socket
    is readable every frame it holds is read, so injected latency applies
    once, never per message.
    """

    def __init__(self, stream: MessageStream, delay_ms: float = 0.0) -> None:
        self._stream = stream
        self._delay_s = delay_ms / 1000.0
        self._due: deque[tuple[float, Message]] = deque()
        self._bye = False
        # select(2) takes its timeout in microseconds.  DefaultSelector is
        # epoll on Linux, which rounds every timeout up to the next whole
        # millisecond, and the event loop waits on this selector for decode
        # and link delays that are not whole milliseconds.
        self._selector = selectors.SelectSelector()
        self._selector.register(stream.fileno(), selectors.EVENT_READ)

    def _read_frame(self) -> None:
        msg = self._stream.recv()
        self._due.append((time.perf_counter() + self._delay_s, msg))
        if isinstance(msg, Bye):
            self._bye = True  # the peer may close next; read no further
            self._selector.unregister(self._stream.fileno())

    def recv(self, timeout: float | None = None) -> Message | None:
        """Next due message, or None if none falls due within `timeout` seconds.

        The socket is polled at least once, so a frame that has already
        arrived is read even when the timeout is zero or negative.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        polled = False
        while True:
            now = time.perf_counter()
            if self._due and self._due[0][0] <= now:
                return self._due.popleft()[1]
            if polled and deadline is not None and now >= deadline:
                return None
            due = self._due[0][0] if self._due else None
            if due is None and self._bye:
                raise ConnectionClosedError("stream ended after bye")
            wake_at = min((t for t in (due, deadline) if t is not None), default=None)
            wait = None if wake_at is None else max(0.0, wake_at - now)
            if self._selector.select(wait):
                # stamp every frame the socket holds on its arrival, and read
                # no further: a peer that never stops sending cannot hold us
                held = fcntl.ioctl(self._stream.fileno(), termios.FIONREAD, bytes(4))
                until = self._stream.bytes_received + struct.unpack("i", held)[0]
                self._read_frame()
                while not self._bye and self._stream.bytes_received < until:
                    self._read_frame()
            polled = True

    def close(self) -> None:
        self._selector.close()


def listen_once(host: str, port: int, *, vocab_size: int) -> MessageStream:
    """Accept exactly one peer."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    server.settimeout(CONNECT_TIMEOUT_S)
    try:
        conn, _ = server.accept()
    finally:
        server.close()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageStream(conn, vocab_size=vocab_size)


def connect(host: str, port: int, *, vocab_size: int) -> MessageStream:
    """Connect to a listening peer, retrying briefly while it comes up."""
    deadline = time.perf_counter() + CONNECT_TIMEOUT_S
    # getaddrinfo encodes a str host with the idna codec, whose first use
    # imports encodings.idna, stringprep and unicodedata inside the device's
    # TTFT; an ASCII name is its own encoding
    address = (host.encode("ascii") if host.isascii() else host, port)
    while True:
        try:
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return MessageStream(sock, vocab_size=vocab_size)
        except OSError:
            if time.perf_counter() >= deadline:
                raise
            time.sleep(0.05)
