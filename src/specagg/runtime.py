"""Live dual-node engine: producer decoders, draft queues, one movable
aggregator, and the rollback machinery around rejections.

Output invariance is the core contract: the emitted token sequence depends
only on (corpus, prompt, seed, vocab, k, top-p), never on timing, queue
depth, or which node aggregates.  Three mechanisms carry that:

  * all sampling draws are step-indexed from the shared seed (rng module);
  * both sides aggregate over the wire-canonical form of every distribution:
    a node queues its own draft from the DraftMsg it sends, through the same
    `_queue_draft` as the peer's, so local full-precision copies never leak in;
  * stale speculative drafts of the peer are fenced off: the aggregator's
    mirror of the remote side by a rollback-ack barrier, and the
    non-aggregator's mirror by the FIFO ordering of drafts behind the outcome
    message that invalidated them.  A node's own queue needs no fence: the
    rollback runs on the thread that queues its own drafts.

One thread per node: the thread that calls `run_node` runs the event loop,
which owns all protocol state and the DecoderState, handles every received
message, aggregates inline while this node holds the role and decodes its
own drafts.  It queues every frame itself, in the order the state changed;
that order is what the FIFO fence above relies on.  The queued frames leave
in one write, before the loop waits and before it computes an own draft, so
a draft and the outcome it completes travel together, draft first.  An own
decode is a timer: it starts as soon as the gates allow (as the previous
draft is queued, and after an own rejection at the rollback itself), and
once its injected delay has passed the loop drafts the token in one call.
The loop's only blocking wait is `DelayedInbox.recv`, bounded by that
decode's due time; on Linux the loop's thread runs with 1 ns of timer
slack, so that wait ends on time.  The inbox comes first: every message already due is
handled before the loop finishes or starts another own decode, so no
outcome waits behind speculative drafts.

Side choice: right after it logs an outcome, the aggregator asks
`scheduler.choose_side` about the next step, with that outcome's accept
flags, each side's running decode level from the profiler (both drafts of
the step were observed when queued) and half the RTT estimate as each
side's one-way cost.  The rule charges a hand-off the outcome's one-way
trip; a hand-off travels with the outcome, so a peer whose draft was just
rejected takes the role and redrafts without a second link crossing.  A
node times the RTT from its own write times: its Hello is answered by an
echo reply, and each outcome it aggregates that rejects the peer by a
rollback ack.  Both directions are FIFO, so every reply must match the
head of one queue of awaited replies.  The Hello's reply waits behind both
nodes' cold first decode, so the first ack replaces it; later ones blend in.

Failures are surfaced, never papered over: any step desync, a frame before
the peer's Hello or a second one, a reply that is not the head of the
awaited ones, and a peer draft past `max_new_tokens` raise with a state
dump.
"""

from __future__ import annotations

import ctypes
import math
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from .aggregator import aggregate
from .common import SIDES, ProtocolError, Side
from .decoder import DecoderState, DraftRecord, decode_step, rerank, rollback
from .dists import Vocab, topp_decode, topp_encode
from .profiler import SideProfiler
from .retrieval import Corpus, Half, retrieve
from .rng import aggregation_draws, decode_uniform
from . import scheduler
from .transport import (
    Bye,
    DelayedInbox,
    DraftMsg,
    Hello,
    MessageStream,
    ProbeKind,
    ProbeMsg,
    TargetMsg,
    connect,
    listen_once,
)

METRICS_CSV_HEADER = ("step", "token", "accept_l", "accept_r", "latency_ms")
PEER_TIMEOUT_S = 120.0  # bound on the handshake, on generation and on the peer's shutdown
PR_SET_TIMERSLACK = 29  # <linux/prctl.h>


@dataclass(frozen=True)
class TargetEntry:
    """One emitted token; accept_l is the device stream, accept_r the cloud."""

    step: int
    token: int
    accept_l: bool
    accept_r: bool
    latency_ms: float = 0.0

    def key(self) -> tuple[int, int, bool, bool]:
        return (self.step, self.token, self.accept_l, self.accept_r)


@dataclass
class NodeConfig:
    role: Side
    corpus: Corpus
    prompt: list[int]
    vocab_size: int = 256
    docs_k: int = 4
    half: str = "auto"  # auto: complementary halves of the top-2k; all: both the top-k
    max_new_tokens: int = 32
    max_context: int = 256
    seed: int = 0
    top_p: float = 0.8
    queue_capacity: int = 8
    vanilla: bool = False
    static_side: Side | None = None  # None = adaptive scheduling
    decode_delay_ms: float = 0.0
    link_delay_ms: float = 0.0
    listen: tuple[str, int] | None = None
    peer: tuple[str, int] | None = None

    def resolve_half(self, side: Side | None = None) -> Half:
        side = side or self.role
        if self.half == "auto":
            return Half.FIRST if side is Side.DEVICE else Half.SECOND
        return Half.ALL

    def validate(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.half not in ("auto", "all"):
            raise ValueError(f"half must be 'auto' or 'all', got {self.half!r}")
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        delays = (self.decode_delay_ms, self.link_delay_ms)
        if not all(math.isfinite(d) and d >= 0.0 for d in delays):
            raise ValueError("decode and link delays must be finite and >= 0")
        if len(self.prompt) + self.max_new_tokens > self.max_context:
            raise ValueError(
                f"prompt ({len(self.prompt)}) + max_new_tokens ({self.max_new_tokens}) "
                f"exceeds max_context ({self.max_context})"
            )
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.corpus.max_token() >= self.vocab_size or any(
            not 0 <= t < self.vocab_size for t in self.prompt
        ):
            raise ValueError("corpus or prompt token outside vocabulary")


@dataclass
class NodeResult:
    role: Side
    target_log: list[TargetEntry]
    ttft_ms: float
    switches: int
    profile_rows: list[tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def tokens(self) -> list[int]:
        return [e.token for e in self.target_log]

    def mean_latency_ms(self) -> float:
        """Mean inter-token latency; the first token's time is the TTFT."""
        gaps = [e.latency_ms for e in self.target_log[1:]]
        return sum(gaps) / len(gaps) if gaps else 0.0


def build_decoder(config: NodeConfig, side: Side | None = None) -> DecoderState:
    side = side or config.role
    half = config.resolve_half(side)
    retrieved = retrieve(config.corpus, config.prompt, config.docs_k, half)
    if not retrieved:
        raise ValueError(f"retrieval returned no documents for side {side}")
    return DecoderState.start(
        Vocab(config.vocab_size),
        retrieved,
        config.prompt,
        config.seed,
        config.max_context,
        config.corpus.chunk_size,
    )


def _draft_msg(rec: DraftRecord, top_p: float, decode_ms: float) -> DraftMsg:
    """The wire form of a draft: top-p sparsified, the drafted token kept."""
    dist = topp_encode(rec.dist, top_p, force_token=rec.token)
    return DraftMsg(step=rec.step, token=rec.token, h=rec.h, decode_ms=decode_ms, dist=dist)


def _draft_record(msg: DraftMsg) -> DraftRecord:
    """What both nodes aggregate over: a draft as its wire message carries it."""
    return DraftRecord(step=msg.step, token=msg.token, dist=topp_decode(msg.dist), h=msg.h)


class _NodeEngine:
    """The event loop of one node; it runs on the thread that calls `run`.

    The protocol state below, the DecoderState included, belongs to the loop
    alone, so none of it is locked.  At most one own decode is under way: it
    is due `decode_delay_ms` after it starts, and `_finish_decode` drafts the
    token once that time has passed.  `_send` queues a message and `_flush`
    frames and writes every queued one, so no frame is encoded on the way
    to an outcome.  Writes block: two loops cannot stall on each
    other's writes while the frames in flight per direction (at most
    `queue_capacity` drafts plus a few control frames per draft) fit in the
    socket buffers, and a write that stalls FRAME_TIMEOUT_S fails the run.
    """

    def __init__(self, config: NodeConfig, state: DecoderState, stream: MessageStream) -> None:
        self.config = config
        self.role = config.role
        self.state = state
        self.stream = stream
        self.inbox = DelayedInbox(stream, config.link_delay_ms)

        self.queues: dict[Side, deque[DraftRecord]] = {s: deque() for s in Side}
        self.next_expected: dict[Side, int] = {s: 0 for s in Side}
        # the replies the peer owes, oldest first, each as [reply, perf_counter
        # time its request was written]; a request not yet written holds the
        # time it was queued, and `_flush` restamps it
        self.awaited: deque[list] = deque()
        self._unwritten_requests: list[list] = []
        self._outbox: list = []  # messages queued for the next `_flush`, in order
        self.log_entries: list[TargetEntry] = []
        self.current_agg: Side = config.static_side or Side.DEVICE
        # perf_counter time the own decode under way falls due; None: none is
        self.decode_due: float | None = None
        self.peer_hello = False
        self.switches = 0

        self.profiler = SideProfiler()
        self.rtt_ema: float | None = None  # ms; the Hello's reply's, then the acks'
        self._rtt_acked = False  # an ack has timed the link
        self._last_outcome_at: float | None = None
        self.ttft_ms: float = 0.0
        self._started_at = 0.0
        self.profile_rows: list[tuple[float, float, float, float]] = []

    # ---------------------------------------------------------------- utils

    def _dump(self) -> str:
        heads = {
            s.value: (self.queues[s][0].step if self.queues[s] else None, len(self.queues[s]))
            for s in Side
        }
        awaited = [f"{m.kind.name}:{m.seq}" for m, _ in self.awaited]
        return (
            f"role={self.role} agg={self.current_agg} log={len(self.log_entries)} "
            f"queues(head,len)={heads} next_expected={self.next_expected} "
            f"awaited={awaited} rtt={self.rtt_ema} "
            f"decoding={self.decode_due is not None}"
        )

    def _protocol_error(self, why: str) -> ProtocolError:
        return ProtocolError(f"{why} [{self._dump()}]")

    # ------------------------------------------------------------- outcomes

    def _apply_outcome(self, step: int, target: int, accept_l: bool, accept_r: bool) -> None:
        """Log append, queue maintenance and rollback."""
        remote = self.current_agg is not self.role  # the peer aggregated this step
        if step != len(self.log_entries):
            raise self._protocol_error(f"outcome for step {step}, expected {len(self.log_entries)}")
        now = time.perf_counter()
        if not self.log_entries:
            self.ttft_ms = (now - self._started_at) * 1000.0
        latency = 0.0 if self._last_outcome_at is None else (now - self._last_outcome_at) * 1000.0
        self._last_outcome_at = now
        self.log_entries.append(TargetEntry(step, target, accept_l, accept_r, latency))

        accepted = {Side.DEVICE: accept_l, Side.CLOUD: accept_r}
        for side in Side:
            drafts = self.queues[side]
            if accepted[side]:
                if not drafts or drafts[0].step != step:
                    raise self._protocol_error(f"accepted {side} draft missing at step {step}")
                drafts.popleft()
            else:
                drafts.clear()
                self.next_expected[side] = step + 1
                if side is self.role:
                    self.decode_due = None  # its draft would follow the rejected one
                    prefix = self.config.prompt + [e.token for e in self.log_entries[:-1]]
                    rollback(self.state, prefix, target)
                    self._start_decode()  # the redraft is due a decode from now
                    if remote:
                        self._send(ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=step))

    def _switch(self, side: Side | None) -> None:
        if side is not None and side is not self.current_agg:
            self.current_agg = side
            self.switches += 1

    # ----------------------------------------------------------- own drafts

    def _start_decode(self) -> None:
        """Start the next own decode if none is under way and the gates allow it."""
        cfg = self.config
        step = self.next_expected[self.role]
        if (
            self.decode_due is not None
            or step >= cfg.max_new_tokens
            or (cfg.vanilla and step != len(self.log_entries))
            or len(self.queues[self.role]) >= cfg.queue_capacity
        ):
            return
        self.decode_due = time.perf_counter() + cfg.decode_delay_ms / 1000.0

    def _finish_decode(self) -> bool:
        """Draft the own decode under way once it is due, queue it and its
        frame; True if it drafted.  The frames queued before it are written
        first, so none waits behind the draft's computation."""
        if self.decode_due is None or time.perf_counter() < self.decode_due:
            return False
        self.decode_due = None
        self._flush()
        cfg = self.config
        computed = time.perf_counter()  # not the message handling since it fell due
        rerank(self.state)
        rec = decode_step(self.state, decode_uniform(cfg.seed, self.state.gen_step))
        decode_ms = cfg.decode_delay_ms + (time.perf_counter() - computed) * 1000.0
        msg = _draft_msg(rec, cfg.top_p, decode_ms)
        # a profile row pairs the decode with the estimate held before it
        pred = self.profiler.decode_estimate(self.role)
        self._queue_draft(self.role, msg)
        pred = decode_ms if pred is None else pred
        t_abs = len(cfg.prompt) + rec.step
        self.profile_rows.append((t_abs, decode_ms, pred, self.rtt_ema or 0.0))
        self._send(msg)
        # the next decode's timer starts with this draft, not after the
        # aggregation it may complete; a rollback there restarts it
        self._start_decode()
        return True

    def _queue_draft(self, side: Side, msg: DraftMsg) -> None:
        """Queue a draft, own or the peer's, from its wire message."""
        expected = self.next_expected[side]
        if msg.step != expected or msg.step >= self.config.max_new_tokens:
            raise self._protocol_error(f"{side} draft step {msg.step}, expected {expected}")
        if msg.decode_ms > PEER_TIMEOUT_S * 1000.0:
            raise self._protocol_error(f"{side} draft decode_ms {msg.decode_ms} past the timeout")
        self.queues[side].append(_draft_record(msg))
        self.next_expected[side] = msg.step + 1
        self.profiler.observe_decode(side, msg.decode_ms)

    # ------------------------------------------------------------- messages

    def _handle(self, msg) -> None:
        peer = self.role.other
        if isinstance(msg, Hello) is self.peer_hello:
            what = "second Hello" if self.peer_hello else f"{type(msg).__name__} before Hello"
            raise self._protocol_error(f"peer sent {what}")
        if isinstance(msg, DraftMsg):
            # until the peer acks its rollback, its drafts are stale speculation
            if not any(m.kind is ProbeKind.ROLLBACK_ACK for m, _ in self.awaited):
                self._queue_draft(peer, msg)
        elif isinstance(msg, TargetMsg):
            if self.current_agg is self.role:
                raise self._protocol_error("received outcome while aggregating")
            self._apply_outcome(msg.step, msg.target, msg.accept_l, msg.accept_r)
            self._switch(msg.switch_to)
        elif isinstance(msg, ProbeMsg):
            self._on_probe(msg)
        elif isinstance(msg, Hello):
            self.peer_hello = True
            self._send(ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))
        else:
            raise self._protocol_error("peer said bye before the log was final")

    def _send(self, msg) -> None:
        """Queue a message for the next `_flush`."""
        self._outbox.append(msg)

    def _request(self, msg, reply: ProbeMsg) -> None:
        """Queue a request the peer answers with `reply`, timed from its write."""
        entry = [reply, time.perf_counter()]
        self.awaited.append(entry)
        self._unwritten_requests.append(entry)
        self._send(msg)

    def _flush(self) -> None:
        """Frame every queued message and write the frames at once; the
        requests among them are timed from this write."""
        for msg in self._outbox:
            self.stream.send(msg, flush=False)
        self._outbox.clear()
        if self._unwritten_requests:
            now = time.perf_counter()
            for entry in self._unwritten_requests:
                entry[1] = now
            self._unwritten_requests.clear()
        self.stream.flush()

    def _on_probe(self, msg: ProbeMsg) -> None:
        """Match a reply against the oldest awaited one and time it from its
        request's send."""
        if not self.awaited or self.awaited[0][0] != msg:
            raise self._protocol_error(f"unexpected {msg.kind.name}:{msg.seq}")
        rtt_ms = (time.perf_counter() - self.awaited.popleft()[1]) * 1000.0
        if msg.kind is ProbeKind.ECHO_REPLY:
            self.rtt_ema = rtt_ms
        else:
            # the Hello's reply waited behind both cold first decodes, so the
            # first ack replaces its sample; later acks blend in
            self.rtt_ema = 0.8 * self.rtt_ema + 0.2 * rtt_ms if self._rtt_acked else rtt_ms
            self._rtt_acked = True

    # ----------------------------------------------------------- aggregation

    def _heads_ready(self) -> bool:
        step = len(self.log_entries)
        return all(
            self.queues[s] and self.queues[s][0].step == step for s in Side
        )

    def _aggregate_ready(self) -> None:
        cfg = self.config
        while (
            self.current_agg is self.role
            and len(self.log_entries) < cfg.max_new_tokens
            and self._heads_ready()
        ):
            step = len(self.log_entries)
            draft_dev = self.queues[Side.DEVICE][0]
            draft_cloud = self.queues[Side.CLOUD][0]
            outcome = aggregate(draft_dev, draft_cloud, aggregation_draws(cfg.seed, step))
            self._apply_outcome(step, outcome.target, outcome.accept_l, outcome.accept_r)
            switch_to = self._schedule()
            self._switch(switch_to)
            msg = TargetMsg(
                step=step,
                target=outcome.target,
                accept_l=outcome.accept_l,
                accept_r=outcome.accept_r,
                switch_to=switch_to,
            )
            if not (msg.accept_r if self.role is Side.DEVICE else msg.accept_l):
                # it rejects the peer's draft: the peer acks as it applies it
                self._request(msg, ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=step))
            else:
                self._send(msg)

    def _schedule(self) -> Side | None:
        """Pick the aggregation side for the next step; None means stay put."""
        cfg = self.config
        if cfg.vanilla or cfg.static_side is not None:
            return None
        if self.rtt_ema is None:
            return None  # no link estimate yet
        c_dec = tuple(self.profiler.decode_estimate(s) for s in SIDES)
        one_way = self.rtt_ema / 2.0
        last = self.log_entries[-1]  # the outcome just applied
        accept = (last.accept_l, last.accept_r)
        agg = SIDES.index(self.role)
        chosen = scheduler.choose_side(agg, c_dec, (one_way, one_way), accept)
        return SIDES[chosen] if chosen != agg else None

    # ------------------------------------------------------------------ run

    def run(self, started_at: float) -> NodeResult:
        self._started_at = started_at
        cfg = self.config
        try:
            # the peer echoes the Hello: an RTT estimate before the first ack
            self._request(Hello(), ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))
            self._loop()
            if cfg.max_new_tokens == 0:
                self.ttft_ms = (time.perf_counter() - started_at) * 1000.0
            self._send(Bye())
            self._flush()
            # the log is final and Bye is our last frame: skip whatever precedes the peer's Bye
            deadline = time.perf_counter() + PEER_TIMEOUT_S
            while not isinstance(self._recv(deadline, "peer shutdown"), Bye):
                pass
        finally:
            # on failure, closing the socket fails the peer fast as well
            self.inbox.close()
            self.stream.close()
        return NodeResult(
            role=self.role,
            target_log=list(self.log_entries),
            ttft_ms=self.ttft_ms,
            switches=self.switches,
            profile_rows=list(self.profile_rows),
        )

    def _loop(self) -> None:
        """From Hello to the last token: aggregate, finish a due own decode,
        aggregate if it drafted, start the next, write the queued frames, then
        wait for a message and handle every message already due, until done()
        (the peer's Bye may follow the last outcome).  Aggregating first
        spares a decode an own rejection voids."""
        deadline = time.perf_counter() + PEER_TIMEOUT_S

        def done() -> bool:
            return self.peer_hello and len(self.log_entries) >= self.config.max_new_tokens

        while True:
            self._aggregate_ready()
            if self._finish_decode():
                self._aggregate_ready()
            self._start_decode()
            if done():
                return
            self._flush()
            msg = self._recv(deadline, "generation")
            while msg is not None:
                self._handle(msg)
                if done():
                    break
                msg = self._recv(deadline, "generation", wait=False)

    def _recv(self, deadline: float, label: str, wait: bool = True):
        """Next due message; None once the own decode falls due, or at once if not `wait`."""
        now = time.perf_counter()
        if now >= deadline:
            label = label if self.peer_hello else "handshake"
            raise RuntimeError(f"timed out waiting for {label} [{self._dump()}]")
        wake_at = deadline if self.decode_due is None else min(deadline, self.decode_due)
        return self.inbox.recv(timeout=wake_at - now if wait else 0.0)


def _wake_timed_waits_on_time() -> None:
    """Set the calling thread's timer slack to 1 ns on Linux.

    The kernel may end a timed select(2) up to the thread's timer slack
    late, 50 µs by default, and the event loop's timed waits are the decode
    and link delays on each token's path.  Elsewhere this does nothing.
    """
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)


def run_node(config: NodeConfig) -> NodeResult:
    """Run one side to completion on the calling thread, which runs the event
    loop; blocks until both logs are final."""
    _wake_timed_waits_on_time()  # before the clock starts: not part of the TTFT
    started_at = time.perf_counter()
    config.validate()
    state = build_decoder(config)
    if config.listen is not None:
        stream = listen_once(*config.listen, vocab_size=config.vocab_size)
    elif config.peer is not None:
        stream = connect(*config.peer, vocab_size=config.vocab_size)
    else:
        raise ValueError("config needs either listen or peer")
    engine = _NodeEngine(config, state, stream)
    return engine.run(started_at)


def free_port() -> int:
    import socket

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def run_loopback_pair(base: NodeConfig) -> tuple[NodeResult, NodeResult]:
    """Run both roles of one configuration in-process over loopback sockets.

    Returns (device result, cloud result); any node failure propagates.
    """
    endpoint = ("127.0.0.1", free_port())
    configs = {
        Side.DEVICE: replace(base, role=Side.DEVICE, peer=endpoint, listen=None),
        Side.CLOUD: replace(base, role=Side.CLOUD, listen=endpoint, peer=None),
    }
    results: dict[Side, NodeResult] = {}
    errors: dict[Side, BaseException] = {}

    def runner(side: Side) -> None:
        try:
            results[side] = run_node(configs[side])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[side] = exc

    threads = [
        threading.Thread(target=runner, args=(side,), name=f"node-{side}", daemon=True)
        for side in (Side.CLOUD, Side.DEVICE)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    if errors:
        side, exc = next(iter(errors.items()))
        raise RuntimeError(f"{side} node failed: {exc}") from exc
    if len(results) != 2:
        raise RuntimeError("a node did not finish in time")
    return results[Side.DEVICE], results[Side.CLOUD]


def sequential_reference(config: NodeConfig) -> list[TargetEntry]:
    """Single-process oracle: both streams decoded and aggregated in lockstep.

    Produces the exact token sequence a distributed run with the same
    configuration must emit, using the same step-indexed draws and the same
    wire canonicalization of every distribution.
    """
    config.validate()
    states = {
        Side.DEVICE: build_decoder(config, Side.DEVICE),
        Side.CLOUD: build_decoder(config, Side.CLOUD),
    }
    entries: list[TargetEntry] = []
    for step in range(config.max_new_tokens):
        records: dict[Side, DraftRecord] = {}
        for side, state in states.items():
            rerank(state)
            rec = decode_step(state, decode_uniform(config.seed, step))
            records[side] = _draft_record(_draft_msg(rec, config.top_p, 0.0))
        outcome = aggregate(
            records[Side.DEVICE], records[Side.CLOUD], aggregation_draws(config.seed, step)
        )
        entries.append(
            TargetEntry(step, outcome.target, outcome.accept_l, outcome.accept_r)
        )
        prefix = config.prompt + [e.token for e in entries[:-1]]
        flags = {Side.DEVICE: outcome.accept_l, Side.CLOUD: outcome.accept_r}
        for side, state in states.items():
            if not flags[side]:
                rollback(state, prefix, outcome.target)
    return entries
