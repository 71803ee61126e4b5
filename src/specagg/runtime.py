"""Live dual-node engine: producer decoders, draft queues, one movable
aggregator, and the preemption/rollback machinery around rejections.

Output invariance is the core contract: the emitted token sequence depends
only on (corpus, prompt, seed, vocab, k, top-p), never on timing, queue
depth, or which node aggregates.  Three mechanisms carry that:

  * all sampling draws are step-indexed from the shared seed (rng module);
  * both sides aggregate over the wire-canonical form of every distribution,
    their own included, so local full-precision copies never leak in;
  * stale speculative drafts are fenced off: a node's own queue by an epoch
    counter, the aggregator's mirror of the remote side by a rollback-ack
    barrier, and the non-aggregator's mirror by the FIFO ordering of drafts
    behind the outcome message that invalidated them.

Thread layout per node: the thread that calls `run_node` runs the event
loop, which owns all protocol state, handles every received message,
aggregates inline while this node holds the role, and makes every send
itself, in the order the state changed; that order is what the FIFO fence
above relies on.  One decode worker thread owns the DecoderState and takes
decode and rollback commands in order.  The loop's only blocking wait is
`DelayedInbox.recv`, which the worker wakes when a draft is ready.

Failures are surfaced, never papered over: any step desync raises with a
state dump.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial

from .aggregator import aggregate
from .common import ProtocolError, Side
from .decoder import DecoderState, DraftRecord, decode_step, rerank, rollback
from .dists import Vocab, topp_decode, topp_encode
from .profiler import SideProfiler
from .retrieval import Corpus, Half, retrieve
from .rng import aggregation_draws, decode_uniform
from .scheduler import AcceptanceEstimate, CostVector, MovingAcceptance, choose_side
from .transport import (
    Bye,
    Codec,
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
# One decode running and the next queued, so the worker never idles waiting
# for the loop; a deeper queue spends CPU on drafts that a rejection discards.
DECODES_IN_FLIGHT = 2
# The aggregator samples the link (an echo probe and a bandwidth reading) on
# every this-many-th outcome, step 0 included; the estimates move slowly.
LINK_SAMPLE_EVERY = 16


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
    half: str = "auto"  # auto | all | first | second
    max_new_tokens: int = 32
    max_context: int = 256
    seed: int = 0
    top_p: float = 0.8
    queue_capacity: int = 8
    vanilla: bool = False
    static_side: Side | None = None  # None = adaptive scheduling
    decode_delay_ms: float = 0.0
    link_delay_ms: float = 0.0
    zeta: float = 0.3
    ema_weight: float = 0.2
    codec: Codec = Codec.NONE
    listen: tuple[str, int] | None = None
    peer: tuple[str, int] | None = None
    connect_timeout: float = 30.0

    def resolve_half(self, side: Side | None = None) -> Half:
        side = side or self.role
        if self.half == "auto":
            return Half.FIRST if side is Side.DEVICE else Half.SECOND
        return Half(self.half)

    def prompt_len_abs(self, gen_step: int) -> int:
        """Absolute context position of a generation step (prompt included)."""
        return len(self.prompt) + gen_step

    def validate(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
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
            t >= self.vocab_size for t in self.prompt
        ):
            raise ValueError("corpus or prompt token outside vocabulary")


@dataclass
class NodeResult:
    role: Side
    target_log: list[TargetEntry]
    ttft_ms: float
    switches: int
    profile_rows: list[tuple[float, float, float, float, float]] = field(default_factory=list)

    @property
    def tokens(self) -> list[int]:
        return [e.token for e in self.target_log]

    def mean_latency_ms(self) -> float:
        if not self.target_log:
            return 0.0
        return sum(e.latency_ms for e in self.target_log) / len(self.target_log)


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
        side=side,
    )


def _canonical_record(rec: DraftRecord, top_p: float, decode_ms: float):
    compressed = topp_encode(rec.dist, top_p, force_token=rec.token)
    canonical = replace(rec, dist=topp_decode(compressed), decode_ms=decode_ms)
    return canonical, compressed


class _DecodeWorker:
    """The one thread a node starts.  It alone touches the DecoderState.

    Commands run in the order the event loop queued them: `decode(epoch,
    preempt)` drafts the next token, `rollback(prefix, next_input)` rewinds
    the state.  Every decode posts (epoch, canonical record, compressed
    distribution) to `results`, with None for both when it was preempted
    before or during the injected decode delay, then wakes the loop.
    """

    def __init__(self, config: NodeConfig, state: DecoderState, wake) -> None:
        self.config = config
        self.state = state
        self.results: queue.SimpleQueue = queue.SimpleQueue()
        self._wake = wake
        self._commands: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name=f"decode-{config.role}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._commands.put(None)
        self._thread.join(timeout=10.0)

    def decode(self, epoch: int, preempt: threading.Event) -> None:
        self._commands.put(partial(self._decode, epoch, preempt))

    def rollback(self, prefix: list[int], next_input: int) -> None:
        self._commands.put(partial(rollback, self.state, prefix, next_input))

    def _run(self) -> None:
        try:
            while (command := self._commands.get()) is not None:
                command()
        except Exception as exc:  # noqa: BLE001 - re-raised on the event loop
            self.results.put(exc)
            self._wake()

    def _decode(self, epoch: int, preempt: threading.Event) -> None:
        cfg = self.config
        started = time.perf_counter()
        if preempt.wait(cfg.decode_delay_ms / 1000.0):
            self.results.put((epoch, None, None))
        else:
            rerank(self.state)
            rec = decode_step(self.state, decode_uniform(cfg.seed, self.state.gen_step))
            decode_ms = (time.perf_counter() - started) * 1000.0
            canonical, compressed = _canonical_record(rec, cfg.top_p, decode_ms)
            self.results.put((epoch, canonical, compressed))
        self._wake()


class _NodeEngine:
    """The event loop of one node; it runs on the thread that calls `run`.

    The protocol state below belongs to the loop alone, so none of it is
    locked.  Sends block: two loops cannot stall on each other's sends while
    the frames in flight per direction (at most `queue_capacity` drafts plus
    a few control frames per draft) fit in the socket buffers, and a send
    that stalls FRAME_TIMEOUT_S fails the run.
    """

    def __init__(self, config: NodeConfig, state: DecoderState, stream: MessageStream) -> None:
        self.config = config
        self.role = config.role
        self.stream = stream
        self.inbox = DelayedInbox(stream, config.link_delay_ms)
        self.worker = _DecodeWorker(config, state, self.inbox.wake)

        self.queues: dict[Side, deque[DraftRecord]] = {s: deque() for s in Side}
        self.next_expected: dict[Side, int] = {s: 0 for s in Side}
        self.awaiting_ack: dict[Side, int | None] = {s: None for s in Side}
        self.log_entries: list[TargetEntry] = []
        self.current_agg: Side = config.static_side or Side.DEVICE
        self.epoch = 0
        self.preempt = threading.Event()  # set when self.epoch moves on
        self.in_flight = 0  # decode commands queued or running
        self.peer_hello = False
        self.switches = 0

        self.acceptance = {s: MovingAcceptance(config.ema_weight) for s in Side}
        self.profiler = SideProfiler(config.zeta)
        self.rtt_ema: float | None = None
        self.bw_obs: float = 0.0
        self._bw_mark: tuple[float, int] | None = None
        self._probe_seq = 0
        self._last_outcome_at: float | None = None
        self.ttft_ms: float = 0.0
        self._started_at = 0.0
        self.profile_rows: list[tuple[float, float, float, float, float]] = []

    # ---------------------------------------------------------------- utils

    def _dump(self) -> str:
        heads = {
            s.value: (self.queues[s][0].step if self.queues[s] else None, len(self.queues[s]))
            for s in Side
        }
        return (
            f"role={self.role} agg={self.current_agg} log={len(self.log_entries)} "
            f"queues(head,len)={heads} next_expected={self.next_expected} "
            f"awaiting_ack={self.awaiting_ack} epoch={self.epoch}"
        )

    def _protocol_error(self, why: str) -> ProtocolError:
        return ProtocolError(f"{why} [{self._dump()}]")

    # ------------------------------------------------------------- outcomes

    def _apply_outcome(
        self,
        step: int,
        target: int,
        accept_l: bool,
        accept_r: bool,
        switch_to: Side | None,
        remote: bool,
    ) -> None:
        """Queue maintenance, preemption, and log append."""
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
                    self.epoch += 1
                    self.preempt.set()
                    self.preempt = threading.Event()
                    prefix = self.config.prompt + [e.token for e in self.log_entries[:-1]]
                    self.worker.rollback(prefix, target)
                    if remote:
                        self.stream.send(ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=step, t_send=now))
                elif not remote:
                    # I aggregate: the remote side's fresh drafts race its ack
                    self.awaiting_ack[side] = step
        if switch_to is not None and switch_to is not self.current_agg:
            self.current_agg = switch_to
            self.switches += 1

    # ----------------------------------------------------------- own drafts

    def _request_decodes(self) -> None:
        """Keep up to DECODES_IN_FLIGHT decode commands queued, within the gates."""
        cfg = self.config
        while self.in_flight < DECODES_IN_FLIGHT:
            step = self.next_expected[self.role] + self.in_flight
            if step >= cfg.max_new_tokens:
                return
            if cfg.vanilla:
                if self.in_flight or step != len(self.log_entries):
                    return
            elif len(self.queues[self.role]) + self.in_flight >= cfg.queue_capacity:
                return
            self.in_flight += 1
            self.worker.decode(self.epoch, self.preempt)

    def _drain_decodes(self) -> None:
        while True:
            try:
                result = self.worker.results.get_nowait()
            except queue.Empty:
                return
            if isinstance(result, BaseException):
                raise result
            self.in_flight -= 1
            epoch, rec, compressed = result
            if rec is None or epoch != self.epoch:
                continue  # preempted, or rejected while decoding: drop the stale draft
            if rec.step != self.next_expected[self.role]:
                raise self._protocol_error(
                    f"own draft step {rec.step} != expected {self.next_expected[self.role]}"
                )
            self.queues[self.role].append(rec)
            self.next_expected[self.role] = rec.step + 1
            self.profiler.observe_decode(
                self.role, self.config.prompt_len_abs(rec.step), rec.decode_ms
            )
            self._record_profile(rec.step, rec.decode_ms)
            self.stream.send(
                DraftMsg(
                    step=rec.step, token=rec.token, h=rec.h, decode_ms=rec.decode_ms, dist=compressed
                )
            )

    def _record_profile(self, step: int, decode_ms: float) -> None:
        t_abs = self.config.prompt_len_abs(step)
        pred = self.profiler.decode_estimate(self.role, t_abs, default=decode_ms)
        self.profile_rows.append(
            (t_abs, decode_ms, pred, self.rtt_ema or 0.0, self.bw_obs)
        )

    # ------------------------------------------------------------- messages

    def _handle(self, msg) -> None:
        peer = self.role.other
        if isinstance(msg, DraftMsg):
            self._on_draft(peer, msg)
        elif isinstance(msg, TargetMsg):
            if self.current_agg is self.role:
                raise self._protocol_error("received outcome while aggregating")
            self._apply_outcome(
                msg.step, msg.target, msg.accept_l, msg.accept_r, msg.switch_to, remote=True
            )
        elif isinstance(msg, ProbeMsg):
            self._on_probe(peer, msg)
        elif isinstance(msg, Hello):
            self.peer_hello = True
        else:
            raise self._protocol_error("peer said bye before the log was final")

    def _on_draft(self, peer: Side, msg: DraftMsg) -> None:
        if self.awaiting_ack[peer] is not None:
            return  # stale speculative draft from before the peer rolled back
        if msg.step != self.next_expected[peer]:
            raise self._protocol_error(
                f"peer draft step {msg.step} != expected {self.next_expected[peer]}"
            )
        rec = DraftRecord(
            side=peer,
            step=msg.step,
            token=msg.token,
            dist=topp_decode(msg.dist),
            h=msg.h,
            decode_ms=msg.decode_ms,
        )
        self.queues[peer].append(rec)
        self.next_expected[peer] = msg.step + 1
        self.profiler.observe_decode(peer, self.config.prompt_len_abs(msg.step), msg.decode_ms)

    def _on_probe(self, peer: Side, msg: ProbeMsg) -> None:
        if msg.kind is ProbeKind.ECHO_REQUEST:
            self.stream.send(ProbeMsg(ProbeKind.ECHO_REPLY, seq=msg.seq, t_send=msg.t_send))
        elif msg.kind is ProbeKind.ECHO_REPLY:
            rtt_ms = (time.perf_counter() - msg.t_send) * 1000.0
            self.rtt_ema = rtt_ms if self.rtt_ema is None else 0.8 * self.rtt_ema + 0.2 * rtt_ms
        elif msg.kind is ProbeKind.ROLLBACK_ACK:
            if self.awaiting_ack[peer] != msg.seq:
                raise self._protocol_error(f"unexpected rollback ack for step {msg.seq}")
            self.awaiting_ack[peer] = None

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
            self.acceptance[Side.DEVICE].update(outcome.accept_l)
            self.acceptance[Side.CLOUD].update(outcome.accept_r)
            switch_to = self._schedule(step)
            self._apply_outcome(
                step,
                outcome.target,
                outcome.accept_l,
                outcome.accept_r,
                switch_to,
                remote=False,
            )
            self.stream.send(
                TargetMsg(
                    step=step,
                    target=outcome.target,
                    accept_l=outcome.accept_l,
                    accept_r=outcome.accept_r,
                    switch_to=switch_to,
                )
            )
            if step % LINK_SAMPLE_EVERY == 0:
                self._probe_seq += 1
                probe = ProbeMsg(
                    ProbeKind.ECHO_REQUEST, seq=self._probe_seq, t_send=time.perf_counter()
                )
                self.stream.send(probe)
                self._update_bandwidth()

    def _schedule(self, step: int) -> Side | None:
        """Pick the aggregation side for step+1; None means stay put."""
        cfg = self.config
        if cfg.vanilla or cfg.static_side is not None:
            return None
        if self.rtt_ema is None:
            return None  # no link estimate yet
        peer = self.role.other
        t_next = cfg.prompt_len_abs(step + 1)
        own = self.profiler.decode_estimate(self.role, t_next, default=1.0)
        other = self.profiler.decode_estimate(peer, t_next, default=1.0)
        costs = CostVector(
            c_dec_l=own,
            c_dec_r=other,
            c_trans_l=self.rtt_ema / 2.0,
            c_trans_r=self.rtt_ema / 2.0,
        )
        acc = AcceptanceEstimate(
            alpha_l=self.acceptance[self.role].value,
            alpha_r=self.acceptance[peer].value,
        )
        chosen = choose_side(self.role, costs, acc)
        return chosen if chosen is not self.role else None

    def _update_bandwidth(self) -> None:
        now = time.perf_counter()
        moved = self.stream.bytes_sent + self.stream.bytes_received
        if self._bw_mark is not None:
            dt_ms = (now - self._bw_mark[0]) * 1000.0
            if dt_ms > 0:
                self.bw_obs = (moved - self._bw_mark[1]) / dt_ms
        self._bw_mark = (now, moved)

    # ------------------------------------------------------------------ run

    def run(self, started_at: float) -> NodeResult:
        self._started_at = started_at
        cfg = self.config
        try:
            self.worker.start()
            self.stream.send(Hello())
            self._loop_until(lambda: self.peer_hello, "handshake")
            if cfg.max_new_tokens == 0:
                self.ttft_ms = (time.perf_counter() - started_at) * 1000.0
            self._loop_until(lambda: len(self.log_entries) >= cfg.max_new_tokens, "generation")
            self.stream.send(Bye())
            # the log is final and Bye is our last frame: skip whatever precedes the peer's Bye
            deadline = time.perf_counter() + PEER_TIMEOUT_S
            while not isinstance(self._recv(deadline, "peer shutdown"), Bye):
                pass
        finally:
            # on failure, closing the socket fails the peer fast as well
            self.preempt.set()
            self.worker.stop()
            self.inbox.close()
            self.stream.close()
        return NodeResult(
            role=self.role,
            target_log=list(self.log_entries),
            ttft_ms=self.ttft_ms,
            switches=self.switches,
            profile_rows=list(self.profile_rows),
        )

    def _loop_until(self, done, label: str) -> None:
        """Do all ready work, then wait for a message or a decode, until done()."""
        deadline = time.perf_counter() + PEER_TIMEOUT_S
        while True:
            self._drain_decodes()
            self._aggregate_ready()
            self._request_decodes()
            if done():
                return
            msg = self._recv(deadline, label)
            if msg is not None:
                self._handle(msg)

    def _recv(self, deadline: float, label: str):
        try:
            return self.inbox.recv(timeout=deadline - time.perf_counter())
        except TimeoutError:
            raise RuntimeError(f"timed out waiting for {label} [{self._dump()}]") from None


def run_node(config: NodeConfig) -> NodeResult:
    """Run one side to completion; blocks until both logs are final."""
    started_at = time.perf_counter()
    config.validate()
    state = build_decoder(config)
    if config.listen is not None:
        stream, _ = listen_once(*config.listen, codec=config.codec, vocab_size=config.vocab_size)
    elif config.peer is not None:
        stream = connect(
            *config.peer,
            timeout=config.connect_timeout,
            codec=config.codec,
            vocab_size=config.vocab_size,
        )
    else:
        raise ValueError("config needs either listen or peer")
    engine = _NodeEngine(config, state, stream)
    return engine.run(started_at)


def free_port(host: str = "127.0.0.1") -> int:
    import socket

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind((host, 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def run_loopback_pair(
    base: NodeConfig, host: str = "127.0.0.1", port: int | None = None
) -> tuple[NodeResult, NodeResult]:
    """Run both roles of one configuration in-process over real sockets.

    Returns (device result, cloud result); any node failure propagates.
    """
    port = port or free_port(host)
    configs = {
        Side.DEVICE: replace(base, role=Side.DEVICE, peer=(host, port), listen=None),
        Side.CLOUD: replace(base, role=Side.CLOUD, listen=(host, port), peer=None),
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
            canonical, _ = _canonical_record(rec, config.top_p, rec.decode_ms)
            records[side] = canonical
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
