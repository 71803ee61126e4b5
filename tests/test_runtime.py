import ctypes
import math
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specagg.aggregator import aggregate
from specagg.common import SIDES, ProtocolError, Side
from specagg.decoder import decode_step, rerank, rollback
from specagg.dists import topp_decode, topp_encode
from specagg.retrieval import random_corpus, save_corpus
from specagg.rng import aggregation_draws, decode_uniform
from specagg import runtime, scheduler
from specagg.runtime import (
    NodeConfig,
    NodeResult,
    TargetEntry,
    _NodeEngine,
    build_decoder,
    free_port,
    run_loopback_pair,
    run_node,
    sequential_reference,
)
from specagg.transport import (
    Bye,
    DelayedInbox,
    DraftMsg,
    Hello,
    MessageStream,
    ProbeKind,
    ProbeMsg,
    decode_frame,
)


def base_config(**overrides) -> NodeConfig:
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    prompt = list(corpus.docs[3].tokens[:24])
    defaults = dict(
        role=Side.DEVICE,
        corpus=corpus,
        prompt=prompt,
        vocab_size=256,
        docs_k=4,
        max_new_tokens=24,
        seed=5,
    )
    defaults.update(overrides)
    return NodeConfig(**defaults)


def keys(entries):
    return [e.key() for e in entries]


def peer_draft(cfg, peer_state, step):
    """The peer's next draft from its own decoder state, as it goes on the wire."""
    rerank(peer_state)
    rec = decode_step(peer_state, decode_uniform(cfg.seed, step))
    dist = topp_encode(rec.dist, cfg.top_p, force_token=rec.token)
    return DraftMsg(step=step, token=rec.token, h=rec.h, decode_ms=1.0, dist=dist)


def first_draft(cfg, side, decode_ms=1.0, step=0):
    """`side`'s step-0 draft as it goes on the wire, numbered `step`."""
    draft = peer_draft(cfg, build_decoder(cfg, side), 0)
    return replace(draft, step=step, decode_ms=decode_ms)


@contextmanager
def engine_pair(cfg):
    """A node's engine and a raw stream standing in for its peer, all closed
    on the way out, a failing test's included."""
    near, far = socket.socketpair()
    engine = _NodeEngine(cfg, build_decoder(cfg), MessageStream(near, vocab_size=256))
    peer = MessageStream(far, vocab_size=256)
    try:
        yield engine, peer
    finally:
        engine.inbox.close()
        engine.stream.close()
        peer.close()


class Stop(Exception):
    """Raised by a test hook to end an engine's loop where the test looks."""


def aggregate_through(engine, peer_state, last_step):
    """On an engine that aggregates, draft, queue and aggregate both sides'
    steps up to `last_step`, the peer's drafts decoded from `peer_state`."""
    cfg = engine.config
    for step in range(last_step + 1):
        engine._start_decode()
        assert engine._finish_decode()
        engine._queue_draft(engine.role.other, peer_draft(cfg, peer_state, step))
        engine._aggregate_ready()


class TestSequentialReference:
    def test_deterministic(self):
        cfg = base_config()
        assert keys(sequential_reference(cfg)) == keys(sequential_reference(cfg))

    def test_seed_changes_output(self):
        assert keys(sequential_reference(base_config())) != keys(
            sequential_reference(base_config(seed=6))
        )

    def test_steps_are_gap_free(self):
        entries = sequential_reference(base_config())
        assert [e.step for e in entries] == list(range(len(entries)))

    def test_mixed_acceptance_occurs(self):
        # the two halves retrieve different documents, so the streams must
        # disagree at least sometimes for the protocol to be exercised
        entries = sequential_reference(base_config(max_new_tokens=40))
        assert any(not e.accept_l for e in entries)
        assert any(not e.accept_r for e in entries)
        assert any(e.accept_l for e in entries)


class TestLoopback:
    def test_matches_sequential_oracle(self):
        cfg = base_config(max_new_tokens=32)
        reference = sequential_reference(cfg)
        device, cloud = run_loopback_pair(cfg)
        assert keys(device.target_log) == keys(reference)
        assert keys(cloud.target_log) == keys(reference)

    def test_adaptive_run_actually_switches(self):
        # default config schedules adaptively; make sure the handoff path is
        # exercised, not just the static one, while staying oracle-equal
        cfg = base_config(max_new_tokens=40)
        device, cloud = run_loopback_pair(cfg)
        assert device.switches + cloud.switches >= 1
        assert [e.step for e in device.target_log] == list(range(40))
        assert keys(device.target_log) == keys(sequential_reference(cfg))

    def test_output_invariant_under_aggregation_side(self):
        tokens = {}
        for static in (Side.DEVICE, Side.CLOUD, None):
            cfg = base_config(static_side=static)
            device, cloud = run_loopback_pair(cfg)
            tokens[static] = device.tokens
            assert device.tokens == cloud.tokens
        assert tokens[Side.DEVICE] == tokens[Side.CLOUD] == tokens[None]

    def test_identical_streams_never_reject(self):
        cfg = base_config(half="all", max_new_tokens=20)
        device, cloud = run_loopback_pair(cfg)
        assert all(e.accept_l and e.accept_r for e in device.target_log)
        assert device.tokens == cloud.tokens

    def test_vanilla_same_output_as_speculative(self):
        spec_cfg = base_config(static_side=Side.DEVICE)
        van_cfg = base_config(vanilla=True, static_side=Side.DEVICE)
        spec_dev, _ = run_loopback_pair(spec_cfg)
        van_dev, _ = run_loopback_pair(van_cfg)
        assert spec_dev.tokens == van_dev.tokens

    def test_zero_tokens_still_measures_ttft(self):
        cfg = base_config(max_new_tokens=0)
        device, cloud = run_loopback_pair(cfg)
        assert device.target_log == [] and cloud.target_log == []
        assert device.ttft_ms > 0.0

    def test_tiny_queue_capacity(self):
        cfg = base_config(queue_capacity=1, max_new_tokens=16)
        reference = sequential_reference(cfg)
        device, _ = run_loopback_pair(cfg)
        assert keys(device.target_log) == keys(reference)

    def test_profile_rows_collected(self):
        device, cloud = run_loopback_pair(base_config(max_new_tokens=16))
        assert device.profile_rows
        t_values = [row[0] for row in device.profile_rows]
        assert all(t >= len(base_config().prompt) for t in t_values)

    def test_latencies_nonnegative(self):
        device, _ = run_loopback_pair(base_config(max_new_tokens=16))
        assert all(e.latency_ms >= 0.0 for e in device.target_log)

    def test_asymmetric_decode_delays_reach_the_scheduler(self, monkeypatch):
        # each node injects its own decode delay; every decision must price
        # a side at least at that delay, and the slow device above the cloud.
        # Here the estimates decide: with both zeroed, a rejected cloud draft
        # would hand the role to the cloud, and the slow device keeps it.
        decisions = []
        original = scheduler.choose_side

        def recording(agg, c_dec, c_trans, accept):
            decisions.append(c_dec)
            return original(agg, c_dec, c_trans, accept)

        monkeypatch.setattr(scheduler, "choose_side", recording)
        cfg = base_config(max_new_tokens=40, link_delay_ms=2.0)
        port = free_port()
        configs = {
            Side.DEVICE: replace(
                cfg, role=Side.DEVICE, peer=("127.0.0.1", port), decode_delay_ms=10.0
            ),
            Side.CLOUD: replace(
                cfg, role=Side.CLOUD, listen=("127.0.0.1", port), decode_delay_ms=1.0
            ),
        }
        results: dict[Side, NodeResult | BaseException] = {}

        def run(side):
            try:
                results[side] = run_node(configs[side])
            except BaseException as exc:  # noqa: BLE001 - asserted below
                results[side] = exc

        threads = [
            threading.Thread(target=run, args=(side,), daemon=True)
            for side in (Side.CLOUD, Side.DEVICE)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        reference = keys(sequential_reference(cfg))
        for side in Side:
            assert isinstance(results.get(side), NodeResult), results.get(side)
            assert keys(results[side].target_log) == reference
        assert decisions
        for c_dev, c_cloud in decisions:
            assert c_dev >= 10.0 and c_cloud >= 1.0
            assert c_dev > c_cloud


class TestNodeResult:
    def test_mean_latency_leaves_out_the_first_token(self):
        # the first entry's latency is a placeholder: TTFT covers that token
        def result(latencies):
            log = [TargetEntry(i, 0, True, True, ms) for i, ms in enumerate(latencies)]
            return NodeResult(role=Side.DEVICE, target_log=log, ttft_ms=9.0, switches=0)

        assert result([0.0, 2.0, 4.0]).mean_latency_ms() == pytest.approx(3.0)
        assert result([0.0]).mean_latency_ms() == 0.0
        assert result([]).mean_latency_ms() == 0.0


class TestSparsePath:
    def test_step_cost_independent_of_vocab(self):
        # one dense (k, V) float64 table at V = 2**20 would be 32 MB
        corpus = random_corpus(16, 2**20, seed=11, chunk_size=64)
        cfg = base_config(corpus=corpus, prompt=list(corpus.docs[3].tokens[:24]), vocab_size=2**20)
        states = {side: build_decoder(cfg, side) for side in Side}
        tracemalloc.start()
        try:
            for step in range(8):
                drafts = {}
                for side, state in states.items():
                    rerank(state)
                    rec = decode_step(state, decode_uniform(cfg.seed, step))
                    wire = topp_encode(rec.dist, cfg.top_p, force_token=rec.token)
                    drafts[side] = replace(rec, dist=topp_decode(wire))
                draws = aggregation_draws(cfg.seed, step)
                aggregate(drafts[Side.DEVICE], drafts[Side.CLOUD], draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    def test_fresh_node_pair_loads_neither_numpy_random_nor_idna(self, tmp_path):
        # numpy.random, numpy.ma (np.unique's first call) and the idna codec
        # are lazy imports of several ms: a node that touched any of them
        # would pay for it inside its first token
        corpus_path = tmp_path / "corpus.txt"
        save_corpus(random_corpus(48, 32768, seed=11, chunk_size=64), corpus_path)
        script = (
            "import sys\n"
            "from specagg.common import Side\n"
            "from specagg.retrieval import load_corpus\n"
            "from specagg.runtime import NodeConfig, run_loopback_pair\n"
            "corpus = load_corpus(sys.argv[1], 64)\n"
            "cfg = NodeConfig(role=Side.DEVICE, corpus=corpus, vocab_size=32768,\n"
            "    prompt=list(corpus.docs[3].tokens[:24]), max_new_tokens=24, seed=5)\n"
            "device, cloud = run_loopback_pair(cfg)\n"
            "assert len(device.target_log) == len(cloud.target_log) == 24\n"
            "print(sorted({'numpy.random', 'numpy.ma', 'encodings.idna'} & set(sys.modules)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(corpus_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


MODES = {
    "adaptive": {},
    "static-device": {"static_side": Side.DEVICE},
    "static-cloud": {"static_side": Side.CLOUD},
    "vanilla": {"vanilla": True},
}


class TestEventLoop:
    def test_one_thread_per_node(self, monkeypatch):
        started: list[tuple[str, str]] = []
        original = threading.Thread.start

        def recording_start(thread):
            started.append((threading.current_thread().name, thread.name))
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        run_loopback_pair(base_config(max_new_tokens=8))
        # run_loopback_pair starts the two node threads; a node starts none
        assert sorted(name for _, name in started) == ["node-cloud", "node-device"]

        started.clear()
        near, far = socket.socketpair()
        stream = MessageStream(near, vocab_size=256)
        DelayedInbox(stream, delay_ms=5.0).close()
        assert started == []
        stream.close()
        far.close()

    def test_one_echo_request_per_node(self, monkeypatch):
        # a node's Hello is its one echo request: it is the node's first
        # frame, and each node echoes the peer's Hello exactly once; the
        # rollback acks time the link from then on
        sent = defaultdict(list)
        original = MessageStream.send

        def recording_send(stream, msg, **kwargs):
            sent[threading.current_thread().name].append(msg)
            return original(stream, msg, **kwargs)

        monkeypatch.setattr(MessageStream, "send", recording_send)
        run_loopback_pair(base_config(max_new_tokens=40))
        assert sorted(sent) == ["node-cloud", "node-device"]
        for msgs in sent.values():
            assert isinstance(msgs[0], Hello)
            assert sum(isinstance(m, Hello) for m in msgs) == 1
            kinds = [m.kind for m in msgs if isinstance(m, ProbeMsg)]
            assert kinds.count(ProbeKind.ECHO_REPLY) == 1

    def test_ack_samples_bounded_by_the_link(self, monkeypatch):
        # every ack answers an outcome that crossed the 5 ms link and comes
        # back across it, so no ack sample can be shorter than 10 ms
        samples = defaultdict(list)
        original = _NodeEngine._on_probe

        def recording_on_probe(engine, msg):
            if msg.kind is ProbeKind.ROLLBACK_ACK:
                request, sent_at = engine.awaited[0]
                assert request == msg
                samples[engine.role].append((time.perf_counter() - sent_at) * 1000.0)
            return original(engine, msg)

        monkeypatch.setattr(_NodeEngine, "_on_probe", recording_on_probe)
        cfg = base_config(max_new_tokens=40, decode_delay_ms=2.0, link_delay_ms=5.0)
        device, cloud = run_loopback_pair(cfg)
        reference = keys(sequential_reference(cfg))
        assert keys(device.target_log) == keys(cloud.target_log) == reference
        assert samples
        assert all(rtt_ms >= 10.0 for side in samples for rtt_ms in samples[side])

    def test_rtt_estimate_before_first_decision(self, monkeypatch):
        # both nodes probe the link at the handshake, so neither decides a
        # hand-off without a link estimate
        decisions = defaultdict(list)
        original = _NodeEngine._schedule

        def recording_schedule(engine):
            decisions[engine.role].append(engine.rtt_ema is None)
            return original(engine)

        monkeypatch.setattr(_NodeEngine, "_schedule", recording_schedule)
        run_loopback_pair(base_config(max_new_tokens=40, decode_delay_ms=2.0, link_delay_ms=5.0))
        assert decisions[Side.CLOUD]
        assert not any(decisions[Side.CLOUD])

    def test_arrived_frames_handled_before_next_decode(self, monkeypatch):
        # frames already in the socket are all handled before the loop
        # finishes another own decode, so outcomes are never left queued
        # behind speculative drafts
        cfg = base_config(role=Side.CLOUD, max_new_tokens=12)
        peer_state = build_decoder(cfg, Side.DEVICE)
        drafts = [peer_draft(cfg, peer_state, step) for step in range(4)]
        frames = [Hello(), *drafts, ProbeMsg(ProbeKind.ECHO_REPLY, seq=0)]
        events = []
        handle, own_decode = _NodeEngine._handle, runtime.decode_step

        def recording_handle(self, msg):
            events.append(type(msg).__name__)
            handle(self, msg)

        def recording_decode(state, u):
            rec = own_decode(state, u)
            events.append("own-decode")
            if events.count("own-decode") == 2:
                raise Stop
            return rec

        monkeypatch.setattr(_NodeEngine, "_handle", recording_handle)
        monkeypatch.setattr(runtime, "decode_step", recording_decode)
        with engine_pair(cfg) as (engine, peer):
            for msg in frames:
                peer.send(msg)
            with pytest.raises(Stop):
                engine.run(time.perf_counter())  # the reply answers its Hello
        assert events[: len(frames)] == [type(m).__name__ for m in frames]
        assert events[len(frames) :] == ["own-decode", "own-decode"]
        assert [r.step for r in engine.queues[Side.DEVICE]] == [0, 1, 2, 3]

    def test_ready_heads_aggregated_before_next_decode(self, monkeypatch):
        # a peer draft that completes the heads is aggregated before the own
        # decode already due finishes: the outcome goes out a decode sooner,
        # and an own rejection cancels that decode instead of wasting it
        cfg = base_config(role=Side.DEVICE, max_new_tokens=12)
        draft = first_draft(cfg, Side.CLOUD)
        events = []
        own_decode, own_aggregate = runtime.decode_step, runtime.aggregate

        def recording_decode(state, u):
            rec = own_decode(state, u)
            events.append(f"own-decode {rec.step}")
            if rec.step == 0:
                peer.send(draft)  # arrives while own decode 1 is due
            if rec.step == 1:
                raise Stop
            return rec

        def recording_aggregate(dev, cloud, draws):
            events.append(f"aggregate {dev.step}")
            return own_aggregate(dev, cloud, draws)

        monkeypatch.setattr(runtime, "decode_step", recording_decode)
        monkeypatch.setattr(runtime, "aggregate", recording_aggregate)
        with engine_pair(cfg) as (engine, peer):
            peer.send(Hello())
            with pytest.raises(Stop):
                engine.run(time.perf_counter())
        assert events == ["own-decode 0", "aggregate 0", "own-decode 1"]

    def test_draft_arriving_with_hello_aggregated_before_second_decode(self, monkeypatch):
        # the peer's Hello and its step-0 draft arrive together while this
        # node's second own decode is due: one loop runs from Hello to the
        # last token, so the draft is handled and step 0 aggregated first
        cfg = base_config(role=Side.DEVICE, max_new_tokens=12)
        draft = first_draft(cfg, Side.CLOUD)
        events = []
        own_decode, own_aggregate = runtime.decode_step, runtime.aggregate

        def recording_decode(state, u):
            rec = own_decode(state, u)
            events.append(f"own-decode {rec.step}")
            if rec.step == 0:
                peer.send(Hello())
                peer.send(draft)
            if rec.step == 1:
                raise Stop
            return rec

        def recording_aggregate(dev, cloud, draws):
            events.append(f"aggregate {dev.step}")
            return own_aggregate(dev, cloud, draws)

        monkeypatch.setattr(runtime, "decode_step", recording_decode)
        monkeypatch.setattr(runtime, "aggregate", recording_aggregate)
        with engine_pair(cfg) as (engine, peer), pytest.raises(Stop):
            engine.run(time.perf_counter())
        assert events == ["own-decode 0", "aggregate 0", "own-decode 1"]

    def test_redraft_due_a_decode_after_the_rollback(self, monkeypatch):
        # an aggregator that rejects its own draft starts the redraft's timer
        # at the rollback, so scheduling and writing the outcome run inside
        # the injected decode instead of before it
        cfg = base_config(
            role=Side.DEVICE, static_side=Side.DEVICE, decode_delay_ms=10.0, max_new_tokens=24
        )
        reference = sequential_reference(cfg)
        s = next(e.step for e in reference if not e.accept_l)
        peer_state = build_decoder(cfg, Side.CLOUD)
        clock = [100.0]
        rolled_back = []
        own_rollback, schedule = runtime.rollback, _NodeEngine._schedule

        def timed_rollback(state, prefix, target):
            own_rollback(state, prefix, target)
            rolled_back.append(clock[0])

        def slow_schedule(engine):
            clock[0] += 0.002  # the decision after the outcome takes 2 ms
            return schedule(engine)

        with engine_pair(cfg) as (engine, peer):
            monkeypatch.setattr(runtime.time, "perf_counter", lambda: clock[0])
            monkeypatch.setattr(runtime, "rollback", timed_rollback)
            monkeypatch.setattr(_NodeEngine, "_schedule", slow_schedule)
            engine._handle(Hello())
            for step in range(s + 1):
                engine._start_decode()
                clock[0] = engine.decode_due
                assert engine._finish_decode()
                engine._queue_draft(Side.CLOUD, peer_draft(cfg, peer_state, step))
                engine._aggregate_ready()
                last = engine.log_entries[-1]
                if not last.accept_r:
                    prefix = cfg.prompt + [e.token for e in engine.log_entries[:-1]]
                    own_rollback(peer_state, prefix, last.token)
            assert keys(engine.log_entries) == keys(reference[: s + 1])
            assert len(rolled_back) == 1
            assert engine.decode_due == pytest.approx(rolled_back[0] + 0.010, rel=0, abs=1e-9)
            engine._start_decode()  # the loop's own start leaves the timer as it is
            assert engine.decode_due == pytest.approx(rolled_back[0] + 0.010, rel=0, abs=1e-9)
            monkeypatch.undo()

    def test_next_decode_due_a_decode_after_the_draft(self, monkeypatch):
        # the next own decode's timer starts as the draft is queued, not after
        # the aggregation that draft may complete
        cfg = base_config(decode_delay_ms=10.0)
        clock = [100.0]
        with engine_pair(cfg) as (engine, peer):
            monkeypatch.setattr(runtime.time, "perf_counter", lambda: clock[0])
            engine._start_decode()
            clock[0] = engine.decode_due + 0.001
            assert engine._finish_decode()
            assert engine.decode_due == pytest.approx(clock[0] + 0.010, rel=0, abs=1e-9)
            monkeypatch.undo()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="a Linux thread attribute")
    def test_node_thread_asks_for_timed_waits_on_time(self):
        # run_node's thread is the loop's: its timed waits may end at most
        # 1 ns past their timeout, not the default 50 us
        slack = []

        def node_thread():
            runtime._wake_timed_waits_on_time()
            slack.append(ctypes.CDLL(None).prctl(30, 0, 0, 0, 0))  # PR_GET_TIMERSLACK

        thread = threading.Thread(target=node_thread)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and slack == [1]

    def test_draft_and_the_outcome_it_completes_leave_in_one_write(self, monkeypatch):
        # the loop writes the frames of a pass at once: an own draft that
        # completes a step's heads goes out with that step's outcome, draft
        # first, in one sendall
        cfg = base_config(role=Side.DEVICE, static_side=Side.DEVICE, max_new_tokens=12)
        writes = []
        own_decode, sendall = runtime.decode_step, socket.socket.sendall

        def recording_sendall(sock, data, *args):
            if sock.fileno() == engine.stream.fileno():
                frames, used = [], 0
                while used < len(data):
                    msg, n = decode_frame(bytes(data[used:]))
                    frames.append(msg)
                    used += n
                writes.append(frames)
            return sendall(sock, data, *args)

        def stopping_decode(state, u):
            if state.gen_step == 1:
                raise Stop
            return own_decode(state, u)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        monkeypatch.setattr(runtime, "decode_step", stopping_decode)
        with engine_pair(cfg) as (engine, peer):
            for msg in (Hello(), first_draft(cfg, Side.CLOUD), ProbeMsg(ProbeKind.ECHO_REPLY, 0)):
                peer.send(msg)
            with pytest.raises(Stop):
                engine.run(time.perf_counter())
        shapes = [[(type(m).__name__, getattr(m, "step", None)) for m in w] for w in writes]
        assert shapes == [
            [("Hello", None)],
            [("ProbeMsg", None)],  # the echo reply, written before the own decode
            [("DraftMsg", 0), ("TargetMsg", 0)],
        ]

    def test_own_draft_queued_as_the_peer_reads_it(self):
        # a node queues its own draft from the message it sends, so its
        # record and the one the peer builds from the frame are the same
        near, far = socket.socketpair()
        cfg = base_config(role=Side.DEVICE)
        engine = _NodeEngine(cfg, build_decoder(cfg), MessageStream(near, vocab_size=256))
        peer_cfg = replace(cfg, role=Side.CLOUD)
        peer = _NodeEngine(
            peer_cfg, build_decoder(peer_cfg), MessageStream(far, vocab_size=256)
        )
        engine.stream.send(Hello())
        peer._handle(peer.inbox.recv(timeout=5.0))
        for _ in range(3):
            engine._start_decode()
            assert engine._finish_decode()
            engine._flush()  # as the loop does before it waits
            peer._handle(peer.inbox.recv(timeout=5.0))
        own, read = engine.queues[Side.DEVICE], peer.queues[Side.DEVICE]
        assert [r.step for r in own] == [r.step for r in read] == [0, 1, 2]
        for mine, theirs in zip(own, read):
            assert (mine.token, mine.h) == (theirs.token, theirs.h)
            assert mine.dist == theirs.dist
        assert peer.next_expected[Side.DEVICE] == engine.next_expected[Side.DEVICE] == 3
        for node in (engine, peer):
            node.inbox.close()
            node.stream.close()

    def test_rollback_ack_fences_stale_peer_drafts(self):
        # this node aggregates and rejects the peer's step-s draft: the peer's
        # drafts that arrive before its ROLLBACK_ACK(s) were drafted past the
        # rejected token and are dropped, an ack for another step is a
        # protocol error, and the peer's redraft after the ack is queued
        cfg = base_config(role=Side.DEVICE, static_side=Side.DEVICE, max_new_tokens=24)
        reference = sequential_reference(cfg)
        s = next(e.step for e in reference if not e.accept_r)
        peer_state = build_decoder(cfg, Side.CLOUD)
        with engine_pair(cfg) as (engine, peer):
            engine._handle(Hello())
            aggregate_through(engine, peer_state, s)
            assert keys(engine.log_entries) == keys(reference[: s + 1])
            assert [m for m, _ in engine.awaited] == [ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=s)]

            def deliver(msg):
                peer.send(msg)
                engine._handle(engine.inbox.recv(timeout=5.0))

            for step in (s + 1, s + 2):  # speculative drafts past the rejected token
                deliver(peer_draft(cfg, peer_state, step))
            assert not engine.queues[Side.CLOUD]
            assert engine.next_expected[Side.CLOUD] == s + 1
            with pytest.raises(ProtocolError, match=f"unexpected ROLLBACK_ACK:{s + 1}"):
                deliver(ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=s + 1))
            deliver(ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=s))
            assert not engine.awaited
            prefix = cfg.prompt + [e.token for e in reference[:s]]
            rollback(peer_state, prefix, reference[s].token)
            deliver(peer_draft(cfg, peer_state, s + 1))
            assert [r.step for r in engine.queues[Side.CLOUD]] == [s + 1]
            assert engine.next_expected[Side.CLOUD] == s + 2

    @pytest.mark.parametrize("acks", [0, 3])
    def test_first_in_run_echo_replaces_handshake_rtt(self, monkeypatch, acks):
        # the reply to the Hello waits behind both nodes' cold first decode:
        # it sets the estimate until the first in-run sample, the rollback
        # ack that echoes a rejecting outcome, replaces it; later acks blend
        # in.  Each ack is timed from the write of the outcome that rejected
        # the peer, not from when it was queued.  With no ack the handshake
        # sample stands.
        cfg = base_config(role=Side.DEVICE, static_side=Side.DEVICE, max_new_tokens=24)
        reference = sequential_reference(cfg)
        rejected = [e.step for e in reference if not e.accept_r][:acks]
        assert len(rejected) == acks
        last_step = rejected[-1] if rejected else 0
        assert reference[0].accept_r  # with no ack, step 0 rejects nothing
        peer_state = build_decoder(cfg, Side.CLOUD)
        clock = [10.0]
        estimates = []
        with engine_pair(cfg) as (engine, peer):
            monkeypatch.setattr(runtime.time, "perf_counter", lambda: clock[0])
            engine._request(Hello(), ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))  # as run() opens
            clock[0] += 0.002  # the loop writes it 2 ms after it was queued
            engine._flush()
            clock[0] += 0.018
            engine._on_probe(ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))
            assert engine.rtt_ema == pytest.approx(18.0)
            for step in range(last_step + 1):
                engine._start_decode()
                assert engine._finish_decode()
                engine._queue_draft(Side.CLOUD, peer_draft(cfg, peer_state, step))
                clock[0] += 0.003  # the outcome is queued 3 ms after the drafts
                engine._aggregate_ready()
                clock[0] += 0.001  # and written 1 ms later, before the loop waits
                engine._flush()
                if step in rejected:
                    ack = ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=step)
                    assert [m for m, _ in engine.awaited] == [ack]
                    clock[0] += 0.005 * (len(estimates) + 1)  # the ack, 5, 10, then 15 ms later
                    engine._on_probe(ack)
                    estimates.append(engine.rtt_ema)
                    prefix = cfg.prompt + [e.token for e in reference[:step]]
                    rollback(peer_state, prefix, reference[step].token)
            monkeypatch.undo()
        assert keys(engine.log_entries) == keys(reference[: last_step + 1])
        # 5.0, then 0.8 * 5.0 + 0.2 * 10.0 = 6.0, then 0.8 * 6.0 + 0.2 * 15.0 = 7.8
        assert estimates == pytest.approx([5.0, 6.0, 7.8][:acks])
        assert engine.rtt_ema == pytest.approx(estimates[-1] if estimates else 18.0)

    def test_decode_ms_excludes_time_past_due(self, monkeypatch):
        # a decode that fell due while the loop handled messages is charged
        # its injected delay and its compute, not that handling time, so the
        # profiler and the peer's scheduler learn the decode cost alone
        clock = [100.0]
        with engine_pair(base_config(decode_delay_ms=5.0)) as (engine, peer):
            monkeypatch.setattr(runtime.time, "perf_counter", lambda: clock[0])
            engine._start_decode()
            assert engine.decode_due == pytest.approx(100.005)
            clock[0] = 160.0  # the loop got back a minute after the decode fell due
            engine._finish_decode()
            monkeypatch.undo()
            assert engine.profile_rows[-1][1] == pytest.approx(5.0)
            engine._flush()
            sent = peer.recv()
        assert isinstance(sent, DraftMsg) and sent.decode_ms == pytest.approx(5.0)

    def test_profile_row_predicts_before_it_observes(self, monkeypatch):
        # c_dec_pred is the estimate the node held before the decode, not one
        # that already blends it in; the first decode has none, so its row
        # records the observation
        cfg = base_config()
        clock = [100.0]
        with engine_pair(cfg) as (engine, _):
            monkeypatch.setattr(runtime.time, "perf_counter", lambda: clock[0])
            for delay_ms in (5.0, 15.0, 15.0):
                cfg.decode_delay_ms = delay_ms
                engine._start_decode()
                clock[0] += 1.0
                assert engine._finish_decode()
            monkeypatch.undo()
        rows = engine.profile_rows
        assert [row[0] for row in rows] == [len(cfg.prompt) + step for step in range(3)]
        assert [row[1] for row in rows] == pytest.approx([5.0, 15.0, 15.0])
        # 5.0, then 0.7 * 5.0 + 0.3 * 15.0 = 8.0
        assert [row[2] for row in rows] == pytest.approx([5.0, 5.0, 8.0])

    def test_every_decision_sees_the_outcome_just_aggregated(self, monkeypatch):
        # the aggregator decides from the accept flags of the step it just
        # logged, in index order (0 device, 1 cloud), as the side it is
        decisions = defaultdict(list)
        scheduling = {}
        original_schedule = _NodeEngine._schedule
        original_choose = scheduler.choose_side

        def recording_schedule(engine):
            # the step just logged is the one decided on
            scheduling[threading.current_thread().name] = len(engine.log_entries) - 1
            return original_schedule(engine)

        def recording_choose(agg, c_dec, c_trans, accept):
            node = threading.current_thread().name
            decisions[node].append((scheduling[node], agg, accept))
            return original_choose(agg, c_dec, c_trans, accept)

        monkeypatch.setattr(_NodeEngine, "_schedule", recording_schedule)
        monkeypatch.setattr(scheduler, "choose_side", recording_choose)
        cfg = base_config(max_new_tokens=40, decode_delay_ms=2.0, link_delay_ms=5.0)
        device, cloud = run_loopback_pair(cfg)
        assert keys(device.target_log) == keys(cloud.target_log)
        for side, result in ((Side.DEVICE, device), (Side.CLOUD, cloud)):
            calls = decisions[f"node-{side}"]
            assert calls  # the role moves on a remote rejection, so both sides decide
            steps = [step for step, _, _ in calls]
            assert steps == sorted(set(steps))
            for step, agg, accept in calls:
                entry = result.target_log[step]
                assert agg == SIDES.index(side)
                assert accept == (entry.accept_l, entry.accept_r)

    def test_oracle_under_fast_thread_switching(self):
        # one thread per node, both in this process; switching every 10 us
        # shakes out any state the two nodes would share unguarded
        cfg = base_config(max_new_tokens=32, queue_capacity=2)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            device, cloud = run_loopback_pair(cfg)
        finally:
            sys.setswitchinterval(previous)
        assert keys(device.target_log) == keys(cloud.target_log) == keys(sequential_reference(cfg))

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**16),
        top_p=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
        queue_capacity=st.integers(1, 8),
        mode=st.sampled_from(sorted(MODES)),
        decode_delay_ms=st.sampled_from([0.0, 1.0, 2.0]),
        link_delay_ms=st.sampled_from([0.0, 1.0, 2.0]),
    )
    def test_distributed_equals_oracle(
        self, seed, top_p, queue_capacity, mode, decode_delay_ms, link_delay_ms
    ):
        cfg = base_config(
            max_new_tokens=12,
            seed=seed,
            top_p=top_p,
            queue_capacity=queue_capacity,
            decode_delay_ms=decode_delay_ms,
            link_delay_ms=link_delay_ms,
            **MODES[mode],
        )
        reference = keys(sequential_reference(cfg))
        device, cloud = run_loopback_pair(cfg)
        assert keys(device.target_log) == reference
        assert keys(cloud.target_log) == reference


class TestFailFast:
    def test_two_aggregators_is_protocol_error(self):
        corpus = random_corpus(48, 256, seed=11, chunk_size=64)
        prompt = list(corpus.docs[3].tokens[:24])
        port = free_port()
        results: dict[Side, BaseException | None] = {}

        def run(role, **kw):
            cfg = NodeConfig(
                role=role, corpus=corpus, prompt=prompt, max_new_tokens=8, seed=5, **kw
            )
            try:
                run_node(cfg)
                results[role] = None
            except BaseException as exc:  # noqa: BLE001
                results[role] = exc

        threads = [
            threading.Thread(
                target=run,
                args=(Side.CLOUD,),
                kwargs=dict(listen=("127.0.0.1", port), static_side=Side.CLOUD),
                daemon=True,
            ),
            threading.Thread(
                target=run,
                args=(Side.DEVICE,),
                kwargs=dict(peer=("127.0.0.1", port), static_side=Side.DEVICE),
                daemon=True,
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert any(isinstance(exc, RuntimeError) for exc in results.values())

    def test_silent_peer_times_out(self, monkeypatch):
        monkeypatch.setattr(runtime, "PEER_TIMEOUT_S", 0.3)
        with socket.create_server(("127.0.0.1", 0)) as server:
            cfg = base_config(peer=server.getsockname())
            started = time.perf_counter()
            with pytest.raises(RuntimeError, match="timed out waiting for handshake"):
                run_node(cfg)
            assert time.perf_counter() - started < 2.0

    def test_hello_comes_first_and_once(self):
        # the peer's Hello is also its echo request: the one Hello is answered
        # with the one echo reply, and a second Hello is a second request
        cfg = base_config()
        early = (first_draft(cfg, Side.CLOUD), ProbeMsg(ProbeKind.ECHO_REPLY, seq=0), Bye())
        with engine_pair(cfg) as (engine, peer):
            for msg in early:
                with pytest.raises(ProtocolError, match=f"{type(msg).__name__} before Hello"):
                    engine._handle(msg)
            engine._handle(Hello())
            engine._flush()
            assert peer.recv() == ProbeMsg(ProbeKind.ECHO_REPLY, seq=0)
            with pytest.raises(ProtocolError, match="second Hello") as err:
                engine._handle(Hello())
        assert "queues(head,len)" in str(err.value)  # the state dump

    def test_echo_reply_not_outstanding_is_protocol_error(self):
        # before this node's Hello is sent, and once its one reply is in
        with engine_pair(base_config()) as (engine, peer):
            with pytest.raises(ProtocolError, match="unexpected ECHO_REPLY:0"):
                engine._on_probe(ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))
            for msg in (Hello(), *[ProbeMsg(ProbeKind.ECHO_REPLY, seq=0)] * 2):
                peer.send(msg)
            with pytest.raises(ProtocolError, match="unexpected ECHO_REPLY:0") as err:
                engine.run(time.perf_counter())  # sends its Hello, then loops
        assert f"awaited=[] rtt={engine.rtt_ema}" in str(err.value)  # the first reply was timed
        assert engine.rtt_ema is not None

    def test_rollback_ack_overtaking_the_hello_reply_is_protocol_error(self):
        # the peer answers this node's Hello before any outcome that followed
        # it, so an ack while the Hello's reply is awaited is out of order
        cfg = base_config(role=Side.DEVICE, static_side=Side.DEVICE)
        s = next(e.step for e in sequential_reference(cfg) if not e.accept_r)
        with engine_pair(cfg) as (engine, _):
            engine._request(Hello(), ProbeMsg(ProbeKind.ECHO_REPLY, seq=0))  # as run() opens
            engine._handle(Hello())
            aggregate_through(engine, build_decoder(cfg, Side.CLOUD), s)
            with pytest.raises(ProtocolError, match=f"unexpected ROLLBACK_ACK:{s}") as err:
                engine._handle(ProbeMsg(ProbeKind.ROLLBACK_ACK, seq=s))
        assert f"awaited=['ECHO_REPLY:0', 'ROLLBACK_ACK:{s}']" in str(err.value)  # the state dump
        assert "queues(head,len)" in str(err.value)

    def test_peer_draft_past_max_new_tokens_is_protocol_error(self):
        # a peer's own gate never drafts step max_new_tokens; one that does
        # could otherwise fill this node's queue without bound
        cfg = base_config(max_new_tokens=12)
        with engine_pair(cfg) as (engine, _):
            engine.next_expected[Side.CLOUD] = 12
            with pytest.raises(ProtocolError, match="draft step 12") as err:
                engine._queue_draft(Side.CLOUD, first_draft(cfg, Side.CLOUD, step=12))
        assert "queues(head,len)" in str(err.value)  # the state dump
        assert not engine.queues[Side.CLOUD]

    def test_peer_decode_ms_past_timeout_is_protocol_error(self):
        cfg = base_config()
        with engine_pair(cfg) as (engine, _):
            for decode_ms in (runtime.PEER_TIMEOUT_S * 1000.0 + 1.0, 1e300):
                with pytest.raises(ProtocolError, match="decode_ms") as err:
                    engine._queue_draft(Side.CLOUD, first_draft(cfg, Side.CLOUD, decode_ms))
                assert "queues(head,len)" in str(err.value)
            assert engine.profiler.decode_estimate(Side.CLOUD) is None
            engine._queue_draft(Side.CLOUD, first_draft(cfg, Side.CLOUD, 25.0))
            assert engine.profiler.decode_estimate(Side.CLOUD) == pytest.approx(25.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_context"):
            base_config(max_new_tokens=300).validate()
        with pytest.raises(ValueError, match="vocabulary"):
            base_config(vocab_size=16).validate()
        with pytest.raises(ValueError, match="vocabulary"):
            base_config(prompt=[-7, 3, 5]).validate()
        with pytest.raises(ValueError, match="listen"):
            run_node(base_config())
        for bad in ("first", "second", ""):
            with pytest.raises(ValueError, match="half"):
                base_config(half=bad).validate()

    def test_config_rejects_negative_length_and_delays(self):
        with pytest.raises(ValueError, match="max_new_tokens"):
            base_config(max_new_tokens=-3).validate()
        for bad in (-2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delays"):
                base_config(decode_delay_ms=bad).validate()
            with pytest.raises(ValueError, match="delays"):
                base_config(link_delay_ms=bad).validate()
