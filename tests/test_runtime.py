import socket
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specagg.aggregator import aggregate
from specagg.common import Side
from specagg.decoder import decode_step, rerank
from specagg.dists import topp_decode, topp_encode
from specagg.retrieval import random_corpus
from specagg.rng import aggregation_draws, decode_uniform
from specagg.runtime import (
    NodeConfig,
    build_decoder,
    free_port,
    run_loopback_pair,
    run_node,
    sequential_reference,
)
from specagg.transport import Codec, DelayedInbox, MessageStream, ProbeKind, ProbeMsg


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

    def test_block_codec_end_to_end(self):
        cfg = base_config(codec=Codec.BLOCK, max_new_tokens=16)
        reference = sequential_reference(cfg)
        device, _ = run_loopback_pair(cfg)
        assert keys(device.target_log) == keys(reference)

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
        for side in Side:
            assert [t for by, t in started if by == f"node-{side}"] == [f"decode-{side}"]

        started.clear()
        near, far = socket.socketpair()
        stream = MessageStream(near, vocab_size=256)
        DelayedInbox(stream, delay_ms=5.0).close()
        assert started == []
        stream.close()
        far.close()

    def test_echo_probe_every_sixteenth_outcome(self, monkeypatch):
        sent = []
        original = MessageStream.send

        def recording_send(stream, msg):
            sent.append(msg)
            return original(stream, msg)

        monkeypatch.setattr(MessageStream, "send", recording_send)
        run_loopback_pair(base_config(max_new_tokens=40, static_side=Side.DEVICE))
        echoes = [m for m in sent if isinstance(m, ProbeMsg) and m.kind is ProbeKind.ECHO_REQUEST]
        assert len(echoes) == 3  # after the outcomes of steps 0, 16 and 32

    def test_oracle_under_fast_thread_switching(self):
        # four threads on two nodes; switching every 10 us shakes out any
        # state the loop and the decode worker would share unguarded
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

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_context"):
            base_config(max_new_tokens=300).validate()
        with pytest.raises(ValueError, match="vocabulary"):
            base_config(vocab_size=16).validate()
        with pytest.raises(ValueError, match="listen"):
            run_node(base_config())
