import socket
import threading
import time
import zlib

import numpy as np
import pytest

from specagg.common import Side
from specagg.dists import CompressedDist
from specagg import transport
from specagg.transport import (
    HEADER,
    Bye,
    Codec,
    ConnectionClosedError,
    DelayedInbox,
    DraftMsg,
    FrameLengthError,
    Hello,
    MalformedMessageError,
    MsgType,
    ProbeKind,
    ProbeMsg,
    TargetMsg,
    TruncatedFrameError,
    UnknownCodecError,
    UnknownMessageTypeError,
    connect,
    decode_frame,
    decode_stream,
    encode_frame,
    listen_once,
)
from specagg.verify import FUZZ_VOCAB, random_message


def raw_draft(token, ids, values, vocab_size=100):
    """A draft frame packed by hand, so its distribution can break the invariants."""
    pairs = np.empty(len(ids), dtype=transport._PAIR_DTYPE)
    pairs["id"] = ids
    pairs["value"] = values
    body = (
        transport._DRAFT_FIXED.pack(0, token, 0.0, 1.0)
        + transport._DIST_HEAD.pack(len(ids), vocab_size)
        + pairs.tobytes()
    )
    return HEADER.pack(MsgType.DRAFT, Codec.NONE, len(body)) + body


def two_pair_dist():
    return CompressedDist(
        vocab_size=100,
        token_ids=np.array([3, 17], dtype=np.uint32),
        values=np.array([0.5, 0.25], dtype=np.float16),
    )


class TestFrameLayout:
    def test_hello_is_six_bytes(self):
        frame = encode_frame(Hello())
        assert frame == bytes([5, 0, 0, 0, 0, 0])

    def test_bye_type_byte(self):
        assert encode_frame(Bye())[0] == MsgType.BYE

    def test_draft_body_length(self):
        msg = DraftMsg(step=1, token=17, h=-2.5, decode_ms=3.0, dist=two_pair_dist())
        frame = encode_frame(msg)
        # step + token + h + decode_ms, then count + vocab + 2 * (id + f16)
        assert len(frame) - 6 == (4 + 4 + 8 + 4) + (4 + 4 + 2 * (4 + 2)) == 40

    def test_header_fields_little_endian(self):
        frame = encode_frame(TargetMsg(step=0, target=0, accept_l=True, accept_r=False))
        assert frame[0] == MsgType.TARGET
        assert frame[1] == Codec.NONE
        assert int.from_bytes(frame[2:6], "little") == len(frame) - 6


class TestRoundTrips:
    def test_draft_exact(self):
        msg = DraftMsg(step=9, token=3, h=1.25, decode_ms=0.5, dist=two_pair_dist())
        decoded, used = decode_frame(encode_frame(msg))
        assert used == len(encode_frame(msg))
        assert decoded == msg

    @pytest.mark.parametrize("switch", [None, Side.DEVICE, Side.CLOUD])
    def test_target_switch_variants(self, switch):
        msg = TargetMsg(step=4, target=7, accept_l=False, accept_r=True, switch_to=switch)
        decoded, _ = decode_frame(encode_frame(msg))
        assert decoded == msg

    def test_switch_and_probe(self):
        # the aggregator switch rides on the outcome; probes carry no payload
        for msg in (
            TargetMsg(step=2, target=5, accept_l=True, accept_r=True, switch_to=Side.CLOUD),
            *(ProbeMsg(kind=kind, seq=11, t_send=123.5) for kind in ProbeKind),
        ):
            decoded, _ = decode_frame(encode_frame(msg))
            assert decoded == msg

    def test_block_codec_round_trip(self):
        msg = DraftMsg(step=1, token=3, h=0.0, decode_ms=1.0, dist=two_pair_dist())
        frame = encode_frame(msg, Codec.BLOCK)
        assert frame[1] == Codec.BLOCK
        decoded, _ = decode_frame(frame)
        assert decoded == msg

    def test_random_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            msg = random_message(rng)
            decoded, _ = decode_frame(encode_frame(msg))
            assert decoded == msg

    def test_stream_self_delimiting(self):
        rng = np.random.default_rng(1)
        msgs = [random_message(rng) for _ in range(40)]
        blob = b"".join(encode_frame(m) for m in msgs)
        assert decode_stream(blob) == msgs


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(b"\x05\x00\x00")

    def test_truncated_body(self):
        frame = encode_frame(TargetMsg(step=1, target=2, accept_l=True, accept_r=True))
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:-3])

    def test_unknown_type(self):
        for msg_type in (99, 3):  # 3 was the retired switch message
            with pytest.raises(UnknownMessageTypeError):
                decode_frame(bytes([msg_type, 0, 0, 0, 0, 0]))

    def test_unknown_codec(self):
        with pytest.raises(UnknownCodecError):
            decode_frame(bytes([5, 7, 0, 0, 0, 0]))

    def test_length_mismatch(self):
        good = encode_frame(TargetMsg(step=1, target=2, accept_l=True, accept_r=True))
        padded = good[:2] + (len(good) - 6 + 1).to_bytes(4, "little") + good[6:] + b"\x00"
        with pytest.raises(FrameLengthError):
            decode_frame(padded)

    def test_nonempty_hello_rejected(self):
        with pytest.raises(FrameLengthError):
            decode_frame(bytes([5, 0, 1, 0, 0, 0, 42]))

    @pytest.mark.parametrize(
        "frame",
        [
            encode_frame(ProbeMsg(ProbeKind.ECHO_REQUEST, seq=1, t_send=0.0))[:6]
            + bytes([9])
            + encode_frame(ProbeMsg(ProbeKind.ECHO_REQUEST, seq=1, t_send=0.0))[7:],
            raw_draft(3, [17, 3], [0.5, 0.25]),  # ids not increasing
            raw_draft(3, [3, 17], [0.5, 0.0]),  # zero mass
            raw_draft(3, [3, 170], [0.5, 0.25]),  # id outside the vocabulary
            raw_draft(3, [], []),  # empty
        ],
        ids=["probe-kind-9", "ids-decreasing", "zero-value", "id-outside-vocab", "empty"],
    )
    def test_malformed_body(self, frame):
        with pytest.raises(MalformedMessageError):
            decode_frame(frame)


class TestSizeDiscipline:
    def test_draft_with_64_kept_tokens_under_450_bytes(self):
        ids = (np.arange(64, dtype=np.uint32) * 700).astype(np.uint32)
        values = np.full(64, 1.0 / 64.0, dtype=np.float16)
        msg = DraftMsg(
            step=1000,
            token=0,
            h=-1.0,
            decode_ms=50.0,
            dist=CompressedDist(vocab_size=50_272, token_ids=ids, values=values),
        )
        assert len(encode_frame(msg)) < 450

    def test_far_below_dense_encoding(self):
        # a dense f32 vector over the same vocabulary would be ~200 KB
        dense_bytes = 50_272 * 4
        ids = np.arange(32, dtype=np.uint32)
        values = np.full(32, 1.0 / 32.0, dtype=np.float16)
        msg = DraftMsg(
            step=0, token=0, h=0.0, decode_ms=1.0,
            dist=CompressedDist(vocab_size=50_272, token_ids=ids, values=values),
        )
        assert len(encode_frame(msg)) * 400 < dense_bytes


def loopback_pair(vocab_size=FUZZ_VOCAB):
    result = {}

    # bind a real port first so the client knows where to go
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def serve_on_port():
        result["server"], _ = listen_once("127.0.0.1", port, vocab_size=vocab_size)

    thread = threading.Thread(target=serve_on_port, daemon=True)
    thread.start()
    client = connect("127.0.0.1", port, vocab_size=vocab_size)
    thread.join(timeout=5.0)
    return client, result["server"]


class TestLiveStream:
    def test_in_order_delivery(self):
        client, server = loopback_pair()
        rng = np.random.default_rng(2)
        msgs = [random_message(rng) for _ in range(200)]
        for m in msgs:
            client.send(m)
        got = [server.recv() for _ in msgs]
        assert got == msgs
        client.close()
        server.close()

    def test_full_duplex_no_corruption(self):
        client, server = loopback_pair()
        n = 150

        def blast(stream, step0):
            for i in range(n):
                stream.send(TargetMsg(step=step0 + i, target=i, accept_l=True, accept_r=False))

        t1 = threading.Thread(target=blast, args=(client, 0), daemon=True)
        t2 = threading.Thread(target=blast, args=(server, 10_000), daemon=True)
        t1.start(), t2.start()
        from_client = [server.recv() for _ in range(n)]
        from_server = [client.recv() for _ in range(n)]
        t1.join(), t2.join()
        assert [m.step for m in from_client] == list(range(n))
        assert [m.step for m in from_server] == list(range(10_000, 10_000 + n))
        client.close()
        server.close()

    def test_peer_close_raises(self):
        client, server = loopback_pair()
        client.close()
        with pytest.raises(ConnectionClosedError):
            server.recv()
        server.close()

    def test_reset_mid_frame_is_truncation(self):
        client, server = loopback_pair()
        frame = encode_frame(TargetMsg(step=1, target=2, accept_l=True, accept_r=True))
        client._sock.sendall(frame[:8])  # header + 2 body bytes, then vanish
        client.close()
        with pytest.raises(TruncatedFrameError):
            server.recv()
        server.close()

    def test_delay_shim_injects_latency(self):
        client, server = loopback_pair()
        inbox = DelayedInbox(server, delay_ms=300.0)
        sent_at = time.perf_counter()
        client.send(Hello())
        got = inbox.recv(timeout=5.0)
        elapsed_ms = (time.perf_counter() - sent_at) * 1000.0
        assert isinstance(got, Hello)
        assert elapsed_ms >= 300.0
        inbox.close()
        client.close()
        server.close()

    def test_delay_shim_does_not_serialize_throughput(self):
        client, server = loopback_pair()
        inbox = DelayedInbox(server, delay_ms=200.0)
        n = 20
        sent_at = time.perf_counter()
        for i in range(n):
            client.send(TargetMsg(step=i, target=0, accept_l=True, accept_r=True))
        got = [inbox.recv(timeout=5.0) for _ in range(n)]
        elapsed_ms = (time.perf_counter() - sent_at) * 1000.0
        assert [m.step for m in got] == list(range(n))
        # latency applies once, not per message
        assert elapsed_ms < 2 * 200.0
        inbox.close()
        client.close()
        server.close()


class TestFrameBounds:
    """A stream bounds each frame by the largest legal one for its vocabulary."""

    VOCAB = 16

    def test_limit_is_a_full_draft(self):
        ids = np.arange(self.VOCAB, dtype=np.uint32)
        values = np.full(self.VOCAB, 1.0 / self.VOCAB, dtype=np.float16)
        full = DraftMsg(
            step=0, token=0, h=0.0, decode_ms=1.0,
            dist=CompressedDist(vocab_size=self.VOCAB, token_ids=ids, values=values),
        )
        assert len(encode_frame(full)) - HEADER.size == transport.max_body_len(self.VOCAB)
        client, server = loopback_pair(self.VOCAB)
        client.send(full)
        assert server.recv() == full
        client.close()
        server.close()

    def test_oversized_header_rejected_before_reading(self):
        client, server = loopback_pair(self.VOCAB)
        # announces 1 GB but sends nothing more: the check must not wait for it
        client._sock.sendall(HEADER.pack(MsgType.DRAFT, Codec.NONE, 1 << 30))
        with pytest.raises(FrameLengthError, match="exceeds"):
            server.recv()
        assert server.bytes_received == 0
        client.close()
        server.close()

    def test_inflation_capped(self):
        client, server = loopback_pair(self.VOCAB)
        bomb = zlib.compress(bytes(100_000))
        assert len(bomb) < transport.max_body_len(self.VOCAB)
        client._sock.sendall(HEADER.pack(MsgType.DRAFT, Codec.BLOCK, len(bomb)) + bomb)
        with pytest.raises(FrameLengthError, match="inflates"):
            server.recv()
        client.close()
        server.close()

    @pytest.mark.parametrize(
        "frame",
        [
            raw_draft(3, [3, 7], [0.5, 0.5], vocab_size=VOCAB + 1),  # another vocabulary
            raw_draft(5, [3, 7], [0.5, 0.5], vocab_size=VOCAB),  # token not kept
        ],
        ids=["vocab-mismatch", "token-not-kept"],
    )
    def test_draft_disagreeing_with_stream(self, frame):
        client, server = loopback_pair(self.VOCAB)
        client._sock.sendall(frame)
        with pytest.raises(MalformedMessageError):
            server.recv()
        client.close()
        server.close()

    def test_truncated_compressed_body(self):
        body = zlib.compress(b"")[:-4]  # adler32 trailer cut off
        with pytest.raises(FrameLengthError):
            decode_frame(HEADER.pack(MsgType.HELLO, Codec.BLOCK, len(body)) + body)

    def test_same_timeout_on_both_roles(self):
        client, server = loopback_pair(self.VOCAB)
        assert client._sock.gettimeout() == server._sock.gettimeout() == transport.FRAME_TIMEOUT_S
        client.close()
        server.close()

    def test_stall_mid_frame_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "FRAME_TIMEOUT_S", 0.2)
        client, server = loopback_pair(self.VOCAB)
        frame = encode_frame(TargetMsg(step=1, target=2, accept_l=True, accept_r=True))
        client._sock.sendall(frame[:8])  # header + 2 body bytes, then silence
        started = time.perf_counter()
        with pytest.raises(TruncatedFrameError):
            server.recv()
        assert time.perf_counter() - started < 5.0
        client.close()
        server.close()
