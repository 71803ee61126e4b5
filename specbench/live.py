"""Live workloads: a two-process `specagg node` pair over loopback TCP.

One closed-loop client (this harness) runs one node pair at a time.  The
cloud node is started first; the device node is started only once the
cloud's socket is in LISTEN state, read from /proc/net/tcp, so the device
never pays the connect retry sleep inside its TTFT.  While a pair runs the
harness blocks in wait4 under an interval timer; a pair that outlives the
timer is killed and counted as failed.
"""

from __future__ import annotations

import csv
import os
import re
import signal
import socket
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import SpanSet, covered

HERE = Path(__file__).resolve().parent
PAIR_BOUND_S = 30.0  # a pair that runs longer than this hangs; the run stops there
LISTEN_BOUND_S = 30.0
N_DOCS = 64
CHUNK = 64
PROMPT_LEN = (16, 32)


@dataclass(frozen=True)
class LiveSpec:
    vocab: int
    new_tokens: int
    distinct_inputs: int
    extra_args: tuple[str, ...] = ()
    simulator: bool = False  # the traced run also times simulator replays


WORKLOADS = {
    "lan-v256": LiveSpec(vocab=256, new_tokens=500, distinct_inputs=8),
    "lan-v32k": LiveSpec(vocab=32768, new_tokens=150, distinct_inputs=3),
    "wan-v256": LiveSpec(
        vocab=256,
        new_tokens=80,
        distinct_inputs=10,
        extra_args=("--decode-delay-ms", "10", "--link-delay-ms", "25", "--half", "auto"),
        simulator=True,
    ),
}


@dataclass
class GenInput:
    prompt: list[int]
    seed: int
    expected: list[tuple[int, int, int, int]]


@dataclass
class Generation:
    ok: bool
    error: str = ""
    tokens: int = 0
    itl_ms: list[float] = field(default_factory=list)
    ttft_ms: float = 0.0
    switches: int = 0
    accepted: tuple[int, int] = (0, 0)  # device drafts, cloud drafts
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def span_ms(self) -> float:
        return float(sum(self.itl_ms))

    @property
    def setup_s(self) -> float:
        return self.wall_s - (self.ttft_ms + self.span_ms) / 1000.0


def make_inputs(spec: LiveSpec, seed: int, workdir: Path) -> tuple[Path, list[GenInput]]:
    """Corpus, prompts and node seeds, all drawn from the workload seed.

    Expected logs come from `runtime.sequential_reference` here, in set-up,
    outside every timed window.
    """
    from specagg.common import Side
    from specagg.retrieval import load_corpus, random_corpus, save_corpus
    from specagg.runtime import NodeConfig, sequential_reference

    rng = np.random.default_rng(seed)
    corpus_path = workdir / "corpus.txt"
    save_corpus(random_corpus(N_DOCS, spec.vocab, int(rng.integers(2**31)), CHUNK), corpus_path)
    corpus = load_corpus(corpus_path, CHUNK)
    inputs = []
    for _ in range(spec.distinct_inputs):
        doc = corpus.docs[int(rng.integers(len(corpus.docs)))]
        length = int(rng.integers(PROMPT_LEN[0], PROMPT_LEN[1] + 1))
        start = int(rng.integers(0, len(doc.tokens) - length + 1))
        prompt = list(doc.tokens[start : start + length])
        node_seed = int(rng.integers(2**31))
        config = NodeConfig(
            role=Side.DEVICE,
            corpus=corpus,
            prompt=prompt,
            vocab_size=spec.vocab,
            max_new_tokens=spec.new_tokens,
            max_context=len(prompt) + spec.new_tokens,
            seed=node_seed,
        )
        expected = [
            (e.step, e.token, int(e.accept_l), int(e.accept_r))
            for e in sequential_reference(config)
        ]
        inputs.append(GenInput(prompt, node_seed, expected))
    return corpus_path, inputs


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _listening(port: int) -> bool:
    """True once 127.0.0.1:port is in LISTEN state; never connects."""
    local = f"0100007F:{port:04X}"
    with open("/proc/net/tcp", encoding="ascii") as fh:
        next(fh)
        for line in fh:
            fields = line.split()
            if fields[1] == local and fields[3] == "0A":
                return True
    return False


class _Hang(Exception):
    pass


HANG = "killed after the time bound"


def _on_alarm(signum, frame):
    raise _Hang


def _spawn(argv: list[str], out: Path, env: dict[str, str]) -> int:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    return os.posix_spawn(
        argv[0],
        argv,
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out) + ".out", flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", flags, 0o644),
        ],
    )


def _kill_and_reap(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        try:
            os.wait4(pid, 0)
        except ChildProcessError:
            pass


def _read_rows(path: Path) -> list[tuple[int, int, int, int, float]]:
    with open(path, newline="", encoding="ascii") as fh:
        return [
            (int(r["step"]), int(r["token"]), int(r["accept_l"]), int(r["accept_r"]),
             float(r["latency_ms"]))
            for r in csv.DictReader(fh)
        ]


_SUMMARY = re.compile(r"ttft_ms=([0-9.]+) .*switches=(\d+)")


def run_pair(
    spec: LiveSpec,
    corpus_path: Path,
    gen_input: GenInput,
    workdir: Path,
    generation: int,
    env: dict[str, str],
    traced: bool,
) -> Generation:
    """One generation on a fresh node pair; outputs checked against the oracle."""
    port = free_port()
    tag = f"g{generation}{'t' if traced else 'p'}"
    files = {role: workdir / f"{tag}-{role}" for role in ("cloud", "device")}
    common = [
        "--corpus", str(corpus_path),
        "--prompt", " ".join(map(str, gen_input.prompt)),
        "--vocab", str(spec.vocab),
        "--max-new-tokens", str(spec.new_tokens),
        "--max-context", str(len(gen_input.prompt) + spec.new_tokens),
        "--seed", str(gen_input.seed),
        *spec.extra_args,
    ]

    def argv(role: str, endpoint: list[str]) -> list[str]:
        node = ["node", "--role", role, *endpoint, "--csv", f"{files[role]}.csv", *common]
        if role == "device" and traced:
            node += ["--profile-csv", f"{files[role]}.profile.csv"]
        if traced:
            return [sys.executable, str(HERE / "traced_node.py"), f"{files[role]}.npz", str(generation), "--", *node]
        return [sys.executable, "-m", "specagg.cli", *node]

    gen = Generation(ok=False, files=files)
    pids: dict[int, str] = {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, PAIR_BOUND_S)
        cloud = _spawn(argv("cloud", ["--listen", f"127.0.0.1:{port}"]), files["cloud"], env)
        pids[cloud] = "cloud"
        listen_deadline = started + LISTEN_BOUND_S
        while not _listening(port):
            done, status, _ = os.wait4(cloud, os.WNOHANG)
            if done:
                del pids[cloud]
                raise RuntimeError(f"cloud exited with status {status} before listening")
            if time.perf_counter() > listen_deadline:
                raise RuntimeError("cloud did not listen in time")
            time.sleep(0.002)
        device = _spawn(argv("device", ["--connect", f"127.0.0.1:{port}"]), files["device"], env)
        pids[device] = "device"
        statuses = {}
        while pids:
            pid, status, usage = os.wait4(-1, 0)
            role = pids.pop(pid, None)
            if role is None:
                continue
            statuses[role] = status
            gen.cpu_s += usage.ru_utime + usage.ru_stime
            gen.maxrss_kb = max(gen.maxrss_kb, usage.ru_maxrss)  # the larger node
        gen.wall_s = time.perf_counter() - started
    except _Hang:
        gen.error = f"{HANG} of {PAIR_BOUND_S:.0f} s"
        return gen
    except RuntimeError as exc:
        gen.error = str(exc)
        return gen
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _kill_and_reap(list(pids))

    for role, status in statuses.items():
        if status != 0:
            err = Path(f"{files[role]}.err").read_text(errors="replace").strip()
            gen.error = f"{role} exited with status {status}: {err[-300:]}"
            return gen
    try:
        rows = {role: _read_rows(Path(f"{files[role]}.csv")) for role in files}
    except (OSError, KeyError, ValueError) as exc:
        gen.error = f"unreadable metrics CSV: {exc}"
        return gen
    for role, role_rows in rows.items():
        if [r[:4] for r in role_rows] != gen_input.expected:
            gen.error = f"{role} log differs from sequential_reference"
            return gen
    summary = _SUMMARY.search(Path(f"{files['device']}.out").read_text())
    if summary is None:
        gen.error = "device printed no summary line"
        return gen
    gen.ok = True
    gen.tokens = len(rows["device"])
    gen.itl_ms = [r[4] for r in rows["device"][1:]]
    gen.ttft_ms = float(summary.group(1))
    gen.switches = int(summary.group(2))
    gen.accepted = (sum(r[2] for r in rows["device"]), sum(r[3] for r in rows["device"]))
    return gen


def run_generations(
    spec: LiveSpec, seed: int, seconds: float, workdir: Path, env: dict[str, str], modes
) -> tuple[dict[bool, list[Generation]], dict[str, float]]:
    """Closed loop over the inputs until `seconds` of pair wall time passed.

    `modes` is the tuple of traced flags run back to back on each input, so a
    traced run alternates plain and traced pairs on the same inputs.
    """
    began = time.perf_counter()
    corpus_path, inputs = make_inputs(spec, seed, workdir)
    info = {"inputs": len(inputs), "setup_s": time.perf_counter() - began}
    gens: dict[bool, list[Generation]] = {mode: [] for mode in modes}
    measured = 0.0
    idx = 0
    hung = False
    while not hung and (idx < 2 or measured < seconds):
        gen_input = inputs[idx % len(inputs)]
        for traced in modes:
            began = time.perf_counter()
            gen = run_pair(spec, corpus_path, gen_input, workdir, idx, env, traced)
            measured += time.perf_counter() - began
            gens[traced].append(gen)
            if not gen.ok:
                print(f"# generation {idx} ({'traced' if traced else 'plain'}) failed: {gen.error}")
                hung = hung or gen.error.startswith(HANG)
        idx += 1
    return gens, info


def end_to_end(gens: list[Generation]) -> dict[str, float]:
    ok = [g for g in gens if g.ok]
    if not ok:
        return {}
    itl = np.array([x for g in ok for x in g.itl_ms])
    tokens = sum(g.tokens for g in ok)
    print(f"# itl samples={itl.size} generations={len(ok)} tokens={tokens}")
    return {
        "tokens_per_s": sum(g.tokens - 1 for g in ok) / (sum(g.span_ms for g in ok) / 1000.0),
        "itl_p50_ms": float(np.percentile(itl, 50)),
        "itl_p95_ms": float(np.percentile(itl, 95)),
        "ttft_p50_ms": statistics.median(g.ttft_ms for g in ok),
        "cpu_ms_per_token": 1000.0 * sum(g.cpu_s for g in ok) / tokens,
        "peak_rss_mb": statistics.median(g.maxrss_kb for g in ok) / 1024.0,
        "setup_s": statistics.median(g.setup_s for g in ok),
    }


def _pred_err(path: Path) -> list[float]:
    with open(path, newline="", encoding="ascii") as fh:
        return [
            abs(float(r["c_dec_pred"]) - float(r["c_dec_obs"])) / float(r["c_dec_obs"])
            for r in csv.DictReader(fh)
            if float(r["c_dec_obs"]) > 0
        ]


def per_layer(traced: list[Generation], plain: list[Generation]) -> dict[str, float]:
    """Layer metrics from the traced pairs' spans, counters and outputs."""
    ok = [g for g in traced if g.ok]
    if not ok:
        return {}
    spans = SpanSet([Path(f"{g.files[role]}.npz") for g in ok for role in ("cloud", "device")])
    tokens = sum(g.tokens for g in ok)
    self_ms = wait_ms = 0.0
    pred_err: list[float] = []
    for g in ok:
        device = SpanSet([Path(f"{g.files['device']}.npz")])
        root = device.intervals("runtime.run_node")
        lo = float(root[0, 0]) + g.ttft_ms / 1000.0
        hi = lo + g.span_ms / 1000.0
        waits = device.intervals("transport.recv_wait")
        layers = [device.intervals(n) for n in device.by_name if n != "runtime.run_node"]
        busy = covered(np.concatenate(layers), lo, hi)
        self_ms += g.span_ms - 1000.0 * busy
        wait_ms += 1000.0 * float(np.diff(np.clip(waits, lo, hi), axis=1).sum())
        pred_err += _pred_err(Path(f"{g.files['device']}.profile.csv"))
    aggregates = spans.calls("aggregator.aggregate")
    cache = spans.counters["cache_hits"] + spans.counters["cache_misses"]
    traced_tps = end_to_end(ok)["tokens_per_s"]
    plain_e2e = end_to_end(plain)
    return {
        "decoder.local_mixture_us": spans.mean_us("decoder.local_mixture"),
        "decoder.decode_step_us": spans.mean_us("decoder.decode_step"),
        "decoder.rerank_us": spans.mean_us("decoder.rerank"),
        "dists.topp_encode_us": spans.mean_us("dists.topp_encode"),
        "dists.topp_decode_us": spans.mean_us("dists.topp_decode"),
        "dists.kept_tokens": spans.counters["kept_tokens"] / max(1, spans.calls("dists.topp_encode")),
        "aggregator.aggregate_us": spans.mean_us("aggregator.aggregate"),
        "runtime.self_ms_per_token": self_ms / tokens,
        "transport.send_us": spans.mean_us("transport.send"),
        "transport.recv_wait_ms_per_token": wait_ms / tokens,
        "transport.frames_per_token": spans.calls("transport.send") / tokens,
        "transport.bytes_per_token": spans.counters["bytes_sent"] / tokens,
        "scheduler.switches_per_100_tokens": 100.0 * sum(g.switches for g in ok) / tokens,
        "scheduler.choose_side_us": spans.mean_us("scheduler.choose_side"),
        "aggregator.accept_l": sum(g.accepted[0] for g in ok) / tokens,
        "aggregator.accept_r": sum(g.accepted[1] for g in ok) / tokens,
        "aggregator.rejection_share": spans.counters["resampled"] / max(1, aggregates),
        "decoder.decodes_per_token": spans.calls("decoder.decode_step") / tokens,
        "decoder.rollbacks_per_100_tokens": 100.0 * spans.calls("decoder.rollback") / tokens,
        "profiler.observe_decode_us": spans.mean_us("profiler.observe_decode"),
        "profiler.decode_pred_err": statistics.median(pred_err) if pred_err else 0.0,
        "retrieval.retrieve_us": spans.mean_us("retrieval.retrieve"),
        "decoder.conditional_cache_hit_ratio": spans.counters["cache_hits"] / max(1.0, cache),
        "trace.overhead_ratio": traced_tps / plain_e2e["tokens_per_s"] if plain_e2e else 0.0,
    }
