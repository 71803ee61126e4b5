"""Time the engine's own work on the tokens a node redrafts after its draft was rejected.

    python3 tools/token_path.py run --parent DIR --change DIR --rows rows.jsonl \\
        [--workload wan-v256] [--seed 1] [--generations 10]
    python3 tools/token_path.py summarize --rows rows.jsonl

The token timed is the common one on a delayed link: a node's draft is
rejected, by its own aggregation (kind "local") or by the peer's outcome
that hands it the role (kind "remote"); it rolls back, waits its injected
decode delay, drafts again and aggregates the step with the peer's draft
that is already queued.  Along that token the node marks, on its own
monotonic clock:

    t0  the rollback of its rejected draft returns;
    t1  the redraft's timer starts (its due time less the decode delay);
    t2  the redraft falls due;
    t3  `_finish_decode` starts the redraft;
    t4  `_finish_decode` returns;
    t5  the next outcome is handed to `MessageStream.send`;
    tw  the write that carries that outcome returns.

and reports the segments rollback_to_timer (t1 - t0), overshoot (t3 - t2),
own_draft (t4 - t3), aggregation (t5 - t4) and write (tw - t5), in µs.  A
token whose peer draft was not queued when the redraft started, or whose
next step the peer aggregated, is left out.  Each node also counts the
frames it sent (`MessageStream.send` calls) and its socket writes, and
keeps its inter-token latencies, as the benchmark reads them from the
device.

`run` draws the inputs with `specbench/live.py`'s `make_inputs` for the
workload and seed, and runs generations on them in turn.  Each generation
runs once per variant, the parent's and the change's `src/`, alternating
which goes first; each run is a node pair of two fresh processes over
loopback TCP, each timing itself.  Each run appends one JSON row per node.
`summarize` prints, per variant, the frames and writes per token, whether
every log equalled the expected one and the device's inter-token latency
median over all tokens; per kind, the timed tokens' share of the device's
latency samples, their latency median and the median of each segment; and
the change's medians less the parent's.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("parent", "change")
SEGMENTS = ("rollback_to_timer", "overshoot", "own_draft", "aggregation", "write")
PAIR_TIMEOUT_S = 120.0


def _delay(extra_args: tuple[str, ...], flag: str) -> float:
    return float(extra_args[extra_args.index(flag) + 1]) if flag in extra_args else 0.0


def prepare(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's inputs for `seed` to one JSON file in workdir."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "specbench")]
    import live

    spec = live.WORKLOADS[workload]
    corpus_path, inputs = live.make_inputs(spec, seed, workdir)
    entry = {
        "vocab": spec.vocab,
        "new_tokens": spec.new_tokens,
        "decode_delay_ms": _delay(spec.extra_args, "--decode-delay-ms"),
        "link_delay_ms": _delay(spec.extra_args, "--link-delay-ms"),
        "corpus": str(corpus_path),
        "inputs": [{"prompt": g.prompt, "seed": g.seed, "expected": g.expected} for g in inputs],
    }
    path = workdir / "inputs.json"
    path.write_text(json.dumps(entry))
    return path


def worker(role: str, port: int, inputs_path: str, index: int) -> dict:
    """Run one node of a pair with the token-path marks installed; its row."""
    import time

    from specagg import runtime
    from specagg.common import Side
    from specagg.retrieval import load_corpus
    from specagg.runtime import NodeConfig, _NodeEngine, run_node
    from specagg.transport import MessageStream, TargetMsg

    entry = json.loads(Path(inputs_path).read_text())
    gen = entry["inputs"][index]
    side = Side(role)
    endpoint = ("127.0.0.1", port)
    config = NodeConfig(
        role=side,
        corpus=load_corpus(entry["corpus"], 64),
        prompt=gen["prompt"],
        vocab_size=entry["vocab"],
        max_new_tokens=entry["new_tokens"],
        max_context=len(gen["prompt"]) + entry["new_tokens"],
        seed=gen["seed"],
        decode_delay_ms=entry["decode_delay_ms"],
        link_delay_ms=entry["link_delay_ms"],
        listen=endpoint if side is Side.CLOUD else None,
        peer=endpoint if side is Side.DEVICE else None,
    )
    clock = time.perf_counter
    delay_s = config.decode_delay_ms / 1000.0
    marks: dict[str, float] = {}
    counts = {"frames": 0, "writes": 0}
    timed: list[list[float]] = []
    pending: dict | None = None  # the token under way, up to its redraft
    closing: dict | None = None  # a redrafted token whose outcome is on its way out
    rollback = runtime.rollback
    apply, start = _NodeEngine._apply_outcome, _NodeEngine._start_decode
    finish, send, sendall = _NodeEngine._finish_decode, MessageStream.send, socket.socket.sendall

    def marked_rollback(*args):
        rollback(*args)
        marks["rollback"] = clock()

    def marked_apply(self, step, target, accept_l, accept_r):
        nonlocal pending, closing
        aggregating = self.current_agg is self.role
        own_accepted = accept_l if self.role is Side.DEVICE else accept_r
        apply(self, step, target, accept_l, accept_r)
        if pending is not None and (not aggregating or step > pending["step"]):
            # redrafted and aggregated here: it closes at the outcome's write;
            # otherwise the peer aggregated the step
            redrafted = aggregating and "t4" in pending and step == pending["step"] + 1
            closing = pending if redrafted else None
            pending = None
        if not own_accepted:
            t0, timer = marks["rollback"], marks.get("timer", -1.0)
            pending = {"step": step, "kind": "local" if aggregating else "remote",
                       "t0": t0, "t1": timer if timer >= t0 else None}

    def marked_start(self):
        idle = self.decode_due is None
        start(self)
        if idle and self.decode_due is not None:
            marks["timer"] = self.decode_due - delay_s
            if pending is not None and pending["t1"] is None:
                pending["t1"] = marks["timer"]

    def marked_finish(self):
        nonlocal pending
        t3, due = clock(), self.decode_due
        peer_queue = self.queues[self.role.other]
        drafted = finish(self)
        if drafted and pending is not None and pending["t1"] is not None and "t3" not in pending:
            ready = bool(peer_queue) and peer_queue[0].step == pending["step"] + 1
            if ready:
                pending.update(t2=due, t3=t3, t4=clock())
            else:
                pending = None
        return drafted

    def marked_send(stream, msg, *args, **kwargs):
        counts["frames"] += 1
        if closing is not None and isinstance(msg, TargetMsg) and msg.step == closing["step"] + 1:
            closing["t5"] = clock()
        return send(stream, msg, *args, **kwargs)

    def marked_sendall(sock, data, *args):
        nonlocal closing
        out = sendall(sock, data, *args)
        counts["writes"] += 1
        if closing is not None and "t5" in closing:
            c, tw = closing, clock()
            timed.append({"step": c["step"] + 1, "kind": c["kind"], "us": [
                round(1e6 * (b - a), 2) for a, b in (
                    (c["t0"], c["t1"]), (c["t2"], c["t3"]), (c["t3"], c["t4"]),
                    (c["t4"], c["t5"]), (c["t5"], tw),
                )
            ]})
            closing = None
        return out

    runtime.rollback = marked_rollback
    _NodeEngine._apply_outcome = marked_apply
    _NodeEngine._start_decode = marked_start
    _NodeEngine._finish_decode = marked_finish
    MessageStream.send = marked_send
    socket.socket.sendall = marked_sendall
    result = run_node(config)
    expected = [[step, token, bool(a_l), bool(a_r)] for step, token, a_l, a_r in gen["expected"]]
    return {
        "role": role,
        "equal": [list(e.key()) for e in result.target_log] == expected,
        "tokens": len(result.target_log),
        **counts,
        "timed": timed,
        "latency_ms": [round(e.latency_ms, 4) for e in result.target_log[1:]],
    }


def run_pair(src: Path, inputs_path: Path, index: int) -> list[dict]:
    """One generation on a node pair of two fresh processes; one row per node."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = {
        role: subprocess.Popen(
            [sys.executable, __file__, "worker", role, str(port), str(inputs_path), str(index)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for role in ("cloud", "device")  # the device's connect retries until the cloud listens
    }
    rows = []
    for role, proc in procs.items():
        try:
            out, err = proc.communicate(timeout=PAIR_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        if proc.returncode == 0:
            rows.append(json.loads(out.splitlines()[-1]))
        else:
            rows.append({"role": role, "error": err[-2000:]})
    return rows


def record(args: argparse.Namespace) -> int:
    sources = {"parent": Path(args.parent) / "src", "change": Path(args.change) / "src"}
    rows_path = Path(args.rows)
    with tempfile.TemporaryDirectory(dir=rows_path.parent) as workdir:
        inputs_path = prepare(args.workload, args.seed, Path(workdir))
        count = len(json.loads(inputs_path.read_text())["inputs"])
        for gen in range(args.generations):
            order = VARIANTS if gen % 2 == 0 else VARIANTS[::-1]
            for variant in order:
                rows = run_pair(sources[variant], inputs_path, gen % count)
                with rows_path.open("a", encoding="utf-8") as fh:
                    for row in rows:
                        row.update(variant=variant, generation=gen, workload=args.workload)
                        fh.write(json.dumps(row) + "\n")
                ok = all(r.get("equal") for r in rows)
                print(f"{args.workload} #{gen} {variant} equal={ok}", flush=True)
    return 0


def _medians(timed: list[dict]) -> dict:
    medians = {
        name: round(statistics.median(t["us"][i] for t in timed), 1)
        for i, name in enumerate(SEGMENTS)
    }
    return {**medians, "sum": round(sum(medians.values()), 1)}


def summarize_rows(rows: list[dict]) -> dict:
    """Per variant: counts per token, equality and the device's inter-token
    latency median in ms; per kind of timed token, its share of the device's
    latency samples, their median and the segment medians in µs."""
    out: dict[str, dict] = {}
    for variant in VARIANTS:
        mine = [r for r in rows if r["variant"] == variant]
        ok = [r for r in mine if "error" not in r]
        tokens = sum(r["tokens"] for r in ok)
        entry: dict = {
            "nodes": len(ok),
            "failed": len(mine) - len(ok),
            "all_equal": bool(ok) and all(r["equal"] for r in ok),
            "frames_per_token": round(sum(r["frames"] for r in ok) / tokens, 4) if tokens else 0.0,
            "writes_per_token": round(sum(r["writes"] for r in ok) / tokens, 4) if tokens else 0.0,
        }
        itl: list[float] = []
        timed: dict[str, list[tuple[dict, float]]] = {}
        for device in (r for r in ok if r["role"] == "device"):
            latency = device["latency_ms"]  # step k's latency sits at k - 1
            itl += latency
            for node in (r for r in ok if r["generation"] == device["generation"]):
                for t in node["timed"]:
                    timed.setdefault(t["kind"], []).append((t, latency[t["step"] - 1]))
        if itl:
            entry["itl_p50_ms"] = round(statistics.median(itl), 4)
        for kind, pairs in sorted(timed.items()):
            entry[kind] = {
                "tokens": len(pairs),
                "share_of_itl_samples": round(len(pairs) / len(itl), 4),
                "itl_p50_ms": round(statistics.median(ms for _, ms in pairs), 4),
                "median_us": _medians([t for t, _ in pairs]),
            }
        out[variant] = entry
    parent, change = out["parent"], out["change"]
    less: dict = {}
    if "itl_p50_ms" in parent and "itl_p50_ms" in change:
        less["itl_p50_us"] = round(1000.0 * (change["itl_p50_ms"] - parent["itl_p50_ms"]), 1)
    for kind in ("local", "remote"):
        if kind in parent and kind in change:
            p, c = parent[kind], change[kind]
            less[kind] = {k: round(c["median_us"][k] - v, 1) for k, v in p["median_us"].items()}
            less[kind]["itl_p50_us"] = round(1000.0 * (c["itl_p50_ms"] - p["itl_p50_ms"]), 1)
    out["change_less_parent_us"] = less
    return out


def summarize(args: argparse.Namespace) -> int:
    rows = [json.loads(line) for line in Path(args.rows).read_text().splitlines() if line]
    print(json.dumps(summarize_rows(rows), indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "worker":
        print(json.dumps(worker(argv[1], int(argv[2]), argv[3], int(argv[4]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run generations alternately on both trees")
    run_p.add_argument("--parent", required=True, help="checkout of the parent commit")
    run_p.add_argument("--change", required=True, help="checkout of the change")
    run_p.add_argument("--rows", required=True, help="JSON-lines file the runs append to")
    run_p.add_argument("--workload", default="wan-v256")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--generations", type=int, default=10)
    sum_p = sub.add_parser("summarize", help="print the per-variant segment medians")
    sum_p.add_argument("--rows", required=True)
    args = parser.parse_args(argv)
    return record(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
