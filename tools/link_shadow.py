"""Compare how the parent and the change time the link, on in-process loopback pairs.

    python3 tools/link_shadow.py run --parent DIR --change DIR --rows rows.jsonl
    python3 tools/link_shadow.py summarize --rows rows.jsonl

`run` draws the inputs with `specbench/live.py`'s `make_inputs` (wan-v256
seeds 1-3 with 10 inputs each, lan-v256 seed 1 with 8, at each workload's
token count and delays) and runs every input once per variant through
`runtime.run_loopback_pair`, each in a fresh process, alternating which
variant goes first:

    parent    the `src/` of the parent checkout;
    change    the `src/` of the change.

Each run appends one JSON row: whether both logs equal the expected log,
the device's first-to-last-token span, its switch count, the side decisions
made with no RTT estimate, and the frames sent.  `summarize` prints, per
workload and variant, those counts and the span ratio to the parent per
generation.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("parent", "change")
INPUT_SETS = (("wan-v256", 1, 10), ("wan-v256", 2, 10), ("wan-v256", 3, 10), ("lan-v256", 1, 8))


def _delay(extra_args: tuple[str, ...], flag: str) -> float:
    return float(extra_args[extra_args.index(flag) + 1]) if flag in extra_args else 0.0


def prepare(workdir: Path) -> Path:
    """Write the inputs of every set to one JSON file in workdir."""
    sys.path.insert(0, str(ROOT / "specbench"))
    import live

    sets = {}
    for workload, seed, count in INPUT_SETS:
        spec = live.WORKLOADS[workload]
        setdir = workdir / f"{workload}-{seed}"
        setdir.mkdir()
        corpus_path, inputs = live.make_inputs(spec, seed, setdir)
        sets[f"{workload} seed={seed}"] = {
            "vocab": spec.vocab,
            "new_tokens": spec.new_tokens,
            "decode_delay_ms": _delay(spec.extra_args, "--decode-delay-ms"),
            "link_delay_ms": _delay(spec.extra_args, "--link-delay-ms"),
            "corpus": str(corpus_path),
            "inputs": [
                {"prompt": g.prompt, "seed": g.seed, "expected": g.expected}
                for g in inputs[:count]
            ],
        }
    path = workdir / "inputs.json"
    path.write_text(json.dumps(sets))
    return path


def worker(variant: str, inputs_path: str, key: str, index: int) -> None:
    """One generation of one variant; prints its row."""
    import threading

    from specagg.common import Side
    from specagg.retrieval import load_corpus
    from specagg.runtime import NodeConfig, _NodeEngine, run_loopback_pair
    from specagg.transport import MessageStream

    entry = json.loads(Path(inputs_path).read_text())[key]
    gen = entry["inputs"][index]
    config = NodeConfig(
        role=Side.DEVICE,
        corpus=load_corpus(entry["corpus"], 64),
        prompt=gen["prompt"],
        vocab_size=entry["vocab"],
        max_new_tokens=entry["new_tokens"],
        max_context=len(gen["prompt"]) + entry["new_tokens"],
        seed=gen["seed"],
        decode_delay_ms=entry["decode_delay_ms"],
        link_delay_ms=entry["link_delay_ms"],
    )
    # counted per node thread: the two nodes run concurrently
    no_estimate: dict[str, int] = defaultdict(int)
    frames: dict[str, int] = defaultdict(int)
    schedule, send = _NodeEngine._schedule, MessageStream.send

    def counting_schedule(engine):
        no_estimate[threading.current_thread().name] += engine.rtt_ema is None
        return schedule(engine)

    def counting_send(stream, msg):
        frames[threading.current_thread().name] += 1
        return send(stream, msg)

    _NodeEngine._schedule = counting_schedule
    MessageStream.send = counting_send
    device, cloud = run_loopback_pair(config)
    expected = [[step, token, bool(a_l), bool(a_r)] for step, token, a_l, a_r in gen["expected"]]
    print(json.dumps({
        "variant": variant,
        "set": key,
        "index": index,
        "equal": all([list(e.key()) for e in r.target_log] == expected for r in (device, cloud)),
        "span_ms": sum(e.latency_ms for e in device.target_log[1:]),
        "switches": device.switches,
        "no_estimate": sum(no_estimate.values()),
        "frames": sum(frames.values()),
        "tokens": len(device.target_log),
    }))


def record(args: argparse.Namespace) -> int:
    sources = {"parent": Path(args.parent) / "src", "change": Path(args.change) / "src"}
    rows = Path(args.rows)
    with tempfile.TemporaryDirectory(dir=rows.parent) as workdir:
        inputs_path = prepare(Path(workdir))
        sets = json.loads(inputs_path.read_text())
        turn = 0
        for key, entry in sets.items():
            for index in range(len(entry["inputs"])):
                order = VARIANTS if turn % 2 == 0 else VARIANTS[::-1]
                turn += 1
                for variant in order:
                    env = dict(os.environ, PYTHONPATH=str(sources[variant]))
                    cmd = [sys.executable, __file__, "worker", variant, str(inputs_path), key,
                           str(index)]
                    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
                    if proc.returncode == 0:
                        row = json.loads(proc.stdout.splitlines()[-1])
                    else:
                        row = {"variant": variant, "set": key, "index": index,
                               "error": proc.stderr[-2000:]}
                    with rows.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps(row) + "\n")
                    print(f"{key} #{index} {variant} equal={row.get('equal')}", flush=True)
    return 0


def summarize(args: argparse.Namespace) -> int:
    rows = [json.loads(line) for line in Path(args.rows).read_text().splitlines() if line]
    gens: dict[tuple[str, int], dict[str, dict]] = defaultdict(dict)
    for row in rows:
        gens[(row["set"], row["index"])][row["variant"]] = row
    out = {}
    for workload in dict.fromkeys(key.split()[0] for key, _ in gens):
        runs = [g for (key, _), g in gens.items() if key.startswith(workload)]
        failed = {v: sum(v not in g or "error" in g[v] for g in runs) for v in VARIANTS}
        runs = [g for g in runs if all(v in g and "error" not in g[v] for v in VARIANTS)]
        summary = {"generations": len(runs), "failed": failed}
        for variant in VARIANTS:
            mine = [g[variant] for g in runs]
            entry = {
                "all_equal": all(r["equal"] for r in mine),
                "no_estimate": sum(r["no_estimate"] for r in mine),
                "no_estimate_max": max(r["no_estimate"] for r in mine),
                "frames_per_token": round(
                    sum(r["frames"] for r in mine) / sum(r["tokens"] for r in mine), 4
                ),
            }
            if variant != "parent":
                ratios = [g[variant]["span_ms"] / g["parent"]["span_ms"] for g in runs]
                entry.update(
                    span_ratio_median=round(statistics.median(ratios), 4),
                    slower=sum(x > 1.0 for x in ratios),
                    faster=sum(x < 1.0 for x in ratios),
                    switches_identical=sum(
                        g[variant]["switches"] == g["parent"]["switches"] for g in runs
                    ),
                )
            summary[variant] = entry
        out[workload] = summary
    print(json.dumps(out, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "worker":
        worker(argv[1], argv[2], argv[3], int(argv[4]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run every input once per variant")
    run_p.add_argument("--parent", required=True, help="checkout of the parent commit")
    run_p.add_argument("--change", required=True, help="checkout of the change")
    run_p.add_argument("--rows", required=True, help="JSON-lines file the runs append to")
    sum_p = sub.add_parser("summarize", help="print the per-workload comparison")
    sum_p.add_argument("--rows", required=True)
    args = parser.parse_args(argv)
    return record(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
