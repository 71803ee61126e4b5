"""Self-test of the benchmark: a short plain and a short traced run of every workload.

    python3 specbench/selftest.py [--seconds 2] [--seed 3]

Run from the repository root.  Asserts that every metric BENCHMARK.json
names is printed with its unit, that no generation or replay failed, that
each traced run reports a nonzero value for every layer metric mapped to
its workload below, and that the benchmark refuses to run, without
printing a result, in a directory that holds only itself.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
LIVE = ("lan-v256", "lan-v32k", "wan-v256")

# layer metric -> workloads on which it must be measured (nonzero)
LAYER_MAP = {
    "decoder.local_mixture_us": LIVE,
    "decoder.decode_step_us": LIVE,
    "decoder.rerank_us": LIVE,
    "dists.topp_encode_us": LIVE,
    "dists.topp_decode_us": LIVE,
    "dists.kept_tokens": LIVE,
    "aggregator.aggregate_us": LIVE,
    "runtime.self_ms_per_token": LIVE,
    "transport.send_us": LIVE,
    "transport.recv_wait_ms_per_token": LIVE,
    "transport.frames_per_token": LIVE,
    "transport.bytes_per_token": LIVE,
    "scheduler.switches_per_100_tokens": ("lan-v256", "wan-v256"),
    "scheduler.choose_side_us": ("lan-v256", "wan-v256"),
    "aggregator.accept_l": ("lan-v256", "wan-v256"),
    "aggregator.accept_r": ("lan-v256", "wan-v256"),
    "aggregator.rejection_share": ("wan-v256",),
    "decoder.decodes_per_token": LIVE,
    "decoder.rollbacks_per_100_tokens": LIVE,
    "profiler.observe_decode_us": LIVE,
    "profiler.decode_pred_err": LIVE,
    "retrieval.retrieve_us": LIVE,
    "decoder.conditional_cache_hit_ratio": LIVE,
    "simulator.us_per_token": ("wan-v256",),
    "trace.overhead_ratio": LIVE,
}


def _run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(LIVE), spec["workloads"]
    assert set(LAYER_MAP) == {m["name"] for m in spec["per_layer"]}
    covered: set[str] = set()
    for workload in LIVE:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = _run(workload, args.seed, args.seconds, trace)
            label = f"{workload} --trace {trace}"
            assert out.returncode == 0, f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
            assert result["correct"] and result["failed"] == 0, f"{label}: {out.stdout[-2000:]}"
            assert result["attempted"] >= 1, label
            assert set(result["metrics"]) == {m["name"] for m in metrics}, label
            for metric in metrics:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (label, metric, got)
                assert isinstance(got["value"], float), (label, metric, got)
                if trace == 0:
                    assert got["value"] > 0, (label, metric, got)
                elif workload in LAYER_MAP[metric["name"]]:
                    assert got["value"] > 0, (label, metric, got)
                    covered.add(metric["name"])
            assert "# provenance " in out.stdout and "steal_share" in out.stdout, label
            print(f"ok {label}: attempted={result['attempted']} failed={result['failed']}")
    assert covered == set(LAYER_MAP), set(LAYER_MAP) - covered
    print("ok every layer module measured:", sorted({name.split(".")[0] for name in covered}))

    bare = ROOT / ".specbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = _run("lan-v256", args.seed, args.seconds, 0, cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the program sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
