"""Benchmark of specagg: a live two-process node pair, three workloads.

    python3 specbench/run.py --workload lan-v256 --seed 1 --seconds 24 --trace 0

Run from the repository root.  With --trace 0 the last stdout line carries
the end-to-end metrics, measured with no tracing; with --trace 1 it carries
the per-layer metrics from a run that alternates plain and traced pairs on
the same inputs.  Lines before it, prefixed with '#', give the provenance,
per-phase counts and sample counts.  See specbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import live  # noqa: E402
import sim  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"

UNITS = {
    "tokens_per_s": "1/s",
    "itl_p50_ms": "ms",
    "itl_p95_ms": "ms",
    "ttft_p50_ms": "ms",
    "cpu_ms_per_token": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "decoder.local_mixture_us": "us",
    "decoder.decode_step_us": "us",
    "decoder.rerank_us": "us",
    "dists.topp_encode_us": "us",
    "dists.topp_decode_us": "us",
    "dists.kept_tokens": "count",
    "aggregator.aggregate_us": "us",
    "runtime.self_ms_per_token": "ms",
    "transport.send_us": "us",
    "transport.recv_wait_ms_per_token": "ms",
    "transport.frames_per_token": "count",
    "transport.bytes_per_token": "bytes",
    "scheduler.switches_per_100_tokens": "count",
    "scheduler.choose_side_us": "us",
    "aggregator.accept_l": "ratio",
    "aggregator.accept_r": "ratio",
    "aggregator.rejection_share": "ratio",
    "decoder.decodes_per_token": "count",
    "decoder.rollbacks_per_100_tokens": "count",
    "profiler.observe_decode_us": "us",
    "profiler.decode_pred_err": "ratio",
    "retrieval.retrieve_us": "us",
    "decoder.conditional_cache_hit_ratio": "ratio",
    "simulator.us_per_token": "us",
    "trace.overhead_ratio": "ratio",
}
END_TO_END = tuple(UNITS)[:7]
PER_LAYER = tuple(UNITS)[7:]


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _steal_share(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already inside user
    return delta[7] / total if total else 0.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def provenance(seed: int, workload: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _phase(name: str, attempted: int, failed: int) -> None:
    print(f"# phase={name} attempted={attempted} succeeded={attempted - failed} failed={failed}")


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (metrics, attempted, failed)."""
    env = _child_env()
    modes = (False, True) if trace else (False,)
    spec = live.WORKLOADS[workload]
    started = time.perf_counter()
    gens, info = live.run_generations(spec, seed, seconds, workdir, env, modes)
    print(f"# distinct inputs={info['inputs']} set-up incl. reference={info['setup_s']:.2f} s "
          f"total={time.perf_counter() - started:.1f} s")
    attempted = failed = 0
    for traced in modes:
        group = gens[traced]
        _phase(f"{'traced' if traced else 'plain'}-generations", len(group), sum(not g.ok for g in group))
        attempted += len(group)
        failed += sum(not g.ok for g in group)
    if not trace:
        return live.end_to_end(gens[False]), attempted, failed
    metrics = live.per_layer(gens[True], gens[False])
    if spec.simulator:
        replays = sim.run_replays(seed, workdir, env)
        _phase("simulator-replays", replays["attempted"], replays["failed"])
        attempted += replays["attempted"]
        failed += replays["failed"]
        metrics.update(sim.per_layer(replays))
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(live.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specagg" / "cli.py").is_file():
        print(f"error: no specagg sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".specbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    names = PER_LAYER if args.trace else END_TO_END
    stat_before = _cpu_times()
    try:
        metrics, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = provenance(args.seed, args.workload)
    info["steal_share"] = round(_steal_share(stat_before, _cpu_times()), 5)
    print("# provenance " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        # a layer this workload does not exercise reads 0
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": UNITS[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
