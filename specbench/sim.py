"""Simulator replays: seeded acceptance traces through `specagg.simulator`.

The traced run of a live workload whose spec asks for it ends with one
replay worker, this file run as a script.  The worker replays Bernoulli
traces through `simulator.simulate` for all four strategies at several
extra latencies, plus one `speedup_curve` grid per sweep, under the span
recorder, and checks every result.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from live import HANG, _Hang, _kill_and_reap, _on_alarm, _spawn
from tracer import SIM_TARGETS, SpanSet, Tracer

HERE = Path(__file__).resolve().parent
REPLAY_SECONDS = 3.0
SLACK_S = 12.0  # a worker that outlives its seconds by this hangs
REPLAY_TOKENS = 2000
CURVE_TOKENS = 1000
EXTRA_LATENCIES = (0.0, 10.0, 50.0, 200.0)
ACCEPT = (0.6, 0.8)  # device, cloud


def worker(seed: int, seconds: float, out_path: str, spans_path: str) -> int:
    """Replay sweeps for `seconds` under the tracer; write counts and check results."""
    from specagg.rng import derive_seed
    from specagg.scheduler import CostVector
    from specagg.simulator import STRATEGIES, AcceptanceTrace, NetModel
    import specagg.simulator as simulator

    costs = CostVector(c_dec_l=10.0, c_dec_r=6.0, c_trans_l=1.0, c_trans_r=1.0)
    curve_costs = [CostVector(0.8, 1.5, 0.4, 0.4), CostVector(2.5, 1.5, 1.0, 1.0)]
    curve_alphas = [0.25, 0.5, 0.75]
    configs = [
        (strategy, NetModel(base_latency=2.0, extra_latency=extra))
        for extra in EXTRA_LATENCIES
        for strategy in STRATEGIES
    ]
    traces = [
        AcceptanceTrace.bernoulli(REPLAY_TOKENS, *ACCEPT, derive_seed(seed, "sim-replay", i))
        for i in range(len(configs))
    ]

    def count_steps(counters, args, out):
        counters["sim_steps"] += len(out.per_token)

    tracer = Tracer()
    tracer.install(SIM_TARGETS, {"simulator.simulate": count_steps})
    report = {"attempted": 0, "failed": 0, "errors": []}

    def fail(why: str) -> None:
        report["failed"] += 1
        if len(report["errors"]) < 5:
            report["errors"].append(why)

    started = time.perf_counter()
    sweep = 0
    while sweep == 0 or time.perf_counter() - started < seconds:
        for (strategy, net), trace in zip(configs, traces):
            result = simulator.simulate(
                trace, costs, net, strategy, seed=derive_seed(seed, "replay", sweep)
            )
            report["attempted"] += 1
            if len(result.per_token) != len(trace) or len(result.side_history) != len(trace):
                fail(f"{strategy}: result length {len(result.per_token)} != trace {len(trace)}")
            elif strategy in ("device", "cloud") and (
                result.switches or any(s.value != strategy for s in result.side_history)
            ):
                fail(f"static strategy {strategy} switched")
            elif not all(np.isfinite(result.per_token)) or min(result.per_token) < 0:
                fail(f"{strategy}: non-finite or negative per-token latency")
        points = simulator.speedup_curve(
            curve_costs, curve_alphas, tokens=CURVE_TOKENS, seed=derive_seed(seed, "curve", sweep)
        )
        report["attempted"] += 1
        # accepted drafts only move ready times earlier, so no point is slower than vanilla
        if len(points) != len(curve_costs) * len(curve_alphas) or any(
            not np.isfinite(p.empirical) or p.empirical < 1.0 - 1e-9 for p in points
        ):
            fail("speedup_curve point below 1 or missing")
        sweep += 1
    tracer.dump(spans_path)
    Path(out_path).write_text(json.dumps(report))
    return 0


def run_replays(seed: int, workdir: Path, env: dict[str, str]) -> dict:
    """One traced replay worker; blocks in wait4 under a time bound."""
    out = workdir / "sim"
    argv = [sys.executable, str(HERE / "sim.py"), str(seed), repr(REPLAY_SECONDS),
            f"{out}.json", f"{out}.npz"]
    record = {"ok": False, "attempted": 1, "failed": 1, "spans": Path(f"{out}.npz")}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    pid = None
    try:
        signal.setitimer(signal.ITIMER_REAL, REPLAY_SECONDS + SLACK_S)
        pid = _spawn(argv, out, env)
        _, status, _ = os.wait4(pid, 0)
        pid = None
    except _Hang:
        record["error"] = f"replay worker {HANG} of {REPLAY_SECONDS + SLACK_S:.0f} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if pid is not None:
            _kill_and_reap([pid])
    if "error" not in record and status != 0:
        err = Path(f"{out}.err").read_text(errors="replace").strip()
        record["error"] = f"replay worker exited with status {status}: {err[-300:]}"
    elif "error" not in record:
        record.update(json.loads(Path(f"{out}.json").read_text()), ok=True)
    for why in [record.get("error")] + record.get("errors", []):
        if why:
            print(f"# simulator replay failed: {why}")
    return record


def per_layer(record: dict) -> dict[str, float]:
    if not record["ok"]:
        return {}
    spans = SpanSet([record["spans"]])
    return {
        "simulator.us_per_token": 1e6 * spans.total_s("simulator.simulate")
        / max(1.0, spans.counters["sim_steps"]),
    }


if __name__ == "__main__":
    seed, seconds, out_path, spans_path = sys.argv[1:5]
    sys.exit(worker(int(seed), float(seconds), out_path, spans_path))
