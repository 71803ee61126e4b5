"""Record alternating parent/change pairs of specbench/run.py into a BENCH file.

Two subcommands:

    python3 tools/bench_pairs.py run --parent DIR --change DIR --rows rows.jsonl \\
        --workloads lan-v256,lan-v32k,wan-v256 --seeds 1-10 [--trace 1]
    python3 tools/bench_pairs.py summarize --rows rows.jsonl --meta meta.json --out BENCH_x.json

`run` runs `python3 specbench/run.py` from each checkout in turn, one run at a
time and for the `run_seconds` that BENCHMARK.json fixes: the parent first
on odd seeds and the change first on even seeds, and for each seed the
workloads back to back.  Each run appends one JSON row to `--rows`, so an
interrupted recording keeps what it measured.

`summarize` turns the untraced rows into the schema of the committed
BENCH_*.json files.  Per workload it gives the host's `steal_share` during
each run as [parent, change] pairs in seed order (read from the provenance
line), and per end-to-end metric the parent's and the change's median and
quartiles, the [parent, change] pairs in seed order, `change_won_pairs`
(pairs where the change is strictly better in the metric's direction) and
the relative change of the median.  It adds the per-pair change/parent
ratio: its median, quartiles and a bootstrap 95% interval of the median.
Traced rows go under `traced` as they were measured.  `--meta` supplies
the hand-written fields (`parent`, `change`, `what`, `claim`, `tier1`, ...);
`--claim WORKLOAD:METRIC` checks a claimed gain: the change wins at least
nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BOOTSTRAP_DRAWS = 2000


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def parse_output(stdout: str) -> dict:
    """The '#' provenance and phase lines and the result line of one run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    return {
        "provenance": next((ln for ln in lines if ln.startswith("# provenance ")), None),
        "phases": [ln for ln in lines if ln.startswith("# phase=")],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def record(args: argparse.Namespace) -> int:
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    rows = Path(args.rows)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            for side in run_order(seed):
                cmd = [
                    sys.executable, "specbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                started = time.perf_counter()
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True)
                row = {"side": side, "workload": workload, "seed": seed, "trace": args.trace,
                       "wall_s": round(time.perf_counter() - started, 1)}
                if proc.returncode == 0:
                    row.update(parse_output(proc.stdout))
                else:
                    row.update(correct=False, error=proc.stderr[-2000:])
                with rows.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"{side} {workload} seed={seed} {row['wall_s']} s "
                      f"correct={row['correct']}", flush=True)
    return 0


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "n": len(values)}


def bootstrap_median_ci(values, draws: int = BOOTSTRAP_DRAWS, seed: int = 0) -> list[float]:
    """Percentile bootstrap 95% interval of the median, from a fixed seed."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    medians = np.median(rng.choice(values, size=(draws, values.size)), axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return [round(float(lo), 4), round(float(hi), 4)]


def metric_summary(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Summary of one metric over [parent, change] pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    ratios = [c / p for p, c in pairs if p]
    par, chg = _quartiles(parent), _quartiles(change)
    return {
        "parent": par,
        "change": chg,
        "change_won_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
        "relative_change_of_median": round((chg["median"] - par["median"]) / par["median"], 4)
        if par["median"] else 0.0,
        "bound": bound,
        "parent_iqr": round(par["q3"] - par["q1"], 4),
        "ratio": {**_quartiles(ratios), "ci95": bootstrap_median_ci(ratios)} if ratios else None,
        "pairs": [[round(p, 4), round(c, 4)] for p, c in pairs],
    }


def claim_holds(summary: dict, better: str) -> dict:
    """A gain holds if the change wins 9 pairs in 10 and beats the parent's
    median by more than the parent's interquartile range."""
    n = len(summary["pairs"])
    gain = summary["change"]["median"] - summary["parent"]["median"]
    if better == "lower":
        gain = -gain
    won = summary["change_won_pairs"]
    return {
        "won_pairs": won,
        "pairs": n,
        "median_gain": round(gain, 4),
        "parent_iqr": summary["parent_iqr"],
        "holds": won * 10 >= 9 * n and gain > summary["parent_iqr"],
    }


def summarize_rows(rows: list[dict], end_to_end: list[dict]) -> dict:
    """The `workloads` section from untraced rows; pairs need both sides' runs."""
    workloads: dict[str, dict] = {}
    plain = [r for r in rows if not r["trace"]]
    for workload in dict.fromkeys(r["workload"] for r in plain):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in plain:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        seeds = sorted(s for s, runs in by_seed.items() if set(runs) == set(SIDES))
        runs = [by_seed[s] for s in seeds]
        ok = [s for s, r in zip(seeds, runs) if all(r[side]["correct"] for side in SIDES)]
        entry = {
            "seeds": seeds,
            "pairs": len(seeds),
            "steal_share": [[provenance(r[side]).get("steal_share") for side in SIDES]
                            for r in runs],
            "attempted": {side: sum(r[side].get("attempted", 0) for r in runs) for side in SIDES},
            "failed": {side: sum(r[side].get("failed", 0) for r in runs) for side in SIDES},
            "correct": len(ok) == len(seeds),
            "metrics": {},
        }
        for spec in end_to_end:
            name = spec["name"]
            pairs = [(by_seed[s]["parent"]["metrics"][name], by_seed[s]["change"]["metrics"][name])
                     for s in ok]
            if pairs:
                entry["metrics"][name] = metric_summary(pairs, spec["better"], spec["bound"])
        workloads[workload] = entry
    return workloads


def summarize_traced(rows: list[dict]) -> dict:
    traced: dict[str, dict] = {}
    for r in rows:
        if r["trace"] and r["correct"]:
            keep = {k: r[k] for k in ("provenance", "phases", "metrics")}
            traced.setdefault(f"{r['workload']} seed={r['seed']}", {})[r["side"]] = keep
    return traced


def provenance(row: dict) -> dict:
    """The JSON of a row's '# provenance' line; empty for a failed run."""
    line = row.get("provenance")
    return json.loads(line[len("# provenance "):]) if line else {}


def machine(rows: list[dict]) -> dict:
    for r in rows:
        prov = provenance(r)
        if prov:
            return {"cores": prov["cores"], "python": prov["python"], "numpy": prov["numpy"]}
    return {}


def summarize(args: argparse.Namespace) -> int:
    rows = [json.loads(line) for line in Path(args.rows).read_text().splitlines() if line.strip()]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = json.loads(Path(args.meta).read_text()) if args.meta else {}
    out.setdefault("machine", machine(rows))
    out["workloads"] = summarize_rows(rows, bench["end_to_end"])
    traced = summarize_traced(rows)
    if traced:
        out["traced"] = traced
    better = {spec["name"]: spec["better"] for spec in bench["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        verdict = claim_holds(out["workloads"][workload]["metrics"][metric], better[metric])
        out.setdefault("claim_check", {})[claim] = verdict
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run alternating parent/change pairs")
    run_p.add_argument("--parent", required=True, help="checkout of the parent commit")
    run_p.add_argument("--change", required=True, help="checkout of the change")
    run_p.add_argument("--rows", required=True, help="JSON-lines file the runs append to")
    run_p.add_argument("--workloads", default="lan-v256,lan-v32k,wan-v256")
    run_p.add_argument("--seeds", default="1-10")
    run_p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sum_p = sub.add_parser("summarize", help="write a BENCH file from recorded rows")
    sum_p.add_argument("--rows", required=True)
    sum_p.add_argument("--meta", help="JSON object with the hand-written fields")
    sum_p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    sum_p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return record(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
