"""Arithmetic of the benchmark pair recorder, on synthetic rows only."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "tokens_per_s", "better": "higher", "bound": 0.25},
    {"name": "itl_p50_ms", "better": "lower", "bound": 0.25},
]


def row(side, seed, tokens_per_s, itl_p50_ms, workload="lan-v256", correct=True, trace=0,
        steal=0.0):
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": 4,
        "failed": 0 if correct else 1,
        "provenance": f'# provenance {{"seed": {seed}, "steal_share": {steal}}}',
        "phases": [],
        "metrics": {"tokens_per_s": tokens_per_s, "itl_p50_ms": itl_p50_ms},
    }


def test_seed_ranges_and_alternating_order():
    assert bench_pairs.parse_seeds("1-3,5,8-9") == [1, 2, 3, 5, 8, 9]
    assert bench_pairs.run_order(1) == ("parent", "change")
    assert bench_pairs.run_order(2) == ("change", "parent")


def test_parse_output_keeps_provenance_phases_and_values():
    stdout = "\n".join([
        "# distinct inputs=8",
        "# phase=plain-generations attempted=4 succeeded=4 failed=0",
        '# provenance {"cores": 2, "python": "3.11.7", "numpy": "2.0"}',
        json.dumps({"correct": True, "attempted": 4, "failed": 0,
                    "metrics": {"tokens_per_s": {"value": 10.5, "unit": "1/s"}}}),
    ])
    parsed = bench_pairs.parse_output(stdout)
    assert parsed["metrics"] == {"tokens_per_s": 10.5}
    assert parsed["phases"] == ["# phase=plain-generations attempted=4 succeeded=4 failed=0"]
    assert parsed["provenance"].startswith("# provenance ")
    assert bench_pairs.machine([parsed]) == {"cores": 2, "python": "3.11.7", "numpy": "2.0"}


def test_metric_summary_higher_is_better():
    pairs = [(100.0, 150.0), (110.0, 100.0), (120.0, 180.0), (130.0, 195.0)]
    s = bench_pairs.metric_summary(pairs, "higher", 0.25)
    assert s["parent"]["median"] == 115.0
    assert s["change"]["median"] == 165.0
    assert s["change_won_pairs"] == 3
    assert s["relative_change_of_median"] == pytest.approx(50.0 / 115.0, abs=1e-4)
    assert s["parent_iqr"] == pytest.approx(np.percentile([100, 110, 120, 130], 75)
                                            - np.percentile([100, 110, 120, 130], 25))
    ratios = [1.5, 100.0 / 110.0, 1.5, 1.5]
    assert s["ratio"]["median"] == pytest.approx(np.median(ratios), abs=1e-4)
    lo, hi = s["ratio"]["ci95"]
    assert lo <= s["ratio"]["median"] <= hi
    assert s["pairs"] == [[100.0, 150.0], [110.0, 100.0], [120.0, 180.0], [130.0, 195.0]]


def test_metric_summary_lower_is_better_counts_the_other_way():
    s = bench_pairs.metric_summary([(2.0, 1.0), (2.0, 3.0), (2.0, 2.0)], "lower", 0.25)
    assert s["change_won_pairs"] == 1  # a tie is not a win
    assert s["ratio"]["median"] == 1.0


def test_bootstrap_interval_of_constant_ratios_is_a_point():
    assert bench_pairs.bootstrap_median_ci([1.25] * 7) == [1.25, 1.25]
    # the interval is reproducible: it draws from a fixed seed
    values = [0.9, 1.1, 1.3, 1.2, 1.0]
    assert bench_pairs.bootstrap_median_ci(values) == bench_pairs.bootstrap_median_ci(values)


def test_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_parent_iqr():
    parents = [100.0 + i for i in range(10)]
    nine_wins = [(p, p + 50.0) for p in parents[:9]] + [(parents[9], 0.5 * parents[9])]
    verdict = bench_pairs.claim_holds(bench_pairs.metric_summary(nine_wins, "higher", 0.25),
                                      "higher")
    assert verdict["won_pairs"] == 9 and verdict["holds"]

    eight_wins = nine_wins[:8] + [(p, 0.5 * p) for p in parents[8:]]
    summary = bench_pairs.metric_summary(eight_wins, "higher", 0.25)
    assert not bench_pairs.claim_holds(summary, "higher")["holds"]

    small_gain = [(p, p + 1.0) for p in parents]  # wins every pair, inside the IQR
    summary = bench_pairs.metric_summary(small_gain, "higher", 0.25)
    assert summary["change_won_pairs"] == 10
    assert not bench_pairs.claim_holds(summary, "higher")["holds"]


def test_summarize_rows_pairs_by_seed_and_drops_failed_pairs():
    rows = [
        row("parent", 1, 100.0, 1.0), row("change", 1, 150.0, 1.2),
        row("change", 2, 160.0, 1.1), row("parent", 2, 110.0, 1.0),
        row("parent", 3, 120.0, 1.0), row("change", 3, 0.0, 0.0, correct=False),
        row("parent", 4, 130.0, 1.0),  # no change run: not a pair
        row("change", 1, 999.0, 9.0, trace=1),  # traced rows are not paired
    ]
    out = bench_pairs.summarize_rows(rows, END_TO_END)["lan-v256"]
    assert out["seeds"] == [1, 2, 3]
    assert out["pairs"] == 3
    assert not out["correct"]
    assert out["failed"] == {"parent": 0, "change": 1}
    tps = out["metrics"]["tokens_per_s"]
    assert tps["pairs"] == [[100.0, 150.0], [110.0, 160.0]]
    assert tps["change_won_pairs"] == 2
    assert out["metrics"]["itl_p50_ms"]["change_won_pairs"] == 0

    traced = bench_pairs.summarize_traced(rows[-1:] + [dict(rows[-1], side="parent")])
    assert set(traced["lan-v256 seed=1"]) == {"parent", "change"}


def test_summarize_rows_reports_steal_share_per_pair_for_both_sides():
    rows = [
        row("parent", 1, 100.0, 1.0, steal=0.002), row("change", 1, 150.0, 1.2, steal=0.03),
        row("change", 2, 160.0, 1.1, steal=0.0), row("parent", 2, 110.0, 1.0, steal=0.125),
        row("parent", 3, 120.0, 1.0, steal=0.5),  # no change run: not a pair
    ]
    failed = {"side": "change", "workload": "lan-v256", "seed": 4, "trace": 0, "correct": False}
    rows += [row("parent", 4, 130.0, 1.0, steal=0.01), failed]  # no provenance line
    out = bench_pairs.summarize_rows(rows, END_TO_END)["lan-v256"]
    assert out["seeds"] == [1, 2, 4]
    assert out["steal_share"] == [[0.002, 0.03], [0.125, 0.0], [0.01, None]]
