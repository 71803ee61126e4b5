"""The token-path tool: its summary arithmetic on synthetic rows, and one
node pair of the current tree timed end to end."""

import importlib.util
import json
from pathlib import Path

import pytest

from specagg.common import Side
from specagg.retrieval import random_corpus, save_corpus
from specagg.runtime import NodeConfig, sequential_reference

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("token_path", ROOT / "tools" / "token_path.py")
token_path = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(token_path)


def row(variant, timed, generation=0, role="device", frames=30, writes=30, latency=None):
    """timed: (step, kind, five segment times in µs) per timed token."""
    return {"variant": variant, "generation": generation, "role": role, "equal": True,
            "tokens": 10, "frames": frames, "writes": writes,
            "timed": [{"step": step, "kind": kind, "us": us} for step, kind, us in timed],
            "latency_ms": latency or [11.0 + 0.1 * i for i in range(9)]}


def test_summary_takes_medians_per_kind_over_all_timed_tokens(tmp_path, capsys):
    rows = [
        row("parent", [(1, "local", [60, 170, 540, 150, 20]), (3, "local", [50, 160, 560, 140, 30]),
                       (5, "remote", [90, 100, 500, 120, 20])]),
        row("parent", [(2, "local", [70, 180, 520, 160, 10])], role="cloud", frames=28, writes=28),
        row("change", [(1, "local", [3, 150, 340, 140, 80])], writes=25, latency=[10.0] * 9),
        row("change", [(1, "local", [2, 160, 330, 150, 70]), (3, "local", [4, 140, 350, 130, 90])],
            generation=1, frames=28, writes=24),
        {"variant": "change", "generation": 1, "role": "cloud", "error": "boom"},
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert token_path.main(["summarize", "--rows", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    parent, change = out["parent"], out["change"]
    assert (parent["nodes"], parent["failed"], change["nodes"], change["failed"]) == (2, 0, 2, 1)
    assert parent["all_equal"] and change["all_equal"]
    assert (parent["frames_per_token"], parent["writes_per_token"]) == (2.9, 2.9)
    assert (change["frames_per_token"], change["writes_per_token"]) == (2.9, 2.45)
    # every token's latency is the device's, whichever node timed it
    assert parent["itl_p50_ms"] == 11.4 and change["itl_p50_ms"] == 10.5
    local = parent["local"]
    assert (local["tokens"], local["share_of_itl_samples"]) == (3, round(3 / 9, 4))
    assert local["itl_p50_ms"] == 11.1  # of steps 1, 3 and 2
    assert local["median_us"] == {
        "rollback_to_timer": 60, "overshoot": 170, "own_draft": 540, "aggregation": 150,
        "write": 20, "sum": 940,
    }
    assert parent["remote"]["tokens"] == 1 and "remote" not in change
    assert change["local"]["median_us"]["own_draft"] == 340
    assert change["local"]["itl_p50_ms"] == 11.0  # of 10.0, 11.0 and 11.2
    less = out["change_less_parent_us"]
    assert less["itl_p50_us"] == -900.0 and "remote" not in less
    assert less["local"]["rollback_to_timer"] == 3 - 60
    assert less["local"]["sum"] == change["local"]["median_us"]["sum"] - 940
    assert less["local"]["itl_p50_us"] == -100.0


def test_a_node_pair_of_this_tree_times_its_redrafts(tmp_path):
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    corpus_path = tmp_path / "corpus.txt"
    save_corpus(corpus, corpus_path)
    prompt = list(corpus.docs[3].tokens[:24])
    config = NodeConfig(role=Side.DEVICE, corpus=corpus, prompt=prompt, max_new_tokens=40,
                        max_context=64, seed=5)
    expected = [[e.step, e.token, int(e.accept_l), int(e.accept_r)]
                for e in sequential_reference(config)]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({
        "vocab": 256, "new_tokens": 40, "decode_delay_ms": 2.0, "link_delay_ms": 1.0,
        "corpus": str(corpus_path),
        "inputs": [{"prompt": prompt, "seed": 5, "expected": expected}],
    }))
    rows = token_path.run_pair(ROOT / "src", inputs, 0)
    assert [r["role"] for r in rows] == ["cloud", "device"]
    for r in rows:
        assert "error" not in r, r.get("error")
        assert r["equal"] and r["tokens"] == 40
        # the Hello, the echo reply and the Bye alone are three frames
        assert 3 <= r["writes"] <= r["frames"]
    timed = [t for r in rows for t in r["timed"]]
    assert timed and all(len(t["us"]) == len(token_path.SEGMENTS) for t in timed)
    for t in timed:
        assert t["kind"] in ("local", "remote") and 1 <= t["step"] < 40
        assert all(us >= 0.0 for us in t["us"][:4])
