"""Summary arithmetic of the link-timing shadow, on synthetic rows only."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "link_shadow.py"
_SPEC = importlib.util.spec_from_file_location("link_shadow", _PATH)
link_shadow = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(link_shadow)


def row(variant, index, span_ms, switches, no_estimate, frames=50, key="wan-v256 seed=1"):
    return {"variant": variant, "set": key, "index": index, "equal": True, "span_ms": span_ms,
            "switches": switches, "no_estimate": no_estimate, "frames": frames, "tokens": 10}


def test_summary_pairs_each_generation_with_the_parent(tmp_path, capsys):
    rows = [
        row("parent", 0, 100.0, 4, 1),
        row("change", 0, 99.0, 4, 1),
        row("parent", 1, 200.0, 6, 2),
        row("change", 1, 202.0, 5, 0),
        row("parent", 2, 150.0, 5, 0),
        row("change", 2, 165.0, 5, 3),
        # a generation with a failed variant is counted as failed, not paired
        row("parent", 3, 300.0, 6, 2),
        {"variant": "change", "set": "wan-v256 seed=1", "index": 3, "error": "boom"},
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert link_shadow.main(["summarize", "--rows", str(path)]) == 0
    wan = json.loads(capsys.readouterr().out)["wan-v256"]
    assert wan["generations"] == 3
    assert wan["failed"] == {"parent": 0, "change": 1}
    assert wan["parent"] == {
        "all_equal": True, "no_estimate": 3, "no_estimate_max": 2, "frames_per_token": 5.0,
    }
    change = wan["change"]
    assert (change["no_estimate"], change["no_estimate_max"]) == (4, 3)
    assert change["span_ratio_median"] == 1.01  # of 0.99, 1.01 and 1.1
    assert (change["slower"], change["faster"], change["switches_identical"]) == (2, 1, 2)
