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
        row("ack_only", 0, 110.0, 5, 6),
        row("change", 0, 99.0, 4, 1),
        row("parent", 1, 200.0, 6, 2),
        row("ack_only", 1, 210.0, 6, 3),
        row("change", 1, 202.0, 6, 0),
        # a generation with a failed variant is counted as failed, not paired
        row("parent", 2, 300.0, 6, 2),
        {"variant": "ack_only", "set": "wan-v256 seed=1", "index": 2, "error": "boom"},
        row("change", 2, 1.0, 6, 0),
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert link_shadow.main(["summarize", "--rows", str(path)]) == 0
    wan = json.loads(capsys.readouterr().out)["wan-v256"]
    assert wan["generations"] == 2
    assert wan["failed"] == {"parent": 0, "ack_only": 1, "change": 0}
    assert wan["parent"] == {
        "all_equal": True, "no_estimate": 3, "no_estimate_max": 2, "frames_per_token": 5.0,
    }
    ack_only, change = wan["ack_only"], wan["change"]
    assert (ack_only["no_estimate"], ack_only["no_estimate_max"]) == (9, 6)
    assert ack_only["span_ratio_median"] == round((1.1 + 1.05) / 2, 4)
    assert (ack_only["slower"], ack_only["faster"], ack_only["switches_identical"]) == (2, 0, 1)
    assert change["span_ratio_median"] == round((0.99 + 1.01) / 2, 4)
    assert (change["slower"], change["faster"], change["switches_identical"]) == (1, 1, 2)
