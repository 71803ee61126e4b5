"""Per-side decode-cost levels refined at run time from piggybacked timings.

A decode's cost does not grow with its context position: a step reads at
most k documents of one chunk each.  So each side keeps one running level,
not a line in position.  The first decode a side reports sets its level,
and each later one blends in at DEFAULT_ZETA.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from .common import Side

DEFAULT_ZETA = 0.3

PROFILE_CSV_HEADER = ("t", "c_dec_obs", "c_dec_pred", "rtt_obs")


def write_profile_csv(
    path: str | Path, rows: Iterable[tuple[float, float, float, float]]
) -> None:
    """Snapshot rows of (t, c_dec_obs, c_dec_pred, rtt_obs)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_CSV_HEADER)
        for row in rows:
            writer.writerow([f"{v:.6g}" for v in row])


class SideProfiler:
    """Per-side live state: one decode-cost level (ms) per side."""

    def __init__(self) -> None:
        self.levels: dict[Side, float] = {}

    def observe_decode(self, side: Side, c_obs_ms: float) -> None:
        level = self.levels.get(side)
        self.levels[side] = (
            c_obs_ms if level is None else (1.0 - DEFAULT_ZETA) * level + DEFAULT_ZETA * c_obs_ms
        )

    def decode_estimate(self, side: Side) -> float | None:
        """The side's level; None until it reports a decode."""
        return self.levels.get(side)
