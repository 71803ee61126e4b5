"""Decode-latency model refined at run time from piggybacked timings.

A side's model starts as a flat prior at the first decode it reports.  The
slope is kept as an explicit numerator/denominator pair (k_a, k_b) because
each later observation is blended into both, while the intercept k_c stays
frozen at that first decode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .common import Side

DEFAULT_ZETA = 0.3


@dataclass(frozen=True)
class DecodeModel:
    """Predicted decode delay at step t: k_a * t / k_b + k_c (ms)."""

    k_a: float
    k_b: float
    k_c: float

    def __post_init__(self) -> None:
        if self.k_b == 0:
            raise ValueError("k_b must be nonzero")

    def predict(self, t: float) -> float:
        return self.k_a * t / self.k_b + self.k_c


def update_runtime(
    model: DecodeModel, t: float, c_obs: float, zeta: float = DEFAULT_ZETA
) -> DecodeModel:
    """Blend one runtime observation into the slope, intercept frozen.

    new slope = ((1-z) k_a + z (c_obs - k_c) t) / ((1-z) k_b + z t^2).
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    numerator = (1.0 - zeta) * model.k_a + zeta * (c_obs - model.k_c) * t
    denominator = (1.0 - zeta) * model.k_b + zeta * t * t
    if denominator == 0.0:
        raise ValueError("zero denominator: t = 0 with zeta = 1")
    return DecodeModel(k_a=numerator, k_b=denominator, k_c=model.k_c)


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
    """Per-side live state: decode model refined from piggybacked timings."""

    def __init__(self) -> None:
        self.models: dict[Side, DecodeModel | None] = {Side.DEVICE: None, Side.CLOUD: None}

    def observe_decode(self, side: Side, t: int, c_obs_ms: float) -> None:
        model = self.models[side]
        if model is None:
            # flat prior anchored at the first observation
            self.models[side] = DecodeModel(k_a=0.0, k_b=1.0, k_c=c_obs_ms)
        elif t > 0:
            self.models[side] = update_runtime(model, t, c_obs_ms)

    def decode_estimate(self, side: Side, t: int, default: float = 1.0) -> float:
        model = self.models[side]
        if model is None:
            return default
        return max(0.0, model.predict(t))
