"""Dual-stream speculative token aggregation at desk scale.

Two decoders draft tokens independently over their own retrieved documents;
a movable aggregator verifies each pair against the interpolated target
distribution, schedules itself onto the cheaper side, and everything is
replayable from a single seed.
"""

from .common import ProtocolError, Side
from .dists import (
    CompressedDist,
    LogDist,
    Vocab,
    eta_log_weights,
    interpolate_target,
    lk_divergence,
    topp_decode,
    topp_encode,
)
from .aggregator import AggregationOutcome, aggregate, expected_acceptance, speculative_sample
from .scheduler import (
    AcceptanceEstimate,
    CostVector,
    choose_side,
    delta_z,
    latency_per_token,
    theoretical_speedup,
)
from .simulator import AcceptanceTrace, NetModel, SimResult, instantaneous_latency, simulate

__all__ = [
    "AcceptanceEstimate",
    "AcceptanceTrace",
    "AggregationOutcome",
    "CompressedDist",
    "CostVector",
    "LogDist",
    "NetModel",
    "ProtocolError",
    "Side",
    "SimResult",
    "Vocab",
    "aggregate",
    "choose_side",
    "delta_z",
    "eta_log_weights",
    "expected_acceptance",
    "instantaneous_latency",
    "interpolate_target",
    "latency_per_token",
    "lk_divergence",
    "simulate",
    "speculative_sample",
    "theoretical_speedup",
    "topp_decode",
    "topp_encode",
]

__version__ = "0.1.0"
