"""Deterministic discrete-event model of the two-stream pipeline.

Replays a per-step acceptance trace under parameterized decode and
transmission delays.  Time advances through one recurrence per aggregation:

  * a side whose draft was accepted keeps decoding back to back, so its next
    draft is ready one decode after the previous one finished;
  * a rejected side restarts the moment it learns the outcome (immediately on
    the aggregating node, one target transmission later on the other);
  * an aggregation fires once the aggregator holds both step-u drafts, local
    one at decode completion, remote one after a one-way transmission.

Aggregation itself costs nothing.  Network latency is the per-side constant
plus a shared sinusoidal-jitter term sampled at send time.  The adaptive
strategy picks each next side with `scheduler.choose_side`, the rule the
live nodes use, from the exact costs of the moment and the step's accept
flags.  A switch is charged as the recurrence says: the new aggregator
starts only once the outcome has reached it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .common import SIDES, Side
from .dists import CompressedDist
from .scheduler import STRATEGIES, CostVector, theoretical_speedup
from .rng import derive_seed
from . import scheduler, transport

TRACE_CSV_HEADER = ("step", "accept_l", "accept_r")
JITTER_PERIOD_S = 20.0 * math.pi


@dataclass(frozen=True)
class NetModel:
    """Shared network-latency component added on top of per-side constants.

    Instantaneous one-way latency at time t is base + extra + jitter, a sine
    of period JITTER_PERIOD_S (20*pi seconds) whose jitter_amplitude defaults
    to a fifth of the total.  bandwidth (bytes/ms) adds a size-proportional
    term; None means unmetered.
    """

    base_latency: float = 0.0
    extra_latency: float = 0.0
    jitter_amplitude: float | None = None
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.extra_latency < 0:
            raise ValueError("latencies must be non-negative")
        amp = self.amplitude
        if amp < 0 or amp > self.base_latency + self.extra_latency + 1e-12:
            raise ValueError("jitter amplitude must stay within the latency")

    @property
    def amplitude(self) -> float:
        if self.jitter_amplitude is None:
            return (self.base_latency + self.extra_latency) / 5.0
        return self.jitter_amplitude


def instantaneous_latency(net: NetModel, t_seconds: float) -> float:
    """One-way latency (ms) at wall time t (seconds)."""
    if t_seconds < 0:
        raise ValueError("time must be non-negative")
    phase = 2.0 * math.pi * t_seconds / JITTER_PERIOD_S
    return net.base_latency + net.extra_latency + net.amplitude * math.sin(phase)


@dataclass(frozen=True)
class AcceptanceTrace:
    """Replayable per-step (accept_device, accept_cloud) decisions."""

    flags: tuple[tuple[bool, bool], ...]

    def __post_init__(self) -> None:
        if not self.flags:
            raise ValueError("empty trace")

    def __len__(self) -> int:
        return len(self.flags)

    @classmethod
    def bernoulli(
        cls, n: int, p_device: float, p_cloud: float, seed: int
    ) -> "AcceptanceTrace":
        rng = np.random.default_rng(derive_seed(seed, "trace"))
        dev = rng.random(n) < p_device
        cld = rng.random(n) < p_cloud
        return cls(tuple((bool(a), bool(b)) for a, b in zip(dev, cld)))

    @classmethod
    def constant(cls, n: int, accept_device: bool, accept_cloud: bool) -> "AcceptanceTrace":
        return cls(tuple((accept_device, accept_cloud) for _ in range(n)))

    @classmethod
    def load_csv(cls, path: str | Path) -> "AcceptanceTrace":
        """Read a trace CSV or a node's metrics CSV; columns go by header name.

        Steps must run 0, 1, 2, ... without a gap; flags must be 0 or 1.
        """
        flags: list[tuple[bool, bool]] = []
        with open(path, "r", newline="", encoding="ascii") as fh:
            reader = csv.DictReader(fh)
            missing = set(TRACE_CSV_HEADER) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{path}: not a trace, columns {sorted(missing)} missing")
            for row in reader:
                if row["step"] != str(len(flags)):
                    raise ValueError(f"{path}: step {row['step']!r} where {len(flags)} belongs")
                if {row["accept_l"], row["accept_r"]} - {"0", "1"}:
                    raise ValueError(f"{path}: step {len(flags)} has a flag other than 0/1")
                flags.append((row["accept_l"] == "1", row["accept_r"] == "1"))
        return cls(tuple(flags))

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER)
            for step, (a, b) in enumerate(self.flags):
                writer.writerow((step, int(a), int(b)))


@dataclass(frozen=True)
class SimResult:
    total_time: float
    per_token: tuple[float, ...]
    switches: int
    side_history: tuple[Side, ...]

    def steady_per_token(self) -> float:
        """Mean latency of the last 100 tokens (all of them in a shorter run)."""
        tail = min(100, len(self.per_token))
        return float(sum(self.per_token[-tail:]) / tail)


@lru_cache(maxsize=1)
def default_message_bytes() -> tuple[int, int]:
    """(draft frame bytes, target frame bytes) from actual wire encodings,
    for a draft keeping 32 tokens of a 50,272-token vocabulary."""
    ids = np.arange(32, dtype=np.uint32)
    vals = np.full(32, 1.0 / 32, dtype=np.float16)
    draft = transport.DraftMsg(
        step=0,
        token=0,
        h=0.0,
        decode_ms=1.0,
        dist=CompressedDist(vocab_size=50_272, token_ids=ids, values=vals),
    )
    target = transport.TargetMsg(step=0, target=0, accept_l=True, accept_r=True)
    return len(transport.encode_frame(draft)), len(transport.encode_frame(target))


def simulate(
    trace: AcceptanceTrace,
    costs: CostVector,
    net: NetModel,
    strategy: str,
    *,
    seed: int = 0,
) -> SimResult:
    """Run the recurrence over the whole trace under one strategy.

    Strategies: 'device' / 'cloud' aggregate statically, 'random' re-picks a
    side after every step, 'dragon' asks `scheduler.choose_side` after each
    step and hands the role over whenever that step's outcome makes the
    switch-charged next step cheaper.  'random' and 'dragon' start on the
    device.  The device stream maps to the l slot of costs.  Messages are
    sized by `default_message_bytes` when the net has a bandwidth.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    # sides are indices into SIDES: 0 device, 1 cloud
    dec = (costs.c_dec_l, costs.c_dec_r)
    trans = (costs.c_trans_l, costs.c_trans_r)
    if net.bandwidth is None:
        draft_wire = target_wire = 0.0
    else:
        draft_bytes, target_bytes = default_message_bytes()
        draft_wire, target_wire = draft_bytes / net.bandwidth, target_bytes / net.bandwidth
    # a zero amplitude adds exactly +-0.0 to the constant latency
    jitter = net.amplitude != 0.0
    latency = net.base_latency + net.extra_latency

    rng = np.random.default_rng(derive_seed(seed, "strategy"))

    agg = 1 if strategy == "cloud" else 0
    agg_free = 0.0
    ready = list(dec)
    known = [0.0, 0.0]
    per_token: list[float] = []
    history: list[int] = []
    switches = 0
    t_prev = 0.0

    for flags in trace.flags:
        remote = 1 - agg
        sent = ready[remote]
        lat = instantaneous_latency(net, sent / 1000.0) if jitter else latency
        t_now = max(agg_free, ready[agg], sent + (trans[remote] + lat + draft_wire))

        lat = instantaneous_latency(net, t_now / 1000.0) if jitter else latency
        known[agg] = t_now
        known[remote] = t_now + (trans[agg] + lat + target_wire)
        for s in (0, 1):
            ready[s] = (ready[s] if flags[s] else known[s]) + dec[s]

        history.append(agg)
        per_token.append(t_now - t_prev)
        t_prev = t_now

        if strategy == "random":
            nxt = 0 if rng.random() < 0.5 else 1
        elif strategy == "dragon":
            shared = lat + draft_wire
            nxt = scheduler.choose_side(agg, dec, (trans[0] + shared, trans[1] + shared), flags)
        else:
            nxt = agg
        if nxt != agg:
            switches += 1
            agg_free = known[nxt]
        else:
            agg_free = t_now
        agg = nxt

    return SimResult(
        total_time=t_prev,
        per_token=tuple(per_token),
        switches=switches,
        side_history=tuple(SIDES[i] for i in history),
    )


@dataclass(frozen=True)
class SpeedupPoint:
    costs: CostVector
    alpha_r: float
    empirical: float
    theoretical: float


def speedup_curve(
    cost_grid: list[CostVector],
    alpha_grid: list[float],
    tokens: int = 10_000,
    seed: int = 0,
) -> list[SpeedupPoint]:
    """Empirical vs closed-form speedup over all-reject synchronization.

    Aggregation stays on the device side over a quiet link; the replayed
    traces accept remote drafts with rate alpha_r and always reject local
    ones, matching the closed form's independence from the local rate.
    """
    net = NetModel()
    vanilla_trace = AcceptanceTrace.constant(tokens, False, False)
    out: list[SpeedupPoint] = []
    for costs in cost_grid:
        vanilla = simulate(vanilla_trace, costs, net, "device", seed=seed)
        for i, alpha in enumerate(alpha_grid):
            trace = AcceptanceTrace.bernoulli(tokens, 0.0, alpha, derive_seed(seed, "curve", i))
            run = simulate(trace, costs, net, "device", seed=seed)
            out.append(
                SpeedupPoint(
                    costs=costs,
                    alpha_r=alpha,
                    empirical=vanilla.total_time / run.total_time,
                    theoretical=theoretical_speedup(costs, alpha),
                )
            )
    return out
