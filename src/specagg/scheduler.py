"""Greedy selection of the aggregation side.

The math lives in local/remote coordinates: `l` is whichever side currently
aggregates, `r` the other one.  The per-token latency model says: an accepted
remote draft costs only decoding overlap, a rejected one additionally burns
a full round trip before the remote side can restart.

`AggregatorPolicy` is the one place that picks the side, for the simulator
and for both live nodes alike: callers feed it every outcome and per-side
costs keyed by `Side`, and it orients them before asking `choose_side`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .common import Side


@dataclass(frozen=True)
class CostVector:
    """Decode and one-way transmission delays, in ms, l/r-oriented."""

    c_dec_l: float
    c_dec_r: float
    c_trans_l: float
    c_trans_r: float

    def __post_init__(self) -> None:
        for name in ("c_dec_l", "c_dec_r", "c_trans_l", "c_trans_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def rtt(self) -> float:
        return self.c_trans_l + self.c_trans_r

    def swapped(self) -> "CostVector":
        return CostVector(self.c_dec_r, self.c_dec_l, self.c_trans_r, self.c_trans_l)


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Moving-average acceptance rates of each side's drafts, l/r-oriented."""

    alpha_l: float
    alpha_r: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_l <= 1.0 and 0.0 <= self.alpha_r <= 1.0):
            raise ValueError("acceptance rates must lie in [0, 1]")

    def swapped(self) -> "AcceptanceEstimate":
        return AcceptanceEstimate(self.alpha_r, self.alpha_l)


class MovingAcceptance:
    """Exponential moving average over binary accept/reject outcomes.

    Starts optimistic (1.0) so the scheduler initially assumes overlap;
    weight 0.2 damps abrupt swings.
    """

    def __init__(self, weight: float = 0.2, initial: float = 1.0) -> None:
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {weight}")
        self.weight = weight
        self.value = initial

    def update(self, accepted: bool) -> float:
        self.value = (1.0 - self.weight) * self.value + self.weight * (1.0 if accepted else 0.0)
        return self.value


def latency_per_token(costs: CostVector, acc: AcceptanceEstimate, local: str = "l") -> float:
    """Expected wait for the next draft pair when `local` keeps aggregating.

    Z_l = alpha_r * max(c_dec_l, c_dec_r)
        + (1 - alpha_r) * max(c_dec_l, c_dec_r + rtt).
    """
    if local == "r":
        costs, acc = costs.swapped(), acc.swapped()
    elif local != "l":
        raise ValueError(f"local must be 'l' or 'r', got {local!r}")
    fast = max(costs.c_dec_l, costs.c_dec_r)
    slow = max(costs.c_dec_l, costs.c_dec_r + costs.rtt)
    return acc.alpha_r * fast + (1.0 - acc.alpha_r) * slow


def delta_z(costs: CostVector, acc: AcceptanceEstimate) -> float:
    """Z_l - Z_r as a closed-form piecewise function of the decode gap.

    Positive means the remote side would aggregate cheaper.  Continuous at
    both breakpoints; j is the decode-latency difference c_dec_r - c_dec_l.
    """
    rtt = costs.rtt
    j = costs.c_dec_r - costs.c_dec_l
    if costs.c_dec_l <= costs.c_dec_r - rtt:
        return (1.0 - acc.alpha_r) * rtt
    if costs.c_dec_l <= costs.c_dec_r:
        return (1.0 - acc.alpha_l) * j + (acc.alpha_l - acc.alpha_r) * rtt
    if costs.c_dec_l <= costs.c_dec_r + rtt:
        return (1.0 - acc.alpha_r) * j + (acc.alpha_l - acc.alpha_r) * rtt
    return (acc.alpha_l - 1.0) * rtt


def choose_side(current: Side, costs: CostVector, acc: AcceptanceEstimate) -> Side:
    """Side that should aggregate next; ties keep the current side.

    costs and acc must be oriented with l = current.  Keeping the side on a
    tie avoids switch churn and the extra signalling it would cost.
    """
    d = delta_z(costs, acc)
    if d > 0.0:
        return current.other
    return current


class AggregatorPolicy:
    """The adaptive scheduler's state: one acceptance EMA per side.

    Every party that decides feeds `observe` each outcome once, in step
    order, before it asks `next_side` about the following step.
    """

    def __init__(self) -> None:
        self.rates = {Side.DEVICE: MovingAcceptance(), Side.CLOUD: MovingAcceptance()}

    def observe(self, accept_device: bool, accept_cloud: bool) -> None:
        self.rates[Side.DEVICE].update(accept_device)
        self.rates[Side.CLOUD].update(accept_cloud)

    def next_side(
        self, current: Side, c_dec: Mapping[Side, float], c_trans: Mapping[Side, float]
    ) -> Side:
        """Side that should aggregate next, from per-side decode and one-way costs (ms)."""
        remote = current.other
        costs = CostVector(c_dec[current], c_dec[remote], c_trans[current], c_trans[remote])
        acc = AcceptanceEstimate(self.rates[current].value, self.rates[remote].value)
        return choose_side(current, costs, acc)


def theoretical_speedup(costs: CostVector, alpha_r: float) -> float:
    """Closed-form speedup over all-reject synchronization, l = device.

    Equals 1 whenever local decoding dominates the round trip; otherwise
    grows with the remote acceptance rate, bounded by 1/(1 - alpha_r).
    """
    if not 0.0 <= alpha_r <= 1.0:
        raise ValueError(f"alpha_r must be in [0, 1], got {alpha_r}")
    rtt = costs.rtt
    c_l, c_r = costs.c_dec_l, costs.c_dec_r
    if c_l > c_r + rtt or rtt == 0.0:
        return 1.0
    if c_l <= c_r:
        inverse = 1.0 - alpha_r / (1.0 + c_r / rtt)
    else:
        inverse = 1.0 - (1.0 - c_l / (c_r + rtt)) * alpha_r
    if inverse <= 0.0:  # alpha_r = 1 with instantaneous decode
        return float("inf")
    return 1.0 / inverse
