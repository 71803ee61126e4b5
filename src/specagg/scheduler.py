"""Selection of the aggregation side, one step at a time.

The math lives in local/remote coordinates: `l` is whichever side currently
aggregates, `r` the other one.  The per-token latency model says: an accepted
remote draft costs only decoding overlap, a rejected one additionally burns
a full round trip before the remote side can restart.

`AggregatorPolicy` is the one place that picks the side, for the simulator
and for both live nodes alike: callers feed it every outcome and per-side
costs keyed by `Side`, and it orients them before asking `choose_side`.
`choose_side` prices the next step both ways from the outcome just
aggregated, charging a hand-off the one-way trip that carries the outcome
(and the role) to the other side: after a rejected remote draft, the remote
side that takes the role along with the outcome redrafts without a second
link crossing.
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


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Acceptance of each side's drafts, l/r-oriented: rates, or one step's flags."""

    alpha_l: float
    alpha_r: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_l <= 1.0 and 0.0 <= self.alpha_r <= 1.0):
            raise ValueError("acceptance rates must lie in [0, 1]")


def latency_per_token(costs: CostVector, acc: AcceptanceEstimate, local: str = "l") -> float:
    """Expected wait for the next draft pair when `local` keeps aggregating.

    Z_l = alpha_r * max(c_dec_l, c_dec_r)
        + (1 - alpha_r) * max(c_dec_l, c_dec_r + rtt).

    Z_r is the same with l and r exchanged; rtt is the same sum either way.
    """
    if local == "l":
        c_local, c_remote, alpha_remote = costs.c_dec_l, costs.c_dec_r, acc.alpha_r
    elif local == "r":
        c_local, c_remote, alpha_remote = costs.c_dec_r, costs.c_dec_l, acc.alpha_l
    else:
        raise ValueError(f"local must be 'l' or 'r', got {local!r}")
    fast = max(c_local, c_remote)
    slow = max(c_local, c_remote + costs.rtt)
    return alpha_remote * fast + (1.0 - alpha_remote) * slow


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
    """Side that should aggregate the next step; ties keep the current side.

    costs and acc must be oriented with l = current; acc holds the accept
    flags of the step just aggregated (0 or 1).  Staying costs
    Z_stay = max(c_l, c_r + (1 - a_r) * rtt); handing the role over with the
    outcome costs Z_hand = max(t_l, c_r + (1 - a_r) * t_l, c_l + (1 - a_l) * t_l):
    the new aggregator learns the outcome one transmission later, redrafts
    at once if it was rejected, and waits for the old aggregator's draft.
    """
    t_l = costs.c_trans_l
    miss_l, miss_r = 1.0 - acc.alpha_l, 1.0 - acc.alpha_r
    z_stay = max(costs.c_dec_l, costs.c_dec_r + miss_r * costs.rtt)
    z_hand = max(t_l, costs.c_dec_r + miss_r * t_l, costs.c_dec_l + miss_l * t_l)
    return current.other if z_hand < z_stay else current


class AggregatorPolicy:
    """The adaptive scheduler's state: the accept flags of the last outcome.

    Every party that decides feeds `observe` each outcome once, in step
    order, before it asks `next_side` about the following step.
    """

    def __init__(self) -> None:
        self.last = {Side.DEVICE: True, Side.CLOUD: True}

    def observe(self, accept_device: bool, accept_cloud: bool) -> None:
        self.last = {Side.DEVICE: accept_device, Side.CLOUD: accept_cloud}

    def next_side(
        self, current: Side, c_dec: Mapping[Side, float], c_trans: Mapping[Side, float]
    ) -> Side:
        """Side that should aggregate next, from per-side decode and one-way costs (ms)."""
        remote = current.other
        costs = CostVector(c_dec[current], c_dec[remote], c_trans[current], c_trans[remote])
        acc = AcceptanceEstimate(float(self.last[current]), float(self.last[remote]))
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
