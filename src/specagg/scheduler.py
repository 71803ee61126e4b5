"""Selection of the aggregation side, one step at a time.

The math lives in local/remote coordinates: `l` is whichever side currently
aggregates, `r` the other one.  The per-token latency model says: an accepted
remote draft costs only decoding overlap, a rejected one additionally burns
a full round trip before the remote side can restart.

`choose_side` is the one place that picks the side, for the simulator and
for both live nodes alike.  It works on side indices (0 device, 1 cloud) and
index-ordered pairs of plain floats, and prices the next step both ways from
the accept flags of the outcome just aggregated, which every caller already
holds.  A hand-off is charged the one-way trip that carries the outcome (and
the role) to the other side: after a rejected remote draft, the remote side
that takes the role along with the outcome redrafts without a second link
crossing.  Callers reach it as `scheduler.choose_side`, so a wrapper on the
module attribute sees every decision.
"""

from __future__ import annotations

from dataclasses import dataclass

STRATEGIES = ("device", "cloud", "random", "dragon")  # the simulator's placements


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
    """Acceptance rate of each side's drafts, l/r-oriented."""

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


def choose_side(
    agg: int,
    c_dec: tuple[float, float],
    c_trans: tuple[float, float],
    accept: tuple[bool, bool],
) -> int:
    """Index of the side that should aggregate the next step; ties keep `agg`.

    c_dec and c_trans are each side's decode and one-way transmission costs
    (ms), accept the accept flags of the step just aggregated, all indexed
    0 device, 1 cloud.  With l = agg, r the other side and
    rtt = t_l + t_r, staying costs Z_stay = max(c_l, c_r + (1 - a_r) * rtt);
    handing the role over with the outcome costs
    Z_hand = max(t_l, c_r + (1 - a_r) * t_l, c_l + (1 - a_l) * t_l):
    the new aggregator learns the outcome one transmission later, redrafts
    at once if it was rejected, and waits for the old aggregator's draft.
    """
    other = 1 - agg
    c_l, c_r, t_l = c_dec[agg], c_dec[other], c_trans[agg]
    miss_l, miss_r = 1.0 - accept[agg], 1.0 - accept[other]
    z_stay = max(c_l, c_r + miss_r * (t_l + c_trans[other]))
    z_hand = max(t_l, c_r + miss_r * t_l, c_l + miss_l * t_l)
    return other if z_hand < z_stay else agg


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
