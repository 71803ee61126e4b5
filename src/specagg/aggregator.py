"""Dual-side speculative sampling and target-token selection.

Each step takes one draft per side plus both corrected weights, defines two
independent keep-or-resample processes (each marginally distributed as the
interpolated target), picks one of the two results uniformly, and flags each
draft accepted iff it equals the target.  The processes draw disjoint
uniforms, so only the picked one is run.  All randomness enters as explicit
uniforms so any run can be replayed draw-for-draw.

Convention: throughout the engine the `l` slot is the device stream and `r`
the cloud stream, regardless of which node executes the aggregation; that
keeps the output invariant under aggregator relocation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .common import ProtocolError
from .decoder import DraftRecord
from .dists import (
    LogDist,
    VocabMismatchError,
    eta_log_weights,
    inverse_cdf_sample,
    lk_divergence,
)
from .rng import AggregationDraws

GAMMA_L = 0.5  # selection weight of the l-stream sample; balances both sides' acceptance


class Resampled(enum.Enum):
    NONE = "none"
    ADJUSTED_L = "adjusted_l"
    ADJUSTED_R = "adjusted_r"


@dataclass(frozen=True)
class AggregationOutcome:
    step: int
    target: int
    accept_l: bool
    accept_r: bool
    resampled_from: Resampled = Resampled.NONE


def speculative_sample(
    x: int,
    p_a: LogDist,
    p_b: LogDist,
    eta: float,
    u_reject: float,
    u_resample: float,
) -> int:
    """Keep x, or resample from norm(max(0, p_b - p_a)) on rejection.

    Rejection fires only when p_a(x) > p_b(x), with probability
    eta * (1 - p_b(x)/p_a(x)); eta = 0 therefore always keeps x.  Both
    lookups are binary searches.  The residual is zero wherever p_b is, so
    it is built over p_b's support: of the union of the two supports, only
    those ids can carry residual mass.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if p_a.vocab != p_b.vocab:
        raise VocabMismatchError(f"{p_a.vocab} != {p_b.vocab}")
    la = p_a.logp_of(x)
    lb = p_b.logp_of(x)
    if la == -math.inf:
        raise ValueError(f"draft token {x} has zero probability under its own stream")
    if la > lb and u_reject < eta * (1.0 - math.exp(lb - la)):
        residual = np.maximum(p_b.support_probs - p_a.probs_at(p_b.token_ids), 0.0)
        # empty only when p_a(x) > p_b(x) by rounding alone: nothing to resample, keep x
        if residual.sum() > 0.0:
            return int(p_b.token_ids[inverse_cdf_sample(residual, u_resample)])
    return x


def aggregate(
    draft_l: DraftRecord,
    draft_r: DraftRecord,
    draws: AggregationDraws,
) -> AggregationOutcome:
    """One full aggregation step over a pair of same-step drafts; the l-stream
    sample becomes the target with probability GAMMA_L."""
    if draft_l.step != draft_r.step:
        raise ProtocolError(f"step mismatch: {draft_l.step} != {draft_r.step}")
    log_eta_l, log_eta_r = eta_log_weights(draft_l.h, draft_r.h)
    eta_l, eta_r = math.exp(log_eta_l), math.exp(log_eta_r)
    for draft in (draft_l, draft_r):
        if draft.dist.logp_of(draft.token) == -math.inf:
            raise ValueError(f"draft token {draft.token} has zero probability under its own stream")
    if draws.select <= GAMMA_L:
        target = speculative_sample(
            draft_l.token, draft_l.dist, draft_r.dist, eta_r, draws.reject_l, draws.resample_l
        )
        resampled = Resampled.ADJUSTED_L if target != draft_l.token else Resampled.NONE
    else:
        target = speculative_sample(
            draft_r.token, draft_r.dist, draft_l.dist, eta_l, draws.reject_r, draws.resample_r
        )
        resampled = Resampled.ADJUSTED_R if target != draft_r.token else Resampled.NONE
    return AggregationOutcome(
        step=draft_l.step,
        target=target,
        accept_l=draft_l.token == target,
        accept_r=draft_r.token == target,
        resampled_from=resampled,
    )


def expected_acceptance(
    p_l: LogDist, p_r: LogDist, eta_r: float, gamma_l: float
) -> float:
    """Probability that an l-stream draft survives aggregation.

    gamma_l * (1 - eta_r * divergence) covers the keep-or-resample path of
    the l sample; (1 - gamma_l) * sum_x p_l(x) p_t(x) covers the chance the
    independently produced r-side sample lands on the same token.
    """
    if not 0.0 <= eta_r <= 1.0:
        raise ValueError(f"eta_r must be in [0, 1], got {eta_r}")
    if not 0.0 <= gamma_l <= 1.0:
        raise ValueError(f"gamma_l must be in [0, 1], got {gamma_l}")
    delta = lk_divergence(p_l, p_r)
    log_eta_r = math.log(eta_r) if eta_r > 0.0 else -math.inf
    log_eta_l = math.log1p(-eta_r) if eta_r < 1.0 else -math.inf
    log_target = np.logaddexp(log_eta_l + p_l.logp, log_eta_r + p_r.logp)
    coincide = float(np.exp(p_l.logp + log_target).sum())
    return gamma_l * (1.0 - eta_r * delta) + (1.0 - gamma_l) * coincide


def _sample_columns(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, probs.size - 1)


def aggregate_batch(
    x_l: np.ndarray,
    x_r: np.ndarray,
    p_l: LogDist,
    p_r: LogDist,
    eta_r: float,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized twin of aggregate() for Monte-Carlo estimation.

    u has shape (n, 5) with columns (reject_l, resample_l, reject_r,
    resample_r, select), matching AggregationDraws order.  Returns
    (targets, accept_l, accept_r); agreement with the scalar path is
    property-tested.
    """
    pl = p_l.probs()
    pr = p_r.probs()
    eta_l = 1.0 - eta_r

    def one_side(x: np.ndarray, pa: np.ndarray, pb: np.ndarray, eta: float,
                 u_rej: np.ndarray, u_res: np.ndarray) -> np.ndarray:
        pa_x, pb_x = pa[x], pb[x]
        with np.errstate(divide="ignore", invalid="ignore"):
            reject = (pa_x > pb_x) & (u_rej < eta * (1.0 - pb_x / pa_x))
        out = x.copy()
        if reject.any():
            residual = np.clip(pb - pa, 0.0, None)
            out[reject] = _sample_columns(residual, u_res[reject])
        return out

    tilde_l = one_side(x_l, pl, pr, eta_r, u[:, 0], u[:, 1])
    tilde_r = one_side(x_r, pr, pl, eta_l, u[:, 2], u[:, 3])
    target = np.where(u[:, 4] <= GAMMA_L, tilde_l, tilde_r)
    return target, x_l == target, x_r == target


def simulate_aggregations(
    p_l: LogDist,
    p_r: LogDist,
    eta_r: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n full aggregation trials: drafts from each stream, then verify."""
    x_l = _sample_columns(p_l.probs(), rng.random(n))
    x_r = _sample_columns(p_r.probs(), rng.random(n))
    u = rng.random((n, 5))
    return aggregate_batch(x_l, x_r, p_l, p_r, eta_r, u)
