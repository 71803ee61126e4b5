"""Step-indexed deterministic uniform draws.

Every random decision in a run is keyed by (seed, purpose, step) through a
hash, never by generator state.  Two processes that share a seed therefore
draw identical values no matter how their work interleaves, and a speculative
decode that gets discarded and redone consumes the same draw both times.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

_SCALE = float(2**64)


def derive_seed(seed: int, purpose: str, *indices: int) -> int:
    """64-bit sub-seed for bulk generators, determined by (seed, purpose, indices)."""
    key = f"{seed}|{purpose}|" + "|".join(str(i) for i in indices)
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def step_uniform(seed: int, purpose: str, *indices: int) -> float:
    """Uniform in [0, 1) determined entirely by (seed, purpose, indices)."""
    return derive_seed(seed, purpose, *indices) / _SCALE


class AggregationDraws(NamedTuple):
    """The five uniforms one aggregation step consumes.

    Two per speculative sample (rejection test + adjusted-distribution
    resample) plus one to select which sample becomes the target.  The two
    sample processes never share draws.
    """

    reject_l: float
    resample_l: float
    reject_r: float
    resample_r: float
    select: float


def aggregation_draws(seed: int, step: int) -> AggregationDraws:
    return AggregationDraws(
        reject_l=step_uniform(seed, "agg-reject-l", step),
        resample_l=step_uniform(seed, "agg-resample-l", step),
        reject_r=step_uniform(seed, "agg-reject-r", step),
        resample_r=step_uniform(seed, "agg-resample-r", step),
        select=step_uniform(seed, "agg-select", step),
    )


def decode_uniform(seed: int, step: int) -> float:
    """Sampling draw for the drafted token at a generation step.

    Deliberately side-independent: when both peers hold identical
    distributions they draft identical tokens and nothing is ever rejected.
    """
    return step_uniform(seed, "decode", step)
