"""Keyed deterministic draws.

Every random decision a node makes is keyed by (seed, purpose, indices)
through a hash, never by generator state.  Two processes that share a seed
therefore draw identical values no matter how their work interleaves, and a
speculative decode that gets discarded and redone consumes the same draw both
times.  A node draws its uniforms and its fallback rows' exponential weights
this way, counter-based as in Salmon et al. ("Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011): one hash per key and no generator to construct,
so no node ever loads `numpy.random`.  `derive_seed` also seeds the bulk
generators of the corpus, trace and verification helpers, which run outside
the nodes.
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple

import numpy as np

_SCALE = float(2**64)


def _key(seed: int, purpose: str, indices: tuple[int, ...]) -> bytes:
    return (f"{seed}|{purpose}|" + "|".join(str(i) for i in indices)).encode("ascii")


def derive_seed(seed: int, purpose: str, *indices: int) -> int:
    """64-bit sub-seed for bulk generators, determined by (seed, purpose, indices)."""
    digest = hashlib.blake2b(_key(seed, purpose, indices), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def keyed_exponentials(n: int, seed: int, purpose: str, *indices: int) -> np.ndarray:
    """n Exp(1) draws determined entirely by (seed, purpose, indices).

    One SHAKE-256 digest of the key gives n 32-bit words; word x becomes the
    uniform (x + 1/2) / 2^32, strictly inside (0, 1), and -log of it a
    positive, finite weight (at most 22.9).
    """
    words = np.frombuffer(hashlib.shake_256(_key(seed, purpose, indices)).digest(4 * n), "<u4")
    return -np.log((words + 0.5) * 2.0**-32)


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


@functools.lru_cache(maxsize=1024)
def decode_uniform(seed: int, step: int) -> float:
    """Sampling draw for the drafted token at a generation step.

    Deliberately side-independent: when both peers hold identical
    distributions they draft identical tokens and nothing is ever rejected.
    Cached: a redraft after a rollback reuses its step's draw.
    """
    return step_uniform(seed, "decode", step)
