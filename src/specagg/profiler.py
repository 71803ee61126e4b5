"""Latency models: offline least-squares fit plus cheap runtime refinement.

The decode model keeps its slope as an explicit numerator/denominator pair
(k_a, k_b) because the runtime update blends new observations into both
while the intercept k_c stays frozen at its offline value.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .common import Side
from .decoder import DecoderState, decode_step, rerank
from .dists import Vocab
from .retrieval import Half, random_corpus, retrieve
from .rng import decode_uniform

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


def fit_offline(samples: Sequence[tuple[float, float]]) -> DecodeModel:
    """Least-squares line over (step, delay) samples; k_b fixed to 1."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    ts = [float(t) for t, _ in samples]
    cs = [float(c) for _, c in samples]
    n = len(ts)
    mean_t = sum(ts) / n
    mean_c = sum(cs) / n
    var_t = sum((t - mean_t) ** 2 for t in ts)
    if var_t == 0.0:
        raise ValueError("degenerate samples: all steps identical")
    cov = sum((t - mean_t) * (c - mean_c) for t, c in zip(ts, cs))
    slope = cov / var_t
    return DecodeModel(k_a=slope, k_b=1.0, k_c=mean_c - slope * mean_t)


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


def measure_decode_curve(
    vocab_size: int = 256,
    n_docs: int = 4,
    chunk_size: int = 64,
    max_context: int = 256,
    repeats: int = 3,
    seed: int = 0,
    sleep_ms: float = 0.0,
    sleeper: Callable[[float], None] = time.sleep,
) -> list[tuple[int, float]]:
    """Dummy-decode timing loop over steps chunk_size .. max_context-1.

    Builds a synthetic retrieval + decoder pipeline, decodes to the context
    limit, and averages the per-step wall time over `repeats` runs.  sleep_ms
    emulates a per-token model delay for fitting experiments.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    vocab = Vocab(vocab_size)
    corpus = random_corpus(max(8, 2 * n_docs), vocab_size, seed, chunk_size)
    prompt = list(corpus.docs[0].tokens[:chunk_size])
    totals: dict[int, float] = {}
    for rep in range(repeats):
        retrieved = retrieve(corpus, prompt, n_docs, Half.ALL)
        state = DecoderState.start(
            vocab, retrieved, prompt, seed, max_context, chunk_size
        )
        while len(state.context) < max_context:
            t = len(state.context)
            started = time.perf_counter()
            rerank(state)
            decode_step(state, decode_uniform(seed + rep, state.gen_step))
            if sleep_ms > 0:
                sleeper(sleep_ms / 1000.0)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            totals[t] = totals.get(t, 0.0) + elapsed_ms
    return [(t, total / repeats) for t, total in sorted(totals.items())]


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

    def __init__(self, zeta: float = DEFAULT_ZETA) -> None:
        self.zeta = zeta
        self.models: dict[Side, DecodeModel | None] = {Side.DEVICE: None, Side.CLOUD: None}

    def observe_decode(self, side: Side, t: int, c_obs_ms: float) -> None:
        model = self.models[side]
        if model is None:
            # flat prior anchored at the first observation
            self.models[side] = DecodeModel(k_a=0.0, k_b=1.0, k_c=c_obs_ms)
        elif t > 0:
            self.models[side] = update_runtime(model, t, c_obs_ms, self.zeta)

    def decode_estimate(self, side: Side, t: int, default: float = 1.0) -> float:
        model = self.models[side]
        if model is None:
            return default
        return max(0.0, model.predict(t))
