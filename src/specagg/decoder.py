"""Deterministic document-conditioned toy decoder.

Each side drafts tokens from a mixture of per-document conditionals.  The
conditional is a per-document bigram table with add-one smoothing over the
document's distinct tokens; when the previous token has no successors in the
document, a categorical seeded by (doc id, previous token) stands in.  This
keeps the two sides' distributions genuinely different yet fully
reproducible from (context, documents, scores, seed) alone.  The decoder has
no hidden state, so rolling back is just truncating the context.

Either way a conditional's support is the document's distinct tokens, so a
mixture of k documents has at most k * chunk_size ids whatever the
vocabulary size, and the decoder works on those ids alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .common import Side
from .dists import LogDist, Vocab, inverse_cdf_sample, logsumexp
from .retrieval import Document, relevance_score
from .rng import derive_seed


class ContextExhaustedError(RuntimeError):
    """The context window is full; no further tokens can be decoded."""


@dataclass(frozen=True)
class DraftRecord:
    """One drafted token with everything the aggregator needs.

    step counts generated tokens (0-based, prompt excluded); dist assigns the
    drafted token nonzero probability by construction.
    """

    side: Side
    step: int
    token: int
    dist: LogDist
    h: float
    decode_ms: float


@dataclass
class DecoderState:
    """Owned by exactly one decoding task; mutated in place.

    context holds prompt + generated-so-far; scores carry the current
    relevance estimate per retrieved document.
    """

    vocab: Vocab
    docs: tuple[Document, ...]
    scores: np.ndarray
    context: list[int]
    prompt_len: int
    seed: int
    max_context: int
    chunk_size: int
    side: Side = Side.DEVICE

    @classmethod
    def start(
        cls,
        vocab: Vocab,
        retrieved: Sequence[tuple[Document, float]],
        prompt: Sequence[int],
        seed: int,
        max_context: int,
        chunk_size: int,
        side: Side = Side.DEVICE,
    ) -> "DecoderState":
        if not retrieved:
            raise ValueError("decoder needs at least one document")
        if len(prompt) >= max_context:
            raise ValueError("prompt already fills the context window")
        docs = tuple(doc for doc, _ in retrieved)
        for doc in docs:
            bad = [t for t in doc.tokens if t >= vocab.size]
            if bad:
                raise ValueError(f"document {doc.id} has tokens outside vocab: {bad[:4]}")
        scores = np.array([score for _, score in retrieved], dtype=np.float64)
        return cls(
            vocab=vocab,
            docs=docs,
            scores=scores,
            context=list(prompt),
            prompt_len=len(prompt),
            seed=seed,
            max_context=max_context,
            chunk_size=chunk_size,
            side=side,
        )

    @property
    def step(self) -> int:
        return len(self.context)

    @property
    def gen_step(self) -> int:
        return len(self.context) - self.prompt_len


@lru_cache(maxsize=4096)
def _conditional(doc: Document, prev: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse p(next | doc, previous token): (ascending ids, log-probs).

    Cached: pure function; the arrays are read-only because every caller
    shares them.
    """
    support = tuple(sorted(set(doc.tokens)))
    counts = {t: 0 for t in support}
    row_total = 0
    for a, b in zip(doc.tokens, doc.tokens[1:]):
        if a == prev:
            counts[b] += 1
            row_total += 1
    if row_total > 0:
        weights = np.array([counts[t] + 1.0 for t in support])
    else:
        rng = np.random.default_rng(derive_seed(doc.id, "fallback", prev))
        weights = rng.exponential(size=len(support))
    ids = np.array(support, dtype=np.int64)
    logp = np.log(weights / weights.sum())
    ids.setflags(write=False)
    logp.setflags(write=False)
    return ids, logp


def rerank(state: DecoderState) -> np.ndarray:
    """Recompute relevance from the trailing context window, in place.

    Window length equals the corpus chunk size.  Also refreshes the corrected
    weight implicitly: it is always the log-sum-exp of the current scores.
    """
    window = state.context[-state.chunk_size :]
    state.scores = np.array(
        [relevance_score(window, doc) for doc in state.docs], dtype=np.float64
    )
    return state.scores


def corrected_weight(state: DecoderState) -> float:
    return float(logsumexp(state.scores))


def local_mixture(state: DecoderState) -> LogDist:
    """Per-side mixture: softmax(scores) over per-document conditionals.

    The (k, |union of supports|) table holds the same columns as a dense
    (k, V) table would, minus the all-zero ones, so each mixed log-prob is
    computed by the same arithmetic.
    """
    prev = state.context[-1]
    log_w = state.scores - logsumexp(state.scores)
    rows = [_conditional(doc, prev) for doc in state.docs]
    row_ids = np.concatenate([r_ids for r_ids, _ in rows])
    # sort and dedupe by hand: np.unique's first call imports numpy.ma (~12 ms)
    ids = np.sort(row_ids)
    ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    row_of = np.repeat(np.arange(len(rows)), [r_ids.size for r_ids, _ in rows])
    table = np.full((len(rows), ids.size), -np.inf)
    table[row_of, ids.searchsorted(row_ids)] = np.concatenate([r_logp for _, r_logp in rows])
    mixed = np.asarray(logsumexp(table + log_w[:, None], axis=0))
    return LogDist.from_support(state.vocab, ids, mixed - logsumexp(mixed))


def decode_step(state: DecoderState, rng_draw: float) -> DraftRecord:
    """Draft one token from the locally-aggregated mixture and extend context.

    The token is picked by inverse CDF over the support in ascending token
    id, so the single uniform reproduces the draw bit-exactly in any
    implementation; zero-mass tokens would add exactly 0.0 to the cumsum.
    """
    if len(state.context) >= state.max_context:
        raise ContextExhaustedError(
            f"context {len(state.context)} >= max {state.max_context}"
        )
    started = time.perf_counter()
    dist = local_mixture(state)
    token = int(dist.token_ids[inverse_cdf_sample(dist.support_probs(), rng_draw)])
    h = corrected_weight(state)
    step = state.gen_step
    state.context.append(token)
    return DraftRecord(
        side=state.side,
        step=step,
        token=token,
        dist=dist,
        h=h,
        decode_ms=(time.perf_counter() - started) * 1000.0,
    )


def rollback(state: DecoderState, accepted_prefix: Sequence[int], next_input: int) -> None:
    """Truncate context to the accepted prefix and feed the target token.

    Document scores are left untouched; the next rerank/decode pair rebuilds
    everything that depended on the discarded suffix.
    """
    if len(accepted_prefix) > len(state.context):
        raise ValueError(
            f"prefix length {len(accepted_prefix)} exceeds context {len(state.context)}"
        )
    state.context[:] = list(accepted_prefix) + [next_input]
