"""Deterministic document-conditioned toy decoder.

Each side drafts tokens from a mixture of per-document conditionals.  The
conditional is a per-document bigram table with add-one smoothing over the
document's distinct tokens; when the previous token has no successors in the
document, normalized Exp(1) weights drawn from one hash of (doc id, previous
token) stand in (`rng.keyed_exponentials`).  This keeps the two sides'
distributions genuinely different yet fully reproducible from (context,
documents, scores, seed) alone.  The decoder has no hidden state, so rolling
back is just truncating the context.

Either way a conditional's support is the document's distinct tokens, so a
mixture of k documents has at most k * chunk_size ids whatever the
vocabulary size, and the decoder works on those ids alone.  Those ids, and
where each document's row sits among them, depend only on the retrieved
documents, so a state lays them out once when it starts.  A state also
keeps the scores, corrected weight and log-weights of each vector of window
overlaps it has seen: a redraft after a rollback, whose window is often one
seen before, reads them instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dists import LogDist, Vocab, inverse_cdf_sample, logsumexp
from .retrieval import Document, overlap_score
from .rng import keyed_exponentials


# a score vector, its log-sum-exp (the corrected weight) and its log-weights
_Weights = tuple[np.ndarray, float, np.ndarray]


class ContextExhaustedError(RuntimeError):
    """The context window is full; no further tokens can be decoded."""


@dataclass(frozen=True)
class DraftRecord:
    """One drafted token with everything the aggregator needs.

    step counts generated tokens (0-based, prompt excluded); dist assigns the
    drafted token nonzero probability by construction.
    """

    step: int
    token: int
    dist: LogDist
    h: float


@dataclass
class DecoderState:
    """Owned by exactly one decoding task; mutated in place.

    context holds prompt + generated-so-far; scores carry the current
    relevance estimate per retrieved document.  mixture_ids is the union of
    the documents' distinct ids, ascending, and mixture_cols the flat
    position of each document's conditional in a (len(docs), len(mixture_ids))
    table, row after row; both follow from docs alone.
    """

    vocab: Vocab
    docs: tuple[Document, ...]
    scores: np.ndarray
    context: list[int]
    prompt_len: int
    seed: int
    max_context: int
    chunk_size: int
    mixture_ids: np.ndarray = field(init=False, repr=False, compare=False)
    mixture_cols: np.ndarray = field(init=False, repr=False, compare=False)
    # window overlaps per document -> (scores, corrected weight, log-weights)
    _weights_by_overlap: dict[tuple[int, ...], _Weights] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _weights: _Weights | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ids = np.array(sorted(set().union(*(doc.tokens for doc in self.docs))), dtype=np.int64)
        cols = np.concatenate(
            [r * ids.size + ids.searchsorted(doc.distinct_ids) for r, doc in enumerate(self.docs)]
        )
        ids.setflags(write=False)
        cols.setflags(write=False)
        self.mixture_ids = ids
        self.mixture_cols = cols

    @classmethod
    def start(
        cls,
        vocab: Vocab,
        retrieved: Sequence[tuple[Document, float]],
        prompt: Sequence[int],
        seed: int,
        max_context: int,
        chunk_size: int,
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

    The ids are the document's distinct_ids.  Cached: pure function; the
    arrays are read-only because every caller shares them.
    """
    row = doc.successor_counts.get(prev)
    if row is not None:
        weights = row + 1.0
    else:
        weights = keyed_exponentials(doc.distinct_ids.size, doc.id, "fallback", prev)
    logp = np.log(weights / weights.sum())
    logp.setflags(write=False)
    return doc.distinct_ids, logp


def _scored(scores: np.ndarray) -> _Weights:
    """(scores, corrected weight, log-weights) of one score vector."""
    h = float(logsumexp(scores))
    return scores, h, scores - h


def _current_weights(state: DecoderState) -> _Weights:
    """The weights of `state.scores`, recomputed only if scores were replaced."""
    weights = state._weights
    if weights is None or weights[0] is not state.scores:
        weights = state._weights = _scored(state.scores)
    return weights


def rerank(state: DecoderState) -> np.ndarray:
    """Recompute relevance from the trailing context window, in place.

    Window length equals the corpus chunk size.  Also refreshes the corrected
    weight implicitly: it is always the log-sum-exp of the current scores.
    The scores returned are read-only.
    """
    window = set(state.context[-state.chunk_size :])
    overlaps = tuple([len(window.intersection(doc.tokens)) for doc in state.docs])
    weights = state._weights_by_overlap.get(overlaps)
    if weights is None:
        scores = np.array([overlap_score(n) for n in overlaps], dtype=np.float64)
        scores.setflags(write=False)
        weights = state._weights_by_overlap[overlaps] = _scored(scores)
    state._weights = weights
    state.scores = weights[0]
    return state.scores


def corrected_weight(state: DecoderState) -> float:
    return _current_weights(state)[1]


def local_mixture(state: DecoderState) -> LogDist:
    """Per-side mixture: softmax(scores) over per-document conditionals.

    The (k, |union of supports|) table holds the same columns as a dense
    (k, V) table would, minus the all-zero ones, so each mixed log-prob is
    computed by the same arithmetic.
    """
    prev = state.context[-1]
    log_w = _current_weights(state)[2]
    k = len(state.docs)
    table = np.full(k * state.mixture_ids.size, -np.inf)
    table[state.mixture_cols] = np.concatenate([_conditional(doc, prev)[1] for doc in state.docs])
    mixed = logsumexp(table.reshape(k, -1) + log_w[:, None], axis=0)
    return LogDist.from_support(state.vocab, state.mixture_ids, mixed - logsumexp(mixed))


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
    h = corrected_weight(state)
    dist = local_mixture(state)
    token = int(dist.token_ids[inverse_cdf_sample(dist.support_probs, rng_draw)])
    step = state.gen_step
    state.context.append(token)
    return DraftRecord(step=step, token=token, dist=dist, h=h)


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
