"""Distributions over a token vocabulary and the operations on them.

A distribution is carried as its sorted support: the ascending ids of the
tokens with nonzero probability and their natural-log probabilities.  A
side's mixture has at most k * chunk_size such ids whatever the vocabulary
size, and the runtime (mixture, sampling, top-p codec, aggregation) works on
the support alone.  Dense vocabulary-length views exist for the analysis
functions (interpolation, overlap divergence) and test oracles.  Linear
probabilities only appear where a CDF is unavoidable (sampling, codec).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-6
# f16 rounding can push the kept mass slightly above 1.
COMPRESSED_SUM_BOUND = 1.0 + 2.0**-9
F16_TINY = 2.0**-24  # smallest positive float16


class VocabMismatchError(ValueError):
    """Two distributions indexed by different vocabularies."""


@dataclass(frozen=True)
class Vocab:
    """Dense token-id space: ids are 0 .. size-1."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")


def logsumexp(logs: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Stable log(sum(exp(logs))); handles -inf entries and all--inf input."""
    keep = axis is not None
    m = np.max(logs, axis=axis, keepdims=keep)
    finite = np.isfinite(m)
    if finite.all():
        # the common case: a finite maximum, so no guard is needed
        out = m + np.log(np.sum(np.exp(logs - m), axis=axis, keepdims=keep))
    else:
        m_safe = np.where(finite, m, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = m_safe + np.log(np.sum(np.exp(logs - m_safe), axis=axis, keepdims=keep))
        out = np.where(finite, out, m)
    if axis is None:
        return float(out)
    return np.squeeze(out, axis=axis)


class LogDist:
    """A normalized distribution over a vocabulary, stored as its support.

    `token_ids` lists the tokens of nonzero probability in ascending order and
    `support_logp` their log-probs; every other token has probability 0, and
    logsumexp(support_logp) is 0 within NORM_TOL.  The runtime only ever
    touches the support, so its cost per token does not grow with the
    vocabulary.  `logp` and `probs()` are dense views for the analysis
    functions and tests, which run on small vocabularies.  Instances are
    immutable and safe to share between threads.
    """

    def __init__(self, vocab: Vocab, logp: np.ndarray) -> None:
        """Dense constructor: one log-prob per token, -inf for zero mass."""
        logp = np.asarray(logp, dtype=np.float64)
        if logp.shape != (vocab.size,):
            raise ValueError(f"logp shape {logp.shape} != ({vocab.size},)")
        ids = np.flatnonzero(logp != -np.inf)
        self._set(vocab, ids, logp[ids])

    @classmethod
    def from_support(cls, vocab: Vocab, token_ids: np.ndarray, logp: np.ndarray) -> "LogDist":
        """Sparse constructor: strictly increasing ids and their finite log-probs."""
        dist = cls.__new__(cls)
        dist._set(vocab, np.asarray(token_ids, dtype=np.int64), np.asarray(logp, dtype=np.float64))
        return dist

    def _set(self, vocab: Vocab, ids: np.ndarray, logp: np.ndarray) -> None:
        if ids.ndim != 1 or ids.shape != logp.shape:
            raise ValueError("token_ids and logp must be 1-d and congruent")
        if not np.isfinite(logp).all():
            if np.isnan(logp).any():
                raise ValueError("logp contains NaN")
            if np.isposinf(logp).any():
                raise ValueError("logp contains +inf")
            raise ValueError("support log-prob is -inf")
        if ids.size == 0:
            raise ValueError("distribution not normalized: empty support")
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("token ids must be strictly increasing")
        if ids[0] < 0 or ids[-1] >= vocab.size:
            raise ValueError("token id outside vocabulary")
        total = logsumexp(logp)
        if not math.isfinite(total) or abs(total) > NORM_TOL:
            raise ValueError(f"distribution not normalized: logsumexp={total!r}")
        ids.setflags(write=False)
        logp.setflags(write=False)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "token_ids", ids)
        object.__setattr__(self, "support_logp", logp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LogDist is immutable; cannot set {name}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogDist):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and np.array_equal(self.token_ids, other.token_ids)
            and np.array_equal(self.support_logp, other.support_logp)
        )

    def __hash__(self) -> int:
        return hash((self.vocab, self.token_ids.tobytes(), self.support_logp.tobytes()))

    def __repr__(self) -> str:
        return f"LogDist(vocab={self.vocab.size}, support={self.token_ids.size})"

    @classmethod
    def from_probs(cls, vocab: Vocab, probs: np.ndarray) -> "LogDist":
        p = np.asarray(probs, dtype=np.float64)
        if (p < 0).any():
            raise ValueError("negative probability")
        total = p.sum()
        if total <= 0:
            raise ValueError("empty distribution")
        with np.errstate(divide="ignore"):
            return cls(vocab, np.log(p / total))

    @classmethod
    def from_logits(cls, vocab: Vocab, logits: np.ndarray) -> "LogDist":
        a = np.asarray(logits, dtype=np.float64)
        return cls(vocab, a - logsumexp(a))

    @classmethod
    def one_hot(cls, vocab: Vocab, token: int) -> "LogDist":
        return cls.from_support(vocab, [token], [0.0])

    @functools.cached_property
    def logp(self) -> np.ndarray:
        """Dense read-only view: one log-prob per token, -inf off the support."""
        out = np.full(self.vocab.size, -np.inf)
        out[self.token_ids] = self.support_logp
        out.setflags(write=False)
        return out

    def probs(self) -> np.ndarray:
        """Dense linear-space copy; logp <= 0 throughout so exp never overflows."""
        return np.exp(self.logp)

    def support_probs(self) -> np.ndarray:
        """Linear-space probabilities of `token_ids`, in the same order."""
        return np.exp(self.support_logp)

    def logp_of(self, token: int) -> float:
        """Log-prob of one token by binary search; -inf off the support."""
        pos = int(self.token_ids.searchsorted(token))
        if pos < self.token_ids.size and self.token_ids[pos] == token:
            return float(self.support_logp[pos])
        return -math.inf

    def probs_at(self, tokens: np.ndarray) -> np.ndarray:
        """Probabilities of the given tokens by binary search; 0 off the support."""
        pos = self.token_ids.searchsorted(tokens)
        hit = pos < self.token_ids.size
        hit[hit] = self.token_ids[pos[hit]] == tokens[hit]
        out = np.zeros(tokens.shape)
        out[hit] = np.exp(self.support_logp[pos[hit]])
        return out

    def prob(self, token: int) -> float:
        return math.exp(self.logp_of(token))


@dataclass(frozen=True)
class CorrectedWeight:
    """log of the summed exponentiated relevance scores of one side's docs.

    Finite for any finite scores; the softmax of the two sides' values gives
    the interpolation weights.
    """

    hlog: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.hlog):
            raise ValueError(f"corrected weight must be finite, got {self.hlog!r}")


def _hlog(h: CorrectedWeight | float) -> float:
    value = h.hlog if isinstance(h, CorrectedWeight) else float(h)
    if not math.isfinite(value):
        raise ValueError(f"corrected weight must be finite, got {value!r}")
    return value


def eta_log_weights(
    h_l: CorrectedWeight | float, h_r: CorrectedWeight | float
) -> tuple[float, float]:
    """Log-softmax of the two corrected weights: (log eta_l, log eta_r).

    Computed via log-sum-exp so weights hundreds of nats apart neither
    overflow nor underflow.
    """
    a, b = _hlog(h_l), _hlog(h_r)
    total = np.logaddexp(a, b)
    return float(a - total), float(b - total)


def interpolate_target(
    p_l: LogDist,
    p_r: LogDist,
    h_l: CorrectedWeight | float,
    h_r: CorrectedWeight | float,
) -> LogDist:
    """Weighted mixture of the two streams, entirely in log space.

    result(x) = log(eta_l * exp(p_l(x)) + eta_r * exp(p_r(x))).
    """
    if p_l.vocab != p_r.vocab:
        raise VocabMismatchError(f"{p_l.vocab} != {p_r.vocab}")
    log_eta_l, log_eta_r = eta_log_weights(h_l, h_r)
    mixed = np.logaddexp(log_eta_l + p_l.logp, log_eta_r + p_r.logp)
    return LogDist(p_l.vocab, mixed)


def lk_divergence(p_l: LogDist, p_r: LogDist) -> float:
    """1 - sum_x min(p_l(x), p_r(x)); 0 for identical, 1 for disjoint."""
    if p_l.vocab != p_r.vocab:
        raise VocabMismatchError(f"{p_l.vocab} != {p_r.vocab}")
    overlap = logsumexp(np.minimum(p_l.logp, p_r.logp))
    return float(min(1.0, max(0.0, 1.0 - math.exp(overlap))))


@dataclass(frozen=True, eq=False)
class CompressedDist:
    """Sparse top-p form of a LogDist: (token id, f16 probability) pairs.

    Token ids are strictly increasing, values positive, and the total kept
    mass is at most 1 + 2^-9 (f16 rounding slack).
    """

    vocab_size: int
    token_ids: np.ndarray  # uint32, strictly increasing
    values: np.ndarray  # float16, positive

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedDist):
            return NotImplemented
        return (
            self.vocab_size == other.vocab_size
            and np.array_equal(self.token_ids, other.token_ids)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.vocab_size, self.token_ids.tobytes(), self.values.tobytes()))

    def __post_init__(self) -> None:
        ids = np.asarray(self.token_ids, dtype=np.uint32)
        vals = np.asarray(self.values, dtype=np.float16)
        if ids.shape != vals.shape or ids.ndim != 1:
            raise ValueError("token_ids and values must be 1-d and congruent")
        if ids.size == 0:
            raise ValueError("empty compressed distribution")
        if (np.diff(ids.astype(np.int64)) <= 0).any():
            raise ValueError("token ids must be strictly increasing")
        if ids[-1] >= self.vocab_size:
            raise ValueError("token id outside vocabulary")
        if (vals <= 0).any():
            raise ValueError("values must be positive")
        if float(vals.astype(np.float64).sum()) > COMPRESSED_SUM_BOUND:
            raise ValueError("kept mass exceeds 1 + 2^-9")
        ids.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "token_ids", ids)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.token_ids.size)

    def pairs(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.token_ids, self.values)]


def topp_encode(
    p: LogDist, p_threshold: float, *, force_token: int | None = None
) -> CompressedDist:
    """Keep the smallest set of highest-probability tokens covering p_threshold.

    Ties in probability break toward the lower token id.  The boundary is
    inclusive (cumulative >= threshold).  force_token, when given, is always
    part of the kept set regardless of its mass.  Only the support is sorted.
    Kept masses too small for f16 are raised to F16_TINY.
    """
    if not 0.0 < p_threshold <= 1.0:
        raise ValueError(f"p_threshold must be in (0, 1], got {p_threshold}")
    probs = p.support_probs()
    nonzero = np.flatnonzero(probs > 0.0)
    if nonzero.size == 0:
        raise ValueError("empty distribution")
    if p_threshold >= 1.0:
        keep = nonzero
    else:
        # stable argsort keeps ascending-id order among equal probabilities
        order = np.argsort(-probs, kind="stable")
        cum = np.cumsum(probs[order])
        cut = int(np.searchsorted(cum, p_threshold - 1e-12, side="left")) + 1
        keep = order[:cut]
        keep = keep[probs[keep] > 0.0]
    if force_token is not None:
        pos = int(np.searchsorted(p.token_ids, force_token))
        if pos == p.token_ids.size or p.token_ids[pos] != force_token or probs[pos] <= 0.0:
            raise ValueError(f"cannot force zero-probability token {force_token}")
        if pos not in keep:
            keep = np.append(keep, pos)
    keep = np.sort(keep)
    return CompressedDist(
        vocab_size=p.vocab.size,
        token_ids=p.token_ids[keep].astype(np.uint32),
        # f16 rounds a mass below 2^-25 to 0, which the wire cannot carry, so
        # a kept token travels with at least the smallest positive f16
        values=np.maximum(probs[keep], F16_TINY).astype(np.float16),
    )


def topp_decode(c: CompressedDist) -> LogDist:
    """The kept tokens as a LogDist, their mass renormalized to 1.

    Any sum of f16 values below 2 is exact in float64, so the normalizer does
    not depend on summation order.
    """
    values = c.values.astype(np.float64)
    return LogDist.from_support(Vocab(c.vocab_size), c.token_ids, np.log(values / values.sum()))


def inverse_cdf_sample(probs: np.ndarray, u: float) -> int:
    """Smallest token id whose cumulative probability exceeds u.

    One uniform draw reproduces the pick bit-exactly anywhere; probs need not
    be normalized (u scales with the total mass).
    """
    cdf = np.cumsum(probs)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from zero-mass vector")
    idx = int(np.searchsorted(cdf, u * total, side="right"))
    if idx >= probs.size:
        idx = int(np.flatnonzero(probs > 0)[-1])
    return idx
