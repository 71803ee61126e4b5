"""Toy corpus, lexical relevance scoring, and top-k retrieval.

Documents are short token-id sequences.  Relevance is log(1 + unigram
overlap) with a floor when nothing overlaps: a cheap, deterministic,
monotone stand-in for a learned scorer.  The two peers can draw from
complementary halves of the same ranked list to model split corpora.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import derive_seed

DEFAULT_CHUNK_SIZE = 64
NO_OVERLAP_SCORE = -20.0
N_TOPICS = 8  # topic bands of `random_corpus`


@dataclass(frozen=True)
class Document:
    """A token-id sequence with its bigram successor index, built on first use."""

    id: int
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError(f"document {self.id} is empty")
        if any(t < 0 for t in self.tokens):
            raise ValueError(f"document {self.id} has negative token ids")

    @functools.cached_property
    def distinct_ids(self) -> np.ndarray:
        """The document's distinct token ids, ascending; read-only."""
        ids = np.array(sorted(set(self.tokens)), dtype=np.int64)
        ids.setflags(write=False)
        return ids

    @functools.cached_property
    def successor_counts(self) -> dict[int, np.ndarray]:
        """Per token with a successor, its successor counts over distinct_ids.

        A token that only ends the document has no row.  Rows are views of
        one read-only block, counted in one pass over the bigrams.
        """
        ids, n = self.distinct_ids, self.distinct_ids.size
        cols = ids.searchsorted(np.array(self.tokens, dtype=np.int64))
        counts = np.bincount(cols[:-1] * n + cols[1:], minlength=n * n).reshape(n, n)
        preds = np.flatnonzero(np.bincount(cols[:-1], minlength=n))
        block = counts[preds].astype(np.int64, copy=False)
        block.setflags(write=False)
        return dict(zip(ids[preds].tolist(), block))


@dataclass(frozen=True)
class Corpus:
    docs: tuple[Document, ...]
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        ids = [d.id for d in self.docs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate document ids")

    def __len__(self) -> int:
        return len(self.docs)

    def max_token(self) -> int:
        return max(max(d.tokens) for d in self.docs) if self.docs else 0


class Half(enum.Enum):
    """Which slice of the ranked top-2k list a side receives."""

    FIRST = "first"
    SECOND = "second"
    ALL = "all"


def relevance_score(window: Sequence[int], doc: Document) -> float:
    """log(1 + distinct shared token ids), floored when disjoint."""
    return overlap_score(len(set(window).intersection(doc.tokens)))


def overlap_score(overlap: int) -> float:
    """The relevance of `overlap` distinct shared token ids."""
    if overlap == 0:
        return NO_OVERLAP_SCORE
    return math.log1p(overlap)


def retrieve(
    corpus: Corpus, query: Sequence[int], k: int, half: Half = Half.ALL
) -> list[tuple[Document, float]]:
    """Rank by lexical relevance and return the requested slice.

    Half.ALL returns the top-k.  FIRST/SECOND split the top-2k list so two
    sides see complementary documents; score ties break toward lower doc id.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not corpus.docs:
        raise ValueError("empty corpus")
    scored = [(doc, relevance_score(query, doc)) for doc in corpus.docs]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    if half is Half.ALL:
        return scored[:k]
    top = scored[: 2 * k]
    return top[:k] if half is Half.FIRST else top[k : 2 * k]


def load_corpus(path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Corpus:
    """Newline-delimited records of whitespace-separated token ids.

    Record number becomes the document id; records are truncated to
    chunk_size tokens.
    """
    docs: list[Document] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh):
            fields = line.split()
            if not fields:
                continue
            tokens = tuple(int(f) for f in fields)[:chunk_size]
            docs.append(Document(id=lineno, tokens=tokens))
    if not docs:
        raise ValueError(f"no documents in {path}")
    return Corpus(docs=tuple(docs), chunk_size=chunk_size)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for doc in corpus.docs:
            fh.write(" ".join(str(t) for t in doc.tokens) + "\n")


def random_corpus(
    n_docs: int,
    vocab_size: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Corpus:
    """Synthetic corpus with topic structure.

    Each document mixes one of N_TOPICS topic-specific token bands with a
    shared common band, so retrieval rankings are meaningful and documents
    from different topics overlap only partially.
    """
    if vocab_size < 16:
        raise ValueError("vocab too small for a structured corpus")
    rng = np.random.default_rng(derive_seed(seed, "corpus"))
    common = np.arange(vocab_size // 8)
    band = max(4, (vocab_size - common.size) // N_TOPICS)
    docs: list[Document] = []
    for i in range(n_docs):
        topic = int(rng.integers(N_TOPICS))
        lo = common.size + topic * band
        topical = np.arange(lo, min(lo + band, vocab_size))
        if topical.size == 0:
            topical = common
        mix = rng.random(chunk_size) < 0.3
        tokens = np.where(
            mix,
            rng.choice(common, size=chunk_size),
            rng.choice(topical, size=chunk_size),
        )
        docs.append(Document(id=i, tokens=tuple(int(t) for t in tokens)))
    return Corpus(docs=tuple(docs), chunk_size=chunk_size)
