import math

import numpy as np
import pytest

from specagg.common import Side
from specagg.decoder import (
    ContextExhaustedError,
    DecoderState,
    _conditional,
    corrected_weight,
    decode_step,
    local_mixture,
    rerank,
    rollback,
)
from specagg.dists import Vocab, logsumexp
from specagg.retrieval import Document, NO_OVERLAP_SCORE, random_corpus, retrieve


def doc_conditional(doc, prev, vocab):
    """Dense reference: full log-prob vector for p(next | doc, previous token)."""
    ids, logp = _conditional(doc, prev)
    out = np.full(vocab.size, -np.inf)
    out[ids] = logp
    return out


def one_token_doc(did, token, length=4):
    """All positions the same token: its conditional is one-hot everywhere."""
    return Document(id=did, tokens=(token,) * length)


def make_state(docs_scores, prompt, vocab=8, seed=0, max_context=64, chunk=4):
    return DecoderState.start(
        Vocab(vocab), docs_scores, prompt, seed, max_context, chunk, side=Side.DEVICE
    )


class TestConditional:
    def test_bigram_row_with_smoothing(self):
        # successors of 1: [2, 2, 3]; support {1,2,3}; add-one:
        # counts 1->{2:2, 3:1}; weights (0+1, 2+1, 1+1) over (1,2,3)
        d = Document(id=0, tokens=(1, 2, 1, 2, 1, 3))
        logp = doc_conditional(d, 1, Vocab(8))
        probs = np.exp(logp)
        np.testing.assert_allclose(probs[[1, 2, 3]], [1 / 6, 3 / 6, 2 / 6], atol=1e-12)
        assert probs[[0, 4, 5, 6, 7]].sum() == 0.0

    def test_empty_row_fallback_deterministic(self):
        d = Document(id=3, tokens=(1, 2, 3))
        a = doc_conditional(d, 7, Vocab(8))
        b = doc_conditional(d, 7, Vocab(8))
        np.testing.assert_array_equal(a, b)
        assert np.exp(a).sum() == pytest.approx(1.0)
        # support stays within the document's tokens
        assert np.exp(a)[[0, 4, 5, 6, 7]].sum() == 0.0

    def test_fallback_varies_with_prev_token(self):
        d = Document(id=3, tokens=(1, 2, 3))
        a = doc_conditional(d, 6, Vocab(8))
        b = doc_conditional(d, 7, Vocab(8))
        assert not np.array_equal(a, b)


class TestRerank:
    def test_disjoint_window_floors_scores(self):
        state = make_state(
            [(Document(id=0, tokens=(1, 2)), 0.0), (Document(id=1, tokens=(3, 4)), 0.0)],
            prompt=[6, 7],
        )
        scores = rerank(state)
        assert list(scores) == [NO_OVERLAP_SCORE, NO_OVERLAP_SCORE]
        log_w = scores - logsumexp(scores)
        np.testing.assert_allclose(np.exp(log_w), [0.5, 0.5])

    def test_corrected_weight_is_logsumexp(self):
        state = make_state([(one_token_doc(0, 1), 0.0), (one_token_doc(1, 2), 0.0)], [1])
        state.scores = np.array([math.log(2.0), math.log(1.0)])
        assert corrected_weight(state) == pytest.approx(math.log(3.0))

    def test_rerank_idempotent(self):
        corpus = random_corpus(8, 32, seed=1, chunk_size=8)
        state = make_state(
            retrieve(corpus, list(corpus.docs[0].tokens), 3),
            list(corpus.docs[0].tokens[:6]),
            vocab=32,
            chunk=8,
        )
        first = rerank(state).copy()
        second = rerank(state)
        np.testing.assert_array_equal(first, second)

    def test_window_is_trailing_chunk(self):
        d = Document(id=0, tokens=(9,))
        state = make_state([(d, 0.0)], prompt=[9, 1, 1, 1, 1], vocab=16, chunk=4)
        # trailing 4 tokens exclude the 9 at position 0
        assert rerank(state)[0] == NO_OVERLAP_SCORE


class TestDecodeStep:
    def test_single_doc_one_hot(self):
        state = make_state([(one_token_doc(0, 7), 0.0)], prompt=[7])
        rec = decode_step(state, 0.42)
        assert rec.token == 7
        assert rec.step == 0
        assert np.exp(rec.dist.logp)[7] == pytest.approx(1.0)
        assert state.context == [7, 7]

    def test_equal_mixture_inverse_cdf(self):
        state = make_state(
            [(one_token_doc(0, 0), 0.0), (one_token_doc(1, 1), 0.0)], prompt=[2]
        )
        rec = decode_step(state, 0.25)
        np.testing.assert_allclose(np.exp(rec.dist.logp)[:2], [0.5, 0.5], atol=1e-12)
        assert rec.token == 0

    def test_deterministic_records(self):
        corpus = random_corpus(12, 64, seed=2, chunk_size=8)
        prompt = list(corpus.docs[0].tokens[:6])

        def run():
            state = make_state(retrieve(corpus, prompt, 4), prompt, vocab=64, chunk=8)
            rerank(state)
            return decode_step(state, 0.37)

        a, b = run(), run()
        assert a.token == b.token and a.step == b.step
        assert a.h == b.h
        assert a.dist == b.dist

    def test_mixture_matches_linear_oracle(self):
        rng = np.random.default_rng(6)
        for vocab in (64, 32768):
            corpus = random_corpus(16, vocab, seed=3, chunk_size=8)
            for _ in range(25):
                prompt = list(rng.integers(0, vocab, size=5))
                state = make_state(
                    retrieve(corpus, prompt, int(rng.integers(2, 9))),
                    prompt,
                    vocab=vocab,
                    chunk=8,
                )
                rerank(state)
                mixture = local_mixture(state).probs()
                weights = np.exp(state.scores - logsumexp(state.scores))
                prev = state.context[-1]
                reference = np.zeros(vocab)
                for w, d in zip(weights, state.docs):
                    reference += w * np.exp(doc_conditional(d, prev, state.vocab))
                assert 0.5 * np.abs(mixture - reference).sum() < 1e-9

    def test_context_exhausted(self):
        state = make_state([(one_token_doc(0, 1), 0.0)], prompt=[1, 1, 1], max_context=4)
        decode_step(state, 0.5)
        with pytest.raises(ContextExhaustedError):
            decode_step(state, 0.5)


class TestRollback:
    def test_extend_only(self):
        state = make_state([(one_token_doc(0, 1), 0.0)], prompt=[1, 2])
        rollback(state, [1, 2], 3)
        assert state.context == [1, 2, 3]

    def test_truncation_arithmetic(self):
        state = make_state([(one_token_doc(0, 1), 0.0)], prompt=list(range(10)) )
        rollback(state, list(range(7)), 99 % 8)
        assert len(state.context) == 8

    def test_prefix_too_long(self):
        state = make_state([(one_token_doc(0, 1), 0.0)], prompt=[1])
        with pytest.raises(ValueError, match="prefix"):
            rollback(state, [1, 2, 3], 4)

    def test_rollback_equals_fresh_state(self):
        corpus = random_corpus(12, 64, seed=4, chunk_size=8)
        prompt = list(corpus.docs[1].tokens[:6])
        retrieved = retrieve(corpus, prompt, 4)

        state = make_state(retrieved, prompt, vocab=64, chunk=8)
        for draw in (0.1, 0.9, 0.4):
            rerank(state)
            decode_step(state, draw)
        rollback(state, prompt + state.context[len(prompt) : len(prompt) + 1], 17)
        rerank(state)
        rolled = decode_step(state, 0.66)

        fresh = make_state(retrieved, state.context[:-1], vocab=64, chunk=8)
        rerank(fresh)
        direct = decode_step(fresh, 0.66)
        assert rolled.token == direct.token
        assert rolled.dist == direct.dist
        assert rolled.h == direct.h
