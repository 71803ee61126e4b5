import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from specagg.dists import Vocab, interpolate_target, logsumexp
from specagg.retrieval import (
    Document,
    Half,
    NO_OVERLAP_SCORE,
    overlap_score,
    random_corpus,
    retrieve,
)
from specagg.rng import decode_uniform, keyed_exponentials


def doc_conditional(doc, prev, vocab):
    """Dense reference: full log-prob vector for p(next | doc, previous token)."""
    ids, logp = _conditional(doc, prev)
    out = np.full(vocab.size, -np.inf)
    out[ids] = logp
    return out


def rescan_conditional(doc, prev):
    """Reference: p(next | doc, prev) by rescanning the document."""
    support = sorted(set(doc.tokens))
    counts = dict.fromkeys(support, 0)
    successors = [b for a, b in zip(doc.tokens, doc.tokens[1:]) if a == prev]
    for b in successors:
        counts[b] += 1
    if successors:
        weights = np.array([counts[t] + 1.0 for t in support])
    else:
        weights = keyed_exponentials(len(support), doc.id, "fallback", prev)
    return np.array(support, dtype=np.int64), np.log(weights / weights.sum())


def one_token_doc(did, token, length=4):
    """All positions the same token: its conditional is one-hot everywhere."""
    return Document(id=did, tokens=(token,) * length)


def make_state(docs_scores, prompt, vocab=8, seed=0, max_context=64, chunk=4):
    return DecoderState.start(Vocab(vocab), docs_scores, prompt, seed, max_context, chunk)


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


    def test_equals_rescan_reference(self):
        # every row kind: bigram rows, the last token's empty row, and a prev
        # absent from the document all fall back or count as a rescan would
        rng = np.random.default_rng(11)
        for did in range(40):
            tokens = tuple(int(t) for t in rng.integers(0, 24, size=int(rng.integers(1, 20))))
            doc = Document(id=did, tokens=tokens)
            for prev in range(26):
                ids, logp = _conditional(doc, prev)
                ref_ids, ref_logp = rescan_conditional(doc, prev)
                assert np.array_equal(ids, ref_ids)
                assert np.array_equal(logp, ref_logp)
                assert not ids.flags.writeable and not logp.flags.writeable


class TestFallbackDraw:
    def test_deterministic_per_key(self):
        # pinned: a change to the key, the hash or the transform moves these
        assert keyed_exponentials(3, 3, "fallback", 7).tolist() == [
            1.2616338519139192,
            0.30740847517630676,
            0.4871387892424307,
        ]
        assert keyed_exponentials(2, 0, "fallback", 0).tolist() == [
            1.311543863810207,
            0.9059478772414045,
        ]

    def test_positive_and_finite_for_every_row_size(self):
        for n in range(1, 65):
            w = keyed_exponentials(n, n, "fallback", 2 * n)
            assert w.shape == (n,)
            assert np.isfinite(w).all() and (w > 0.0).all()

    def test_looks_like_exp1(self):
        # 64,000 draws: the mean's standard error is 0.004, the tail share's 0.002
        w = np.concatenate(
            [keyed_exponentials(64, did, "fallback", prev) for did in range(40) for prev in range(25)]
        )
        assert abs(w.mean() - 1.0) <= 0.03
        assert abs((w > 1.0).mean() - math.exp(-1.0)) <= 0.01


class TestMixtureLayout:
    def test_layout_equals_per_call_union(self):
        # the union of the conditionals' supports and each row's columns,
        # computed from one call's rows, are what the state laid out at start
        rng = np.random.default_rng(12)
        for _ in range(30):
            sizes = rng.integers(1, 12, size=rng.integers(1, 7))
            docs = [
                Document(id=did, tokens=tuple(rng.integers(0, 40, size=n).tolist()))
                for did, n in enumerate(sizes)
            ]
            state = make_state([(d, 0.0) for d in docs], prompt=[0], vocab=40)
            for prev in (0, int(rng.integers(0, 40))):
                rows = [_conditional(d, prev) for d in docs]
                row_ids = np.concatenate([ids for ids, _ in rows])
                union = np.array(sorted(set(row_ids.tolist())), dtype=np.int64)
                row_of = np.repeat(np.arange(len(rows)), [ids.size for ids, _ in rows])
                table = np.full((len(rows), union.size), -np.inf)
                table[row_of, union.searchsorted(row_ids)] = np.concatenate([lp for _, lp in rows])
                assert np.array_equal(state.mixture_ids, union)
                cols = row_of * union.size + union.searchsorted(row_ids)
                assert np.array_equal(state.mixture_cols, cols)
                flat = np.full(len(rows) * union.size, -np.inf)
                flat[state.mixture_cols] = np.concatenate([lp for _, lp in rows])
                assert np.array_equal(flat.reshape(table.shape), table)

    def test_layout_is_read_only(self):
        state = make_state([(Document(id=0, tokens=(1, 2, 1)), 0.0)], prompt=[1])
        assert not state.mixture_ids.flags.writeable
        assert not state.mixture_cols.flags.writeable


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


def window_overlaps(state):
    window = set(state.context[-state.chunk_size :])
    return tuple(len(window & set(d.tokens)) for d in state.docs)


def fresh_weights(state):
    """Scores, corrected weight and log-weights of the state's window, with
    no cache and the `ndarray` reductions."""
    scores = np.array([overlap_score(n) for n in window_overlaps(state)])
    m = scores.max()
    h = float(m + np.log(np.exp(scores - m).sum()))
    return scores, h, scores - h


def fresh_mixture(state):
    """The state's mixture log-probs over mixture_ids, with no cache."""
    _, _, log_w = fresh_weights(state)
    prev = state.context[-1]
    k = len(state.docs)
    table = np.full(k * state.mixture_ids.size, -np.inf)
    rows = [_conditional.__wrapped__(doc, prev)[1] for doc in state.docs]
    table[state.mixture_cols] = np.concatenate(rows)
    x = table.reshape(k, -1) + log_w[:, None]
    m = x.max(axis=0, keepdims=True)
    mixed = (m + np.log(np.exp(x - m).sum(axis=0, keepdims=True))).squeeze(axis=0)
    top = mixed.max()
    return mixed - float(top + np.log(np.exp(mixed - top).sum()))


class TestStateCaches:
    @given(
        corpus_seed=st.integers(0, 2**16),
        vocab=st.sampled_from([64, 256, 32768]),
        k=st.integers(1, 6),
        draws=st.lists(st.floats(0.0, 0.999), min_size=6, max_size=24),
        rollback_every=st.integers(2, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_weights_equal_fresh_ones(self, corpus_seed, vocab, k, draws, rollback_every):
        # a state reads the weights of an overlap vector it has seen before;
        # they, and the mixture over them, must be byte for byte what a
        # cache-free computation gives, across drafts and rollbacks
        corpus = random_corpus(24, vocab, seed=corpus_seed, chunk_size=16)
        prompt = list(corpus.docs[corpus_seed % 24].tokens[:10])
        state = make_state(retrieve(corpus, prompt, k), prompt, vocab=vocab, chunk=16)
        hits = 0
        for i, draw in enumerate(draws):
            hits += window_overlaps(state) in state._weights_by_overlap
            scores = rerank(state)
            ref_scores, ref_h, _ = fresh_weights(state)
            assert scores.tobytes() == ref_scores.tobytes()
            assert corrected_weight(state) == ref_h
            mixture = local_mixture(state)
            assert np.array_equal(mixture.token_ids, state.mixture_ids)
            assert mixture.support_logp.tobytes() == fresh_mixture(state).tobytes()
            rec = decode_step(state, draw)
            assert rec.dist == mixture and rec.h == ref_h
            if i % rollback_every == rollback_every - 1:
                # the redraft after a rejection sees the rolled-back window again
                rollback(state, state.context[:-2], state.context[-2])
        assert hits  # a rollback returns to a window seen before


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


class TestCentralizedEquivalence:
    """The paper's decomposition keeps centralized RAG's output distribution.

    The h-weighted interpolation of the two sides' k-document mixtures is
    the one mixture over the top-2k documents, at every decoded step.
    """

    @given(
        corpus_seed=st.integers(0, 2**16),
        vocab=st.sampled_from([256, 4096]),
        k=st.integers(1, 6),
        prompt_doc=st.integers(0, 31),
        prompt_len=st.integers(1, 24),
        steps=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_interpolated_halves_equal_top_2k_mixture(
        self, corpus_seed, vocab, k, prompt_doc, prompt_len, steps
    ):
        corpus = random_corpus(32, vocab, seed=corpus_seed, chunk_size=32)
        prompt = list(corpus.docs[prompt_doc].tokens[:prompt_len])

        def state(half, n_docs):
            retrieved = retrieve(corpus, prompt, n_docs, half)
            return DecoderState.start(Vocab(vocab), retrieved, prompt, 0, 64, 32)

        central = state(Half.ALL, 2 * k)
        first, second = state(Half.FIRST, k), state(Half.SECOND, k)
        for step in range(steps + 1):
            for side in (central, first, second):
                rerank(side)
            target = interpolate_target(
                local_mixture(first),
                local_mixture(second),
                corrected_weight(first),
                corrected_weight(second),
            )
            gap = np.abs(target.probs() - local_mixture(central).probs()).max()
            assert gap <= 1e-12, (step, gap)
            token = decode_step(central, decode_uniform(corpus_seed, step)).token
            first.context.append(token)
            second.context.append(token)
