import math

import numpy as np
import pytest

from specagg.retrieval import (
    Corpus,
    Document,
    Half,
    NO_OVERLAP_SCORE,
    load_corpus,
    random_corpus,
    relevance_score,
    retrieve,
    save_corpus,
)


def doc(did, *tokens):
    return Document(id=did, tokens=tuple(tokens))


class TestScoring:
    def test_overlap_count_is_distinct_ids(self):
        d = doc(0, 1, 1, 2, 3)
        assert relevance_score([1, 2, 9], d) == pytest.approx(math.log(3))

    def test_disjoint_floor(self):
        assert relevance_score([7, 8], doc(0, 1, 2)) == NO_OVERLAP_SCORE

    def test_monotone_in_overlap(self):
        d = doc(0, 1, 2, 3, 4, 5)
        scores = [relevance_score(list(range(1, 1 + k)), d) for k in range(1, 6)]
        assert scores == sorted(scores)


class TestRetrieve:
    def test_single_doc_all(self):
        corpus = Corpus(docs=(doc(0, 1, 2),))
        [(d, _)] = retrieve(corpus, [1], k=1, half=Half.ALL)
        assert d.id == 0

    def test_exact_match_ranks_first(self):
        corpus = Corpus(docs=(doc(0, 5, 6), doc(1, 1, 2, 3), doc(2, 1, 9)))
        ranked = retrieve(corpus, [1, 2, 3], k=3)
        assert ranked[0][0].id == 1

    def test_half_split(self):
        # overlap counts 5, 4, 3, 2 by construction
        query = [1, 2, 3, 4, 5]
        corpus = Corpus(
            docs=(
                doc(0, 1, 2, 3, 4, 5),
                doc(1, 1, 2, 3, 4, 9),
                doc(2, 1, 2, 3, 8, 9),
                doc(3, 1, 2, 7, 8, 9),
            )
        )
        brute = sorted(
            ((relevance_score(query, d), d.id) for d in corpus.docs), reverse=True
        )
        first = retrieve(corpus, query, k=2, half=Half.FIRST)
        second = retrieve(corpus, query, k=2, half=Half.SECOND)
        assert [d.id for d, _ in first] == [did for _, did in brute[:2]] == [0, 1]
        assert [d.id for d, _ in second] == [did for _, did in brute[2:4]] == [2, 3]

    def test_ties_break_by_doc_id(self):
        corpus = Corpus(docs=(doc(3, 1, 2), doc(1, 1, 2), doc(2, 1, 2)))
        ranked = retrieve(corpus, [1, 2], k=3)
        assert [d.id for d, _ in ranked] == [1, 2, 3]

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            retrieve(Corpus(docs=()), [1], k=1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            retrieve(Corpus(docs=(doc(0, 1),)), [1], k=0)


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        corpus = random_corpus(12, 128, seed=3, chunk_size=16)
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        loaded = load_corpus(path, chunk_size=16)
        assert len(loaded) == len(corpus)
        assert all(a.tokens == b.tokens for a, b in zip(loaded.docs, corpus.docs))

    def test_truncates_to_chunk_size(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(" ".join(str(i) for i in range(100)) + "\n")
        loaded = load_corpus(path, chunk_size=8)
        assert len(loaded.docs[0].tokens) == 8

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no documents"):
            load_corpus(path)

    def test_random_corpus_deterministic(self):
        a = random_corpus(8, 64, seed=9)
        b = random_corpus(8, 64, seed=9)
        assert all(x.tokens == y.tokens for x, y in zip(a.docs, b.docs))
        c = random_corpus(8, 64, seed=10)
        assert any(x.tokens != y.tokens for x, y in zip(a.docs, c.docs))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(docs=(doc(0, 1), doc(0, 2)))


def row_by_row_counts(d):
    """The successor table built one bigram at a time, as plain lists."""
    column = {t: i for i, t in enumerate(sorted(set(d.tokens)))}
    rows = {}
    for a, b in zip(d.tokens, d.tokens[1:]):
        rows.setdefault(a, [0] * len(column))[column[b]] += 1
    return rows


class TestSuccessorCounts:
    def assert_matches_row_by_row(self, d):
        table = d.successor_counts
        expected = row_by_row_counts(d)
        assert sorted(table) == sorted(expected)
        for token, row in table.items():
            assert row.dtype == np.int64
            assert not row.flags.writeable
            assert row.tolist() == expected[token]

    @pytest.mark.parametrize(
        "tokens",
        [
            (7,),  # one token: no bigram, no row
            (3, 5, 3, 9),  # 9 ends the document and occurs nowhere else: no row
            (1, 2, 1, 2, 1, 2, 2, 2),  # repeated bigrams, a self-loop
            (40000, 3, 40000, 3, 17),  # ids far apart
        ],
    )
    def test_matches_row_by_row_build(self, tokens):
        self.assert_matches_row_by_row(doc(0, *tokens))

    def test_random_corpus_documents_at_large_vocab(self):
        for d in random_corpus(24, 32768, seed=5).docs:
            self.assert_matches_row_by_row(d)
