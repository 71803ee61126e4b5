"""Golden-token fixture: the emitted sequence must never drift.

`golden_tokens.json` holds the `(step, token, accept_l, accept_r)` rows that
`sequential_reference` produced for the configurations in `CASES` before the
distributions became sparse.  Any change to summation order, sampling or the
wire canonicalization that moves a single draw fails here.  The fixture is
data, not a snapshot to refresh: a row that must change needs a reason.

At top-p 1.0 and V >= 4096 the dense code raised, because a kept
probability below 2^-25 encoded as f16 0.  The rows of those five
configurations were added once `topp_encode` sent such masses as the
smallest positive f16, which leaves every other encoding unchanged.

`PYTHONPATH=src python tests/test_golden.py` adds rows for configurations
the file lacks; it never rewrites existing rows.
"""

import itertools
import json
from pathlib import Path

import pytest

from specagg.common import Side
from specagg.retrieval import random_corpus
from specagg.runtime import NodeConfig, run_loopback_pair, sequential_reference

FIXTURE = Path(__file__).with_name("golden_tokens.json")
SEEDS = (0, 1, 2)
VOCABS = (256, 4096, 32768)
TOP_PS = (0.8, 1.0)
CASES = list(itertools.product(SEEDS, VOCABS, TOP_PS))
NEW_TOKENS = 64


def golden_config(seed: int, vocab: int, top_p: float) -> NodeConfig:
    corpus = random_corpus(48, vocab, seed=100 + seed, chunk_size=64)
    return NodeConfig(
        role=Side.DEVICE,
        corpus=corpus,
        prompt=list(corpus.docs[seed].tokens[:24]),
        vocab_size=vocab,
        docs_k=4,
        max_new_tokens=NEW_TOKENS,
        seed=seed,
        top_p=top_p,
    )


def rows(entries) -> list[list[int]]:
    return [[e.step, e.token, int(e.accept_l), int(e.accept_r)] for e in entries]


def case_key(seed: int, vocab: int, top_p: float) -> str:
    return f"seed={seed} vocab={vocab} top_p={top_p}"


def load_fixture() -> dict[str, list[list[int]]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed,vocab,top_p", CASES)
def test_sequential_reference_matches_fixture(seed, vocab, top_p):
    expected = load_fixture()[case_key(seed, vocab, top_p)]
    assert rows(sequential_reference(golden_config(seed, vocab, top_p))) == expected


@pytest.mark.parametrize("seed,vocab,top_p", CASES)
def test_node_pair_matches_fixture(seed, vocab, top_p):
    expected = load_fixture()[case_key(seed, vocab, top_p)]
    device, cloud = run_loopback_pair(golden_config(seed, vocab, top_p))
    assert rows(device.target_log) == expected
    assert rows(cloud.target_log) == expected


def test_fixture_covers_every_case():
    fixture = load_fixture()
    assert sorted(fixture) == sorted(case_key(*case) for case in CASES)
    for key, case_rows in fixture.items():
        assert [r[0] for r in case_rows] == list(range(NEW_TOKENS)), key
        # every case rejects a draft at least once, so rollback is pinned too
        assert any(not (r[2] and r[3]) for r in case_rows), key


if __name__ == "__main__":
    fixture = load_fixture() if FIXTURE.exists() else {}
    for case in CASES:
        if case_key(*case) not in fixture:
            fixture[case_key(*case)] = rows(sequential_reference(golden_config(*case)))
    body = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in fixture.items())
    FIXTURE.write_text("{\n" + body + "\n}\n")
