"""Time the cold first-token path of one node in fresh processes.

    python3 tools/cold_path.py [--src SRC ...] [--vocabs 256,4096,32768] [--processes 5]

For each vocabulary size and each `--src` tree (default: this checkout's
`src`), starts `--processes` fresh Python processes with that tree as
`PYTHONPATH`; with several trees the processes alternate between them, the
first tree leading on even rounds and the last on odd ones, so host noise
falls on all of them alike.  Each process draws
the benchmark's input shape (a 64-document corpus of 64 tokens, a 24-token
prompt), loads it back from a file as a node does, and times, once and cold:

  * `build_decoder` for the device side (retrieval and the state layout);
  * the successor tables of the 4 retrieved documents, with the modules the
    build imported;
  * the first `rerank` plus `decode_step`, with those tables already built;
  * `topp_encode` of that draft;
  * the frame round trip: `encode_frame`, `decode_frame` and `topp_decode`;
  * the first `aggregate`, against the cloud side's first draft.

Prints one JSON object: per tree, per vocabulary size, per stage, the
per-process times in µs and their median, and the modules the table build
imported in any process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, sys, tempfile, time
from pathlib import Path
vocab = int(sys.argv[1])
from specagg.common import Side
from specagg.retrieval import load_corpus, random_corpus, save_corpus
from specagg.runtime import NodeConfig, build_decoder, _draft_msg, _draft_record
from specagg.decoder import decode_step, rerank
from specagg.aggregator import aggregate
from specagg.dists import topp_decode
from specagg.rng import aggregation_draws, decode_uniform
from specagg.transport import decode_frame, encode_frame

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.txt"
    save_corpus(random_corpus(64, vocab, 11, 64), path)
    corpus = load_corpus(path, 64)
cfg = NodeConfig(role=Side.DEVICE, corpus=corpus, vocab_size=vocab,
                 prompt=list(corpus.docs[3].tokens[:24]), max_new_tokens=8, seed=5)
us = {}
clock = time.perf_counter
t = clock(); state = build_decoder(cfg); us["build_decoder"] = (clock() - t) * 1e6
before = set(sys.modules)
t = clock()
for doc in state.docs:
    doc.successor_counts
us["successor_tables"] = (clock() - t) * 1e6
imported = sorted(set(sys.modules) - before)
t = clock()
rerank(state)
rec = decode_step(state, decode_uniform(cfg.seed, 0))
us["first_decode"] = (clock() - t) * 1e6
t = clock(); msg = _draft_msg(rec, cfg.top_p, 0.0); us["topp_encode"] = (clock() - t) * 1e6
t = clock()
wire, _ = decode_frame(encode_frame(msg))
topp_decode(wire.dist)
us["frame_round_trip"] = (clock() - t) * 1e6
cloud = build_decoder(cfg, Side.CLOUD)
rerank(cloud)
other = _draft_record(_draft_msg(decode_step(cloud, decode_uniform(cfg.seed, 0)), cfg.top_p, 0.0))
mine = _draft_record(msg)
t = clock(); aggregate(mine, other, aggregation_draws(cfg.seed, 0)); us["aggregate"] = (clock() - t) * 1e6
print(json.dumps({"us": us, "imported_by_tables": imported}))
"""


def run_one(src: Path, vocab: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(vocab)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1"},
        check=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="source tree; repeat to alternate")
    parser.add_argument("--vocabs", default="256,4096,32768")
    parser.add_argument("--processes", type=int, default=5)
    args = parser.parse_args(argv)
    sources = args.src or [str(ROOT / "src")]
    table: dict[str, dict] = {src: {} for src in sources}
    for vocab in (int(v) for v in args.vocabs.split(",")):
        runs: dict[str, list[dict]] = {src: [] for src in sources}
        for i in range(args.processes):
            for src in sources if i % 2 == 0 else sources[::-1]:
                runs[src].append(run_one(Path(src), vocab))
        for src, rows in runs.items():
            table[src][f"V={vocab}"] = {
                stage: {
                    "us": [round(r["us"][stage], 1) for r in rows],
                    "median_us": round(statistics.median(r["us"][stage] for r in rows), 1),
                }
                for stage in rows[0]["us"]
            } | {"imported_by_tables": sorted({m for r in rows for m in r["imported_by_tables"]})}
    print(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
