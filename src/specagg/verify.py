"""Random inputs shared by the acceptance and transport tests.

`random_distribution_pair` draws (p_l, p_r, eta_r) triples for the
aggregation criteria, `strategy_means` replays the strategy-comparison
traces, and `random_message` draws arbitrary protocol messages for the
frame fuzz tests.
"""

from __future__ import annotations

import numpy as np

from .common import Side
from .dists import CompressedDist, LogDist, Vocab
from .rng import derive_seed
from .scheduler import CostVector
from .simulator import AcceptanceTrace, NetModel, simulate
from . import transport


def random_distribution_pair(
    rng: np.random.Generator, max_vocab: int = 8, case: int = 0
) -> tuple[LogDist, LogDist, float]:
    """One (p_l, p_r, eta_r) triple; every third case carries explicit zeros."""
    size = int(rng.integers(2, max_vocab + 1))
    vocab = Vocab(size)
    pl = rng.dirichlet(np.full(size, 0.8))
    pr = rng.dirichlet(np.full(size, 0.8))
    if case % 3 == 0 and size >= 4:
        pl[int(rng.integers(size))] = 0.0
        pl /= pl.sum()
        pr[int(rng.integers(size))] = 0.0
        pr /= pr.sum()
    eta_r = float(rng.uniform(0.05, 0.95))
    return LogDist.from_probs(vocab, pl), LogDist.from_probs(vocab, pr), eta_r


STRATEGY_COSTS = CostVector(60.0, 50.0, 0.0, 0.0)
STRATEGY_RATES = (0.9, 0.3)


def strategy_means(
    extra_latency: float, traces: int = 50, tokens: int = 100, seed: int = 0
) -> dict[str, float]:
    """Mean total generation time per strategy over replayed traces.

    Trace parity swaps which side has the high acceptance rate, so neither
    static choice is optimal across the whole set.
    """
    net = NetModel(base_latency=2.0, extra_latency=extra_latency)
    totals: dict[str, list[float]] = {s: [] for s in ("device", "cloud", "random", "dragon")}
    hi, lo = STRATEGY_RATES
    for i in range(traces):
        p_dev, p_cloud = (hi, lo) if i % 2 == 0 else (lo, hi)
        trace = AcceptanceTrace.bernoulli(
            tokens, p_dev, p_cloud, derive_seed(seed, "strategy-trace", i)
        )
        for strategy in totals:
            run = simulate(
                trace, STRATEGY_COSTS, net, strategy, seed=derive_seed(seed, "strategy-sim", i)
            )
            totals[strategy].append(run.total_time)
    return {s: float(np.mean(v)) for s, v in totals.items()}


# vocabulary of every random draft and target, as a stream of this size requires
FUZZ_VOCAB = 60_000


def random_message(rng: np.random.Generator) -> transport.Message:
    kind = int(rng.integers(5))
    if kind == 0:
        return transport.Hello()
    if kind == 1:
        return transport.Bye()
    if kind == 2:
        id_bound = int(rng.integers(4, FUZZ_VOCAB))
        count = int(rng.integers(1, min(64, id_bound)))
        ids = np.sort(rng.choice(id_bound, size=count, replace=False)).astype(np.uint32)
        raw = rng.dirichlet(np.ones(count)).astype(np.float16)
        values = np.maximum(raw, np.float16(6e-8))  # keep strictly positive after rounding
        dist = CompressedDist(vocab_size=FUZZ_VOCAB, token_ids=ids, values=values)
        return transport.DraftMsg(
            step=int(rng.integers(0, 2**31)),
            token=int(ids[rng.integers(count)]),
            h=float(rng.normal(scale=100.0)),
            decode_ms=float(np.float32(abs(rng.normal(scale=50.0)))),
            dist=dist,
        )
    if kind == 3:
        switch = [None, Side.DEVICE, Side.CLOUD][int(rng.integers(3))]
        return transport.TargetMsg(
            step=int(rng.integers(0, 2**31)),
            target=int(rng.integers(0, FUZZ_VOCAB)),
            accept_l=bool(rng.integers(2)),
            accept_r=bool(rng.integers(2)),
            switch_to=switch,
        )
    kinds = list(transport.ProbeKind)
    return transport.ProbeMsg(
        kind=kinds[int(rng.integers(len(kinds)))],
        seq=int(rng.integers(0, 2**31)),
    )
