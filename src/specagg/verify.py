"""Self-contained verification suites behind the `verify` CLI subcommand.

Each suite re-derives its reference values from first principles (linear
64-bit arithmetic, double evaluation, closed forms) and checks the engine
against them, printing one line per check.  The same suites back the
acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregator import expected_acceptance, simulate_aggregations
from .common import Side
from .dists import CompressedDist, LogDist, Vocab
from .rng import derive_seed
from .scheduler import (
    AcceptanceEstimate,
    CostVector,
    delta_z,
    latency_per_token,
    theoretical_speedup,
)
from .simulator import AcceptanceTrace, NetModel, simulate, speedup_curve
from . import transport

SUITES = (
    "aggregation",
    "monotonicity",
    "scheduling",
    "pipelines",
    "speedup",
    "strategies",
    "transport",
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{mark}] {self.suite}/{self.name}: "
            f"value={self.value:.6g} threshold={self.threshold:.6g}{extra}"
        )


def random_distribution_pair(
    rng: np.random.Generator, max_vocab: int = 8, sparse_every: int = 3, case: int = 0
) -> tuple[LogDist, LogDist, float]:
    """One (p_l, p_r, eta_r) triple; every few cases carry explicit zeros."""
    size = int(rng.integers(2, max_vocab + 1))
    vocab = Vocab(size)
    pl = rng.dirichlet(np.full(size, 0.8))
    pr = rng.dirichlet(np.full(size, 0.8))
    if case % sparse_every == 0 and size >= 4:
        pl[int(rng.integers(size))] = 0.0
        pl /= pl.sum()
        pr[int(rng.integers(size))] = 0.0
        pr /= pr.sum()
    eta_r = float(rng.uniform(0.05, 0.95))
    return LogDist.from_probs(vocab, pl), LogDist.from_probs(vocab, pr), eta_r


def suite_aggregation(
    trials: int = 1_000_000, cases: int = 25, seed: int = 0
) -> list[CheckResult]:
    """Empirical law of the target token vs the interpolated reference,
    plus acceptance-frequency agreement and the two overlap extremes.

    Thresholds (0.005 TV, 0.01 acceptance gap) are pinned at one million
    trials; fewer trials widen them with the Monte-Carlo noise, 1/sqrt(n).
    """
    rng = np.random.default_rng(derive_seed(seed, "verify-aggregation"))
    noise = max(1.0, math.sqrt(1_000_000 / trials))
    tv_bound = 0.005 * noise
    acc_bound = 0.01 * noise
    worst_tv = 0.0
    worst_acc = 0.0
    for case in range(cases):
        p_l, p_r, eta_r = random_distribution_pair(rng, case=case)
        targets, acc_l, _ = simulate_aggregations(p_l, p_r, eta_r, trials, rng)
        reference = (1.0 - eta_r) * p_l.probs() + eta_r * p_r.probs()
        empirical = np.bincount(targets, minlength=p_l.vocab.size) / targets.size
        worst_tv = max(worst_tv, 0.5 * float(np.abs(empirical - reference).sum()))
        predicted = expected_acceptance(p_l, p_r, eta_r, 0.5)
        worst_acc = max(worst_acc, abs(float(acc_l.mean()) - predicted))

    results = [
        CheckResult(
            "aggregation", "target-law-tv", worst_tv < tv_bound, worst_tv, tv_bound,
            f"{cases} cases x {trials} trials",
        ),
        CheckResult(
            "aggregation", "acceptance-rate-match", worst_acc < acc_bound,
            worst_acc, acc_bound,
        ),
    ]

    # identical streams: first term of the formula saturates at 1
    vocab = Vocab(2)
    uniform = LogDist.from_probs(vocab, [0.5, 0.5])
    same = expected_acceptance(uniform, uniform, 0.3, 0.5)
    results.append(
        CheckResult(
            "aggregation", "zero-divergence-extreme", abs(same - 0.75) < 1e-12,
            same, 0.75, "0.5*1 + 0.5*0.5",
        )
    )
    # disjoint wide supports: acceptance collapses to gamma_l * eta_l
    wide = Vocab(128)
    half = np.zeros(128)
    half[:64] = 1.0 / 64.0
    other = np.zeros(128)
    other[64:] = 1.0 / 64.0
    eta_r = 0.4
    disjoint = expected_acceptance(
        LogDist.from_probs(wide, half), LogDist.from_probs(wide, other), eta_r, 0.5
    )
    expected = 0.5 * (1.0 - eta_r)
    results.append(
        CheckResult(
            "aggregation", "disjoint-extreme", abs(disjoint - expected) < 0.01,
            disjoint, expected, "within residual collision mass",
        )
    )
    return results


def suite_monotonicity(n: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Acceptance strictly increases with the local selection weight."""
    rng = np.random.default_rng(derive_seed(seed, "verify-monotonicity"))
    violations = 0
    min_gap = float("inf")
    for case in range(n):
        p_l, p_r, eta_r = random_distribution_pair(rng, max_vocab=16, case=case)
        gammas = np.sort(rng.uniform(0.0, 1.0, size=3))
        values = [expected_acceptance(p_l, p_r, eta_r, g) for g in gammas]
        gaps = np.diff(values) / np.maximum(np.diff(gammas), 1e-12)
        if not (np.diff(values) > 0).all():
            violations += 1
        min_gap = min(min_gap, float(gaps.min()))
    return [
        CheckResult(
            "monotonicity", "gamma-strictly-increasing", violations == 0,
            violations, 0, f"min slope {min_gap:.3g} over {n} instances",
        )
    ]


def scheduling_lattice() -> tuple[int, int, float]:
    """(points, sign disagreements, max |direct - piecewise|) over the grid."""
    c_decs = np.linspace(0.1, 5.0, 20)
    rtts = np.linspace(0.0, 4.0, 20)
    alphas = np.linspace(0.0, 1.0, 11)
    points = 0
    disagreements = 0
    max_gap = 0.0
    for c_l in c_decs:
        for c_r in c_decs:
            for rtt in rtts:
                costs = CostVector(float(c_l), float(c_r), float(rtt) / 2, float(rtt) / 2)
                for a_l in alphas:
                    for a_r in alphas:
                        acc = AcceptanceEstimate(float(a_l), float(a_r))
                        direct = latency_per_token(costs, acc) - latency_per_token(
                            costs, acc, local="r"
                        )
                        piecewise = delta_z(costs, acc)
                        points += 1
                        max_gap = max(max_gap, abs(direct - piecewise))
                        if abs(piecewise) >= 1e-9 and np.sign(direct) != np.sign(piecewise):
                            disagreements += 1
    return points, disagreements, max_gap


def suite_scheduling() -> list[CheckResult]:
    points, disagreements, max_gap = scheduling_lattice()
    results = [
        CheckResult(
            "scheduling", "piecewise-vs-direct-sign", disagreements == 0,
            disagreements, 0, f"{points} lattice points",
        ),
        CheckResult(
            "scheduling", "piecewise-vs-direct-value", max_gap < 1e-9, max_gap, 1e-9,
        ),
    ]
    # continuity at both breakpoints
    worst = 0.0
    for rtt in (0.5, 1.0, 2.0):
        for a_l in (0.0, 0.3, 1.0):
            for a_r in (0.0, 0.7, 1.0):
                acc = AcceptanceEstimate(a_l, a_r)
                c_r = 3.0
                for edge in (c_r - rtt, c_r, c_r + rtt):
                    lo = delta_z(CostVector(edge - 1e-9, c_r, rtt / 2, rtt / 2), acc)
                    hi = delta_z(CostVector(edge + 1e-9, c_r, rtt / 2, rtt / 2), acc)
                    worst = max(worst, abs(hi - lo))
    results.append(
        CheckResult("scheduling", "breakpoint-continuity", worst < 1e-6, worst, 1e-6)
    )
    return results


PIPELINE_CASES = (
    ("reject-l-accept-r", CostVector(1.0, 1.5, 1.2, 1.8), (False, True), 1.5),
    ("accept-l-reject-r", CostVector(2.0, 2.0, 1.5, 1.0), (True, False), 4.5),
    ("accept-both", CostVector(1.0, 1.5, 1.5, 1.8), (True, True), 1.5),
    ("reject-both", CostVector(2.0, 1.0, 1.5, 1.8), (False, False), 4.3),
)


def suite_pipelines(tokens: int = 1000) -> list[CheckResult]:
    """Steady-state per-token latency of the four pure acceptance patterns."""
    results = []
    quiet = NetModel()
    for name, costs, flags, expected in PIPELINE_CASES:
        trace = AcceptanceTrace.constant(tokens, *flags)
        run = simulate(trace, costs, quiet, "device")
        steady = run.per_token[-1]
        results.append(
            CheckResult(
                "pipelines", name, abs(steady - expected) < 1e-6, steady, expected,
                f"after {tokens} tokens",
            )
        )
    return results


def suite_speedup(tokens: int = 10_000, seed: int = 0) -> list[CheckResult]:
    """Monte-Carlo speedup over the all-reject baseline vs the closed form."""
    grid = [
        CostVector(c_l, 1.5, rtt / 2, rtt / 2)
        for c_l in (0.5, 0.8, 1.0, 1.5, 2.5)
        for rtt in (0.4, 0.8, 1.2, 2.0, 3.0)
    ]
    alphas = [0.0, 0.25, 0.5, 0.75, 0.95]
    points = speedup_curve(grid, alphas, tokens=tokens, seed=seed)
    worst = max(abs(p.empirical - p.theoretical) / p.theoretical for p in points)
    slow_local = [
        p for p in points if p.costs.c_dec_l > p.costs.c_dec_r + p.costs.rtt
    ]
    saturated = max(abs(p.empirical - 1.0) for p in slow_local)
    return [
        CheckResult(
            "speedup", "grid-relative-error", worst < 0.02, worst, 0.02,
            f"{len(points)} grid points x {tokens} tokens",
        ),
        CheckResult(
            "speedup", "unity-when-local-decode-dominates", saturated < 1e-9,
            saturated, 1e-9, f"{len(slow_local)} points",
        ),
    ]


STRATEGY_LEVELS = (0.0, 100.0, 300.0, 500.0)
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


def suite_strategies(
    traces: int = 50, tokens: int = 100, seed: int = 0
) -> list[CheckResult]:
    results = []
    advantages = []
    for extra in STRATEGY_LEVELS:
        means = strategy_means(extra, traces, tokens, seed)
        dragon = means["dragon"]
        baselines = {k: v for k, v in means.items() if k != "dragon"}
        worst_ratio = max(dragon / v for v in baselines.values())
        advantages.append(min(baselines.values()) - dragon)
        results.append(
            CheckResult(
                "strategies", f"dominance-at-{int(extra)}ms", worst_ratio <= 1.01,
                worst_ratio, 1.01,
                " ".join(f"{k}={v:.0f}" for k, v in means.items()),
            )
        )
    growing = all(b >= a - 1e-9 for a, b in zip(advantages, advantages[1:]))
    results.append(
        CheckResult(
            "strategies", "advantage-non-decreasing", growing,
            advantages[-1] - advantages[0], 0.0,
            "advantage per level: " + " ".join(f"{a:.0f}" for a in advantages),
        )
    )
    return results


FUZZ_VOCAB = 60_000  # vocabulary of every random draft, as a stream of this size requires


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
            target=int(rng.integers(0, 2**31)),
            accept_l=bool(rng.integers(2)),
            accept_r=bool(rng.integers(2)),
            switch_to=switch,
        )
    return transport.ProbeMsg(
        kind=transport.ProbeKind(int(rng.integers(3))),
        seq=int(rng.integers(0, 2**31)),
        t_send=float(rng.random() * 1e6),
    )


def suite_transport(n: int = 10_000, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(derive_seed(seed, "verify-transport"))
    bad = 0
    for _ in range(n):
        msg = random_message(rng)
        codec = transport.Codec.BLOCK if rng.random() < 0.25 else transport.Codec.NONE
        decoded, used = transport.decode_frame(transport.encode_frame(msg, codec))
        if decoded != msg:
            bad += 1
    results = [
        CheckResult(
            "transport", "round-trip-bit-exact", bad == 0, bad, 0, f"{n} random messages"
        )
    ]
    ids = np.arange(64, dtype=np.uint32) * 700
    values = np.full(64, 1.0 / 64.0, dtype=np.float16)
    draft = transport.DraftMsg(
        step=123,
        token=0,
        h=-3.5,
        decode_ms=12.5,
        dist=CompressedDist(vocab_size=50_272, token_ids=ids, values=values),
    )
    size = len(transport.encode_frame(draft))
    results.append(
        CheckResult("transport", "draft-64-kept-size", size < 450, size, 450, "bytes")
    )
    return results


def run_suites(
    names: list[str] | None = None,
    trials: int = 1_000_000,
    seed: int = 0,
) -> list[CheckResult]:
    selected = list(SUITES) if not names or "all" in names else names
    results: list[CheckResult] = []
    for name in selected:
        if name == "aggregation":
            results.extend(suite_aggregation(trials=trials, seed=seed))
        elif name == "monotonicity":
            results.extend(suite_monotonicity(seed=seed))
        elif name == "scheduling":
            results.extend(suite_scheduling())
        elif name == "pipelines":
            results.extend(suite_pipelines())
        elif name == "speedup":
            results.extend(suite_speedup(seed=seed))
        elif name == "strategies":
            results.extend(suite_strategies(seed=seed))
        elif name == "transport":
            results.extend(suite_transport(seed=seed))
        else:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    return results
