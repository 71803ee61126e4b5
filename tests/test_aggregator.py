import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specagg.aggregator import (
    Resampled,
    aggregate,
    aggregate_batch,
    expected_acceptance,
    simulate_aggregations,
    speculative_sample,
)
from specagg.common import ProtocolError
from specagg.decoder import DraftRecord
from specagg.dists import LogDist, Vocab
from specagg.rng import AggregationDraws


def dist(probs):
    return LogDist.from_probs(Vocab(len(probs)), np.asarray(probs, dtype=float))


def record(step, token, probs, h=0.0):
    return DraftRecord(step=step, token=token, dist=dist(probs), h=h)


def draws(*u):
    return AggregationDraws(*u)


class TestSpeculativeSample:
    def test_identical_distributions_always_keep(self):
        p = dist([0.3, 0.7])
        for u in (0.0, 0.5, 0.999):
            assert speculative_sample(1, p, p, 1.0, u, 0.5) == 1

    def test_eta_zero_always_keeps(self):
        p_a, p_b = dist([0.9, 0.1]), dist([0.1, 0.9])
        assert speculative_sample(0, p_a, p_b, 0.0, 0.0, 0.5) == 0

    def test_hand_rejection_case(self):
        # rejection probability 1 - (0.1/0.9) = 8/9; residual mass all on token 1
        p_a, p_b = dist([0.9, 0.1]), dist([0.1, 0.9])
        threshold = 1.0 - 0.1 / 0.9
        assert speculative_sample(0, p_a, p_b, 1.0, threshold - 1e-9, 0.7) == 1
        assert speculative_sample(0, p_a, p_b, 1.0, threshold + 1e-9, 0.7) == 0

    def test_keeps_when_other_side_heavier(self):
        p_a, p_b = dist([0.1, 0.9]), dist([0.9, 0.1])
        assert speculative_sample(0, p_a, p_b, 1.0, 0.0, 0.0) == 0

    def test_zero_probability_draft_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            speculative_sample(0, dist([0.0, 1.0]), dist([0.5, 0.5]), 0.5, 0.5, 0.5)

    def test_bad_eta(self):
        p = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            speculative_sample(0, p, p, 1.5, 0.5, 0.5)

    @given(
        seed=st.integers(0, 2**32 - 1),
        relation=st.sampled_from(["overlap", "disjoint", "a-in-b", "b-in-a", "same-ids"]),
        eta=st.floats(0.0, 1.0),
        u_reject=st.floats(0.0, 1.0, exclude_max=True),
        u_resample=st.floats(0.0, 1.0, exclude_max=True),
    )
    # one-token supports whose log-probs differ by one ulp: rejection fires, the residual is empty
    @example(seed=847, relation="b-in-a", eta=1.0, u_reject=0.0, u_resample=0.0)
    @settings(max_examples=200, deadline=None)
    def test_sparse_supports_match_dense_residual(self, seed, relation, eta, u_reject, u_resample):
        vocab = Vocab(1 << 16)
        rng = np.random.default_rng(seed)
        pool = rng.choice(vocab.size, size=48, replace=False)
        n_a, n_b = (int(n) for n in rng.integers(1, 17, size=2))
        ids_a, ids_b = {
            "overlap": (pool[:n_a], pool[n_a // 2 : n_a // 2 + n_b]),
            "disjoint": (pool[:n_a], pool[24 : 24 + n_b]),
            "a-in-b": (pool[: min(n_a, n_b)], pool[:n_b]),
            "b-in-a": (pool[:n_a], pool[: min(n_a, n_b)]),
            "same-ids": (pool[:n_a], pool[:n_a]),
        }[relation]
        ids_a, ids_b = np.sort(ids_a), np.sort(ids_b)
        p_a = LogDist.from_support(vocab, ids_a, np.log(rng.dirichlet(np.ones(ids_a.size))))
        p_b = LogDist.from_support(vocab, ids_b, np.log(rng.dirichlet(np.ones(ids_b.size))))
        x = int(rng.choice(ids_a))

        # dense oracle: the vocabulary-length arithmetic the sparse path replaces
        dense_a, dense_b = np.zeros(vocab.size), np.zeros(vocab.size)
        dense_a[ids_a] = np.exp(p_a.support_logp)
        dense_b[ids_b] = np.exp(p_b.support_logp)
        expected = x
        la, lb = p_a.logp[x], p_b.logp[x]
        if la > lb and u_reject < eta * (1.0 - math.exp(lb - la)):
            residual = np.clip(dense_b - dense_a, 0.0, None)
            cdf = np.cumsum(residual)
            if cdf[-1] > 0.0:  # an empty residual keeps x
                expected = int(np.searchsorted(cdf, u_resample * cdf[-1], side="right"))
                if expected >= vocab.size:
                    expected = int(np.flatnonzero(residual > 0)[-1])
        assert speculative_sample(x, p_a, p_b, eta, u_reject, u_resample) == expected


class TestAggregate:
    def test_identical_drafts_accepted(self):
        l = record(0, 1, [0.3, 0.7])
        r = record(0, 1, [0.3, 0.7])
        out = aggregate(l, r, draws(0.1, 0.2, 0.3, 0.4, 0.5))
        assert out.target == 1 and out.accept_l and out.accept_r
        assert out.resampled_from is Resampled.NONE

    def test_step_mismatch(self):
        l = record(0, 0, [1.0, 0.0])
        r = record(1, 0, [1.0, 0.0])
        with pytest.raises(ProtocolError):
            aggregate(l, r, draws(0.1, 0.2, 0.3, 0.4, 0.5))

    @pytest.mark.parametrize("select", [0.1, 0.9])
    def test_zero_probability_draft_rejected_whichever_sample_is_picked(self, select):
        # only the picked sample is drawn, yet either draft with a token its
        # own stream cannot produce is refused
        good, bad = record(0, 1, [0.5, 0.5]), record(0, 0, [0.0, 1.0])
        for l, r in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match="zero probability"):
                aggregate(l, r, draws(0.5, 0.5, 0.5, 0.5, select))

    def test_one_sided_weight_limit(self):
        # h gap 50: eta_r ~ 0, so the l draft can never be rejected, and the
        # r draft resamples from the l stream whenever their supports differ
        l = record(0, 0, [0.6, 0.4, 0.0], h=50.0)
        r = record(0, 2, [0.0, 0.0, 1.0], h=0.0)
        keep_l = aggregate(l, r, draws(0.999999, 0.9, 0.0, 0.3, 0.4))
        assert keep_l.target == 0  # selection took the l sample, kept
        resampled = aggregate(l, r, draws(0.5, 0.5, 0.0, 0.3, 0.9))
        assert resampled.resampled_from is Resampled.ADJUSTED_R
        assert resampled.target in (0, 1)  # drawn from the l stream

    def test_selection_split(self):
        l = record(3, 0, [1.0, 0.0])
        r = record(3, 1, [0.0, 1.0])
        pick_l = aggregate(l, r, draws(0.9, 0.5, 0.9, 0.5, 0.5))
        pick_r = aggregate(l, r, draws(0.9, 0.5, 0.9, 0.5, 0.500001))
        assert (pick_l.target, pick_r.target) == (0, 1)
        assert pick_l.accept_l and not pick_l.accept_r
        assert pick_r.accept_r and not pick_r.accept_l

    def test_scalar_agrees_with_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            size = int(rng.integers(2, 9))
            p_l = dist(rng.dirichlet(np.ones(size)))
            p_r = dist(rng.dirichlet(np.ones(size)))
            eta_r = float(rng.uniform(0, 1))
            h_r = math.log(eta_r / (1 - eta_r)) if 0 < eta_r < 1 else 0.0
            x_l = int(rng.integers(size))
            x_r = int(rng.integers(size))
            if p_l.prob(x_l) == 0 or p_r.prob(x_r) == 0:
                continue
            u = rng.random(5)
            l = record(0, x_l, p_l.probs(), h=0.0)
            r = record(0, x_r, p_r.probs(), h=h_r)
            scalar = aggregate(l, r, draws(*u))
            targets, acc_l, acc_r = aggregate_batch(
                np.array([x_l]), np.array([x_r]), p_l, p_r,
                math.exp(h_r) / (1 + math.exp(h_r)), u[None, :],
            )
            assert scalar.target == targets[0]
            assert scalar.accept_l == acc_l[0] and scalar.accept_r == acc_r[0]


class TestTargetLaw:
    def test_monte_carlo_matches_interpolation(self):
        # empirical law of the target vs the hand mixture [0.35, 0.40, 0.25]
        rng = np.random.default_rng(7)
        p_l = dist([0.5, 0.3, 0.2])
        p_r = dist([0.2, 0.5, 0.3])
        n = 1_000_000
        targets, _, _ = simulate_aggregations(p_l, p_r, 0.5, n, rng)
        reference = np.array([0.35, 0.40, 0.25])
        empirical = np.bincount(targets, minlength=3) / n
        sigma = np.sqrt(reference * (1 - reference) / n)
        assert (np.abs(empirical - reference) < 3 * sigma + 1e-4).all()

    def test_acceptance_frequency_matches_formula(self):
        rng = np.random.default_rng(8)
        for probs_l, probs_r, eta_r in (
            ([0.5, 0.5], [0.5, 0.5], 0.3),
            ([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], 0.6),
            ([0.9, 0.1, 0.0], [0.0, 0.5, 0.5], 0.5),
        ):
            p_l, p_r = dist(probs_l), dist(probs_r)
            _, acc_l, _ = simulate_aggregations(p_l, p_r, eta_r, 400_000, rng)
            predicted = expected_acceptance(p_l, p_r, eta_r, 0.5)
            assert abs(float(acc_l.mean()) - predicted) < 0.01


class TestExpectedAcceptance:
    def test_uniform_pair(self):
        u = dist([0.5, 0.5])
        assert expected_acceptance(u, u, 0.25, 0.5) == pytest.approx(0.75)

    def test_zero_divergence_full_gamma(self):
        p = dist([0.4, 0.6])
        assert expected_acceptance(p, p, 0.7, 1.0) == pytest.approx(1.0)

    def test_disjoint_exact_value(self):
        # gamma_l*(1 - eta_r) + gamma_r * eta_l * sum(p_l^2): the residual
        # collision term survives in the exact formula
        p_l, p_r = dist([0.5, 0.5, 0.0, 0.0]), dist([0.0, 0.0, 0.5, 0.5])
        eta_r = 0.4
        exact = 0.5 * (1 - eta_r) + 0.5 * (1 - eta_r) * 0.5
        assert expected_acceptance(p_l, p_r, eta_r, 0.5) == pytest.approx(exact)

    def test_disjoint_wide_support_approaches_half_eta_l(self):
        size = 128
        a = np.zeros(size)
        a[:64] = 1 / 64
        b = np.zeros(size)
        b[64:] = 1 / 64
        value = expected_acceptance(dist(a), dist(b), 0.4, 0.5)
        assert value == pytest.approx(0.5 * 0.6, abs=0.01)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            size = int(rng.integers(2, 17))
            p_l = dist(rng.dirichlet(np.ones(size)))
            p_r = dist(rng.dirichlet(np.ones(size)))
            eta_r = float(rng.uniform(0.05, 0.95))
            lo = expected_acceptance(p_l, p_r, eta_r, 0.2)
            hi = expected_acceptance(p_l, p_r, eta_r, 0.8)
            assert hi > lo

    def test_extremes_bracket_interior(self):
        # for a fixed local stream, a coinciding remote stream maximizes
        # acceptance and a disjoint-support one minimizes it
        size = 8
        rng = np.random.default_rng(10)
        eta_r = 0.5
        for _ in range(50):
            probs = rng.dirichlet(np.ones(size))
            padded = np.concatenate([probs, np.zeros(size)])
            p_l = dist(padded)
            top = expected_acceptance(p_l, p_l, eta_r, 0.5)
            disjoint = dist(np.concatenate([np.zeros(size), rng.dirichlet(np.ones(size))]))
            bottom = expected_acceptance(p_l, disjoint, eta_r, 0.5)
            overlap = rng.dirichlet(np.ones(2 * size))
            mid = expected_acceptance(p_l, dist(overlap), eta_r, 0.5)
            assert bottom - 1e-9 <= mid <= top + 1e-9
