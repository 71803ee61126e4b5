import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specagg.dists import (
    CompressedDist,
    CorrectedWeight,
    LogDist,
    Vocab,
    VocabMismatchError,
    eta_log_weights,
    interpolate_target,
    inverse_cdf_sample,
    lk_divergence,
    logsumexp,
    topp_decode,
    topp_encode,
)


def dist(probs, size=None):
    return LogDist.from_probs(Vocab(size or len(probs)), np.asarray(probs, dtype=float))


def random_pair(rng, size):
    p = rng.dirichlet(np.ones(size))
    q = rng.dirichlet(np.ones(size))
    return dist(p), dist(q)


class TestLogDist:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            LogDist(Vocab(2), np.array([0.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            LogDist(Vocab(2), np.array([0.0, np.nan]))

    def test_allows_neg_inf_entries(self):
        d = dist([1.0, 0.0])
        assert d.logp[1] == -np.inf

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            Vocab(1)

    def test_immutable(self):
        d = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.logp[0] = 0.0


class TestEtaWeights:
    def test_symmetric_weights(self):
        le_l, le_r = eta_log_weights(0.0, 0.0)
        assert le_l == pytest.approx(math.log(0.5))
        assert le_r == pytest.approx(math.log(0.5))

    def test_extreme_gap_no_overflow(self):
        le_l, le_r = eta_log_weights(700.0, 0.0)
        assert le_l == pytest.approx(0.0, abs=1e-12)
        assert le_r == pytest.approx(-700.0)

    def test_hand_softmax(self):
        le_l, le_r = eta_log_weights(CorrectedWeight(math.log(3)), CorrectedWeight(0.0))
        assert math.exp(le_l) == pytest.approx(0.75)
        assert math.exp(le_r) == pytest.approx(0.25)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-500, 500, size=2)
            le_l, le_r = eta_log_weights(a, b)
            assert math.exp(le_l) + math.exp(le_r) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eta_log_weights(math.inf, 0.0)
        with pytest.raises(ValueError):
            CorrectedWeight(math.nan)


class TestInterpolation:
    def test_identical_inputs_fixed_point(self):
        p = dist([0.2, 0.5, 0.3])
        out = interpolate_target(p, p, 1.7, -2.0)
        np.testing.assert_allclose(out.probs(), p.probs(), atol=1e-12)

    def test_hand_mixture(self):
        out = interpolate_target(dist([0.5, 0.3, 0.2]), dist([0.2, 0.5, 0.3]), 0.0, 0.0)
        np.testing.assert_allclose(out.probs(), [0.35, 0.40, 0.25], atol=1e-12)

    def test_one_sided_limit(self):
        p_l, p_r = dist([0.9, 0.1, 0.0]), dist([0.0, 0.2, 0.8])
        out = interpolate_target(p_l, p_r, 50.0, 0.0)
        tv = 0.5 * np.abs(out.probs() - p_l.probs()).sum()
        assert tv < 1e-12

    def test_vocab_mismatch(self):
        with pytest.raises(VocabMismatchError):
            interpolate_target(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]), 0.0, 0.0)

    def test_matches_linear_reference(self):
        # 64-bit linear-space oracle over random inputs
        rng = np.random.default_rng(1)
        for _ in range(300):
            size = int(rng.integers(2, 65))
            p_l, p_r = random_pair(rng, size)
            h_l, h_r = rng.uniform(-30, 30, size=2)
            eta_l = math.exp(h_l) / (math.exp(h_l) + math.exp(h_r))
            reference = eta_l * p_l.probs() + (1 - eta_l) * p_r.probs()
            out = interpolate_target(p_l, p_r, h_l, h_r)
            assert 0.5 * np.abs(out.probs() - reference).sum() < 1e-9

    def test_log_space_stability(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            size = int(rng.integers(2, 17))
            p_l, p_r = random_pair(rng, size)
            h_l, h_r = rng.uniform(-500, 500, size=2)
            le_l, le_r = eta_log_weights(h_l, h_r)
            assert math.isfinite(le_l) or le_l == -math.inf
            out = interpolate_target(p_l, p_r, h_l, h_r)
            assert not np.isnan(out.logp).any()


class TestDivergence:
    def test_identical(self):
        p = dist([0.3, 0.7])
        assert lk_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint(self):
        assert lk_divergence(dist([1.0, 0.0]), dist([0.0, 1.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        d = lk_divergence(dist([0.5, 0.3, 0.2]), dist([0.2, 0.5, 0.3]))
        assert d == pytest.approx(0.3)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 33)))
            assert 0.0 <= lk_divergence(p, q) <= 1.0


class TestToppCodec:
    def test_hand_example(self):
        p = dist([0.5, 0.3, 0.15, 0.05])
        c = topp_encode(p, 0.8)
        assert list(c.token_ids) == [0, 1]
        np.testing.assert_allclose(
            topp_decode(c).probs(), [0.625, 0.375, 0.0, 0.0], atol=1e-3
        )

    def test_full_threshold_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            size = int(rng.integers(2, 40))
            p = dist(rng.dirichlet(np.ones(size)))
            back = topp_decode(topp_encode(p, 1.0))
            np.testing.assert_allclose(back.probs(), p.probs(), atol=2e-3)

    def test_one_hot(self):
        p = LogDist.one_hot(Vocab(9), 4)
        c = topp_encode(p, 0.5)
        assert len(c) == 1 and c.token_ids[0] == 4
        assert topp_decode(c).prob(4) == pytest.approx(1.0)

    def test_inclusive_boundary_and_ties(self):
        # two tokens at 0.4 tie; lower id wins the final slot
        p = dist([0.4, 0.4, 0.2])
        c = topp_encode(p, 0.4)
        assert list(c.token_ids) == [0]

    def test_size_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        p = dist(rng.dirichlet(np.ones(32)))
        sizes = [len(topp_encode(p, t)) for t in (0.1, 0.3, 0.5, 0.8, 0.95, 1.0)]
        assert sizes == sorted(sizes)

    def test_force_token_included(self):
        p = dist([0.94, 0.02, 0.02, 0.02])
        c = topp_encode(p, 0.5, force_token=3)
        assert 3 in c.token_ids
        assert topp_decode(c).prob(3) > 0

    def test_mass_below_f16_range_kept_positive(self):
        p = dist([1.0 - 1e-9, 1e-9])
        c = topp_encode(p, 1.0)
        assert list(c.token_ids) == [0, 1]
        assert c.values[1] == np.float16(2.0**-24)
        assert topp_decode(c).prob(1) > 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CompressedDist(4, np.array([2, 1], dtype=np.uint32), np.array([0.5, 0.5], dtype=np.float16))
        with pytest.raises(ValueError):
            CompressedDist(4, np.array([0], dtype=np.uint32), np.array([0.0], dtype=np.float16))
        with pytest.raises(ValueError):
            topp_encode(dist([0.5, 0.5]), 0.0)

    @given(st.integers(2, 32), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decode_always_normalized(self, size, threshold, seed):
        rng = np.random.default_rng(seed)
        p = dist(rng.dirichlet(np.ones(size)))
        decoded = topp_decode(topp_encode(p, threshold))
        assert abs(logsumexp(decoded.logp)) < 1e-6


class TestInverseCdf:
    def test_ascending_convention(self):
        probs = np.array([0.5, 0.5])
        assert inverse_cdf_sample(probs, 0.25) == 0
        assert inverse_cdf_sample(probs, 0.5) == 1
        assert inverse_cdf_sample(probs, 0.999999) == 1

    def test_skips_zero_mass(self):
        probs = np.array([0.0, 0.0, 1.0, 0.0])
        assert inverse_cdf_sample(probs, 0.0) == 2
        assert inverse_cdf_sample(probs, 0.9999) == 2

    def test_unnormalized_ok(self):
        probs = np.array([2.0, 6.0])
        assert inverse_cdf_sample(probs, 0.24) == 0
        assert inverse_cdf_sample(probs, 0.26) == 1
