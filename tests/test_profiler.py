import numpy as np
import pytest

from specagg.common import Side
from specagg.profiler import (
    DecodeModel,
    SideProfiler,
    fit_offline,
    measure_decode_curve,
    update_runtime,
    write_profile_csv,
)


def normal_equations(samples):
    """Independent least-squares reference via the closed-form solution."""
    t = np.array([s[0] for s in samples], dtype=float)
    c = np.array([s[1] for s in samples], dtype=float)
    a = np.vstack([t, np.ones_like(t)]).T
    slope, intercept = np.linalg.lstsq(a, c, rcond=None)[0]
    return slope, intercept


class TestFitOffline:
    def test_exact_line(self):
        model = fit_offline([(t, 2.0 * t + 5.0) for t in range(1, 20)])
        assert model.k_a / model.k_b == pytest.approx(2.0)
        assert model.k_c == pytest.approx(5.0)
        assert model.k_b == 1.0

    def test_constant_samples(self):
        model = fit_offline([(t, 7.0) for t in range(5)])
        assert model.k_a == pytest.approx(0.0)
        assert model.k_c == pytest.approx(7.0)

    def test_noisy_line_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        samples = [(float(t), 0.8 * t + 3.0 + rng.normal(0, 0.5)) for t in range(100)]
        model = fit_offline(samples)
        slope, intercept = normal_equations(samples)
        assert model.k_a / model.k_b == pytest.approx(slope, rel=1e-9)
        assert model.k_c == pytest.approx(intercept, rel=1e-9)

    def test_degenerate_steps(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_offline([(3.0, 1.0), (3.0, 2.0)])
        with pytest.raises(ValueError):
            fit_offline([(3.0, 1.0)])


class TestUpdateRuntime:
    def test_zeta_zero_is_identity(self):
        model = DecodeModel(2.0, 1.0, 0.5)
        assert update_runtime(model, 10.0, 99.0, 0.0) == model

    def test_zeta_one_full_replacement(self):
        model = update_runtime(DecodeModel(2.0, 1.0, 1.0), 10.0, 31.0, 1.0)
        assert model.k_a / model.k_b == pytest.approx((31.0 - 1.0) / 10.0)

    def test_hand_blend(self):
        model = update_runtime(DecodeModel(2.0, 1.0, 0.0), 10.0, 30.0, 0.5)
        assert model.k_a == pytest.approx(151.0)
        assert model.k_b == pytest.approx(50.5)
        assert model.k_a / model.k_b == pytest.approx(151.0 / 50.5)

    def test_intercept_frozen(self):
        model = update_runtime(DecodeModel(2.0, 1.0, 4.2), 7.0, 20.0, 0.3)
        assert model.k_c == 4.2

    def test_on_line_observations_are_fixed_point(self):
        model = DecodeModel(1.5, 2.0, 3.0)
        for t in (4.0, 9.0, 17.0):
            updated = update_runtime(model, t, model.predict(t), 0.4)
            for probe in (1.0, 8.0, 30.0):
                assert updated.predict(probe) == pytest.approx(model.predict(probe))
            model = updated

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            update_runtime(DecodeModel(1.0, 1.0, 0.0), 0.0, 5.0, 1.0)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            update_runtime(DecodeModel(1.0, 1.0, 0.0), 1.0, 5.0, 1.5)


class TestDecodeCurve:
    def test_measures_requested_range(self):
        samples = measure_decode_curve(
            vocab_size=64, n_docs=2, chunk_size=8, max_context=24, repeats=2, seed=1
        )
        steps = [t for t, _ in samples]
        assert steps == list(range(8, 24))
        assert all(c >= 0.0 for _, c in samples)

    def test_fit_recovers_injected_delay(self):
        requests = []
        samples = measure_decode_curve(
            vocab_size=64,
            n_docs=2,
            chunk_size=8,
            max_context=20,
            repeats=1,
            seed=2,
            sleep_ms=3.0,
            sleeper=requests.append,  # record the request, skip the wall wait
        )
        # one 3 ms sleep is requested inside each timed step
        assert len(samples) == 12
        assert requests == [0.003] * len(samples)

    def test_predictions_finite_nonnegative(self):
        samples = measure_decode_curve(
            vocab_size=64, n_docs=3, chunk_size=8, max_context=24, repeats=2, seed=3
        )
        model = fit_offline(samples)
        for t in range(1, 25):
            assert np.isfinite(model.predict(t))


class TestSideProfiler:
    def test_first_observation_sets_flat_prior(self):
        prof = SideProfiler()
        prof.observe_decode(Side.DEVICE, 10, 5.0)
        assert prof.decode_estimate(Side.DEVICE, 50) == pytest.approx(5.0)

    def test_updates_refine_slope(self):
        prof = SideProfiler(zeta=0.5)
        prof.observe_decode(Side.CLOUD, 10, 5.0)
        for t in range(11, 30):
            prof.observe_decode(Side.CLOUD, t, 5.0 + 0.1 * t)
        predicted = prof.decode_estimate(Side.CLOUD, 30)
        assert predicted == pytest.approx(5.0 + 0.1 * 30, rel=0.25)

    def test_default_before_any_observation(self):
        prof = SideProfiler()
        assert prof.decode_estimate(Side.DEVICE, 10, default=2.5) == 2.5


def test_profile_csv_round_trip(tmp_path):
    rows = [(1.0, 2.0, 2.1, 30.0), (2.0, 2.2, 2.15, 31.0)]
    path = tmp_path / "profile.csv"
    write_profile_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,c_dec_obs,c_dec_pred,rtt_obs"
    assert len(lines) == 3
