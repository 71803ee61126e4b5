import pytest

from specagg.common import Side
from specagg.profiler import (
    DecodeModel,
    SideProfiler,
    update_runtime,
    write_profile_csv,
)


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


class TestSideProfiler:
    def test_first_observation_sets_flat_prior(self):
        prof = SideProfiler()
        prof.observe_decode(Side.DEVICE, 10, 5.0)
        assert prof.decode_estimate(Side.DEVICE, 50) == pytest.approx(5.0)

    def test_updates_refine_slope(self):
        prof = SideProfiler()
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
