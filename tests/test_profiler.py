import pytest

from specagg.common import Side
from specagg.profiler import DEFAULT_ZETA, SideProfiler, write_profile_csv


class TestSideProfiler:
    def test_first_observation_sets_flat_prior(self):
        prof = SideProfiler()
        prof.observe_decode(Side.DEVICE, 5.0)
        assert prof.decode_estimate(Side.DEVICE) == 5.0
        assert prof.decode_estimate(Side.CLOUD) is None  # each side keeps its own level

    def test_default_before_any_observation(self):
        assert SideProfiler().decode_estimate(Side.DEVICE) is None

    def test_hand_blend(self):
        assert DEFAULT_ZETA == 0.3
        prof = SideProfiler()
        for c_obs in (5.0, 10.0, 2.0):
            prof.observe_decode(Side.CLOUD, c_obs)
        # 5.0, then 0.7 * 5.0 + 0.3 * 10.0 = 6.5, then 0.7 * 6.5 + 0.3 * 2.0 = 5.15
        assert prof.decode_estimate(Side.CLOUD) == pytest.approx(5.15)

    def test_level_follows_a_step_change(self):
        # the cold first decode does not pin the level: after a step in cost
        # the gap to the new cost shrinks by 1 - zeta per observation
        prof = SideProfiler()
        for _ in range(20):
            prof.observe_decode(Side.DEVICE, 2.0)
        assert prof.decode_estimate(Side.DEVICE) == pytest.approx(2.0)
        for n in range(1, 13):
            prof.observe_decode(Side.DEVICE, 12.0)
            assert prof.decode_estimate(Side.DEVICE) == pytest.approx(12.0 - 10.0 * 0.7**n)
        assert prof.decode_estimate(Side.DEVICE) > 11.8


def test_profile_csv_round_trip(tmp_path):
    rows = [(1.0, 2.0, 2.1, 30.0), (2.0, 2.2, 2.15, 31.0)]
    path = tmp_path / "profile.csv"
    write_profile_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,c_dec_obs,c_dec_pred,rtt_obs"
    assert len(lines) == 3
