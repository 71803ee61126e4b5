import numpy as np
import pytest

from specagg.common import Side
from specagg.scheduler import (
    AcceptanceEstimate,
    CostVector,
    MovingAcceptance,
    choose_side,
    delta_z,
    latency_per_token,
    theoretical_speedup,
)


class TestLatencyPerToken:
    def test_always_accepted_remote(self):
        costs = CostVector(1.0, 1.5, 2.0, 2.0)
        z = latency_per_token(costs, AcceptanceEstimate(0.3, 1.0))
        assert z == pytest.approx(max(1.0, 1.5))

    def test_never_accepted_is_synchronized(self):
        costs = CostVector(1.0, 1.5, 2.0, 1.0)
        z = latency_per_token(costs, AcceptanceEstimate(0.0, 0.0))
        assert z == pytest.approx(max(1.0, 1.5 + 3.0))

    def test_hand_value(self):
        costs = CostVector(1.0, 1.5, 1.5, 1.5)
        z = latency_per_token(costs, AcceptanceEstimate(0.1, 0.5))
        assert z == pytest.approx(0.5 * 1.5 + 0.5 * 4.5)

    def test_remote_orientation_swaps(self):
        costs = CostVector(1.0, 2.0, 0.5, 0.5)
        acc = AcceptanceEstimate(0.2, 0.8)
        direct = latency_per_token(costs.swapped(), acc.swapped())
        assert latency_per_token(costs, acc, local="r") == pytest.approx(direct)

    def test_local_acceptance_irrelevant(self):
        costs = CostVector(2.0, 1.0, 1.0, 1.0)
        zs = {
            latency_per_token(costs, AcceptanceEstimate(a, 0.4))
            for a in (0.0, 0.5, 1.0)
        }
        assert len(zs) == 1


class TestDeltaZ:
    def test_first_branch(self):
        costs = CostVector(0.5, 3.0, 1.0, 1.0)
        assert delta_z(costs, AcceptanceEstimate(0.9, 0.25)) == pytest.approx(1.5)

    def test_fourth_branch_fully_accepted_local(self):
        costs = CostVector(5.0, 1.0, 1.0, 1.0)
        assert delta_z(costs, AcceptanceEstimate(1.0, 0.3)) == 0.0

    def test_sign_matches_direct_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            costs = CostVector(*rng.uniform(0.0, 5.0, size=4))
            acc = AcceptanceEstimate(*rng.uniform(0.0, 1.0, size=2))
            direct = latency_per_token(costs, acc) - latency_per_token(costs, acc, local="r")
            piecewise = delta_z(costs, acc)
            assert piecewise == pytest.approx(direct, abs=1e-9)

    def test_continuity_at_breakpoints(self):
        acc = AcceptanceEstimate(0.35, 0.8)
        for rtt in (0.5, 2.0):
            for edge in (3.0 - rtt, 3.0, 3.0 + rtt):
                below = delta_z(CostVector(edge - 1e-9, 3.0, rtt / 2, rtt / 2), acc)
                above = delta_z(CostVector(edge + 1e-9, 3.0, rtt / 2, rtt / 2), acc)
                assert above == pytest.approx(below, abs=1e-6)

    def test_monotone_in_acceptance(self):
        costs = CostVector(1.2, 1.5, 1.0, 1.0)
        a_grid = np.linspace(0, 1, 11)
        for a_l in a_grid:
            values = [delta_z(costs, AcceptanceEstimate(a_l, a_r)) for a_r in a_grid]
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        for a_r in a_grid:
            values = [delta_z(costs, AcceptanceEstimate(a_l, a_r)) for a_l in a_grid]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


class TestChooseSide:
    def test_slow_decoder_keeps_aggregation(self):
        # local decode dominates the round trip: stay, whatever the rates
        costs = CostVector(10.0, 1.0, 1.0, 1.0)
        for a_l in (0.0, 0.5, 1.0):
            acc = AcceptanceEstimate(a_l, 0.5)
            assert choose_side(Side.DEVICE, costs, acc) is Side.DEVICE

    def test_symmetric_tie_stays(self):
        costs = CostVector(1.0, 1.0, 1.0, 1.0)
        acc = AcceptanceEstimate(0.6, 0.6)
        assert choose_side(Side.CLOUD, costs, acc) is Side.CLOUD

    def test_case_study_regime_switches(self):
        # remote decodes faster, gap below rtt, local always accepted and
        # remote never: move aggregation to the remote side
        costs = CostVector(2.0, 1.5, 0.5, 0.5)
        acc = AcceptanceEstimate(1.0, 0.0)
        assert choose_side(Side.DEVICE, costs, acc) is Side.CLOUD

    def test_picks_lower_latency_side_on_lattice(self):
        grid = np.linspace(0.1, 3.0, 8)
        alphas = np.linspace(0.0, 1.0, 5)
        for c_l in grid:
            for c_r in grid:
                for rtt in (0.0, 0.8, 2.4):
                    costs = CostVector(float(c_l), float(c_r), rtt / 2, rtt / 2)
                    for a_l in alphas:
                        for a_r in alphas:
                            acc = AcceptanceEstimate(float(a_l), float(a_r))
                            pick = choose_side(Side.DEVICE, costs, acc)
                            z_l = latency_per_token(costs, acc)
                            z_r = latency_per_token(costs, acc, local="r")
                            best = min(z_l, z_r)
                            got = z_l if pick is Side.DEVICE else z_r
                            assert got <= best + 1e-9


class TestTheoreticalSpeedup:
    def test_local_decode_dominates(self):
        assert theoretical_speedup(CostVector(5.0, 1.0, 1.0, 1.0), 0.9) == 1.0

    def test_first_branch_value(self):
        s = theoretical_speedup(CostVector(1.0, 1.5, 0.75, 0.75), 0.5)
        assert s == pytest.approx(4.0 / 3.0)

    def test_zero_acceptance_no_gain(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            costs = CostVector(*rng.uniform(0.1, 4.0, size=4))
            assert theoretical_speedup(costs, 0.0) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            costs = CostVector(*rng.uniform(0.0, 4.0, size=4))
            alpha = float(rng.uniform(0.0, 0.99))
            s = theoretical_speedup(costs, alpha)
            assert 1.0 - 1e-12 <= s <= 1.0 / (1.0 - alpha) + 1e-9


class TestMovingAcceptance:
    def test_starts_optimistic(self):
        assert MovingAcceptance().value == 1.0

    def test_ema_update(self):
        acc = MovingAcceptance(weight=0.2)
        acc.update(False)
        assert acc.value == pytest.approx(0.8)
        acc.update(True)
        assert acc.value == pytest.approx(0.8 * 0.8 + 0.2)

    def test_converges_to_rate(self):
        acc = MovingAcceptance(weight=0.2)
        for _ in range(200):
            acc.update(False)
        assert acc.value < 1e-9

    def test_validates_weight(self):
        with pytest.raises(ValueError):
            MovingAcceptance(weight=0.0)


class TestCostVector:
    def test_rtt(self):
        assert CostVector(1, 1, 0.7, 0.3).rtt == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostVector(-1.0, 1.0, 0.0, 0.0)

    def test_acceptance_bounds(self):
        with pytest.raises(ValueError):
            AcceptanceEstimate(1.2, 0.0)
