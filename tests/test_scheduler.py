import itertools

import numpy as np
import pytest

from specagg.scheduler import (
    AcceptanceEstimate,
    CostVector,
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
        direct = latency_per_token(CostVector(2.0, 1.0, 0.5, 0.5), AcceptanceEstimate(0.8, 0.2))
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
        rates = itertools.product((0.0, 0.3, 0.35, 1.0), (0.0, 0.7, 0.8, 1.0))
        for (a_l, a_r), rtt in itertools.product(rates, (0.5, 1.0, 2.0)):
            acc = AcceptanceEstimate(a_l, a_r)
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


def oriented(agg, l, r):
    """An index-ordered pair (0 device, 1 cloud) with l at the aggregator's index."""
    return (l, r) if agg == 0 else (r, l)


class TestChooseSide:
    def test_slow_decoder_keeps_aggregation(self):
        # local decode dominates the round trip: stay, whatever the rates
        for agg in (0, 1):
            c_dec, c_trans = oriented(agg, 10.0, 1.0), oriented(agg, 1.0, 1.0)
            for a_l in (0.0, 0.5, 1.0):
                assert choose_side(agg, c_dec, c_trans, oriented(agg, a_l, 0.5)) == agg

    def test_case_study_regime_switches(self):
        # remote decodes faster, gap below rtt, local always accepted and
        # remote never: move aggregation to the remote side
        for agg in (0, 1):
            c_dec, c_trans = oriented(agg, 2.0, 1.5), oriented(agg, 0.5, 0.5)
            assert choose_side(agg, c_dec, c_trans, oriented(agg, True, False)) == 1 - agg

    def test_symmetric_tie_stays(self):
        # both drafts accepted on a symmetric link: staying and handing over
        # both wait max(c_l, c_r) = t_l, so the current side keeps the role
        for agg in (0, 1):
            assert choose_side(agg, (1.0, 1.0), (1.0, 1.0), (True, True)) == agg

    def test_picks_lower_latency_side_on_lattice(self):
        # the next step's wait both ways, from the step just aggregated:
        # staying, a rejected remote side learns the outcome and sends its
        # redraft back (a round trip); handing over, the remote side takes
        # the role with the outcome and redrafts on arrival, while the old
        # aggregator's draft makes one crossing if it was rejected
        grid = (0.1, 0.5, 2.0, 10.0, 25.0, 60.0)
        links = (0.0, 0.5, 25.0)
        for c_l, c_r, t_l, t_r in itertools.product(grid, grid, links, links):
            for a_l, a_r in itertools.product((True, False), repeat=2):
                remote_stay = c_r if a_r else t_l + c_r + t_r
                z_stay = max(c_l, remote_stay)
                remote_hand = c_r if a_r else t_l + c_r
                local_hand = c_l if a_l else c_l + t_l
                z_hand = max(t_l, remote_hand, local_hand)
                for agg in (0, 1):
                    expected = 1 - agg if z_hand < z_stay else agg
                    c_dec, c_trans = oriented(agg, c_l, c_r), oriented(agg, t_l, t_r)
                    accept = oriented(agg, a_l, a_r)
                    assert choose_side(agg, c_dec, c_trans, accept) == expected


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


class TestCostVector:
    def test_rtt(self):
        assert CostVector(1, 1, 0.7, 0.3).rtt == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostVector(-1.0, 1.0, 0.0, 0.0)

    def test_acceptance_bounds(self):
        with pytest.raises(ValueError):
            AcceptanceEstimate(1.2, 0.0)
