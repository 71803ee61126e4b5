import math

import numpy as np
import pytest

from specagg.common import Side
from specagg.scheduler import CostVector, theoretical_speedup
from specagg.simulator import (
    JITTER_PERIOD_S,
    AcceptanceTrace,
    NetModel,
    default_message_bytes,
    instantaneous_latency,
    simulate,
    speedup_curve,
)

QUIET = NetModel()


class TestNetModel:
    def test_constant_when_amplitude_zero(self):
        net = NetModel(base_latency=2.0, extra_latency=3.0, jitter_amplitude=0.0)
        for t in (0.0, 10.0, 1000.0):
            assert instantaneous_latency(net, t) == pytest.approx(5.0)

    def test_peak_at_quarter_period(self):
        net = NetModel(base_latency=10.0, jitter_amplitude=2.0)
        assert instantaneous_latency(net, JITTER_PERIOD_S / 4.0) == pytest.approx(12.0)
        assert instantaneous_latency(net, JITTER_PERIOD_S * 0.75) == pytest.approx(8.0)

    def test_default_period_and_amplitude(self):
        net = NetModel(base_latency=50.0, extra_latency=50.0)
        # period 20*pi seconds: peak at 5*pi
        assert JITTER_PERIOD_S == pytest.approx(20.0 * math.pi)
        assert instantaneous_latency(net, 5.0 * math.pi) == pytest.approx(100.0 + 20.0)

    def test_amplitude_bounded_by_latency(self):
        with pytest.raises(ValueError, match="amplitude"):
            NetModel(base_latency=1.0, jitter_amplitude=2.0)

    def test_nonnegative_instantaneous(self):
        net = NetModel(base_latency=4.0, extra_latency=1.0)
        times = np.linspace(0.0, 200.0, 500)
        assert all(instantaneous_latency(net, float(t)) >= 0.0 for t in times)


class TestTrace:
    def test_bernoulli_deterministic(self):
        a = AcceptanceTrace.bernoulli(64, 0.5, 0.5, seed=1)
        b = AcceptanceTrace.bernoulli(64, 0.5, 0.5, seed=1)
        assert a == b
        assert a != AcceptanceTrace.bernoulli(64, 0.5, 0.5, seed=2)

    def test_csv_round_trip(self, tmp_path):
        trace = AcceptanceTrace.bernoulli(32, 0.7, 0.2, seed=3)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        assert AcceptanceTrace.load_csv(path) == trace
        header = path.read_text().splitlines()[0]
        assert header == "step,accept_l,accept_r"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceTrace(flags=())

    def test_metrics_csv_read_by_header(self, tmp_path):
        path = tmp_path / "device.csv"
        path.write_text(
            "step,token,accept_l,accept_r,latency_ms\n"
            "0,17,1,0,0.000\n1,1,0,1,2.500\n2,9,1,1,3.125\n"
        )
        assert AcceptanceTrace.load_csv(path).flags == (
            (True, False), (False, True), (True, True)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "step,token,accept_l,accept_r,latency_ms\n0,17,1,0,0.0\n1,1,0,1,2.5\n3,9,1,1,3.1\n",
            "step,accept_l,accept_r\n1,1,0\n",
            "step,accept_l,accept_r\n0,1,0\n0,1,1\n",
            "step,accept_l,accept_r\n0,1,2\n",
            "step,a,b\n0,1,0\n",
            "0,1,0\n1,0,1\n",
        ],
        ids=["gap", "late-start", "repeat", "bad-flag", "unknown-schema", "headerless"],
    )
    def test_malformed_csv_rejected(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            AcceptanceTrace.load_csv(path)


STEADY_CASES = [
    ("reject-l/accept-r", CostVector(1.0, 1.5, 1.2, 1.8), (False, True), 1.5),
    ("accept-l/reject-r", CostVector(2.0, 2.0, 1.5, 1.0), (True, False), 4.5),
    ("accept-both", CostVector(1.0, 1.5, 1.5, 1.8), (True, True), 1.5),
    ("reject-both", CostVector(2.0, 1.0, 1.5, 1.8), (False, False), 4.3),
]


class TestSteadyStates:
    @pytest.mark.parametrize("name,costs,flags,expected", STEADY_CASES)
    def test_pure_patterns(self, name, costs, flags, expected):
        run = simulate(AcceptanceTrace.constant(1000, *flags), costs, QUIET, "device")
        assert run.per_token[-1] == pytest.approx(expected, abs=1e-6)
        assert run.steady_per_token() == pytest.approx(expected, abs=1e-6)

    def test_all_reject_is_synchronized_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            costs = CostVector(*rng.uniform(0.1, 4.0, size=4))
            run = simulate(AcceptanceTrace.constant(400, False, False), costs, QUIET, "device")
            expected = max(costs.c_dec_l, costs.c_dec_r + costs.rtt)
            assert run.per_token[-1] == pytest.approx(expected, rel=1e-9)

    def test_total_is_sum_of_tokens(self):
        run = simulate(AcceptanceTrace.bernoulli(300, 0.5, 0.5, 1), STEADY_CASES[0][1], QUIET, "device")
        assert run.total_time == pytest.approx(sum(run.per_token), abs=1e-9)

    def test_cloud_static_mirrors_device(self):
        # swapping both the costs and the trace mirrors the run exactly
        costs = CostVector(1.0, 2.0, 0.4, 0.9)
        trace = AcceptanceTrace.bernoulli(200, 0.3, 0.8, seed=5)
        mirrored = AcceptanceTrace(tuple((b, a) for a, b in trace.flags))
        swapped = CostVector(2.0, 1.0, 0.9, 0.4)
        a = simulate(trace, costs, QUIET, "device")
        b = simulate(mirrored, swapped, QUIET, "cloud")
        assert a.total_time == pytest.approx(b.total_time, rel=1e-12)


class TestDeterminism:
    def test_identical_runs(self):
        trace = AcceptanceTrace.bernoulli(128, 0.6, 0.4, seed=4)
        net = NetModel(base_latency=2.0, extra_latency=50.0)
        costs = CostVector(3.0, 2.0, 1.0, 1.0)
        for strategy in ("device", "cloud", "random", "dragon"):
            a = simulate(trace, costs, net, strategy, seed=9)
            b = simulate(trace, costs, net, strategy, seed=9)
            assert a == b

    def test_random_strategy_seed_sensitivity(self):
        trace = AcceptanceTrace.bernoulli(128, 0.6, 0.4, seed=4)
        costs = CostVector(3.0, 2.0, 1.0, 1.0)
        net = NetModel(base_latency=2.0, extra_latency=50.0)
        a = simulate(trace, costs, net, "random", seed=1)
        b = simulate(trace, costs, net, "random", seed=2)
        assert a.side_history != b.side_history


class TestSpeedup:
    def test_interior_point_matches_closed_form(self):
        costs = CostVector(1.0, 1.5, 0.75, 0.75)
        [point] = speedup_curve([costs], [0.5], tokens=20_000, seed=0)
        assert point.theoretical == pytest.approx(4.0 / 3.0)
        assert point.empirical == pytest.approx(point.theoretical, rel=0.02)

    def test_zero_acceptance_unity(self):
        costs = CostVector(1.0, 1.5, 0.75, 0.75)
        [point] = speedup_curve([costs], [0.0], tokens=2_000, seed=0)
        assert point.empirical == pytest.approx(1.0, abs=1e-9)

    def test_slow_local_region_unity(self):
        costs = CostVector(4.0, 1.0, 0.5, 0.5)
        [point] = speedup_curve([costs], [0.9], tokens=2_000, seed=0)
        assert point.empirical == pytest.approx(1.0, abs=1e-9)
        assert theoretical_speedup(costs, 0.9) == 1.0


class TestDragonStrategy:
    def test_switches_toward_low_acceptance_side(self):
        # remote(cloud) rejected every step under heavy latency: aggregation
        # should migrate off the device once rates are learned
        costs = CostVector(60.0, 50.0, 0.0, 0.0)
        net = NetModel(base_latency=2.0, extra_latency=300.0)
        trace = AcceptanceTrace.constant(60, True, False)
        run = simulate(trace, costs, net, "dragon", seed=0)
        assert run.side_history[0] is Side.DEVICE
        assert run.side_history[-1] is Side.CLOUD
        assert run.switches >= 1

    def test_static_when_local_decode_dominates(self):
        costs = CostVector(80.0, 10.0, 1.0, 1.0)
        trace = AcceptanceTrace.bernoulli(100, 0.5, 0.5, seed=6)
        run = simulate(trace, costs, NetModel(base_latency=2.0), "dragon", seed=0)
        assert run.switches == 0
        assert all(s is Side.DEVICE for s in run.side_history)

    def test_beats_or_matches_static_sides(self):
        costs = CostVector(60.0, 50.0, 0.0, 0.0)
        net = NetModel(base_latency=2.0, extra_latency=200.0)
        totals = {}
        for i in range(12):
            hi, lo = (0.9, 0.3) if i % 2 == 0 else (0.3, 0.9)
            trace = AcceptanceTrace.bernoulli(100, hi, lo, seed=100 + i)
            for strategy in ("device", "cloud", "dragon"):
                run = simulate(trace, costs, net, strategy, seed=i)
                totals.setdefault(strategy, 0.0)
                totals[strategy] += run.total_time
        assert totals["dragon"] <= min(totals["device"], totals["cloud"]) * 1.01

    def test_hand_off_on_rejection_pays_on_wan_link(self):
        # 10 ms decode, 25 ms one way: handing the role to a side whose draft
        # was just rejected spares its redraft the second link crossing
        costs = CostVector(10.0, 10.0, 25.0, 25.0)
        for seed in range(3):
            trace = AcceptanceTrace.bernoulli(2000, 0.47, 0.45, seed=seed)
            totals = {
                s: simulate(trace, costs, QUIET, s).total_time for s in ("device", "cloud", "dragon")
            }
            assert totals["dragon"] <= 0.75 * min(totals["device"], totals["cloud"])


class TestMessageSizing:
    def test_default_sizes_measured(self):
        draft_bytes, target_bytes = default_message_bytes()
        assert 6 < target_bytes < 30
        assert 50 < draft_bytes < 450

    def test_bandwidth_term_slows_transmission(self):
        costs = CostVector(1.0, 1.0, 1.0, 1.0)
        trace = AcceptanceTrace.constant(200, False, False)
        fast = simulate(trace, costs, NetModel(), "device")
        slow = simulate(trace, costs, NetModel(bandwidth=0.5), "device")
        assert slow.total_time > fast.total_time
