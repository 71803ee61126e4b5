"""Golden fixture of the simulator's adaptive strategy: side choice must never drift.

`golden_sim.json` holds `(switches, side_history, total_time.hex())` of
`simulate` for the cases in `CASES`: mostly `"dragon"`, under the
switch-charged hand-off rule (after each step `scheduler.choose_side`
compares staying with handing the role over along with the outcome, priced
from that step's realized accept flags), plus rows for the `device`, `cloud`
and `random` strategies and one on a link without jitter.  The side history
is one letter per step (`d` device, `c` cloud) and the total time is
compared bit for bit, so any change to the rule, the cost arithmetic or its
order fails here.  The fixture is data, not a snapshot to refresh.

`PYTHONPATH=src python tests/test_golden_sim.py` adds rows for cases the
file lacks; it never rewrites existing rows.
"""

import itertools
import json
from pathlib import Path

import pytest

from specagg.rng import derive_seed
from specagg.scheduler import CostVector
from specagg.simulator import AcceptanceTrace, NetModel, simulate

FIXTURE = Path(__file__).with_name("golden_sim.json")
STEPS = 300
TRACE_SEEDS = (0, 1, 2)
EXTRA_LATENCIES = (0.0, 100.0, 300.0)
# a slow device with a symmetric link, and a fast device behind a slow uplink
# whose drafts also pay a size term
COSTS = {
    "slow-device": (CostVector(10.0, 6.0, 1.0, 1.0), None),
    "slow-uplink": (CostVector(2.0, 3.0, 20.0, 0.5), 40.0),
}


def case_key(seed: int, extra: float, costs: str) -> str:
    return f"seed={seed} extra={extra:g} costs={costs}"


CASES = (
    [case_key(*case) for case in itertools.product(TRACE_SEEDS, EXTRA_LATENCIES, COSTS)]
    + [
        case_key(0, 100.0, costs) + f" strategy={strategy}"
        for strategy in ("device", "cloud", "random")
        for costs in COSTS
    ]
    + [case_key(0, 100.0, "slow-uplink") + " jitter=0"]
)


def run_case(key: str) -> list:
    fields = dict(part.split("=") for part in key.split())
    costs, bandwidth = COSTS[fields["costs"]]
    seed = int(fields["seed"])
    trace = AcceptanceTrace.bernoulli(STEPS, 0.6, 0.8, derive_seed(seed, "golden-sim"))
    jitter = float(fields["jitter"]) if "jitter" in fields else None
    net = NetModel(
        base_latency=2.0,
        extra_latency=float(fields["extra"]),
        jitter_amplitude=jitter,
        bandwidth=bandwidth,
    )
    result = simulate(trace, costs, net, fields.get("strategy", "dragon"), seed=seed)
    history = "".join(side.value[0] for side in result.side_history)
    return [result.switches, history, result.total_time.hex()]


def load_fixture() -> dict[str, list]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", CASES)
def test_dragon_matches_fixture(key):
    assert run_case(key) == load_fixture()[key]


def test_fixture_covers_every_case():
    fixture = load_fixture()
    assert sorted(fixture) == sorted(CASES)
    # the rule must actually move the aggregator in most cases, or the fixture pins little
    assert sum(row[0] > 0 for row in fixture.values()) >= len(CASES) // 2


if __name__ == "__main__":
    fixture = load_fixture() if FIXTURE.exists() else {}
    for key in CASES:
        if key not in fixture:
            fixture[key] = run_case(key)
    body = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in fixture.items())
    FIXTURE.write_text("{\n" + body + "\n}\n")
