"""The benchmark's per-layer run wraps specagg names; refactors must keep them working.

`specbench/tracer.py` lists the `(module, attribute)` pairs it wraps in
`NODE_TARGETS` and `SIM_TARGETS`, and replaces each function wherever a
loaded specagg module binds it.  Every pair must resolve, and a wrapper on
`scheduler.choose_side` alone must see the side decisions of the simulator
and of a live node pair, or the traced `scheduler.*` metrics read nothing.
`specbench/live.py` reads the device's `--profile-csv` by column name, so
what `write_profile_csv` writes must parse there, and every `specagg node`
command line it starts must parse and validate.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from specagg import cli, scheduler
from specagg.common import Side
from specagg.profiler import write_profile_csv
from specagg.retrieval import random_corpus, save_corpus
from specagg.runtime import NodeConfig, NodeResult, run_loopback_pair
from specagg.scheduler import CostVector
from specagg.simulator import AcceptanceTrace, NetModel, simulate

SPECBENCH = Path(__file__).resolve().parents[1] / "specbench"


def load_specbench(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, SPECBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # import only: leave no bytecode cache beside the benchmark
    sys.modules[name] = module  # dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_specbench("specbench_tracer", "tracer.py")


def test_every_target_resolves(tracer):
    targets = tracer.NODE_TARGETS + tracer.SIM_TARGETS
    assert targets
    for module_name, attr, span in targets:
        owner = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
            assert name in vars(owner), span  # methods are patched on their class
        assert callable(getattr(owner, name)), span


def test_choose_side_sees_every_decision(monkeypatch):
    calls = []
    original = scheduler.choose_side

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scheduler, "choose_side", counting)

    trace = AcceptanceTrace.bernoulli(50, 0.6, 0.8, seed=0)
    simulate(trace, CostVector(10.0, 6.0, 1.0, 1.0), NetModel(base_latency=2.0), "dragon")
    assert len(calls) == len(trace)

    calls.clear()
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    prompt = list(corpus.docs[3].tokens[:24])
    run_loopback_pair(
        NodeConfig(role=Side.DEVICE, corpus=corpus, prompt=prompt, max_new_tokens=40, seed=5)
    )
    assert calls  # the aggregator asks on every outcome after its first echo reply


def test_live_pred_err_reads_a_written_profile(tracer, monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # live.py imports it by that name
    live = load_specbench("specbench_live", "live.py")
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    prompt = list(corpus.docs[3].tokens[:24])
    device, _ = run_loopback_pair(
        NodeConfig(role=Side.DEVICE, corpus=corpus, prompt=prompt, max_new_tokens=16, seed=5)
    )
    path = tmp_path / "device.profile.csv"
    write_profile_csv(path, device.profile_rows)
    errors = live._pred_err(path)
    assert len(errors) == len(device.profile_rows)
    assert errors[0] == 0.0  # the first decode has no estimate before it
    assert all(err >= 0.0 for err in errors)


def test_summary_line_carries_ttft_to_the_microsecond(tracer, monkeypatch, capsys):
    # live.py reads TTFT from the device's summary line; at a 3 ms median a
    # 0.1 ms grain would move the metric in 3% steps
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # live.py imports it by that name
    live = load_specbench("specbench_live", "live.py")
    result = NodeResult(role=Side.DEVICE, target_log=[], ttft_ms=3.4567, switches=7)
    cli._emit_node_outputs(argparse.Namespace(csv=None, profile_csv=None), result)
    summary = live._SUMMARY.search(capsys.readouterr().out)
    assert float(summary.group(1)) == 3.457
    assert int(summary.group(2)) == 7


def test_every_workload_node_command_parses(tracer, monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # live.py imports it by that name
    live = load_specbench("specbench_live", "live.py")
    corpus_path = tmp_path / "corpus.txt"
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    save_corpus(corpus, corpus_path)
    prompt = list(corpus.docs[3].tokens[:24])
    spawned = []

    def capture(argv, out, env):
        spawned.append(argv)
        raise RuntimeError("captured")  # run_pair reports it; no process starts

    monkeypatch.setattr(live, "_spawn", capture)
    for name, spec in live.WORKLOADS.items():
        spawned.clear()
        gen = live.run_pair(
            spec, corpus_path, live.GenInput(prompt, 5, []), tmp_path, 0, {}, traced=False
        )
        assert gen.error == "captured", name
        [argv] = spawned  # the cloud's; the device starts once the cloud listens
        cloud = argv[argv.index("node") + 1 :]  # a traced run passes the same arguments
        swap = {"cloud": "device", "--listen": "--connect"}
        device = [swap.get(arg, arg) for arg in cloud]
        device += ["--profile-csv", str(tmp_path / "device.profile.csv")]
        for node_args in (cloud, device):
            args = cli.build_parser().parse_args(["node", *node_args])
            cli._node_config(args).validate()
