import csv
import subprocess
import sys

import pytest

from specagg.retrieval import random_corpus, save_corpus
from specagg.runtime import free_port
from specagg.simulator import AcceptanceTrace


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "specagg.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    save_corpus(random_corpus(48, 256, seed=11, chunk_size=64), path)
    return str(path)


@pytest.fixture(scope="module")
def prompt_text():
    corpus = random_corpus(48, 256, seed=11, chunk_size=64)
    return " ".join(str(t) for t in corpus.docs[3].tokens[:24])


class TestSimulate:
    def test_vanilla_rate_reports_formula_value(self, tmp_path):
        out = tmp_path / "sim.csv"
        result = run_cli(
            "simulate", "--bernoulli", "0.0", "--tokens", "500",
            "--c-dec-l", "1.0", "--c-dec-r", "1.5",
            "--c-trans-l", "0.6", "--c-trans-r", "0.4",
            "--csv", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "steady_ms=2.5" in result.stdout  # max(1.0, 1.5 + 1.0)
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["step", "latency_ms", "agg_side"]
        assert len(rows) == 501

    def test_trace_file_input(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        AcceptanceTrace.bernoulli(64, 0.5, 0.5, seed=2).save_csv(trace_path)
        result = run_cli("simulate", "--trace", str(trace_path), "--strategy", "dragon")
        assert result.returncode == 0, result.stderr
        assert "tokens=64" in result.stdout

    def test_deterministic_given_seed(self):
        args = ("simulate", "--bernoulli", "0.5", "--tokens", "200", "--seed", "9",
                "--extra-latency", "100", "--base-latency", "2", "--strategy", "dragon")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_requires_exactly_one_source(self):
        assert run_cli("simulate").returncode != 0


class TestNodeCommand:
    def test_loopback_pair_identical_logs(self, corpus_file, prompt_text, tmp_path):
        port = free_port()
        common = [
            "--corpus", corpus_file, "--prompt", prompt_text,
            "--max-new-tokens", "20", "--seed", "5", "--docs", "4",
        ]
        cloud_csv = tmp_path / "cloud.csv"
        cloud = subprocess.Popen(
            [sys.executable, "-m", "specagg.cli", "node", "--role", "cloud",
             "--listen", f"127.0.0.1:{port}", "--csv", str(cloud_csv), *common],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        device_csv = tmp_path / "device.csv"
        device = run_cli(
            "node", "--role", "device", "--connect", f"127.0.0.1:{port}",
            "--csv", str(device_csv), *common,
        )
        cloud_out, cloud_err = cloud.communicate(timeout=60)
        assert device.returncode == 0, device.stderr
        assert cloud.returncode == 0, cloud_err
        rows = {
            role: list(csv.reader(path.read_text().splitlines()))
            for role, path in (("device", device_csv), ("cloud", cloud_csv))
        }
        assert rows["device"][0] == ["step", "token", "accept_l", "accept_r", "latency_ms"]
        assert len(rows["device"]) == 21
        # latency is each node's own; every other column is the shared log
        assert [r[:4] for r in rows["device"]] == [r[:4] for r in rows["cloud"]]

    def test_rejects_both_listen_and_connect(self, corpus_file, prompt_text):
        result = run_cli(
            "node", "--role", "device", "--corpus", corpus_file,
            "--prompt", prompt_text,
            "--listen", "127.0.0.1:1", "--connect", "127.0.0.1:2",
        )
        assert result.returncode != 0

    @pytest.mark.parametrize(
        "endpoint",
        [("--connect", "127.0.0.1:99999"), ("--listen", "127.0.0.1:70000")],
        ids=["connect-99999", "listen-70000"],
    )
    def test_port_out_of_range_is_a_usage_error(self, corpus_file, prompt_text, endpoint):
        result = run_cli(
            "node", "--role", "device", "--corpus", corpus_file, "--prompt", prompt_text,
            *endpoint, timeout=30,
        )
        assert result.returncode == 2
        assert "65535" in result.stderr and "Traceback" not in result.stderr

    def test_bad_corpus_path(self, prompt_text):
        result = run_cli(
            "node", "--role", "device", "--corpus", "/nonexistent/corpus.txt",
            "--prompt", prompt_text, "--connect", "127.0.0.1:1",
        )
        assert result.returncode != 0
        assert "error" in result.stderr.lower() or "No such file" in result.stderr


class TestImports:
    def test_cli_leaves_the_simulator_unloaded(self):
        # every node process starts through specagg.cli; only `simulate`
        # needs the simulator, so a node must not pay for importing it
        out = subprocess.run(
            [sys.executable, "-c", "import sys, specagg.cli; print('specagg.simulator' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
