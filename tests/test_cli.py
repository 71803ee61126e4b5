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


class TestVerifyCommand:
    def test_pipelines_suite_passes(self):
        result = run_cli("verify", "--suite", "pipelines")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("[PASS]") == 4

    def test_aggregation_suite_small_trials(self):
        result = run_cli("verify", "--suite", "aggregation", "--trials", "50000")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "target-law-tv" in result.stdout

    def test_unknown_suite_rejected(self):
        assert run_cli("verify", "--suite", "nope").returncode != 0


class TestNodeCommand:
    def test_loopback_pair_identical_logs(self, corpus_file, prompt_text, tmp_path):
        port = free_port()
        common = [
            "--corpus", corpus_file, "--prompt", prompt_text,
            "--max-new-tokens", "20", "--seed", "5", "--docs", "4",
        ]
        cloud_log = tmp_path / "cloud.txt"
        cloud = subprocess.Popen(
            [sys.executable, "-m", "specagg.cli", "node", "--role", "cloud",
             "--listen", f"127.0.0.1:{port}", "--target-log", str(cloud_log), *common],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        device_log = tmp_path / "device.txt"
        device_csv = tmp_path / "device.csv"
        device = run_cli(
            "node", "--role", "device", "--connect", f"127.0.0.1:{port}",
            "--target-log", str(device_log), "--csv", str(device_csv), *common,
        )
        cloud_out, cloud_err = cloud.communicate(timeout=60)
        assert device.returncode == 0, device.stderr
        assert cloud.returncode == 0, cloud_err
        assert device_log.read_text() == cloud_log.read_text()
        rows = list(csv.reader(device_csv.read_text().splitlines()))
        assert rows[0] == ["step", "token", "accept_l", "accept_r", "latency_ms"]
        assert len(rows) == 21

    def test_rejects_both_listen_and_connect(self, corpus_file, prompt_text):
        result = run_cli(
            "node", "--role", "device", "--corpus", corpus_file,
            "--prompt", prompt_text,
            "--listen", "127.0.0.1:1", "--connect", "127.0.0.1:2",
        )
        assert result.returncode != 0

    def test_bad_corpus_path(self, prompt_text):
        result = run_cli(
            "node", "--role", "device", "--corpus", "/nonexistent/corpus.txt",
            "--prompt", prompt_text, "--connect", "127.0.0.1:1",
        )
        assert result.returncode != 0
        assert "error" in result.stderr.lower() or "No such file" in result.stderr


class TestBench:
    def test_bench_over_prompt_file(self, corpus_file, tmp_path):
        prompts = tmp_path / "prompts.txt"
        corpus = random_corpus(48, 256, seed=11, chunk_size=64)
        lines = [
            " ".join(str(t) for t in doc.tokens[:16]) for doc in corpus.docs[:2]
        ]
        prompts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bench.csv"
        result = run_cli(
            "bench", "--corpus", corpus_file, "--prompts", str(prompts),
            "--max-new-tokens", "8", "--csv", str(out),
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["prompt", "ttft_ms", "per_token_ms", "tokens"]
        assert len(rows) == 3


class TestFitProfile:
    def test_prints_coefficients(self, tmp_path):
        out = tmp_path / "samples.csv"
        result = run_cli(
            "fit-profile", "--vocab", "64", "--docs", "2", "--chunk-size", "8",
            "--max-context", "32", "--repeats", "2", "--csv", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "k_a=" in result.stdout and "k_c=" in result.stdout
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["t", "c_dec_ms"]
        assert len(rows) == 1 + (32 - 8)
