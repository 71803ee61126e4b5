"""Command-line entry point: node, simulate.

All outputs are CSV files and one summary line; every subcommand is
deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .common import Side
from .retrieval import load_corpus
from .runtime import METRICS_CSV_HEADER, NodeConfig, run_node
from .scheduler import STRATEGIES, CostVector


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, port 0-65535, got {text!r}")
    return host, int(port)


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _node_config(args: argparse.Namespace) -> NodeConfig:
    corpus = load_corpus(args.corpus)
    static = None if args.static_side == "auto" else Side(args.static_side)
    return NodeConfig(
        role=Side(args.role),
        corpus=corpus,
        prompt=[int(tok) for tok in args.prompt.split()],
        vocab_size=args.vocab,
        docs_k=args.docs,
        half=args.half,
        max_new_tokens=args.max_new_tokens,
        max_context=args.max_context,
        seed=args.seed,
        top_p=args.top_p,
        queue_capacity=args.queue_capacity,
        vanilla=args.vanilla,
        static_side=static,
        decode_delay_ms=args.decode_delay_ms,
        link_delay_ms=args.link_delay_ms,
        listen=args.listen,
        peer=args.connect,
    )


def _emit_node_outputs(args: argparse.Namespace, result) -> None:
    if args.csv:
        rows = [
            (e.step, e.token, int(e.accept_l), int(e.accept_r), f"{e.latency_ms:.3f}")
            for e in result.target_log
        ]
        _write_csv(args.csv, METRICS_CSV_HEADER, rows)
    if args.profile_csv:
        from .profiler import write_profile_csv

        write_profile_csv(args.profile_csv, result.profile_rows)
    print(
        f"role={result.role} tokens={len(result.target_log)} "
        f"ttft_ms={result.ttft_ms:.3f} mean_latency_ms={result.mean_latency_ms():.2f} "
        f"switches={result.switches}"
    )


def cmd_node(args: argparse.Namespace) -> int:
    if (args.listen is None) == (args.connect is None):
        raise SystemExit("node needs exactly one of --listen / --connect")
    result = run_node(_node_config(args))
    _emit_node_outputs(args, result)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import AcceptanceTrace, NetModel, simulate  # a node never loads it

    if (args.trace is None) == (args.bernoulli is None):
        raise SystemExit("simulate needs exactly one of --trace / --bernoulli")
    if args.trace:
        trace = AcceptanceTrace.load_csv(args.trace)
    else:
        trace = AcceptanceTrace.bernoulli(
            args.tokens, args.bernoulli_local, args.bernoulli, args.seed
        )
    costs = CostVector(args.c_dec_l, args.c_dec_r, args.c_trans_l, args.c_trans_r)
    net = NetModel(
        base_latency=args.base_latency,
        extra_latency=args.extra_latency,
        jitter_amplitude=args.jitter_amplitude,
        bandwidth=args.bandwidth,
    )
    result = simulate(trace, costs, net, args.strategy, seed=args.seed)
    if args.csv:
        rows = [
            (step, f"{dt:.6f}", side.value)
            for step, (dt, side) in enumerate(zip(result.per_token, result.side_history))
        ]
        _write_csv(args.csv, ("step", "latency_ms", "agg_side"), rows)
    print(
        f"strategy={args.strategy} tokens={len(result.per_token)} "
        f"total_ms={result.total_time:.3f} per_token_ms={result.total_time / len(result.per_token):.4f} "
        f"steady_ms={result.steady_per_token():.4f} switches={result.switches}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specagg",
        description="dual-stream speculative aggregation engine and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one live node against a peer")
    node.add_argument("--role", choices=("device", "cloud"), required=True)
    node.add_argument("--listen", type=_host_port, metavar="HOST:PORT")
    node.add_argument("--connect", type=_host_port, metavar="HOST:PORT")
    node.add_argument("--corpus", required=True)
    node.add_argument("--docs", type=int, default=4, help="documents per side")
    node.add_argument("--half", choices=("auto", "all"), default="auto")
    node.add_argument("--vocab", type=int, default=256)
    node.add_argument("--prompt", required=True, help="whitespace-separated token ids")
    node.add_argument("--max-new-tokens", type=int, default=32)
    node.add_argument("--max-context", type=int, default=256)
    node.add_argument("--seed", type=int, default=0)
    node.add_argument("--top-p", type=float, default=0.8)
    node.add_argument("--queue-capacity", type=int, default=8)
    node.add_argument("--vanilla", action="store_true", help="aggregate before every decode")
    node.add_argument("--static-side", choices=("device", "cloud", "auto"), default="auto")
    node.add_argument("--decode-delay-ms", type=float, default=0.0)
    node.add_argument("--link-delay-ms", type=float, default=0.0)
    node.add_argument("--csv", help="metrics CSV path")
    node.add_argument("--profile-csv", help="profiler snapshot CSV path")
    node.set_defaults(func=cmd_node)

    sim = sub.add_parser("simulate", help="replay an acceptance trace in the simulator")
    sim.add_argument("--trace", help="CSV of (step, accept_l, accept_r)")
    sim.add_argument("--bernoulli", type=float, help="cloud-side acceptance rate")
    sim.add_argument("--bernoulli-local", type=float, default=0.0, help="device-side rate")
    sim.add_argument("--tokens", type=int, default=1000)
    sim.add_argument("--strategy", choices=STRATEGIES, default="device")
    sim.add_argument("--c-dec-l", type=float, default=1.0)
    sim.add_argument("--c-dec-r", type=float, default=1.5)
    sim.add_argument("--c-trans-l", type=float, default=0.0)
    sim.add_argument("--c-trans-r", type=float, default=0.0)
    sim.add_argument("--base-latency", type=float, default=0.0)
    sim.add_argument("--extra-latency", type=float, default=0.0)
    sim.add_argument("--jitter-amplitude", type=float, default=None)
    sim.add_argument("--bandwidth", type=float, default=None, help="bytes/ms")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--csv", help="per-token CSV path")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
