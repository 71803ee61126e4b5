"""Run `specagg` under the span recorder and write the spans at exit.

Usage: python3 traced_node.py SPANS.npz GENERATION -- <specagg CLI arguments>

The CLI runs unchanged; only the public functions listed in
`tracer.NODE_TARGETS` are wrapped.  Counters that the
spans cannot carry (kept tokens per draft, resampled targets, bytes sent, the
decoder's conditional cache) are added to the dump.
"""

from __future__ import annotations

import sys

from tracer import NODE_TARGETS, Tracer


def _count_kept(counters, args, out) -> None:
    counters["kept_tokens"] += len(out)


def _count_resampled(counters, args, out) -> None:
    counters["resampled"] += out.resampled_from.value != "none"


def _count_bytes(counters, args, out) -> None:
    counters["bytes_sent"] += out


HOOKS = {
    "dists.topp_encode": _count_kept,
    "aggregator.aggregate": _count_resampled,
    "transport.send": _count_bytes,
}


def main(argv: list[str]) -> int:
    spans_path, generation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_node.py SPANS.npz GENERATION -- ARGS...")
    import specagg.cli
    from specagg import decoder

    tracer = Tracer(int(generation))
    tracer.install(NODE_TARGETS, HOOKS)
    try:
        return specagg.cli.main(cli_args)
    finally:
        info = decoder._conditional.cache_info()
        tracer.counters["cache_hits"] += info.hits
        tracer.counters["cache_misses"] += info.misses
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
