"""In-memory span recorder that wraps the public functions of specagg modules.

A span is (id, name, start, end, parent, generation) with times from
`time.perf_counter`, which on Linux reads CLOCK_MONOTONIC and is therefore
comparable across the processes of one machine.  Each thread appends to its
own arrays, so recording needs no lock; spans are written out once, at exit.

Runtime modules bind imported names (`from .decoder import decode_step`), so
`install` replaces a function in every loaded `specagg` module that holds it,
not only in the module that defines it.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

# (module, attribute, span name); "Class.method" attributes patch the class.
NODE_TARGETS = (
    ("specagg.runtime", "run_node", "runtime.run_node"),
    ("specagg.retrieval", "retrieve", "retrieval.retrieve"),
    ("specagg.decoder", "rerank", "decoder.rerank"),
    ("specagg.decoder", "decode_step", "decoder.decode_step"),
    ("specagg.decoder", "local_mixture", "decoder.local_mixture"),
    ("specagg.decoder", "rollback", "decoder.rollback"),
    ("specagg.dists", "topp_encode", "dists.topp_encode"),
    ("specagg.dists", "topp_decode", "dists.topp_decode"),
    ("specagg.aggregator", "aggregate", "aggregator.aggregate"),
    ("specagg.scheduler", "choose_side", "scheduler.choose_side"),
    ("specagg.profiler", "SideProfiler.observe_decode", "profiler.observe_decode"),
    ("specagg.transport", "MessageStream.send", "transport.send"),
    ("specagg.transport", "DelayedInbox.recv", "transport.recv_wait"),
)

SIM_TARGETS = (
    ("specagg.simulator", "simulate", "simulator.simulate"),
    ("specagg.simulator", "speedup_curve", "simulator.speedup_curve"),
    ("specagg.scheduler", "choose_side", "scheduler.choose_side"),
)


class _ThreadBuffer:
    __slots__ = ("ids", "names", "starts", "ends", "parents", "stack")

    def __init__(self) -> None:
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []


class Tracer:
    """Records spans for wrapped calls; counters are filled by result hooks."""

    def __init__(self, generation: int = 0) -> None:
        self.generation = generation
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            span_id = next(self._ids)
            parent = buf.stack[-1] if buf.stack else -1
            buf.stack.append(span_id)
            started = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ended = clock()
                buf.stack.pop()
                buf.ids.append(span_id)
                buf.names.append(name_id)
                buf.starts.append(started)
                buf.ends.append(ended)
                buf.parents.append(parent)
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return traced

    def install(self, targets, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap each target in its defining module and wherever it is bound."""
        hooks = hooks or {}
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(span, original, hooks.get(span)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span, original, hooks.get(span))
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").partition(".")[0] != "specagg":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

    def dump(self, path: str) -> None:
        """Write spans and counters as one .npz file."""
        bufs = list(self._buffers)

        def cat(field: str, dtype: str) -> np.ndarray:
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        meta = {"names": self.names, "counters": dict(self.counters), "generation": self.generation}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                ids=cat("ids", "i8"),
                names=cat("names", "i4"),
                starts=cat("starts", "f8"),
                ends=cat("ends", "f8"),
                parents=cat("parents", "i8"),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )


class SpanSet:
    """Spans loaded from one or more dump files, grouped by name."""

    def __init__(self, paths) -> None:
        self.by_name: dict[str, list[np.ndarray]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        for path in paths:
            with np.load(path) as data:
                meta = json.loads(data["meta"].tobytes())
                starts, ends, names = data["starts"], data["ends"], data["names"]
                for idx, name in enumerate(meta["names"]):
                    mask = names == idx
                    self.by_name[name].append(np.stack([starts[mask], ends[mask]], axis=1))
            for key, value in meta["counters"].items():
                self.counters[key] += value

    def intervals(self, name: str) -> np.ndarray:
        parts = self.by_name.get(name)
        return np.concatenate(parts) if parts else np.empty((0, 2))

    def calls(self, name: str) -> int:
        return int(self.intervals(name).shape[0])

    def mean_us(self, name: str) -> float:
        spans = self.intervals(name)
        if spans.shape[0] == 0:
            return 0.0
        return float((spans[:, 1] - spans[:, 0]).mean() * 1e6)

    def total_s(self, name: str) -> float:
        spans = self.intervals(name)
        return float((spans[:, 1] - spans[:, 0]).sum())


def covered(intervals: np.ndarray, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    if intervals.shape[0] == 0 or hi <= lo:
        return 0.0
    clipped = np.clip(intervals, lo, hi)
    clipped = clipped[np.argsort(clipped[:, 0], kind="stable")]
    total = 0.0
    cur_lo, cur_hi = clipped[0]
    for start, end in clipped[1:]:
        if start > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        elif end > cur_hi:
            cur_hi = end
    return float(total + cur_hi - cur_lo)
