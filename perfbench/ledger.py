"""Stage ledger: spans and counters recorded around calls into the layers.

Nothing inside ``src/`` is instrumented.  Inside one forked operation
process the benchmark swaps a layer's public function for a wrapper
that records a span (layer, start, end, parent) and the work the call
did, then calls through.  The swap dies with the process.

Three recorders:

* :class:`ReplayTally` is always on.  It counts the events of every
  ``replay_one`` call in the process tree, fork workers included, and
  every replay the fast engine handed to the reference interpreter, by
  writing one fixed-size record per call into a pipe.  The event count
  is the numerator of the ``events_per_s`` end-to-end metric.
* :func:`capture_marks` is always on.  It records, per accounting
  call, the replay marks and the planned batches, for the correctness
  gate.
* :class:`Ledger` is on only in the traced run.  Its spans give each
  layer's self time (span minus its child spans) and the part of the
  operation no span covers (``unattributed_s``).
"""

from __future__ import annotations

import functools
import os
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cpu.trace import PERM

#: events, seconds, inside the executor, fell back to the interpreter
_RECORD = struct.Struct("<qdBB")


def patch_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module name that holds ``original``.

    Callers that imported the function by name hold their own binding,
    so each one is replaced.  Returns how many bindings changed.
    """
    name = original.__name__
    changed = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            changed += 1
    if not changed:
        raise RuntimeError(f"no module binds {name}")
    return changed


class ReplayTally:
    """Counts replayed events across the operation's process tree."""

    def __init__(self, in_executor: Callable[[], bool] = lambda: False):
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        self._in_executor = in_executor

    def install(self) -> None:
        import repro.engine.context as context
        from repro.cpu import fast_timing
        replay_original = context.replay_one
        engine_original = fast_timing.make_replay_engine
        tally = self

        @functools.wraps(replay_original)
        def replay_one(trace, scheme, *args, **kwargs):
            start = time.perf_counter()
            stats = replay_original(trace, scheme, *args, **kwargs)
            seconds = time.perf_counter() - start
            os.write(tally._write, _RECORD.pack(
                len(trace), seconds, tally._in_executor(), 0))
            return stats

        @functools.wraps(engine_original)
        def make_replay_engine(*args, **kwargs):
            engine = engine_original(*args, **kwargs)
            if not isinstance(engine, fast_timing.FastReplayEngine):
                os.write(tally._write, _RECORD.pack(0, 0.0, 0, 1))
            return engine

        patch_everywhere(replay_original, replay_one)
        patch_everywhere(engine_original, make_replay_engine)

    def collect(self) -> Dict[str, float]:
        """Totals of every record written so far (reads the pipe dry)."""
        data = b""
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        events = replays = fallbacks = 0
        job_s = 0.0
        for n, seconds, inside, fallback in _RECORD.iter_unpack(data):
            if fallback:
                fallbacks += 1
                continue
            events += n
            replays += 1
            if inside:
                job_s += seconds
        return {"events": events, "replays": replays, "job_s": job_s,
                "fallbacks": fallbacks}


def capture_marks(rows: list) -> None:
    """Record (scheme, replay marks, planned batches) per accounting call."""
    from repro.service import latency
    account, account_sharded = latency.account, latency.account_sharded

    @functools.wraps(account)
    def account_capture(plan, trace, stats, **kwargs):
        rows.append((stats.scheme, len(stats.mark_cycles or []),
                     plan.columns.n_batches))
        return account(plan, trace, stats, **kwargs)

    @functools.wraps(account_sharded)
    def account_sharded_capture(plan, shards, shard_stats, **kwargs):
        shards = list(shards)
        rows.append((shard_stats[0].scheme if shard_stats else "?",
                     sum(len(s.marks) for s in shards),
                     plan.columns.n_batches))
        return account_sharded(plan, shards, shard_stats, **kwargs)

    patch_everywhere(account, account_capture)
    patch_everywhere(account_sharded, account_sharded_capture)


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    children: float = 0.0
    #: Work the call did, by unit (events, requests, ...).
    work: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children


class Ledger:
    """Spans around the layers' public functions, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: Products later re-replayed warm (traces, shards), by kind.
        self.artifacts: Dict[str, list] = {}

    def top_layer(self) -> Optional[str]:
        return self._stack[-1].layer if self._stack else None

    def wrap(self, layer: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        A call made directly inside a span of the same layer (for
        example ``build_plan`` inside ``build_plan_keyed``) is part of
        that span, not a new one.  ``measure(span, args, result)`` runs
        after the span closes, so its cost is not charged to the layer.
        """
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ledger.top_layer() == layer:
                return fn(*args, **kwargs)
            parent = ledger._stack[-1] if ledger._stack else None
            span = Span(layer, time.perf_counter(), parent)
            ledger._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                ledger._stack.pop()
                if parent is not None:
                    parent.children += span.seconds
                ledger.spans.append(span)
            if measure is not None:
                measure(span, args, result)
            return result

        return traced

    def keep(self, kind: str, item) -> None:
        self.artifacts.setdefault(kind, []).append(item)

    # -- instrumentation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points (this process only)."""
        from repro.engine import Engine, WorkloadSpec
        from repro.service import batching, closed, latency, shard, traffic
        from repro.service.server import ServiceWorkload

        def on_generate(span, args, result):
            trace = result[0]
            span.work["events"] = len(trace)
            self.keep("trace", (args[0], trace))

        def on_traffic(span, args, result):
            span.work["requests"] = len(result)

        def on_plan(span, args, result):
            span.work["requests"] = (result.n_served + result.n_rejected
                                     + len(result.shed))

        def on_finish(span, args, result):
            span.work["events"] = len(result)
            span.work["perm"] = int(np.count_nonzero(
                result.columns.kinds == PERM))

        def on_shard(span, args, result):
            if any(s.trace is args[0] for s in result) or any(
                    result is kept for kept in self.artifacts.get("shards",
                                                                  [])):
                return  # one slot (the trace itself) or a memoized split
            span.work["events"] = len(args[0])
            span.work["shard_events"] = sum(len(s.trace) for s in result)
            self.keep("shards", result)

        def on_account(span, args, result):
            span.work["requests"] = result.n_offered

        WorkloadSpec.generate = self.wrap(
            "workloads", WorkloadSpec.generate, on_generate)
        for module, name, layer, measure in (
                (traffic, "generate_request_columns", "traffic", on_traffic),
                (batching, "build_plan", "plan", on_plan),
                (closed, "build_plan_keyed", "plan", on_plan),
                (closed, "scheme_clock", "calibrate", None),
                (shard, "shard_by_worker", "shard", on_shard),
                (latency, "account", "account", on_account),
                (latency, "account_sharded", "account", on_account)):
            original = getattr(module, name)
            patch_everywhere(original, self.wrap(layer, original, measure))
        ServiceWorkload.serve = self.wrap("serve", ServiceWorkload.serve)
        ServiceWorkload.finish = self.wrap("serve", ServiceWorkload.finish,
                                           on_finish)
        for name in ("replay", "replay_marked", "replay_shards",
                     "replay_marked_keyed"):
            setattr(Engine, name, self.wrap("executor",
                                            getattr(Engine, name)))

    # -- read-out --------------------------------------------------------------------

    def layer(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.layer == name]

    def self_seconds(self, name: str) -> float:
        return sum(s.self_seconds for s in self.layer(name))

    def rate(self, name: str, unit: str) -> float:
        """Work per second of the layer's inclusive span time."""
        spans = self.layer(name)
        seconds = sum(s.seconds for s in spans)
        work = sum(s.work.get(unit, 0) for s in spans)
        return work / seconds if seconds > 0 else 0.0

    def work(self, name: str, unit: str) -> float:
        return sum(s.work.get(unit, 0) for s in self.layer(name))

    def covered(self) -> float:
        """Seconds covered by top-level spans (they never overlap)."""
        return sum(s.seconds for s in self.spans if s.parent is None)
