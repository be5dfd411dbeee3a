"""Per-layer metrics of one traced operation, and their aggregation.

Every metric here is listed under ``per_layer`` in BENCHMARK.json and
explained, with the end-to-end metric it should move, in README.md.
Layer seconds (``<layer>.s``) are self time: the layer's spans minus
the spans of other layers they called.  Rates divide the layer's work
by its inclusive span time.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from typing import Dict, List

import workloads as wl
from repro import obs
from repro.engine.context import replay_one
from repro.service.server import batch_boundaries

REPLAY_SCHEMES = ("baseline",) + wl.MODEL_SCHEMES


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = ["workloads.generate_s", "workloads.events_per_s",
             "traffic.s", "traffic.requests_per_s",
             "plan.s", "plan.calls", "plan.requests_per_s",
             "calibrate.s", "calibrate.calls",
             "serve.s", "serve.events_per_s", "serve.switch_density",
             "shard.s", "shard.replication",
             "radiograph.s", "radiograph.us_per_event",
             "replay.s", "replay.fast_fallbacks"]
    names += [f"replay.{name}.events_per_s" for name in REPLAY_SCHEMES]
    names += ["executor.s", "executor.efficiency", "executor.job_s",
              "account.s", "account.requests_per_s"]
    names += [name for name in wl.model_counters(
        wl.WORKLOADS["paper_micro"], {})]
    names += ["trace.overhead_s", "unattributed_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("cycles"):
        return "cycles"
    if name.endswith(("density", "replication", "efficiency")):
        return "ratio"
    return "count"


def better_of(name: str) -> str:
    """Which direction of a per-layer metric is the good one."""
    if name.endswith(("_per_s", ".efficiency", ".served")):
        return "higher"
    return "lower"


def _replay_set(workload, ledger):
    """(fresh trace copy, marks, n_cores, schemes) the executor replayed."""
    sturdy = tuple(n for n in workload.schemes if n not in wl.EXPECTED_FAIL)
    items = []
    shard_sets = ledger.artifacts.get("shards")
    if shard_sets:
        for shards in shard_sets:
            for shard in shards:
                items.append((shard.trace, shard.marks, len(shards),
                              ("baseline",) + sturdy))
    else:
        for spec, trace in ledger.artifacts.get("trace", []):
            if spec.scheme is not None:
                schemes = ("baseline", spec.scheme)
            else:
                schemes = ("baseline",) + sturdy
            marks = batch_boundaries(trace) if workload.service else None
            items.append((trace, marks, 1, schemes))
    # A pickle round trip drops every replay-derived cache, so the first
    # replay of the copy pays the radiograph like a fresh trace does.
    return [(pickle.loads(pickle.dumps(trace)), marks, cores, schemes)
            for trace, marks, cores, schemes in items]


def _timed_replay(trace, scheme, marks, n_cores) -> float:
    start = time.perf_counter()
    replay_one(trace, scheme, marks=marks, n_cores=n_cores)
    return time.perf_counter() - start


def warm_replays(workload, ledger) -> Dict[str, float]:
    """Radiograph cost and warm per-scheme kernel rates, outside the op.

    The radiograph is the first ``baseline`` replay of a fresh trace
    minus a second replay of the same one.  Every further replay is
    warm.  Metrics are on (``REPRO_METRICS=1``) for this phase only, to
    read the ``engine.fast_fallback`` counter.
    """
    os.environ[obs.ENV_METRICS] = "1"
    obs.reset()
    try:
        radiograph = events_total = 0.0
        seconds = {name: 0.0 for name in REPLAY_SCHEMES}
        events = {name: 0 for name in REPLAY_SCHEMES}
        for trace, marks, cores, schemes in _replay_set(workload, ledger):
            cold = _timed_replay(trace, "baseline", marks, cores)
            warm = _timed_replay(trace, "baseline", marks, cores)
            radiograph += cold - warm
            events_total += len(trace)
            seconds["baseline"] += warm
            events["baseline"] += len(trace)
            for name in schemes[1:]:
                seconds[name] += _timed_replay(trace, name, marks, cores)
                events[name] += len(trace)
        registry = obs.metrics()
        fallbacks = registry.counter("engine.fast_fallback").value
    finally:
        os.environ.pop(obs.ENV_METRICS, None)
        obs.reset()
    out = {"radiograph.s": radiograph,
           "radiograph.us_per_event":
               1e6 * radiograph / events_total if events_total else 0.0,
           "replay.s": sum(seconds.values()),
           "replay.fast_fallbacks": fallbacks}
    for name in REPLAY_SCHEMES:
        out[f"replay.{name}.events_per_s"] = \
            events[name] / seconds[name] if seconds[name] else 0.0
    return out


def layer_metrics(workload, ledger, counts, op_s, outputs) -> Dict[str, float]:
    """Every per-layer metric of one traced operation but the overhead."""
    events = ledger.work("serve", "events")
    traced_events = ledger.work("shard", "events")
    executor_s = ledger.self_seconds("executor")
    out = {
        "workloads.generate_s": ledger.self_seconds("workloads"),
        "workloads.events_per_s": ledger.rate("workloads", "events"),
        "traffic.s": ledger.self_seconds("traffic"),
        "traffic.requests_per_s": ledger.rate("traffic", "requests"),
        "plan.s": ledger.self_seconds("plan"),
        "plan.calls": len(ledger.layer("plan")),
        "plan.requests_per_s": ledger.rate("plan", "requests"),
        "calibrate.s": ledger.self_seconds("calibrate"),
        "calibrate.calls": len(ledger.layer("calibrate")),
        "serve.s": ledger.self_seconds("serve"),
        "serve.events_per_s": ledger.rate("serve", "events"),
        "serve.switch_density":
            ledger.work("serve", "perm") / events if events else 0.0,
        "shard.s": ledger.self_seconds("shard"),
        "shard.replication": ledger.work("shard", "shard_events")
            / traced_events if traced_events else 0.0,
        "executor.s": executor_s,
        "executor.efficiency": counts["job_s"] / (workload.jobs * executor_s)
            if executor_s else 0.0,
        "executor.job_s": counts["job_s"],
        "account.s": ledger.self_seconds("account"),
        "account.requests_per_s": ledger.rate("account", "requests"),
        "unattributed_s": op_s - ledger.covered(),
    }
    out.update(wl.model_counters(workload, outputs))
    out.update(warm_replays(workload, ledger))
    return out


def aggregate(layers: List[Dict[str, float]], plain_op_s: List[float],
              traced_op_s: List[float]) -> Dict[str, dict]:
    """Medians over the traced operations, as the result's metrics."""
    metrics = {}
    for name in per_layer_names():
        if name == "trace.overhead_s":
            value = (statistics.median(traced_op_s)
                     - statistics.median(plain_op_s)) \
                if traced_op_s and plain_op_s else 0.0
        else:
            values = [layer[name] for layer in layers]
            value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit_of(name)}
    return metrics
