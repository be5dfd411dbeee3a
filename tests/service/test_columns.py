"""Differential suite: the columnar pipeline vs. the legacy per-object
loops it replaced.

Three layers of equivalence, each pinned bit-for-bit:

* **traffic** — :func:`generate_request_columns` against verbatim copies
  of the pre-streaming scalar generators (per-request ``rng`` calls,
  heap-of-tuples closed loop, post-hoc sort), across both disciplines ×
  every rate pattern × several seeds;
* **emission order** — the closed loop's deleted ``requests.sort(...)``
  really was a no-op: pops never decrease in time and rids increase in
  pop order, so the emitted stream is already sorted by
  ``(arrival, rid)``;
* **serving** — the streamed columnar server emits event-for-event the
  same trace as the recorder-driven ``serve_objects`` oracle in
  ``tests/service/objects.py`` (complementing the golden hashes in
  ``tests/service/test_golden_traces.py``).
"""

import heapq
import random

import numpy as np
import pytest

from repro.service import ServiceParams, build_plan
from repro.service.params import nominal_request_cycles
from repro.service.server import ServiceWorkload
from repro.service.traffic import (arrival_gap, generate_request_columns,
                                   think_gap)
from repro.workloads.micro import ZipfSampler
from repro.service.arrivals import ChurnPattern, pattern_by_name

from .objects import (Request, batches_of, plan_from_objects, rejected_of,
                      serve_objects, shed_of, stream_of)


# ---------------------------------------------------------------------------
# Verbatim pre-streaming generators (the scalar reference).

def _remap_client(params, now, client, n_clients):
    """The scalar connected-population remap, per pattern (identity
    except under churn-style patterns)."""
    if not isinstance(pattern_by_name(params.pattern), ChurnPattern):
        return client
    width = max(1, round(n_clients * params.churn_active_fraction))
    wave = int(now // params.churn_period_cycles)
    start = (wave * width) % n_clients
    return (start + client % width) % n_clients


def _legacy_open_loop(params, rng):
    sampler = ZipfSampler(params.n_clients, params.zipf, rng)
    clock = 0.0
    requests = []
    for rid in range(params.n_requests):
        clock += arrival_gap(params, rng, clock)
        client = _remap_client(params, clock, sampler.sample(),
                               params.n_clients)
        requests.append(Request(
            rid=rid, client=client, arrival=clock,
            is_write=rng.random() >= params.read_fraction))
    return requests


def _legacy_closed_loop(params, rng):
    service = nominal_request_cycles(params)
    pending = [(think_gap(params, rng, 0.0), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    server_free = 0.0
    requests = []
    for rid in range(params.n_requests):
        arrival, client = heapq.heappop(pending)
        requests.append(Request(
            rid=rid, client=client, arrival=arrival,
            is_write=rng.random() >= params.read_fraction))
        completion = max(server_free, arrival) + service
        server_free = completion
        heapq.heappush(
            pending,
            (completion + think_gap(params, rng, completion), client))
    requests.sort(key=lambda request: (request.arrival, request.rid))
    return requests


LEGACY = {"open": _legacy_open_loop, "closed": _legacy_closed_loop}

PATTERNS = ["poisson", "burst", "diurnal", "churn", "waves"]


def _assert_stream_equal(cols, legacy):
    assert len(cols) == len(legacy)
    assert cols.rids.tolist() == [r.rid for r in legacy]
    assert cols.clients.tolist() == [r.client for r in legacy]
    # Bit-identical floats, not approximately equal.
    assert cols.arrivals.tolist() == [r.arrival for r in legacy]
    assert cols.is_write.tolist() == [r.is_write for r in legacy]


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("arrival", ["open", "closed"])
def test_columns_equal_legacy_stream(arrival, pattern, seed):
    params = ServiceParams(n_clients=12, n_requests=300, arrival=arrival,
                           pattern=pattern, seed=seed)
    cols = generate_request_columns(params)
    legacy = LEGACY[arrival](params, random.Random(params.seed))
    _assert_stream_equal(cols, legacy)


@pytest.mark.parametrize("kwargs", [
    dict(zipf=0.0),
    dict(read_fraction=0.0),
    dict(read_fraction=1.0),
    dict(n_clients=1),
    dict(n_requests=1),
    dict(n_requests=0),
])
def test_columns_equal_legacy_stream_edges(kwargs):
    for arrival in ("open", "closed"):
        merged = {"n_clients": 6, "n_requests": 80, "arrival": arrival,
                  **kwargs}
        params = ServiceParams(**merged)
        cols = generate_request_columns(params)
        legacy = LEGACY[arrival](params, random.Random(params.seed))
        _assert_stream_equal(cols, legacy)


def test_generate_requests_object_view_matches():
    params = ServiceParams(n_clients=8, n_requests=120)
    assert stream_of(params) == \
        _legacy_open_loop(params, random.Random(params.seed))


@pytest.mark.parametrize("pattern", PATTERNS)
def test_closed_loop_emission_already_sorted(pattern):
    """The deleted post-hoc sort was a no-op: every next-issue time
    pushed back exceeds the arrival just popped, so pop times never
    decrease, and rids increase in pop order — the emitted stream is
    already sorted by ``(arrival, rid)``."""
    params = ServiceParams(n_clients=16, n_requests=500, arrival="closed",
                           pattern=pattern)
    cols = generate_request_columns(params)
    arrivals = cols.arrivals
    assert np.all(arrivals[1:] >= arrivals[:-1])
    assert cols.rids.tolist() == sorted(
        range(len(cols)),
        key=lambda i: (arrivals[i], cols.rids[i]))


# ---------------------------------------------------------------------------
# Streamed server vs. the recorder-driven oracle.

SERVE_CASES = {
    "default": dict(n_clients=8, n_requests=150),
    "workers": dict(n_clients=12, n_requests=200, workers=3),
    "quantum1": dict(n_clients=12, n_requests=200, workers=4, quantum=1),
    "storms": dict(n_clients=8, n_requests=150, revoke_every_batches=4,
                   revoke_fraction=0.5),
    "shared": dict(n_clients=8, n_requests=150, shared_domains=2,
                   shared_words=4),
    "closed": dict(n_clients=6, n_requests=100, arrival="closed"),
    "no-batching": dict(n_clients=8, n_requests=150, batching="none"),
    "multipage": dict(n_clients=4, n_requests=40, read_words=700,
                      write_words=10, secret_size=8192, pool_size=1 << 16),
}


def _plan_signature(plan):
    cols = plan.columns
    return (cols.batch_starts.tolist(), cols.batch_clients.tolist(),
            cols.batch_workers.tolist(),
            cols.requests.rids[cols.member_rows].tolist(),
            cols.requests.rids[cols.rejected_rows].tolist(),
            cols.requests.rids[cols.shed_rows].tolist(),
            plan.migrations, plan.epochs, plan.loop_iterations)


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_plan_columns_equal_object_plan(name):
    """The planner's columns describe exactly the batches (members,
    clients, worker slots), rejections, sheds and counters of their
    object view: re-columnarizing ``batches_of``/``rejected_of``/
    ``shed_of`` through the object oracle gives the same plan.  (The
    planner itself is pinned to the per-object dispatch loop in
    ``tests/service/test_sched.py``.)"""
    params = ServiceParams(**SERVE_CASES[name])
    fast = build_plan(params)
    object_plan = plan_from_objects(
        params, batches_of(fast), rejected_of(fast), shed_of(fast),
        migrations=fast.migrations, epochs=fast.epochs,
        loop_iterations=fast.loop_iterations)
    assert _plan_signature(fast) == _plan_signature(object_plan)
    assert batches_of(fast) == batches_of(object_plan)
    assert rejected_of(fast) == rejected_of(object_plan)
    assert shed_of(fast) == shed_of(object_plan)


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_streamed_serve_equals_recorder_serve(name):
    """The chunked columnar emitter produces event-for-event the same
    trace (columns, layout, instruction count) as the per-event
    recorder oracle."""
    params = ServiceParams(**SERVE_CASES[name])
    plan = build_plan(params)

    streamed_ws = ServiceWorkload(params)
    streamed_ws.serve(plan)
    streamed = streamed_ws.finish()

    legacy = serve_objects(ServiceWorkload(params), plan)

    a, b = streamed.columns, legacy.columns
    assert a.kinds.tolist() == b.kinds.tolist()
    assert a.tids.tolist() == b.tids.tolist()
    assert a.icounts.tolist() == b.icounts.tolist()
    assert a.operand_a.tolist() == b.operand_a.tolist()
    assert a.operand_b.tolist() == b.operand_b.tolist()
    assert streamed.total_instructions == legacy.total_instructions
    assert streamed.layout.ptes == legacy.layout.ptes
    assert streamed.layout.n_threads == legacy.layout.n_threads
