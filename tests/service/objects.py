"""Per-object oracles for the columnar service pipeline.

The service layer has one representation: request stores
(:class:`~repro.service.traffic.RequestColumns`), plan columns
(:class:`~repro.service.batching.PlanColumns`) and streamed trace
columns.  This module keeps the per-object forms the columns replaced —
``Request``/``Batch`` records, an object-built plan, the recorder-driven
server that emits one Python call per event, the object walk of the
tenant profiler — so tests can state expectations one request at a time
and check the columnar code against an independent implementation.
Nothing here is imported by ``src/``.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.trace import Trace
from repro.os.scheduler import RoundRobinScheduler
from repro.permissions import Perm
from repro.service.batching import PlanColumns, ServicePlan
from repro.service.latency import _served_plan_order
from repro.service.params import ServiceParams
from repro.service.sched.profile import (CHURN_SPAN_FRACTION,
                                         HOT_HEAD_FRACTION, TenantProfile)
from repro.service.traffic import RequestColumns, generate_request_columns


@dataclass(frozen=True)
class Request:
    """One client request of the offered stream."""

    rid: int
    client: int
    #: Arrival time on the simulated-cycle wall clock.
    arrival: float
    #: Read-only lookup vs. record update (writes also read the record).
    is_write: bool


@dataclass(frozen=True)
class Batch:
    """One permission window: same-client requests served back to back."""

    index: int
    client: int
    requests: Tuple[Request, ...]
    #: Worker thread slot (0-based) this batch is assigned to.
    worker: int


# -- views: columns -> objects ----------------------------------------------------


def requests_of(store: RequestColumns,
                rows: Optional[Sequence[int]] = None) -> List[Request]:
    """The store's rows (all, or the given subset) as :class:`Request`."""
    index = np.arange(len(store)) if rows is None \
        else np.asarray(rows, dtype=np.int64)
    return [Request(rid=rid, client=client, arrival=arrival, is_write=write)
            for rid, client, arrival, write in zip(
                store.rids[index].tolist(), store.clients[index].tolist(),
                store.arrivals[index].tolist(),
                store.is_write[index].tolist())]


def stream_of(params: ServiceParams) -> List[Request]:
    """The offered request stream as :class:`Request` objects."""
    return requests_of(generate_request_columns(params))


def batches_of(plan: ServicePlan) -> List[Batch]:
    """The plan's batches, in plan order."""
    cols = plan.columns
    members = requests_of(cols.requests, cols.member_rows)
    starts = cols.batch_starts.tolist()
    clients = cols.batch_clients.tolist()
    workers = cols.batch_workers.tolist()
    return [Batch(index=i, client=clients[i],
                  requests=tuple(members[starts[i]:starts[i + 1]]),
                  worker=workers[i])
            for i in range(len(clients))]


def rejected_of(plan: ServicePlan) -> List[Request]:
    return requests_of(plan.columns.requests, plan.rejected)


def shed_of(plan: ServicePlan) -> List[Request]:
    return requests_of(plan.columns.requests, plan.shed)


def served_batches(trace: Trace, plan: ServicePlan) -> List[Batch]:
    """The plan's batches in the order the trace actually served them."""
    batches = batches_of(plan)
    return [batches[i]
            for i in _served_plan_order(trace, plan.columns).tolist()]


# -- objects -> columns -----------------------------------------------------------


def columns_of(requests: Sequence[Request]) -> RequestColumns:
    """A per-object stream as a request store (same row order)."""
    n = len(requests)
    return RequestColumns(
        np.fromiter((r.rid for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.client for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.arrival for r in requests), dtype=np.float64,
                    count=n),
        np.fromiter((r.is_write for r in requests), dtype=bool, count=n))


def plan_from_objects(params: ServiceParams, batches: Sequence[Batch],
                      rejected: Sequence[Request] = (),
                      shed: Sequence[Request] = (), migrations: int = 0,
                      epochs: int = 0,
                      loop_iterations: int = 0) -> ServicePlan:
    """Columnarize an object-built plan.

    The store holds the members (batch order), then the rejected, then
    the shed requests — a different row order from the planner's, so
    compare plans through :func:`batches_of`/:func:`requests_of`.
    """
    members = [request for batch in batches for request in batch.requests]
    store = columns_of(members + list(rejected) + list(shed))
    sizes = np.fromiter((len(batch.requests) for batch in batches),
                        dtype=np.int64, count=len(batches))
    starts = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    n_members = len(members)
    n_dropped = n_members + len(rejected)
    columns = PlanColumns(
        requests=store,
        member_rows=np.arange(n_members, dtype=np.int64),
        batch_starts=starts,
        batch_clients=np.fromiter((b.client for b in batches),
                                  dtype=np.int64, count=len(batches)),
        batch_workers=np.fromiter((b.worker for b in batches),
                                  dtype=np.int64, count=len(batches)),
        rejected_rows=np.arange(n_members, n_dropped, dtype=np.int64),
        shed_rows=np.arange(n_dropped, len(store), dtype=np.int64))
    return ServicePlan(params, columns, migrations=migrations, epochs=epochs,
                       loop_iterations=loop_iterations)


# -- the recorder-driven server ---------------------------------------------------


def serve_batch(workload, batch: Batch, tid: int) -> None:
    """One permission window serving every request of the batch, one
    recorder call per event."""
    params = workload.params
    ws = workload.ws
    pool = workload.pools[batch.client]
    secret = workload.secrets[batch.client]
    shared_records = workload.shared_records
    ws.recorder.perm(tid, pool.domain, Perm.RW)
    for request in batch.requests:
        ws.compute(params.compute_per_request)
        if shared_records:
            # Catalog lookup before touching the private record.
            shared = request.rid % len(shared_records)
            ws.mem.read_bytes(shared_records[shared], 0,
                              params.shared_words * 8, tid=tid)
        ws.mem.read_bytes(secret, 0, params.read_words * 8, tid=tid)
        if request.is_write:
            ws.mem.write_bytes(
                secret, params.read_words * 8,
                request.rid.to_bytes(8, "little") * params.write_words,
                tid=tid)
        ws.stack_access(tid=tid, n=params.stack_per_request)
    ws.recorder.perm(tid, pool.domain, Perm.NONE)


def revoke_storm(workload, tid: int) -> None:
    """One mass-revocation sweep: ``SETPERM(NONE)`` over the first
    ``revoke_fraction`` of the client domains."""
    swept = max(1, round(workload.params.n_clients *
                         workload.params.revoke_fraction))
    for pool in workload.pools[:swept]:
        workload.ws.recorder.perm(tid, pool.domain, Perm.NONE)


def serve_objects(workload, plan: ServicePlan) -> Trace:
    """Serve the plan through the recorder and the real
    :class:`RoundRobinScheduler`, then finish through the workspace —
    sharing no assembly code with ``ServiceWorkload.serve``/``finish``."""
    params = workload.params
    every = params.revoke_every_batches
    batches = batches_of(plan)
    storm_after = frozenset(
        index for index in range(len(batches))
        if every and (index + 1) % every == 0)

    if max(1, params.workers) == 1:
        tid = workload.worker_tids[0]
        for index, batch in enumerate(batches):
            serve_batch(workload, batch, tid)
            if index in storm_after:
                revoke_storm(workload, tid)
        return workload.ws.finish()

    scheduler = RoundRobinScheduler(workload.ws, quantum=params.quantum)
    partitions: List[List[Tuple[Batch, bool]]] = \
        [[] for _ in workload.worker_tids]
    for index, batch in enumerate(batches):
        partitions[batch.worker].append((batch, index in storm_after))

    for slot, thread in enumerate(workload.ws.process.threads):
        def body(thread=thread, my_batches=partitions[slot]):
            for batch, storm in my_batches:
                serve_batch(workload, batch, thread.tid)
                if storm:
                    revoke_storm(workload, thread.tid)
                yield

        scheduler.spawn(lambda thread, body=body: body(thread=thread),
                        thread)
    scheduler.run()
    return workload.ws.finish()


# -- the object walk of the tenant profiler ---------------------------------------


def profile_tenants(plan: ServicePlan, accounting,
                    wall_cycles: float) -> List[TenantProfile]:
    """``profile_tenants`` as it walked one ``Request`` at a time."""
    offered: Dict[int, int] = {}
    writes: Dict[int, int] = {}
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}

    def see(request: Request) -> None:
        client = request.client
        offered[client] = offered.get(client, 0) + 1
        if request.is_write:
            writes[client] = writes.get(client, 0) + 1
        arrival = request.arrival
        if client not in first or arrival < first[client]:
            first[client] = arrival
        if client not in last or arrival > last[client]:
            last[client] = arrival

    for batch in batches_of(plan):
        for request in batch.requests:
            see(request)
    for request in rejected_of(plan) + shed_of(plan):
        see(request)

    total_offered = sum(offered.values())
    total_writes = sum(writes.values())
    overall_write_fraction = (total_writes / total_offered
                              if total_offered else 0.0)
    hot: set = set()
    covered = 0
    for client in sorted(offered, key=lambda c: (-offered[c], c)):
        if total_offered and covered / total_offered >= HOT_HEAD_FRACTION:
            break
        hot.add(client)
        covered += offered[client]

    profiles: List[TenantProfile] = []
    for client in sorted(offered):
        histogram = accounting.latency.get(client)
        n_offered = offered[client]
        write_fraction = writes.get(client, 0) / n_offered
        span = last[client] - first[client]
        busy = accounting.busy.get(client, 0.0)
        classes = ["hot" if client in hot else "long_tail"]
        classes.append("write_heavy"
                       if write_fraction > overall_write_fraction
                       else "read_heavy")
        if wall_cycles > 0 and span < CHURN_SPAN_FRACTION * wall_cycles:
            classes.append("churn_prone")

        def percentile(q: float) -> float:
            if histogram is None:
                return 0.0
            return histogram.percentile(q) or 0.0

        profiles.append(TenantProfile(
            client=client,
            offered=n_offered,
            served=histogram.count if histogram is not None else 0,
            shed=accounting.shed_by_client.get(client, 0),
            windows=accounting.windows.get(client, 0),
            busy_cycles=busy,
            busy_fraction=busy / wall_cycles if wall_cycles > 0 else 0.0,
            write_fraction=write_fraction,
            mean_cycles=histogram.mean if histogram is not None else 0.0,
            p50_cycles=percentile(50.0),
            p95_cycles=percentile(95.0),
            p99_cycles=percentile(99.0),
            span_cycles=span,
            classes=tuple(sorted(classes)),
        ))
    return profiles
