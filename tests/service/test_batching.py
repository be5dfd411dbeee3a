"""Admission control and domain-aware batching of the service planner."""

import dataclasses

from repro.service import ServiceParams, build_plan

from .objects import batches_of, rejected_of

SATURATED = dict(n_clients=16, n_requests=400)  # default load: queues build


class TestDeterminism:
    def test_same_params_identical_plan(self):
        params = ServiceParams(**SATURATED)
        assert build_plan(params) == build_plan(params)

    def test_equality_compares_the_columns(self):
        params = ServiceParams(**SATURATED, workers=2)
        plan, other = build_plan(params), build_plan(params)
        other.columns.batch_workers = 1 - other.columns.batch_workers
        assert plan != other


class TestConservation:
    def test_every_offered_request_served_or_rejected(self):
        params = ServiceParams(**SATURATED)
        plan = build_plan(params)
        assert plan.n_served + len(plan.rejected) == params.n_requests
        served_rids = [r.rid for batch in batches_of(plan)
                       for r in batch.requests]
        rejected_rids = [r.rid for r in rejected_of(plan)]
        assert sorted(served_rids + rejected_rids) == \
            list(range(params.n_requests))
        assert len(set(served_rids)) == len(served_rids)


class TestBatching:
    def test_client_batches_are_single_client_and_bounded(self):
        params = ServiceParams(**SATURATED, batch_limit=4)
        plan = build_plan(params)
        for batch in batches_of(plan):
            assert 1 <= len(batch.requests) <= 4
            assert {r.client for r in batch.requests} == {batch.client}
        assert plan.coalesced > 0  # saturation leaves material to coalesce

    def test_none_serves_one_request_per_window(self):
        params = ServiceParams(**SATURATED, batching="none")
        plan = build_plan(params)
        assert all(len(batch.requests) == 1 for batch in batches_of(plan))
        assert plan.coalesced == 0

    def test_client_batching_strictly_reduces_windows(self):
        batched = build_plan(ServiceParams(**SATURATED))
        unbatched = build_plan(ServiceParams(**SATURATED, batching="none"))
        assert batched.columns.n_batches < unbatched.columns.n_batches

    def test_batch_indices_are_dense(self):
        plan = build_plan(ServiceParams(**SATURATED))
        batches = batches_of(plan)
        assert [b.index for b in batches] == list(range(len(batches)))


class TestAdmissionControl:
    def test_unbounded_queue_never_rejects(self):
        plan = build_plan(ServiceParams(**SATURATED, max_queue=0))
        assert rejected_of(plan) == []
        assert plan.n_served == SATURATED["n_requests"]

    def test_bounded_queue_rejects_under_overload(self):
        roomy = build_plan(ServiceParams(**SATURATED, max_queue=0))
        tight = build_plan(ServiceParams(**SATURATED, max_queue=8))
        assert len(tight.rejected) > len(roomy.rejected)

    def test_rejects_are_excluded_from_batches(self):
        plan = build_plan(ServiceParams(**SATURATED, max_queue=8))
        rejected = {r.rid for r in rejected_of(plan)}
        served = {r.rid for b in batches_of(plan) for r in b.requests}
        assert not rejected & served


class TestWorkerAssignment:
    def test_earliest_free_uses_every_slot(self):
        plan = build_plan(ServiceParams(**SATURATED, workers=3))
        # Saturated load keeps all three workers busy, and the first
        # batch lands on slot 0 (ties break to the lowest slot).
        batches = batches_of(plan)
        assert {batch.worker for batch in batches} == {0, 1, 2}
        assert batches[0].worker == 0

    def test_earliest_free_balances_saturated_load(self):
        plan = build_plan(ServiceParams(**SATURATED, workers=3))
        requests = [0, 0, 0]
        for batch in batches_of(plan):
            requests[batch.worker] += len(batch.requests)
        # Under saturation no worker idles while another drowns.
        assert min(requests) > 0
        assert max(requests) <= 2 * min(requests)

    def test_single_worker_everything_on_slot_zero(self):
        plan = build_plan(ServiceParams(**SATURATED))
        assert {batch.worker for batch in batches_of(plan)} == {0}


class TestLoadSensitivity:
    def test_light_load_degenerates_to_fifo(self):
        # Interarrival far above service cost: the queue never holds two
        # requests, so client batching finds nothing to coalesce.
        light = dataclasses.replace(ServiceParams(**SATURATED),
                                    interarrival_cycles=50000.0)
        plan = build_plan(light)
        assert plan.coalesced == 0
        assert rejected_of(plan) == []
