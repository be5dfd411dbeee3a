"""The scheduling subsystem (docs/SCHEDULING.md): policy registry,
static bit-identity against the legacy dispatch loop, conservation
under rebalancing, SLO/fairness accounting, and determinism."""

import heapq
import random
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, TraceCache, WorkloadSpec, replay_one
from repro.experiments.runner import ExperimentRunner
from repro.experiments.service import main as service_main
from repro.experiments.service import summaries_for_spec
from repro.registry import RegistryKeyError
from repro.scenario.compile import compile_scenario
from repro.scenario.library import find_scenario
from repro.scenario.run import serve_compiled
from repro.service import (ServiceParams, account, build_plan, jain_index,
                           policy_names, profile_tenants)
from repro.service.arrivals import pattern_by_name
from repro.service.batching import (CalibratedClock, NominalClock,
                                    _closed_feedback_plan)
from repro.service.sched import SchedState, policy_by_name
from repro.service.sched.policy import (ADMIT, MIN_PREDICTIONS,
                                        PREDICTION_WINDOW, REJECT, SHED)
from repro.service.server import (ServiceWorkload, batch_boundaries,
                                  generate_service_trace)
from repro.service.traffic import think_gap
from repro.sim.config import DEFAULT_CONFIG

from . import objects
from .objects import (Batch, Request, batches_of, plan_from_objects,
                      rejected_of, shed_of, stream_of)

FREQ = DEFAULT_CONFIG.processor.frequency_hz

#: A contended open-loop cell with real churn: the shape the control
#: loop is for (small enough that the full suite stays CI-sized).
CHURN = ServiceParams(n_clients=16, n_requests=400, workers=2,
                      pattern="churn", churn_period_cycles=20000.0,
                      churn_active_fraction=0.25)


# -- the inlined legacy dispatch loops (pre-scheduler, verbatim logic) ----------


def _legacy_stream_plan(params, clock):
    """The pre-scheduler open-loop dispatch simulation, decision for
    decision: bounded-queue admission, head-of-line service, one
    earliest-free clock per worker slot."""
    stream = stream_of(params)
    workers = max(1, params.workers)
    free = [0.0] * workers
    queue, batches, rejected = [], [], []
    iterations = 0
    position = 0

    def admit_until(now):
        nonlocal position
        while position < len(stream) and stream[position].arrival <= now:
            request = stream[position]
            position += 1
            if params.max_queue and len(queue) >= params.max_queue:
                rejected.append(request)
            else:
                queue.append(request)

    while position < len(stream) or queue:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        if not queue:
            now = max(now, stream[position].arrival)
        admit_until(now)
        if not queue:
            free[slot] = now
            continue
        head = queue[0]
        members = _take_batch(params, queue)
        batches.append(Batch(index=len(batches), client=head.client,
                             requests=tuple(members), worker=slot))
        free[slot] = now + clock.batch_cycles(len(members))
    return plan_from_objects(params, batches, rejected,
                             loop_iterations=iterations)


def _legacy_closed_plan(params, clock):
    """The pre-scheduler closed feedback loop, same discipline."""
    rng = random.Random(params.seed)
    workers = max(1, params.workers)
    free = [0.0] * workers
    pending = [(think_gap(params, rng, 0.0), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    queue, batches, rejected = [], [], []
    issued = 0
    iterations = 0

    while True:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        while pending and issued < params.n_requests and \
                pending[0][0] <= now:
            ready, client = heapq.heappop(pending)
            request = Request(
                rid=issued, client=client, arrival=ready,
                is_write=rng.random() >= params.read_fraction)
            issued += 1
            if params.max_queue and len(queue) >= params.max_queue:
                rejected.append(request)
                heapq.heappush(
                    pending, (ready + think_gap(params, rng, ready), client))
            else:
                queue.append(request)
        if not queue:
            if issued >= params.n_requests or not pending:
                break
            free[slot] = max(now, pending[0][0])
            continue
        head = queue[0]
        members = _take_batch(params, queue)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(index=len(batches), client=head.client,
                             requests=tuple(members), worker=slot))
        free[slot] = completion
        for request in members:
            heapq.heappush(
                pending,
                (completion + think_gap(params, rng, completion),
                 request.client))
    return plan_from_objects(params, batches, rejected,
                             loop_iterations=iterations)


# -- the object-hook planner (pre-columnar, verbatim logic) --------------------
#
# The dispatch loops and policies as they were before the planner moved
# onto row indices: every hook takes ``Request`` objects, the queue is a
# list of them, and the p99 window is re-sorted on every admission.  Kept
# here as the oracle the columnar planner is differentially pinned to.


class ObjectSchedState:
    """Per-plan control-loop bookkeeping, object-hook form."""

    __slots__ = ("params", "clock", "workers", "demand", "epoch_demand",
                 "affinity", "predicted", "shed", "migrations", "epochs",
                 "batches_in_epoch", "service_cycles", "service_requests")

    def __init__(self, params, clock, workers):
        self.params = params
        self.clock = clock
        self.workers = workers
        self.demand = {}
        self.epoch_demand = {}
        self.affinity = {}
        self.predicted = deque(maxlen=PREDICTION_WINDOW)
        self.shed = []
        self.migrations = 0
        self.epochs = 0
        self.batches_in_epoch = 0
        self.service_cycles = 0.0
        self.service_requests = 0

    def observe_batch(self, client, members, start, completion):
        cycles = completion - start
        self.demand[client] = self.demand.get(client, 0.0) + cycles
        self.epoch_demand[client] = \
            self.epoch_demand.get(client, 0.0) + cycles
        for request in members:
            self.predicted.append(completion - request.arrival)
        self.service_cycles += cycles
        self.service_requests += len(members)
        self.batches_in_epoch += 1

    def predicted_p99(self):
        if len(self.predicted) < MIN_PREDICTIONS:
            return None
        ordered = sorted(self.predicted)
        rank = (len(ordered) - 1) * 0.99
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    def predicted_latency(self, depth):
        if not self.service_requests:
            return None
        mean = self.service_cycles / self.service_requests
        return (depth + 1.0) * mean / self.workers

    def end_epoch(self, policy):
        self.epochs += 1
        self.batches_in_epoch = 0
        new_affinity = policy.rebalance(self, dict(self.epoch_demand))
        for client, slot in new_affinity.items():
            previous = self.affinity.get(client)
            if previous is not None and previous != slot:
                self.migrations += 1
        self.affinity = new_affinity
        self.epoch_demand = {}


class ObjectSchedPolicy:
    """Base (``static``) hooks over ``Request`` objects."""

    uses_epochs = False

    def admit(self, state, request, queue):
        params = state.params
        if params.max_queue and len(queue) >= params.max_queue:
            return REJECT
        return ADMIT

    def select(self, state, queue, slot):
        return 0

    def rebalance(self, state, epoch_demand):
        return state.affinity

    def _window(self, state, queue):
        return queue[:min(len(queue), state.params.batch_window)]

    def _fairest(self, state, window):
        return min(range(len(window)),
                   key=lambda i: (state.demand.get(window[i].client, 0.0),
                                  i))


class ObjectWeightedFairPolicy(ObjectSchedPolicy):
    def select(self, state, queue, slot):
        return self._fairest(state, self._window(state, queue))


class ObjectSloAdaptivePolicy(ObjectSchedPolicy):
    uses_epochs = True

    def admit(self, state, request, queue):
        params = state.params
        if params.max_queue and len(queue) >= params.max_queue:
            return REJECT
        target = params.slo_p99_cycles
        if target > 0.0:
            predicted = state.predicted_p99()
            estimate = state.predicted_latency(len(queue))
            if predicted is not None and predicted > target \
                    and estimate is not None and estimate > target:
                return SHED
        return ADMIT

    def select(self, state, queue, slot):
        window = self._window(state, queue)
        if state.affinity:
            mine = [i for i, request in enumerate(window)
                    if state.affinity.get(request.client) == slot]
            if mine:
                return mine[0]
        return 0

    def rebalance(self, state, epoch_demand):
        if state.workers <= 1:
            return {}
        load = [0.0] * state.workers
        affinity = {}
        ordered = sorted(epoch_demand,
                         key=lambda client: (-epoch_demand[client], client))
        for client in ordered:
            slot = min(range(state.workers), key=lambda w: (load[w], w))
            affinity[client] = slot
            load[slot] += epoch_demand[client]
        return affinity


OBJECT_POLICIES = {"static": ObjectSchedPolicy(),
                   "weighted_fair": ObjectWeightedFairPolicy(),
                   "slo_adaptive": ObjectSloAdaptivePolicy()}


def _take_batch(params, queue, head_index=0):
    """Pop the next batch's members off the queue."""
    head = queue[head_index]
    if params.batching == "client":
        members = [request for request in queue[:params.batch_window]
                   if request.client == head.client]
        members = members[:params.batch_limit]
    else:
        members = [head]
    for request in members:
        queue.remove(request)
    return members


def _object_is_static(policy):
    cls = type(policy)
    return (cls.admit is ObjectSchedPolicy.admit
            and cls.select is ObjectSchedPolicy.select
            and not policy.uses_epochs)


def _object_observe_batch(policy, state, client, members, start,
                          completion):
    state.observe_batch(client, members, start, completion)
    if policy.uses_epochs and \
            state.batches_in_epoch >= state.params.sched_epoch_batches:
        state.end_epoch(policy)


def _object_stream_plan(params, clock, policy, state):
    """The object-hook open loop over a pre-generated stream."""
    stream = stream_of(params)
    workers = max(1, params.workers)
    free = [0.0] * workers
    queue, batches, rejected = [], [], []
    iterations = 0
    position = 0

    def admit_until(now):
        nonlocal position
        while position < len(stream) and stream[position].arrival <= now:
            request = stream[position]
            position += 1
            verdict = policy.admit(state, request, queue)
            if verdict == REJECT:
                rejected.append(request)
            elif verdict == SHED:
                state.shed.append(request)
            else:
                queue.append(request)

    while position < len(stream) or queue:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        if not queue:
            now = max(now, stream[position].arrival)
        admit_until(now)
        if not queue:
            free[slot] = now
            continue
        index = policy.select(state, queue, slot)
        head = queue[index]
        members = _take_batch(params, queue, index)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(
            index=len(batches), client=head.client,
            requests=tuple(members), worker=slot))
        free[slot] = completion
        _object_observe_batch(policy, state, head.client, members, now,
                              completion)

    return plan_from_objects(params, batches, rejected,
                             loop_iterations=iterations)


def _object_closed_plan(params, clock, policy, state):
    """The object-hook closed feedback loop."""
    rng = random.Random(params.seed)
    workers = max(1, params.workers)
    free = [0.0] * workers
    pattern = pattern_by_name(params.pattern)
    rate = pattern.rate
    think = params.think_cycles
    read_fraction = params.read_fraction
    n_requests = params.n_requests
    expovariate = rng.expovariate
    random_draw = rng.random
    heappush, heappop = heapq.heappush, heapq.heappop
    observing = not _object_is_static(policy)
    pending = [(expovariate(rate(params, 0.0) / think), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    queue, batches, rejected = [], [], []
    issued = 0
    iterations = 0

    while True:
        iterations += 1
        if workers == 1:
            slot = 0
            now = free[0]
        else:
            slot = min(range(workers), key=free.__getitem__)
            now = free[slot]
        while pending and issued < n_requests and pending[0][0] <= now:
            ready, client = heappop(pending)
            request = Request(
                rid=issued, client=client, arrival=ready,
                is_write=random_draw() >= read_fraction)
            issued += 1
            verdict = policy.admit(state, request, queue)
            if verdict == REJECT or verdict == SHED:
                (rejected if verdict == REJECT else state.shed).append(
                    request)
                heappush(
                    pending,
                    (ready + expovariate(rate(params, ready) / think),
                     client))
            else:
                queue.append(request)
        if not queue:
            if issued >= n_requests or not pending:
                break
            free[slot] = max(now, pending[0][0])
            continue
        index = policy.select(state, queue, slot)
        head = queue[index]
        members = _take_batch(params, queue, index)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(
            index=len(batches), client=head.client,
            requests=tuple(members), worker=slot))
        free[slot] = completion
        lambd = rate(params, completion) / think
        for request in members:
            heappush(pending,
                     (completion + expovariate(lambd), request.client))
        if observing:
            _object_observe_batch(policy, state, head.client, members, now,
                                  completion)

    return plan_from_objects(params, batches, rejected,
                             loop_iterations=iterations)


def _object_plan(params, clock):
    """``build_plan`` as it dispatched before the columnar planner."""
    policy = OBJECT_POLICIES[params.sched_policy]
    state = ObjectSchedState(params, clock, max(1, params.workers))
    if params.arrival == "closed" and params.dispatch == "replay":
        plan = _object_closed_plan(params, clock, policy, state)
    else:
        plan = _object_stream_plan(params, clock, policy, state)
    return plan_from_objects(params, batches_of(plan), rejected_of(plan),
                             state.shed, migrations=state.migrations,
                             epochs=state.epochs,
                             loop_iterations=plan.loop_iterations)


class TestStaticBitIdentity:
    """``static`` (the default) must reproduce the legacy loop exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_plan_is_bit_identical(self, workers):
        params = replace(CHURN, workers=workers)
        current = build_plan(params)
        legacy = _legacy_stream_plan(params, NominalClock(params))
        assert batches_of(current) == batches_of(legacy)
        assert rejected_of(current) == rejected_of(legacy)
        assert current.loop_iterations == legacy.loop_iterations
        assert current.n_shed == 0 and current.migrations == 0 \
            and current.epochs == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_feedback_plan_is_bit_identical(self, workers):
        params = ServiceParams(n_clients=6, n_requests=120, workers=workers,
                               arrival="closed", dispatch="replay")
        clock = NominalClock(params)
        policy = policy_by_name("static")
        state = SchedState(params, clock, max(1, params.workers))
        current = _closed_feedback_plan(params, clock, policy, state)
        legacy = _legacy_closed_plan(params, clock)
        assert batches_of(current) == batches_of(legacy)
        assert rejected_of(current) == rejected_of(legacy)
        assert current.loop_iterations == legacy.loop_iterations
        assert current.n_shed == 0 and state.migrations == 0

    def test_default_policy_is_static(self):
        assert ServiceParams().sched_policy == "static"

    def test_static_elides_from_the_cache_identity(self):
        # The scheduler must not invalidate any pre-existing cached
        # trace: at defaults, none of its knobs appear in the identity.
        base = WorkloadSpec.service(n_clients=8, n_requests=80)
        explicit = WorkloadSpec.service(n_clients=8, n_requests=80,
                                        sched_policy="static",
                                        slo_p99_cycles=0.0,
                                        sched_epoch_batches=32)
        assert base.cache_key() == explicit.cache_key()
        changed = WorkloadSpec.service(n_clients=8, n_requests=80,
                                       sched_policy="weighted_fair")
        assert changed.cache_key() != base.cache_key()


def _assert_matches_object_plan(params, clock):
    """The columnar planner equals the object-hook oracle, and its row
    columns partition the offered stream."""
    plan = build_plan(params, clock=clock)
    oracle = _object_plan(params, clock)
    assert batches_of(plan) == batches_of(oracle)
    assert rejected_of(plan) == rejected_of(oracle)
    assert shed_of(plan) == shed_of(oracle)
    assert plan.loop_iterations == oracle.loop_iterations
    assert plan.epochs == oracle.epochs
    assert plan.migrations == oracle.migrations
    cols = plan.columns
    outcome = np.concatenate([cols.member_rows, cols.rejected_rows,
                              cols.shed_rows])
    assert sorted(outcome.tolist()) == list(range(len(cols.requests)))
    return plan


@st.composite
def _planner_cases(draw):
    """One (params, clock) cell across every planner branch."""
    closed = draw(st.booleans())
    params = ServiceParams(
        seed=draw(st.integers(0, 2**16)),
        n_clients=draw(st.integers(2, 12)),
        n_requests=draw(st.integers(40, 240)),
        arrival="closed" if closed else "open",
        dispatch="replay" if closed else "nominal",
        think_cycles=draw(st.sampled_from([2000.0, 20000.0])),
        interarrival_cycles=draw(st.sampled_from([60.0, 150.0, 300.0])),
        sched_policy=draw(st.sampled_from(
            ["static", "weighted_fair", "slo_adaptive"])),
        workers=draw(st.sampled_from([1, 2, 4])),
        batching=draw(st.sampled_from(["client", "none"])),
        max_queue=draw(st.sampled_from([0, 3, 8])),
        slo_p99_cycles=draw(st.sampled_from([0.0, 1000.0, 4000.0])),
        sched_epoch_batches=draw(st.integers(2, 8)))
    clock = NominalClock(params)
    if draw(st.booleans()):
        clock = CalibratedClock("probe",
                                draw(st.floats(0.0, 2000.0)),
                                draw(st.floats(100.0, 800.0)))
    return params, clock


class TestPlannerOracle:
    """The columnar planner against the object-hook oracle above."""

    @settings(max_examples=200, deadline=None)
    @given(_planner_cases())
    def test_planner_equals_object_oracle(self, case):
        _assert_matches_object_plan(*case)

    @pytest.mark.parametrize("arrival", ["open", "closed"])
    def test_control_loop_engaged_case(self, arrival):
        # A fixed cell where every actuation point fires, so the
        # differential test above cannot pass vacuously.
        params = replace(CHURN, sched_policy="slo_adaptive",
                         sched_epoch_batches=8, slo_p99_cycles=1000.0,
                         max_queue=8, interarrival_cycles=60.0,
                         think_cycles=960.0, arrival=arrival,
                         dispatch="replay" if arrival == "closed"
                         else "nominal")
        plan = _assert_matches_object_plan(params, NominalClock(params))
        assert plan.n_shed > 0 and plan.n_rejected > 0
        assert plan.epochs > 0 and plan.migrations > 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3).map(float),
                              st.floats(0.0, 1e6)),
                    min_size=PREDICTION_WINDOW + 1,
                    max_size=3 * PREDICTION_WINDOW),
           st.integers(1, 9))
    def test_sorted_window_matches_sorted_deque(self, latencies, size):
        # A few recurring values force ties among unique ones, and past
        # PREDICTION_WINDOW samples every push evicts one of them.
        params = ServiceParams()
        state = SchedState(params, NominalClock(params), 1)
        for at in range(0, len(latencies), size):
            chunk = latencies[at:at + size]
            state.observe_batch(0, [-x for x in chunk], 0.0, 0.0)
            assert len(state.predicted) <= PREDICTION_WINDOW
            assert state.ordered == sorted(state.predicted)
            oracle = ObjectSchedState(params, state.clock, 1)
            oracle.predicted.extend(state.predicted)
            assert state.predicted_p99() == oracle.predicted_p99()


class TestRegistry:
    def test_builtin_roster(self):
        assert policy_names() == ["slo_adaptive", "static", "weighted_fair"]

    def test_unknown_policy_lists_the_roster(self):
        with pytest.raises(KeyError, match="static"):
            policy_by_name("fifo")

    def test_params_validate_the_policy(self):
        with pytest.raises(ValueError, match="static"):
            ServiceParams(sched_policy="fifo")

    def test_params_validate_the_slo(self):
        with pytest.raises(ValueError):
            ServiceParams(slo_p99_cycles=-1.0)
        with pytest.raises(ValueError):
            ServiceParams(sched_epoch_batches=0)


class TestRebalancingConservation:
    """Migrations move work between slots; they never create, destroy,
    or duplicate it."""

    @pytest.fixture(scope="class")
    def plan(self):
        params = replace(CHURN, sched_policy="slo_adaptive",
                         sched_epoch_batches=8)
        return build_plan(params)

    def test_control_loop_actually_ran(self, plan):
        assert plan.epochs > 0
        assert plan.migrations > 0

    def test_requests_partition_exactly(self, plan):
        offered = stream_of(plan.params)
        outcome = [r.rid for b in batches_of(plan) for r in b.requests]
        outcome += [r.rid for r in rejected_of(plan)]
        outcome += [r.rid for r in shed_of(plan)]
        assert sorted(outcome) == [r.rid for r in offered]

    def test_batches_keep_the_window_discipline(self, plan):
        # Reordering picks *which* client is served, never mixes
        # clients inside one permission window.
        for batch in batches_of(plan):
            assert len({r.client for r in batch.requests}) == 1
            assert batch.client == batch.requests[0].client
            assert 0 <= batch.worker < plan.params.workers

    def test_replayed_busy_cycles_are_conserved(self, plan):
        # The rebalanced plan replays like any other: per-slot busy
        # cycles sum to the whole trace's inter-mark service time.
        trace, _ = generate_service_trace(plan.params)
        marks = batch_boundaries(trace)
        stats = replay_one(trace, "mpk_virt", marks=marks)
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        deltas, previous = [], 0.0
        for cycle in stats.mark_cycles:
            deltas.append(cycle - previous)
            previous = cycle
        assert sum(summary.worker_busy.values()) == \
            pytest.approx(sum(deltas))
        assert summary.n_served == plan.n_served
        assert summary.n_shed == len(plan.shed)


class TestAccounting:
    @pytest.fixture(scope="class")
    def summary(self):
        params = ServiceParams(n_clients=8, n_requests=160,
                               slo_p99_cycles=6000.0)
        plan = build_plan(params)
        trace, _ = generate_service_trace(params)
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        return account(plan, trace, stats, frequency_hz=FREQ)

    def test_attainment_is_monotone_in_the_target(self, summary):
        sched = summary.sched
        targets = [1.0, 500.0, 2000.0, 6000.0, 20000.0, 1e9]
        values = [sched.attainment_at(t) for t in targets]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_no_target_means_full_attainment(self, summary):
        assert summary.sched.attainment_at(0.0) == 1.0
        assert summary.sched.attainment_at(-1.0) == 1.0

    def test_fairness_stays_in_jain_bounds(self, summary):
        n = len(summary.sched.clients)
        assert n > 1
        assert 1.0 / n <= summary.fairness <= 1.0

    def test_jain_index_extremes(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([]) == 1.0

    def test_summary_dict_carries_the_sched_block(self, summary):
        payload = summary.to_dict()
        assert payload["shed"] == summary.n_shed
        sched = payload["sched"]
        assert set(sched["per_client"]) == \
            {str(client) for client in summary.sched.clients}
        assert 0.0 <= sched["slo_attainment"] <= 1.0


class TestTenantProfiles:
    def test_classes_partition_the_tenants(self):
        params = replace(CHURN, workers=1)
        plan = build_plan(params)
        trace, _ = generate_service_trace(params)
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        profiles = profile_tenants(plan, summary.sched, summary.wall_cycles)
        assert profiles
        for profile in profiles:
            classes = set(profile.classes)
            # Exactly one of each opposed pair.
            assert len(classes & {"hot", "long_tail"}) == 1
            assert len(classes & {"read_heavy", "write_heavy"}) == 1
        assert any("hot" in p.classes for p in profiles)
        assert any("long_tail" in p.classes for p in profiles)

    @pytest.mark.parametrize("arrival", ["open", "closed"])
    def test_columns_equal_the_object_walk(self, arrival):
        # An overloaded adaptive cell that both rejects and sheds, so
        # every store-row kind feeds the per-client counts.
        params = replace(CHURN, sched_policy="slo_adaptive",
                         sched_epoch_batches=8, slo_p99_cycles=1000.0,
                         max_queue=8, interarrival_cycles=60.0,
                         think_cycles=960.0, arrival=arrival,
                         dispatch="replay" if arrival == "closed"
                         else "nominal")
        plan = build_plan(params, clock=NominalClock(params))
        assert plan.n_rejected > 0 and plan.n_shed > 0
        workload = ServiceWorkload(params)
        workload.serve(plan)
        trace = workload.finish()
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        profiles = profile_tenants(plan, summary.sched, summary.wall_cycles)
        assert profiles == objects.profile_tenants(plan, summary.sched,
                                                   summary.wall_cycles)
        assert sum(p.offered for p in profiles) == params.n_requests
        assert any(p.shed for p in profiles)


class TestJobsDeterminism:
    def test_summaries_invariant_under_repro_jobs(self, tmp_path,
                                                  monkeypatch):
        spec = WorkloadSpec.service(n_clients=8, n_requests=120, workers=2,
                                    pattern="churn",
                                    sched_policy="slo_adaptive",
                                    slo_p99_cycles=8000.0)

        def run(jobs):
            monkeypatch.setenv("REPRO_JOBS", str(jobs))
            TraceCache.clear_memory()
            engine = Engine(cache=TraceCache(tmp_path / f"jobs{jobs}"))
            row = summaries_for_spec(ExperimentRunner(engine=engine),
                                     spec, ["mpkv", "dv"])
            return {name: summary.to_dict()
                    for name, summary in row.items()}

        try:
            assert run(1) == run(4)
        finally:
            TraceCache.clear_memory()


class TestSloChurnScenario:
    def test_adaptive_strictly_beats_static_for_keyed_schemes(self,
                                                              tmp_path):
        # The PR's acceptance bar, on the smoke-sized grid: the SLO
        # valve must strictly improve attainment for the schemes churn
        # punishes, while static stays the baseline.
        compiled = compile_scenario(find_scenario("slo_churn"), smoke=True)
        engine = Engine(cache=TraceCache(tmp_path / "traces"))
        try:
            outcomes = serve_compiled(compiled,
                                      runner=ExperimentRunner(engine=engine))
        finally:
            TraceCache.clear_memory()
        attainment = {}
        for cell, summaries in outcomes:
            policy = cell.spec.params.sched_policy
            for name, summary in summaries.items():
                if summary is not None:
                    attainment[(policy, name)] = summary.slo_attainment
        for name in ("mpkv", "libmpk"):
            assert attainment[("slo_adaptive", name)] > \
                attainment[("static", name)], name


class TestCli:
    def test_unknown_policy_lists_the_roster(self, capsys):
        code = service_main(["--policy", "nosuch", "--clients", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "static" in err and "slo_adaptive" in err

    def test_unknown_arrival_pattern_lists_the_roster(self, capsys):
        code = service_main(["--arrivals", "nosuch", "--clients", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "waves" in err and "churn" in err

    def test_negative_slo_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            service_main(["--slo", "-5"])
