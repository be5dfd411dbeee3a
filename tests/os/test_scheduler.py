"""Tests for the round-robin scheduler and multi-threaded traces."""

import pytest

from repro.permissions import Perm
from repro.cpu import trace as tr
from repro.errors import SimulationError
from repro.os.scheduler import RoundRobinScheduler
from repro.sim.simulator import replay_trace
from repro.workloads.base import PerOpPolicy, UnprotectedPolicy, Workspace


def make_ws():
    ws = Workspace(UnprotectedPolicy(), seed=5)
    pool = ws.create_and_attach("p", 8 << 20)
    return ws, pool


class TestScheduling:
    def test_all_tasks_run_to_completion(self):
        ws, _ = make_ws()
        sched = RoundRobinScheduler(ws, quantum=3)

        def task(thread):
            def body():
                for _ in range(10):
                    yield
            return body()

        t1 = sched.spawn(task)
        t2 = sched.spawn(task)
        executed = sched.run()
        assert executed == {t1.tid: 10, t2.tid: 10}

    def test_quantum_bounds_consecutive_steps(self):
        ws, pool = make_ws()
        sched = RoundRobinScheduler(ws, quantum=2)
        order = []

        def task(thread):
            def body():
                for _ in range(4):
                    order.append(thread.tid)
                    yield
            return body()

        a = sched.spawn(task)
        b = sched.spawn(task)
        sched.run()
        assert order == [a.tid, a.tid, b.tid, b.tid,
                         a.tid, a.tid, b.tid, b.tid]

    def test_ctxsw_events_recorded(self):
        ws, _ = make_ws()
        sched = RoundRobinScheduler(ws, quantum=1)

        def task(thread):
            def body():
                yield
                yield
            return body()

        sched.spawn(task)
        sched.spawn(task)
        sched.run()
        trace = ws.finish()
        assert trace.counts().get("ctxsw", 0) == sched.switches
        assert sched.switches >= 3

    def test_uneven_task_lengths(self):
        ws, _ = make_ws()
        sched = RoundRobinScheduler(ws, quantum=2)

        def make(n):
            def task(thread):
                def body():
                    for _ in range(n):
                        yield
                return body()
            return task

        short = sched.spawn(make(1))
        long = sched.spawn(make(9))
        executed = sched.run()
        assert executed[short.tid] == 1
        assert executed[long.tid] == 9

    def test_empty_scheduler_rejected(self):
        ws, _ = make_ws()
        with pytest.raises(SimulationError):
            RoundRobinScheduler(ws).run()

    def test_bad_quantum_rejected(self):
        ws, _ = make_ws()
        with pytest.raises(ValueError):
            RoundRobinScheduler(ws, quantum=0)


class TestMultiThreadedReplay:
    def test_interleaved_threads_replay_cleanly(self):
        """Two threads with private write windows, interleaved by the
        scheduler, replay without faults under every scheme — and the
        shootdown cost scales with the thread count."""
        ws = Workspace(PerOpPolicy(), seed=9)
        pools = [ws.create_and_attach(f"p{i}", 1 << 20) for i in range(24)]
        sched = RoundRobinScheduler(ws, quantum=2)

        def worker(thread):
            def body():
                rng = ws.rng
                for _ in range(30):
                    pool = pools[rng.randrange(len(pools))]
                    oid = pool.pool.pmalloc(64)
                    with ws.operation(thread.tid):
                        ws.mem.write_u64(oid, 0, thread.tid, tid=thread.tid)
                    yield
            return body()

        sched.spawn(worker, ws.process.main_thread)
        sched.spawn(worker)
        # Per-op policy granted R at attach only for then-existing threads;
        # grant the second thread read access too.
        for pool in pools:
            ws.recorder.init_perm(ws.process.threads[1].tid, pool.domain,
                                  Perm.R)
        sched.run()
        trace = ws.finish()
        results = replay_trace(
            trace, ("mpk_virt", "domain_virt", "libmpk"))
        for name in ("mpk_virt", "domain_virt", "libmpk"):
            assert results[name].protection_faults == 0
            assert results[name].context_switches == sched.switches
