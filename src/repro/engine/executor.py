"""Parallel execution of replay jobs over ``multiprocessing`` workers.

Scheme replays are embarrassingly parallel once contexts are isolated
(:mod:`repro.engine.context`): each worker rebuilds private state from
the trace layout, so serial and parallel execution produce bit-identical
:class:`~repro.sim.stats.RunStats`.

Worker count comes from ``REPRO_JOBS`` (default 1 = serial).  Workers
are started with the ``fork`` method and inherit the work list by
reference: only an item index goes down the pipe and only results are
pickled back.  Platforms without ``fork`` fall back to serial execution
rather than re-shipping traces.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pathlib
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .. import obs
from ..sim.stats import RunStats
from .job import ReplayJob

ENV_JOBS = "REPRO_JOBS"
ENV_PROFILE = "REPRO_PROFILE"

#: Distinguishes pstats files of jobs replayed by the same process.
_PROFILE_SEQ = itertools.count()

T = TypeVar("T")
R = TypeVar("R")


def worker_count(override: Optional[int] = None) -> int:
    """Resolve the replay worker count (``REPRO_JOBS``, default 1)."""
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get(ENV_JOBS, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def profile_dir(override: Optional[str] = None) -> Optional[pathlib.Path]:
    """Resolve the replay-profiling sink (``REPRO_PROFILE``).

    Off by default; a truthy value dumps one cProfile ``.pstats`` file
    per replay job into ``profiles/`` (or into the directory named by
    the value when it is a path rather than a plain on/off flag).
    """
    raw = override if override is not None else \
        os.environ.get(ENV_PROFILE, "")
    raw = raw.strip()
    if not raw or raw.lower() in ("0", "false", "off", "no"):
        return None
    if raw.lower() in ("1", "true", "on", "yes"):
        return pathlib.Path("profiles")
    return pathlib.Path(raw)


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


#: ``(fn, items)`` of the :func:`parallel_map` call in flight.  Set
#: before the pool forks, so every worker inherits it and receives only
#: item indices.
_FORK_WORK: Optional[Tuple[Callable, Sequence]] = None


def _call_forked(index: int):
    fn, items = _FORK_WORK
    return fn(items[index])


def parallel_map(fn: Callable[[T], R], items: Sequence[T], *,
                 jobs: Optional[int] = None) -> List[R]:
    """``map(fn, items)`` over ``jobs`` forked workers (serial if 1).

    Neither ``fn`` nor the items are pickled: the workers inherit them
    from the parent at fork time.  Only the results travel back.
    """
    global _FORK_WORK
    items = list(items)
    n = worker_count(jobs)
    if n <= 1 or len(items) <= 1 or not _fork_available():
        return [fn(item) for item in items]
    # Flush buffered telemetry before forking: children inherit the
    # parent's event buffer and would re-write its pending records.
    ev = obs.active_events()
    if ev is not None:
        ev.flush()
    ctx = multiprocessing.get_context("fork")
    _FORK_WORK = (fn, items)
    try:
        with ctx.Pool(processes=min(n, len(items))) as pool:
            return pool.map(_call_forked, range(len(items)))
    finally:
        _FORK_WORK = None


def _run_job(job: ReplayJob) -> RunStats:
    """Execute one replay job (the worker entry point).

    ``REPRO_PROFILE`` dumps one cProfile ``.pstats`` file per job.  With
    observability on, the job's wall/CPU time is folded into the
    returned ``RunStats.metrics`` so the parent can merge it across
    workers (fork ships nothing back but the pickled result).
    """
    from .context import replay_one
    ev = obs.active_events()
    if ev is not None:
        ev.emit("job.replay", label=job.label, scheme=job.scheme)
    prof_dir = profile_dir()
    profile = None
    if prof_dir is not None:
        import cProfile
        profile = cProfile.Profile()
        profile.enable()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        stats = replay_one(job.trace, job.scheme, job.config,
                           marks=job.marks, n_cores=job.n_cores)
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if profile is not None:
            profile.disable()
            prof_dir.mkdir(parents=True, exist_ok=True)
            # Shard labels read "<trace>/shard<N>"; keep one flat dir.
            name = job.label.replace("/", "_")
            path = prof_dir / (f"{name}-{job.scheme}-"
                               f"{os.getpid()}-{next(_PROFILE_SEQ)}.pstats")
            profile.dump_stats(path)
            if ev is not None:
                ev.emit("job.profile", label=job.label, scheme=job.scheme,
                        path=str(path))
    if not obs.enabled():
        return stats
    registry = obs.MetricsRegistry()
    if stats.metrics:
        registry.merge(stats.metrics)
    registry.counter("engine.jobs.completed").inc()
    registry.histogram("engine.job.wall_s").observe(wall)
    registry.histogram("engine.job.cpu_s").observe(cpu)
    stats.metrics = registry.as_dict()
    if ev is not None:
        ev.emit("job.done", label=job.label, scheme=job.scheme,
                wall_s=round(wall, 6), cpu_s=round(cpu, 6))
        ev.flush()
    return stats


def _merge_batch_metrics(results: Sequence[RunStats], elapsed: float,
                         workers: int) -> None:
    """Fold per-job worker metrics into the parent's global registry."""
    registry = obs.metrics()
    if registry is None:
        return
    busy = 0.0
    for stats in results:
        if stats.metrics:
            registry.merge(stats.metrics)
            wall = stats.metrics.get("histograms", {}).get("engine.job.wall_s")
            if wall:
                busy += wall.get("sum", 0.0)
    registry.gauge("engine.workers").set(float(workers))
    if elapsed > 0 and workers > 0:
        registry.gauge("engine.worker.utilization").set(
            min(1.0, busy / (elapsed * workers)))
    ev = obs.active_events()
    if ev is not None:
        ev.report_metrics(registry)
        ev.flush()


def replay_jobs(jobs_list: Sequence[ReplayJob], *,
                jobs: Optional[int] = None) -> List[RunStats]:
    """Run a batch of replay jobs, fanning out over workers.

    Emits one ``job.submit`` event per job; results come back in job
    order, and per-job obs metrics merge into the parent registry.
    """
    jobs_list = list(jobs_list)
    ev = obs.active_events()
    if ev is not None:
        for job in jobs_list:
            ev.emit("job.submit", label=job.label, scheme=job.scheme)
    wall0 = time.perf_counter()
    results = parallel_map(_run_job, jobs_list, jobs=jobs)
    _merge_batch_metrics(results, time.perf_counter() - wall0,
                         worker_count(jobs))
    return results
