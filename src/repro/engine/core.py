"""The experiment engine: jobs in, statistics out.

:class:`Engine` is the facade the experiment drivers run on.  It ties
the three layers together:

* the declarative job model (:mod:`repro.engine.job`),
* the persistent trace cache (:mod:`repro.engine.cache`), and
* the parallel executor (:mod:`repro.engine.executor`).

A driver describes what it wants as :class:`WorkloadSpec`s and scheme
names; the engine warms the trace cache (generating only what no cache
layer has), resolves each spec to its trace, and hands the resulting
:class:`ReplayJob` cells to :func:`replay_cells` — the one runner every
replay entry point, :func:`repro.sim.simulator.replay_trace` included,
goes through.  It fans the jobs over workers and regroups the
:class:`RunStats` per cell with ``baseline_cycles`` wired up.

The engine also hosts a small result-memoization table
(:meth:`memoize`) so expensive derived results (the Figure 6 sweep) can
be shared between drivers without private-attribute hacks.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from .. import obs
from ..cpu.trace import Trace
from ..sim.config import DEFAULT_CONFIG, SimConfig
from ..sim.stats import RunStats
from .cache import CacheStats, TraceCache
from .executor import parallel_map, replay_jobs, worker_count
from .job import ReplayJob, WorkloadSpec

BASELINE = "baseline"


def replay_cells(cells: Sequence[Sequence[ReplayJob]], *,
                 jobs: Optional[int] = None) -> List[Dict[str, RunStats]]:
    """The one replay runner: fan every cell's jobs out as one batch.

    A cell is the jobs of one trace, one per scheme.  Returns one
    ``scheme -> RunStats`` dict per cell, in order; when a cell holds a
    baseline job, every other job's ``baseline_cycles`` is wired from it.
    """
    stats = iter(replay_jobs([job for cell in cells for job in cell],
                             jobs=jobs))
    results: List[Dict[str, RunStats]] = []
    for cell in cells:
        result = {job.scheme: next(stats) for job in cell}
        baseline = result.get(BASELINE)
        if baseline is not None:
            for name, stat in result.items():
                if name != BASELINE:
                    stat.baseline_cycles = baseline.cycles
        results.append(result)
    return results


def with_baseline(schemes: Iterable[str]) -> Tuple[str, ...]:
    """``baseline`` first, then each named scheme once."""
    return (BASELINE, *(name for name in dict.fromkeys(schemes)
                        if name != BASELINE))


class Engine:
    """Generates traces through the cache and replays scheme grids."""

    def __init__(self, config: Optional[SimConfig] = None, *,
                 cache: Optional[TraceCache] = None,
                 jobs: Optional[int] = None):
        self.config = config or DEFAULT_CONFIG
        self.cache = cache if cache is not None else TraceCache()
        self.jobs = jobs  # None -> REPRO_JOBS at call time
        #: Traces this engine currently holds alive (spec key -> Trace).
        self._live: Dict[str, Trace] = {}
        #: Derived-result memo table (see :meth:`memoize`).
        self._memo: Dict[Hashable, object] = {}

    # -- cache plumbing ---------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def trace_generations(self) -> int:
        """Traces actually generated (not served from a cache layer)."""
        return self.cache.stats.generations

    def _report_cache_delta(self, snapshot: CacheStats) -> None:
        """Report cache activity since ``snapshot`` (obs).

        Replay workers never open the cache (their jobs carry resolved
        traces), so this covers every request: warm and trace_for.
        """
        registry = obs.metrics()
        if registry is not None:
            self.cache.stats.delta(snapshot).report_metrics(registry)

    # -- traces ---------------------------------------------------------------------

    def trace_for(self, spec: WorkloadSpec) -> Trace:
        """The trace for ``spec`` — cached layers first, generated last.

        Repeated calls return the identical object until
        :meth:`release`.
        """
        key = spec.cache_key()
        trace = self._live.get(key)
        if trace is None:
            snapshot = self.cache.stats.copy()
            trace = self.cache.get_or_generate(spec)
            self._live[key] = trace
            self._report_cache_delta(snapshot)
        return trace

    def release(self, spec: WorkloadSpec) -> None:
        """Drop a trace from the in-process layers (disk copy stays)."""
        self._live.pop(spec.cache_key(), None)
        TraceCache.drop_memory(spec)

    def warm(self, specs: Sequence[WorkloadSpec]) -> None:
        """Ensure every spec's trace is in the in-process cache.

        Missing traces are generated — in parallel across specs when the
        disk layer is on and ``REPRO_JOBS`` allows it (workers inherit
        the results back through pickling), serially otherwise.
        """
        snapshot = self.cache.stats.copy()
        try:
            unique: Dict[str, WorkloadSpec] = {}
            for spec in specs:
                unique.setdefault(spec.cache_key(), spec)
            missing = [
                spec for spec in unique.values()
                if self.cache.get_or_generate(spec, generate=False) is None]
            if not missing:
                return
            n = worker_count(self.jobs)
            if n > 1 and len(missing) > 1:
                def generate(spec: WorkloadSpec):
                    before = self.cache.stats.generations
                    trace = self.cache.get_or_generate(spec)
                    return trace, self.cache.stats.generations - before

                warmed = parallel_map(generate, missing, jobs=n)
                for spec, (trace, generations) in zip(missing, warmed):
                    self.cache.seed(spec, trace)
                    self.cache.stats.generations += generations
            else:
                for spec in missing:
                    self.cache.get_or_generate(spec)
        finally:
            self._report_cache_delta(snapshot)

    # -- replay --------------------------------------------------------------------

    def _spec_jobs(self, spec: WorkloadSpec, schemes: Iterable[str],
                   config: SimConfig,
                   marks: Optional[Sequence[int]] = None) -> List[ReplayJob]:
        """One cell: ``spec``'s (warmed) trace under each scheme."""
        trace = self.trace_for(spec)
        if marks is not None:
            marks = tuple(int(mark) for mark in marks)
        return [ReplayJob(trace=trace, scheme=name, config=config,
                          marks=marks, label=spec.label)
                for name in schemes]

    def replay_grid(self, cells: Sequence[Tuple[WorkloadSpec, SimConfig]],
                    schemes: Iterable[str], *,
                    include_baseline: bool = True
                    ) -> List[Dict[str, RunStats]]:
        """Replay every (spec, config) cell under the baseline + schemes.

        Returns one ``scheme -> RunStats`` dict per cell, in order; the
        whole (cell x scheme) job grid fans out over the executor.
        """
        names = with_baseline(schemes)
        self.warm([spec for spec, _ in cells])
        results = replay_cells(
            [self._spec_jobs(spec, names, config) for spec, config in cells],
            jobs=self.jobs)
        if not include_baseline:
            for cell in results:
                del cell[BASELINE]
        return results

    def replay(self, spec: WorkloadSpec, schemes: Iterable[str],
               config: Optional[SimConfig] = None, *,
               include_baseline: bool = True) -> Dict[str, RunStats]:
        """Replay one spec under the baseline plus each named scheme."""
        return self.replay_grid([(spec, config or self.config)], schemes,
                                include_baseline=include_baseline)[0]

    def replay_marked(self, spec: WorkloadSpec, schemes: Iterable[str],
                      marks: Sequence[int],
                      config: Optional[SimConfig] = None, *,
                      include_baseline: bool = True) -> Dict[str, RunStats]:
        """Replay one spec with elapsed-cycle snapshots at ``marks``.

        Same contract as :meth:`replay`, but every returned
        :class:`RunStats` additionally carries ``mark_cycles`` — the
        cycle clock at each marked event index.  The service layer uses
        this to turn one replay into per-batch completion times.
        """
        self.warm([spec])
        cell = replay_cells(
            [self._spec_jobs(spec, with_baseline(schemes),
                             config or self.config, marks)],
            jobs=self.jobs)[0]
        if not include_baseline:
            del cell[BASELINE]
        return cell

    def replay_shards(self, shards: Sequence, schemes: Iterable[str],
                      config: Optional[SimConfig] = None, *,
                      include_baseline: bool = True
                      ) -> Dict[str, List[RunStats]]:
        """Replay per-worker trace shards — one simulated core each.

        ``shards`` is the slot-ordered output of
        :func:`repro.service.shard.shard_by_worker`; every scheme (plus
        the baseline) replays every shard with that shard's own marks,
        and the whole (shard x scheme) grid fans out over the fork
        executor — a 64-worker service run is a 64-way parallel replay.
        Returns ``scheme -> [RunStats per slot, slot order]`` with each
        shard's ``baseline_cycles`` wired from the same slot's baseline
        replay.  Schemes see ``n_cores = len(shards)``, which is what
        turns MPKV/libmpk key-remap invalidations into attributed
        cross-core shootdown broadcasts (``docs/MULTICORE.md``).
        """
        config = config or self.config
        shards = list(shards)
        names = with_baseline(schemes)
        cells = replay_cells(
            [[ReplayJob(trace=shard.trace, scheme=name, config=config,
                        marks=tuple(int(m) for m in shard.marks),
                        n_cores=len(shards), label=shard.trace.label)
              for name in names]
             for shard in shards],
            jobs=self.jobs)
        return {name: [cell[name] for cell in cells]
                for name in names if include_baseline or name != BASELINE}

    def replay_marked_keyed(self, spec: WorkloadSpec,
                            schemes: Iterable[str],
                            config: Optional[SimConfig] = None, *,
                            include_baseline: bool = True
                            ) -> Dict[str, RunStats]:
        """Scheme-keyed marked replay: one spec *variant* per scheme.

        ``dispatch="replay"`` service runs schedule per scheme, so each
        scheme replays its own ``spec.keyed(scheme)`` trace with marks
        derived from *that* trace's batch boundaries.  With
        ``include_baseline`` every variant is additionally replayed
        under the baseline scheme (on the variant's own schedule) to
        wire up ``baseline_cycles``; unlike :meth:`replay_marked` there
        is no shared ``"baseline"`` entry in the result — each scheme's
        baseline belongs to its own schedule.
        """
        from ..service.server import batch_boundaries
        config = config or self.config
        names = list(dict.fromkeys(schemes))
        variants = [spec.keyed(name) for name in names]
        self.warm(variants)
        cells = []
        for name, vspec in zip(names, variants):
            pair = (BASELINE, name) if include_baseline and \
                name != BASELINE else (name,)
            cells.append(self._spec_jobs(
                vspec, pair, config, batch_boundaries(self.trace_for(vspec))))
        results = replay_cells(cells, jobs=self.jobs)
        out: Dict[str, RunStats] = {}
        for name, result in zip(names, results):
            if name == BASELINE:
                # A baseline variant is its own denominator.
                result[BASELINE].baseline_cycles = result[BASELINE].cycles
            out[name] = result[name]
        return out

    # -- derived-result memoization ---------------------------------------------------

    def memoize(self, key: Hashable, producer: Callable[[], object]):
        """Compute-once storage for expensive derived results.

        ``producer()`` runs only the first time ``key`` is seen on this
        engine; later calls return the stored value.  Used by the
        Figure 6 sweep so Figure 7 / Table VII reuse its data.
        """
        if key not in self._memo:
            self._memo[key] = producer()
        return self._memo[key]
