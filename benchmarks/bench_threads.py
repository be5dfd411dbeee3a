"""Thread-count scaling: the shootdown bill grows with threads.

Section V: a key remap must invalidate stale TLB entries on every core
running a thread of the process, so MPK virtualization's invalidation
cost is 286 cycles x number_of_threads — while domain virtualization has
no shootdowns at all.  This bench sweeps 1/2/4 worker threads over the
same operation budget and reports each scheme's overhead.
"""

from repro.experiments.reporting import format_table
from repro.sim.simulator import (MULTI_PMO_SCHEMES, overhead_over_lowerbound,
                                 replay_trace, viable_schemes)
from repro.workloads.micro import MicroParams, generate_micro_trace

SCHEMES = ("libmpk", "mpk_virt", "domain_virt")


def test_thread_scaling(benchmark, save_report):
    def run():
        rows = []
        invalidation_cycles = {}
        for threads in (1, 2, 4):
            params = MicroParams(benchmark="avl", n_pools=256,
                                 operations=1200, threads=threads)
            trace, ws = generate_micro_trace(params)
            results = replay_trace(trace,
                                   viable_schemes(MULTI_PMO_SCHEMES, 256))
            rows.append(
                [f"{threads} thread(s)"]
                + [overhead_over_lowerbound(results, s) for s in SCHEMES])
            stats = results["mpk_virt"]
            invalidation_cycles[threads] = (
                stats.buckets["tlb_invalidations"], stats.evictions)
        return rows, invalidation_cycles

    rows, invalidations = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("thread_scaling", format_table(
        "Thread scaling (AVL, 256 PMOs, % over lowerbound)",
        ["Variant"] + list(SCHEMES), rows))

    # Per-eviction shootdown cost must scale ~linearly with threads.
    per_eviction = {t: cycles / max(evictions, 1)
                    for t, (cycles, evictions) in invalidations.items()}
    assert per_eviction[2] > 1.8 * per_eviction[1]
    assert per_eviction[4] > 3.5 * per_eviction[1]
    # DV stays flat: its overhead must not grow with the thread count
    # anywhere near MPKV's growth.
    dv = [row[3] for row in rows]
    mpkv = [row[2] for row in rows]
    assert mpkv[2] / mpkv[0] > dv[2] / dv[0]
