"""High-level simulation API: generate a trace once, replay per scheme.

The paper's methodology is two-phase (Section V): obtain one Pin trace of
the instrumented program, then re-execute it in the simulator once per
evaluated scheme.  :func:`replay_trace` mirrors that: the baseline
(unprotected) replay establishes the denominator, then each scheme replays
the *same* trace and records its overhead buckets.

Every scheme replays in an **isolated context**: a private
kernel/process/page-table rebuilt from the trace's recorded layout
(:mod:`repro.engine.context`; every trace produced by
``Workspace.finish`` since format v2 carries one), so replays are
order-independent and fan out over ``REPRO_JOBS`` worker processes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.schemes import schemes_tagged, supports_domain_count
from ..cpu.trace import Trace
from .config import DEFAULT_CONFIG, SimConfig
from .stats import RunStats

#: The schemes of the multi-PMO evaluation (Figure 6/7, Table VII),
#: derived from the scheme registry's ``multi_pmo`` tag ranks — a
#: plugin scheme tagged ``multi_pmo`` joins every multi-PMO experiment
#: without touching this module.
MULTI_PMO_SCHEMES = schemes_tagged("multi_pmo")
#: The schemes of the single-PMO evaluation (Table V), from the
#: ``single_pmo`` tag.
SINGLE_PMO_SCHEMES = schemes_tagged("single_pmo")


def viable_schemes(schemes: Iterable[str], n_domains: int) -> tuple:
    """The subset of ``schemes`` that can attach ``n_domains`` domains.

    Hard-limited schemes (descriptor ``collapse="fault"``, e.g. ``erim``)
    fault past their key space; sweeps beyond it filter them here and
    report the wall instead of crashing mid-grid.
    """
    return tuple(name for name in schemes
                 if supports_domain_count(name, n_domains))


def replay_trace(trace: Trace, schemes: Iterable[str] = MULTI_PMO_SCHEMES,
                 config: Optional[SimConfig] = None,
                 *, include_baseline: bool = True,
                 jobs: Optional[int] = None) -> Dict[str, RunStats]:
    """Replay one trace under the baseline plus each named scheme.

    Returns scheme name → :class:`RunStats`; every non-baseline result has
    ``baseline_cycles`` filled in so ``overhead_percent()`` works.  The
    schemes replay concurrently over ``jobs`` workers (default:
    ``REPRO_JOBS``).
    """
    from ..engine.core import BASELINE, replay_cells, with_baseline
    from ..engine.job import ReplayJob
    config = config or DEFAULT_CONFIG
    results = replay_cells(
        [[ReplayJob(trace=trace, scheme=name, config=config,
                    label=trace.label)
          for name in with_baseline(schemes)]], jobs=jobs)[0]
    if not include_baseline:
        del results[BASELINE]
    return results


def overhead_over_lowerbound(results: Dict[str, RunStats],
                             scheme: str) -> float:
    """Figure 6's y-axis: overhead% of a scheme relative to the lowerbound.

    ``(T_scheme - T_lowerbound) / T_lowerbound * 100`` over the same trace.
    """
    lower = results["lowerbound"].cycles
    return 100.0 * (results[scheme].cycles - lower) / lower
