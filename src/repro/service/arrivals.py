"""Arrival plugins: rate patterns and loop disciplines.

Two registries govern *when* service requests arrive:

* **disciplines** (``params.arrival``) — how the stream is produced:
  ``open`` (rate-driven Poisson process) and ``closed`` (one
  outstanding request per client) are built in, registered by
  :mod:`repro.service.traffic`;
* **patterns** (``params.pattern``) — how the offered rate (and, for
  patterns that model tenant churn, the *connected client set*) varies
  over time.  ``poisson``, ``burst``, ``diurnal`` and ``churn`` are
  built in, defined here.

A pattern plugin subclasses :class:`ArrivalPattern`:

* :meth:`~ArrivalPattern.rate` — the instantaneous offered-rate
  multiplier (1.0 = the stationary rate).  Gaps are drawn at rate
  ``multiplier / mean_gap`` — a standard thinning-free approximation of
  an inhomogeneous Poisson process that keeps generation single-pass
  and seeded;
* :meth:`~ArrivalPattern.remap_clients` — maps an array of sampled
  clients onto the population *connected* at each arrival time
  (identity by default); ``churn`` overrides it to rotate
  connect/disconnect waves through the tenant set.

Everything stays a pure, seeded function of
(:class:`~repro.service.params.ServiceParams`, time), so registered
plugins keep service traces content-addressable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from ..registry import Registry

if TYPE_CHECKING:
    from .params import ServiceParams

#: Arrival-rate patterns (``params.pattern``).  Built-ins live in this
#: module; no discovery imports needed.
ARRIVAL_PATTERNS = Registry("arrival pattern")

#: Arrival disciplines (``params.arrival``); the built-in stream
#: generators self-register from :mod:`repro.service.traffic`.
ARRIVAL_DISCIPLINES = Registry("arrival discipline", discover=(
    "repro.service.traffic",))


def pattern_by_name(name: str) -> "ArrivalPattern":
    """The pattern registered as ``name``; unknown names raise a
    ``KeyError`` listing every registered pattern."""
    return ARRIVAL_PATTERNS.get(name)


def discipline_by_name(name: str):
    """The discipline (stream generator) registered as ``name``."""
    return ARRIVAL_DISCIPLINES.get(name)


def pattern_names() -> List[str]:
    return ARRIVAL_PATTERNS.names()


def discipline_names() -> List[str]:
    return ARRIVAL_DISCIPLINES.names()


def register_pattern(name: str):
    """Class decorator registering an :class:`ArrivalPattern` subclass.

    The registry holds one (stateless) *instance* of the class — the
    hooks are plain methods, so ``pattern_by_name(name).rate(...)``
    works directly.  Plugin patterns use this exact decorator.
    """
    def wrap(cls):
        ARRIVAL_PATTERNS.register(name)(cls())
        return cls
    return wrap


class ArrivalPattern:
    """Base pattern: stationary rate, every client always connected."""

    #: True when :meth:`rate` is identically 1.0 — the vectorized open
    #: loop can then turn the gap recurrence into one ``cumsum`` instead
    #: of walking the clock.  Patterns whose rate varies with time must
    #: set this False (the remap may still vectorize).
    stationary = True

    def rate(self, params: "ServiceParams", now: float) -> float:
        """Instantaneous offered-rate multiplier at time ``now``."""
        return 1.0

    def remap_clients(self, params: "ServiceParams", now, clients,
                      n_clients: int):
        """Map sampled clients onto the connected population.

        ``now`` (arrival times) and ``clients`` (sampled client ids) are
        equal-length numpy arrays; returns the remapped client array.
        Every client is always connected here, so ``clients`` comes back
        unchanged.
        """
        return clients


@register_pattern("poisson")
class PoissonPattern(ArrivalPattern):
    """Stationary arrivals — the multiplier is identically 1.0."""


@register_pattern("burst")
class BurstPattern(ArrivalPattern):
    """Periodic on/off spike: ``burst_factor`` during the first
    ``burst_fraction`` of every ``burst_period_cycles`` window."""

    stationary = False

    def rate(self, params: "ServiceParams", now: float) -> float:
        phase = now % params.burst_period_cycles
        if phase < params.burst_fraction * params.burst_period_cycles:
            return params.burst_factor
        return 1.0


@register_pattern("diurnal")
class DiurnalPattern(ArrivalPattern):
    """Sinusoid of relative amplitude ``diurnal_amplitude`` (always
    positive, so the process never stalls)."""

    stationary = False

    def rate(self, params: "ServiceParams", now: float) -> float:
        return 1.0 + params.diurnal_amplitude * math.sin(
            2.0 * math.pi * now / params.diurnal_period_cycles)


@register_pattern("churn")
class ChurnPattern(ArrivalPattern):
    """Tenant churn: connect/disconnect waves through the client set.

    At any instant only ``churn_active_fraction`` of the tenants are
    connected — a contiguous window that rotates by its own width every
    ``churn_period_cycles`` (wrapping around), so each wave disconnects
    the previous cohort and connects a fresh one.  The offered rate
    stays stationary; what churns is *which domains* the requests
    touch, which is precisely the access pattern that defeats
    key-caching schemes (every wave faces cold DTTLB/PTLB state and,
    for MPK virtualization, a fresh round of key remaps + shootdowns).

    Used by the bundled ``tenant_churn`` scenario; open-loop only —
    the closed loop's per-client issue state has no notion of
    disconnection, so there it degrades to ``poisson``.
    """

    def remap_clients(self, params: "ServiceParams", now, clients,
                      n_clients: int):
        # The connected window is ``width`` clients starting at
        # ``wave * width`` (mod ``n_clients``), where ``wave`` counts
        # whole churn periods elapsed; a sample keeps its offset within
        # the window.
        import numpy as np
        width = max(1, round(n_clients * params.churn_active_fraction))
        wave = (now // params.churn_period_cycles).astype(np.int64)
        start = (wave * width) % n_clients
        return (start + clients % width) % n_clients


@register_pattern("waves")
class ConnectWavesPattern(ChurnPattern):
    """Connect/disconnect waves: churn plus a reconnect stampede.

    The connected window rotates exactly like ``churn``, but each wave
    *arrives together*: for the first ``burst_fraction`` of every
    ``churn_period_cycles`` window the offered rate is multiplied by
    ``burst_factor`` — the freshly connected cohort re-establishing
    sessions all at once — then settles to the stationary rate until
    the next wave.  The worst case for key-caching schemes: the rate
    spike lands precisely when every domain it touches is cold
    (new keys to map, shootdowns to broadcast), while domain
    virtualization only pays its flat PTLB fill.

    Like ``churn``, open-loop only (the closed loop has no notion of
    disconnection); reuses the burst knobs for the stampede shape.
    """

    stationary = False

    def rate(self, params: "ServiceParams", now: float) -> float:
        phase = now % params.churn_period_cycles
        if phase < params.burst_fraction * params.churn_period_cycles:
            return params.burst_factor
        return 1.0
