"""Fleet layer: sharded population runs on streaming metric sketches.

XLINK's headline evaluation is a 100K-participant production A/B test
(Sec. 7.2, Tables 1/3).  The small-N drivers in this repository
materialize every session's metrics in-process, which tops out around
tens of sessions; this module is the population tier above them.  A
fleet run is the composition of three pieces, the ``FleetDriver``
protocol:

- a **task generator** -- a lazy stream of independent
  :class:`~repro.experiments.parallel.SessionTask`, each carrying its
  fully-derived seed;
- the **shard executor** -- :func:`repro.experiments.parallel.run_fleet`
  slices the stream into shards, runs each in a forked worker, and each
  worker reduces its slice into one
  :class:`~repro.metrics.sink.MetricSink` locally;
- the **sink reducer** -- shard sinks merge (associatively,
  commutatively, with exactly order-independent arithmetic) into the
  final population sink.

Memory is bounded by in-flight shards plus O(schemes x buckets) sink
state, so ``users=10_000`` runs in the same footprint as ``users=40``,
and a fixed seed gives an identical merged digest whether the run was
serial or sharded.

Two population drivers ship here: :class:`ABPopulationDriver` (the
paper's A/B day shape: Wi-Fi + LTE condition sampling per user, SP
control group vs multipath treatments, optionally split-population
like the production test) and :class:`MobilityPopulationDriver` (the
Fig. 13 trace catalog replayed as a population with per-repeat
reseeding).  The threshold sweep's population loop reuses the AB
driver through :func:`repro.experiments.thresholds.run_threshold_sweep`
with ``use_sketch=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Protocol, Sequence, Tuple

from repro.experiments.abtest import ABTestConfig, iter_ab_day_tasks
from repro.experiments.harness import SCHEMES
from repro.experiments.parallel import (DEFAULT_SHARD_SIZE, FleetResult,
                                        SessionTask, run_fleet)
from repro.metrics.sink import MetricSink

__all__ = [
    "FleetConfig",
    "FleetDriver",
    "FleetRun",
    "ABPopulationDriver",
    "MobilityPopulationDriver",
    "run_fleet_driver",
]


class FleetDriver(Protocol):
    """What the fleet runner needs from a population experiment."""

    name: str

    def task_iter(self) -> Iterator[SessionTask]:
        """Lazily yield every session task of the population."""
        ...


@dataclass
class FleetConfig:
    """Population knobs for a fleet-scale A/B run.

    The per-session workload is deliberately lighter than the small-N
    :class:`ABTestConfig` defaults (a 2s clip instead of 10s): the
    fleet reproduces *population distribution* shapes -- percentile
    tails over thousands of users -- where the small drivers study
    per-session dynamics, and a 10K-user day has to finish in minutes
    on one container.  Condition sampling (outage/cross-ISP mix) is
    inherited unchanged from :class:`ABTestConfig`.
    """

    users: int = 1000
    days: int = 1
    schemes: Tuple[str, ...] = ("sp", "xlink")
    #: False = split population (each user plays one scheme,
    #: round-robin -- the paper's production A/B shape); True = every
    #: user plays every scheme (the paired small-N design).
    paired: bool = False
    video_duration_s: float = 2.0
    video_bitrate_bps: float = 1_000_000
    chunk_size: int = 64 * 1024
    max_buffer_s: float = 2.0
    timeout_s: float = 30.0
    seed: int = 0
    #: extra overrides forwarded into ABTestConfig (condition mix etc.)
    ab_overrides: Dict[str, float] = field(default_factory=dict)

    def ab_config(self) -> ABTestConfig:
        return ABTestConfig(
            users_per_day=self.users, days=self.days,
            video_duration_s=self.video_duration_s,
            video_bitrate_bps=self.video_bitrate_bps,
            chunk_size=self.chunk_size, max_buffer_s=self.max_buffer_s,
            timeout_s=self.timeout_s, seed=self.seed,
            **self.ab_overrides)

    @property
    def sessions_expected(self) -> int:
        per_day = self.users * (len(self.schemes) if self.paired else 1)
        return per_day * self.days


@dataclass
class ABPopulationDriver:
    """Task generator for the paper-shaped A/B population."""

    cfg: FleetConfig
    name: str = "ab_population"

    def assign(self, user: int) -> Sequence[str]:
        """Scheme(s) a user plays; round-robin keeps groups balanced."""
        if self.cfg.paired:
            return self.cfg.schemes
        return (self.cfg.schemes[user % len(self.cfg.schemes)],)

    def day_iter(self, day: int) -> Iterator[SessionTask]:
        """One day's slice of the population stream.

        Day seeds are derived independently (``derive_seed(seed,
        "day-<d>")``), so the concatenation of ``day_iter(1..D)`` is
        *exactly* ``task_iter()`` -- the property that lets a
        checkpointed campaign resume day-by-day and still merge to the
        digest of an uninterrupted run.
        """
        return iter_ab_day_tasks(self.cfg.ab_config(), day,
                                 self.cfg.schemes, assign=self.assign)

    def task_iter(self) -> Iterator[SessionTask]:
        for day in range(1, self.cfg.days + 1):
            yield from self.day_iter(day)


@dataclass
class MobilityPopulationDriver:
    """Fig. 13's trace catalog as a fleet population.

    Replays ``repeats`` reseeded passes of every (trace, scheme) cell;
    schemes are paired per (repeat, trace) so the per-scheme sketches
    stay directly comparable.  ``mptcp`` is excluded -- its driver
    needs the bespoke paced loop in ``mobility.py``, not a
    :class:`SessionTask` (use the small-N ``run_fig13`` for the full
    five-bar figure).
    """

    traces: int = 10
    repeats: int = 2
    schemes: Tuple[str, ...] = ("sp", "vanilla_mp", "cm", "xlink")
    duration_s: float = 30.0
    timeout_s: float = 60.0
    seed: int = 0
    name: str = "mobility_population"

    def task_iter(self) -> Iterator[SessionTask]:
        from repro.experiments.mobility import iter_mobility_fleet_tasks
        return iter_mobility_fleet_tasks(
            n_traces=self.traces, repeats=self.repeats,
            schemes=self.schemes, duration_s=self.duration_s,
            timeout_s=self.timeout_s, seed=self.seed)


@dataclass
class FleetRun:
    """A finished fleet run plus its wall-clock accounting."""

    driver: str
    result: FleetResult
    seconds: float

    @property
    def sink(self) -> MetricSink:
        return self.result.sink

    @property
    def sessions_per_sec(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.result.tasks / self.seconds


def run_fleet_driver(driver: FleetDriver,
                     workers: Optional[int] = None,
                     shard_size: int = DEFAULT_SHARD_SIZE,
                     sink: Optional[MetricSink] = None,
                     **supervision) -> FleetRun:
    """Execute one driver's population through the supervised runner.

    ``supervision`` kwargs (``max_retries``, ``shard_timeout_s``,
    ``retry_backoff_s``, ``fault_plan``) pass straight through to
    :func:`repro.experiments.parallel.run_fleet`.
    """
    t0 = time.perf_counter()
    result = run_fleet(driver.task_iter(), sink=sink, workers=workers,
                       shard_size=shard_size, **supervision)
    return FleetRun(driver=getattr(driver, "name", type(driver).__name__),
                    result=result, seconds=time.perf_counter() - t0)


def sweep_scheme_config(base_scheme: str, name: str, **changes):
    """A dynamically-derived scheme config for population sweeps.

    Returns a :class:`SchemeConfig` clone that task generators attach
    to every task (``scheme_config``), so workers can register it
    on arrival -- the same mechanism the threshold sweep uses.
    """
    return replace(SCHEMES[base_scheme], name=name, **changes)
