"""The benchmark's three workloads: seed -> the list of session tasks.

Each workload is a fixed batch of independent
:class:`~repro.experiments.parallel.SessionTask` built only from the
seed.  The benchmark runs the batch to completion one or more times
(a *pass*); every pass of one seed executes exactly the same sessions,
so simulated QoE and the merged metric digest must repeat bit for bit.

Why three: each loads the layers differently (self time by layer from
the traced run, see README.md).

- ``fleet_ab`` is the paper's Sec. 7.2 production A/B day through the
  supervised fleet executor -- the only workload that exercises
  ``experiments.parallel`` and the sink fold, with short sessions so
  per-session overhead shows.
- ``mobility`` is Fig. 13: trace-driven 96 KB-queue links with deep
  fades, the densest per-packet load (about 1000 events per simulated
  second), run serially, bypassing the executor.
- ``long_vod`` is long, buffer-capped, low-bitrate playback over fast
  paths: the player idles most of the virtual time (under 200 events
  per simulated second), so ``sim`` timers and ``video`` bookkeeping
  dominate instead of the packet path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List

from repro.experiments import (ABPopulationDriver, FleetConfig,
                               MobilityPopulationDriver, SessionTask)
from repro.experiments.harness import SCHEMES, PathSpec
from repro.experiments.parallel import available_workers
from repro.sim.rng import derive_seed, make_rng
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video

#: The scheme whose sessions the simulated-QoE metrics describe.
TREATMENT = "xlink"


@dataclass(frozen=True)
class Workload:
    name: str
    #: tasks of one pass, built from the seed alone
    make_tasks: Callable[[int], List[SessionTask]]
    #: 1 runs the pass serially through ``execute_session_task``; more
    #: runs it through ``run_fleet_driver`` with that many workers
    workers: int
    #: host seconds one untraced pass takes on the reference machine
    #: (2-CPU x86 container); fixes the passes per run from ``--seconds``
    #: so that every commit measures the same amount of work
    nominal_pass_s: float
    shard_size: int = 0


# -- fleet_ab -------------------------------------------------------------

#: Users of one A/B pass (split population: half sp, half xlink).
AB_USERS = 240
#: Sessions per shard: ~30 shards per pass keep the 2-worker tail short.
AB_SHARD_SIZE = 8


def fleet_ab_tasks(seed: int) -> List[SessionTask]:
    cfg = FleetConfig(users=AB_USERS, schemes=("sp", TREATMENT),
                      paired=False, seed=seed)
    return list(ABPopulationDriver(cfg).task_iter())


# -- mobility -------------------------------------------------------------

#: Share of each journey over which the seeded starting point ranges.
PHASE_SPAN = 0.05


def mobility_tasks(seed: int) -> List[SessionTask]:
    """Fig. 13's ten trace pairs under sp, vanilla_mp, cm and xlink.

    The trace catalog itself is fixed, so the seed also picks where in
    each journey the viewer starts watching: both traces of a pair are
    rotated by the same seeded offset (whole milliseconds, wrapping),
    which keeps every fade of the trace but moves it relative to the
    chunk requests.
    """
    rng = make_rng(seed, "mobility-phase")
    tasks = list(MobilityPopulationDriver(traces=10, repeats=1,
                                          seed=seed).task_iter())
    offsets = {}
    out = []
    for task in tasks:
        _rep, trace_id, _scheme = task.key
        if trace_id not in offsets:
            offsets[trace_id] = rng.uniform(0.0, PHASE_SPAN)
        paths = [_rotated(p, offsets[trace_id]) for p in task.paths]
        out.append(dataclasses.replace(task, paths=paths))
    return out


def _rotated(path: PathSpec, fraction: float) -> PathSpec:
    trace = path.trace_ms
    period = trace[-1] + 1
    shift = int(fraction * period)
    rotated = sorted((ms - shift) % period for ms in trace)
    return dataclasses.replace(path, trace_ms=rotated)


# -- long_vod -------------------------------------------------------------

#: Sessions of one long_vod pass.
LONG_VOD_SESSIONS = 10
LONG_VOD_DURATION_S = 30.0
LONG_VOD_BITRATE_BPS = 500_000


def long_vod_tasks(seed: int) -> List[SessionTask]:
    """Long low-bitrate videos under xlink over fast Wi-Fi + LTE.

    A 4 s buffer cap on a 0.5 Mbps video over 20 / 8 Mbps paths keeps
    the player idle most of the time: it wakes on its 40 ms tick and
    fetches a chunk whenever the buffer drops below the cap.  Light
    random loss keeps re-injection and loss recovery in play.  Path
    delays and loss vary with the seed only within a narrow band, so
    every session does about the same work.
    """
    rng = make_rng(seed, "long-vod")
    player = PlayerConfig(max_buffer_s=4.0)
    tasks = []
    for i in range(LONG_VOD_SESSIONS):
        session_seed = derive_seed(seed, f"long-vod-{i}")
        paths = [
            PathSpec(net_path_id=0, radio=RadioType.WIFI,
                     one_way_delay_s=rng.uniform(0.011, 0.013),
                     rate_bps=20e6, loss_rate=rng.uniform(0.002, 0.004)),
            PathSpec(net_path_id=1, radio=RadioType.LTE,
                     one_way_delay_s=rng.uniform(0.033, 0.037),
                     rate_bps=8e6, loss_rate=rng.uniform(0.002, 0.004)),
        ]
        video = make_video(name=f"vod-{i}", duration_s=LONG_VOD_DURATION_S,
                           bitrate_bps=LONG_VOD_BITRATE_BPS,
                           seed=session_seed)
        tasks.append(SessionTask(
            key=("vod", i), scheme=TREATMENT, paths=paths, video=video,
            player_config=player, timeout_s=3 * LONG_VOD_DURATION_S,
            seed=session_seed, scheme_config=SCHEMES[TREATMENT]))
    return tasks


WORKLOADS = {
    "fleet_ab": Workload("fleet_ab", fleet_ab_tasks,
                         workers=min(2, available_workers()),
                         nominal_pass_s=10.0, shard_size=AB_SHARD_SIZE),
    "mobility": Workload("mobility", mobility_tasks, workers=1,
                         nominal_pass_s=27.0),
    "long_vod": Workload("long_vod", long_vod_tasks, workers=1,
                         nominal_pass_s=7.5),
}
