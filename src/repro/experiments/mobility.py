"""Extreme-mobility driver: Fig. 13.

Replays the 10 subway / high-speed-rail trace pairs from the catalog
and measures the per-request download time of fixed-size chunks under
SP, vanilla-MP, MPTCP, connection migration (CM) and XLINK -- the
five bars of Fig. 13.  Each scheme downloads a sequence of chunks
back-to-back over the emulated trace; the figure reports the median
and max request download time per trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from typing import Optional

from repro.experiments.harness import (SCHEMES, PathSpec, run_bulk_download,
                                       run_video_session, scheme_with_cc)
from repro.experiments.parallel import SessionTask, fan_out
from repro.metrics.stats import percentile
from repro.sim.rng import derive_seed
from repro.traces.catalog import extreme_mobility_trace_pairs
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

#: The five schemes of Fig. 13, in the paper's legend order.
FIG13_SCHEMES = ("sp", "vanilla_mp", "mptcp", "cm", "xlink")

#: Size of one video-chunk request in the mobility experiment.
CHUNK_BYTES = 512 * 1024

#: Number of chunk requests per trace replay.
CHUNKS_PER_TRACE = 6

#: The emulated player consumes at this bitrate (Appendix B: the test
#: video player "consumed received data at a constant bit-rate").  It
#: is set near the *aggregate* capacity of the trace pairs, so a
#: single path can never keep up -- the regime Fig. 13 probes, where
#: SP falls behind, vanilla-MP/MPTCP aggregate but stall on fades, and
#: XLINK aggregates and rescues the stragglers.
VIDEO_BITRATE_BPS = 6_000_000


@dataclass
class MobilityResult:
    """Per-trace, per-scheme request download times."""

    trace_id: int
    environment: str
    #: scheme -> list of per-chunk download times (s)
    times: Dict[str, List[float]] = field(default_factory=dict)

    def median(self, scheme: str) -> float:
        return percentile(self.times[scheme], 50)

    def maximum(self, scheme: str) -> float:
        return max(self.times[scheme])


#: Droptail queue on the emulated links: ~64 MTU packets, the usual
#: Mahimahi configuration.  Deeper queues would let Cubic build close
#: to a second of bufferbloat on the slow fading links, drowning the
#: scheduling effects Fig. 13 measures in self-queueing delay.
QUEUE_LIMIT_BYTES = 96 * 1024


def _paths_for_trace(pair: dict) -> List[PathSpec]:
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=0.020, trace_ms=list(pair["wifi_ms"]),
                 queue_limit_bytes=QUEUE_LIMIT_BYTES),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=0.045, trace_ms=list(pair["cellular_ms"]),
                 queue_limit_bytes=QUEUE_LIMIT_BYTES),
    ]


def _chunked_video(n_chunks: int = CHUNKS_PER_TRACE,
                   chunk_bytes: int = CHUNK_BYTES,
                   bitrate_bps: float = VIDEO_BITRATE_BPS) -> Video:
    total = n_chunks * chunk_bytes
    # Constant 25 fps frames sized so consumption runs at the target
    # bitrate; the whole video is exactly n chunks.
    frame = max(int(bitrate_bps / 8 / 25), 1000)
    n_frames = max(total // frame, 2)
    sizes = [frame] * n_frames
    sizes[-1] += total - sum(sizes)
    return Video(name="mob", fps=25, frame_sizes=sizes,
                 chunk_size=chunk_bytes)


def run_scheme_on_trace(pair: dict, scheme: str, seed: int = 0,
                        timeout_s: float = 120.0,
                        cc: Optional[str] = None) -> List[float]:
    """Per-chunk download times for one scheme over one trace pair.

    One :func:`fan_out` job: a forked worker inherits the arguments and
    sends back only the returned list.  ``cc`` overrides the scheme's
    congestion controller; the variant is registered *here*, in
    whichever process runs the replay, so the job carries no scheme
    config.  The MPTCP baseline keeps its own fixed controller.
    """
    paths = _paths_for_trace(pair)
    if scheme == "sp":
        paths = paths[:1]
    if scheme == "mptcp":
        return _run_mptcp_paced(paths, timeout_s=timeout_s, seed=seed)
    if cc is not None:
        scheme = scheme_with_cc(scheme, cc)
    # Realistic streaming player: finite buffer, constant-bitrate
    # consumption, *sequential* chunk requests (Appendix B: the
    # test player "sequentially requested data chunks").  The
    # finite buffer keeps XLINK's QoE gate in the loop -- an
    # infinite buffer would report "no urgency" forever and
    # degenerate the experiment into a raw download race.
    player_config = PlayerConfig(concurrent_requests=1,
                                 max_buffer_s=3.0,
                                 startup_frames=5, resume_frames=5)
    session = run_video_session(scheme, paths, video=_chunked_video(),
                                player_config=player_config,
                                timeout_s=timeout_s, seed=seed)
    times = list(session.metrics.request_completion_times)
    while len(times) < CHUNKS_PER_TRACE:
        times.append(timeout_s)  # unfinished chunks count as timeout
    return times


def run_mobility_trace(pair: dict, schemes: Sequence[str] = FIG13_SCHEMES,
                       seed: int = 0, timeout_s: float = 120.0,
                       workers: Optional[int] = None,
                       cc: Optional[str] = None) -> MobilityResult:
    """Run every scheme over one (cellular, wifi) trace pair.

    ``cc`` runs the QUIC schemes under that congestion controller;
    results stay keyed by the base scheme names.
    """
    result = MobilityResult(trace_id=pair["trace_id"],
                            environment=pair["environment"])
    jobs = [{"pair": pair, "scheme": scheme, "seed": seed,
             "timeout_s": timeout_s, "cc": cc} for scheme in schemes]
    for scheme, times in zip(schemes, fan_out(run_scheme_on_trace, jobs,
                                              workers=workers)):
        result.times[scheme] = times
    return result


def _run_mptcp_paced(paths: List[PathSpec], timeout_s: float,
                     seed: int) -> List[float]:
    """Sequential, playback-paced chunk downloads over MPTCP.

    Mirrors the QUIC schemes' player: chunk k's request is not issued
    before its playback deadline minus the buffer target, so the
    per-chunk completion times are comparable across transports.
    """
    from repro.experiments.harness import _build_network
    from repro.mptcp import MptcpConnection
    from repro.netem import Datagram
    from repro.sim import EventLoop

    chunk_playtime = CHUNK_BYTES * 8.0 / VIDEO_BITRATE_BPS
    buffer_target_s = 3.0
    loop = EventLoop()
    net = _build_network(loop, paths, seed)
    server = MptcpConnection(loop, is_server=True,
                             transmit=lambda pid, d: net.server.send(
                                 Datagram(payload=d, path_id=pid)))
    client = MptcpConnection(loop, is_server=False,
                             transmit=lambda pid, d: net.client.send(
                                 Datagram(payload=d, path_id=pid)))
    for spec in paths:
        server.add_subflow(spec.net_path_id)
        client.add_subflow(spec.net_path_id)
    net.client.on_receive(
        lambda d: client.datagram_received(d.payload, d.path_id))
    net.server.on_receive(
        lambda d: server.datagram_received(d.payload, d.path_id))

    times: List[float] = []
    for k in range(CHUNKS_PER_TRACE):
        # Pace like the QUIC player: a chunk is requested when its
        # buffer window opens, and HTTP over one MPTCP byte stream is
        # sequential, so never before the previous response finished.
        earliest = max(k * chunk_playtime - buffer_target_s, loop.now)
        loop.run(until=earliest)
        target = (k + 1) * CHUNK_BYTES
        start = loop.now
        client._expected_total = target
        client.completed_at = None
        client.on_complete = loop.request_stop
        client.request(target)  # the range request crosses the network
        if client.completed_at is None and loop.now < start + timeout_s:
            loop.run(stop_before=start + timeout_s)
        times.append((client.completed_at - start)
                     if client.completed_at is not None else timeout_s)
    return times


#: Fleet-capable subset of Fig. 13's schemes: everything that runs as
#: a plain SessionTask.  ``mptcp`` needs the bespoke paced loop below
#: and stays a small-N driver.
FLEET_MOBILITY_SCHEMES = ("sp", "vanilla_mp", "cm", "xlink")


def iter_mobility_fleet_tasks(n_traces: int = 10, repeats: int = 2,
                              schemes: Sequence[str] =
                              FLEET_MOBILITY_SCHEMES,
                              duration_s: float = 30.0,
                              timeout_s: float = 60.0,
                              seed: int = 0) -> Iterator[SessionTask]:
    """Lazily generate the mobility population's session tasks.

    The population shape of Fig. 13 at fleet scale: ``repeats``
    reseeded passes over the trace catalog, schemes paired per
    (repeat, trace) cell so per-scheme sketches compare the same
    replay conditions.  Request download times land in the fleet
    sink's ``rct`` sketch (the same metric the figure reports).
    """
    pairs = extreme_mobility_trace_pairs(duration_s)[:n_traces]
    player_config = PlayerConfig(concurrent_requests=1, max_buffer_s=3.0,
                                 startup_frames=5, resume_frames=5)
    video = _chunked_video()
    for rep in range(repeats):
        for pair in pairs:
            rep_seed = derive_seed(seed, f"mob-{rep}-{pair['trace_id']}")
            paths = _paths_for_trace(pair)
            for scheme in schemes:
                yield SessionTask(
                    key=(rep, pair["trace_id"], scheme), scheme=scheme,
                    paths=paths[:1] if scheme == "sp" else paths,
                    video=video, player_config=player_config,
                    timeout_s=timeout_s, seed=rep_seed,
                    scheme_config=SCHEMES.get(scheme))


def run_fig13(n_traces: int = 10, duration_s: float = 30.0,
              schemes: Sequence[str] = FIG13_SCHEMES,
              seed: int = 0,
              workers: Optional[int] = None) -> List[MobilityResult]:
    """The full Fig. 13 sweep over the trace catalog.

    Runs the flat (trace, scheme) replay grid through :func:`fan_out`
    on ``workers`` forked workers (a lost worker's chunk is retried);
    each replay is independent, so the sweep parallelizes to
    ``n_traces * len(schemes)`` tasks.
    """
    pairs = extreme_mobility_trace_pairs(duration_s)[:n_traces]
    jobs = [{"pair": pair, "scheme": scheme, "seed": seed}
            for pair in pairs for scheme in schemes]
    all_times = fan_out(run_scheme_on_trace, jobs, workers=workers)
    results: List[MobilityResult] = []
    it = iter(all_times)
    for pair in pairs:
        result = MobilityResult(trace_id=pair["trace_id"],
                                environment=pair["environment"])
        for scheme in schemes:
            result.times[scheme] = next(it)
        results.append(result)
    return results
