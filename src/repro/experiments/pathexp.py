"""Path-management experiment drivers: Fig. 7 and Fig. 8.

Fig. 7 measures first-video-frame delivery time vs first-frame size
when the multipath connection starts from a Wi-Fi primary vs a 5G SA
primary (wireless-aware primary path selection, Sec. 5.3).

Fig. 8 measures the request completion time of a 4 MB load over two
equal-bandwidth paths while sweeping the RTT ratio, comparing the two
ACK_MP return-path strategies (min-RTT vs original) under Cubic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import PathSpec, run_bulk_download, run_video_session
from repro.experiments.parallel import fan_out
from repro.traces.radio_profiles import RADIO_PROFILES, RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

#: Fig. 7's first-frame sizes.
FIG7_FRAME_SIZES = (128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024,
                    2 * 1024 * 1024)


def _first_frame_video(first_frame_size: int) -> Video:
    """A video whose first (key) frame is ``first_frame_size`` bytes."""
    tail = [4_000] * 50
    return Video(name="fig7", fps=25,
                 frame_sizes=[first_frame_size] + tail,
                 chunk_size=first_frame_size + sum(tail))


def run_fig7_point(primary: str, first_frame_size: int,
                   seed: int = 0) -> float:
    """First-video-frame delivery time (s) for one (primary, size).

    The network has a Wi-Fi path and a 5G SA path with
    profile-calibrated delays; ``primary`` ("wifi" or "5g") selects
    which one carries the handshake and first data.
    """
    wifi_profile = RADIO_PROFILES[RadioType.WIFI]
    nr_profile = RADIO_PROFILES[RadioType.NR_SA]
    paths = [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=wifi_profile.median_rtt_s / 2,
                 rate_bps=wifi_profile.typical_rate_mbps * 1e6),
        PathSpec(net_path_id=1, radio=RadioType.NR_SA,
                 one_way_delay_s=nr_profile.median_rtt_s / 2,
                 rate_bps=nr_profile.typical_rate_mbps * 1e6),
    ]
    if primary == "wifi":
        order = (RadioType.WIFI, RadioType.NR_SA)
    elif primary == "5g":
        order = (RadioType.NR_SA, RadioType.WIFI)
    else:
        raise ValueError(f"unknown primary {primary!r}")
    video = _first_frame_video(first_frame_size)
    player_config = PlayerConfig(concurrent_requests=1, max_buffer_s=1e9,
                                 startup_frames=1, resume_frames=1)
    result = run_video_session("xlink", paths, video=video,
                               player_config=player_config,
                               timeout_s=30.0, seed=seed,
                               primary_order=order)
    if result.metrics.first_frame_latency is None:
        raise RuntimeError("first frame never delivered")
    return result.metrics.first_frame_latency


def run_fig7(frame_sizes: Sequence[int] = FIG7_FRAME_SIZES,
             seed: int = 0,
             workers: Optional[int] = None
             ) -> Dict[str, List[Tuple[int, float]]]:
    """Full Fig. 7 sweep: {primary: [(frame_size, latency_s), ...]}.

    The (primary, size) grid runs through :func:`fan_out` on
    ``workers`` forked workers, in grid order.
    """
    out: Dict[str, List[Tuple[int, float]]] = {"wifi": [], "5g": []}
    grid = [(primary, size) for primary in out for size in frame_sizes]
    jobs = [{"primary": primary, "first_frame_size": size, "seed": seed}
            for primary, size in grid]
    for (primary, size), latency in zip(grid, fan_out(run_fig7_point, jobs,
                                                      workers=workers)):
        out[primary].append((size, latency))
    return out


#: Fig. 8's RTT ratios between the two paths.
FIG8_RTT_RATIOS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Base RTT of the fast path in the Fig. 8 setup.
FIG8_BASE_RTT_S = 0.04

#: Load size of Fig. 8 (4 MB).
FIG8_LOAD_BYTES = 4 * 1024 * 1024


def run_fig8_point(rtt_ratio: float, ack_policy: str,
                   rate_bps: float = 20e6, seed: int = 0) -> float:
    """Completion time of the 4 MB load at one RTT ratio and policy."""
    paths = [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=FIG8_BASE_RTT_S / 2, rate_bps=rate_bps),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=FIG8_BASE_RTT_S * rtt_ratio / 2,
                 rate_bps=rate_bps),
    ]
    from repro.experiments.harness import SCHEMES, SchemeConfig
    import dataclasses
    # Temporarily register a vanilla-MP variant with the chosen policy.
    scheme = dataclasses.replace(SCHEMES["vanilla_mp"],
                                 ack_path_policy=ack_policy,
                                 cc_algorithm="cubic")
    key = f"_fig8_{ack_policy}"
    SCHEMES[key] = scheme
    try:
        result = run_bulk_download(key, paths, FIG8_LOAD_BYTES,
                                   timeout_s=120.0, seed=seed)
    finally:
        del SCHEMES[key]
    if result.download_time_s is None:
        raise RuntimeError("fig8 download did not complete")
    return result.download_time_s


def run_fig8(ratios: Sequence[float] = FIG8_RTT_RATIOS,
             seed: int = 0,
             workers: Optional[int] = None
             ) -> Dict[str, List[Tuple[float, float]]]:
    """Full Fig. 8 sweep: {policy: [(ratio, completion_s), ...]}.

    The (policy, ratio) grid runs through :func:`fan_out` on
    ``workers`` forked workers, in grid order.
    """
    out: Dict[str, List[Tuple[float, float]]] = {"fastest": [],
                                                 "original": []}
    grid = [(policy, ratio) for policy in out for ratio in ratios]
    jobs = [{"rtt_ratio": ratio, "ack_policy": policy, "seed": seed}
            for policy, ratio in grid]
    for (policy, ratio), time_s in zip(grid, fan_out(run_fig8_point, jobs,
                                                     workers=workers)):
        out[policy].append((ratio, time_s))
    return out
