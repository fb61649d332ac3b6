"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``play``      -- run one emulated video session under a scheme
- ``race``      -- bulk-download race across schemes on one network
- ``serve``     -- one CDN host serving N concurrent sessions on a
  shared cell (the multi-user contention experiment)
- ``ab``        -- run one A/B day (SP vs a treatment) and print stats
- ``fleet``     -- supervised sharded population run (10K-user scale)
  reduced into streaming metric sketches; prints per-scheme QoE
  percentiles, SP-vs-treatment deltas, retry/abandon accounting and
  the merged digest.  With ``--checkpoint-dir`` the run becomes a
  day-checkpointed campaign that ``--resume`` continues after a kill.
  Exit codes: 0 clean, 3 sessions failed, 4 shards abandoned,
  130 interrupted.
- ``fleet-chaos`` -- seeded worker-fault soak over the fleet
  supervisor (crash/hang/raise/corrupt shards plus a campaign
  kill-and-resume); exits non-zero on any violated invariant
- ``mobility``  -- replay one extreme-mobility trace pair (Fig. 13 row)
- ``schemes``   -- list the available transport schemes
- ``bench``     -- run the core perf suite, write ``BENCH_core.json``
- ``chaos``     -- seeded chaos soak over the multi-session runtime;
  exits non-zero on any uncaught exception or invariant violation

``play`` and ``race`` accept ``--qlog PATH`` to record a qlog-style
event trace of the client connection (``race`` writes one file per
scheme, suffixing the scheme name).

Population commands accept ``--workers N`` to fan independent sessions
out over forked worker processes (0 = ``os.cpu_count()``); results are
bit-identical to ``--workers 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import (ABTestConfig, PathSpec, SCHEMES,
                               run_ab_day, run_bulk_download,
                               run_video_session)
from repro.experiments.harness import scheme_with_cc
from repro.experiments.contention import ContentionConfig, run_contention
from repro.experiments.mobility import FIG13_SCHEMES, run_mobility_trace
from repro.metrics import percentile
from repro.netem import OutageSchedule
from repro.quic.connection import aggregate_robustness
from repro.quic.trace import ConnectionTracer
from repro.traces.catalog import extreme_mobility_trace_pairs
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig, make_video


def _standard_paths(args) -> List[PathSpec]:
    wifi_outages = None
    if args.wifi_outage:
        start, end = args.wifi_outage
        wifi_outages = OutageSchedule(windows=[(start, end)])
    return [
        PathSpec(net_path_id=0, radio=RadioType.WIFI,
                 one_way_delay_s=args.wifi_delay_ms / 1000.0,
                 rate_bps=args.wifi_mbps * 1e6, outages=wifi_outages),
        PathSpec(net_path_id=1, radio=RadioType.LTE,
                 one_way_delay_s=args.lte_delay_ms / 1000.0,
                 rate_bps=args.lte_mbps * 1e6),
    ]


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for independent sessions "
             "(0 = all cores, 1 = in-process; default: all cores)")


def _add_cc_arg(parser: argparse.ArgumentParser) -> None:
    from repro.quic.cc import CC_REGISTRY
    parser.add_argument(
        "--cc", default="cubic", choices=sorted(CC_REGISTRY),
        help="congestion controller the QUIC schemes run "
             "(default: cubic, the paper's production choice)")


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wifi-mbps", type=float, default=10.0)
    parser.add_argument("--wifi-delay-ms", type=float, default=12.0)
    parser.add_argument("--lte-mbps", type=float, default=5.0)
    parser.add_argument("--lte-delay-ms", type=float, default=40.0)
    parser.add_argument("--wifi-outage", type=float, nargs=2,
                        metavar=("START", "END"),
                        help="blackout window on the Wi-Fi path (s)")
    parser.add_argument("--seed", type=int, default=0)


def _format_robustness(robustness) -> str:
    """Render the non-zero robustness counters as ``k=v`` pairs."""
    parts = [f"{key}={value}" for key, value in sorted(robustness.items())
             if value]
    return " ".join(parts) if parts else "clean"


def cmd_play(args) -> int:
    scheme = args.scheme
    if scheme not in SCHEMES or SCHEMES[scheme].is_mptcp:
        print(f"unknown or unsupported scheme for play: {scheme}",
              file=sys.stderr)
        return 2
    paths = _standard_paths(args)
    if not SCHEMES[scheme].multipath:
        paths = paths[:1]
    video = make_video(duration_s=args.duration,
                       bitrate_bps=args.bitrate_mbps * 1e6,
                       seed=args.seed)
    tracer = ConnectionTracer() if args.qlog else None
    result = run_video_session(
        scheme, paths, video=video,
        player_config=PlayerConfig(max_buffer_s=args.buffer),
        timeout_s=args.timeout, seed=args.seed, tracer=tracer)
    if tracer is not None:
        tracer.save(args.qlog)
        print(f"qlog: {args.qlog} ({len(tracer.events)} events)")
    m = result.metrics
    print(f"scheme={scheme} completed={result.completed} "
          f"virtual_time={result.duration_s:.2f}s")
    if m.first_frame_latency is not None:
        print(f"first_frame_latency_ms="
              f"{m.first_frame_latency * 1000:.0f}")
    if m.request_completion_times:
        print(f"chunk_rct_median_s="
              f"{percentile(m.request_completion_times, 50):.3f}")
        print(f"chunk_rct_max_s={max(m.request_completion_times):.3f}")
    print(f"rebuffer_s={m.rebuffer_time:.2f}")
    print(f"redundancy_pct={result.redundancy_percent:.1f}")
    if result.client is not None and result.server is not None:
        print("robustness: " + _format_robustness(aggregate_robustness(
            [result.client.stats, result.server.stats])))
    return 0


def cmd_race(args) -> int:
    paths = _standard_paths(args)
    print(f"{'scheme':<12} {'download (s)':>12}")
    for scheme in args.schemes:
        if scheme not in SCHEMES:
            print(f"unknown scheme: {scheme}", file=sys.stderr)
            return 2
        use = paths if SCHEMES[scheme].multipath else paths[:1]
        tracer = None
        if args.qlog and not SCHEMES[scheme].is_mptcp:
            tracer = ConnectionTracer()
        result = run_bulk_download(scheme, use, args.bytes,
                                   timeout_s=args.timeout,
                                   seed=args.seed, tracer=tracer)
        if tracer is not None:
            base, ext = os.path.splitext(args.qlog)
            tracer.save(f"{base}.{scheme}{ext or '.jsonl'}")
        time_s = result.download_time_s
        print(f"{scheme:<12} "
              f"{time_s:>12.3f}" if time_s is not None
              else f"{scheme:<12} {'timeout':>12}")
    return 0


def cmd_serve(args) -> int:
    if args.scheme not in SCHEMES or SCHEMES[args.scheme].is_mptcp:
        print(f"unknown or unsupported scheme for serve: {args.scheme}",
              file=sys.stderr)
        return 2
    config = ContentionConfig(
        sessions=args.sessions, scheme=args.scheme, seed=args.seed,
        video_duration_s=args.duration,
        cell_mean_mbps=args.cell_mbps, timeout_s=args.timeout)
    result = run_contention(config)
    print(f"sessions={config.sessions} scheme={args.scheme} "
          f"completed={result.completed} "
          f"virtual_time={result.duration_s:.2f}s")
    if result.first_frame_latencies:
        ffl = result.first_frame_latencies
        print(f"first_frame_p50_ms={percentile(ffl, 50) * 1000:.0f} "
              f"p95_ms={percentile(ffl, 95) * 1000:.0f}")
    print(f"rebuffer_rate_pct={result.rebuffer_rate * 100:.2f}")
    print(f"redundancy_pct={result.redundancy_percent:.1f}")
    print(f"host: routed={result.datagrams_routed} "
          f"dropped={result.datagrams_dropped} "
          f"evicted_closed={result.evicted_closed} "
          f"evicted_idle={result.evicted_idle}")
    print(f"cell_down_mb={result.cell_down_bytes / 1e6:.2f}")
    print("robustness: " + _format_robustness(result.robustness))
    return 0


def cmd_chaos(args) -> int:
    from repro.experiments.chaos import ChaosSoakConfig, run_chaos_soak
    config = ChaosSoakConfig(scenarios=args.scenarios, seed=args.seed,
                             stall_bound_s=args.stall_bound,
                             idle_timeout_s=args.idle_timeout,
                             cc_algorithm=args.cc)
    result = run_chaos_soak(config)
    print(f"{'#':>3} {'scheme':<12} {'sess':>4} {'done':>4} "
          f"{'evict':>5} {'verdict':<8} faults")
    for o in result.outcomes:
        verdict = "ok" if o.ok else ("ERROR" if o.error else "VIOLATION")
        faults = " ".join(f"{k}={v}" for k, v in sorted(o.injected.items())
                          if v) or "-"
        print(f"{o.index:>3} {o.scheme:<12} {o.sessions:>4} "
              f"{o.completed:>4} {o.evicted_closed + o.evicted_idle:>5} "
              f"{verdict:<8} {faults}")
    totals = {}
    for o in result.outcomes:
        for key, value in o.robustness.items():
            if key == "reorder_max_depth":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    print("robustness: " + _format_robustness(totals))
    print(f"digest: {result.digest}")
    for line in result.errors:
        print(f"error: {line}", file=sys.stderr)
    for line in result.violations:
        print(f"violation: {line}", file=sys.stderr)
    if not result.ok:
        print(f"chaos soak FAILED ({len(result.errors)} errors, "
              f"{len(result.violations)} violations)", file=sys.stderr)
        return 1
    print(f"chaos soak passed: {args.scenarios} scenarios, seed {args.seed}")
    return 0


def cmd_ab(args) -> int:
    cfg = ABTestConfig(users_per_day=args.users, seed=args.seed)
    schemes = ["sp", args.treatment]
    if args.cc != "cubic":
        # Scheme × CC variants registered here ride to fork workers on
        # SessionTask.scheme_config.
        schemes = [scheme_with_cc(s, args.cc) for s in schemes]
    results = run_ab_day(cfg, args.day, schemes,
                         workers=args.workers or None)
    for scheme in schemes:
        day = results[scheme]
        rcts = day.rcts
        print(f"{scheme:<12} rct_p50={percentile(rcts, 50):.3f} "
              f"rct_p95={percentile(rcts, 95):.3f} "
              f"rct_p99={percentile(rcts, 99):.3f} "
              f"rebuffer_pct={day.rebuffer_rate * 100:.2f} "
              f"cost_pct={day.traffic_overhead_percent:.1f}")
    return 0


#: ``fleet`` exit codes: distinct failure classes for scripting.
EXIT_SESSIONS_FAILED = 3
EXIT_SHARDS_ABANDONED = 4
EXIT_INTERRUPTED = 130


def _fleet_exit_code(failed: int, abandoned_shards: int,
                     interrupted: bool) -> int:
    """Most-severe-wins mapping from run outcome to exit code."""
    if interrupted:
        return EXIT_INTERRUPTED
    if abandoned_shards:
        return EXIT_SHARDS_ABANDONED
    if failed:
        return EXIT_SESSIONS_FAILED
    return 0


def _print_failure_tally(failures, abandoned_tasks: int = 0) -> None:
    """Per-exception-type session-failure tally (one line, sorted)."""
    if not failures:
        return
    parts = " ".join(f"{kind}={n}" for kind, n in sorted(failures.items()))
    print(f"failures: {parts}")
    if abandoned_tasks:
        print(f"  ({abandoned_tasks} of these are sessions inside "
              f"abandoned shards)")


def _print_sink_stats(sink, seed: int, permutation_rounds: int) -> None:
    from repro.metrics import improvement_percent, permutation_mean_test

    def cell(value, spec="{:.3f}"):
        return "-" if value is None else spec.format(value)

    for name in sink.scheme_names():
        s = sink.scheme(name)
        startup = s.startup.percentile(50)
        print(f"{name:<12} sessions={s.sessions} "
              f"rct_p50={cell(s.rct.percentile(50))} "
              f"rct_p95={cell(s.rct.percentile(95))} "
              f"rct_p99={cell(s.rct.percentile(99))} "
              f"startup_p50_ms="
              f"{cell(None if startup is None else startup * 1000, '{:.0f}')} "
              f"rebuffer_pct={s.rebuffer_rate * 100:.2f} "
              f"cost_pct={s.traffic_overhead_percent:.1f}")
    baseline = sink.get("sp")
    if (baseline is not None and baseline.play_q > 0
            and permutation_rounds > 0):
        for name in sink.scheme_names():
            if name == "sp":
                continue
            treat = sink.scheme(name)
            if treat.play_q <= 0:
                continue
            sig = permutation_mean_test(
                baseline.session_rebuffer_rate,
                treat.session_rebuffer_rate,
                rounds=permutation_rounds, seed=seed)
            print(f"sp->{name:<9} rebuffer_improvement_pct="
                  f"{improvement_percent(baseline.rebuffer_rate, treat.rebuffer_rate):+.1f} "
                  f"p_value={cell(sig.p_value if sig else None)}")


def _cmd_fleet_campaign(args, cfg) -> int:
    """The ``--checkpoint-dir``/``--resume`` path: day-by-day campaign."""
    from repro.experiments.campaign import CampaignError, FleetCampaign
    campaign = FleetCampaign(
        cfg, checkpoint_dir=args.checkpoint_dir,
        workers=args.workers or None, shard_size=args.shard_size,
        max_retries=args.max_retries, shard_timeout_s=args.shard_timeout)
    try:
        result = campaign.run(resume=args.resume, max_days=args.max_days)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rec in result.days:
        print(f"day {rec.day:>3}: sessions={rec.sessions} "
              f"failed={rec.failed} retries={rec.retries} "
              f"abandoned={rec.abandoned_shards} "
              f"wall={rec.seconds:.1f}s digest={rec.digest[:12]}")
    state = ("interrupted" if result.interrupted
             else ("complete" if result.completed else "partial"))
    print(f"campaign: {state} days={len(result.days)}/{result.days_planned} "
          f"(resumed={result.resumed_days} executed={result.executed_days}) "
          f"sessions={result.tasks} failed={result.failed} "
          f"retries={result.retries} "
          f"abandoned_shards={result.abandoned_shards}")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path} "
              f"(write overhead {result.checkpoint_seconds:.2f}s "
              f"of {result.seconds:.1f}s)")
    _print_failure_tally(result.failures, result.abandoned_tasks)
    _print_sink_stats(result.sink, cfg.seed, args.permutation_rounds)
    print(f"digest={result.digest}")
    return _fleet_exit_code(result.failed, result.abandoned_shards,
                            result.interrupted)


def cmd_fleet(args) -> int:
    from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                         run_fleet_driver)
    schemes = tuple(args.schemes)
    for scheme in schemes:
        if scheme not in SCHEMES or SCHEMES[scheme].is_mptcp:
            print(f"unknown or unsupported scheme for fleet: {scheme}",
                  file=sys.stderr)
            return 2
    cfg = FleetConfig(users=args.users, days=args.days, schemes=schemes,
                      paired=args.paired, timeout_s=args.timeout,
                      seed=args.seed)
    if args.checkpoint_dir or args.resume:
        if args.resume and not args.checkpoint_dir:
            print("error: --resume requires --checkpoint-dir",
                  file=sys.stderr)
            return 2
        return _cmd_fleet_campaign(args, cfg)
    run = run_fleet_driver(ABPopulationDriver(cfg),
                           workers=args.workers or None,
                           shard_size=args.shard_size,
                           max_retries=args.max_retries,
                           shard_timeout_s=args.shard_timeout)
    result = run.result
    print(f"users={cfg.users} days={cfg.days} "
          f"sessions={result.tasks} failed={result.failed} "
          f"shards={result.shards} "
          f"workers={result.workers_requested}/"
          f"{result.workers_effective} (requested/effective)")
    print(f"wall={run.seconds:.1f}s "
          f"sessions_per_sec={run.sessions_per_sec:.1f} "
          f"sink_buckets={run.sink.n_buckets}")
    if result.retries or result.abandoned_shards or result.interrupted:
        faults = " ".join(f"{k}={v}" for k, v
                          in sorted(result.shard_faults.items()))
        print(f"supervision: retries={result.retries} "
              f"abandoned_shards={result.abandoned_shards} "
              f"abandoned_tasks={result.abandoned_tasks} "
              f"interrupted={result.interrupted}"
              + (f" faults[{faults}]" if faults else ""))
    _print_failure_tally(result.failures)
    _print_sink_stats(run.sink, cfg.seed, args.permutation_rounds)
    print(f"digest={run.sink.digest()}")
    return _fleet_exit_code(result.failed, result.abandoned_shards,
                            result.interrupted)


def cmd_fleet_chaos(args) -> int:
    from repro.experiments.fleetchaos import (FleetChaosConfig,
                                              run_fleet_chaos)
    config = FleetChaosConfig(users=args.users, shard_size=args.shard_size,
                              workers=args.workers or 2, seed=args.seed,
                              shard_timeout_s=args.shard_timeout)
    result = run_fleet_chaos(config)
    for name, ok, detail in result.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f"  [{detail}]"))
    print(f"reference_digest={result.reference_digest}")
    if not result.ok:
        print(f"fleet-chaos FAILED ({len(result.failures)} violations)",
              file=sys.stderr)
        return 1
    print(f"fleet-chaos passed: {len(result.checks)} invariants, "
          f"seed {config.seed}")
    return 0


def cmd_mobility(args) -> int:
    pairs = extreme_mobility_trace_pairs(duration_s=args.duration)
    if not 1 <= args.trace <= len(pairs):
        print(f"trace id must be 1..{len(pairs)}", file=sys.stderr)
        return 2
    pair = pairs[args.trace - 1]
    result = run_mobility_trace(pair, schemes=args.schemes,
                                seed=args.seed,
                                workers=args.workers or None,
                                cc=None if args.cc == "cubic" else args.cc)
    print(f"trace {pair['trace_id']} ({pair['environment']}):")
    for scheme in args.schemes:
        print(f"  {scheme:<12} median={result.median(scheme):.2f}s "
              f"max={result.maximum(scheme):.2f}s")
    return 0


def cmd_schemes(_args) -> int:
    for name, scheme in SCHEMES.items():
        kind = "mptcp" if scheme.is_mptcp else \
            ("multipath" if scheme.multipath else "single-path")
        print(f"{name:<12} {kind}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="XLINK reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run one video session")
    play.add_argument("--scheme", default="xlink")
    play.add_argument("--duration", type=float, default=10.0)
    play.add_argument("--bitrate-mbps", type=float, default=2.0)
    play.add_argument("--buffer", type=float, default=3.0)
    play.add_argument("--timeout", type=float, default=120.0)
    play.add_argument("--qlog", metavar="PATH",
                      help="write a qlog-style event trace of the "
                           "client connection to PATH")
    _add_network_args(play)
    play.set_defaults(func=cmd_play)

    race = sub.add_parser("race", help="bulk download race")
    race.add_argument("--schemes", nargs="+",
                      default=["sp", "vanilla_mp", "xlink", "mptcp"])
    race.add_argument("--bytes", type=int, default=2_000_000)
    race.add_argument("--timeout", type=float, default=120.0)
    race.add_argument("--qlog", metavar="PATH",
                      help="write one qlog-style trace per scheme "
                           "(PATH gets a .<scheme> suffix)")
    _add_network_args(race)
    race.set_defaults(func=cmd_race)

    serve = sub.add_parser(
        "serve", help="one CDN host, N sessions on a shared cell")
    serve.add_argument("--sessions", type=int, default=8)
    serve.add_argument("--scheme", default="xlink")
    serve.add_argument("--duration", type=float, default=8.0,
                       help="per-user video length (s)")
    serve.add_argument("--cell-mbps", type=float, default=24.0,
                       help="mean capacity of the shared LTE cell")
    serve.add_argument("--timeout", type=float, default=240.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos", help="seeded chaos soak over the multi-session runtime")
    chaos.add_argument("--scenarios", type=int, default=12)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--stall-bound", type=float, default=5.0,
                       help="rebuffer allowance beyond injected "
                            "blackhole seconds")
    chaos.add_argument("--idle-timeout", type=float, default=4.0,
                       help="endpoint idle timeout / host eviction age (s)")
    _add_cc_arg(chaos)
    chaos.set_defaults(func=cmd_chaos)

    ab = sub.add_parser("ab", help="one A/B day vs single-path")
    ab.add_argument("--treatment", default="xlink")
    ab.add_argument("--users", type=int, default=10)
    ab.add_argument("--day", type=int, default=1)
    ab.add_argument("--seed", type=int, default=0)
    _add_cc_arg(ab)
    _add_workers_arg(ab)
    ab.set_defaults(func=cmd_ab)

    fleet = sub.add_parser(
        "fleet", help="sharded population run on streaming sketches")
    fleet.add_argument("--users", type=int, default=1000,
                       help="population size per day (default 1000)")
    fleet.add_argument("--days", type=int, default=1)
    fleet.add_argument("--schemes", nargs="+", default=["sp", "xlink"])
    fleet.add_argument("--paired", action="store_true",
                       help="every user plays every scheme (default: "
                            "split population, one scheme per user)")
    fleet.add_argument("--shard-size", type=int, default=64,
                       help="sessions reduced per worker task (default 64)")
    fleet.add_argument("--timeout", type=float, default=30.0)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--permutation-rounds", type=int, default=200,
                       help="rounds for the significance test "
                            "(0 disables; default 200)")
    fleet.add_argument("--max-retries", type=int, default=2,
                       help="re-executions granted to a failed/hung/"
                            "lost shard before it is abandoned "
                            "(default 2)")
    fleet.add_argument("--shard-timeout", type=float, default=None,
                       metavar="S",
                       help="per-shard wall-clock deadline; a worker "
                            "past it is killed and the shard retried "
                            "(forked workers only; default: none)")
    fleet.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="run as a day-checkpointed campaign, "
                            "writing DIR/campaign.json after each day")
    fleet.add_argument("--resume", action="store_true",
                       help="continue the campaign in --checkpoint-dir, "
                            "skipping completed days")
    fleet.add_argument("--max-days", type=int, default=None, metavar="N",
                       help="execute at most N new days this invocation "
                            "(campaign mode)")
    _add_workers_arg(fleet)
    fleet.set_defaults(func=cmd_fleet)

    fchaos = sub.add_parser(
        "fleet-chaos",
        help="seeded worker-fault soak over the fleet supervisor")
    fchaos.add_argument("--users", type=int, default=24)
    fchaos.add_argument("--shard-size", type=int, default=4)
    fchaos.add_argument("--seed", type=int, default=11)
    fchaos.add_argument("--shard-timeout", type=float, default=5.0,
                        help="deadline that converts a hung worker "
                             "into a timeout fault (default 5s)")
    _add_workers_arg(fchaos)
    fchaos.set_defaults(func=cmd_fleet_chaos)

    mobility = sub.add_parser("mobility", help="replay a mobility trace")
    mobility.add_argument("--trace", type=int, default=1,
                          help="trace id 1-10")
    mobility.add_argument("--duration", type=float, default=30.0)
    mobility.add_argument("--schemes", nargs="+",
                          default=list(FIG13_SCHEMES))
    mobility.add_argument("--seed", type=int, default=0)
    _add_cc_arg(mobility)
    _add_workers_arg(mobility)
    mobility.set_defaults(func=cmd_mobility)

    schemes = sub.add_parser("schemes", help="list transport schemes")
    schemes.set_defaults(func=cmd_schemes)

    report = sub.add_parser(
        "report", help="regenerate the evaluation into a markdown file")
    report.add_argument("--scale", default="quick",
                        choices=["quick", "standard", "full"])
    report.add_argument("--out", default="report.md")
    report.add_argument("--sections", nargs="+", default=None,
                        help="subset, e.g. fig6 fig8 ab")
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser(
        "bench", help="run the core perf suite (writes BENCH_core.json)")
    bench.add_argument("--out", default="BENCH_core.json")
    bench.add_argument("--events", type=int, default=200_000)
    bench.add_argument("--packets", type=int, default=50_000)
    bench.add_argument("--ab-users", type=int, default=10)
    bench.add_argument("--fleet-users", type=int, default=10_000,
                       help="population size for the fleet_10k entry "
                            "(the dominant suite cost; default 10000)")
    bench.add_argument("--force", action="store_true",
                       help="overwrite the report even on a dirty git tree")
    bench.add_argument("--dry-run", action="store_true",
                       help="measure and print, but do not write")
    _add_workers_arg(bench)
    bench.set_defaults(func=cmd_bench)

    profile = sub.add_parser(
        "profile", help="run a scenario under cProfile, print hotspots")
    profile.add_argument("scenario",
                         help="scenario name, or 'list' to enumerate")
    profile.add_argument("--top", type=int, default=25,
                         help="number of hotspot rows (default 25)")
    profile.add_argument("--out", default=None,
                         help="write a JSON artifact to this path")
    profile.set_defaults(func=cmd_profile)
    return parser


def cmd_bench(args) -> int:
    from repro import perfbench
    report = perfbench.collect(n_events=args.events, n_packets=args.packets,
                               ab_users=args.ab_users,
                               fleet_users=args.fleet_users,
                               workers=args.workers or None)
    print(perfbench.format_report(report))
    if args.dry_run:
        return 0
    try:
        path = perfbench.write_report(report, path=args.out,
                                      force=args.force)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def cmd_profile(args) -> int:
    from repro import profiling
    if args.scenario == "list":
        for name, desc in profiling.scenarios().items():
            print(f"{name:<12} {desc}")
        return 0
    try:
        report = profiling.run_profile(args.scenario, top=args.top,
                                       out_path=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(profiling.format_report(report))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import generate_report
    text = generate_report(scale=args.scale, sections=args.sections)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out} ({len(text)} chars)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
