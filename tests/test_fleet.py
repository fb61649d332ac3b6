"""Fleet tier: sharded population runs on streaming metric sinks.

The acceptance contract under test: a fixed-seed fleet run produces an
*identical* merged digest whether it executed serially or sharded over
pool workers; worker failures are tallied instead of voiding the run;
and the sink's aggregates agree with the exact per-outcome path on the
same population.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.abtest import build_ab_day_tasks, run_ab_day
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     MobilityPopulationDriver,
                                     run_fleet_driver)
from repro.experiments.parallel import (SessionTask, execute_shard,
                                        iter_shards, run_fleet)
from repro.experiments.report import fleet_sections
from repro.metrics import MetricSink
from repro.metrics.stats import percentile


def _small_cfg(users: int = 6, seed: int = 5, **kw) -> FleetConfig:
    return FleetConfig(users=users, seed=seed, **kw)


class TestDeterminism:
    def test_serial_vs_sharded_digests_identical(self):
        cfg = _small_cfg(users=8)
        serial = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                                  shard_size=3)
        sharded = run_fleet_driver(ABPopulationDriver(cfg), workers=2,
                                   shard_size=3)
        assert serial.sink.digest() == sharded.sink.digest()
        assert serial.result.tasks == sharded.result.tasks == 8
        assert serial.result.workers_effective == 1
        assert sharded.result.workers_effective >= 2
        assert sharded.result.shards == 3

    def test_shard_size_does_not_change_digest(self):
        cfg = _small_cfg(users=6)
        a = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                             shard_size=1)
        b = run_fleet_driver(ABPopulationDriver(cfg), workers=1,
                             shard_size=64)
        assert a.sink.digest() == b.sink.digest()

    def test_split_and_paired_sample_same_population(self):
        # The condition RNG is consumed before assignment, so the
        # split-population run's SP group plays the exact conditions
        # the paired run's SP leg saw for the same users.
        split_cfg = _small_cfg(users=4, paired=False)
        paired_cfg = _small_cfg(users=4, paired=True)
        split = {t.key: t for t in
                 ABPopulationDriver(split_cfg).task_iter()}
        paired = {t.key: t for t in
                  ABPopulationDriver(paired_cfg).task_iter()}
        assert set(split) < set(paired)
        for key, task in split.items():
            assert task.seed == paired[key].seed
            assert task.paths == paired[key].paths


class TestShardExecution:
    def test_failures_tallied_not_raised(self):
        good = next(iter(ABPopulationDriver(_small_cfg(users=1))
                         .task_iter()))
        # an unregistered scheme fails the task at lookup
        bad = SessionTask(key=(99, "nope"), scheme="nope", paths=good.paths)
        result = execute_shard([good, bad])
        assert result.tasks == 2
        assert result.failures == {"KeyError": 1}
        assert result.sink.scheme("nope").failures == {"KeyError": 1}
        assert result.sink.sessions == 1  # the good task still counted

    def test_run_fleet_aggregates_failures(self):
        tasks = list(ABPopulationDriver(_small_cfg(users=2)).task_iter())
        tasks.append(SessionTask(key=(99, "nope"), scheme="nope",
                                 paths=tasks[0].paths))
        result = run_fleet(iter(tasks), workers=1, shard_size=2)
        assert result.failed == 1
        assert result.failures == {"KeyError": 1}
        assert result.tasks == 3

    def test_iter_shards_lazy_and_validated(self):
        with pytest.raises(ValueError):
            list(iter_shards([], shard_size=0))
        shards = list(iter_shards(range(7), shard_size=3))
        assert [len(s) for s in shards] == [3, 3, 1]

    def test_external_sink_accumulates_across_runs(self):
        sink = MetricSink()
        cfg = _small_cfg(users=2)
        run_fleet(ABPopulationDriver(cfg).task_iter(), sink=sink,
                  workers=1)
        first = sink.sessions
        run_fleet(ABPopulationDriver(cfg).task_iter(), sink=sink,
                  workers=1)
        assert sink.sessions == 2 * first


class TestSinkConsistency:
    def test_sink_matches_exact_day_result(self):
        # Same paired population through both tiers: the fleet sink's
        # exact-mode percentiles and aggregate rates must agree with
        # the materialized DayResult path.
        cfg = _small_cfg(users=4, paired=True)
        ab = cfg.ab_config()
        day = run_ab_day(ab, 1, list(cfg.schemes), workers=1)
        tasks = build_ab_day_tasks(ab, 1, list(cfg.schemes))
        fleet = run_fleet(iter(tasks), workers=1)
        for scheme in cfg.schemes:
            sink = fleet.sink.scheme(scheme)
            exact = day[scheme]
            assert sink.sessions == len(exact.sessions)
            assert sink.rct.percentile(50) == percentile(exact.rcts, 50)
            assert sink.rct.percentile(99) == percentile(exact.rcts, 99)
            assert sink.rebuffer_rate == pytest.approx(
                exact.rebuffer_rate, abs=1e-9)
            assert sink.traffic_overhead_percent == pytest.approx(
                exact.traffic_overhead_percent, rel=1e-6)


class TestDrivers:
    def test_mobility_population_task_shape(self):
        driver = MobilityPopulationDriver(traces=2, repeats=2,
                                          duration_s=10.0)
        tasks = list(driver.task_iter())
        assert len(tasks) == 2 * 2 * len(driver.schemes)
        by_scheme = {t.scheme for t in tasks}
        assert by_scheme == set(driver.schemes)
        for t in tasks:
            assert len(t.paths) == (1 if t.scheme == "sp" else 2)
        # per-(repeat, trace) reseeding: both repeats of a trace exist
        # with different seeds
        seeds = {t.key: t.seed for t in tasks}
        assert seeds[(0, 1, "xlink")] != seeds[(1, 1, "xlink")]

    def test_sessions_expected(self):
        assert _small_cfg(users=10, days=2).sessions_expected == 20
        assert _small_cfg(users=10, days=2,
                          paired=True).sessions_expected == 40


class TestReportRendering:
    def test_empty_scheme_renders_dashes(self):
        sink = MetricSink()
        sink.scheme("sp")
        sink.scheme("xlink")
        sections = fleet_sections(sink)
        text = "\n".join(s.body for s in sections)
        assert "—" in text
        assert "0" in sections[0].body  # count=0 rows, not a crash

    def test_populated_sink_renders_deltas(self):
        cfg = _small_cfg(users=4)
        run = run_fleet_driver(ABPopulationDriver(cfg), workers=1)
        sections = fleet_sections(run.sink, seed=cfg.seed, rounds=20)
        titles = [s.title for s in sections]
        assert any("treatment deltas" in t for t in titles)
        assert any("CDF" in t for t in titles)


class TestCli:
    def test_fleet_command_smoke(self, capsys):
        rc = main(["fleet", "--users", "4", "--workers", "1",
                   "--shard-size", "2", "--permutation-rounds", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "digest=" in out
        assert "workers=1/1" in out
        assert "sp" in out and "xlink" in out

    def test_fleet_rejects_unknown_scheme(self, capsys):
        rc = main(["fleet", "--users", "2", "--schemes", "sp", "warp"])
        assert rc == 2
