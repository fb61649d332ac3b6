"""Fleet shard supervision: retries, deadlines, quarantine, interrupts.

The contract under test (the robustness analog of the determinism
suite in ``test_fleet.py``): a supervised run survives worker death,
hangs, shard-body exceptions and corrupted results; every retryable
fault folds back in **bit-identically** (retries re-run from the task
list, never a partial sink); faults that exhaust the retry budget
quarantine the shard into honest ``abandoned`` tallies instead of
voiding the run; and Ctrl-C terminates all workers and returns the
partial fold.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.cli import _fleet_exit_code
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     run_fleet_driver)
from repro.experiments.parallel import (ABANDONED_KIND, FaultInjected,
                                        FaultPlan, SessionTask, ShardResult,
                                        execute_shard, run_fleet,
                                        validate_shard_result)
from repro.metrics import MetricSink


def _cfg(users: int = 6, seed: int = 5) -> FleetConfig:
    return FleetConfig(users=users, seed=seed)


def _tasks(users: int = 6, seed: int = 5):
    return ABPopulationDriver(_cfg(users, seed)).task_iter()


def _clean_digest(users: int = 6, seed: int = 5, shard_size: int = 2) -> str:
    return run_fleet(_tasks(users, seed), workers=1,
                     shard_size=shard_size).sink.digest()


class TestFaultPlan:
    def test_explicit_shards_win(self):
        plan = FaultPlan(crash_shards=(0,), hang_shards=(1,),
                         raise_shards=(2,), corrupt_shards=(3,))
        assert plan.fault_kind(0) == "crash"
        assert plan.fault_kind(1) == "hang"
        assert plan.fault_kind(2) == "raise"
        assert plan.fault_kind(3) == "corrupt"
        assert plan.fault_kind(4) is None

    def test_rate_membership_is_deterministic(self):
        plan = FaultPlan(seed=3, crash_rate=0.3, raise_rate=0.3)
        kinds = [plan.fault_kind(i) for i in range(50)]
        assert kinds == [plan.fault_kind(i) for i in range(50)]
        assert "crash" in kinds and "raise" in kinds and None in kinds
        # a different seed redraws membership
        other = FaultPlan(seed=4, crash_rate=0.3, raise_rate=0.3)
        assert kinds != [other.fault_kind(i) for i in range(50)]

    def test_fires_only_on_first_attempt_unless_sticky(self):
        plan = FaultPlan(crash_shards=(0,))
        assert plan.fires(0, 0) == "crash"
        assert plan.fires(0, 1) is None
        sticky = FaultPlan(crash_shards=(0,), sticky=True)
        assert sticky.fires(0, 1) == "crash"

    def test_is_noop(self):
        assert FaultPlan().is_noop()
        assert not FaultPlan(crash_shards=(0,)).is_noop()
        assert not FaultPlan(hang_rate=0.1).is_noop()


class TestValidateShardResult:
    def test_sound_result_passes(self):
        tasks = list(_tasks(users=2))
        result = execute_shard(tasks)
        assert validate_shard_result(result, len(tasks)) is None

    def test_rejects_wrong_types_and_counts(self):
        assert validate_shard_result("garbage", 1) is not None
        assert validate_shard_result(
            ShardResult(sink="nope", tasks=1), 1) is not None
        sound = execute_shard(list(_tasks(users=2)))
        assert validate_shard_result(sound, sound.tasks + 1) is not None

    def test_rejects_inconsistent_accounting(self):
        sound = execute_shard(list(_tasks(users=2)))
        # a failure tally that doesn't add up with sink sessions
        bad = ShardResult(sink=sound.sink, tasks=sound.tasks,
                          failures={"Boom": 5})
        assert validate_shard_result(bad, sound.tasks) is not None
        malformed = ShardResult(sink=sound.sink, tasks=sound.tasks,
                                failures={"Boom": -1})
        assert validate_shard_result(malformed, sound.tasks) is not None


class TestSerialSupervision:
    def test_fail_once_retry_digest_identical(self):
        clean = _clean_digest()
        plan = FaultPlan(raise_shards=(0, 2))
        result = run_fleet(_tasks(), workers=1, shard_size=2,
                           fault_plan=plan)
        assert result.retries == 2
        assert result.shard_faults == {FaultInjected.__name__: 2}
        assert result.abandoned_shards == 0
        assert result.sink.digest() == clean

    def test_sticky_fault_quarantines_shard(self):
        plan = FaultPlan(raise_shards=(1,), sticky=True)
        result = run_fleet(_tasks(), workers=1, shard_size=2,
                           max_retries=1, fault_plan=plan)
        assert result.abandoned_shards == 1
        assert result.abandoned_tasks == 2
        assert result.retries == 1
        assert result.tasks == 4  # the healthy shards still folded
        tallied = sum(s.failures.get(ABANDONED_KIND, 0)
                      for s in result.sink.schemes.values())
        assert tallied == 2
        assert not result.ok

    def test_serial_degrades_crash_and_hang_to_tallied_fails(self):
        # In-process execution cannot kill or preempt itself; the
        # faults still consume retry budget under their own kind.
        plan = FaultPlan(crash_shards=(0,), hang_shards=(1,))
        result = run_fleet(_tasks(), workers=1, shard_size=2,
                           fault_plan=plan)
        assert result.shard_faults == {"crash": 1, "hang": 1}
        assert result.sink.digest() == _clean_digest()


class TestPoolSupervision:
    def test_worker_crash_retried_digest_identical(self):
        clean = _clean_digest()
        plan = FaultPlan(crash_shards=(1,))
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           fault_plan=plan)
        assert result.shard_faults == {"crash": 1}
        assert result.retries == 1
        assert result.sink.digest() == clean
        assert result.workers_effective >= 2

    def test_hung_worker_killed_by_deadline_and_retried(self):
        clean = _clean_digest()
        plan = FaultPlan(hang_shards=(0,), hang_s=60.0)
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           shard_timeout_s=2.0, fault_plan=plan)
        assert result.shard_faults == {"timeout": 1}
        assert result.sink.digest() == clean

    def test_corrupt_result_rejected_and_retried(self):
        clean = _clean_digest()
        plan = FaultPlan(corrupt_shards=(2,))
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           fault_plan=plan)
        assert result.shard_faults == {"corrupt": 1}
        assert result.sink.digest() == clean

    def test_sticky_crash_abandons_without_voiding_run(self):
        plan = FaultPlan(crash_shards=(0,), sticky=True)
        result = run_fleet(_tasks(), workers=2, shard_size=2,
                           max_retries=1, fault_plan=plan)
        assert result.abandoned_shards == 1
        assert result.abandoned_tasks == 2
        assert result.tasks == 4
        assert not result.interrupted

    def test_workers_effective_counts_attempts_not_folds(self):
        # Every shard is abandoned, so none folds, yet two workers ran.
        plan = FaultPlan(crash_shards=(0, 1), sticky=True)
        result = run_fleet(_tasks(users=4), workers=2, shard_size=2,
                           max_retries=0, fault_plan=plan)
        assert result.shards == 0
        assert result.abandoned_shards == 2
        assert result.workers_effective == 2

    def test_keyboard_interrupt_reaps_workers_and_returns_partial(self):
        # A hung shard (no deadline) pins the supervisor in wait();
        # SIGALRM delivers the KeyboardInterrupt a real Ctrl-C would.
        plan = FaultPlan(hang_shards=(2,), hang_s=60.0, sticky=True)

        def raise_ki(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, raise_ki)
        signal.alarm(3)
        try:
            result = run_fleet(_tasks(), workers=2, shard_size=2,
                               fault_plan=plan)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result.interrupted
        assert result.tasks < 6  # partial fold, honestly reported
        assert not result.ok
        assert multiprocessing.active_children() == []


class TestEdgeCases:
    def test_empty_task_stream(self):
        result = run_fleet(iter(()), workers=2)
        assert result.tasks == 0
        assert result.shards == 0
        assert result.ok
        assert result.sink.digest() == MetricSink().digest()

    def test_shard_size_one_digest_identical(self):
        assert _clean_digest(shard_size=1) == _clean_digest(shard_size=64)

    def test_all_failing_shard_still_folds(self):
        paths = next(iter(_tasks(users=1))).paths
        # an unregistered scheme fails every task at lookup
        tasks = [SessionTask(key=(i, "nope"), scheme="nope", paths=paths)
                 for i in range(4)]
        result = run_fleet(iter(tasks), workers=1, shard_size=2)
        assert result.tasks == 4
        assert result.failed == 4
        assert result.failures == {"KeyError": 4}
        assert result.abandoned_shards == 0  # task fails are not faults

    def test_supervision_kwargs_pass_through_driver(self):
        plan = FaultPlan(raise_shards=(0,))
        run = run_fleet_driver(ABPopulationDriver(_cfg(users=4)),
                               workers=1, shard_size=2, fault_plan=plan)
        assert run.result.retries == 1


class TestExitCodes:
    def test_most_severe_wins(self):
        assert _fleet_exit_code(0, 0, False) == 0
        assert _fleet_exit_code(3, 0, False) == 3
        assert _fleet_exit_code(0, 1, False) == 4
        assert _fleet_exit_code(3, 1, False) == 4
        assert _fleet_exit_code(3, 1, True) == 130


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestFaultWorkerIsolation:
    def test_injected_crash_does_not_kill_parent(self):
        # Regression guard for the fault injector itself: os._exit in
        # a worker must never run in the parent (serial mode converts
        # crash faults to tallied fails instead of exiting).
        plan = FaultPlan(crash_shards=(0,), sticky=True)
        result = run_fleet(_tasks(users=2), workers=1, shard_size=2,
                           max_retries=0, fault_plan=plan)
        assert result.abandoned_shards == 1  # and we are still alive
