"""Tests for the parallel experiment runner.

The load-bearing guarantee is the determinism contract: fanning
sessions out over forked workers must produce *bit-identical* results
to the serial loop, because every task carries a fully-derived seed and
outcomes are reassembled in submission order.  The robustness
guarantee is that a lost worker never wedges the map: its chunk is
retried, or the map raises.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal

import pytest

from repro.experiments.abtest import (ABTestConfig, build_ab_day_tasks,
                                      run_ab_day)
from repro.experiments.parallel import (SessionTask, available_workers,
                                        fan_out, resolve_workers,
                                        run_session_tasks)
from repro.experiments.harness import PathSpec
from repro.experiments.pathexp import run_fig7
from repro.traces.radio_profiles import RadioType


def _small_cfg(**overrides) -> ABTestConfig:
    defaults = dict(users_per_day=4, days=1, video_duration_s=4.0,
                    seed=11)
    defaults.update(overrides)
    return ABTestConfig(**defaults)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad job {x}")
    return x


def _exit_in_worker(x, parent_pid, marker):
    """Square ``x``, but job 3 kills its worker process: every time, or
    only the first time when ``marker`` names a not-yet-created file."""
    if x == 3 and os.getpid() != parent_pid:
        if marker is None:
            os._exit(1)
        with contextlib.suppress(FileExistsError):
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            os._exit(1)
    return x * x


class _Wedged(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a wedged call by SIGALRM instead of hanging the suite."""
    def wedged(_signum, _frame):
        raise _Wedged(f"no return within {seconds}s")

    previous = signal.signal(signal.SIGALRM, wedged)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFanOut:
    def test_preserves_order_serial(self):
        jobs = [{"x": i} for i in range(10)]
        assert fan_out(_square, jobs, workers=1) == [i * i for i in range(10)]

    def test_preserves_order_parallel(self):
        jobs = [{"x": i} for i in range(10)]
        assert fan_out(_square, jobs, workers=3) == [i * i for i in range(10)]

    def test_empty_job_list(self):
        assert fan_out(_square, [], workers=4) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_reraised(self, workers):
        jobs = [{"x": i} for i in range(8)]
        with pytest.raises(ValueError, match="bad job 3"):
            fan_out(_fail_on_three, jobs, workers=workers)
        assert multiprocessing.active_children() == []

    def test_lost_worker_retried_to_full_result(self, tmp_path):
        jobs = [{"x": i, "parent_pid": os.getpid(),
                 "marker": str(tmp_path / "crashed")} for i in range(8)]
        with _deadline(20):
            results = fan_out(_exit_in_worker, jobs, workers=2)
        assert results == [i * i for i in range(8)]
        assert (tmp_path / "crashed").exists()  # the crash did happen
        assert multiprocessing.active_children() == []

    def test_worker_lost_on_every_retry_raises(self):
        jobs = [{"x": i, "parent_pid": os.getpid(), "marker": None}
                for i in range(8)]
        with _deadline(20), pytest.raises(RuntimeError, match="abandoned"):
            fan_out(_exit_in_worker, jobs, workers=2)
        assert multiprocessing.active_children() == []

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == available_workers()
        assert resolve_workers(0) == available_workers()


class TestSeedStability:
    """The same ABTestConfig seed => identical DayResult metrics,
    serial vs parallel (the determinism contract of the runner)."""

    def test_ab_day_serial_vs_parallel_identical(self):
        cfg = _small_cfg()
        schemes = ["sp", "xlink"]
        serial = run_ab_day(cfg, 1, schemes, workers=1)
        parallel = run_ab_day(cfg, 1, schemes, workers=2)
        for scheme in schemes:
            assert serial[scheme].sessions == parallel[scheme].sessions
            assert serial[scheme].rcts == parallel[scheme].rcts
            assert (serial[scheme].rebuffer_rate
                    == parallel[scheme].rebuffer_rate)

    def test_ab_day_serial_is_repeatable(self):
        cfg = _small_cfg()
        a = run_ab_day(cfg, 1, ["sp"], workers=1)
        b = run_ab_day(cfg, 1, ["sp"], workers=1)
        assert a["sp"].sessions == b["sp"].sessions

    def test_fig7_serial_vs_parallel_identical(self):
        sizes = (128 * 1024, 256 * 1024)
        assert (run_fig7(sizes, seed=3, workers=1)
                == run_fig7(sizes, seed=3, workers=2))

    def test_task_seeds_do_not_depend_on_scheme_order(self):
        cfg = _small_cfg()
        ab = build_ab_day_tasks(cfg, 1, ["sp", "xlink"])
        ba = build_ab_day_tasks(cfg, 1, ["xlink", "sp"])
        seeds_ab = {t.key: t.seed for t in ab}
        seeds_ba = {t.key: t.seed for t in ba}
        assert seeds_ab == seeds_ba


class TestSessionTasks:
    def _task(self, key=0, seed=5) -> SessionTask:
        paths = [PathSpec(net_path_id=0, radio=RadioType.WIFI,
                          one_way_delay_s=0.010, rate_bps=8e6)]
        return SessionTask(key=key, scheme="sp", paths=paths,
                           timeout_s=30.0, seed=seed)

    def test_outcome_matches_across_workers(self):
        serial = run_session_tasks([self._task()], workers=1)[0]
        parallel = run_session_tasks([self._task(), self._task(key=1)],
                                     workers=2)
        assert serial.completed
        assert parallel[0].metrics == serial.metrics
        assert parallel[0].key == 0 and parallel[1].key == 1

    def test_outcomes_are_plain_data(self):
        import pickle
        outcome = run_session_tasks([self._task()], workers=1)[0]
        assert pickle.loads(pickle.dumps(outcome)) == outcome
