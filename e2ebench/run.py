"""End-to-end benchmark of the XLINK emulator.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload {fleet_ab,mobility,long_vod} \\
        --seed N --seconds S --trace {0,1}

One run builds the workload's batch of sessions from ``--seed``, runs
it to completion ``round(S / nominal pass time)`` times (at least
once) and prints a report; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics (host time and simulated
QoE); ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics derived from the spans (see README.md).

Host times are reported at the reference machine's speed: a fixed
pure-Python loop is timed just before and just after every session
(every shard in ``fleet_ab``) and every set-up, and each host time is
scaled by ``REFERENCE_LOOP_S / median loop time`` (see README.md,
*Host time at the reference speed*).

The run checks its own outputs and exits 1 when a check fails: every
session completes, the supervisor retried and abandoned nothing, the
inputs, every re-run session and every pass's merged metric digest
repeat exactly for the seed, and tracing changes no outcome.
"""

import time

#: Iterations of the speed-reference loop, and its time on the reference
#: machine when that machine runs at full speed (2-CPU x86 container,
#: Python 3.11).  Any fixed value works: it only sets the scale.
REFERENCE_LOOP_ITERATIONS = 30_000
REFERENCE_LOOP_S = 2.0e-3
#: Loop samples taken on each side of a timed interval.
LOOP_SAMPLES = 5


def reference_loop_s() -> float:
    """Host seconds of one run of the fixed speed-reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def loop_samples() -> list:
    return [reference_loop_s() for _ in range(LOOP_SAMPLES)]


#: loop samples just before set-up starts
_LOOPS_BEFORE_SETUP = loop_samples()
#: set-up time counts from here, so it includes every import below
_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: fleet workers' spool files and
#: the trace dump.
OUT = ROOT / ".bench_build" / "e2ebench"

#: Setups measured per run (this process plus fresh processes); the
#: median is reported as ``setup_s``.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "sessions_per_s": "sessions/s",
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "cpu_ms_per_session": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qoe.rct_p50_ms": "ms",
    "qoe.startup_p50_ms": "ms",
}


def fingerprint(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def slowdown(before, after) -> float:
    """How much slower than the reference speed the machine ran over an
    interval, from the loop samples on both sides of it (1.0 = same)."""
    return statistics.median(before + after) / REFERENCE_LOOP_S


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n > 10 else 50


class Checks:
    """Collects failed output checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


class Pass:
    """One pass over the batch: outcomes, host times and its merged sink.

    ``wall_s``, ``cpu_s`` and ``session_ms`` are at the reference speed;
    ``raw_wall_s`` and ``raw_cpu_s`` are as measured, and ``slowdown``
    is their ratio (``raw_wall_s / wall_s``).
    """

    def __init__(self, sink) -> None:
        self.sink = sink
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.cpu_s = 0.0
        self.raw_cpu_s = 0.0
        self.slowdown = 1.0
        self.loop_s = 0.0           # fleet workers' seconds in loop samples
        self.session_ms = []
        self.outcomes = {}          # repr(task key) -> outcome fingerprint
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.fleet = None           # FleetResult (fleet workloads)
        self.shards = []            # (start, end) perf_counter per shard
        self.snapshots = []         # span aggregates from fleet workers


# -- running a pass ---------------------------------------------------------


def run_serial_pass(tasks) -> Pass:
    """Run the batch in this process, timing each session by itself.

    The timed interval of a session is ``execute_session_task`` plus
    folding its outcome into the sink; the reference loops around it and
    the outcome fingerprints after the pass are not timed.  ``loops[i]``
    are the loop samples taken between session ``i - 1`` and ``i``.
    """
    from repro.experiments import parallel
    from repro.metrics.sink import MetricSink
    result = Pass(MetricSink())
    loops, timed, finished = [loop_samples()], [], []
    for task in tasks:
        result.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = parallel.execute_session_task(task)
            result.sink.observe(outcome)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            print(f"session {task.key!r} raised {exc!r}", file=sys.stderr)
            result.sink.observe_failure(task.scheme, type(exc).__name__)
            result.failed += 1
            loops.append(loop_samples())
            continue
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        loops.append(loop_samples())
        timed.append((wall, cpu, slowdown(loops[-2], loops[-1])))
        finished.append((task, outcome))
    for wall, cpu, factor in timed:
        result.session_ms.append(wall / factor * 1e3)
        result.wall_s += wall / factor
        result.cpu_s += cpu / factor
        result.raw_wall_s += wall
        result.raw_cpu_s += cpu
    if result.wall_s:
        result.slowdown = result.raw_wall_s / result.wall_s
    for task, outcome in finished:
        result.outcomes[repr(task.key)] = fingerprint(outcome)
        if outcome.completed:
            result.completed += 1
        else:
            result.failed += 1
    return result


class _TaskList:
    """A ``FleetDriver`` over an already generated task list."""

    def __init__(self, name, tasks) -> None:
        self.name = name
        self._tasks = tasks

    def task_iter(self):
        return iter(self._tasks)


class FleetRecorder:
    """Times sessions inside forked fleet workers and spools the result.

    A shard worker leaves through ``os._exit``, so the wrapper around
    ``execute_shard`` writes its records to a spool file before it
    returns; the parent reads and removes them after each pass.  The
    worker also times the speed-reference loop just before and just
    after each shard, and fingerprints the shard's outcomes after that.
    """

    def __init__(self, spool: Path, tracer=None) -> None:
        from repro.experiments import parallel
        self.spool = spool
        self.tracer = tracer
        self.session_ms = []
        self.outcomes = {}
        run_task = parallel.execute_session_task
        run_shard = parallel.execute_shard
        self._originals = (run_task, run_shard)

        def timed_task(task):
            t0 = time.perf_counter()
            outcome = run_task(task)
            self.session_ms.append((time.perf_counter() - t0) * 1e3)
            self.outcomes[repr(task.key)] = outcome
            return outcome

        def spooled_shard(tasks):
            self.session_ms = []
            self.outcomes = {}
            if self.tracer is not None:
                self.tracer.reset()
            before = loop_samples()
            t0 = time.perf_counter()
            result = run_shard(tasks)
            t1 = time.perf_counter()
            after = loop_samples()
            record = {"shard": [t0, t1],
                      "slowdown": slowdown(before, after),
                      "loop_s": sum(before + after),
                      "session_ms": self.session_ms,
                      "outcomes": {key: fingerprint(outcome) for key, outcome
                                   in self.outcomes.items()}}
            if self.tracer is not None:
                record["trace"] = self.tracer.snapshot()
            path = self.spool / f"{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record))
            tmp.replace(path)
            return result

        parallel.execute_session_task = timed_task
        parallel.execute_shard = spooled_shard

    def uninstall(self) -> None:
        from repro.experiments import parallel
        parallel.execute_session_task, parallel.execute_shard = \
            self._originals

    def collect(self, result: Pass) -> float:
        """Fold the pass's spooled records into ``result``.

        Each shard's session times are scaled by the shard's slowdown;
        the pass's slowdown is their harmonic mean weighted by shard
        duration.  Returns the seconds the workers spent in loop samples.
        """
        raw_s = ref_s = loop_s = 0.0
        for path in sorted(self.spool.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            start, end = record["shard"]
            factor = record["slowdown"]
            result.shards.append((start, end))
            raw_s += end - start
            ref_s += (end - start) / factor
            loop_s += record["loop_s"]
            result.session_ms.extend(ms / factor
                                     for ms in record["session_ms"])
            result.outcomes.update(record["outcomes"])
            if "trace" in record:
                result.snapshots.append(record["trace"])
        if ref_s:
            result.slowdown = raw_s / ref_s
        return loop_s


def run_fleet_pass(workload, tasks, recorder: FleetRecorder) -> Pass:
    """Run the batch through the fleet executor.

    The workers' loop samples are taken out of the pass's CPU (this
    process plus the reaped workers), and their share per worker out of
    its wall; then both are scaled by the pass's slowdown (see
    :meth:`FleetRecorder.collect`).
    """
    from repro.experiments import run_fleet_driver
    cpu0 = sum(cpu_seconds())
    start = time.perf_counter()
    run = run_fleet_driver(_TaskList(workload.name, tasks),
                           workers=workload.workers,
                           shard_size=workload.shard_size)
    wall = time.perf_counter() - start
    cpu = sum(cpu_seconds()) - cpu0
    result = Pass(run.sink)
    result.fleet = run.result
    result.attempted = len(tasks)
    result.completed = sum(s.completed for s in run.sink.schemes.values())
    not_completed = run.sink.sessions - result.completed
    result.failed = (run.result.failed + run.result.abandoned_tasks
                     + not_completed)
    loop_s = result.loop_s = recorder.collect(result)
    wall -= loop_s / max(1, run.result.workers_effective)
    cpu -= loop_s
    result.raw_wall_s, result.raw_cpu_s = wall, cpu
    result.wall_s = wall / result.slowdown
    result.cpu_s = cpu / result.slowdown
    return result


# -- set-up ------------------------------------------------------------------


def set_up(workload, seed: int, warmup_index: int, import_s: float):
    """Generate the batch and run one untimed warm-up session.

    Returns the tasks, the set-up time from process start at the
    reference speed (loop samples from just before it began and just
    after it ended), and fingerprints for the checks.
    """
    from repro.experiments import parallel
    t0 = time.perf_counter()
    tasks = workload.make_tasks(seed)
    task = tasks[warmup_index % len(tasks)]
    outcome = parallel.execute_session_task(task)
    raw_s = import_s + time.perf_counter() - t0
    factor = slowdown(_LOOPS_BEFORE_SETUP, loop_samples())
    return tasks, raw_s / factor, {"inputs": fingerprint(tasks),
                                   "warmup_key": repr(task.key),
                                   "warmup": fingerprint(outcome),
                                   "raw_setup_s": raw_s}


def probe_setup(args) -> dict:
    """Set-up in a fresh process (``--setup-probe K``), timed from start."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", str(args.probe_index)]
    out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                         text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- metrics -----------------------------------------------------------------


def qoe_metrics(sink) -> dict:
    """Simulated QoE of the treatment sessions, from a pass's sink."""
    from workloads import TREATMENT
    x = sink.get(TREATMENT)
    n = x.rct.count
    p = tail_percentile(n)
    return {
        "qoe.rct_p50_ms": x.rct.percentile(50) * 1e3,
        "qoe.rct_tail_ms": x.rct.percentile(p) * 1e3,
        "qoe.rct_tail_pct": p,
        "qoe.rct_n": n,
        "qoe.rebuffer_pct": x.rebuffer_rate * 100.0,
        "qoe.startup_p50_ms": x.startup.percentile(50) * 1e3,
        "qoe.redundant_pct": x.reinjection_overhead_percent,
    }


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def check_pass(checks: Checks, result: Pass, first: Pass, label: str) -> None:
    checks.expect(result.attempted == result.completed + result.failed,
                  f"{label}: {result.attempted} sessions attempted but "
                  f"{result.completed} completed and {result.failed} failed")
    checks.expect(result.failed == 0,
                  f"{label}: {result.failed} sessions failed")
    fleet = result.fleet
    if fleet is not None:
        checks.expect(fleet.retries == 0 and not fleet.shard_faults,
                      f"{label}: supervisor retried shards "
                      f"{fleet.shard_faults}")
        checks.expect(not fleet.interrupted, f"{label}: interrupted")
        checks.expect(fleet.tasks == result.attempted,
                      f"{label}: fleet ran {fleet.tasks} of "
                      f"{result.attempted} tasks")
    checks.expect(len(result.outcomes) == result.attempted,
                  f"{label}: {len(result.outcomes)} outcomes recorded for "
                  f"{result.attempted} sessions")
    if result is not first:
        checks.expect(result.sink.digest() == first.sink.digest(),
                      f"{label}: merged sink digest differs from pass 1")
        checks.expect(result.outcomes == first.outcomes,
                      f"{label}: session outcomes differ from pass 1")
        checks.expect(qoe_metrics(result.sink) == qoe_metrics(first.sink),
                      f"{label}: simulated QoE differs from pass 1")


def end_to_end(workload, passes, setups, raw_setups, rss_kb) -> dict:
    sessions = sum(p.completed for p in passes)
    wall = sum(p.wall_s for p in passes)
    raw_wall = sum(p.raw_wall_s for p in passes)
    samples = [ms for p in passes for ms in p.session_ms]
    p_tail = tail_percentile(len(samples))
    from repro.metrics.stats import percentile
    values = {
        "sessions_per_s": sessions / wall,
        "session_ms_p50": statistics.median(samples),
        "session_ms_tail": percentile(samples, p_tail),
        "cpu_ms_per_session": sum(p.cpu_s for p in passes) * 1e3 / sessions,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }
    qoe = qoe_metrics(passes[0].sink)
    values.update({k: qoe[k] for k in END_TO_END_UNITS if k in qoe})
    print(f"# {workload.name}: {len(passes)} pass(es), {sessions} sessions "
          f"in {wall:.2f} s at the reference speed; session_ms_tail is "
          f"p{p_tail} of n={len(samples)}")
    print(f"# as measured: {raw_wall:.2f} s timed, "
          f"{sessions / raw_wall:.4g} sessions/s, "
          f"{sum(p.raw_cpu_s for p in passes) * 1e3 / sessions:.4g} CPU ms "
          f"per session, set-up median {statistics.median(raw_setups):.4g} s;"
          f" slowdown against the reference speed per pass "
          + " ".join(f"{p.slowdown:.3f}" for p in passes))
    print(f"# simulated QoE of the {len(passes[0].outcomes)}-session batch "
          f"(treatment only): " + ", ".join(
              f"{k}={v:.6g}" for k, v in qoe.items()))
    print(f"# merged sink digest {passes[0].sink.digest()}")
    print(f"# peak RSS: this process {rss_kb[0] / 1024.0:.1f} MB, largest "
          f"reaped child {rss_kb[1] / 1024.0:.1f} MB")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


# -- main ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_ab", "mobility", "long_vod"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", dest="probe_index", type=int,
                        default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> float:
    """Put the checkout's ``src`` first on the path; seconds spent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro.experiments  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - _START


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    if args.probe_index is not None:
        _tasks, setup_s, prints = set_up(workload, args.seed,
                                         args.probe_index, import_s)
        prints["setup_s"] = setup_s
        print(json.dumps(prints))
        return 0

    checks = Checks()
    tasks, setup_s, prints = set_up(workload, args.seed, 0, import_s)
    setups, raw_setups = [setup_s], [prints["raw_setup_s"]]
    n_passes = max(1, round(args.seconds / workload.nominal_pass_s))

    OUT.mkdir(parents=True, exist_ok=True)
    spool = OUT / f"spool-{os.getpid()}"
    spool.mkdir()
    tracer = None
    try:
        recorder = (FleetRecorder(spool) if workload.workers > 1 else None)

        def one_pass():
            if recorder is None:
                return run_serial_pass(tasks)
            return run_fleet_pass(workload, tasks, recorder)

        passes = []
        if args.trace:
            passes.append(one_pass())
            import spans
            tracer = spans.Tracer()
            if recorder is not None:
                # the recorder must stay outermost, to spool the spans
                # of the whole shard
                recorder.uninstall()
                spans.instrument(tracer)
                recorder = FleetRecorder(spool, tracer)
            else:
                spans.instrument(tracer)
            kids0 = cpu_seconds()[1]
            passes.append(one_pass())
            children_cpu_s = cpu_seconds()[1] - kids0 - passes[-1].loop_s
        else:
            for _ in range(n_passes):
                passes.append(one_pass())
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    for i, result in enumerate(passes):
        check_pass(checks, result, passes[0], f"pass {i + 1}")
    checks.expect(prints["warmup"] == passes[0].outcomes.get(
        prints["warmup_key"]), "warm-up outcome differs from its timed run")

    if args.trace:
        import spans
        snap = spans.merge_snapshots([tracer.snapshot()]
                                     + passes[1].snapshots)
        metrics = spans.layer_metrics(
            snap, workload=workload, untraced=passes[0], traced=passes[1],
            children_cpu_s=children_cpu_s, qoe=qoe_metrics(passes[0].sink))
        dump = OUT / f"trace-{workload.name}-{args.seed}.json"
        dump.write_text(json.dumps(snap, indent=1, sort_keys=True))
        print(spans.format_table(snap))
        print(f"# span aggregate written to {dump.relative_to(ROOT)}")
    else:
        for k in range(1, SETUP_SAMPLES):
            args.probe_index = k
            probe = probe_setup(args)
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])
            checks.expect(probe["inputs"] == prints["inputs"],
                          f"setup probe {k}: inputs differ for the seed")
            checks.expect(probe["warmup"] == passes[0].outcomes.get(
                probe["warmup_key"]),
                f"setup probe {k}: warm-up outcome differs from timed run")
        metrics = end_to_end(workload, passes, setups, raw_setups, rss_kb)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
