"""One supervised executor for every parallel experiment.

Every experiment in this repository decomposes into *independent*
discrete-event sessions: each one builds its own :class:`EventLoop`,
network and endpoints from a ``(spec, seed)`` pair and never touches
another session's state.  That makes the population drivers (the
Fig. 11 A/B day, threshold sweeps, mobility replays, path experiments)
embarrassingly parallel -- the same reason Mahimahi-style emulation
farms run one shell per experiment.

All of them run through one supervision loop, :func:`_supervise`.
Work arrives as *chunks* (lists of items), and each use supplies a
**chunk body** that runs inside the worker and a **fold** that
validates and merges its payload in the parent.  With ``workers > 1``
every chunk attempt is its own forked process with a one-shot result
pipe, so a dying worker costs one retried chunk, not the run; with
``workers=1`` the same loop launches attempts in-process.

- :func:`fan_out` -- an ordered map of any callable over a list of
  kwargs dicts: the fold stores each chunk's results by chunk index,
  so a parallel run is **bit-identical** to the serial loop it
  replaces.  :func:`run_session_tasks` maps it over
  :class:`SessionTask` specs, returning plain-data
  :class:`SessionOutcome` records instead of live ``SessionResult``
  objects.
- :func:`run_fleet` -- the reduce-style fleet tier.  At 10K users one
  pickled result per session is exactly wrong, so
  :func:`execute_shard` folds a slice of tasks into one
  :class:`~repro.metrics.sink.MetricSink` inside the worker and only
  the O(buckets) :class:`ShardResult` crosses back.  Sink merge is
  associative, commutative and exactly order-independent, so a sharded
  or retried run's merged digest is **identical** to the serial run's.

Determinism contract: each task carries its own fully-derived seed
(the caller derives it from the experiment seed exactly as the serial
code did), so a worker reconstructs the identical RNG streams no
matter which process it runs in.  The only cross-session global is the
debug-only ``dgram_id`` counter, which no metric reads.

:class:`FaultPlan` is the worker-fault analog of the transport tier's
``ChaosSchedule``: a seeded, scripted plan that makes selected shards
crash the worker process, hang past the deadline, raise, or return a
corrupted result -- the harness the supervisor invariants are soaked
against (``repro.experiments.fleetchaos``, ``make fleet-chaos``).
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.experiments.harness import (SCHEMES, PathSpec, SchemeConfig,
                                       run_video_session)
from repro.metrics.qoe import SessionMetrics
from repro.metrics.sink import MetricSink
from repro.traces.radio_profiles import RadioType
from repro.video import PlayerConfig
from repro.video.media import Video

__all__ = [
    "SessionTask",
    "SessionOutcome",
    "ShardResult",
    "FleetResult",
    "FaultPlan",
    "FaultInjected",
    "available_workers",
    "resolve_workers",
    "fan_out",
    "execute_session_task",
    "run_session_tasks",
    "execute_shard",
    "iter_shards",
    "validate_shard_result",
    "run_fleet",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF_S",
    "ABANDONED_KIND",
]


def available_workers() -> int:
    """Number of workers ``workers=None`` resolves to (``os.cpu_count``)."""
    return max(os.cpu_count() or 1, 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Map the public ``workers`` argument to a concrete worker count."""
    if workers is None or workers <= 0:
        return available_workers()
    return int(workers)


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


#: Chunks :func:`fan_out` cuts per worker: ~4 dispatch rounds per
#: worker balance fork/pickle overhead against tail latency from
#: uneven session costs.
_CHUNKS_PER_WORKER = 4


class _Raised:
    """A task exception carried back as a chunk payload."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


def _map_chunk(fn: Callable[..., Any], jobs: List[Dict[str, Any]]) -> Any:
    """:func:`fan_out`'s chunk body: results in order, or the first
    task exception (which the parent re-raises; a seeded task fails the
    same way every time, so it is never retried)."""
    results = []
    for kwargs in jobs:
        try:
            results.append(fn(**kwargs))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            return _Raised(exc)
    return results


def fan_out(fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]],
            workers: Optional[int] = None) -> List[Any]:
    """Run ``fn(**kwargs)`` for every dict, preserving submission order.

    ``workers`` follows the repo-wide convention: ``None``/``0`` means
    ``os.cpu_count()``, ``1`` runs in-process.  Forked workers inherit
    ``fn`` and its kwargs; only return values cross back, so they must
    be picklable.  A task that raises is re-raised here, like
    ``pool.map``.  A chunk whose worker dies is retried; if its retries
    run out, ``RuntimeError`` is raised instead of a partial list.
    """
    return _ordered_map(fn, kwargs_list, workers)[0]


def _ordered_map(fn: Callable[..., Any],
                 kwargs_list: Sequence[Dict[str, Any]],
                 workers: Optional[int]) -> Tuple[List[Any], int]:
    """:func:`fan_out`, plus the peak worker count the run used."""
    jobs = list(kwargs_list)
    n_workers = resolve_workers(workers)
    size = max(1, len(jobs) // (n_workers * _CHUNKS_PER_WORKER))
    chunks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    results: Dict[int, List[Any]] = {}

    def fold(chunk: _Chunk, payload: Any) -> Optional[str]:
        if isinstance(payload, _Raised):
            raise payload.exc
        if not isinstance(payload, list) or len(payload) != len(chunk.items):
            return f"expected {len(chunk.items)} results"
        results[chunk.index] = payload
        return None

    run = _supervise(chunks, functools.partial(_map_chunk, fn), fold,
                     n_workers)
    if run.interrupted:
        raise KeyboardInterrupt
    if run.abandoned:
        raise RuntimeError(
            f"fan_out: {len(run.abandoned)} chunk(s) abandoned after "
            f"{DEFAULT_MAX_RETRIES} retries (faults: {run.faults})")
    return ([r for index in range(len(chunks)) for r in results[index]],
            max(1, run.peak))


@dataclass
class SessionTask:
    """Picklable spec for one independent simulated video session.

    ``key`` is an opaque caller-side handle (e.g. ``(user, scheme)``)
    echoed back on the outcome so results can be re-grouped without
    relying on list positions.  ``scheme_config`` carries dynamically
    registered scheme variants (threshold sweeps, ACK-policy ablations)
    into the worker process, where they may not exist in the inherited
    ``SCHEMES`` registry.
    """

    key: Any
    scheme: str
    paths: List[PathSpec]
    video: Optional[Video] = None
    player_config: Optional[PlayerConfig] = None
    timeout_s: float = 120.0
    seed: int = 0
    primary_order: Optional[Sequence[RadioType]] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    scheme_config: Optional[SchemeConfig] = None


@dataclass
class SessionOutcome:
    """The picklable subset of ``SessionResult`` population drivers use."""

    key: Any
    scheme: str
    completed: bool
    duration_s: float
    metrics: SessionMetrics
    reinjected_bytes: int = 0
    new_stream_bytes: int = 0


def execute_session_task(task: SessionTask) -> SessionOutcome:
    """Worker entry point: run one session, return plain data only."""
    if task.scheme_config is not None and task.scheme not in SCHEMES:
        SCHEMES[task.scheme] = task.scheme_config
    result = run_video_session(
        task.scheme, task.paths, video=task.video,
        player_config=task.player_config, timeout_s=task.timeout_s,
        seed=task.seed, primary_order=task.primary_order, **task.kwargs)
    return SessionOutcome(
        key=task.key, scheme=task.scheme, completed=result.completed,
        duration_s=result.duration_s, metrics=result.metrics,
        reinjected_bytes=result.reinjected_bytes,
        new_stream_bytes=result.new_stream_bytes)


def run_session_tasks(tasks: Sequence[SessionTask],
                      workers: Optional[int] = None
                      ) -> List[SessionOutcome]:
    """Execute tasks (parallel when ``workers`` allows), in task order."""
    return fan_out(execute_session_task, [{"task": t} for t in tasks],
                   workers=workers)


# ---------------------------------------------------------------------------
# fleet tier: shard-level reduction
# ---------------------------------------------------------------------------

#: Tasks per shard.  Big enough that shard dispatch overhead (one
#: fork + pickle round trip per shard) is noise against ~50ms/session
#: DES work, small enough that 10K tasks still spread over >100 shards.
DEFAULT_SHARD_SIZE = 64

#: Re-execution attempts granted to a failed/timed-out/lost shard
#: before it is quarantined into the abandoned tallies.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential retry backoff between forked attempts (an
#: in-process retry runs at once -- there is no crashed worker to cool
#: off).
DEFAULT_RETRY_BACKOFF_S = 0.25

#: Failure kind recorded (per scheme, per task) in the merged sink when
#: a shard exhausts its retries and is quarantined.
ABANDONED_KIND = "ShardAbandoned"

#: Exit code an injected worker crash dies with (``os._exit``).
_FAULT_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """Raised inside a worker by a :class:`FaultPlan` 'raise' fault."""


@dataclass(frozen=True)
class FaultPlan:
    """Scripted worker-fault plan for fleet shards.

    The experiment-infrastructure analog of the transport tier's
    ``ChaosSchedule`` (PR 3): a seeded, deterministic plan that makes
    selected shards misbehave *at the worker level* so the supervisor
    in :func:`run_fleet` can be tested against real process death:

    - **crash** -- the worker process dies with ``os._exit`` (the
      OOM-kill shape: no exception, no result, pipe EOF);
    - **hang** -- the worker sleeps ``hang_s`` before executing, so a
      ``shard_timeout_s`` deadline must kill it;
    - **raise** -- the worker raises :class:`FaultInjected` out of the
      shard body (a bug in harness code, as opposed to the per-task
      failures ``execute_shard`` already tallies);
    - **corrupt** -- the worker returns a :class:`ShardResult` whose
      accounting is inconsistent, which result validation must catch.

    Shards are selected either explicitly (``*_shards`` index tuples)
    or probabilistically: a per-shard RNG derived from
    ``(seed, shard index)`` draws once against the cumulative rates,
    so membership is a pure function of the shard index -- independent
    of execution order and of how many shards exist.

    By default a fault fires only on a shard's **first** attempt, so a
    retried shard succeeds and the run's merged digest must equal the
    fault-free digest.  ``sticky=True`` fires the fault on every
    attempt, driving the shard to abandonment (the non-retryable
    case).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    corrupt_rate: float = 0.0
    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    raise_shards: Tuple[int, ...] = ()
    corrupt_shards: Tuple[int, ...] = ()
    #: how long a hung worker sleeps (should exceed ``shard_timeout_s``)
    hang_s: float = 3600.0
    #: False: fault fires on attempt 0 only (retry succeeds);
    #: True: fault fires on every attempt (shard ends up abandoned).
    sticky: bool = False

    def fault_kind(self, shard_index: int) -> Optional[str]:
        """The fault class afflicting a shard, or ``None``."""
        if shard_index in self.crash_shards:
            return "crash"
        if shard_index in self.hang_shards:
            return "hang"
        if shard_index in self.raise_shards:
            return "raise"
        if shard_index in self.corrupt_shards:
            return "corrupt"
        rates = (("crash", self.crash_rate), ("hang", self.hang_rate),
                 ("raise", self.raise_rate), ("corrupt", self.corrupt_rate))
        if any(rate > 0.0 for _, rate in rates):
            from repro.sim.rng import make_rng
            draw = make_rng(self.seed, f"fleet-fault-{shard_index}").random()
            for kind, rate in rates:
                if draw < rate:
                    return kind
                draw -= rate
        return None

    def fires(self, shard_index: int, attempt: int) -> Optional[str]:
        """The fault to inject on this attempt (``None`` = run clean)."""
        kind = self.fault_kind(shard_index)
        if kind is None or (attempt > 0 and not self.sticky):
            return None
        return kind

    def is_noop(self) -> bool:
        return (not any((self.crash_rate, self.hang_rate, self.raise_rate,
                         self.corrupt_rate))
                and not any((self.crash_shards, self.hang_shards,
                             self.raise_shards, self.corrupt_shards)))


@dataclass
class ShardResult:
    """What one worker returns for a whole slice of tasks.

    This -- not a list of per-session outcomes -- is the only thing
    crossing the process boundary in a fleet run; its size is
    O(schemes x sketch buckets) regardless of how many sessions the
    shard executed.
    """

    sink: MetricSink
    tasks: int = 0
    #: execution failures, keyed by exception type name
    failures: Dict[str, int] = field(default_factory=dict)


def execute_shard(tasks: Sequence[SessionTask]) -> ShardResult:
    """Worker entry point: run a task slice, reduce locally.

    A task that raises is tallied (per exception type, and per scheme
    inside the sink) instead of poisoning the whole shard -- at 10K
    users a single pathological parameter draw must not void the run.
    """
    result = ShardResult(sink=MetricSink())
    for task in tasks:
        result.tasks += 1
        try:
            outcome = execute_session_task(task)
        except Exception as exc:  # noqa: BLE001 - tallied, not hidden
            kind = type(exc).__name__
            result.failures[kind] = result.failures.get(kind, 0) + 1
            result.sink.observe_failure(task.scheme, kind)
            continue
        result.sink.observe(outcome)
    return result


def iter_shards(tasks: Iterable[SessionTask],
                shard_size: int = DEFAULT_SHARD_SIZE
                ) -> Iterator[List[SessionTask]]:
    """Lazily slice a task iterable into shard-sized lists."""
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    it = iter(tasks)
    while True:
        shard = list(islice(it, shard_size))
        if not shard:
            return
        yield shard


@dataclass
class FleetResult:
    """Merged outcome of a (possibly sharded, supervised) fleet run.

    ``failures`` are *per-task* execution failures tallied inside
    healthy shards; ``shard_faults`` are *supervision-level* events --
    worker crashes, deadline kills (``timeout``), shard-body exception
    type names, and ``corrupt`` result rejections -- each of which
    triggered a retry or, past the budget, abandonment.
    """

    sink: MetricSink
    tasks: int = 0
    shards: int = 0
    workers_requested: int = 1
    #: most shard attempts in flight at once (1 for an in-process run)
    workers_effective: int = 1
    failures: Dict[str, int] = field(default_factory=dict)
    #: shard re-executions granted (one per retryable fault)
    retries: int = 0
    #: shards quarantined after exhausting their retry budget
    abandoned_shards: int = 0
    #: tasks inside those shards (tallied as ABANDONED_KIND in the sink)
    abandoned_tasks: int = 0
    #: supervision fault tallies, keyed by kind
    shard_faults: Dict[str, int] = field(default_factory=dict)
    #: True when a KeyboardInterrupt cut the run short (partial fold)
    interrupted: bool = False

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok(self) -> bool:
        """Every session ran, nothing abandoned, nothing cut short."""
        return (not self.failed and not self.abandoned_shards
                and not self.interrupted)


def validate_shard_result(result: Any, expected_tasks: int
                          ) -> Optional[str]:
    """Check a worker's returned payload; ``None`` if sound.

    A shard result that crosses a process boundary is untrusted input
    to the merge: a worker dying mid-pickle, a fault injector, or a
    harness bug can hand back garbage that would silently skew a
    population merge.  Returns a human-readable defect description so
    the supervisor can treat the shard as failed (and retry it).
    """
    if not isinstance(result, ShardResult):
        return f"not a ShardResult: {type(result).__name__}"
    if not isinstance(result.sink, MetricSink):
        return f"sink is not a MetricSink: {type(result.sink).__name__}"
    if result.tasks != expected_tasks:
        return (f"task count {result.tasks} != shard size "
                f"{expected_tasks}")
    if not isinstance(result.failures, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v >= 0
            for k, v in result.failures.items()):
        return "malformed failure tally"
    accounted = result.sink.sessions + sum(result.failures.values())
    if accounted != expected_tasks:
        return (f"sessions+failures {accounted} != shard size "
                f"{expected_tasks}")
    return None


def _corrupt_shard_result(result: ShardResult) -> ShardResult:
    """The payload an injected 'corrupt' fault returns (inconsistent
    task accounting, so validation must reject it)."""
    return ShardResult(sink=result.sink, tasks=result.tasks + 1,
                       failures=result.failures)


@dataclass
class _Chunk:
    """One unit of supervised work across its attempts."""

    index: int
    items: List[Any]
    attempt: int = 0
    #: monotonic-clock gate for the next launch (exponential backoff)
    ready_at: float = 0.0


@dataclass
class _Run:
    """What one :func:`_supervise` run observed besides its folds."""

    #: chunk re-executions granted (one per retryable fault)
    retries: int = 0
    #: failed attempts, keyed by kind (``crash``/``timeout``/exception
    #: type name/``corrupt``)
    faults: Dict[str, int] = field(default_factory=dict)
    #: item lists of the chunks that exhausted their retry budget
    abandoned: List[List[Any]] = field(default_factory=list)
    #: True when a KeyboardInterrupt cut the run short
    interrupted: bool = False
    #: most chunk attempts that were ever in flight at once
    peak: int = 0


def _attempt(body: Callable[[List[Any]], Any], chunk: _Chunk,
             fault_plan: Optional[FaultPlan], forked: bool) -> Tuple:
    """Run one chunk attempt: ``("ok", payload)`` or ``("error", kind)``.

    An in-process attempt cannot die or be preempted without taking
    the parent with it, so there an injected crash or hang is reported
    under its own kind instead of acted out.
    """
    kind = (fault_plan.fires(chunk.index, chunk.attempt)
            if fault_plan is not None else None)
    if kind == "raise":
        raise FaultInjected(f"injected shard failure (shard {chunk.index}, "
                            f"attempt {chunk.attempt})")
    if kind in ("crash", "hang") and not forked:
        return ("error", kind)
    if kind == "crash":
        os._exit(_FAULT_EXIT_CODE)
    if kind == "hang":
        time.sleep(fault_plan.hang_s)
    payload = body(chunk.items)
    if kind == "corrupt":
        payload = _corrupt_shard_result(payload)
    return ("ok", payload)


def _worker(conn, body: Callable[[List[Any]], Any], chunk: _Chunk,
            fault_plan: Optional[FaultPlan]) -> None:
    """Child-process entry: run one chunk attempt, send one payload.

    A worker that dies without sending (crash fault, OOM kill,
    segfault) is detected by the parent as EOF on the pipe.
    """
    try:
        payload = _attempt(body, chunk, fault_plan, forked=True)
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        payload = ("error", type(exc).__name__)
    try:
        conn.send(payload)
        conn.close()
    except Exception:  # pragma: no cover - parent vanished
        os._exit(1)


def _kill_process(proc) -> None:
    """Terminate a worker without leaving a zombie behind."""
    try:
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
    except Exception:  # pragma: no cover - already-reaped races
        pass


def _supervise(chunks: Iterable[List[Any]],
               body: Callable[[List[Any]], Any],
               fold: Callable[[_Chunk, Any], Optional[str]],
               workers: int,
               max_retries: int = DEFAULT_MAX_RETRIES,
               retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
               timeout_s: Optional[float] = None,
               fault_plan: Optional[FaultPlan] = None) -> _Run:
    """The executor: run every chunk through ``body``, ``fold`` results.

    ``chunks`` is consumed lazily, so the parent holds only in-flight
    and awaiting-retry chunks.  Each attempt ends in one of three
    states:

    - **folded** -- ``fold`` accepted the payload (returned ``None``);
    - **retrying** -- the worker died, overran ``timeout_s``, the body
      raised, or ``fold`` rejected the payload (``corrupt``); the chunk
      re-enters the queue after ``retry_backoff_s * 2**attempt`` and is
      re-run from its item list;
    - **abandoned** -- ``max_retries`` retries are spent; the chunk's
      items are listed in :attr:`_Run.abandoned` for the caller.

    An exception raised by ``fold`` aborts the run; like an interrupt,
    it terminates every in-flight worker first.
    """
    forked = workers > 1 and _fork_available()
    ctx = multiprocessing.get_context("fork") if forked else None
    backoff_s = retry_backoff_s if forked else 0.0
    run = _Run()
    chunk_iter = iter(chunks)
    retry_queue: List[_Chunk] = []
    inflight: Dict[Any, Tuple[_Chunk, Any, Optional[float]]] = {}
    next_index = 0

    def settle(chunk: _Chunk, payload: Optional[Tuple]) -> None:
        if payload is None:
            # Pipe EOF without a payload: the worker died (OOM kill,
            # os._exit, segfault) before reporting.
            kind = "crash"
        elif payload[0] == "ok":
            if fold(chunk, payload[1]) is None:
                return
            kind = "corrupt"
        else:
            kind = payload[1]
        run.faults[kind] = run.faults.get(kind, 0) + 1
        if chunk.attempt >= max_retries:
            run.abandoned.append(chunk.items)
            return
        run.retries += 1
        chunk.attempt += 1
        chunk.ready_at = (time.monotonic()
                          + backoff_s * (2 ** (chunk.attempt - 1)))
        retry_queue.append(chunk)

    def next_chunk(now: float) -> Optional[_Chunk]:
        """The most-cooled ready retry, else the next fresh chunk."""
        nonlocal next_index
        ready = [c for c in retry_queue if c.ready_at <= now]
        if ready:
            chunk = min(ready, key=lambda c: c.ready_at)
            retry_queue.remove(chunk)
            return chunk
        items = next(chunk_iter, None)
        if items is None:
            return None
        next_index += 1
        return _Chunk(index=next_index - 1, items=items)

    def launch(chunk: _Chunk) -> None:
        run.peak = max(run.peak, len(inflight) + 1)
        if not forked:
            try:
                payload = _attempt(body, chunk, fault_plan, forked=False)
            except Exception as exc:  # noqa: BLE001 - a retryable fault
                payload = ("error", type(exc).__name__)
            settle(chunk, payload)
            return
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker,
                           args=(send_conn, body, chunk, fault_plan),
                           daemon=True)
        proc.start()
        send_conn.close()
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        inflight[recv_conn] = (chunk, proc, deadline)

    def reap(conn) -> None:
        chunk, proc, _deadline = inflight.pop(conn)
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            payload = None
        finally:
            conn.close()
        proc.join()
        settle(chunk, payload)

    try:
        while True:
            while len(inflight) < workers:
                chunk = next_chunk(time.monotonic())
                if chunk is None:
                    break
                launch(chunk)
            if not inflight:
                if not retry_queue:
                    break
                # Only backoff-gated retries remain: sleep them ready.
                ready_at = min(c.ready_at for c in retry_queue)
                time.sleep(max(0.0, ready_at - time.monotonic()))
                continue
            now = time.monotonic()
            wakeups = [deadline for (_c, _p, deadline) in inflight.values()
                       if deadline is not None]
            wakeups += [c.ready_at for c in retry_queue]
            wait_s = max(0.0, min(wakeups) - now) if wakeups else None
            for conn in multiprocessing.connection.wait(list(inflight),
                                                        timeout=wait_s):
                reap(conn)
            now = time.monotonic()
            for conn, (chunk, proc, deadline) in list(inflight.items()):
                if deadline is not None and now >= deadline:
                    del inflight[conn]
                    _kill_process(proc)
                    conn.close()
                    settle(chunk, ("error", "timeout"))
    except KeyboardInterrupt:
        run.interrupted = True
    finally:
        # Leave no forked child behind -- on a clean exit this is a
        # no-op; on an interrupt or abort it terminates every worker.
        for conn, (_chunk, proc, _deadline) in inflight.items():
            _kill_process(proc)
            conn.close()
        inflight.clear()
    return run


def run_fleet(tasks: Iterable[SessionTask],
              sink: Optional[MetricSink] = None,
              workers: Optional[int] = None,
              shard_size: int = DEFAULT_SHARD_SIZE,
              max_retries: int = DEFAULT_MAX_RETRIES,
              shard_timeout_s: Optional[float] = None,
              retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
              fault_plan: Optional[FaultPlan] = None) -> FleetResult:
    """Supervised reduce-style fleet execution: tasks -> shards -> sink.

    ``tasks`` may be (and for large populations should be) a lazy
    generator; the parent materializes only in-flight and
    awaiting-retry shards, and workers never return per-session
    outcomes, so memory stays bounded by ``workers * shard_size``
    tasks plus the O(buckets) sinks.  ``workers`` follows the
    repo-wide convention (``None``/``0`` = ``os.cpu_count()``, ``1`` =
    in-process).

    Supervision: each shard gets ``max_retries`` re-executions (with
    ``retry_backoff_s``-based exponential backoff between forked
    attempts) after a worker crash, a ``shard_timeout_s`` deadline
    kill, a shard-body exception, or a corrupted result; a shard that
    exhausts the budget is quarantined into the abandoned tallies.
    ``fault_plan`` injects exactly those fault classes for testing.
    ``KeyboardInterrupt`` terminates all workers and returns the
    partial fold with ``interrupted=True``.

    Determinism: every task carries its fully-derived seed, retries
    re-run from the original task list (never from a partial sink),
    and the sink merge is exactly order-independent -- so serial,
    sharded, and fault-retried runs produce identical merged digests
    for the same task stream whenever every fault was retryable.
    """
    merged = sink if sink is not None else MetricSink()
    n_workers = resolve_workers(workers)
    result = FleetResult(sink=merged, workers_requested=n_workers)

    def fold(chunk: _Chunk, shard_result: Any) -> Optional[str]:
        defect = validate_shard_result(shard_result, len(chunk.items))
        if defect is None:
            merged.merge(shard_result.sink)
            result.tasks += shard_result.tasks
            result.shards += 1
            for kind, n in shard_result.failures.items():
                result.failures[kind] = result.failures.get(kind, 0) + n
        return defect

    # execute_shard is looked up when the worker runs, so a wrapper
    # installed on the module global (e2ebench's recorder) sees every
    # shard.
    run = _supervise(iter_shards(tasks, shard_size),
                     lambda shard: execute_shard(shard), fold, n_workers,
                     max_retries=max_retries,
                     retry_backoff_s=retry_backoff_s,
                     timeout_s=shard_timeout_s, fault_plan=fault_plan)
    for shard in run.abandoned:
        result.abandoned_tasks += len(shard)
        for task in shard:
            merged.observe_failure(task.scheme, ABANDONED_KIND)
    result.abandoned_shards = len(run.abandoned)
    result.retries = run.retries
    result.shard_faults = run.faults
    result.interrupted = run.interrupted
    result.workers_effective = max(1, run.peak)
    return result
