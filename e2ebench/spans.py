"""Span tracing from outside the program, for the traced benchmark run.

:func:`instrument` wraps public functions of every layer in place (class
attributes and module globals), so each call records a span named
``<layer>.<qualified name>``, the layer being :func:`layer_of` the
module that defines the function.  Event-loop callbacks are wrapped
when they are scheduled and recorded as ``<layer>.event``, where the
layer is the package that defined the callback: time the loop spends
running a ``quic`` timer is charged to ``quic``, not to ``sim``.  The
tracer keeps each span's layer, so nothing parses span names.

Spans nest strictly (one thread; a fleet worker is its own process), so
a span's *self time* is its duration minus the durations of the spans
it directly contains.  Spans are aggregated in memory per name --
calls, total seconds, self seconds -- because one pass records
millions of them; :meth:`Tracer.snapshot` hands the aggregate to the
caller, which writes it out when the run ends.

:func:`instrument` must run before any session is built: several layers
capture bound methods when their objects are constructed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


def layer_of(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to (``quic.crypto`` apart).

    The only place that maps code to layers: span names and the self
    time charged to each layer both come from it.
    """
    if not module or not module.startswith("repro."):
        return "other"
    parts = module.split(".")
    if parts[1] == "quic" and len(parts) > 2 and parts[2] == "crypto":
        return "quic.crypto"
    if parts[1] == "experiments" and len(parts) > 2 \
            and parts[2] == "parallel":
        return "parallel"
    return parts[1]


class Tracer:
    """Per-process span aggregate plus the counters read off finished
    sessions (link, connection and event-loop statistics)."""

    def __init__(self) -> None:
        #: span name -> [calls, total_s, self_s, errors]
        self.spans: Dict[str, List[float]] = {}
        #: span name -> layer
        self.layers: Dict[str, str] = {}
        #: child-time accumulator of every open span, innermost last
        self._stack: List[float] = []
        self.counts: Dict[str, float] = {}
        self._nets: List[Any] = []
        self._event_layers: Dict[Any, str] = {}

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers keep their slots)."""
        for slot in self.spans.values():
            slot[:] = [0, 0.0, 0.0, 0]
        self._stack.clear()
        self.counts.clear()
        self._nets.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def slot(self, layer: str, name: str) -> List[float]:
        span = f"{layer}.{name}"
        slot = self.spans.get(span)
        if slot is None:
            slot = self.spans[span] = [0, 0.0, 0.0, 0]
            self.layers[span] = layer
        return slot

    def wrap(self, layer: str, name: str, fn: Callable,
             after: Optional[Callable[[Any, tuple], None]] = None
             ) -> Callable:
        """``fn`` recording the span ``<layer>.<name>``; ``after(result,
        args)`` runs outside the timed interval when the call returns
        normally."""
        slot = self.slot(layer, name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                if not ok:
                    slot[3] += 1
                elif after is not None:
                    after(result, args)

        return traced

    # -- event-loop callbacks ------------------------------------------

    def event_layer(self, callback: Callable) -> str:
        """Layer of the package that defined an event-loop callback."""
        target = getattr(callback, "__func__", callback)
        target = getattr(target, "func", target)      # functools.partial
        code = getattr(target, "__code__", None)
        key = code if code is not None else type(target)
        layer = self._event_layers.get(key)
        if layer is None:
            layer = layer_of(getattr(target, "__module__", None))
            self._event_layers[key] = layer
        return layer

    # -- session statistics --------------------------------------------

    def note_network(self, net: Any) -> None:
        self._nets.append(net)

    def harvest(self, session_result: Any) -> None:
        """Fold one finished session's link and connection counters."""
        for conn in (session_result.client, session_result.server):
            if conn is None:
                continue
            stats = conn.stats
            self.count("quic.packets_sent", stats.packets_sent)
            self.count("quic.acks_sent", stats.acks_sent)
            self.count("quic.stream_bytes_new", stats.stream_bytes_new)
            self.count("quic.stream_bytes_rtx", stats.stream_bytes_rtx)
        self.count("core.reinjected_bytes", session_result.reinjected_bytes)
        self.count("core.new_stream_bytes", session_result.new_stream_bytes)
        for net in self._nets:
            for path in net.paths.values():
                for direction in (path.uplink, path.downlink):
                    offered = (direction.loss_box.packets_dropped
                               + direction.loss_box.packets_forwarded)
                    self.count("netem.offered", offered)
                    self.count("netem.dropped",
                               direction.loss_box.packets_dropped
                               + direction.link.stats.packets_dropped)
        self._nets.clear()
        self.count("sessions")

    def snapshot(self) -> Dict[str, Any]:
        spans = {k: list(v) for k, v in self.spans.items() if v[0]}
        return {"spans": spans,
                "layers": {k: self.layers[k] for k in spans},
                "counts": dict(self.counts)}


def merge_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    spans: Dict[str, List[float]] = {}
    layers: Dict[str, str] = {}
    counts: Dict[str, float] = {}
    for snap in snaps:
        for name, v in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += v[i]
        layers.update(snap["layers"])
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "layers": layers, "counts": counts}


def _patch(owner: Any, attr: str, tracer: Tracer,
           after: Optional[Callable] = None, fn: Optional[Callable] = None
           ) -> None:
    """Replace ``owner.attr`` by its traced form (``fn`` if given).

    The span is named after the original function: ``<layer of its
    module>.<its qualified name>``.
    """
    original = getattr(owner, attr)
    wrapped = tracer.wrap(layer_of(original.__module__),
                          original.__qualname__,
                          fn if fn is not None else original, after)
    setattr(owner, attr, wrapped)


def _own_methods(module: Any, method: str) -> List[type]:
    """Classes of ``module`` that define ``method`` themselves."""
    return [cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and method in vars(cls)]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Call it once per process: the patches are not undone.
    """
    from repro.core import qoe_control, scheduler
    from repro.experiments import fleet, harness, parallel
    from repro.host import client, runtime, server, specs
    from repro.lb import frontend
    from repro.metrics import sink
    from repro.netem import link, network
    from repro.quic import connection, crypto, frames, loss_detection
    from repro.sim import event_loop
    from repro.video import media, player
    from repro.video import server as video_server

    # experiments.parallel: the executor and its worker entry points
    _patch(fleet, "run_fleet", tracer)
    _patch(parallel, "execute_shard", tracer)
    _patch(parallel, "execute_session_task", tracer)

    # host + lb
    _patch(runtime.SessionRuntime, "add_session", tracer)
    _patch(runtime.SessionRuntime, "run", tracer)
    _patch(runtime.SessionRuntime, "result", tracer,
           after=lambda result, _args: tracer.harvest(result))
    for owner in (harness, specs):
        _patch(owner, "build_network", tracer,
               after=lambda net, _args: tracer.note_network(net))
    _patch(server.ServerHost, "on_datagram", tracer)
    _patch(client.ClientEndpoint, "on_datagram", tracer)
    _patch(frontend.CdnFrontend, "on_datagram", tracer)

    # sim: the loop itself, and every callback it dispatches
    loop_run = event_loop.EventLoop.run

    def run_counted(self, *args, **kwargs):
        events, now = self.events_run, self.now
        try:
            return loop_run(self, *args, **kwargs)
        finally:
            tracer.count("sim.events", self.events_run - events)
            tracer.count("sim.virtual_s", self.now - now)

    _patch(event_loop.EventLoop, "run", tracer, fn=run_counted)
    schedule_at = event_loop.EventLoop.schedule_at

    def schedule_traced(self, when, callback, label=""):
        wrapped = tracer.wrap(tracer.event_layer(callback), "event",
                              callback)
        return schedule_at(self, when, wrapped, label)

    event_loop.EventLoop.schedule_at = schedule_traced

    # netem
    for cls in _own_methods(link, "send"):
        _patch(cls, "send", tracer)
    _patch(network.EmulatedPath, "send_from_client", tracer)
    _patch(network.EmulatedPath, "send_from_server", tracer)

    # quic
    _patch(connection.Connection, "datagram_received", tracer)
    _patch(crypto.PacketProtection, "seal", tracer)
    _patch(crypto.PacketProtection, "open", tracer)
    for owner in (frames, connection):
        _patch(owner, "encode_frames", tracer)
        _patch(owner, "decode_frames", tracer)
    _patch(loss_detection.PathLossDetector, "on_ack_received", tracer)

    # core
    for cls in _own_methods(scheduler, "select_path"):
        _patch(cls, "select_path", tracer)
    for cls in _own_methods(scheduler, "on_qoe"):
        _patch(cls, "on_qoe", tracer)

    def note_decision(decision, _args):
        tracer.count("core.reinject_yes", 1 if decision else 0)

    _patch(qoe_control.DoubleThresholdController, "should_reinject", tracer,
           after=note_decision)

    # video
    _patch(media.Video, "frames_in_bytes", tracer)
    _patch(player.VideoPlayer, "qoe_signals", tracer)
    _patch(video_server.MediaServer, "attach", tracer)

    # metrics
    _patch(sink.MetricSink, "observe", tracer)
    _patch(sink.MetricSink, "merge", tracer)


# -- per-layer metrics ------------------------------------------------------

#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "parallel.shards": "count",
    "parallel.retries": "count",
    "parallel.abandoned_tasks": "count",
    "parallel.worker_busy_pct": "%",
    "parallel.tail_idle_s": "s",
    "parallel.shard_ms_p50": "ms",
    "host.session_setup_ms": "ms",
    "host.demux_us": "us",
    "lb.route_us": "us",
    "host.self_pct": "%",
    "sim.events_per_session": "count",
    "sim.events_per_sim_s": "1/s",
    "sim.us_per_event": "us",
    "sim.sim_s_per_host_s": "s/s",
    "sim.self_pct": "%",
    "netem.datagrams": "count",
    "netem.drop_pct": "%",
    "netem.send_us": "us",
    "netem.self_pct": "%",
    "quic.packets_per_session": "count",
    "quic.us_per_packet": "us",
    "quic.receive_us": "us",
    "quic.crypto.seal_us": "us",
    "quic.crypto.open_us": "us",
    "quic.crypto.open_failed": "count",
    "quic.frames.encode_us": "us",
    "quic.frames.decode_us": "us",
    "quic.loss.on_ack_us": "us",
    "quic.rtx_pct": "%",
    "quic.acks_per_packet": "ratio",
    "quic.self_pct": "%",
    "quic.crypto.self_pct": "%",
    "core.select_path_us": "us",
    "core.reinject_checks": "count",
    "core.reinject_yes_pct": "%",
    "core.redundant_pct": "%",
    "core.self_pct": "%",
    "video.frames_in_bytes_us": "us",
    "video.frames_in_bytes_calls": "count",
    "video.qoe_signals_calls": "count",
    "video.self_pct": "%",
    "metrics.observe_us": "us",
    "metrics.merge_us": "us",
    "metrics.buckets": "count",
    "qoe.rct_tail_ms": "ms",
    "qoe.redundant_pct": "%",
    "qoe.rebuffer_pct": "%",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: Dict[str, Any], *, workload: Any, untraced: Any,
                  traced: Any, children_cpu_s: float,
                  qoe: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced pass (see README.md)."""
    spans = snap["spans"]
    counts = snap["counts"]
    empty = [0, 0.0, 0.0, 0]

    def calls(prefix: str, suffix: str = "") -> float:
        return sum(v[0] for k, v in spans.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def total(prefix: str, suffix: str = "") -> float:
        return sum(v[1] for k, v in spans.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def mean_us(prefix: str, suffix: str = "", index: int = 1) -> float:
        n = calls(prefix, suffix)
        return _ratio(sum(v[index] for k, v in spans.items()
                          if k.startswith(prefix) and k.endswith(suffix))
                      * 1e6, n)

    self_by_layer: Dict[str, float] = {}
    for name, v in spans.items():
        layer = snap["layers"][name]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + v[2]
    session_s = spans.get("parallel.execute_session_task", empty)[1]

    def self_pct(*layers: str) -> float:
        return _ratio(100.0 * sum(self_by_layer.get(layer, 0.0)
                                  for layer in layers), session_s)

    sessions = counts.get("sessions", 0)

    def per_session(n: float) -> float:
        return _ratio(n, sessions)

    packets = counts.get("quic.packets_sent", 0)
    events = counts.get("sim.events", 0)
    virtual_s = counts.get("sim.virtual_s", 0.0)
    loop_s = spans.get("sim.EventLoop.run", empty)[1]
    checks = calls("core.DoubleThresholdController.should_reinject")

    fleet = traced.fleet
    shard_s = sorted(end - start for start, end in traced.shards)
    tail_idle = 0.0
    if fleet is not None and traced.shards:
        ends = sorted(end for _start, end in traced.shards)
        last = ends[-workload.workers:]
        tail_idle = sum(last[-1] - end for end in last)

    values = {
        "parallel.shards": fleet.shards if fleet else 0,
        "parallel.retries": fleet.retries if fleet else 0,
        "parallel.abandoned_tasks": fleet.abandoned_tasks if fleet else 0,
        "parallel.worker_busy_pct": (
            _ratio(100.0 * children_cpu_s,
                   workload.workers * traced.raw_wall_s) if fleet else 0.0),
        "parallel.tail_idle_s": tail_idle,
        "parallel.shard_ms_p50": (
            shard_s[len(shard_s) // 2] * 1e3 if shard_s else 0.0),
        "host.session_setup_ms": per_session(
            1e3 * (total("host.build_network")
                   + total("host.SessionRuntime.add_session"))),
        "host.demux_us": mean_us("host.", ".on_datagram", index=2),
        "lb.route_us": mean_us("lb.CdnFrontend.on_datagram", index=2),
        "host.self_pct": self_pct("host", "lb"),
        "sim.events_per_session": per_session(events),
        "sim.events_per_sim_s": _ratio(events, virtual_s),
        "sim.us_per_event": _ratio(1e6 * loop_s, events),
        "sim.sim_s_per_host_s": _ratio(virtual_s, loop_s),
        "sim.self_pct": self_pct("sim"),
        "netem.datagrams": per_session(calls("netem.", "Link.send")),
        "netem.drop_pct": _ratio(100.0 * counts.get("netem.dropped", 0),
                                 counts.get("netem.offered", 0)),
        "netem.send_us": mean_us("netem.", "Link.send"),
        "netem.self_pct": self_pct("netem"),
        "quic.packets_per_session": per_session(packets),
        "quic.us_per_packet": _ratio(
            1e6 * (self_by_layer.get("quic", 0.0)
                   + self_by_layer.get("quic.crypto", 0.0)), packets),
        "quic.receive_us": mean_us("quic.Connection.datagram_received"),
        "quic.crypto.seal_us": mean_us("quic.crypto.PacketProtection.seal"),
        "quic.crypto.open_us": mean_us("quic.crypto.PacketProtection.open"),
        "quic.crypto.open_failed": spans.get(
            "quic.crypto.PacketProtection.open", empty)[3],
        "quic.frames.encode_us": mean_us("quic.encode_frames"),
        "quic.frames.decode_us": mean_us("quic.decode_frames"),
        "quic.loss.on_ack_us": mean_us(
            "quic.PathLossDetector.on_ack_received"),
        "quic.rtx_pct": _ratio(100.0 * counts.get("quic.stream_bytes_rtx", 0),
                               counts.get("quic.stream_bytes_new", 0)),
        "quic.acks_per_packet": _ratio(counts.get("quic.acks_sent", 0),
                                       packets),
        "quic.self_pct": self_pct("quic"),
        "quic.crypto.self_pct": self_pct("quic.crypto"),
        "core.select_path_us": mean_us("core.", ".select_path"),
        "core.reinject_checks": per_session(checks),
        "core.reinject_yes_pct": _ratio(
            100.0 * counts.get("core.reinject_yes", 0), checks),
        "core.redundant_pct": _ratio(
            100.0 * counts.get("core.reinjected_bytes", 0),
            counts.get("core.new_stream_bytes", 0)),
        "core.self_pct": self_pct("core"),
        "video.frames_in_bytes_us": mean_us("video.Video.frames_in_bytes"),
        "video.frames_in_bytes_calls": per_session(
            calls("video.Video.frames_in_bytes")),
        "video.qoe_signals_calls": per_session(
            calls("video.VideoPlayer.qoe_signals")),
        "video.self_pct": self_pct("video"),
        "metrics.observe_us": mean_us("metrics.MetricSink.observe"),
        "metrics.merge_us": mean_us("metrics.MetricSink.merge"),
        "metrics.buckets": traced.sink.n_buckets,
        "qoe.rct_tail_ms": qoe["qoe.rct_tail_ms"],
        "qoe.redundant_pct": qoe["qoe.redundant_pct"],
        "qoe.rebuffer_pct": qoe["qoe.rebuffer_pct"],
        "trace.overhead_pct": 100.0 * (_ratio(traced.wall_s,
                                              untraced.wall_s) - 1.0),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def format_table(snap: Dict[str, Any], top: int = 40) -> str:
    """Human-readable span table, largest self time first."""
    spans = snap["spans"]
    total_self = sum(v[2] for v in spans.values()) or 1.0
    lines = [f"# {'span':<52} {'calls':>10} {'total_s':>9} "
             f"{'self_s':>9} {'self%':>6}"]
    for name, v in sorted(spans.items(), key=lambda kv: -kv[1][2])[:top]:
        lines.append(f"# {name:<52} {int(v[0]):>10} {v[1]:>9.3f} "
                     f"{v[2]:>9.3f} {100.0 * v[2] / total_self:>6.1f}")
    return "\n".join(lines)
