"""Span tracing for the benchmark's traced run, installed from outside.

Nothing in ``src/`` knows about this module. :meth:`Tracer.install`
replaces, on the classes and modules themselves, each layer's public
entry points with wrappers that record a span:

* the kernel's ``run_until`` (the root of every simulated interval);
* every scheduled callback, attributed to the module that defines the
  code it runs (timers to the function they repeat);
* each ``Actor`` subclass's ``on_message``;
* ``WeightedStats.add``, the grouping ``split``/``task_for`` functions,
  ``encode_state``/``decode_state``/``restore_into``/``group_of`` in the
  modules that call them, ``StateManager.set/put/get/create``,
  packing ``pack``/``repack`` and scheduler ``on_schedule``/``on_update``;
* user spout and bolt methods (including ``snapshot_state`` and
  ``init_state``).

Spans (name, start, end, parent) of the measured window are kept in
memory, up to a cap, and written out at the end. Self time is computed
as each span's duration minus the time its child spans cover, and summed
per layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

from pb_spec import LAYERS

#: Module prefix -> layer; the first match wins, so specific modules
#: come before their packages. Unlisted modules belong to ``other``.
_MODULE_LAYERS = (
    ("repro.simulation.actors", "actors"),
    ("repro.simulation.events", "simulation"),
    ("repro.simulation.calqueue", "simulation"),
    ("repro.core.stream_manager", "stream_manager"),
    ("repro.core.instance", "instance"),
    ("repro.core.topology_master", "topology_master"),
    ("repro.core.metrics_manager", "metrics_manager"),
    ("repro.core", "heron"),
    ("repro.api.grouping", "grouping"),
    ("repro.metrics", "stats"),
    ("repro.checkpoint", "checkpoint"),
    ("repro.statemgr", "statemgr"),
    ("repro.autoscale", "autoscale"),
    ("repro.packing", "packing"),
    ("repro.scheduler", "scheduler"),
    ("repro.workloads", "user"),
    ("pb_workloads", "user"),
)

#: Spout/Bolt methods that run user logic.
_USER_METHODS = ("open", "prepare", "next_batch", "next_tuple", "execute",
                 "execute_batch", "ack", "fail", "init_state",
                 "snapshot_state")


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _subclasses(cls) -> List[type]:
    """``cls`` and all its (transitive) subclasses, each once."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """In-memory span recorder with per-name self/inclusive time."""

    def __init__(self, cap: int = 2_500_000) -> None:
        self.cap = cap
        self.names: List[str] = []
        self.layer_index: List[int] = []
        self._ids: Dict[str, int] = {}
        self.self_t: List[float] = []
        self.incl_t: List[float] = []
        self.calls: List[int] = []
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self._stack: List[List[Any]] = []
        self.origin = perf_counter()
        self._callback_ids: Dict[Any, int] = {}
        self._repeating: Any = type(None)
        self.pending_peak = 0
        self.state_bytes = 0
        self.writes = 0
        self.bytes_written = 0
        self._write_depth = 0
        self.actors: List[Any] = []

    # -- span bookkeeping ---------------------------------------------------
    def name_id(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self.layer_index.append(LAYERS.index(layer))
            self.self_t.append(0.0)
            self.incl_t.append(0.0)
            self.calls.append(0)
        return nid

    def call(self, nid: int, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``nid``."""
        stack = self._stack
        idx = len(self.span_start)
        if idx < self.cap:
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][0] if stack else -1)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_t[nid] += duration - frame[1]
            self.incl_t[nid] += duration
            self.calls[nid] += 1
            if stack:
                stack[-1][1] += duration
            if idx >= 0:
                self.span_start[idx] = start - self.origin
                self.span_end[idx] = end - self.origin

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        nid = self.name_id(layer, name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def _wrap_methods(self, cls: type, methods, layer: str) -> None:
        for method in methods:
            fn = cls.__dict__.get(method)
            if inspect.isfunction(fn):
                setattr(cls, method, self.wrap(
                    fn, layer, f"{cls.__name__}.{method}"))

    # -- scheduled callbacks ------------------------------------------------
    def callback_id(self, fn: Callable) -> int:
        """Span name for a scheduled callback: the defining module of the
        code it runs (a repeating timer's, the function it repeats)."""
        while True:
            if isinstance(fn, functools.partial):
                fn = fn.func
                continue
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, self._repeating):
                fn = owner._fn
                continue
            break
        func = getattr(fn, "__func__", fn)
        while hasattr(func, "__wrapped__"):  # one of this module's wrappers
            func = func.__wrapped__
        code = getattr(func, "__code__", None)
        key = code if code is not None else type(func)
        nid = self._callback_ids.get(key)
        if nid is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", type(func).__name__)
            nid = self._callback_ids[key] = self.name_id(
                layer_of_module(module), qualname)
        return nid

    def _traced_callback(self, fn: Callable) -> Callable:
        nid = self.callback_id(fn)
        call = self.call

        def callback(*args):
            return call(nid, fn, args, {})
        return callback

    def _note_pending(self, sim) -> None:
        live = sim._live
        if live > self.pending_peak:
            self.pending_peak = live

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer's entry points (call once, before setup)."""
        import repro.autoscale.keygroups as keygroups
        import repro.checkpoint.coordinator as coordinator
        import repro.checkpoint.repartition as repartition
        import repro.core.instance as instance
        import repro.workloads.elastic as elastic
        from repro.api.component import Bolt, Spout
        from repro.api.grouping import GroupingInstance
        from repro.metrics.stats import WeightedStats
        from repro.packing.base import ResourceManager
        from repro.scheduler.base import Scheduler
        from repro.simulation.actors import Actor
        from repro.simulation.calqueue import CalendarSimulator
        from repro.simulation.events import RepeatingEvent, Simulator
        from repro.statemgr.base import StateManager

        tracer = self
        self._repeating = RepeatingEvent
        for kernel in (Simulator, CalendarSimulator):
            self._install_kernel(kernel)

        actor_init = Actor.__init__

        @functools.wraps(actor_init)
        def register(actor, *args, **kwargs):
            actor_init(actor, *args, **kwargs)
            tracer.actors.append(actor)
        Actor.__init__ = register
        for cls in _subclasses(Actor):
            self._wrap_methods(cls, ("on_message",),
                               layer_of_module(cls.__module__))

        for cls in _subclasses(GroupingInstance):
            self._wrap_methods(cls, ("split", "task_for"), "grouping")
        self._wrap_methods(WeightedStats, ("add",), "stats")
        for cls in _subclasses(Spout) + _subclasses(Bolt):
            if cls not in (Spout, Bolt):
                self._wrap_methods(cls, _USER_METHODS, "user")
        for cls in _subclasses(ResourceManager):
            self._wrap_methods(cls, ("pack", "repack"), "packing")
        for cls in _subclasses(Scheduler):
            self._wrap_methods(cls, ("on_schedule", "on_update"),
                               "scheduler")

        self._wrap_methods(StateManager, ("get",), "statemgr")
        for method in ("set", "put", "create"):
            self._wrap_write(StateManager, method)

        encode = repartition.encode_state
        traced_encode = self.wrap(encode, "checkpoint", "encode_state")

        @functools.wraps(encode)
        def encode_counted(state):
            blob = traced_encode(state)
            tracer.state_bytes += len(blob)
            return blob
        decode = self.wrap(repartition.decode_state, "checkpoint",
                           "decode_state")
        for module in (instance, repartition):
            module.encode_state = encode_counted
            module.decode_state = decode
        coordinator.restore_into = self.wrap(
            coordinator.restore_into, "autoscale", "restore_into")
        group_of = self.wrap(keygroups.group_of, "autoscale", "group_of")
        for module in (keygroups, elastic):
            module.group_of = group_of
        return self

    def _install_kernel(self, kernel: type) -> None:
        traced_callback = self._traced_callback
        note_pending = self._note_pending
        schedule = kernel.__dict__["schedule"]
        push = kernel.__dict__["_push"]

        @functools.wraps(schedule)
        def traced_schedule(sim, delay, fn, *args):
            handle = schedule(sim, delay, traced_callback(fn), *args)
            note_pending(sim)
            return handle

        @functools.wraps(push)
        def traced_push(sim, handle, delay):
            handle.fn = traced_callback(handle.fn)
            push(sim, handle, delay)
            note_pending(sim)

        kernel.schedule = traced_schedule
        kernel._push = traced_push
        kernel.run_until = self.wrap(kernel.__dict__["run_until"],
                                     "simulation", "run_until")

    def _wrap_write(self, cls: type, method: str) -> None:
        """StateManager writes: a span, plus one counted write (and its
        bytes) per outermost call — ``put`` delegates to ``set``."""
        tracer = self
        traced = self.wrap(cls.__dict__[method], "statemgr",
                           f"{cls.__name__}.{method}")

        @functools.wraps(traced)
        def write(manager, path, data=b"", *args, **kwargs):
            if tracer._write_depth == 0:
                tracer.writes += 1
                tracer.bytes_written += len(data)
            tracer._write_depth += 1
            try:
                return traced(manager, path, data, *args, **kwargs)
            finally:
                tracer._write_depth -= 1
        setattr(cls, method, write)

    def clear_spans(self) -> None:
        """Forget recorded spans (not the per-name totals); call only
        between simulated intervals, when no span is open."""
        for column in (self.span_name, self.span_start, self.span_end,
                       self.span_parent):
            del column[:]
        self.dropped = 0

    # -- results ------------------------------------------------------------
    def totals(self) -> Dict[str, Any]:
        """Cumulative counters, for differencing across a window."""
        return {"self": list(self.self_t), "incl": list(self.incl_t),
                "calls": list(self.calls), "state_bytes": self.state_bytes,
                "writes": self.writes, "bytes_written": self.bytes_written}

    def write_spans(self, path: Path, meta: Dict[str, Any]) -> None:
        """Header as JSON, then the four span arrays as raw bytes
        (uint32 name, float64 start, float64 end, int32 parent)."""
        count = len(self.span_start)
        header = dict(meta, names=self.names,
                      layers=[LAYERS[i] for i in self.layer_index],
                      spans=count, dropped=self.dropped,
                      byteorder=sys.byteorder,
                      arrays=["name:I", "start:d", "end:d", "parent:i"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                column.tofile(out)


class LayerProbe:
    """Per-layer metrics of one measured window of a traced workload."""

    def __init__(self, tracer: Tracer, workload) -> None:
        self.tracer = tracer
        self.workload = workload
        tracer.clear_spans()  # the written spans cover the window only
        self.start = self._sample()
        tracer.pending_peak = workload.cluster.sim.pending_events

    def _sample(self) -> Dict[str, Any]:
        from repro.core.instance import HeronInstance
        from repro.core.stream_manager import StreamManager
        handle = self.workload.handle
        actors: Dict[str, Dict[int, tuple]] = {"sm": {}, "inst": {}}
        for actor in self.tracer.actors:
            if isinstance(actor, StreamManager):
                pool = actor.pool_stats
                actors["sm"][id(actor)] = (
                    actor.messages_processed, actor.busy_time,
                    actor.tuples_routed, actor.acks_routed,
                    actor.batches_out, actor.backpressure_starts,
                    pool.acquires, pool.hits)
            elif isinstance(actor, HeronInstance):
                actors["inst"][id(actor)] = (actor.messages_processed,
                                             actor.busy_time)
        return {"trace": self.tracer.totals(), "actors": actors,
                "tiers": self.workload.cluster.base_network.tier_counts(),
                "checkpoint": handle.checkpoint_stats(),
                "autoscale": handle.autoscaler_stats()}

    @staticmethod
    def _delta(end: Dict[int, tuple], start: Dict[int, tuple]) -> List:
        width = len(next(iter(end.values()))) if end else 0
        sums = [0.0] * width
        for key, row in end.items():
            base = start.get(key, (0,) * width)
            for i in range(width):
                sums[i] += row[i] - base[i]
        return sums

    def finish(self, run_wall_s: float) -> Dict[str, float]:
        tracer, start, end = self.tracer, self.start, self._sample()
        t0, t1 = start["trace"], end["trace"]
        window_self = {layer: 0.0 for layer in LAYERS}
        run_self = dict(window_self)
        window_calls = dict(window_self)
        for nid, layer_index in enumerate(tracer.layer_index):
            layer = LAYERS[layer_index]
            base = nid < len(t0["self"])
            window_self[layer] += t1["self"][nid] - (
                t0["self"][nid] if base else 0.0)
            window_calls[layer] += t1["calls"][nid] - (
                t0["calls"][nid] if base else 0)
            run_self[layer] += t1["self"][nid]

        def named(column: str, name: str) -> float:
            nid = tracer._ids.get(name)
            if nid is None:
                return 0.0
            base = t0[column][nid] if nid < len(t0[column]) else 0.0
            return float(t1[column][nid] - base)

        sm = self._delta(end["actors"]["sm"], start["actors"]["sm"]) \
            or [0.0] * 8
        inst = self._delta(end["actors"]["inst"],
                           start["actors"]["inst"]) or [0.0] * 2
        tiers = {k: end["tiers"][k] - start["tiers"].get(k, 0)
                 for k in end["tiers"]}
        inter_machine = (tiers.get("cross_machine", 0)
                         + tiers.get("same_rack", 0)
                         + tiers.get("cross_rack", 0))
        ck0, ck1 = start["checkpoint"], end["checkpoint"]
        triggered = ck1["triggered"] - ck0["triggered"]
        committed = ck1["committed"] - ck0["committed"]
        accounted = sum(window_self.values())
        metrics = {
            "simulation.pending_peak": float(tracer.pending_peak),
            "network.messages": float(sum(tiers.values())),
            "network.cross_rack_share": (
                tiers.get("cross_rack", 0) / inter_machine
                if inter_machine else 0.0),
            "stream_manager.messages": sm[0],
            "stream_manager.sim_busy_s": sm[1],
            "stream_manager.tuples_routed": sm[2],
            "stream_manager.acks_routed": sm[3],
            "stream_manager.batches_out": sm[4],
            "stream_manager.backpressure_starts": sm[5],
            "serialization.pool_hit_ratio": sm[7] / sm[6] if sm[6] else 0.0,
            "instance.messages": inst[0],
            "instance.sim_busy_s": inst[1],
            "grouping.calls": window_calls["grouping"],
            "stats.add_s": named("incl", "stats:WeightedStats.add"),
            "stats.adds": named("calls", "stats:WeightedStats.add"),
            "checkpoint.encode_s": named("incl", "checkpoint:encode_state"),
            "checkpoint.decode_s": named("incl", "checkpoint:decode_state"),
            "checkpoint.state_bytes": float(t1["state_bytes"]
                                            - t0["state_bytes"]),
            "checkpoint.commit_ratio": (committed / triggered
                                        if triggered else 0.0),
            "checkpoint.restores": float(ck1["restores"] - ck0["restores"]),
            "statemgr.writes": float(t1["writes"] - t0["writes"]),
            "statemgr.bytes_written": float(t1["bytes_written"]
                                            - t0["bytes_written"]),
            "autoscale.repartition_s": named("incl", "autoscale:restore_into"),
            "autoscale.group_of_s": named("incl", "autoscale:group_of"),
            "autoscale.rescales": (end["autoscale"]["rescales"]
                                   - start["autoscale"]["rescales"]),
            # Packing and scheduling run mostly during setup (and on each
            # rescale), so these two cover the whole process.
            "packing.pack_s": run_self["packing"],
            "scheduler.schedule_s": run_self["scheduler"],
            "trace.residual_share": ((run_wall_s - accounted) / run_wall_s
                                     if run_wall_s else 0.0),
        }
        for layer, seconds in window_self.items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics
