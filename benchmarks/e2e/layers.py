"""Outside-in layer tracing for the traced benchmark run.

The untraced run imports the program unmodified.  The traced run wraps
each layer's public entry points from the outside and restores them
afterwards:

- task steps: every task spawned through ``repro.sim.Cluster.spawn`` is
  driven through a timing proxy; its layer is the task function's module
  (``runtime.master``, ``runtime.slave``, ``strategies.stealing``, ...);
- ``apps.kernels``: every AppKernels-interface method on a plan's kernels;
- ``runtime.partition``: ``owned``, ``transfers_toward`` and ``apply``;
- ``runtime.balancer``: ``decide`` at its binding in ``runtime.master``;
- ``fastcopy``: the copy functions at their bindings in ``sim.network``,
  ``sim.machine`` and ``runtime.slave``;
- ``compiler``: the app builders;
- ``sim.load``: the load generators the benchmark passes in;
- ``sim``: the rest of each run (event loop, syscalls, launcher).

A layer's self time is its busy time minus the busy time of the layers
nested in it; ``sim`` self time is the run's wall time minus all nested
layer time, so self times sum to the run's wall time.

Spans ``(id, name, start, end, parent, run)`` are kept in memory: one per
run and one per kernel, partition, balancer or compiler call.  Task
steps, copies and load calls happen up to ~1e5 times per run and are
only counted.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["LAYERS", "Tracer", "layer_metrics"]

#: Layers with a time split, in reporting order.
LAYERS = (
    "compiler",
    "apps.kernels",
    "runtime.master",
    "runtime.slave",
    "runtime.partition",
    "runtime.balancer",
    "fastcopy",
    "sim",
    "sim.load",
    "strategies.stealing",
    "strategies.rdlb",
    "scale.hierarchy",
    "baselines.diffusion",
)

#: Layers that are not measured, and why.
UNMEASURED = {
    "obs": "off on every timed path",
    "orchestrator": "bypassed: the benchmark runs workloads in-process",
    "ckpt": "appears only in the two crash runs; its time counts as sim",
    "faults": "appears only in the two crash runs; its time counts as sim",
}

_LOAD_METHODS = ("k_at", "next_change", "segment_start", "competing_busy_time")
_PARTITION_METHODS = ("owned", "transfers_toward", "apply")
_MISSING = object()


def _nbytes(obj: Any) -> int:
    """Array bytes in a payload (computed from array sizes)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _layer_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or "unknown"
    return module.removeprefix("repro.")


class Tracer:
    """Per-layer busy/self time, call counts and spans for one process."""

    def __init__(self) -> None:
        #: layer -> [calls, busy_s, self_s], cumulative
        self.totals: dict[str, list] = {}
        #: call counts by span/counter name, e.g. ``runtime.partition:owned``
        self.names: Counter = Counter()
        #: sends to the master pid by task layer
        self.master_sends: Counter = Counter()
        self.copied_bytes = 0
        self.spans: list[tuple] = []
        #: per-run wall time, layer split and engine event count
        self.runs: list[dict[str, Any]] = []
        self.wrapped: list[str] = []
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []
        self._clusters: dict[int, Any] = {}
        self._run_id = -1
        self._next_span = 0

    # -- accounting ----------------------------------------------------

    def _enter(self, layer: str) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _leave(self, layer: str, acc: list, frame: list[float], t0: float) -> float:
        dt = perf_counter() - t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dt
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        acc[0] += 1
        acc[2] += dt - frame[0]
        if not depth:  # outermost frame of this layer: no double counting
            acc[1] += dt
        return dt

    def _acc(self, layer: str) -> list:
        return self.totals.setdefault(layer, [0, 0.0, 0.0])

    def _timed(self, layer: str, name: str, fn: Callable, span: bool) -> Callable:
        acc = self._acc(layer)
        names = self.names

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if span:
                sid = self._next_span
                self._next_span = sid + 1
                parent = self._span_stack[-1] if self._span_stack else None
                self._span_stack.append(sid)
            frame = self._enter(layer)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self._leave(layer, acc, frame, t0)
                names[name] += 1
                if span:
                    self._span_stack.pop()
                    self.spans.append((sid, name, t0, t0 + dt, parent, self._run_id))

        return timed

    def _counted(self, fn: Callable) -> Callable:
        """Count payload bytes outside the timed copy."""

        @functools.wraps(fn)
        def counted(payload, *args, **kwargs):
            self.copied_bytes += _nbytes(payload)
            return fn(payload, *args, **kwargs)

        return counted

    def _drive(self, layer: str, gen, master_pid: int):
        """Proxy generator timing each step of task generator ``gen``."""
        from repro.sim import Send

        acc = self._acc(layer)
        send = gen.send
        value = None
        while True:
            frame = self._enter(layer)
            t0 = perf_counter()
            try:
                req = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._leave(layer, acc, frame, t0)
            if req.__class__ is Send and req.dst == master_pid:
                self.master_sends[layer] += 1
            value = yield req

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any, label: str) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)
        if label not in self.wrapped:
            self.wrapped.append(label)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def patch_compiler(self) -> None:
        """Wrap the app builders (the set-up phase's compiler calls)."""
        import repro.apps as apps

        for attr in sorted(vars(apps)):
            fn = getattr(apps, attr)
            if attr.startswith("build_") and callable(fn):
                self._patch(
                    apps,
                    attr,
                    self._timed("compiler", f"compiler:{attr}", fn, True),
                    f"repro.apps.{attr}",
                )

    def patch_runtime(self, plans: Sequence[Any]) -> None:
        """Wrap every run-time layer boundary (a binding that no longer
        exists is skipped and missing from ``wrapped``)."""
        import repro.fastcopy as fastcopy
        import repro.runtime.master as master
        import repro.runtime.partition as partition
        import repro.runtime.slave as slave
        import repro.sim.machine as machine
        import repro.sim.network as network
        from repro.compiler.plan import AppKernels

        tracer = self
        orig_spawn = machine.Cluster.spawn

        def spawn(cluster, pid, fn, *args, **kwargs):
            tracer._clusters[id(cluster)] = cluster
            layer = _layer_of(fn)

            def task(ctx, *a, **k):
                return tracer._drive(layer, fn(ctx, *a, **k), ctx.master_pid)

            task.__name__ = getattr(fn, "__name__", "task")
            return orig_spawn(cluster, pid, task, *args, **kwargs)

        self._patch(machine.Cluster, "spawn", spawn, "repro.sim.Cluster.spawn")

        if hasattr(master, "decide"):
            self._patch(
                master,
                "decide",
                self._timed(
                    "runtime.balancer", "runtime.balancer:decide", master.decide, True
                ),
                "repro.runtime.master.decide",
            )
        for cls in (partition.IndexPartition, partition.BlockPartition):
            for attr in _PARTITION_METHODS:
                if hasattr(cls, attr):
                    self._patch(
                        cls,
                        attr,
                        self._timed(
                            "runtime.partition",
                            f"runtime.partition:{attr}",
                            getattr(cls, attr),
                            True,
                        ),
                        f"repro.runtime.partition.{cls.__name__}.{attr}",
                    )

        def copier(name: str, fn: Callable) -> Callable:
            return self._counted(self._timed("fastcopy", f"fastcopy:{name}", fn, False))

        for module, attr in (
            (network, "snapshot_payload"),
            (machine, "snapshot_payload"),
            (slave, "fast_state_copy"),
        ):
            if hasattr(module, attr):
                self._patch(
                    module,
                    attr,
                    copier(attr, getattr(module, attr)),
                    f"{module.__name__}.{attr}",
                )
        if hasattr(machine, "payload_copier"):
            orig_copier = machine.payload_copier
            passthrough = getattr(fastcopy, "PASSTHROUGH", None)
            timed_copiers: dict[Any, Callable] = {}

            def payload_copier(cls):
                c = orig_copier(cls)
                if c is passthrough:
                    return c
                t = timed_copiers.get(c)
                if t is None:
                    t = timed_copiers[c] = copier("payload_copier", c)
                return t

            self._patch(
                machine,
                "payload_copier",
                payload_copier,
                "repro.sim.machine.payload_copier",
            )

        kernel_methods = [
            attr
            for attr, fn in vars(AppKernels).items()
            if callable(fn) and not attr.startswith("_")
        ]
        for plan in plans:
            kernels = getattr(plan, "kernels", None)
            if kernels is None:
                continue
            for attr in kernel_methods:
                self._patch(
                    kernels,
                    attr,
                    self._timed(
                        "apps.kernels",
                        f"apps.kernels:{attr}",
                        getattr(kernels, attr),
                        True,
                    ),
                    f"{type(kernels).__name__}.{attr}",
                )

    def wrap_loads(self, loads: dict) -> None:
        """Wrap the load generators of one run (fresh instances, so they
        are not restored)."""
        for gen in loads.values():
            for attr in _LOAD_METHODS:
                setattr(
                    gen,
                    attr,
                    self._timed(
                        "sim.load", f"sim.load:{attr}", getattr(gen, attr), False
                    ),
                )

    # -- runs ----------------------------------------------------------

    def run(self, label: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` as one run: its wall time is the ``sim`` root frame."""
        before = {layer: list(acc) for layer, acc in self.totals.items()}
        self._run_id += 1
        self._clusters = {}
        sid = self._next_span
        self._next_span = sid + 1
        self._span_stack.append(sid)
        acc = self._acc("sim")
        frame = self._enter("sim")
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = self._leave("sim", acc, frame, t0)
            self._span_stack.pop()
            self.spans.append((sid, f"run:{label}", t0, t0 + dt, None, self._run_id))
            zero = [0, 0.0, 0.0]
            self.runs.append(
                {
                    "run": label,
                    "wall_s": dt,
                    "layers": {
                        layer: [a - b for a, b in zip(acc_now, before.get(layer, zero))]
                        for layer, acc_now in self.totals.items()
                    },
                    "events": sum(
                        c.engine.events_processed for c in self._clusters.values()
                    ),
                }
            )

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    outcomes: Sequence[Any],
    scale: float,
    untraced_pass_s: float,
    traced_pass_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (host times probe-scaled by
    ``scale``); names match BENCHMARK.json's ``per_layer``."""
    totals = {layer: tracer.totals.get(layer, [0, 0.0, 0.0]) for layer in LAYERS}
    m: dict[str, float] = {}
    for layer in LAYERS:
        calls, busy, self_s = totals[layer]
        m[f"{layer}.busy_s"] = busy * scale
        m[f"{layer}.self_s"] = self_s * scale

    def calls(layer: str) -> int:
        return totals[layer][0]

    def by_plane(plane: str, key: str) -> int:
        return sum(o.counters.get(key, 0) for o in outcomes if o.plane == plane)

    def planes(plane: str) -> list:
        return [o for o in outcomes if o.plane == plane]

    wall = sum(r["wall_s"] for r in tracer.runs)
    m["compiler.calls"] = calls("compiler")
    m["apps.kernels.calls"] = calls("apps.kernels")
    m["apps.kernels.share"] = _ratio(totals["apps.kernels"][1], wall)
    m["runtime.master.steps"] = calls("runtime.master")
    m["runtime.master.reports"] = by_plane("runtime", "reports")
    m["runtime.slave.steps"] = calls("runtime.slave")
    m["runtime.partition.owned_calls"] = tracer.names["runtime.partition:owned"]
    m["runtime.balancer.decide_calls"] = tracer.names["runtime.balancer:decide"]
    m["runtime.balancer.moves_applied_ratio"] = _ratio(
        by_plane("runtime", "moves_applied"), by_plane("runtime", "moves_issued")
    )
    m["fastcopy.calls"] = calls("fastcopy")
    m["fastcopy.bytes"] = tracer.copied_bytes
    events = sum(r["events"] for r in tracer.runs)
    m["sim.events"] = events
    m["sim.events_per_s"] = _ratio(events, totals["sim"][2] * scale)
    m["sim.messages"] = sum(o.messages for o in outcomes)
    idle = avail = 0.0
    for o in outcomes:
        for usage in o.rusage.usages:
            if usage.pid < o.n_workers:
                idle += usage.idle_cpu
                avail += usage.available_cpu
    m["sim.idle_frac"] = _ratio(idle, avail)
    m["sim.load.calls"] = calls("sim.load")
    for plane in ("stealing", "rdlb"):
        layer = f"strategies.{plane}"
        runs = planes(plane)
        m[f"{layer}.steps"] = calls(layer)
        m[f"{layer}.false_deaths"] = sum(o.deaths - len(o.dead_pids) for o in runs)
    m["strategies.stealing.steal_hit_ratio"] = _ratio(
        by_plane("stealing", "steal_hits"), by_plane("stealing", "steals")
    )
    m["strategies.stealing.lost_units"] = sum(o.lost for o in planes("stealing"))
    m["strategies.rdlb.duplicate_ratio"] = _ratio(
        by_plane("rdlb", "duplicates"), by_plane("rdlb", "chunks")
    )
    m["strategies.rdlb.reassigns"] = by_plane("rdlb", "reassigns")
    m["scale.hierarchy.steps"] = calls("scale.hierarchy")
    m["scale.hierarchy.reports"] = by_plane("hierarchy", "reports")
    m["baselines.diffusion.steps"] = calls("baselines.diffusion")
    m["baselines.diffusion.reports"] = tracer.master_sends["baselines.diffusion"]
    m["trace.overhead_pct"] = 100.0 * (_ratio(traced_pass_s, untraced_pass_s) - 1.0)
    return m
