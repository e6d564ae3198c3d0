"""Cluster: processors + network + task scheduler on one event engine.

This is the top of the simulator substrate.  It launches application
tasks (generator functions), satisfies their syscalls, and provides
run-level accounting.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Callable, Generator, Iterable

from ..config import ClusterSpec
from ..errors import DeadlockError, SimulationError
from ..fastcopy import PASSTHROUGH, payload_copier
from ..faults.injector import FaultInjector
from ..obs import NULL_RECORDER, Recorder
from .engine import Engine
from .events import Message
from .load import LoadGenerator, NoLoad
from .network import Fabric, Mailbox, build_topology
from .process import Compute, Now, Poll, Recv, Send
from .processor import Processor
from .rusage import RusageReport, TaskUsage

__all__ = ["Cluster", "TaskContext"]

TaskFn = Callable[..., Generator[Any, Any, Any]]


def _tag_class(tag: str) -> str:
    """Coarse message class for metrics: the paper's overhead categories."""
    if tag == "lb.status":
        return "status"
    if tag == "lb.instr":
        return "instr"
    if tag.startswith("lb.move."):
        return "move"
    if tag == "lb.ckpt":
        return "ckpt"
    if tag.startswith("app."):
        return "app"
    if tag.startswith("sc."):
        return "scale"
    if tag.startswith("st."):
        return "steal"
    if tag.startswith("rb."):
        return "robust"
    return "other"


class TaskContext:
    """Handle given to every task; identifies it and exposes the cluster."""

    # ``core`` is attached by the slave runtime (diagnostics hook);
    # ``obs`` stays a property so the recorder has one owner.
    __slots__ = ("cluster", "pid", "core")

    def __init__(self, cluster: "Cluster", pid: int):
        self.cluster = cluster
        self.pid = pid

    @property
    def n_slaves(self) -> int:
        return self.cluster.spec.n_slaves

    @property
    def master_pid(self) -> int:
        return self.cluster.spec.master_pid

    @property
    def now(self) -> float:
        return self.cluster.engine._now

    @property
    def obs(self) -> Recorder:
        """The cluster's observability recorder (never ``None``)."""
        return self.cluster.obs

    def __repr__(self) -> str:
        return f"TaskContext(pid={self.pid})"


class _Task:
    __slots__ = ("pid", "gen", "done", "blocked_on", "wait", "finish_time", "name")

    def __init__(self, pid: int, gen: Generator[Any, Any, Any], name: str):
        self.pid = pid
        self.gen = gen
        self.done = False
        self.blocked_on: tuple[int | None, str | None] | None = None
        # Bumped by every blocking Recv, so a timeout armed by an earlier
        # wait finds a different token and does nothing.
        self.wait = 0
        self.finish_time: float | None = None
        self.name = name


class Cluster:
    """A simulated network of workstations.

    One application task may run per processor.  Processor ids
    ``0..n_slaves-1`` are the slaves; ``n_slaves`` is the master (see
    :class:`repro.config.ClusterSpec`).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        loads: dict[int, LoadGenerator] | None = None,
        recorder: Recorder | None = None,
        injector: FaultInjector | None = None,
        fabric_attach: dict[int, int] | None = None,
    ):
        self.spec = spec
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.engine = Engine(self.obs)
        loads = dict(loads or {})
        for pid in loads:
            if not 0 <= pid < spec.n_processors:
                raise SimulationError(f"load assigned to unknown processor {pid}")
        self.processors: list[Processor] = [
            Processor(pid, spec.spec_for(pid), loads.get(pid, NoLoad()), self.obs)
            for pid in range(spec.n_processors)
        ]
        self.mailboxes: list[Mailbox] = [
            Mailbox(pid, self.obs) for pid in range(spec.n_processors)
        ]
        self._tasks: dict[int, _Task] = {}
        # Hot-path bindings: the network spec and its per-message CPU
        # charges are resolved once instead of three attribute hops per
        # send/recv.
        self._net = spec.network
        self._send_cpu = spec.network.send_cpu
        self._recv_cpu = spec.network.recv_cpu
        self._net_latency = spec.network.latency
        self._net_bandwidth = spec.network.bandwidth
        self._n_procs = spec.n_processors  # property resolved once
        # Optional interconnect topology: None keeps the legacy crossbar
        # arithmetic below byte-identical; a fabric reprices arrivals
        # over explicit routed links (see repro.sim.network.Fabric).
        self._fabric = None
        if spec.topology is not None:
            members = spec.topology.n_members or spec.n_slaves
            self._fabric = Fabric(
                build_topology(spec.topology, members, spec.network),
                spec.network,
                fabric_attach,
            )
        # Pre-bound callbacks: scheduling happens once or more per event,
        # so the bound-method allocation and attribute hops add up.
        self._call_at = self.engine.call_at
        self._step_cb = self._step
        self._expire_cb = self._expire
        self._observe = self.obs.enabled
        self._deliver_cb = self._deliver
        # Per-instance copy of the syscall dispatch table; subclassed
        # syscalls get cached into it by _resolve_syscall.
        self._handlers = dict(_SYSCALLS)
        self._handlers_bases = tuple(self._handlers.items())
        # Delivery can hand a message straight to a blocked receiver and
        # push the resume onto the heap directly only when no injector
        # needs stall clamping and no observer needs true queue depths.
        self._fastpath = injector is None and not self._observe
        self.message_count = 0
        self.bytes_sent = 0
        self.retransmits = 0
        self.messages_lost = 0
        self.injector = injector
        self._dead: set[int] = set()
        self._send_seq: dict[tuple[int, int], int] = {}
        self._seen_seq: dict[int, set[tuple[int, int]]] = {}
        if injector is not None:
            injector.plan.validate_for(spec.n_slaves)
            for pid, t in injector.crash_times():
                self.engine.call_at(t, self._crash, pid)
        if self.obs.enabled:
            # Per-message CPU costs, so reports can price interaction
            # overhead without importing the runtime config.
            self.obs.metrics.gauge("net.send_cpu_per_msg").set(spec.network.send_cpu)
            self.obs.metrics.gauge("net.recv_cpu_per_msg").set(spec.network.recv_cpu)
            self.obs.metrics.gauge("cluster.n_slaves").set(float(spec.n_slaves))

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------

    def spawn(self, pid: int, fn: TaskFn, *args: Any, **kwargs: Any) -> TaskContext:
        """Launch task ``fn(ctx, *args, **kwargs)`` on processor ``pid``."""
        if not 0 <= pid < self.spec.n_processors:
            raise SimulationError(f"no such processor: {pid}")
        if pid in self._tasks:
            raise SimulationError(f"processor {pid} already has a task")
        ctx = TaskContext(self, pid)
        gen = fn(ctx, *args, **kwargs)
        task = _Task(pid, gen, getattr(fn, "__name__", "task"))
        self._tasks[pid] = task
        self._resume_later(self.engine._now, task, None)
        return ctx

    def task_finish_time(self, pid: int) -> float:
        """Virtual time at which the task on ``pid`` completed."""
        task = self._tasks.get(pid)
        if task is None or task.finish_time is None:
            raise SimulationError(f"task on processor {pid} has not finished")
        return task.finish_time

    @property
    def dead_pids(self) -> frozenset[int]:
        """Processors whose hosts crashed under fault injection."""
        return frozenset(self._dead)

    # ------------------------------------------------------------------
    # Scheduler core
    # ------------------------------------------------------------------

    def _resume_later(
        self, t: float, task: _Task, value: Any, fn: Callable[..., None] | None = None
    ) -> None:
        injector = self.injector
        if injector is not None:
            # A stalled host makes no progress: resumes that land inside
            # a stall window slide to the window's end.
            t = injector.stall_clamp(task.pid, t)
        self._call_at(t, fn or self._step_cb, task, value)

    def _expire(self, task: _Task, token: int) -> None:
        """A ``Recv`` timeout: resume the task with ``None`` if it is
        still in the wait that armed this timeout."""
        if task.wait == token and task.blocked_on is not None:
            task.blocked_on = None
            self._step(task, None)

    def _step(self, task: _Task, value: Any) -> None:
        if task.pid in self._dead:
            return  # crashed host: the task never runs again
        if task.done:  # pragma: no cover - defensive
            raise SimulationError(f"resuming finished task on {task.pid}")
        try:
            req = task.gen.send(value)
        except StopIteration:
            task.done = True
            task.finish_time = self.engine._now
            return
        handler = self._handlers.get(req.__class__)
        if handler is None:
            handler = self._resolve_syscall(req, task)
        handler(self, task, req)

    def _resolve_syscall(
        self, req: Any, task: _Task
    ) -> "Callable[[Cluster, _Task, Any], None]":
        """Dispatch slow path: subclassed syscalls keep their isinstance
        semantics (and are cached by concrete type); anything else is the
        unknown-syscall error."""
        for base, handler in self._handlers_bases:
            if isinstance(req, base):
                self._handlers[req.__class__] = handler
                return handler
        raise SimulationError(f"unknown syscall from task {task.pid}: {req!r}")

    # Per-syscall handlers, dispatched by concrete request type.  Each
    # pushes its resume straight onto the engine heap instead of going
    # through Engine.call_at: every scheduled time below is ``now`` plus
    # a non-negative, non-NaN increment (run_cpu validates its inputs),
    # so call_at's past/NaN guards cannot fire.  The entry layout must
    # match Engine's ``(t, seq, fn, args)``.  Under fault injection a
    # branch first slides the resume past any stall window of the host.

    def _do_compute(self, task: _Task, req: Compute) -> None:
        if req.fn is not None:
            req.fn()
        proc = self.processors[task.pid]
        eng = self.engine
        finish = proc.run_cpu(eng._now, req.ops / proc._speed)
        if self.injector is not None:
            finish = self.injector.stall_clamp(task.pid, finish)
        heappush(eng._heap, (finish, eng._seq, self._step_cb, (task, None)))
        eng._seq += 1

    def _do_recv(self, task: _Task, req: Recv) -> None:
        timeout = req.timeout
        if timeout is not None and timeout < 0:
            raise SimulationError(f"negative recv timeout: {timeout}")
        box = self.mailboxes[task.pid]
        # Skip the take() call for an empty queue — the common case when
        # receivers block ahead of arrivals.
        msg = box.take(req.src, req.tag) if box._queue else None
        if msg is None:
            task.blocked_on = (req.src, req.tag)
            task.wait += 1
            if timeout is not None:
                # The expiry is a resume like any other, so a stall
                # window slides it too.
                self._resume_later(
                    self.engine._now + timeout, task, task.wait, self._expire_cb
                )
            return
        eng = self.engine
        finish = self.processors[task.pid].run_cpu(eng._now, self._recv_cpu)
        if self.injector is not None:
            finish = self.injector.stall_clamp(task.pid, finish)
        heappush(eng._heap, (finish, eng._seq, self._step_cb, (task, msg)))
        eng._seq += 1

    def _do_poll(self, task: _Task, req: Poll) -> None:
        eng = self.engine
        t = eng._now
        box = self.mailboxes[task.pid]
        msg = box.take(req.src, req.tag) if box._queue else None
        if msg is not None:
            t = self.processors[task.pid].run_cpu(t, self._recv_cpu)
        if self.injector is not None:
            t = self.injector.stall_clamp(task.pid, t)
        heappush(eng._heap, (t, eng._seq, self._step_cb, (task, msg)))
        eng._seq += 1

    def _do_now(self, task: _Task, _req: Now) -> None:
        eng = self.engine
        now = t = eng._now
        if self.injector is not None:
            t = self.injector.stall_clamp(task.pid, t)
        heappush(eng._heap, (t, eng._seq, self._step_cb, (task, now)))
        eng._seq += 1

    def _do_send(self, task: _Task, req: Send) -> None:
        if not 0 <= req.dst < self._n_procs:
            raise SimulationError(f"send to unknown processor {req.dst}")
        nbytes = req.nbytes
        eng = self.engine
        cpu_done = self.processors[task.pid].run_cpu(eng._now, self._send_cpu)
        # Inlined snapshot_payload dispatch: immutable payloads (the
        # common case for control traffic) skip both call layers.
        payload = req.payload
        copier = payload_copier(payload.__class__)
        if copier is not PASSTHROUGH:
            payload = copier(payload)
        msg = Message(task.pid, req.dst, req.tag, payload, nbytes, cpu_done)
        if self._fabric is None:
            # Inlined NetworkSpec.transfer_time; the parentheses keep the
            # float summation order (and thus traces) bit-identical.
            arrival = cpu_done + (self._net_latency + nbytes / self._net_bandwidth)
        else:
            # Also books the route's links when the fabric models
            # contention, with or without an injector.
            arrival = self._fabric.arrival(task.pid, req.dst, nbytes, cpu_done)
        self.message_count += 1
        self.bytes_sent += nbytes
        if self._observe:
            kind = _tag_class(req.tag)
            self.obs.metrics.counter(f"net.msgs.{kind}").inc()
            self.obs.metrics.counter(f"net.bytes.{kind}").inc(nbytes)
            self.obs.metrics.counter("net.msgs_total").inc()
            self.obs.metrics.counter("net.bytes_total").inc(nbytes)
        if self.injector is not None:
            # Reliable transport: sequence the copy, then let _transmit
            # decide its fate and price each wire crossing itself.
            key = (task.pid, req.dst)
            msg.seq = self._send_seq.get(key, 0)
            self._send_seq[key] = msg.seq + 1
            self._transmit(msg, cpu_done, attempt=0)
            self._resume_later(cpu_done, task, None)
            return
        seq = eng._seq
        heap = eng._heap
        heappush(heap, (arrival, seq, self._deliver_cb, (msg,)))
        heappush(heap, (cpu_done, seq + 1, self._step_cb, (task, None)))
        eng._seq = seq + 2

    def _transmit(self, msg: Message, t_send: float, attempt: int) -> None:
        """One wire transmission attempt under fault injection.

        Dropped copies are retried with exponential backoff per the
        plan's transport policy.  A sender that has crashed since the
        original send cannot retransmit, and a copy that exhausts its
        retries is lost for good — from there, recovery is the
        runtime's job (heartbeat timeouts and work reassignment).
        """
        injector = self.injector
        assert injector is not None
        if attempt > 0 and msg.src in self._dead:
            return
        fate = injector.on_message(msg.src, msg.dst, msg.tag, t_send)
        if self.obs.enabled and fate.faulted:
            self.obs.emit_counter(
                "fault",
                "injected",
                t_send,
                1.0,
                pid=msg.src,
                meta={
                    "kinds": list(fate.kinds),
                    "tag": msg.tag,
                    "dst": msg.dst,
                    "seq": msg.seq,
                    "attempt": attempt,
                },
            )
            self.obs.metrics.counter("faults.injected").inc()
        if fate.dropped:
            policy = injector.transport
            if attempt >= policy.max_retries:
                self.messages_lost += 1
                if self.obs.enabled:
                    self.obs.emit_counter(
                        "msg",
                        "lost",
                        t_send,
                        1.0,
                        pid=msg.src,
                        meta={"tag": msg.tag, "dst": msg.dst, "seq": msg.seq},
                    )
                    self.obs.metrics.counter("net.msgs_lost").inc()
                return
            retry_at = t_send + policy.delay_for(attempt + 1)
            self.retransmits += 1
            if self.obs.enabled:
                self.obs.emit_counter(
                    "msg",
                    "retransmit",
                    retry_at,
                    1.0,
                    pid=msg.src,
                    meta={
                        "tag": msg.tag,
                        "dst": msg.dst,
                        "seq": msg.seq,
                        "attempt": attempt + 1,
                    },
                )
                self.obs.metrics.counter("net.retransmits").inc()
            self.engine.call_at(retry_at, self._transmit, msg, retry_at, attempt + 1)
            return
        if self._fabric is None:
            wire = self._net.transfer_time(msg.nbytes)
        else:
            wire = (
                self._fabric.arrival(msg.src, msg.dst, msg.nbytes, t_send) - t_send
            )
        for extra in fate.extra_delays:
            self.engine.call_at(t_send + wire + extra, self._deliver, msg)

    def _crash(self, pid: int) -> None:
        """Permanently kill the host of ``pid`` (fault injection)."""
        if pid in self._dead:
            return
        self._dead.add(pid)
        if self.obs.enabled:
            self.obs.emit_counter(
                "fault",
                "injected",
                self.engine.now,
                1.0,
                pid=pid,
                meta={"kinds": ["crash"]},
            )
            self.obs.metrics.counter("faults.crashes").inc()

    def _deliver(self, msg: Message) -> None:
        if msg.seq >= 0:
            # Reliable-transport dedupe: retransmissions and injected
            # duplicates of an already-delivered copy stop here, before
            # the mailbox (so the replay checker sees exactly-once).
            seen = self._seen_seq.setdefault(msg.dst, set())
            dedupe_key = (msg.src, msg.seq)
            if dedupe_key in seen:
                if self.obs.enabled:
                    self.obs.metrics.counter("net.duplicates_dropped").inc()
                return
            seen.add(dedupe_key)
        now = self.engine._now
        msg.t_arrived = now
        dst_task = self._tasks.get(msg.dst)
        if (
            self._fastpath
            and dst_task is not None
            and dst_task.blocked_on is not None
        ):
            src, tag = dst_task.blocked_on
            if (src is None or msg.src == src) and (tag is None or msg.tag == tag):
                # While a task is blocked, no queued message matches its
                # filter (delivery would have resumed it already), so
                # this message is exactly what take() would return: hand
                # it over without the enqueue/scan/dequeue round trip.
                # Not taken when observing, so net/msg spans report true
                # queue depths; not taken under fault injection, so
                # stall clamping sees every resume.
                dst_task.blocked_on = None
                eng = self.engine
                finish = self.processors[msg.dst].run_cpu(now, self._recv_cpu)
                heappush(eng._heap, (finish, eng._seq, self._step_cb, (dst_task, msg)))
                eng._seq += 1
                return
        box = self.mailboxes[msg.dst]
        box.deliver(msg)
        if dst_task is not None and dst_task.blocked_on is not None:
            src, tag = dst_task.blocked_on
            matched = box.take(src, tag)
            if matched is not None:
                dst_task.blocked_on = None
                proc = self.processors[msg.dst]
                finish = proc.run_cpu(self.engine._now, self._recv_cpu)
                self._resume_later(finish, dst_task, matched)

    # ------------------------------------------------------------------
    # Running and accounting
    # ------------------------------------------------------------------

    def run(self, until: float = math.inf) -> float:
        """Run the simulation; returns the final virtual time.

        When run to completion (``until`` is inf), raises
        :class:`DeadlockError` if any task is still blocked or unfinished
        after the event queue drains.  Tasks on crashed hosts are
        excused: their unfinished state is the injected fault.
        """
        t = self.engine.run(until)
        if math.isinf(until):
            stuck = [
                f"pid {tk.pid} ({tk.name}): "
                + (f"blocked on recv{tk.blocked_on}" if tk.blocked_on else "unfinished")
                for tk in self._tasks.values()
                if not tk.done and tk.pid not in self._dead
            ]
            if stuck:
                raise DeadlockError(
                    "simulation drained with live tasks: " + "; ".join(stuck)
                )
        return t

    def rusage(self, t_end: float | None = None) -> RusageReport:
        """Per-processor CPU accounting (getrusage equivalent)."""
        if t_end is None:
            t_end = self.engine.now
        usages = []
        for proc in self.processors:
            usages.append(
                TaskUsage(
                    pid=proc.pid,
                    elapsed=t_end,
                    app_cpu=proc.app_cpu_total,
                    competing_cpu=proc.competing_cpu(t_end),
                )
            )
        return RusageReport(usages=usages, t_end=t_end)

    def slave_pids(self) -> Iterable[int]:
        """Processor ids hosting slaves (excludes the master)."""
        return range(self.spec.n_slaves)


# Concrete-type dispatch table for task syscalls; filled after the class
# body so the unbound handlers can be referenced directly.
_SYSCALLS: dict[type, Callable[[Cluster, _Task, Any], None]] = {
    Compute: Cluster._do_compute,
    Send: Cluster._do_send,
    Recv: Cluster._do_recv,
    Poll: Cluster._do_poll,
    Now: Cluster._do_now,
}
