"""The sweep engine: queue, dispatch, retries, timeouts, resume.

:func:`submit_sweep` is the single entry point every sweep in the repo
goes through (the chaos matrix and ``repro orchestrate``).  It drives a
warm worker pool through a priority queue of :class:`~.jobs.JobSpec`
with:

- per-attempt wall-clock **timeouts** (the hung worker is killed and
  respawned, the job retried);
- **retry with exponential backoff + jitter** — the jitter is seeded
  from the job digest so schedules are reproducible across processes;
- **graceful degradation**: a job that exhausts its retries is recorded
  ``failed``/``timeout`` and the sweep continues, down to a single
  surviving worker;
- a **write-ahead journal** of every state transition plus a
  **content-hash result cache**, so a SIGKILLed orchestrator resumes
  exactly where it left off and repeated cells are free;
- **clean interruption**: SIGINT/SIGTERM stop dispatching, kill
  in-flight workers, flush the journal, and return the partial sweep
  (in-flight jobs stay re-runnable on resume) — no orphaned spawn
  workers.

The loop itself is single-threaded: it blocks in
:func:`multiprocessing.connection.wait` on the busy workers' pipes with
a deadline-aware timeout, which is both simpler and stricter to reason
about than callback pools.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Mapping, Sequence

from ..faults.selfchaos import SelfChaos
from ..obs.recorder import Recorder
from .digest import content_digest
from .jobs import JobRecord, JobSpec, JobState, resolve_fn
from .journal import Journal, JournalView, replay_journal
from .pool import WarmPool, WorkerHandle, get_pool
from .store import ResultStore

__all__ = [
    "SWEEP_SCHEMA",
    "SweepResult",
    "cancel_sweep",
    "resume_sweep",
    "submit_sweep",
    "sweep_status",
]

SWEEP_SCHEMA = "repro-orch-sweep/1"

_WAIT_SLICE_S = 0.25
"""Upper bound on one blocking wait, keeping signal response snappy."""

_HEARTBEAT_S = 2.0
"""How often idle workers are health-checked during a sweep."""

_BACKOFF_CAP_S = 30.0
_JITTER_FRAC = 0.25


def _backoff_delay(spec: JobSpec, attempt: int) -> float:
    """Exponential backoff with digest-seeded jitter (reproducible)."""
    if spec.backoff_s == 0:
        return 0.0
    base = min(_BACKOFF_CAP_S, spec.backoff_s * (2.0 ** max(0, attempt - 1)))
    jitter = random.Random(f"{spec.digest}:{attempt}").random()
    return base * (1.0 + _JITTER_FRAC * jitter)


@dataclass
class SweepResult:
    """Outcome of one ``submit_sweep`` call."""

    sweep_id: str
    created_unix: float
    records: list[JobRecord]
    stats: dict[str, float]
    interrupted: bool = False
    state_dir: str | None = None
    wall_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every job produced a result and nothing interrupted."""
        return not self.interrupted and all(r.ok for r in self.records)

    @property
    def results(self) -> dict[str, Any]:
        """``job id -> result`` for every successful (or cached) job."""
        return {r.spec.id: r.result for r in self.records if r.ok}

    def failed_records(self) -> list[JobRecord]:
        """Jobs that reached a non-success final state."""
        return [r for r in self.records if r.final and not r.ok]

    def record(self, job_id: str) -> JobRecord:
        """The record for one job id (raises ``KeyError`` if unknown)."""
        for r in self.records:
            if r.spec.id == job_id:
                return r
        raise KeyError(job_id)

    def merged_doc(self) -> dict[str, Any]:
        """Deterministic merged document (jobs in submission order).

        ``created_unix`` comes from the journal header, so an
        uninterrupted run and a crash-plus-resume of the same sweep in
        the same state dir serialize byte-identically when the job
        functions are deterministic.
        """
        return {
            "schema": SWEEP_SCHEMA,
            "sweep_id": self.sweep_id,
            "created_unix": self.created_unix,
            "meta": dict(self.meta),
            "jobs": [r.summary() for r in self.records],
            "results": {r.spec.id: r.result for r in self.records if r.ok},
        }

    def make_report(self) -> Any:
        """A :class:`~repro.obs.RunReport` carrying the ``orch`` section."""
        from ..obs.report import RunReport

        stats = self.stats
        orch = {key: float(value) for key, value in sorted(stats.items())}
        return RunReport(
            name=f"sweep:{self.sweep_id}",
            n_slaves=int(stats.get("workers", 0)),
            elapsed=self.wall_s,
            sequential_time=0.0,
            speedup=0.0,
            efficiency=0.0,
            dlb_enabled=False,
            orch=orch,
        )


class _Sweep:
    """Mutable engine state for one submit_sweep call."""

    def __init__(
        self,
        specs: Sequence[JobSpec],
        state_dir: str | Path | None,
        workers: int,
        meta: Mapping[str, Any] | None,
        recorder: Recorder | None,
        chaos: SelfChaos | None,
        pool_key: str | None,
    ) -> None:
        ids = [spec.id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in sweep")
        self.state_dir = str(state_dir) if state_dir is not None else None
        self.recorder = recorder if recorder is not None else Recorder.disabled()
        self.chaos = chaos
        self.workers_requested = max(1, workers)
        self.t0 = time.monotonic()
        self.stop_requested = False
        self.stop_signal: int | None = None

        view = (
            replay_journal(state_dir)
            if state_dir is not None
            else JournalView()
        )
        self.journal = Journal(state_dir)
        self.store = ResultStore(state_dir)

        # Journal-known specs the caller did not re-submit still belong
        # to the sweep (resume reconstructs the full job list from them).
        known = {spec.id for spec in specs}
        all_specs = list(specs) + [
            spec for spec in view.specs if spec.id not in known
        ]

        if view.empty:
            fns = sorted({spec.fn for spec in all_specs})
            self.sweep_id = content_digest(
                "sweep", {"fns": fns, "ids": sorted(s.id for s in all_specs)}
            )[:16]
            header = self.journal.sweep_header(self.sweep_id, meta)
            self.created_unix = float(header["created_unix"])
            self.meta = dict(meta or {})
        else:
            self.sweep_id = view.sweep_id
            self.created_unix = view.created_unix
            self.meta = dict(view.meta)
            if meta:
                self.meta.update(meta)
        journaled = {spec.id for spec in view.specs}
        for spec in all_specs:
            if spec.id not in journaled:
                self.journal.job(spec)

        self.records: list[JobRecord] = []
        self.by_id: dict[str, JobRecord] = {}
        for spec in all_specs:
            record = JobRecord(spec=spec, attempts=view.attempts.get(spec.id, 0))
            final = view.final_state(spec.id)
            if final is not None:
                record.state = final
                record.error = view.details.get(spec.id)
                if final in (JobState.SUCCEEDED, JobState.CACHED):
                    result = self.store.get(spec.digest)
                    if result is None:
                        # Journal says done but the result is gone (e.g.
                        # GC'd store): the job must run again.
                        record.state = JobState.PENDING
                        record.error = None
                    else:
                        record.result = result
            self.records.append(record)
            self.by_id[spec.id] = record

        self.stats: dict[str, float] = {
            "jobs": float(len(self.records)),
            "workers": 0.0,
            "resumed": 0.0,
            "cache_hits": 0.0,
            "succeeded": 0.0,
            "cached": 0.0,
            "failed": 0.0,
            "timeout": 0.0,
            "cancelled": 0.0,
            "retries": 0.0,
            "worker_restarts": 0.0,
            "worker_kills": 0.0,
        }
        self.stats["resumed"] = float(
            sum(1 for r in self.records if r.final)
        )
        self._finals_seen = 0
        self._queue: list[tuple[int, int, str]] = []
        self._seq = 0
        self.not_before: dict[str, float] = {}
        self.pool: WarmPool | None = None
        self.pool_key = pool_key or content_digest(
            "pool", {"fns": sorted({spec.fn for spec in all_specs})}
        )

        # Cancellation requested via `repro orchestrate cancel` between
        # runs applies now, before anything is dispatched.
        for record in self.records:
            if not record.final and view.is_cancelled(record.spec.id):
                self._finalize(record, JobState.CANCELLED, "cancelled by operator")

    # -- observability ---------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self.t0

    def _emit(
        self,
        name: str,
        value: float = 1.0,
        meta: dict[str, object] | None = None,
    ) -> None:
        rec = self.recorder
        if rec.enabled:
            rec.emit_counter("orch", name, self._now(), value, meta=meta)

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.recorder.metrics.counter(name).inc(amount)

    # -- state transitions (journal first, memory second) ---------------

    def _transition(
        self,
        record: JobRecord,
        state: JobState,
        detail: str | None = None,
        digest: str | None = None,
    ) -> None:
        self.journal.transition(
            record.spec.id, state, record.attempts, detail=detail, digest=digest
        )
        record.state = state

    def _finalize(
        self, record: JobRecord, state: JobState, detail: str | None = None
    ) -> None:
        digest = record.spec.digest if state in (
            JobState.SUCCEEDED, JobState.CACHED
        ) else None
        self._transition(record, state, detail=detail, digest=digest)
        record.error = detail if state not in (
            JobState.SUCCEEDED, JobState.CACHED
        ) else None
        key = state.value
        if key in self.stats:
            self.stats[key] += 1.0
        self._count(f"orch.jobs.{key}")
        self._emit(key, meta={"job": record.spec.id})
        self._finals_seen += 1
        if (
            self.chaos is not None
            and self.chaos.kill_orchestrator_jobs is not None
            and self._finals_seen >= self.chaos.kill_orchestrator_jobs
        ):
            # Self-chaos: die the hard way, journal already on disk.
            self.journal.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    def _enqueue(self, record: JobRecord) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue, (-record.spec.priority, self._seq, record.spec.id)
        )

    def _attempt_failed(
        self, record: JobRecord, detail: str, timed_out: bool
    ) -> None:
        """One attempt crashed/errored/timed out: retry or finalize."""
        spec = record.spec
        if record.attempts > spec.max_retries:
            self._finalize(
                record,
                JobState.TIMEOUT if timed_out else JobState.FAILED,
                detail,
            )
            return
        delay = _backoff_delay(spec, record.attempts)
        self.not_before[spec.id] = time.monotonic() + delay
        record.state = JobState.PENDING
        record.error = detail
        self.stats["retries"] += 1.0
        self._count("orch.retries")
        self._emit(
            "retry",
            meta={
                "job": spec.id,
                "attempt": record.attempts,
                "delay_s": round(delay, 3),
                "timed_out": timed_out,
            },
        )
        self._enqueue(record)

    # -- cache -----------------------------------------------------------

    def serve_from_cache(self) -> None:
        """Mark every pending job whose digest is already stored."""
        for record in self.records:
            if record.final:
                continue
            cached = self.store.get(record.spec.digest)
            if cached is not None:
                record.result = cached
                self.stats["cache_hits"] += 1.0
                self._count("orch.cache_hits")
                self._emit("cache_hit", meta={"job": record.spec.id})
                self._finalize(record, JobState.CACHED)

    def pending_records(self) -> list[JobRecord]:
        """Jobs that still need an execution attempt."""
        return [r for r in self.records if not r.final]

    # -- completion handling --------------------------------------------

    def job_succeeded(self, record: JobRecord, result: Any) -> None:
        record.result = result
        self.store.put(record.spec.digest, result)
        self._finalize(record, JobState.SUCCEEDED)

    def finish(self, interrupted: bool) -> SweepResult:
        self.journal.close()
        return SweepResult(
            sweep_id=self.sweep_id,
            created_unix=self.created_unix,
            records=self.records,
            stats=self.stats,
            interrupted=interrupted,
            state_dir=self.state_dir,
            wall_s=self._now(),
            meta=self.meta,
        )


def _run_inline(sweep: _Sweep) -> None:
    """Single-worker in-process executor (test and one-core path).

    No preemptive timeouts — a wall-clock budget is checked after the
    attempt returns — and self-chaos worker kills do not apply (there is
    no worker process to kill).  Everything else (retries, backoff,
    journal, cache) behaves exactly like the pool path.
    """
    for record in sweep.pending_records():
        sweep._enqueue(record)
    queue = sweep._queue
    while queue and not sweep.stop_requested:
        _, _, job_id = heapq.heappop(queue)
        record = sweep.by_id[job_id]
        if record.final:
            continue
        wake = sweep.not_before.get(job_id)
        if wake is not None:
            time.sleep(max(0.0, wake - time.monotonic()))
        record.attempts += 1
        sweep._transition(record, JobState.RUNNING)
        sweep._emit("dispatch", meta={"job": job_id, "attempt": record.attempts})
        t0 = time.monotonic()
        try:
            result = resolve_fn(record.spec.fn)(**dict(record.spec.params))
        except KeyboardInterrupt:
            sweep.stop_requested = True
            record.state = JobState.PENDING
            break
        except BaseException as exc:  # noqa: BLE001 - isolate any job error
            import traceback

            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            sweep._attempt_failed(record, detail, timed_out=False)
            continue
        elapsed = time.monotonic() - t0
        budget = record.spec.timeout_s
        if budget is not None and elapsed > budget:
            sweep._attempt_failed(
                record,
                f"attempt exceeded wall-clock budget "
                f"({elapsed:.2f}s > {budget:.2f}s)",
                timed_out=True,
            )
            continue
        sweep.job_succeeded(record, result)


def _handle_worker_loss(
    sweep: _Sweep, pool: WarmPool, worker: WorkerHandle, reason: str
) -> None:
    """A worker died or hung: fail its in-flight attempt, respawn it."""
    job_id = worker.busy_job
    timed_out = reason == "timeout"
    if job_id is not None:
        record = sweep.by_id[job_id]
        detail = (
            f"attempt exceeded wall-clock budget ({record.spec.timeout_s}s)"
            if timed_out
            else f"worker {worker.worker_id} died mid-job ({reason})"
        )
        worker.finish()
        sweep._attempt_failed(record, detail, timed_out=timed_out)
    sweep.stats["worker_restarts"] += 1.0
    sweep._count("orch.workers.restarted")
    sweep._emit(
        "worker_restart",
        meta={"worker": worker.worker_id, "reason": reason},
    )
    pool.restart_worker(worker)


def _run_pool(sweep: _Sweep, workers: int) -> None:
    """The pool executor: dispatch/collect loop with health checks."""
    import multiprocessing.connection

    pool = get_pool(sweep.pool_key, workers)
    sweep.pool = pool
    pool.arm_chaos(sweep.chaos)
    pool.start()
    sweep.stats["workers"] = float(len(pool.workers))
    sweep._count("orch.workers.spawned")

    for record in sweep.pending_records():
        sweep._enqueue(record)
    queue = sweep._queue
    last_heartbeat = time.monotonic()

    def dispatchable() -> str | None:
        """Pop the highest-priority job whose backoff window has passed."""
        now = time.monotonic()
        skipped: list[tuple[int, int, str]] = []
        picked: str | None = None
        while queue:
            entry = heapq.heappop(queue)
            job_id = entry[2]
            record = sweep.by_id[job_id]
            if record.final:
                continue
            if sweep.not_before.get(job_id, 0.0) > now:
                skipped.append(entry)
                continue
            picked = job_id
            break
        for entry in skipped:
            heapq.heappush(queue, entry)
        return picked

    def in_flight() -> list[WorkerHandle]:
        return pool.busy_workers()

    while (queue or in_flight()) and not sweep.stop_requested:
        # Dispatch as much as the idle workers allow.
        for worker in pool.idle_workers():
            if sweep.stop_requested:
                break
            job_id = dispatchable()
            if job_id is None:
                break
            record = sweep.by_id[job_id]
            record.attempts += 1
            sweep._transition(record, JobState.RUNNING)
            sweep._emit(
                "dispatch",
                value=float(worker.worker_id),
                meta={"job": job_id, "attempt": record.attempts},
            )
            try:
                killed = pool.dispatch(
                    worker,
                    job_id,
                    record.spec.fn,
                    record.spec.params,
                    record.spec.timeout_s,
                )
                if killed:
                    sweep.stats["worker_kills"] += 1.0
            except (OSError, BrokenPipeError, ValueError):
                _handle_worker_loss(sweep, pool, worker, "dispatch failed")

        busy = in_flight()
        if not busy and not queue:
            break
        now = time.monotonic()
        timeout = _WAIT_SLICE_S
        for worker in busy:
            if worker.deadline is not None:
                timeout = min(timeout, max(0.0, worker.deadline - now))
        for job_id, wake in sweep.not_before.items():
            if not sweep.by_id[job_id].final:
                timeout = min(timeout, max(0.0, wake - now))
        if busy:
            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=timeout
            )
        else:
            time.sleep(min(timeout, _WAIT_SLICE_S))
            ready = []

        by_conn = {w.conn: w for w in pool.workers}
        for conn in ready:
            worker = by_conn.get(conn)  # type: ignore[arg-type]
            if worker is None:
                continue
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                _handle_worker_loss(sweep, pool, worker, "pipe EOF")
                continue
            kind = msg[0]
            if kind == "pong":
                worker.pending_ping = None
                continue
            job_id = msg[1]
            record = sweep.by_id.get(job_id)
            worker.finish()
            if record is None or record.final:
                continue
            if kind == "ok":
                sweep.job_succeeded(record, msg[2])
            else:
                sweep._attempt_failed(record, str(msg[2]), timed_out=False)

        # Enforce wall-clock budgets on whatever is still in flight.
        now = time.monotonic()
        for worker in in_flight():
            if worker.deadline is not None and now > worker.deadline:
                sweep.stats["worker_kills"] += 1.0
                sweep._count("orch.workers.killed")
                _handle_worker_loss(sweep, pool, worker, "timeout")

        # Periodic heartbeat over idle workers (catches silent deaths).
        if now - last_heartbeat >= _HEARTBEAT_S:
            last_heartbeat = now
            for worker in pool.heartbeat(deep=True):
                _handle_worker_loss(sweep, pool, worker, "heartbeat")

    if sweep.stop_requested:
        # Kill in-flight workers (their jobs stay RUNNING in the journal
        # and re-run on resume); idle workers stay warm for this
        # process, and the atexit hook reaps them at interpreter exit.
        for worker in in_flight():
            job_id = worker.busy_job
            if job_id is not None:
                record = sweep.by_id[job_id]
                record.state = JobState.PENDING
                record.error = "interrupted"
            worker.stop(kill=True)
        pool.start()
        sweep.journal.flush()


def submit_sweep(
    jobs: Sequence[JobSpec],
    *,
    state_dir: str | Path | None = None,
    workers: int = 1,
    meta: Mapping[str, Any] | None = None,
    recorder: Recorder | None = None,
    chaos: SelfChaos | None = None,
    pool_key: str | None = None,
    mode: str = "auto",
) -> SweepResult:
    """Run a sweep of jobs to completion (or clean interruption).

    ``state_dir`` enables the write-ahead journal and the content-hash
    result cache (``None`` = in-memory, not resumable).  ``workers`` is
    the pool width; ``mode`` is ``"auto"`` (inline when one worker and
    no chaos), ``"inline"``, or ``"pool"``.  ``pool_key`` overrides the
    warm-pool identity (defaults to a digest of the job fn set).

    SIGINT/SIGTERM during the sweep stop dispatching, kill in-flight
    workers, flush the journal, and return a partial ``SweepResult``
    with ``interrupted=True`` — pending and in-flight jobs remain
    re-runnable by a later call with the same ``state_dir``.
    """
    if mode not in ("auto", "inline", "pool"):
        raise ValueError(f"unknown mode {mode!r}")
    sweep = _Sweep(jobs, state_dir, workers, meta, recorder, chaos, pool_key)
    sweep._count("orch.jobs.submitted", float(len(sweep.records)))
    sweep._emit("submitted", value=float(len(sweep.records)))
    sweep.serve_from_cache()

    inline = mode == "inline" or (
        mode == "auto"
        and max(1, workers) == 1
        and (chaos is None or chaos.kill_worker_dispatch is None)
    )

    handled: dict[int, Any] = {}

    def _request_stop(signum: int, frame: FrameType | None) -> None:
        sweep.stop_requested = True
        sweep.stop_signal = signum

    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        for signum in (signal.SIGINT, signal.SIGTERM):
            handled[signum] = signal.signal(signum, _request_stop)
    try:
        if sweep.pending_records():
            if inline:
                _run_inline(sweep)
            else:
                _run_pool(sweep, max(1, workers))
    except KeyboardInterrupt:
        sweep.stop_requested = True
    finally:
        for signum, previous in handled.items():
            signal.signal(signum, previous)
    interrupted = sweep.stop_requested
    if interrupted:
        sweep._emit("interrupted", meta={"signal": sweep.stop_signal})
        sweep._count("orch.interrupted")
    result = sweep.finish(interrupted)
    if sweep.pool is not None:
        result.stats["pool_spawned"] = float(sweep.pool.spawned)
        result.stats["pool_restarted"] = float(sweep.pool.restarted)
        result.stats["pool_dispatches"] = float(sweep.pool.dispatches)
    return result


def resume_sweep(
    state_dir: str | Path,
    *,
    workers: int = 1,
    recorder: Recorder | None = None,
    chaos: SelfChaos | None = None,
    mode: str = "auto",
) -> SweepResult:
    """Resume a journaled sweep purely from its state directory.

    The job list is reconstructed from the journal's ``job`` records;
    completed jobs are served from the result store, cancelled jobs stay
    cancelled, everything else runs.
    """
    view = replay_journal(state_dir)
    if view.empty:
        raise FileNotFoundError(
            f"no sweep journal under {state_dir!r}; nothing to resume"
        )
    return submit_sweep(
        [],
        state_dir=state_dir,
        workers=workers,
        recorder=recorder,
        chaos=chaos,
        mode=mode,
    )


def sweep_status(state_dir: str | Path) -> dict[str, Any]:
    """JSON-safe status of a journaled sweep (no execution)."""
    view = replay_journal(state_dir)
    store = ResultStore(state_dir)
    jobs = []
    counts: dict[str, int] = {}
    for spec in view.specs:
        state = view.states.get(spec.id, JobState.PENDING)
        if view.is_cancelled(spec.id) and view.final_state(spec.id) is None:
            state = JobState.CANCELLED
        counts[state.value] = counts.get(state.value, 0) + 1
        jobs.append(
            {
                "id": spec.id,
                "state": state.value,
                "attempts": view.attempts.get(spec.id, 0),
                "digest": spec.digest,
                "cached": spec.digest in store,
                "error": view.details.get(spec.id),
            }
        )
    return {
        "schema": SWEEP_SCHEMA,
        "sweep_id": view.sweep_id,
        "created_unix": view.created_unix,
        "meta": view.meta,
        "torn_records": view.torn_records,
        "counts": counts,
        "jobs": jobs,
    }


def cancel_sweep(
    state_dir: str | Path, job_ids: Sequence[str] | None = None
) -> int:
    """Record cancellation for jobs (all non-final ones by default).

    Takes effect at the next run/resume of the sweep; returns how many
    jobs the request covers right now.
    """
    view = replay_journal(state_dir)
    if view.empty:
        raise FileNotFoundError(
            f"no sweep journal under {state_dir!r}; nothing to cancel"
        )
    with Journal(state_dir) as journal:
        if job_ids is None:
            journal.cancel("*")
            return len(view.pending_specs())
        known = {spec.id for spec in view.specs}
        covered = 0
        for job_id in job_ids:
            if job_id not in known:
                raise KeyError(f"unknown job id {job_id!r}")
            journal.cancel(job_id)
            if view.final_state(job_id) is None:
                covered += 1
        return covered


def run_callable(fn: Callable[..., Any]) -> str:
    """The ``module:callable`` path of a module-level function.

    Convenience for building :class:`JobSpec` values without hand-typing
    import paths (and a guard: the callable must actually be resolvable
    in a fresh process).
    """
    path = f"{fn.__module__}:{fn.__qualname__}"
    resolve_fn(path)
    return path
