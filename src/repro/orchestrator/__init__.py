"""Crash-safe experiment orchestration for every sweep in the repo.

``repro.orchestrator`` is the substrate that the chaos matrix
(``repro chaos``) and ``repro orchestrate`` submit their cells to:

- a **warm process pool** (:mod:`.pool`) keyed by config digest —
  workers are spawned once, health-checked via heartbeats, and restarted
  on crash without losing the sweep (the modelops ``WarmProcessManager``
  pattern);
- a **job queue** (:mod:`.core`) with priorities, cancellation, per-job
  wall-clock timeouts, and retry with exponential backoff + jitter; a
  job that exhausts its retries is recorded ``failed`` instead of
  aborting the sweep;
- a **crash-safe provenance store**: an append-only write-ahead journal
  (:mod:`.journal`) of job state transitions plus a content-hash cache
  (:mod:`.store`) of ``digest(fn, params) -> result``, so a killed
  orchestrator resumes exactly where it left off and repeated cells are
  free.

See ``docs/orchestration.md`` for the architecture and the journal
format, and ``repro orchestrate --help`` for the operational CLI.
"""

from .core import (
    SweepResult,
    cancel_sweep,
    resume_sweep,
    run_callable,
    submit_sweep,
    sweep_status,
)
from .digest import canonical_json, content_digest
from .jobs import FINAL_STATES, JobRecord, JobSpec, JobState, resolve_fn
from .journal import Journal, JournalView, compact_journal, replay_journal
from .pool import WarmPool, get_pool, shutdown_pools
from .store import ResultStore, gc_state_dir

__all__ = [
    "FINAL_STATES",
    "Journal",
    "JournalView",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ResultStore",
    "SweepResult",
    "WarmPool",
    "cancel_sweep",
    "canonical_json",
    "compact_journal",
    "content_digest",
    "gc_state_dir",
    "get_pool",
    "replay_journal",
    "resolve_fn",
    "resume_sweep",
    "run_callable",
    "shutdown_pools",
    "submit_sweep",
    "sweep_status",
]
