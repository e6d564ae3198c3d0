"""Coordinated checkpoint/rollback for the failure-tolerant runtime.

PR 3's control plane recovers ``PARALLEL_MAP`` schedules by regranting a
dead slave's iterations from the master's global state — possible only
because independent iterations carry no cross-slave progress.  The
dependence-carrying shapes (``PIPELINE``, ``REDUCTION_FRONT``) need a
consistent *global cut* to restart from; this package provides it:

- :mod:`repro.ckpt.model` — the snapshot artifacts: one
  :class:`~repro.ckpt.model.SlaveSnapshot` per slave per epoch and the
  master-side :class:`~repro.ckpt.model.CheckpointEpoch` ledger entry
  recording the cut (ownership, move-id horizon, barrier repetition).
- :mod:`repro.ckpt.coordinator` — the pure epoch state machine the
  master drives (open / ack / deposit / commit / abort) plus the
  rollback re-partitioning helpers that split a dead slave's iterations
  among survivors while preserving each shape's movement constraints.
- :mod:`repro.ckpt.protocol_model` — the finite-state model of the
  checkpoint/rollback exchange that ``repro check --model`` explores;
  its master runs the coordinator and ``reduction_repartition``.

The protocol itself (checkpoint barrier control messages, snapshot
deposits, rollback restore) lives in ``repro.runtime``; everything
here is side-effect-free so it can be strictly typed and model-checked.
"""

from .coordinator import (
    CheckpointCoordinator,
    pipeline_repartition,
    reduction_repartition,
)
from .model import CheckpointEpoch, SlaveSnapshot

__all__ = [
    "CheckpointCoordinator",
    "CheckpointEpoch",
    "SlaveSnapshot",
    "pipeline_repartition",
    "reduction_repartition",
]
