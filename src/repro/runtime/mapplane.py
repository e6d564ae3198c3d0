"""The scaffold shared by the PARALLEL_MAP control planes.

The sub-master tree (:mod:`repro.scale.hierarchy`), diffusion
(:mod:`repro.baselines.diffusion`), work stealing
(:mod:`repro.strategies.stealing`) and robust self-scheduling
(:mod:`repro.strategies.rdlb`) all schedule a bag of independent units
and differ only in who decides where a unit runs.  The rest lives here
once: :class:`MapRun` (per-run setup and teardown), :class:`MapResult`
(the result fields every plane reports), :class:`UnitBag` (a worker's
pending and done units) and :func:`all_reps` (how a unit's reps run).
Helpers return payloads and wire sizes, never message syscalls: every
``Send``/``Recv``/``Poll`` stays in its plane module, whose source the
protocol lint reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from ..compiler.plan import ExecutionPlan, LoopShape
from ..config import ClusterSpec, RunConfig
from ..errors import ConfigError, SimulationError
from ..faults import FaultInjector, FaultPlan
from ..obs import Recorder
from ..sim import Cluster, Fabric, LoadGenerator
from ..sim.rusage import RusageReport
from .partition import proportional_counts

__all__ = ["MapResult", "MapRun", "UnitBag", "all_reps"]


def all_reps(
    plan: ExecutionPlan, units: Sequence[int], local: Any
) -> tuple[float, Callable[[], None] | None]:
    """The compute cost of running every rep of ``units`` back to back,
    and the kernel call doing it (None when ``local`` is None, i.e.
    numerics are off).  PARALLEL_MAP units are independent, so collapsing
    their reps is exact (dynamic-reps plans are rejected at entry)."""
    ops = sum(plan.units_cost(rep, units) for rep in range(plan.reps))
    if local is None:
        return ops, None
    kernels, arr = plan.kernels, np.asarray(units)

    def run() -> None:
        for rep in range(plan.reps):
            kernels.run_units(local, rep, arr)

    return ops, run


@dataclass(kw_only=True)
class MapResult:
    """Outcome and metrics every PARALLEL_MAP plane reports."""

    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    rusage: RusageReport
    message_count: int
    bytes_sent: int
    result: Any = None
    dead_pids: tuple[int, ...] = ()
    recorder: Recorder | None = None

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.rusage.efficiency(self.sequential_time, list(range(self.n_slaves)))


R = TypeVar("R", bound=MapResult)


class MapRun:
    """Setup and teardown of one PARALLEL_MAP plane run.

    Validates the plan and loads, then builds the cluster (``spec``
    overrides ``run_cfg.cluster``; the cluster checks ``faults`` against
    it; ``fabric`` prices its messages over a topology) and the seeded
    global state.  Workers are pids ``0..n-1``; the plane's tasks share
    :attr:`stats`, and its coordinator stores the gathered results under
    ``sink["results"]``.
    """

    def __init__(
        self,
        plane: str,
        plan: ExecutionPlan,
        run_cfg: RunConfig,
        loads: Mapping[int, LoadGenerator] | None,
        *,
        seed: int,
        recorder: Recorder | None = None,
        faults: FaultPlan | None = None,
        spec: ClusterSpec | None = None,
        fabric: Fabric | None = None,
        worker: str = "worker",
    ):
        if plan.shape is not LoopShape.PARALLEL_MAP:
            raise ConfigError(
                f"{plane} supports PARALLEL_MAP plans (independent "
                f"iterations) only; plan {plan.name!r} has shape "
                f"{plan.shape.name}. PIPELINE and REDUCTION_FRONT loops need "
                "the central runtime (repro.runtime.run_application)."
            )
        if plan.dynamic_reps:
            raise ConfigError(
                f"{plane} cannot run dynamic-reps (WHILE) plans: plan "
                f"{plan.name!r} decides its repetition count from a global "
                "convergence test, which needs the central runtime's sweep "
                "barrier."
            )
        self.n = run_cfg.cluster.n_slaves
        loads = dict(loads or {})
        for pid in loads:
            if not 0 <= pid < self.n:
                raise ConfigError(f"competing load assigned to non-{worker} pid {pid}")
        self.plane = plane
        self.plan = plan
        self.max_virtual_time = run_cfg.max_virtual_time
        self.spec = spec = spec or run_cfg.cluster
        injector = None
        if faults is not None and not faults.empty:
            injector = FaultInjector(faults, master_pid=spec.master_pid)
        self.recorder = recorder
        self.cluster = Cluster(spec, loads, recorder, injector, fabric)
        self.exec_num = exec_num = run_cfg.execute_numerics
        rng = np.random.default_rng(seed)
        self.global_state = plan.kernels.make_global(rng) if exec_num else None
        self.lo, hi = plan.unit_space()
        self.total_units = hi - self.lo
        self.stats: dict[str, int] = {}
        self.sink: dict[str, Any] = {}

    def split(self) -> Iterator[UnitBag]:
        """Deal the even contiguous initial split: one bag per worker,
        in pid order, with its local state when numerics run."""
        kernels = self.plan.kernels
        counts = proportional_counts(self.total_units, [1.0] * self.n, minimum=1)
        start = self.lo
        for count in counts:
            units = tuple(range(start, start + count))
            start += count
            local = None
            if self.exec_num:
                local = kernels.make_local(self.global_state, np.asarray(units))
            yield UnitBag(self.plan, units, local)

    def run(self) -> None:
        """Simulate to completion; fail loudly if results never arrive."""
        cluster = self.cluster
        cluster.run(until=self.max_virtual_time)
        if "results" not in self.sink:
            if cluster.engine.pending():
                raise SimulationError(
                    f"{self.plane} run exceeded "
                    f"max_virtual_time={self.max_virtual_time}"
                )
            cluster.run()  # surfaces DeadlockError diagnostics
            raise SimulationError(f"{self.plane} coordinator never gathered results")

    def finish(
        self,
        cls: type[R],
        parts: Iterable[tuple[Sequence[int], Any]] | None = None,
        **counters: Any,
    ) -> R:
        """Build the plane's result: the makespan over live processors,
        the merged ``(units, data)`` parts (by default the gathered
        :meth:`UnitBag.result` payloads) and the plane's counters."""
        if parts is None:
            parts = [
                (res["units"], res.get("data"))
                for res in self.sink["results"].values()
            ]
        cluster = self.cluster
        dead = cluster.dead_pids
        elapsed = max(
            cluster.task_finish_time(pid)
            for pid in range(self.spec.n_processors)
            if pid not in dead
        )
        merged = {
            i: (np.asarray(units), data)
            for i, (units, data) in enumerate(parts)
            if data is not None and len(units)
        }
        result = None
        if merged:
            result = self.plan.kernels.merge_results(self.global_state, merged)
        return cls(
            name=self.plan.name,
            n_slaves=self.n,
            elapsed=elapsed,
            sequential_time=self.plan.total_ops() / self.spec.processor.speed,
            rusage=cluster.rusage(elapsed),
            message_count=cluster.message_count,
            bytes_sent=cluster.bytes_sent,
            result=result,
            dead_pids=tuple(sorted(dead)),
            recorder=self.recorder,
            **counters,
        )


class UnitBag:
    """One worker's pending and done units, and its local state
    (``local`` is None when numerics are off).  ``pending`` and ``done``
    are only mutated in place, so a task may alias them."""

    __slots__ = ("plan", "local", "pending", "done")

    def __init__(self, plan: ExecutionPlan, units: Sequence[int], local: Any):
        self.plan = plan
        self.local = local
        self.pending = sorted(units)
        self.done: list[int] = []

    def accept(self, payload: Mapping[str, Any]) -> int:
        """Take in shipped units (and their data); returns how many."""
        units = list(payload["units"])
        if self.local is not None and payload.get("data") is not None:
            self.plan.kernels.unpack_units(
                self.local, np.asarray(units), payload["data"], {}
            )
        self.pending.extend(units)
        self.pending.sort()
        return len(units)

    def give(self, k: int, tail: bool = True) -> tuple[dict[str, Any], int]:
        """Cut ``k`` units off the tail (or head) of the pending list for
        shipping; returns the payload and its wire size."""
        cut = slice(-k, None) if tail else slice(k)
        units = self.pending[cut]
        del self.pending[cut]
        payload: dict[str, Any] = {"units": tuple(units)}
        if self.local is not None:
            payload["data"] = self.plan.kernels.pack_units(
                self.local, np.asarray(units), {}
            )
        return payload, len(units) * self.plan.movement.unit_bytes

    def next_unit(self) -> tuple[float, Callable[[], None] | None]:
        """Pop the next pending unit and count it done; returns its
        :func:`all_reps` cost and kernel call."""
        u = self.pending.pop(0)
        self.done.append(u)
        return all_reps(self.plan, (u,), self.local)

    def result(self) -> tuple[dict[str, Any], int]:
        """The final result payload (done units and data) and its size."""
        payload: dict[str, Any] = {"units": tuple(self.done)}
        if self.local is None:
            return payload, 64
        kernels = self.plan.kernels
        payload["data"] = kernels.local_result(self.local)
        return payload, kernels.result_bytes(len(self.done))
