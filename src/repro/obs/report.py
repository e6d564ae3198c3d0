"""Run reports: one JSON document summarizing a run's behaviour.

:func:`build_run_report` folds a finished run (its result object plus
the :class:`~repro.obs.recorder.Recorder` that observed it) into a
:class:`RunReport`:

- per-slave **rate timelines** (raw and filtered computation rates, and
  the work counts assigned by the balancer) — the data behind the
  paper's Figures 6-9;
- an **imbalance ratio** timeline (max/mean assigned work across the
  slaves after each balancer decision);
- a **DLB overhead breakdown** mirroring the paper's Table 2
  categories: status/instruction message interaction, data movement,
  balance latency, pipeline catch-up, and per-slave idle time.

Reports serialize to plain JSON (``schema`` identifies the layout) and
round-trip through :meth:`RunReport.save` / :meth:`RunReport.load`.

The result object is described structurally (:class:`RunResultLike`) so
this module stays dependency-free and ``mypy --strict``-clean without
importing the runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .log import EventLog
from .model import SpanEvent, _as_float, _as_int
from .recorder import Recorder

__all__ = ["RunReport", "RunResultLike", "build_run_report"]

SCHEMA = "repro.obs.run-report/1"

RATE_CHANNELS = ("raw_rate", "adjusted_rate", "work")
"""Counter names exported per-slave as timelines (legacy Trace channels)."""


class UsageLike(Protocol):
    """Structural view of ``repro.sim.rusage.TaskUsage``."""

    @property
    def pid(self) -> int: ...
    @property
    def elapsed(self) -> float: ...
    @property
    def app_cpu(self) -> float: ...
    @property
    def competing_cpu(self) -> float: ...
    @property
    def idle_cpu(self) -> float: ...


class RusageLike(Protocol):
    """Structural view of ``repro.sim.rusage.RusageReport``."""

    @property
    def usages(self) -> Sequence[UsageLike]: ...
    @property
    def t_end(self) -> float: ...
    def usage_for(self, pid: int) -> UsageLike: ...


class MasterLogLike(Protocol):
    """Structural view of ``repro.runtime.master.MasterLog``."""

    @property
    def moves_issued(self) -> int: ...
    @property
    def moves_applied(self) -> int: ...
    @property
    def moves_canceled(self) -> int: ...
    @property
    def units_moved(self) -> int: ...
    @property
    def reports_received(self) -> int: ...
    @property
    def merged_units(self) -> int: ...
    @property
    def final_partition_counts(self) -> list[int]: ...


class RunResultLike(Protocol):
    """Structural view of ``repro.runtime.launcher.RunResult``."""

    @property
    def name(self) -> str: ...
    @property
    def n_slaves(self) -> int: ...
    @property
    def elapsed(self) -> float: ...
    @property
    def sequential_time(self) -> float: ...
    @property
    def speedup(self) -> float: ...
    @property
    def efficiency(self) -> float: ...
    @property
    def message_count(self) -> int: ...
    @property
    def bytes_sent(self) -> int: ...
    @property
    def dlb_enabled(self) -> bool: ...
    @property
    def rusage(self) -> RusageLike: ...
    @property
    def log(self) -> MasterLogLike: ...


@dataclass
class RunReport:
    """Aggregated, JSON-serializable description of one run."""

    name: str
    n_slaves: int
    elapsed: float
    sequential_time: float
    speedup: float
    efficiency: float
    dlb_enabled: bool
    schema: str = SCHEMA
    dlb: dict[str, float] = field(default_factory=dict)
    faults: dict[str, float] = field(default_factory=dict)
    ckpt: dict[str, float] = field(default_factory=dict)
    orch: dict[str, float] = field(default_factory=dict)
    strategies: dict[str, float] = field(default_factory=dict)
    slaves: dict[str, dict[str, object]] = field(default_factory=dict)
    imbalance: list[list[float]] = field(default_factory=list)
    overhead: dict[str, object] = field(default_factory=dict)
    metrics: dict[str, object] = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-safe dict in schema order."""
        return {
            "schema": self.schema,
            "name": self.name,
            "n_slaves": self.n_slaves,
            "elapsed": self.elapsed,
            "sequential_time": self.sequential_time,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "dlb_enabled": self.dlb_enabled,
            "dlb": dict(self.dlb),
            "faults": dict(self.faults),
            "ckpt": dict(self.ckpt),
            "orch": dict(self.orch),
            "strategies": dict(self.strategies),
            "slaves": {pid: dict(data) for pid, data in self.slaves.items()},
            "imbalance": [list(point) for point in self.imbalance],
            "overhead": dict(self.overhead),
            "metrics": dict(self.metrics),
            "event_counts": dict(self.event_counts),
        }

    def to_json(self, indent: int = 2) -> str:
        """Pretty JSON text (stable key order for golden files)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunReport":
        """Inverse of :meth:`to_dict` (validates the schema tag)."""
        schema = str(data.get("schema", ""))
        if schema != SCHEMA:
            raise ValueError(f"unsupported run-report schema: {schema!r}")

        def _obj(key: str) -> dict[str, object]:
            value = data.get(key, {})
            return dict(value) if isinstance(value, Mapping) else {}

        slaves_raw = data.get("slaves", {})
        slaves: dict[str, dict[str, object]] = {}
        if isinstance(slaves_raw, Mapping):
            for pid, per_slave in slaves_raw.items():
                if isinstance(per_slave, Mapping):
                    slaves[str(pid)] = dict(per_slave)
        imbalance_raw = data.get("imbalance", [])
        imbalance: list[list[float]] = []
        if isinstance(imbalance_raw, list):
            for point in imbalance_raw:
                if isinstance(point, list):
                    imbalance.append([_as_float(x) for x in point])
        dlb = {str(k): _as_float(v) for k, v in _obj("dlb").items()}
        faults = {str(k): _as_float(v) for k, v in _obj("faults").items()}
        ckpt = {str(k): _as_float(v) for k, v in _obj("ckpt").items()}
        orch = {str(k): _as_float(v) for k, v in _obj("orch").items()}
        strategies = {str(k): _as_float(v) for k, v in _obj("strategies").items()}
        event_counts = {str(k): _as_int(v) for k, v in _obj("event_counts").items()}
        return cls(
            schema=schema,
            name=str(data.get("name", "")),
            n_slaves=_as_int(data.get("n_slaves", 0)),
            elapsed=_as_float(data.get("elapsed", 0.0)),
            sequential_time=_as_float(data.get("sequential_time", 0.0)),
            speedup=_as_float(data.get("speedup", 0.0)),
            efficiency=_as_float(data.get("efficiency", 0.0)),
            dlb_enabled=bool(data.get("dlb_enabled", False)),
            dlb=dlb,
            faults=faults,
            ckpt=ckpt,
            orch=orch,
            strategies=strategies,
            slaves=slaves,
            imbalance=imbalance,
            overhead=_obj("overhead"),
            metrics=_obj("metrics"),
            event_counts=event_counts,
        )

    def save(self, path: str | Path) -> None:
        """Write the report as pretty JSON to ``path``."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """Read a report written by :meth:`save`."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object in {path}")
        return cls.from_dict(data)

    # -- presentation ----------------------------------------------------

    def describe(self) -> str:
        """Human-readable multi-line summary (used by ``repro trace``)."""
        lines = [
            f"run report: {self.name}  (schema {self.schema})",
            f"  slaves={self.n_slaves}  dlb={'on' if self.dlb_enabled else 'off'}",
            f"  elapsed={self.elapsed:.3f}s  seq={self.sequential_time:.3f}s  "
            f"speedup={self.speedup:.2f}  efficiency={self.efficiency:.3f}",
        ]
        if self.dlb:
            moves = self.dlb.get("moves_applied", 0.0)
            units = self.dlb.get("units_moved", 0.0)
            reports = self.dlb.get("reports_received", 0.0)
            lines.append(
                f"  dlb: reports={reports:.0f}  moves_applied={moves:.0f}  "
                f"units_moved={units:.0f}"
            )
        if any(self.faults.values()):
            lines.append(
                "  faults: injected={injected:.0f}  crashes={crashes:.0f}  "
                "retransmits={retransmits:.0f}  lost={messages_lost:.0f}  "
                "deaths={deaths:.0f}  reassigned={units_reassigned:.0f}".format(
                    **{
                        k: self.faults.get(k, 0.0)
                        for k in (
                            "injected",
                            "crashes",
                            "retransmits",
                            "messages_lost",
                            "deaths",
                            "units_reassigned",
                        )
                    }
                )
            )
        if any(self.ckpt.values()):
            lines.append(
                "  ckpt: committed={epochs_committed:.0f}  "
                "aborted={epochs_aborted:.0f}  snapshots={snapshots:.0f}  "
                "rollbacks={rollbacks:.0f}  restores={slave_restores:.0f}  "
                "units_restored={units_restored:.0f}".format(
                    **{
                        k: self.ckpt.get(k, 0.0)
                        for k in (
                            "epochs_committed",
                            "epochs_aborted",
                            "snapshots",
                            "rollbacks",
                            "slave_restores",
                            "units_restored",
                        )
                    }
                )
            )
        if any(self.orch.values()):
            lines.append(
                "  orch: jobs={jobs:.0f}  succeeded={succeeded:.0f}  "
                "cached={cached:.0f}  failed={failed:.0f}  "
                "timeout={timeout:.0f}  retries={retries:.0f}  "
                "restarts={worker_restarts:.0f}".format(
                    **{
                        k: self.orch.get(k, 0.0)
                        for k in (
                            "jobs",
                            "succeeded",
                            "cached",
                            "failed",
                            "timeout",
                            "retries",
                            "worker_restarts",
                        )
                    }
                )
            )
        if any(self.strategies.values()):
            lines.append(
                "  strategies: steals={steal_attempts:.0f}  "
                "hits={steal_hits:.0f}  units_stolen={steal_units:.0f}  "
                "reissues={steal_reissues:.0f}  "
                "reassigns={robust_reassigns:.0f}  "
                "duplicates={robust_duplicates:.0f}".format(
                    **{
                        k: self.strategies.get(k, 0.0)
                        for k in (
                            "steal_attempts",
                            "steal_hits",
                            "steal_units",
                            "steal_reissues",
                            "robust_reassigns",
                            "robust_duplicates",
                        )
                    }
                )
            )
        if self.imbalance:
            ratios = [point[1] for point in self.imbalance if len(point) > 1]
            if ratios:
                lines.append(
                    f"  imbalance (max/mean work): first={ratios[0]:.3f}  "
                    f"last={ratios[-1]:.3f}  peak={max(ratios):.3f}"
                )
        interaction = self.overhead.get("interaction")
        movement = self.overhead.get("movement")
        if isinstance(interaction, Mapping) and isinstance(movement, Mapping):

            def _num(section: Mapping[str, object], key: str) -> float:
                value = section.get(key, 0.0)
                return float(value) if isinstance(value, (int, float)) else 0.0

            inter_msgs = _num(interaction, "status_msgs") + _num(
                interaction, "instr_msgs"
            )
            lines.append(
                f"  overhead: interaction_msgs={inter_msgs:.0f}"
                f" (est {_num(interaction, 'est_cpu_s') * 1e3:.2f} ms cpu)  "
                f"movement={_num(movement, 'move_bytes') / 1e3:.1f} kB"
                f" in {_num(movement, 'move_msgs'):.0f} msgs"
            )
        for pid in sorted(self.slaves, key=lambda s: int(s)):
            per_slave = self.slaves[pid]
            samples = per_slave.get("raw_rate")
            n_samples = len(samples) if isinstance(samples, list) else 0
            idle = per_slave.get("idle_s", 0.0)
            idle_f = idle if isinstance(idle, (int, float)) else 0.0
            lines.append(
                f"  slave {pid}: rate_samples={n_samples}  idle={idle_f:.3f}s"
            )
        if self.event_counts:
            counts = "  ".join(
                f"{cat}={n}" for cat, n in sorted(self.event_counts.items())
            )
            lines.append(f"  events: {counts}")
        return "\n".join(lines)


def _timeline(log: EventLog, name: str, pid: int) -> list[list[float]]:
    return [[t, v] for t, v in log.counter_series(name, pid=pid)]


def _imbalance_timeline(log: EventLog, n_slaves: int) -> list[list[float]]:
    """(t, max/mean) of assigned work whenever every slave has a sample."""
    latest: dict[int, float] = {}
    out: list[list[float]] = []
    for event in log.sorted_events():
        if isinstance(event, SpanEvent) or event.name != "work":
            continue
        latest[event.pid] = event.value
        if len(latest) < n_slaves:
            continue
        values = [latest[p] for p in sorted(latest)]
        mean = sum(values) / len(values)
        if mean <= 0:
            continue
        ratio = max(values) / mean
        if out and out[-1][0] == event.t:
            out[-1][1] = ratio
        else:
            out.append([event.t, ratio])
    return out


def _span_stats(log: EventLog, category: str, name: str) -> tuple[int, float, float]:
    """(count, total duration, total value) over matching spans."""
    count = 0
    duration = 0.0
    value = 0.0
    for event in log.filter(category=category, name=name):
        if isinstance(event, SpanEvent):
            count += 1
            duration += event.duration
            value += event.value
    return count, duration, value


def build_run_report(result: RunResultLike, recorder: Recorder) -> RunReport:
    """Aggregate one finished run into a :class:`RunReport`.

    Works with a disabled recorder too (timelines and overhead are then
    empty), so callers can build reports unconditionally.
    """
    log = recorder.log
    metrics = recorder.metrics
    n = result.n_slaves

    slaves: dict[str, dict[str, object]] = {}
    for pid in range(n):
        per_slave: dict[str, object] = {
            channel: _timeline(log, channel, pid) for channel in RATE_CHANNELS
        }
        usage = result.rusage.usage_for(pid)
        per_slave["elapsed_s"] = usage.elapsed
        per_slave["app_cpu_s"] = usage.app_cpu
        per_slave["competing_cpu_s"] = usage.competing_cpu
        per_slave["idle_s"] = usage.idle_cpu
        slaves[str(pid)] = per_slave

    master_log = result.log
    dlb: dict[str, float] = {
        "reports_received": float(master_log.reports_received),
        "decisions": metrics.counter_value("lb.decisions"),
        "moves_issued": float(master_log.moves_issued),
        "moves_applied": float(master_log.moves_applied),
        "moves_canceled": float(master_log.moves_canceled),
        "units_moved": float(master_log.units_moved),
        "merged_units": float(master_log.merged_units),
    }

    faults: dict[str, float] = {
        "injected": metrics.counter_value("faults.injected"),
        "crashes": metrics.counter_value("faults.crashes"),
        "retransmits": metrics.counter_value("net.retransmits"),
        "messages_lost": metrics.counter_value("net.msgs_lost"),
        "duplicates_dropped": metrics.counter_value("net.duplicates_dropped"),
        "suspected": metrics.counter_value("ft.suspected"),
        "recovered": metrics.counter_value("ft.recovered"),
        "deaths": metrics.counter_value("ft.deaths"),
        "units_reassigned": metrics.counter_value("ft.units_reassigned"),
        "ctrl_retransmits": metrics.counter_value("ft.ctrl_retransmits"),
    }

    orch: dict[str, float] = {
        "jobs": metrics.counter_value("orch.jobs.submitted"),
        "succeeded": metrics.counter_value("orch.jobs.succeeded"),
        "cached": metrics.counter_value("orch.jobs.cached"),
        "failed": metrics.counter_value("orch.jobs.failed"),
        "timeout": metrics.counter_value("orch.jobs.timeout"),
        "cancelled": metrics.counter_value("orch.jobs.cancelled"),
        "cache_hits": metrics.counter_value("orch.cache_hits"),
        "retries": metrics.counter_value("orch.retries"),
        "worker_restarts": metrics.counter_value("orch.workers.restarted"),
    }

    strategies: dict[str, float] = {
        "steal_attempts": metrics.counter_value("steal.attempts"),
        "steal_hits": metrics.counter_value("steal.hits"),
        "steal_denies": metrics.counter_value("steal.denies"),
        "steal_aborts": metrics.counter_value("steal.aborts"),
        "steal_units": metrics.counter_value("steal.units"),
        "steal_reissues": metrics.counter_value("steal.reissues"),
        "robust_reassigns": metrics.counter_value("robust.reassigns"),
        "robust_duplicates": metrics.counter_value("robust.duplicates"),
    }

    ckpt: dict[str, float] = {
        "epochs_opened": metrics.counter_value("ckpt.epochs_opened"),
        "epochs_committed": metrics.counter_value("ckpt.epochs_committed"),
        "epochs_aborted": metrics.counter_value("ckpt.epochs_aborted"),
        "barrier_misses": metrics.counter_value("ckpt.barrier_misses"),
        "snapshots": metrics.counter_value("ckpt.snapshots"),
        "snapshot_bytes": metrics.counter_value("ckpt.snapshot_bytes"),
        "rollbacks": metrics.counter_value("ckpt.rollbacks"),
        "units_restored": metrics.counter_value("ckpt.units_restored"),
        "slave_restores": metrics.counter_value("ckpt.slave_restores"),
    }

    send_cpu = metrics.gauge_value("net.send_cpu_per_msg")
    recv_cpu = metrics.gauge_value("net.recv_cpu_per_msg")
    status_msgs = metrics.counter_value("net.msgs.status")
    instr_msgs = metrics.counter_value("net.msgs.instr")
    move_sends, move_send_cpu, move_send_units = _span_stats(log, "move", "send")
    move_recvs, move_recv_cpu, _ = _span_stats(log, "move", "recv")
    merges, merge_cpu, merge_units = _span_stats(log, "pipeline", "catchup")
    latency = metrics.histogram("lb.balance_latency_s").summary()

    idle_per_slave = {
        str(pid): result.rusage.usage_for(pid).idle_cpu for pid in range(n)
    }
    overhead: dict[str, object] = {
        "interaction": {
            "status_msgs": status_msgs,
            "instr_msgs": instr_msgs,
            "status_bytes": metrics.counter_value("net.bytes.status"),
            "instr_bytes": metrics.counter_value("net.bytes.instr"),
            "est_cpu_s": (status_msgs + instr_msgs) * (send_cpu + recv_cpu),
        },
        "movement": {
            "move_msgs": metrics.counter_value("net.msgs.move"),
            "move_bytes": metrics.counter_value("net.bytes.move"),
            "sends": float(move_sends),
            "recvs": float(move_recvs),
            "units_sent": move_send_units,
            "send_cpu_s": move_send_cpu,
            "recv_cpu_s": move_recv_cpu,
        },
        "balance_latency_s": latency,
        "pipeline_catchup": {
            "merges": float(merges),
            "units_merged": merge_units,
            "cpu_s": merge_cpu,
        },
        "idle": {
            "per_slave_s": idle_per_slave,
            "total_s": sum(idle_per_slave.values()),
        },
    }

    return RunReport(
        name=result.name,
        n_slaves=n,
        elapsed=result.elapsed,
        sequential_time=result.sequential_time,
        speedup=result.speedup,
        efficiency=result.efficiency,
        dlb_enabled=result.dlb_enabled,
        dlb=dlb,
        faults=faults,
        ckpt=ckpt,
        orch=orch,
        strategies=strategies,
        slaves=slaves,
        imbalance=_imbalance_timeline(log, n),
        overhead=overhead,
        metrics=metrics.snapshot(),
        event_counts=log.categories(),
    )
