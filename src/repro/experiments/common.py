"""Shared experiment plumbing: run points, sweeps, and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..compiler.plan import ExecutionPlan
from ..config import (
    BalancerConfig,
    ClusterSpec,
    NetworkSpec,
    ProcessorSpec,
    RunConfig,
)
from ..obs import Recorder
from ..runtime.launcher import RunResult, run_application
from ..sim import LoadGenerator

__all__ = ["run_point", "ExperimentSeries", "format_table"]

# Paper testbed calibration: Sun 4/330 ~= 1 Mop/s on these kernels,
# Nectar links at 100 Mbyte/s, 100 ms Unix scheduling quantum.
PAPER_SPEED = 1.0e6
PAPER_QUANTUM = 0.1


def run_point(
    plan: ExecutionPlan,
    n_slaves: int,
    loads: Mapping[int, LoadGenerator] | None = None,
    dlb: bool = True,
    pipelined: bool = True,
    execute_numerics: bool = False,
    trace: bool = False,
    speed: float = PAPER_SPEED,
    seed: int = 0,
    balancer: BalancerConfig | None = None,
    network: NetworkSpec | None = None,
    recorder: Recorder | None = None,
) -> RunResult:
    """One simulated run with paper-calibrated defaults."""
    cfg = RunConfig(
        cluster=ClusterSpec(
            n_slaves=n_slaves,
            processor=ProcessorSpec(speed=speed, quantum=PAPER_QUANTUM),
            network=network if network is not None else NetworkSpec(),
        ),
        balancer=balancer
        if balancer is not None
        else BalancerConfig(pipelined=pipelined),
        execute_numerics=execute_numerics,
        dlb_enabled=dlb,
        trace_enabled=trace,
    )
    return run_application(plan, cfg, loads=loads, seed=seed, recorder=recorder)


@dataclass
class ExperimentSeries:
    """Rows of an experiment, one per processor count / configuration."""

    name: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    expected: str = ""

    def add(self, *row: Any) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row width {len(row)} != headers {len(self.headers)}"
            )
        self.rows.append(tuple(row))

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [r[idx] for r in self.rows]

    def format_table(self) -> str:
        return format_table(
            self.name, self.headers, self.rows, self.notes, self.expected
        )

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-safe) for reports and artifacts."""
        return {
            "name": self.name,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "expected": self.expected,
        }


def format_table(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: Sequence[str] = (),
    expected: str = "",
) -> str:
    """Fixed-width text table in the paper's reporting style."""

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.3f}" if abs(v) < 100 else f"{v:.1f}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [name, "=" * len(name)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    for note in notes:
        lines.append(f"  note: {note}")
    if expected:
        lines.append(f"  paper: {expected}")
    return "\n".join(lines)
