"""Configuration dataclasses for the simulator, runtime, and compiler.

Defaults are calibrated to the paper's testbed: Sun 4/330 workstations
(~1 Mop/s for the scalar loop kernels measured), Nectar links at
100 Mbyte/s, a 100 ms Unix scheduling quantum, and the load-balancer
constants given in Sections 3.2 and 4.3/4.4 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = [
    "ProcessorSpec",
    "NetworkSpec",
    "TopologySpec",
    "ClusterSpec",
    "BalancerConfig",
    "GrainConfig",
    "FaultToleranceConfig",
    "CheckpointConfig",
    "RunConfig",
]


@dataclass(frozen=True)
class ProcessorSpec:
    """A single workstation's CPU model.

    Attributes:
        speed: application operations per second of dedicated CPU.
        quantum: OS scheduling time quantum in seconds (round-robin).
        phase: offset, in seconds, of this processor's round-robin cycle
            relative to the start of each constant-load segment.  Giving
            processors different phases reproduces the measurement noise
            the paper attributes to context switching (Section 4.3).
        scheduler: ``"round_robin"`` models the quantum staircase (the
            paper's environment); ``"fair"`` is an idealised fluid
            processor-sharing scheduler with no quantum effects — useful
            for ablating the Section 4.3 measurement-noise claims.
    """

    speed: float = 1.0e6
    quantum: float = 0.1
    phase: float = 0.0
    scheduler: str = "round_robin"

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ConfigError(f"processor speed must be positive, got {self.speed}")
        if self.quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")
        if not (0.0 <= self.phase < math.inf):
            raise ConfigError(f"phase must be finite and >= 0, got {self.phase}")
        if self.scheduler not in ("round_robin", "fair"):
            raise ConfigError(
                f"scheduler must be 'round_robin' or 'fair', got {self.scheduler!r}"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point network model (Nectar-like crossbar, no contention).

    Message transfer time is ``latency + nbytes / bandwidth``; in addition
    the sender spends ``send_cpu`` seconds of CPU and the receiver spends
    ``recv_cpu`` seconds of CPU per message (protocol/software overhead).
    CPU overheads are charged through the processor model, so they dilate
    on loaded machines just like computation does.
    """

    latency: float = 5.0e-4
    bandwidth: float = 100.0e6
    send_cpu: float = 5.0e-4
    recv_cpu: float = 5.0e-4

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.send_cpu < 0 or self.recv_cpu < 0:
            raise ConfigError("per-message CPU overheads must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for a message of ``nbytes`` (excluding CPU overheads)."""
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class TopologySpec:
    """Interconnect topology replacing the default uncontended crossbar.

    With a topology configured, message transfer time is computed by a
    :class:`repro.sim.network.Fabric` over the topology's links (per-hop
    latency, per-link bandwidth, and — with ``contention`` — per-link
    store-and-forward queueing) instead of the single dedicated path the
    crossbar assumes.  Per-message CPU overheads are unchanged.

    The fabric spans ``n_members`` *member* nodes (defaults to the
    cluster's slave count); processors beyond the members (masters,
    sub-masters) are attached to a member's network port via the
    ``Cluster``'s attach map.

    Attributes:
        kind: ``"ring"``, ``"mesh2d"``, ``"fat_tree"``, or
            ``"two_cluster"``.
        n_members: fabric node count (default: the cluster's slaves).
        radix: fat-tree switch radix (leaves per edge switch).
        fat_factor: fat-tree per-level uplink bandwidth multiplier
            (``radix`` gives full bisection; lower oversubscribes).
        split: two-cluster boundary — members ``< split`` are in cluster
            A (default: half).
        wan_latency: two-cluster A-to-B one-way latency in seconds.
        wan_latency_back: B-to-A latency (defaults to ``wan_latency``;
            setting it differently models asymmetric WAN paths).
        wan_bandwidth: shared inter-cluster link bandwidth, bytes/s.
        hop_latency: per-hop wire latency (default: the network spec's
            crossbar latency).
        contention: model per-link serialization queueing (deterministic
            busy-time bookkeeping) instead of latency-only routes.
    """

    kind: str = "ring"
    n_members: int | None = None
    radix: int = 4
    fat_factor: float = 2.0
    split: int | None = None
    wan_latency: float = 0.025
    wan_latency_back: float | None = None
    wan_bandwidth: float = 10.0e6
    hop_latency: float | None = None
    contention: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("ring", "mesh2d", "fat_tree", "two_cluster"):
            raise ConfigError(
                "topology kind must be one of 'ring', 'mesh2d', 'fat_tree', "
                f"'two_cluster', got {self.kind!r}"
            )
        if self.n_members is not None and self.n_members < 2:
            raise ConfigError(f"topology needs >= 2 members, got {self.n_members}")
        if self.radix < 2:
            raise ConfigError(f"fat-tree radix must be >= 2, got {self.radix}")
        if self.fat_factor < 1.0:
            raise ConfigError(f"fat_factor must be >= 1, got {self.fat_factor}")
        if self.split is not None and self.split < 1:
            raise ConfigError(f"two_cluster split must be >= 1, got {self.split}")
        if self.wan_latency < 0 or (
            self.wan_latency_back is not None and self.wan_latency_back < 0
        ):
            raise ConfigError("WAN latencies must be >= 0")
        if self.wan_bandwidth <= 0:
            raise ConfigError("WAN bandwidth must be positive")
        if self.hop_latency is not None and self.hop_latency < 0:
            raise ConfigError("hop_latency must be >= 0")


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster: ``n_slaves`` worker processors plus one master processor.

    Processor ``i`` in ``0..n_slaves-1`` hosts slave ``i``; processor
    ``n_slaves`` hosts the master (central load balancer).  A heterogeneous
    cluster can be described by ``processor_overrides``.
    """

    n_slaves: int = 4
    processor: ProcessorSpec = field(default_factory=ProcessorSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    processor_overrides: tuple[tuple[int, ProcessorSpec], ...] = ()
    stagger_phases: bool = True
    # None keeps the legacy uncontended crossbar (byte-identical traces).
    topology: TopologySpec | None = None

    def __post_init__(self) -> None:
        if self.n_slaves < 1:
            raise ConfigError(f"need at least one slave, got {self.n_slaves}")
        for pid, _spec in self.processor_overrides:
            if not 0 <= pid <= self.n_slaves:
                raise ConfigError(f"processor override pid {pid} out of range")
        if self.topology is not None:
            members = self.topology.n_members
            if members is not None and members > self.n_processors:
                raise ConfigError(
                    f"topology spans {members} members but the cluster has "
                    f"only {self.n_processors} processors"
                )

    @property
    def n_processors(self) -> int:
        """Total processor count (slaves + master)."""
        return self.n_slaves + 1

    @property
    def master_pid(self) -> int:
        """Processor id hosting the central load balancer."""
        return self.n_slaves

    def spec_for(self, pid: int) -> ProcessorSpec:
        """Resolve the :class:`ProcessorSpec` for processor ``pid``."""
        spec = self.processor
        for opid, ospec in self.processor_overrides:
            if opid == pid:
                spec = ospec
        if self.stagger_phases and spec.phase == 0.0:
            # Deterministic per-processor stagger so round-robin cycles do
            # not align across the cluster.
            spec = replace(spec, phase=(pid * 0.37) % spec.quantum)
        return spec


@dataclass(frozen=True)
class BalancerConfig:
    """Central load balancer parameters (paper Sections 3.2, 3.3, 4.3).

    Attributes:
        improvement_threshold: minimum projected reduction in completion
            time before movement instructions are issued (paper: 10%).
        pipelined: use pipelined master-slave interactions (Figure 2b)
            instead of synchronous ones (Figure 2a).
        filter_enabled: apply the trend-weighted rate filter.
        profitability_enabled: run the detailed profitability check that can
            cancel unprofitable movements.
        min_period: absolute floor on the load-balancing period (500 ms).
        quantum_multiple: period must exceed this many scheduling quanta (5).
        interaction_multiple: period must exceed this many times the
            measured master-slave interaction cost (20, i.e. <=5% overhead).
        movement_multiple: period must exceed this fraction of the measured
            work-movement cost (0.1).
        restricted: force restricted (adjacent-only) movement even for
            applications without loop-carried dependences.
        profitability_horizon_periods: how many load-balancing periods of
            projected savings the profitability check may credit (rates
            can change again, so far-future benefit is not trusted).
    """

    improvement_threshold: float = 0.10
    pipelined: bool = True
    filter_enabled: bool = True
    profitability_enabled: bool = True
    min_period: float = 0.5
    quantum_multiple: float = 5.0
    interaction_multiple: float = 20.0
    movement_multiple: float = 0.1
    restricted: bool | None = None
    profitability_horizon_periods: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.improvement_threshold < 1.0:
            raise ConfigError("improvement_threshold must be in [0, 1)")
        if self.min_period <= 0:
            raise ConfigError("min_period must be positive")


@dataclass(frozen=True)
class GrainConfig:
    """Granularity control (paper Section 4.4).

    The compiler strip-mines pipelined loops; the runtime sizes the strip at
    startup so one strip of work takes ``target_block_time`` seconds
    (paper: 150 ms = 1.5x the scheduling quantum).
    """

    target_block_time: float = 0.15
    hook_overhead_ops: float = 50.0
    hook_cost_fraction: float = 0.01
    block_size_override: int | None = None

    def __post_init__(self) -> None:
        if self.target_block_time <= 0:
            raise ConfigError("target_block_time must be positive")
        if not 0 < self.hook_cost_fraction < 1:
            raise ConfigError("hook_cost_fraction must be in (0, 1)")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Failure-tolerant runtime parameters (see docs/fault-tolerance.md).

    Disabled by default.  Every master and slave wait is a receive
    either way; the flag only gives each wait a deadline.  A slave's wait
    expires at its next heartbeat and serves recovery controls; the
    master's at its earliest recovery deadline (a control retry, a
    silent slave's suspicion or death, the next checkpoint epoch).

    Attributes:
        enabled: turn on timed waits, heartbeats, suspicion/death
            detection, control retries, and work reassignment.
        heartbeat_interval: a slave that has not sent the master anything
            (status report, ack) for this long sends an explicit
            heartbeat so silence means trouble, not idleness.
        suspect_after: silence before the master *suspects* a slave —
            it stops directing new work at it but keeps its slices.
        dead_after: silence before the master declares a slave dead and
            reassigns its work.  Must comfortably exceed the worst-case
            transport retransmission span plus one heartbeat interval.
        ctrl_rto: base timeout before an unacknowledged recovery control
            message (grant / cancel) is retransmitted.
        ctrl_backoff: exponential backoff factor between control retries.
        ctrl_max_retries: control retries before the target is given up
            on (:class:`~repro.errors.SlaveLostError` if it is not dead).
    """

    enabled: bool = False
    heartbeat_interval: float = 0.5
    suspect_after: float = 2.0
    dead_after: float = 8.0
    ctrl_rto: float = 0.5
    ctrl_backoff: float = 2.0
    ctrl_max_retries: int = 6

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        if not 0 < self.suspect_after < self.dead_after:
            raise ConfigError(
                "need 0 < suspect_after < dead_after, got "
                f"{self.suspect_after} / {self.dead_after}"
            )
        if self.ctrl_rto <= 0 or self.ctrl_backoff < 1.0:
            raise ConfigError("ctrl_rto must be > 0 and ctrl_backoff >= 1")
        if self.ctrl_max_retries < 0:
            raise ConfigError("ctrl_max_retries must be >= 0")


@dataclass(frozen=True)
class CheckpointConfig:
    """Coordinated checkpoint/rollback parameters (see docs/fault-tolerance.md).

    Disabled by default: with ``enabled=False`` no checkpoint traffic is
    generated and fault-free event traces are byte-for-byte identical to
    runs before checkpointing existed.  Enabling checkpoints implies the
    failure-tolerant control plane (``RunConfig.ft``).

    Attributes:
        enabled: take periodic coordinated snapshots and allow the master
            to roll surviving slaves back after a death on dependence-
            carrying schedules (PIPELINE / REDUCTION_FRONT).
        interval: minimum simulated seconds between checkpoint epochs.
        placement: where slave snapshots are deposited — ``"master"``
            ships each snapshot to the master's epoch ledger;
            ``"buddy"`` ships the data to the next live slave
            (pid + 1 mod n) and only a light manifest to the master.
        barrier_margin: how many reps past the latest reported progress
            the master places the checkpoint barrier; grows on a miss.
    """

    enabled: bool = False
    interval: float = 2.0
    placement: str = "master"
    barrier_margin: int = 2

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(f"ckpt interval must be positive, got {self.interval}")
        if self.placement not in ("master", "buddy"):
            raise ConfigError(
                f"ckpt placement must be 'master' or 'buddy', got {self.placement!r}"
            )
        if self.barrier_margin < 1:
            raise ConfigError("ckpt barrier_margin must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Top-level knobs for one simulated application run.

    ``strategy`` selects the DLB control plane for PARALLEL_MAP
    workloads: ``"centralized"`` is the paper's runtime
    (:func:`repro.runtime.run_application`); the other names are the
    :mod:`repro.strategies` registry (``rate``, ``hier``, ``diffusion``,
    ``stealing``, ``rdlb``, ``fsc``, ``gss``, ``factoring``,
    ``trapezoid``).  The name is validated where it is consumed
    (:func:`repro.strategies.run_strategy`), not here, so the config
    module stays dependency-free.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    grain: GrainConfig = field(default_factory=GrainConfig)
    ft: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)
    ckpt: CheckpointConfig = field(default_factory=CheckpointConfig)
    execute_numerics: bool = True
    dlb_enabled: bool = True
    trace_enabled: bool = False
    max_virtual_time: float = 1.0e7
    strategy: str = "centralized"

    def __post_init__(self) -> None:
        if not self.strategy or not isinstance(self.strategy, str):
            raise ConfigError(f"strategy must be a non-empty name, got {self.strategy!r}")
