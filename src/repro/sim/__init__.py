"""Discrete-event simulator of a network of workstations.

This subpackage is the substitute for the paper's Nectar testbed: it models
processors with an OS scheduling quantum and time-varying competing loads,
a point-to-point network with latency/bandwidth/per-message CPU costs, and
application tasks written as Python generators that issue simulator
"syscalls" (:class:`Compute`, :class:`Send`, :class:`Recv`, ...).

Typical use::

    from repro.sim import Cluster, Compute, Send, Recv
    from repro.config import ClusterSpec

    def worker(ctx):
        yield Compute(1_000_000)          # one second of dedicated CPU
        yield Send(dst=1, tag="hi", payload=42, nbytes=8)

    cluster = Cluster(ClusterSpec(n_slaves=2))
    cluster.spawn(0, worker)
    cluster.run()
"""

from .engine import Engine
from .events import Message
from .load import (
    CompositeLoad,
    ConstantLoad,
    LoadGenerator,
    LoadTrace,
    NoLoad,
    OscillatingLoad,
    StepLoad,
)
from .machine import Cluster, TaskContext
from .network import (
    Fabric,
    FatTreeTopology,
    Mesh2DTopology,
    RingTopology,
    Topology,
    TwoClusterTopology,
    build_topology,
)
from .process import Compute, Poll, Recv, Send, Sleep, Now
from .processor import Processor
from .rusage import RusageReport
from .trace import Trace

__all__ = [
    "Engine",
    "Message",
    "LoadGenerator",
    "LoadTrace",
    "NoLoad",
    "ConstantLoad",
    "OscillatingLoad",
    "StepLoad",
    "CompositeLoad",
    "Cluster",
    "TaskContext",
    "Topology",
    "RingTopology",
    "Mesh2DTopology",
    "FatTreeTopology",
    "TwoClusterTopology",
    "build_topology",
    "Fabric",
    "Compute",
    "Send",
    "Recv",
    "Poll",
    "Sleep",
    "Now",
    "Processor",
    "RusageReport",
    "Trace",
]
