"""Point-to-point network: mailboxes, wire delays, and topologies.

The default model is a Nectar-style crossbar: any pair of processors has
a dedicated path (no contention), characterised by latency and bandwidth,
with per-message CPU overheads charged on each side through the processor
model (see :class:`repro.config.NetworkSpec`).

A plane that names a topology kind (``"ring"``, ``"mesh2d"``,
``"fat_tree"`` or ``"two_cluster"``) hands the cluster a :class:`Fabric`,
and messages instead traverse that explicit interconnect: the fabric
routes over directed links, sums per-hop latencies, divides by per-link
bandwidth, and serializes competing messages on each link with
deterministic store-and-forward busy-time bookkeeping.  A topology's
parameters are the module constants below.  Topologies also expose the
neighbor sets used by the decentralized diffusion balancer (see
:mod:`repro.baselines.diffusion`).
"""

from __future__ import annotations

import math
from collections import deque

from ..config import NetworkSpec
from ..errors import ConfigError
from ..fastcopy import snapshot_payload
from ..obs import NULL_RECORDER, Recorder
from .events import Message

__all__ = [
    "Mailbox",
    "snapshot_payload",
    "Topology",
    "RingTopology",
    "Mesh2DTopology",
    "FatTreeTopology",
    "TwoClusterTopology",
    "build_topology",
    "Fabric",
]


class Mailbox:
    """Per-processor FIFO of delivered messages with selective receive.

    With an enabled :class:`~repro.obs.Recorder`, each delivery emits a
    ``net/msg`` span covering the message's wire time (send to arrival).
    """

    __slots__ = ("pid", "_obs", "_queue")

    def __init__(self, pid: int = -1, recorder: Recorder | None = None) -> None:
        self.pid = pid
        self._obs = recorder if recorder is not None else NULL_RECORDER
        self._queue: deque[Message] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def deliver(self, msg: Message) -> None:
        """Append an arrived message."""
        self._queue.append(msg)
        if self._obs.enabled:
            t_arrived = max(msg.t_arrived, msg.t_sent)
            self._obs.emit_span(
                "net",
                "msg",
                msg.t_sent,
                t_arrived,
                pid=msg.dst,
                value=float(msg.nbytes),
                meta={"src": msg.src, "tag": msg.tag, "queued": len(self._queue)},
            )

    @staticmethod
    def _matches(msg: Message, src: int | None, tag: str | None) -> bool:
        return (src is None or msg.src == src) and (tag is None or msg.tag == tag)

    def take(self, src: int | None = None, tag: str | None = None) -> Message | None:
        """Remove and return the oldest matching message, or ``None``."""
        # The match predicate is inlined (see ``_matches``): take() runs
        # once per receive and the call overhead is measurable.
        for i, msg in enumerate(self._queue):
            if (src is None or msg.src == src) and (tag is None or msg.tag == tag):
                del self._queue[i]
                return msg
        return None

    def peek(self, src: int | None = None, tag: str | None = None) -> Message | None:
        """Return (without removing) the oldest matching message."""
        for msg in self._queue:
            if (src is None or msg.src == src) and (tag is None or msg.tag == tag):
                return msg
        return None


# ----------------------------------------------------------------------
# Interconnect topologies
# ----------------------------------------------------------------------

# A directed link is identified by a small tuple; the fabric keys its
# latency/bandwidth tables and busy-time bookkeeping on these ids.
Link = tuple

#: Fat-tree switch radix: leaves per edge switch.
RADIX = 4
#: Fat-tree per-level uplink bandwidth multiplier (``RADIX`` would give
#: full bisection; lower oversubscribes).
FAT_FACTOR = 2.0
#: Two-cluster one-way WAN latency in seconds, each direction.
WAN_LATENCY = 0.025
#: Two-cluster shared WAN link bandwidth in bytes/s.
WAN_BANDWIDTH = 10.0e6


class Topology:
    """An interconnect over ``n_members`` member nodes.

    Subclasses define the member adjacency used by decentralized
    balancers (:meth:`neighbors`) and the directed-link routes used by
    the :class:`Fabric` to price messages (:meth:`route`,
    :meth:`link_latency`, :meth:`link_bandwidth`).  Every hop has the
    network's latency and bandwidth unless a subclass says otherwise.
    """

    kind = "abstract"

    def __init__(self, n_members: int, net: NetworkSpec):
        if n_members < 2:
            raise ConfigError(
                f"{self.kind} topology needs >= 2 members, got {n_members}"
            )
        self.n_members = n_members
        self.hop_latency = net.latency
        self.base_bandwidth = net.bandwidth

    def neighbors(self, node: int) -> tuple[int, ...]:
        raise NotImplementedError

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """Directed links traversed from member ``src`` to member ``dst``."""
        raise NotImplementedError

    def link_latency(self, link: Link) -> float:
        return self.hop_latency

    def link_bandwidth(self, link: Link) -> float:
        return self.base_bandwidth

    def hops(self, src: int, dst: int) -> int:
        """Number of links on the ``src`` -> ``dst`` route."""
        return len(self.route(src, dst))

    def _check_member(self, node: int) -> None:
        if not 0 <= node < self.n_members:
            raise ConfigError(
                f"{self.kind} member {node} out of range 0..{self.n_members - 1}"
            )


class RingTopology(Topology):
    """Members on a bidirectional ring; routes walk the shorter arc."""

    kind = "ring"

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check_member(node)
        n = self.n_members
        if n == 2:
            return ((node + 1) % 2,)
        return ((node - 1) % n, (node + 1) % n)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check_member(src)
        self._check_member(dst)
        if src == dst:
            return ()
        n = self.n_members
        fwd = (dst - src) % n
        step = 1 if fwd <= n - fwd else -1  # tie goes clockwise
        links = []
        node = src
        while node != dst:
            nxt = (node + step) % n
            links.append(("r", node, nxt))
            node = nxt
        return tuple(links)


class Mesh2DTopology(Topology):
    """Members on a ``rows x cols`` grid with dimension-ordered routing.

    The grid is the most-square factorization of the member count
    (``rows * cols == n_members``); routes go vertically first, then
    horizontally, over directed nearest-neighbor links.
    """

    kind = "mesh2d"

    def __init__(self, n_members: int, net: NetworkSpec):
        super().__init__(n_members, net)
        rows = int(math.isqrt(n_members))
        while rows > 1 and n_members % rows:
            rows -= 1
        self.rows = rows
        self.cols = n_members // rows

    def _rc(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cols)

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check_member(node)
        r, c = self._rc(node)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                out.append(rr * self.cols + cc)
        return tuple(out)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check_member(src)
        self._check_member(dst)
        if src == dst:
            return ()
        r0, c0 = self._rc(src)
        r1, c1 = self._rc(dst)
        links = []
        node = src
        while r0 != r1:
            r0 += 1 if r1 > r0 else -1
            nxt = r0 * self.cols + c0
            links.append(("m", node, nxt))
            node = nxt
        while c0 != c1:
            c0 += 1 if c1 > c0 else -1
            nxt = r0 * self.cols + c0
            links.append(("m", node, nxt))
            node = nxt
        return tuple(links)


class FatTreeTopology(Topology):
    """Members are leaves of a radix-:data:`RADIX` switch tree.

    Routes climb to the lowest common ancestor switch and descend; the
    link between tree level ``l`` and ``l + 1`` has bandwidth
    ``base * FAT_FACTOR**l`` (``FAT_FACTOR == RADIX`` would be full
    bisection; smaller values model oversubscription).  The diffusion
    neighbor set of a leaf is its siblings under the same edge switch
    plus the same-position leaf in each adjacent switch group (a ring of
    groups), so decentralized exchange has both cheap local and one
    inter-group edge per leaf.
    """

    kind = "fat_tree"

    def __init__(self, n_members: int, net: NetworkSpec):
        super().__init__(n_members, net)
        # Entity counts per level: level 0 = leaves, then switches.
        counts = [n_members]
        while counts[-1] > 1:
            counts.append(-(-counts[-1] // RADIX))
        self.levels = len(counts) - 1  # switch levels above the leaves

    def n_groups(self) -> int:
        return -(-self.n_members // RADIX)

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check_member(node)
        k = RADIX
        group, pos = divmod(node, k)
        out = [
            leaf
            for leaf in range(group * k, min((group + 1) * k, self.n_members))
            if leaf != node
        ]
        ngroups = self.n_groups()
        if ngroups > 1:
            for g in ((group - 1) % ngroups, (group + 1) % ngroups):
                if g == group:
                    continue
                peer = g * k + pos
                if peer < self.n_members and peer not in out:
                    out.append(peer)
        return tuple(out)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check_member(src)
        self._check_member(dst)
        if src == dst:
            return ()
        k = RADIX
        up, down = [], []
        a, b = src, dst
        level = 0
        while a // k != b // k:
            up.append(("fu", level, a))
            down.append(("fd", level, b))
            a //= k
            b //= k
            level += 1
        up.append(("fu", level, a))
        down.append(("fd", level, b))
        return tuple(up + list(reversed(down)))

    def link_bandwidth(self, link: Link) -> float:
        return self.base_bandwidth * (FAT_FACTOR ** link[1])


class TwoClusterTopology(Topology):
    """Two crossbar clusters joined by one shared WAN link.

    The first half of the members (``< split``) form cluster A, the
    rest cluster B.  Intra-cluster messages use a dedicated per-pair path
    (crossbar); inter-cluster messages traverse the sender's access port
    plus the shared WAN link (:data:`WAN_LATENCY`,
    :data:`WAN_BANDWIDTH`).  Diffusion neighbors form a ring within each
    cluster plus one gateway edge between member 0 and member ``split``.
    """

    kind = "two_cluster"

    def __init__(self, n_members: int, net: NetworkSpec):
        super().__init__(n_members, net)
        self.split = n_members // 2

    def cluster_of(self, node: int) -> int:
        return 0 if node < self.split else 1

    def neighbors(self, node: int) -> tuple[int, ...]:
        self._check_member(node)
        lo, hi = (
            (0, self.split) if node < self.split else (self.split, self.n_members)
        )
        size = hi - lo
        out = []
        if size > 1:
            i = node - lo
            if size == 2:
                out = [lo + (i + 1) % 2]
            else:
                out = [lo + (i - 1) % size, lo + (i + 1) % size]
        if node == 0:
            out.append(self.split)
        elif node == self.split:
            out.append(0)
        return tuple(out)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check_member(src)
        self._check_member(dst)
        if src == dst:
            return ()
        if self.cluster_of(src) == self.cluster_of(dst):
            return (("x", src, dst),)
        return (("acc", src), ("wan", self.cluster_of(src)))

    def link_latency(self, link: Link) -> float:
        return WAN_LATENCY if link[0] == "wan" else self.hop_latency

    def link_bandwidth(self, link: Link) -> float:
        return WAN_BANDWIDTH if link[0] == "wan" else self.base_bandwidth


_TOPOLOGIES = {
    "ring": RingTopology,
    "mesh2d": Mesh2DTopology,
    "fat_tree": FatTreeTopology,
    "two_cluster": TwoClusterTopology,
}


def build_topology(
    kind: str, n_members: int, net: NetworkSpec | None = None
) -> Topology:
    """Instantiate the ``kind`` topology over ``n_members`` member nodes."""
    cls = _TOPOLOGIES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown topology kind {kind!r}; choose from {', '.join(_TOPOLOGIES)}"
        )
    return cls(n_members, net if net is not None else NetworkSpec())


class Fabric:
    """Prices message transfers over a :class:`Topology`.

    Processors that are fabric members (pid < ``n_members``) sit on their
    own node; other processors (masters, sub-masters) are attached to a
    member node via ``attach`` (default member 0), sharing its network
    position.  Same-node transfers cost the crossbar base time.

    Each directed link serializes: a message reaching a busy link queues
    behind the messages already on it (store-and-forward, deterministic
    busy-time bookkeeping).
    """

    def __init__(
        self,
        topology: Topology,
        net: NetworkSpec,
        attach: dict[int, int] | None = None,
    ):
        self.topology = topology
        self.base_latency = net.latency
        self.base_bandwidth = net.bandwidth
        self._attach = dict(attach or {})
        for pid, node in self._attach.items():
            topology._check_member(node)
        self._routes: dict[tuple[int, int], tuple[Link, ...]] = {}
        self._busy: dict[Link, float] = {}

    def node_of(self, pid: int) -> int:
        if pid < self.topology.n_members:
            return pid
        return self._attach.get(pid, 0)

    def arrival(self, src_pid: int, dst_pid: int, nbytes: int, t: float) -> float:
        """Arrival time of a message departing node ports at time ``t``."""
        src = self.node_of(src_pid)
        dst = self.node_of(dst_pid)
        if src == dst:
            return t + (self.base_latency + nbytes / self.base_bandwidth)
        key = (src, dst)
        topo = self.topology
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = topo.route(src, dst)
        busy = self._busy
        for lk in route:
            start = busy.get(lk, 0.0)
            if start < t:
                start = t
            t = start + topo.link_latency(lk) + nbytes / topo.link_bandwidth(lk)
            busy[lk] = t
        return t
