"""Hierarchical dynamic load balancing: a tree of sub-masters.

The paper's central master polls every slave, so its per-message CPU
cost caps the slave count it can serve (at the calibrated 0.5 ms per
message and a 0.5 s reporting period, roughly a thousand reports per
second).  Here the control plane is a configurable-fanout tree: leaves
compute units and report ``{rate, remaining, done}`` to their parent;
each sub-master runs the paper's rate-filtered proportional
redistribution (:class:`~repro.runtime.filtering.TrendFilter` +
:func:`~repro.runtime.partition.proportional_counts`) over its shard and
sends only one aggregate summary per period upward, plus one as soon as
its whole shard has drained (as a leaf reports at once when it runs out
of units), so the last units reach the root without waiting out a period
at every level.  Every task waits event-driven, in a timed ``Recv``
bounded by its next deadline; none polls on a tick.  Movement *orders*
(``sc.take``) descend the tree; moved *units* travel leaf-to-leaf, so no
internal node ever holds work and a sub-master crash cannot lose shipped
cells.

Fault tolerance: periodic reports/summaries double as heartbeats.  Every
internal node (and the root) watches its children; an internal child
silent for ``DEAD_AFTER`` seconds is declared dead and its orphans are
adopted by the detecting node (``sc.reparent``), whose cumulative
counters reconstruct the shard's progress from the orphans' next
reports.  Leaf silence is *not* acted upon — leaf-crash recovery is the
central runtime's job (see ``repro.runtime.master``); this mode targets
control-plane failures, and a fault plan that crashes a leaf (or the
root) is rejected up front.

Supports PARALLEL_MAP plans (independent iterations): the bag-of-units
custody model above has no meaning for dependence-carrying shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..compiler.plan import ExecutionPlan
from ..config import RunConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import Recorder
from ..runtime.filtering import TrendFilter
from ..runtime.mapplane import MapResult, MapRun, UnitBag
from ..runtime.partition import proportional_counts
from ..sim import Compute, Fabric, LoadGenerator, Poll, Recv, Send, build_topology
from .protocol import ScaleTags

# Module-level alias named `Tags` so the protocol lint's AST resolver
# (which pairs `Tags.X` send/receive sites) sees this control plane's
# message sites exactly as it sees the central runtime's.
Tags = ScaleTags

__all__ = [
    "HierarchyResult",
    "Tree",
    "build_tree",
    "hier_can_recover",
    "run_hierarchical",
]


# The periods below are the plane's only clocks; no task sleeps on a
# poll tick.  An idle leaf blocks in a timed ``Recv`` until a message
# arrives or its next report is due, and a sub-master (or the root)
# until a message arrives or its next summary, balance or scan is due.

#: Leaf reporting cadence in simulated seconds; also the cadence of
#: aggregate summaries at each tree level.
REPORT_PERIOD = 0.5
#: How often each sub-master (and the root) runs a redistribution pass
#: over its children.
BALANCE_PERIOD = 1.0
#: A child's surplus must exceed this fraction of the mean remaining
#: work per child before an order is cut.
IMBALANCE_THRESHOLD = 0.25
#: Smallest number of units worth an order.
MIN_MOVE = 2
#: Silence before an internal child is declared dead and its shard
#: re-parented; sub-masters scan for it every ``DEAD_AFTER / 2``.  A
#: live child reports every ``REPORT_PERIOD``, so
#: DEAD_AFTER > 2 * REPORT_PERIOD.
DEAD_AFTER = 4.0


@dataclass(frozen=True)
class Tree:
    """Static shape of the control tree.

    Leaves are pids ``0..n_leaves-1``; internal nodes are assigned pids
    level by level above them; the root has the highest pid (and is the
    cluster's ``master_pid``).
    """

    n_leaves: int
    fanout: int | None
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    internal: tuple[int, ...]  # internal node pids, excluding the root
    root: int
    level_of: dict[int, int]

    @property
    def levels(self) -> int:
        """Number of control levels above the leaves (1 for flat)."""
        return self.level_of[self.root]

    @property
    def n_internal(self) -> int:
        return len(self.internal)

    def subtree_children(self, node: int) -> dict[int, tuple[int, ...]]:
        """Children map for every internal node at or below ``node``."""
        out: dict[int, tuple[int, ...]] = {}
        stack = [node]
        while stack:
            cur = stack.pop()
            kids = self.children.get(cur)
            if kids is None:
                continue
            out[cur] = kids
            stack.extend(kids)
        return out

    def first_leaf(self, node: int) -> int:
        """Lowest-pid leaf in the subtree under ``node``."""
        cur = node
        while cur >= self.n_leaves:
            cur = self.children[cur][0]
        return cur

    def shard_leaves(self, node: int) -> tuple[int, ...]:
        """All leaves in the subtree under ``node``."""
        if node < self.n_leaves:
            return (node,)
        out: list[int] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur < self.n_leaves:
                out.append(cur)
            else:
                stack.extend(self.children[cur])
        return tuple(sorted(out))


def build_tree(n_leaves: int, fanout: int | None = None) -> Tree:
    """Build the control tree: ``fanout`` children per sub-master.

    ``fanout=None`` (or ``>= n_leaves``) yields the flat/centralized
    shape: the root parents every leaf directly, which is exactly the
    paper's single-master architecture expressed in this protocol.
    """
    if n_leaves < 1:
        raise ConfigError(f"need at least one leaf, got {n_leaves}")
    if fanout is not None and fanout < 2:
        raise ConfigError(f"fanout must be >= 2, got {fanout}")
    level = list(range(n_leaves))
    next_pid = n_leaves
    parent: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    level_of = {pid: 0 for pid in level}
    internal: list[int] = []
    depth = 0
    while fanout is not None and len(level) > fanout:
        groups = -(-len(level) // fanout)
        nxt: list[int] = []
        for g in range(groups):
            pid = next_pid
            next_pid += 1
            kids = tuple(level[g * fanout : (g + 1) * fanout])
            children[pid] = kids
            for k in kids:
                parent[k] = pid
            level_of[pid] = depth + 1
            internal.append(pid)
            nxt.append(pid)
        level = nxt
        depth += 1
    root = next_pid
    children[root] = tuple(level)
    for k in level:
        parent[k] = root
    level_of[root] = depth + 1
    return Tree(
        n_leaves=n_leaves,
        fanout=fanout,
        parent=parent,
        children=children,
        internal=tuple(internal),
        root=root,
        level_of=level_of,
    )


def _unrecoverable(tree: Tree, faults: FaultPlan | None) -> list[int]:
    """Crashed pids in ``faults`` that the tree cannot recover from."""
    if faults is None or faults.empty:
        return []
    return sorted(
        crash.pid
        for crash in faults.crashes
        if not tree.n_leaves <= crash.pid < tree.root
    )


def hier_can_recover(tree: Tree, faults: FaultPlan | None) -> bool:
    """Whether a hierarchical run is expected to survive ``faults``.

    Sub-master (internal node) crashes are recoverable: the parent
    detects the silence and re-parents the shard.  Leaf crashes are not
    (their pending units die with them); root crashes are not modeled.
    """
    return not _unrecoverable(tree, faults)


@dataclass(kw_only=True)
class HierarchyResult(MapResult):
    """Outcome and metrics of one hierarchical run (``deaths`` counts
    sub-masters declared dead)."""

    deaths: int
    n_internal: int
    levels: int
    fanout: int | None
    moves: int
    units_moved: int
    takes: int
    reports: int
    reparents: int

    @property
    def n_leaves(self) -> int:
        return self.n_slaves

    def summary(self) -> str:
        return (
            f"{self.name}: P={self.n_leaves} (+{self.n_internal} sub-masters, "
            f"{self.levels} level(s)) elapsed={self.elapsed:.2f}s "
            f"speedup={self.speedup:.2f} moves={self.moves} "
            f"({self.units_moved} units) takes={self.takes} "
            f"deaths={self.deaths} msgs={self.message_count}"
        )


class _Child:
    """A parent's view of one child (leaf or sub-master)."""

    __slots__ = ("filt", "remaining", "done", "intake", "last_heard")

    def __init__(self, remaining: int, intake: int, now: float):
        self.filt = TrendFilter()
        self.remaining = remaining
        self.done = 0
        self.intake = intake
        self.last_heard = now


def _leaf_task(
    ctx,
    bag: UnitBag,
    parent_pid: int,
    root_pid: int,
    stats: dict,
):
    pending = bag.pending
    units_since = 0
    parent = parent_pid
    last_report = 0.0

    while True:
        due = False
        if pending:
            # Busy: drain what has arrived before the next unit.
            msg = yield Poll()
        else:
            # Idle: block until a message arrives or the next report is
            # due; a timeout means it is due, whatever the rounding.
            msg = yield Recv(
                timeout=max(0.0, last_report + REPORT_PERIOD - ctx.now)
            )
            due = msg is None
        if msg is not None:
            tag = msg.tag
            if tag == Tags.UNITS:
                stats["received"] = stats.get("received", 0) + bag.accept(msg.payload)
            elif tag == Tags.TAKE:
                k = min(int(msg.payload["count"]), len(pending))
                dst = int(msg.payload["dst"])
                if k > 0 and dst != ctx.pid:
                    payload, nbytes = bag.give(k)
                    yield Send(dst, Tags.UNITS, payload, max(16, nbytes))
                    stats["moves"] = stats.get("moves", 0) + 1
                    stats["moved_units"] = stats.get("moved_units", 0) + k
            elif tag == Tags.REPARENT:
                parent = int(msg.payload["parent"])
            elif tag == Tags.TERM:
                break
            continue
        if pending:
            ops, fn = bag.next_unit()
            yield Compute(ops, fn=fn)
            units_since += 1
        now = ctx.now
        if due or now - last_report >= REPORT_PERIOD or (units_since and not pending):
            dt = now - last_report
            # An idle interval carries no speed information: report
            # rate=None so the parent keeps its filtered estimate
            # instead of mistaking idleness for a dead-slow processor.
            rate: float | None
            if units_since:
                rate = units_since / dt if dt > 0 else 0.0
            elif pending:
                rate = 0.0  # genuinely starved by competing load
            else:
                rate = None
            yield Send(
                parent,
                Tags.REPORT,
                {
                    "pid": ctx.pid,
                    "done": len(bag.done),
                    "remaining": len(pending),
                    "rate": rate,
                },
                32,
            )
            last_report = now
            units_since = 0

    payload, nbytes = bag.result()
    yield Send(root_pid, Tags.RESULT, payload, nbytes)


def _node_task(
    ctx,
    tree: Tree,
    kids: tuple[int, ...],
    init_remaining: dict[int, int],
    parent_pid: int | None,
    level: int,
    stats: dict,
    total_units: int,
    sink: dict,
):
    """A sub-master (``parent_pid`` set) or the root (``parent_pid`` None)."""
    obs = ctx.obs
    n_leaves = tree.n_leaves
    subtree = tree.subtree_children(ctx.pid)
    children: dict[int, _Child] = {}
    now = ctx.now
    for pid in kids:
        intake = pid if pid < n_leaves else tree.first_leaf(pid)
        children[pid] = _Child(init_remaining.get(pid, 0), intake, now)
    parent = parent_pid
    # Always sum(st.done for st in children.values()): each report adds
    # its change, a dropped child takes its count with it, an adopted
    # orphan enters with 0.
    done_total = 0
    sent_done: int | None = None  # the done count of the last SUM
    last_sum = now
    last_balance = now
    last_scan = now
    scan_every = DEAD_AFTER / 2.0

    def _summary() -> dict[str, Any]:
        rem_total = 0
        rate_total = 0.0
        intake = ctx.pid
        best_rem: int | None = None
        for st in children.values():
            rem_total += st.remaining
            if st.filt.value is not None:
                rate_total += st.filt.value
            if best_rem is None or st.remaining < best_rem:
                best_rem = st.remaining
                intake = st.intake
        return {
            "node": ctx.pid,
            "done": done_total,
            "remaining": rem_total,
            "rate": rate_total if rate_total > 0 else None,
            "intake": intake,
        }

    def _route_take(count: int, dst: int):
        """Forward a movement order toward my most-loaded child."""
        best: int | None = None
        best_rem = 0
        for pid, st in children.items():
            if st.remaining > best_rem:
                best = pid
                best_rem = st.remaining
        if best is None:
            return
        k = min(count, best_rem)
        children[best].remaining -= k
        yield Send(best, Tags.TAKE, {"count": k, "dst": dst}, 32)

    def _balance(t: float):
        """The paper's proportional redistribution over my children."""
        if len(children) < 2:
            return
        items = list(children.items())
        total_rem = sum(st.remaining for _, st in items)
        if total_rem <= 0:
            return
        weights = [
            st.filt.value if st.filt.value is not None else 1.0 for _, st in items
        ]
        targets = proportional_counts(total_rem, weights)
        surplus = [st.remaining - tgt for (_, st), tgt in zip(items, targets)]
        thresh = max(MIN_MOVE, int(IMBALANCE_THRESHOLD * total_rem / len(items)))
        givers = sorted(
            (i for i in range(len(items)) if surplus[i] >= thresh),
            key=lambda i: -surplus[i],
        )
        takers = sorted(
            (i for i in range(len(items)) if surplus[i] < 0),
            key=lambda i: surplus[i],
        )
        ti = 0
        for gi in givers:
            while surplus[gi] >= MIN_MOVE and ti < len(takers):
                di = takers[ti]
                need = -surplus[di]
                if need <= 0:
                    ti += 1
                    continue
                k = min(surplus[gi], need)
                if k < MIN_MOVE:
                    break
                g_pid, g_st = items[gi]
                d_st = items[di][1]
                yield Send(g_pid, Tags.TAKE, {"count": k, "dst": d_st.intake}, 32)
                g_st.remaining -= k
                d_st.remaining += k
                surplus[gi] -= k
                surplus[di] += k
                stats["takes"] = stats.get("takes", 0) + 1
                stats["take_units"] = stats.get("take_units", 0) + k
                if obs.enabled:
                    obs.metrics.counter(f"scale.takes.l{level}").inc()
                    obs.metrics.counter(f"scale.take_units.l{level}").inc(k)
                    obs.emit_counter(
                        "scale",
                        "take",
                        t,
                        float(k),
                        pid=ctx.pid,
                        meta={"level": level, "src": g_pid, "dst": d_st.intake},
                    )

    def _scan(t: float):
        """Declare silent internal children dead; adopt their orphans."""
        nonlocal done_total
        dead = [
            pid
            for pid, st in children.items()
            if pid >= n_leaves and t - st.last_heard > DEAD_AFTER
        ]
        for pid in dead:
            done_total -= children.pop(pid).done
            stats["deaths"] = stats.get("deaths", 0) + 1
            orphans = subtree.get(pid, ())
            if obs.enabled:
                obs.metrics.counter("scale.deaths").inc()
                obs.emit_counter(
                    "scale",
                    "death",
                    t,
                    1.0,
                    pid=ctx.pid,
                    meta={"dead": pid, "level": level, "orphans": list(orphans)},
                )
            for o in orphans:
                intake = o if o < n_leaves else tree.first_leaf(o)
                children[o] = _Child(0, intake, t)
                yield Send(o, Tags.REPARENT, {"parent": ctx.pid}, 16)
                stats["reparents"] = stats.get("reparents", 0) + 1
                if obs.enabled:
                    obs.metrics.counter("scale.reparents").inc()

    while True:
        wake = min(last_balance + BALANCE_PERIOD, last_scan + scan_every)
        if parent is not None:
            wake = min(wake, last_sum + REPORT_PERIOD)
        msg = yield Recv(timeout=max(0.0, wake - ctx.now))
        now = ctx.now
        drained = False
        if msg is None:
            # A timeout means the earliest deadline is due, whatever the
            # rounding of ``wake - now``.
            now = max(now, wake)
        else:
            tag = msg.tag
            if tag == Tags.REPORT or tag == Tags.SUM:
                st = children.get(msg.src)
                if st is not None:  # stale senders (reparented away) ignored
                    p = msg.payload
                    st.remaining = int(p["remaining"])
                    done = int(p["done"])
                    done_total += done - st.done
                    st.done = done
                    rate = p.get("rate")
                    if rate is not None:
                        st.filt.update(float(rate))
                    if tag == Tags.SUM:
                        st.intake = int(p["intake"])
                    st.last_heard = now
                    stats["reports"] = stats.get("reports", 0) + 1
                    drained = st.remaining == 0
            elif tag == Tags.TAKE:
                yield from _route_take(
                    int(msg.payload["count"]), int(msg.payload["dst"])
                )
            elif tag == Tags.REPARENT:
                parent = int(msg.payload["parent"])
            elif tag == Tags.TERM:
                break
        if parent is not None:
            periodic = now >= last_sum + REPORT_PERIOD
            if periodic or drained:
                summary = _summary()
                # A drained shard reports at once, as a drained leaf
                # does, so its last units do not wait out a report
                # period at every level of the tree.
                if periodic or (
                    summary["remaining"] == 0 and summary["done"] != sent_done
                ):
                    yield Send(parent, Tags.SUM, summary, 48)
                    last_sum = now
                    sent_done = summary["done"]
        if now >= last_balance + BALANCE_PERIOD:
            yield from _balance(now)
            last_balance = now
        if now >= last_scan + scan_every:
            yield from _scan(now)
            last_scan = now
        if parent is None:
            if done_total >= total_units:
                for pid in range(tree.root):
                    yield Send(pid, Tags.TERM, None, 16)
                break

    if parent_pid is None:
        results = {}
        for _ in range(n_leaves):
            msg = yield Recv(tag=Tags.RESULT)
            results[msg.src] = msg.payload
        sink["results"] = results


def run_hierarchical(
    plan: ExecutionPlan,
    run_cfg: RunConfig | None = None,
    loads: Mapping[int, LoadGenerator] | None = None,
    *,
    fanout: int | None = 8,
    seed: int = 0,
    recorder: Recorder | None = None,
    faults: FaultPlan | None = None,
    topology: str | None = None,
) -> HierarchyResult:
    """Run ``plan`` under the hierarchical control plane.

    ``run_cfg.cluster.n_slaves`` is the *leaf* (worker) count; sub-master
    and root processors are added on top of it.  ``fanout=None`` runs
    the flat/centralized shape.  ``topology`` (a
    :func:`~repro.sim.build_topology` kind) prices messages over an
    explicit interconnect spanning the leaves, with each sub-master
    attached to its shard's first leaf node and the root to leaf 0.
    ``faults`` may crash sub-masters only (see :func:`hier_can_recover`);
    any other crash is a :class:`ConfigError`.
    """
    run_cfg = run_cfg or RunConfig()
    n_leaves = run_cfg.cluster.n_slaves
    tree = build_tree(n_leaves, fanout)
    unrecoverable = _unrecoverable(tree, faults)
    if unrecoverable:
        raise ConfigError(
            "hierarchical control plane cannot recover from crashes of "
            f"pid(s) {unrecoverable}: only sub-master crashes are "
            "recoverable (a leaf's pending units die with it; root crashes "
            "are not modeled)"
        )
    fabric = None
    if topology is not None:
        net = run_cfg.cluster.network
        fabric = Fabric(
            build_topology(topology, n_leaves, net),
            net,
            {node: tree.first_leaf(node) for node in (*tree.internal, tree.root)},
        )
    mr = MapRun(
        "hierarchical control plane",
        plan,
        run_cfg,
        loads,
        seed=seed,
        recorder=recorder,
        faults=faults,
        spec=replace(run_cfg.cluster, n_slaves=tree.root),
        fabric=fabric,
        worker="leaf",
    )
    if recorder is not None and recorder.enabled:
        recorder.metrics.gauge("scale.levels").set(float(tree.levels))
        recorder.metrics.gauge("scale.n_internal").set(float(tree.n_internal))

    stats = mr.stats
    leaf_units: dict[int, int] = {}
    for pid, bag in enumerate(mr.split()):
        leaf_units[pid] = len(bag.pending)
        mr.cluster.spawn(
            pid, _leaf_task, bag, tree.parent[pid], tree.root, stats
        )
    for node in (*tree.internal, tree.root):
        kids = tree.children[node]
        init_remaining = {
            kid: sum(leaf_units[leaf] for leaf in tree.shard_leaves(kid))
            for kid in kids
        }
        mr.cluster.spawn(
            node,
            _node_task,
            tree,
            kids,
            init_remaining,
            tree.parent.get(node),
            tree.level_of[node],
            stats,
            mr.total_units,
            mr.sink,
        )
    mr.run()
    return mr.finish(
        HierarchyResult,
        n_internal=tree.n_internal,
        levels=tree.levels,
        fanout=fanout,
        moves=stats.get("moves", 0),
        units_moved=stats.get("moved_units", 0),
        takes=stats.get("takes", 0),
        reports=stats.get("reports", 0),
        deaths=stats.get("deaths", 0),
        reparents=stats.get("reparents", 0),
    )
