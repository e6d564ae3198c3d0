"""Explicit-state exploration of a control-plane :class:`Model`.

:func:`explore` enumerates every reachable interleaving of the model's
actor steps and checks three property classes:

- **Deadlock-freedom** (``RA601``): no reachable state may be stuck —
  zero enabled transitions — unless it is the model's quiescent success
  state (terminal predicate holds *and* every live channel is drained).
- **Safety invariants** (``RA7xx``): the model's global invariants
  (unit conservation, at-most-one owner, ...) are evaluated on every
  reached state, and steps may carry transition-local violations
  (era/epoch monotonicity).
- **Liveness** (``RA602``): after an exhaustive exploration, every
  reachable state must be able to reach a terminal state (``AG EF
  terminal`` over the reduced graph).  A state from which quiescence is
  unreachable is a livelock: some weakly-fair scheduler runs forever
  without completing the computation.

**Partial-order reduction.**  The explorer expands a single actor's
step set as a persistent set, but only when that reduction provably
loses nothing for *all three* property classes: the actor's enabled
steps must be *pure-local* — consume nothing, send nothing, flag no
transition violation — and *pending-insensitive* (re-deriving them
with an empty mailbox yields the same set — the :class:`~.core.Actor`
contract).  Such steps commute with every other actor's steps (locals
are disjoint and nothing observable leaves the actor), so delaying
everyone else merely postpones states that are reached anyway, and a
*stable* invariant violation (one that persists to successors, as
custody violations do) survives the postponement.  Send-carrying
internal steps are deliberately **not** reduced even though classic
persistent-set theory admits them for deadlock detection: delaying a
visible send prunes exactly the intermediate states that state
invariants and violation-carrying edges are written to catch (this
masked seeded mutations in the hierarchical plane before the rule was
tightened).  Receive steps are never reduced: which message arrives
first at an actor genuinely branches the protocol (that is the race
the checker exists to explore), so any state whose enabled actors all
consume or send is fully expanded.  The standard cycle proviso (no
successor on the DFS stack) guards against the ignoring problem,
falling back to full expansion when the chosen singleton closes a
cycle.

**Budget fallback.**  Exhaustive exploration stops after ``budget``
states; the run is then marked non-exhaustive and a seeded random-walk
sweep keeps probing deep interleavings for deadlocks and invariant
violations (liveness needs the full graph and is skipped).

Counterexamples are minimized by breadth-first search over the explored
graph, so the reported trace is a shortest path to the violation within
the reduced state space.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from .core import (
    Actor,
    Model,
    Step,
    SystemState,
    Violation,
    initial_state,
    pending_for,
)

__all__ = ["ExplorationResult", "explore"]


@dataclass
class ExplorationResult:
    """Outcome of one model exploration."""

    model: str
    plane: str
    exhaustive: bool
    states: int
    transitions: int
    terminal_states: int
    violations: list[Violation] = field(default_factory=list)
    walks: int = 0  # random walks run by the bounded fallback

    @property
    def ok(self) -> bool:
        return not self.violations


def _enabled_by_actor(
    model: Model, state: SystemState
) -> list[tuple[Actor, list[Step]]]:
    """Enabled steps grouped per actor (actors with none are omitted)."""
    locals_ = state.locals_map()
    out: list[tuple[Actor, list[Step]]] = []
    for actor in model.actors:
        steps = list(
            actor.steps(locals_[actor.name], pending_for(state, actor.name))
        )
        if steps:
            out.append((actor, steps))
    return out


def _reducible(actor: Actor, local: Hashable, steps: list[Step]) -> bool:
    """Whether ``{actor}`` is a sound singleton persistent set here.

    True only for *pure-local* step sets: nothing is consumed, nothing
    is sent, no transition violation is flagged, and the steps are
    identical when re-derived with an empty mailbox (so no other
    actor's send can enable, disable, or alter them).  Sends are
    excluded because delaying a visible send can hide the very
    interleavings the invariants and transition checks are written for
    (a send-carrying internal step commutes for deadlock detection,
    but the checker also reports stable state invariants and
    violation-carrying edges, which demand the intermediate states).
    """
    if any(
        step.consumed is not None
        or step.sends
        or step.violation is not None
        for step in steps
    ):
        return False
    return list(actor.steps(local, ())) == steps


def _check_state(
    model: Model, state: SystemState
) -> list[tuple[str, str]]:
    locals_ = state.locals_map()
    channels = state.channels_map()
    found: list[tuple[str, str]] = []
    for inv in model.invariants:
        hit = inv(locals_, channels)
        if hit is not None:
            found.append(hit)
    return found


@dataclass
class _Search:
    """Shared exploration bookkeeping (graph + violations)."""

    model: Model
    budget: int | None
    ids: dict[SystemState, int] = field(default_factory=dict)
    states: list[SystemState] = field(default_factory=list)
    edges: dict[int, list[tuple[Step, int]]] = field(default_factory=dict)
    terminal: set[int] = field(default_factory=set)
    deadlocks: dict[int, str] = field(default_factory=dict)
    # state id -> (code, message) of the first invariant violation there
    bad_states: dict[int, tuple[str, str]] = field(default_factory=dict)
    # edge (src id, step index) transition violations
    bad_steps: list[tuple[int, Step]] = field(default_factory=list)
    transitions: int = 0
    truncated: bool = False

    def intern(self, state: SystemState) -> tuple[int, bool]:
        sid = self.ids.get(state)
        if sid is not None:
            return sid, False
        sid = len(self.states)
        self.ids[state] = sid
        self.states.append(state)
        for hit in _check_state(self.model, state):
            self.bad_states.setdefault(sid, hit)
            break
        return sid, True

    def over_budget(self) -> bool:
        return self.budget is not None and len(self.states) >= self.budget


def _expand(
    search: _Search, sid: int, on_stack: set[int], por: bool
) -> list[tuple[Step, int]]:
    """Compute (and record) the outgoing edges of state ``sid``.

    With POR on, tries to expand a single *reducible* actor's step set
    (pure-local steps — see :func:`_reducible`); the cycle proviso
    falls back to the next candidate, then to full expansion, when the
    chosen singleton closes a cycle into the DFS stack.
    """
    model = search.model
    state = search.states[sid]
    groups = _enabled_by_actor(model, state)
    if not groups:
        if model.is_terminal(state):
            search.terminal.add(sid)
        else:
            search.deadlocks.setdefault(sid, "no enabled transition")
        search.edges[sid] = []
        return []

    def build(
        chosen: list[tuple[Actor, list[Step]]],
    ) -> list[tuple[Step, int]]:
        out: list[tuple[Step, int]] = []
        for _, steps in chosen:
            for step in steps:
                succ = state.replace(
                    step.actor, step.next_state, step.consumed, step.sends
                )
                tid, _ = search.intern(succ)
                out.append((step, tid))
        return out

    def commit(edges: list[tuple[Step, int]]) -> list[tuple[Step, int]]:
        search.edges[sid] = edges
        search.transitions += len(edges)
        for step, _ in edges:
            if step.violation is not None:
                search.bad_steps.append((sid, step))
        return edges

    if por and len(groups) > 1:
        locals_ = state.locals_map()
        for candidate in groups:
            actor, steps = candidate
            if not _reducible(actor, locals_[actor.name], steps):
                continue
            edges = build([candidate])
            if all(tid not in on_stack for _, tid in edges):
                return commit(edges)
            # Cycle proviso failed for this candidate; try the next
            # actor (already-interned successors stay in the graph and
            # are harmless).
        # No reducible actor (or all close cycles): expand fully.
    return commit(build(groups))


def _shortest_trace(search: _Search, target: int) -> tuple[Step, ...]:
    """Shortest path of steps from the initial state to ``target``."""
    if target == 0:
        return ()
    prev: dict[int, tuple[int, Step]] = {}
    seen = {0}
    frontier = deque([0])
    while frontier:
        sid = frontier.popleft()
        for step, tid in search.edges.get(sid, []):
            if tid in seen:
                continue
            seen.add(tid)
            prev[tid] = (sid, step)
            if tid == target:
                frontier.clear()
                break
            frontier.append(tid)
    if target not in prev:
        return ()
    path: list[Step] = []
    sid = target
    while sid != 0:
        sid, step = prev[sid]
        path.append(step)
    path.reverse()
    return tuple(path)


def _liveness_violations(search: _Search) -> list[Violation]:
    """States from which no terminal state is reachable (``AG EF``)."""
    # Backward reachability from the terminal set over reversed edges.
    reverse: dict[int, list[int]] = {}
    for sid, edges in search.edges.items():
        for _, tid in edges:
            reverse.setdefault(tid, []).append(sid)
    can_finish: set[int] = set(search.terminal)
    frontier = deque(search.terminal)
    while frontier:
        sid = frontier.popleft()
        for pred in reverse.get(sid, []):
            if pred not in can_finish:
                can_finish.add(pred)
                frontier.append(pred)
    doomed = [
        sid
        for sid in range(len(search.states))
        if sid not in can_finish and sid not in search.deadlocks
    ]
    if not doomed:
        return []
    # Report the closest doomed state; all deeper ones share the cause.
    depth = {0: 0}
    frontier = deque([0])
    while frontier:
        sid = frontier.popleft()
        for _, tid in search.edges.get(sid, []):
            if tid not in depth:
                depth[tid] = depth[sid] + 1
                frontier.append(tid)
    target = min(doomed, key=depth.__getitem__)
    trace = _shortest_trace(search, target)
    return [
        Violation(
            code="RA602",
            message=(
                f"{len(doomed)} reachable state(s) cannot reach "
                f"termination: the protocol livelocks once this path is "
                f"taken"
            ),
            trace=trace,
            kind="livelock",
        )
    ]


def _random_walks(
    model: Model,
    search: _Search,
    seed: int,
    walks: int,
    max_depth: int,
) -> list[Violation]:
    """Seeded bounded fallback: deep random probes past the budget."""
    rng = random.Random(seed)
    found: list[Violation] = []
    seen_codes: set[str] = set()
    for _ in range(walks):
        state = initial_state(model)
        trace: list[Step] = []
        for _ in range(max_depth):
            groups = _enabled_by_actor(model, state)
            if not groups:
                if not model.is_terminal(state) and "RA601" not in seen_codes:
                    seen_codes.add("RA601")
                    found.append(
                        Violation(
                            code="RA601",
                            message=(
                                "stuck non-quiescent state reached by a "
                                "random walk (bounded mode)"
                            ),
                            trace=tuple(trace),
                            kind="deadlock",
                        )
                    )
                break
            _, steps = rng.choice(groups)
            step = rng.choice(steps)
            state = state.replace(
                step.actor, step.next_state, step.consumed, step.sends
            )
            trace.append(step)
            if step.violation is not None:
                code, message = step.violation
                if code not in seen_codes:
                    seen_codes.add(code)
                    found.append(
                        Violation(
                            code=code,
                            message=message,
                            trace=tuple(trace),
                            kind="transition",
                        )
                    )
            for code, message in _check_state(model, state):
                if code not in seen_codes:
                    seen_codes.add(code)
                    found.append(
                        Violation(
                            code=code,
                            message=message,
                            trace=tuple(trace),
                            kind="invariant",
                        )
                    )
    return found


def explore(
    model: Model,
    *,
    por: bool = True,
    budget: int | None = None,
    seed: int = 0,
    fallback_walks: int = 64,
    fallback_depth: int = 400,
) -> ExplorationResult:
    """Exhaustively explore ``model`` and check all properties.

    Args:
        model: the control-plane model to verify.
        por: apply partial-order reduction (single-actor persistent
            sets with the cycle proviso).  Verdicts are identical with
            it off; exploration is just larger.
        budget: maximum number of distinct states to intern before
            switching to the bounded random-walk fallback; ``None``
            means unbounded (fully exhaustive).
        seed: RNG seed for the fallback walks.
        fallback_walks / fallback_depth: shape of the bounded sweep.
    """
    search = _Search(model=model, budget=budget)
    init = initial_state(model)
    sid0, _ = search.intern(init)

    # Iterative DFS with an explicit stack for the cycle proviso.
    stack: list[tuple[int, list[tuple[Step, int]], int]] = []
    on_stack: set[int] = set()
    expanded: set[int] = set()

    def push(sid: int) -> None:
        edges = _expand(search, sid, on_stack, por)
        expanded.add(sid)
        stack.append((sid, edges, 0))
        on_stack.add(sid)

    push(sid0)
    while stack:
        if search.over_budget():
            search.truncated = True
            break
        sid, edges, idx = stack[-1]
        if idx >= len(edges):
            stack.pop()
            on_stack.discard(sid)
            continue
        stack[-1] = (sid, edges, idx + 1)
        _, tid = edges[idx]
        if tid not in expanded:
            push(tid)

    exhaustive = not search.truncated
    violations: list[Violation] = []
    seen: set[str] = set()

    def add(code: str, message: str, target: int, kind: str) -> None:
        if code in seen:
            return
        seen.add(code)
        violations.append(
            Violation(
                code=code,
                message=message,
                trace=_shortest_trace(search, target),
                kind=kind,
            )
        )

    for sid, (code, message) in sorted(search.bad_states.items()):
        add(code, message, sid, "invariant")
    for sid, step in search.bad_steps:
        code, message = step.violation or ("RA704", "transition violation")
        # The violating edge's target carries the post-step evidence.
        target = next(
            (tid for s, tid in search.edges.get(sid, []) if s == step), sid
        )
        add(code, message, target, "transition")
    for sid, why in sorted(search.deadlocks.items()):
        state = search.states[sid]
        waiting = [
            f"{dst} <- {msg.tag}"
            for (_, dst), msgs in state.channels
            for msg in msgs
        ]
        detail = (
            f"; undelivered: {', '.join(sorted(set(waiting)))}"
            if waiting
            else "; all channels drained but the protocol is not done"
        )
        add(
            "RA601",
            f"reachable stuck state that is not quiescent success "
            f"({why}{detail})",
            sid,
            "deadlock",
        )

    if exhaustive:
        for v in _liveness_violations(search):
            if v.code not in seen:
                seen.add(v.code)
                violations.append(v)

    walks = 0
    if not exhaustive:
        walks = fallback_walks
        for v in _random_walks(
            model, search, seed, fallback_walks, fallback_depth
        ):
            if v.code not in seen:
                seen.add(v.code)
                violations.append(v)

    return ExplorationResult(
        model=model.name,
        plane=model.plane,
        exhaustive=exhaustive,
        states=len(search.states),
        transitions=search.transitions,
        terminal_states=len(search.terminal),
        violations=violations,
        walks=walks,
    )
