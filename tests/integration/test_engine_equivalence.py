"""The fault injector is a branch of the one event core, not a second path.

Two contracts are pinned here:

1. **A silent injector changes nothing** (property test): for random
   per-task programs of ``Compute``/``Send``/``Recv``/``Poll``/
   ``Sleep``/``Now`` — on loaded and dedicated processors, observed and
   unobserved — a run with an armed injector whose plan never fires
   gives the same clock, event count, task finish times, per-processor
   CPU accounting, task-visible values and (when observed) JSONL trace
   bytes as a run with no injector.  Every syscall handler's injector
   branch is exercised.

2. **Message faults keep the numerics** (regression): the message-fault
   plans perturb the wire, and the reliable transport must still hand
   the application the fault-free result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.equivalence import SILENT_PLAN
from repro.apps import build_matmul
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.faults import FaultInjector, named_plan
from repro.obs import Recorder
from repro.runtime import run_application
from repro.sim import Cluster, Compute, ConstantLoad, Now, Poll, Recv, Send, Sleep

# ----------------------------------------------------------------------
# 1. Property: random programs, silent injector == no injector
# ----------------------------------------------------------------------

_STEP = st.one_of(
    st.tuples(st.just("compute"), st.floats(0.0, 3000.0)),
    st.tuples(st.just("sleep"), st.floats(0.0, 0.005)),
    st.tuples(st.just("now"), st.none()),
    st.tuples(st.just("poll"), st.none()),
    st.tuples(st.just("send"), st.integers(1, 2)),
)
# A round gives every task a list of steps; the task sends what its
# steps say, then blocks in Recv until it has received every message
# addressed to it through this round (Polls count too).  All sends of a
# round precede all blocking receives of that round, so no program
# deadlocks.
_ROUND = st.lists(st.lists(_STEP, max_size=6), min_size=3, max_size=3)
_PROGRAMS = st.lists(_ROUND, min_size=1, max_size=3)


def _execute(programs, loaded, observe, injector):
    n = 3
    spec = ClusterSpec(n_slaves=n, processor=ProcessorSpec())
    loads = {pid: ConstantLoad(k=1) for pid in loaded}
    rec = Recorder() if observe else None
    inj = FaultInjector(SILENT_PLAN, master_pid=spec.master_pid) if injector else None
    cluster = Cluster(spec, loads, rec, inj)
    # expected[pid][r]: messages addressed to pid in rounds 0..r.
    expected = [[0] * len(programs) for _ in range(n)]
    for r, steps in enumerate(programs):
        for pid, task_steps in enumerate(steps):
            for kind, arg in task_steps:
                if kind == "send":
                    expected[(pid + arg) % n][r] += 1
        for pid in range(n):
            expected[pid][r] += expected[pid][r - 1] if r else 0
    seen = {pid: [] for pid in range(n)}

    def task(ctx):
        pid = ctx.pid
        got = 0
        for r, steps in enumerate(programs):
            for kind, arg in steps[pid]:
                if kind == "compute":
                    yield Compute(arg)
                elif kind == "sleep":
                    yield Sleep(arg)
                elif kind == "now":
                    seen[pid].append((yield Now()))
                elif kind == "poll":
                    msg = yield Poll()
                    if msg is not None:
                        got += 1
                        seen[pid].append(msg.payload)
                else:
                    yield Send((pid + arg) % n, "m", (pid, r), 16)
            while got < expected[pid][r]:
                msg = yield Recv()
                got += 1
                seen[pid].append(msg.payload)

    for pid in range(n):
        cluster.spawn(pid, task)
    cluster.run()
    fingerprint = (
        cluster.engine.now,
        cluster.engine.events_processed,
        tuple(cluster.task_finish_time(pid) for pid in range(n)),
        tuple(p.app_cpu_total for p in cluster.processors),
        cluster.message_count,
        seen,
    )
    trace = rec.log.to_jsonl() if rec is not None else None
    return fingerprint, trace


@settings(max_examples=40, deadline=None)
@given(
    programs=_PROGRAMS,
    loaded=st.sets(st.integers(0, 2), max_size=2),
    observe=st.booleans(),
)
def test_silent_injector_matches_no_injector(programs, loaded, observe):
    bare, bare_trace = _execute(programs, loaded, observe, injector=False)
    armed, armed_trace = _execute(programs, loaded, observe, injector=True)
    assert armed == bare
    assert armed_trace == bare_trace
    # Observation must never change the simulated outcome either.
    other, _ = _execute(programs, loaded, not observe, injector=False)
    assert other == bare


# ----------------------------------------------------------------------
# 2. Regression: message-fault plans reproduce the fault-free numerics
# ----------------------------------------------------------------------


def _cfg():
    spec = ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=1e6))
    return RunConfig(cluster=spec)


@pytest.mark.parametrize("plan_name", ["message-light", "message-heavy", "dup-reorder"])
def test_message_faults_keep_numerics(plan_name):
    baseline = run_application(build_matmul(n=32), _cfg(), seed=11)
    runs = [
        run_application(
            build_matmul(n=32), _cfg(), seed=11, faults=named_plan(plan_name, seed=5)
        )
        for _ in range(2)
    ]
    # The transport layer hides the perturbation from the numerics, and
    # a seeded fault run replays exactly.
    for injected in runs:
        np.testing.assert_array_equal(injected.result, baseline.result)
        assert injected.dead_pids == ()
    assert runs[0].elapsed == runs[1].elapsed
    assert runs[0].message_count == runs[1].message_count
