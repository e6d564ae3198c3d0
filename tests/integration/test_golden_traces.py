"""Golden-trace regression suite for the hot-path overhaul.

The fast-copier, engine, and obs changes must be *invisible*: the full
structured event trace of a run (every span, message, move, checkpoint)
must stay byte-identical, and the RunReport-level metrics and numeric
results must not move at all.  This suite pins sha256 hashes of the
JSONL trace plus the key metrics for MM/SOR/LU (and a checkpointed SOR
run, which exercises the slave snapshot copy path) against goldens
captured before the optimizations landed.  The failure-tolerant cases
(a crash under each schedule shape, a stall) pin the runtime's timed
waits and parked done reports: reassignment, rollback, buddy snapshot
pulls and the WHILE-loop convergence barrier across a rollback.  The plane cases pin the other
PARALLEL_MAP control planes (sub-master tree, work stealing, rDLB,
guided self-scheduling, diffusion), crashes included.

Regenerate (only when a *deliberate* semantic change occurs)::

    PYTHONPATH=src:. python tests/integration/test_golden_traces.py

which rewrites ``tests/integration/golden_traces.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_lu, build_matmul, build_sor
from repro.baselines.diffusion import run_diffusion
from repro.config import (
    CheckpointConfig,
    ClusterSpec,
    ProcessorSpec,
    RunConfig,
)
from repro.faults import FaultPlan, SlaveCrash, named_plan
from repro.obs import Recorder
from repro.runtime import run_application
from repro.scale import run_hierarchical
from repro.sim import ConstantLoad, OscillatingLoad
from repro.strategies import run_strategy

GOLDENS_PATH = Path(__file__).with_name("golden_traces.json")


def _cfg(
    ckpt: bool = False, placement: str = "master", interval: float = 0.5
) -> RunConfig:
    return RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=3e4)),
        ckpt=CheckpointConfig(
            enabled=ckpt, interval=interval, placement=placement
        ),
    )


CASES = {
    "matmul": lambda: (
        build_matmul(n=64),
        _cfg(),
        {0: ConstantLoad(k=1)},
    ),
    "sor": lambda: (
        build_sor(n=48, maxiter=6),
        _cfg(),
        {1: OscillatingLoad(k=2, period=4, duration=2)},
    ),
    "lu": lambda: (
        build_lu(n=60),
        _cfg(),
        {2: ConstantLoad(k=1)},
    ),
    "sor_ckpt": lambda: (
        build_sor(n=48, maxiter=6),
        _cfg(ckpt=True),
        {0: ConstantLoad(k=1)},
    ),
    # A WHILE sweep loop: the master's convergence barrier every sweep.
    "sor_while": lambda: (
        build_sor(n=48, maxiter=6, tol=1e-9),
        _cfg(),
        {1: OscillatingLoad(k=2, period=4, duration=2)},
    ),
    "matmul_crash": lambda: (
        build_matmul(n=64),
        _cfg(),
        {0: ConstantLoad(k=1)},
    ),
    "sor_crash": lambda: (
        build_sor(n=48, maxiter=6, tol=1e-9),
        _cfg(ckpt=True),
        {0: ConstantLoad(k=1)},
    ),
    # n=80 at a 0.2 s interval commits an epoch before the crash, so the
    # rollback pulls the dead slave's snapshot from its buddy.
    "lu_crash_buddy": lambda: (
        build_lu(n=80),
        _cfg(ckpt=True, placement="buddy", interval=0.2),
        {2: ConstantLoad(k=1)},
    ),
    "sor_stall": lambda: (
        build_sor(n=48, maxiter=6, tol=1e-9),
        _cfg(),
        {1: OscillatingLoad(k=2, period=4, duration=2)},
    ),
}

# Named fault plans for the failure-tolerant cases; fractional fault
# times are pinned against the fault-free run of the same case.
FAULTS = {
    "matmul_crash": "one-crash",
    "sor_crash": "one-crash",
    "lu_crash_buddy": "one-crash",
    "sor_stall": "stall",
}
FAULT_SEED = 5


def _plane_cfg(n_slaves: int) -> RunConfig:
    return RunConfig(
        cluster=ClusterSpec(n_slaves=n_slaves, processor=ProcessorSpec(speed=3e4))
    )


def _strategy(strategy: str, crash: bool = False):
    """Run ``strategy`` on MM with a loaded worker 0; with ``crash``,
    worker 1 dies at a quarter of the fault-free makespan."""

    def run(recorder: Recorder | None):
        plan, cfg, loads = build_matmul(n=48), _plane_cfg(4), {0: ConstantLoad(k=1)}
        faults = None
        if crash:
            base = run_strategy(strategy, plan, cfg, loads, seed=7)
            faults = FaultPlan(
                name=f"{strategy}-crash",
                crashes=(SlaveCrash(pid=1, at=0.25 * base.elapsed),),
            )
        return run_strategy(
            strategy, plan, cfg, loads, seed=7, recorder=recorder, faults=faults
        ).raw

    return run


_STEAL = (
    "steals",
    "steal_hits",
    "steal_denies",
    "steal_aborts",
    "units_stolen",
    "completed_units",
    "reissues",
    "dead_pids",
)
_RDLB = (
    "chunks_served",
    "reassigns",
    "duplicate_results",
    "completed_units",
    "dead_pids",
)

# The other PARALLEL_MAP control planes: name -> (run(recorder) -> the
# plane's result, traced?, plane counters pinned as metrics).  Fanout 2
# over 8 leaves builds a three-level tree, so hier_matmul pins SUM
# aggregation and TAKE routing too.  run_diffusion takes no recorder,
# so its case pins metrics and result only.
PLANE_CASES = {
    "hier_matmul": (
        lambda recorder: run_hierarchical(
            build_matmul(n=48),
            _plane_cfg(8),
            {0: ConstantLoad(k=1)},
            fanout=2,
            seed=7,
            recorder=recorder,
        ),
        True,
        (
            "moves",
            "units_moved",
            "takes",
            "reports",
            "deaths",
            "reparents",
            "levels",
        ),
    ),
    "stealing_matmul": (_strategy("stealing"), True, _STEAL),
    "stealing_crash": (_strategy("stealing", crash=True), True, _STEAL),
    "rdlb_crash": (_strategy("rdlb", crash=True), True, _RDLB),
    "gss_matmul": (_strategy("gss"), True, _RDLB),
    "diffusion_mesh2d": (
        lambda recorder: run_diffusion(
            build_matmul(n=48),
            _plane_cfg(8),
            {0: ConstantLoad(k=3)},
            seed=7,
            topology="mesh2d",
        ),
        False,
        ("moves", "units_moved", "topology"),
    ),
}


def _result_digest(obj, h: "hashlib._Hash") -> None:
    if obj is None:
        h.update(b"none")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            _result_digest(obj[key], h)
    else:
        arr = np.ascontiguousarray(np.asarray(obj))
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())


def run_case(name: str) -> dict:
    if name in PLANE_CASES:
        return _run_plane_case(name)
    plan, cfg, loads = CASES[name]()
    faults = None
    if name in FAULTS:
        baseline = run_application(plan, cfg, loads=loads, seed=7)
        faults = named_plan(FAULTS[name], seed=FAULT_SEED).resolved(
            baseline.elapsed
        )
    recorder = Recorder()
    res = run_application(
        plan, cfg, loads=loads, seed=7, recorder=recorder, faults=faults
    )
    trace = recorder.log.to_jsonl().encode("utf-8")
    rh = hashlib.sha256()
    _result_digest(res.result, rh)
    doc = {
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "result_sha256": rh.hexdigest(),
        "metrics": {
            "elapsed": res.elapsed,
            "message_count": res.message_count,
            "bytes_sent": res.bytes_sent,
            "moves_applied": res.log.moves_applied,
            "units_moved": res.log.units_moved,
            "reports_received": res.log.reports_received,
            "final_partition_counts": list(res.log.final_partition_counts),
            "ckpt_epochs_committed": res.log.ckpt_epochs_committed,
            "ckpt_snapshots": res.log.ckpt_snapshots,
            "trace_events": len(recorder.log),
        },
    }
    if faults is not None:
        doc["metrics"].update(
            dead_pids=list(res.dead_pids),
            rollbacks=res.log.rollbacks,
            units_reassigned=res.log.units_reassigned,
            units_restored=res.log.units_restored,
            ckpt_epochs_aborted=res.log.ckpt_epochs_aborted,
        )
    return doc


def _run_plane_case(name: str) -> dict:
    run, traced, counters = PLANE_CASES[name]
    recorder = Recorder() if traced else None
    res = run(recorder)
    rh = hashlib.sha256()
    _result_digest(res.result, rh)
    metrics = {
        "elapsed": res.elapsed,
        "message_count": res.message_count,
        "bytes_sent": res.bytes_sent,
    }
    for counter in counters:
        value = getattr(res, counter)
        metrics[counter] = list(value) if isinstance(value, tuple) else value
    doc = {"result_sha256": rh.hexdigest(), "metrics": metrics}
    if recorder is not None:
        trace = recorder.log.to_jsonl().encode("utf-8")
        doc["trace_sha256"] = hashlib.sha256(trace).hexdigest()
        metrics["trace_events"] = len(recorder.log)
    return doc


@pytest.fixture(scope="module")
def goldens() -> dict:
    assert GOLDENS_PATH.exists(), (
        f"missing {GOLDENS_PATH}; regenerate with "
        f"`PYTHONPATH=src:. python {__file__}`"
    )
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES) + sorted(PLANE_CASES))
def test_trace_matches_golden(name: str, goldens: dict) -> None:
    assert name in goldens, f"no golden for {name!r}; regenerate goldens"
    got = run_case(name)
    want = goldens[name]
    assert got["metrics"] == want["metrics"], (
        f"{name}: RunReport metrics drifted from golden"
    )
    assert got["result_sha256"] == want["result_sha256"], (
        f"{name}: numeric result drifted from golden"
    )
    assert got.get("trace_sha256") == want.get("trace_sha256"), (
        f"{name}: event trace is no longer byte-identical to golden"
    )


def test_ckpt_case_exercises_snapshot_path(goldens: dict) -> None:
    # Guard against the checkpoint golden silently degenerating into a
    # plain run (which would stop covering the snapshot copy path).
    assert goldens["sor_ckpt"]["metrics"]["ckpt_snapshots"] > 0


def test_fault_cases_exercise_recovery(goldens: dict) -> None:
    # Likewise for the failure-tolerant goldens: each crash case must
    # really lose slave 1 and recover (reassignment for the map,
    # rollback for the dependence-carrying shapes).
    for name in ("matmul_crash", "sor_crash", "lu_crash_buddy"):
        assert goldens[name]["metrics"]["dead_pids"] == [1], name
    assert goldens["matmul_crash"]["metrics"]["units_reassigned"] > 0
    for name in ("sor_crash", "lu_crash_buddy"):
        assert goldens[name]["metrics"]["rollbacks"] >= 1, name
        assert goldens[name]["metrics"]["ckpt_epochs_committed"] >= 1, name


def test_plane_cases_exercise_their_protocols(goldens: dict) -> None:
    # Each plane golden must really move work (or lose a worker), so a
    # degenerate run cannot pin a protocol it never exercised.
    assert goldens["stealing_matmul"]["metrics"]["steal_hits"] > 0
    assert goldens["gss_matmul"]["metrics"]["chunks_served"] > 4
    assert goldens["diffusion_mesh2d"]["metrics"]["moves"] > 0
    for name in ("stealing_crash", "rdlb_crash"):
        assert goldens[name]["metrics"]["dead_pids"] == [1], name
        assert goldens[name]["metrics"]["completed_units"] == 48, name
    assert goldens["stealing_crash"]["metrics"]["reissues"] >= 1
    assert goldens["rdlb_crash"]["metrics"]["reassigns"] >= 1


def test_crash_cases_recover_the_fault_free_result(goldens: dict) -> None:
    # Reissuing unreported units recovers everything the crashed worker
    # held: the stealing crash run reproduces the fault-free numbers.
    assert (
        goldens["stealing_crash"]["result_sha256"]
        == goldens["stealing_matmul"]["result_sha256"]
    )


if __name__ == "__main__":
    doc = {name: run_case(name) for name in sorted(CASES) + sorted(PLANE_CASES)}
    GOLDENS_PATH.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDENS_PATH} ({len(doc)} case(s))")
