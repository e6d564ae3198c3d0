"""Injector equivalence (RA8xx): a silent fault injector changes nothing.

The simulator has one event core; fault injection is a branch inside
each syscall handler (stall clamping) plus the reliable-transport path
for sends (sequence numbers, per-copy fates, receiver dedupe).  Armed
with a plan that injects nothing — :data:`SILENT_PLAN`, one message
fault with drop probability zero — those branches must be invisible:
every observed run must produce exactly the same structured event
trace, numeric results, elapsed time and message count as the run with
no injector at all.  Each case runs twice, once per setting, and any
divergence is an ``RA801``/``RA802`` error naming the case and the
first point of disagreement.

The case set mirrors the golden-trace suite: the three paper apps
(MM/SOR/LU with competing loads), a checkpointed SOR run, the
hierarchical control plane, and the work-stealing / robust
self-scheduling strategy planes.  It is wired into ``repro check
--injector-equivalence`` so the contract is lintable locally and in CI
(see ``.github/workflows/ci.yml``'s injector-equivalence step).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np

from ..config import CheckpointConfig, ClusterSpec, ProcessorSpec, RunConfig
from ..faults import FaultPlan, MessageFault
from .diagnostics import Diagnostic

__all__ = [
    "SILENT_PLAN",
    "INJECTOR_CASES",
    "run_case",
    "check_injector_equivalence",
]

#: An armed plan whose only fault never fires (drop probability zero).
SILENT_PLAN = FaultPlan(
    message_faults=(MessageFault(kind="drop", probability=0.0),),
    name="silent",
)


def _digest(obj: Any, h: "hashlib._Hash") -> None:
    if obj is None:
        h.update(b"none")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            _digest(obj[key], h)
    else:
        arr = np.ascontiguousarray(np.asarray(obj))
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())


def _cfg(ckpt: bool = False) -> RunConfig:
    return RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=3e4)),
        ckpt=CheckpointConfig(enabled=ckpt, interval=0.5),
    )


def _fingerprint(res: Any, recorder: Any) -> dict[str, Any]:
    trace = recorder.log.to_jsonl().encode("utf-8")
    rh = hashlib.sha256()
    _digest(getattr(res, "result", None), rh)
    return {
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "result_sha256": rh.hexdigest(),
        "elapsed": res.elapsed,
        "message_count": res.message_count,
        "trace_events": len(recorder.log),
    }


def _case_app(app: str, faults: FaultPlan | None, ckpt: bool = False) -> dict[str, Any]:
    from ..apps import build_lu, build_matmul, build_sor
    from ..obs import Recorder
    from ..runtime import run_application
    from ..sim import ConstantLoad

    plan = {
        "matmul": lambda: build_matmul(n=64),
        "sor": lambda: build_sor(n=48, maxiter=6),
        "lu": lambda: build_lu(n=60),
    }[app]()
    recorder = Recorder()
    res = run_application(
        plan,
        _cfg(ckpt=ckpt),
        loads={0: ConstantLoad(k=1)},
        seed=7,
        recorder=recorder,
        faults=faults,
    )
    return _fingerprint(res, recorder)


def _case_hier(faults: FaultPlan | None) -> dict[str, Any]:
    from ..apps import build_matmul
    from ..obs import Recorder
    from ..scale import run_hierarchical
    from ..sim import ConstantLoad

    recorder = Recorder()
    res = run_hierarchical(
        build_matmul(n=48),
        RunConfig(cluster=ClusterSpec(n_slaves=8, processor=ProcessorSpec(speed=3e4))),
        {0: ConstantLoad(k=1)},
        fanout=2,
        seed=7,
        recorder=recorder,
        faults=faults,
    )
    return _fingerprint(res, recorder)


def _case_strategy(strategy: str, faults: FaultPlan | None) -> dict[str, Any]:
    from ..apps import build_matmul
    from ..obs import Recorder
    from ..sim import ConstantLoad
    from ..strategies import run_strategy

    recorder = Recorder()
    out = run_strategy(
        strategy,
        build_matmul(n=48),
        RunConfig(cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=3e4))),
        {0: ConstantLoad(k=1)},
        seed=7,
        recorder=recorder,
        faults=faults,
    )
    return _fingerprint(out, recorder)


INJECTOR_CASES: dict[str, Callable[[FaultPlan | None], dict[str, Any]]] = {
    "matmul": lambda faults: _case_app("matmul", faults),
    "sor": lambda faults: _case_app("sor", faults),
    "lu": lambda faults: _case_app("lu", faults),
    "sor_ckpt": lambda faults: _case_app("sor", faults, ckpt=True),
    "hier_matmul": _case_hier,
    "steal_matmul": lambda faults: _case_strategy("stealing", faults),
    "rdlb_matmul": lambda faults: _case_strategy("rdlb", faults),
}


def run_case(name: str, injector: bool) -> dict[str, Any]:
    """Fingerprint one case, with the silent injector armed or not."""
    return INJECTOR_CASES[name](SILENT_PLAN if injector else None)


def check_injector_equivalence(
    cases: list[str] | None = None,
) -> list[Diagnostic]:
    """Run every case with and without the silent injector and diff."""
    diags: list[Diagnostic] = []
    for name in cases if cases is not None else sorted(INJECTOR_CASES):
        bare = run_case(name, injector=False)
        armed = run_case(name, injector=True)
        if armed["trace_sha256"] != bare["trace_sha256"]:
            diags.append(
                Diagnostic.new(
                    "RA801",
                    f"silent-injector trace diverges from the uninjected run "
                    f"on {name!r} ({armed['trace_events']} vs "
                    f"{bare['trace_events']} events)",
                    locus=name,
                    details={
                        "uninjected_sha256": bare["trace_sha256"],
                        "injected_sha256": armed["trace_sha256"],
                    },
                )
            )
        drift = {
            key: (bare[key], armed[key])
            for key in ("result_sha256", "elapsed", "message_count")
            if bare[key] != armed[key]
        }
        if drift:
            diags.append(
                Diagnostic.new(
                    "RA802",
                    f"silent-injector run outcome diverges from the "
                    f"uninjected run on {name!r}: {sorted(drift)}",
                    locus=name,
                    details={
                        k: {"uninjected": b, "injected": a}
                        for k, (b, a) in drift.items()
                    },
                )
            )
    return diags
