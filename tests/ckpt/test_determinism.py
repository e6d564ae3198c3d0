"""Checkpointing is invisible until enabled, deterministic when enabled.

The robustness PR's zero-cost-when-off contract: with ``RunConfig.ckpt``
disabled and no fault plan, a run takes exactly the legacy code paths —
the recorded event trace is byte-for-byte identical no matter what the
(disabled) checkpoint knobs are set to, and contains no checkpoint
traffic at all.  With checkpointing on, fault-free runs are still fully
deterministic: two identical runs produce byte-identical traces.
"""

from dataclasses import replace

from repro.apps import build_matmul, build_sor
from repro.config import (
    CheckpointConfig,
    ClusterSpec,
    ProcessorSpec,
    RunConfig,
)
from repro.obs import Recorder
from repro.runtime import run_application
from repro.runtime.launcher import resolve_run_cfg

CFG = RunConfig(
    cluster=ClusterSpec(n_slaves=3, processor=ProcessorSpec(speed=3e4))
)


def trace_of(plan_builder, cfg, seed=7) -> str:
    recorder = Recorder()
    run_application(plan_builder(), cfg, seed=seed, recorder=recorder)
    return recorder.log.to_jsonl()


def test_identical_runs_have_byte_identical_traces():
    a = trace_of(lambda: build_sor(n=24, maxiter=4), CFG)
    b = trace_of(lambda: build_sor(n=24, maxiter=4), CFG)
    assert a == b


def test_disabled_ckpt_knobs_leave_the_trace_untouched():
    """Changing interval/placement while disabled changes nothing."""
    base = trace_of(lambda: build_matmul(n=40, reps=2), CFG)
    tweaked_cfg = replace(
        CFG,
        ckpt=CheckpointConfig(enabled=False, interval=0.1, placement="buddy"),
    )
    tweaked = trace_of(lambda: build_matmul(n=40, reps=2), tweaked_cfg)
    assert base == tweaked


def test_fault_free_disabled_run_has_no_ckpt_traffic():
    recorder = Recorder()
    res = run_application(
        build_sor(n=24, maxiter=4), CFG, seed=7, recorder=recorder
    )
    assert res.log.ckpt_epochs_committed == 0
    assert res.log.ckpt_snapshots == 0
    assert "ckpt" not in recorder.log.to_jsonl()
    counters = recorder.metrics.snapshot()["counters"]
    assert not any(name.startswith("ckpt.") for name, v in counters.items() if v)


def test_enabled_ckpt_runs_are_deterministic_and_commit():
    cfg = replace(CFG, ckpt=CheckpointConfig(enabled=True, interval=0.1))
    a = trace_of(lambda: build_sor(n=24, maxiter=6), cfg)
    b = trace_of(lambda: build_sor(n=24, maxiter=6), cfg)
    assert a == b
    assert '"ckpt"' in a  # the trace actually carries checkpoint events

    res = run_application(build_sor(n=24, maxiter=6), cfg, seed=7)
    assert res.log.ckpt_epochs_committed >= 1
    assert res.log.ckpt_snapshots >= res.log.ckpt_epochs_committed * 3


def test_resolve_run_cfg_is_identity_for_fault_free_disabled_runs():
    plan = build_sor(n=24, maxiter=4)
    resolved, ft = resolve_run_cfg(CFG, plan, None)
    assert resolved is CFG
    assert not ft


def test_resolve_run_cfg_enabling_ckpt_implies_ft():
    plan = build_sor(n=24, maxiter=4)
    cfg = replace(CFG, ckpt=CheckpointConfig(enabled=True))
    resolved, ft = resolve_run_cfg(cfg, plan, None)
    assert ft
    assert resolved.ckpt.enabled
