"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      — run one application on a simulated cluster and print
                 the paper's metrics.
- ``trace``    — run one application with full observability and dump or
                 inspect structured :class:`~repro.obs.RunReport` JSON
                 and JSONL event logs.
- ``check``    — run the static verification suite (``repro.analysis``)
                 over generated plans and recorded runs; exits nonzero
                 on error-severity diagnostics.
- ``chaos``    — run an application x fault-plan matrix and validate
                 results against fault-free baselines.
- ``figures``  — regenerate the paper's tables/figures (all or by name).
- ``orchestrate`` — operate crash-safe experiment sweeps: run a jobs
                 file, inspect/resume/cancel a journaled sweep, and
                 garbage-collect its result cache
                 (see ``repro.orchestrator``).
- ``source``   — show an application's generated SPMD program listing.
- ``features`` — print the Table 1 feature matrix.

``run`` and ``trace`` take ``--faults NAME_OR_PATH`` (a built-in plan
name from ``repro.faults.NAMED_PLANS`` or a JSON fault-plan file) plus
``--fault-seed``; fractional fault times are resolved against a
fault-free calibration run of the same configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .apps import REGISTRY
from .config import (
    BalancerConfig,
    CheckpointConfig,
    ClusterSpec,
    ProcessorSpec,
    RunConfig,
)
from .errors import ConfigError, SimulationError
from .faults import NAMED_PLANS, FaultPlan, load_plan
from .obs import Recorder, RunReport
from .runtime import run_application
from .sim import ConstantLoad, OscillatingLoad

__all__ = ["main"]


def _build_plan(app: str, n: int, n_slaves: int):
    return REGISTRY[app](n=n, n_slaves_hint=n_slaves)


def _loads_from_args(args: argparse.Namespace) -> dict:
    loads = {}
    if args.load_slave is not None:
        gen = (
            OscillatingLoad(k=args.load_tasks, period=20.0, duration=10.0)
            if args.oscillating
            else ConstantLoad(k=args.load_tasks)
        )
        loads[args.load_slave] = gen
    return loads


def _ckpt_from_args(args: argparse.Namespace) -> CheckpointConfig:
    defaults = CheckpointConfig()
    return CheckpointConfig(
        enabled=bool(getattr(args, "ckpt", False)),
        interval=(
            args.ckpt_interval
            if getattr(args, "ckpt_interval", None) is not None
            else defaults.interval
        ),
        placement=getattr(args, "ckpt_placement", None) or defaults.placement,
    )


def _run_cfg_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        cluster=ClusterSpec(
            n_slaves=args.slaves, processor=ProcessorSpec(speed=args.speed)
        ),
        balancer=BalancerConfig(pipelined=not args.synchronous),
        execute_numerics=args.numerics,
        dlb_enabled=not args.no_dlb,
        ckpt=_ckpt_from_args(args),
    )


def _faults_from_args(
    args: argparse.Namespace, plan, run_cfg: RunConfig, loads: dict
) -> FaultPlan | None:
    """Resolve ``--faults``: a built-in plan name, a JSON file path, or
    ``none``.  Fractional fault times (e.g. "crash at 40% of the run")
    are resolved against a fault-free calibration run."""
    name = getattr(args, "faults", None)
    if name is None or name == "none":
        return None
    fault_plan = load_plan(name, seed=getattr(args, "fault_seed", 0))
    fault_plan.validate_for(run_cfg.cluster.n_slaves)
    if fault_plan.empty:
        return None
    if fault_plan.needs_horizon:
        if args.strategy == "centralized":
            base = run_application(plan, run_cfg, loads=loads, seed=args.seed)
            horizon = base.elapsed
        else:
            # Fractional fault times resolve against a fault-free run of
            # the *same* strategy, whose horizon can differ a lot.
            from .strategies import run_strategy

            horizon = run_strategy(
                args.strategy, plan, run_cfg, loads, seed=args.seed
            ).elapsed
        fault_plan = fault_plan.resolved(horizon)
    return fault_plan


def _cmd_run(args: argparse.Namespace) -> int:
    plan = _build_plan(args.app, args.n, args.slaves)
    run_cfg = _run_cfg_from_args(args)
    loads = _loads_from_args(args)
    try:
        faults = _faults_from_args(args, plan, run_cfg, loads)
    except ConfigError as exc:
        print(f"run: {exc}")
        return 2
    if args.strategy != "centralized":
        from .strategies import run_strategy

        try:
            out = run_strategy(
                args.strategy, plan, run_cfg, loads, seed=args.seed, faults=faults
            )
        except ConfigError as exc:
            print(f"run: {exc}")
            return 2
        except SimulationError as exc:
            print(f"run: {exc}")
            return 1
        print(out.summary())
        print(
            f"sequential: {out.sequential_time:.2f}s  "
            f"messages: {out.message_count}  "
            f"bytes: {out.bytes_sent / 1e6:.2f} MB"
        )
        if faults is not None:
            print(f"faults[{faults.name or 'custom'}]: dead={list(out.dead_pids)}")
        return 0
    res = run_application(
        plan, run_cfg, loads=loads, seed=args.seed, faults=faults
    )
    print(res.summary())
    print(
        f"sequential: {res.sequential_time:.2f}s  messages: {res.message_count}  "
        f"bytes: {res.bytes_sent / 1e6:.2f} MB  "
        f"final distribution: {res.log.final_partition_counts}"
    )
    if faults is not None:
        print(
            f"faults[{faults.name or 'custom'}]: "
            f"retransmits={res.retransmits}  lost={res.messages_lost}  "
            f"dead={list(res.dead_pids)}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.inspect is not None:
        report = RunReport.load(args.inspect)
        print(report.describe())
        return 0
    if args.app is None:
        print("trace: an application is required unless --inspect is given")
        return 2
    if args.strategy != "centralized":
        print(
            "trace: RunReport aggregation covers the centralized runtime; "
            "use `repro run --strategy ...` for the other planes"
        )
        return 2
    plan = _build_plan(args.app, args.n, args.slaves)
    run_cfg = _run_cfg_from_args(args)
    loads = _loads_from_args(args)
    try:
        faults = _faults_from_args(args, plan, run_cfg, loads)
    except ConfigError as exc:
        print(f"trace: {exc}")
        return 2
    recorder = Recorder()
    res = run_application(
        plan,
        run_cfg,
        loads=loads,
        seed=args.seed,
        recorder=recorder,
        faults=faults,
    )
    report = res.make_report()
    print(report.describe())
    if args.json is not None:
        report.save(args.json)
        print(f"run report written to {args.json}")
    if args.events is not None:
        recorder.log.save(args.events)
        print(f"{len(recorder.log)} events written to {args.events}")
    return 0


def _check_subjects(args: argparse.Namespace) -> list[tuple[str, object]]:
    """Resolve what ``repro check`` verifies: apps or a custom factory."""
    import importlib

    if args.plan_factory is not None:
        mod_name, sep, fn_name = args.plan_factory.partition(":")
        if not sep:
            raise SystemExit(
                f"check: --plan-factory wants module:function, got "
                f"{args.plan_factory!r}"
            )
        factory = getattr(importlib.import_module(mod_name), fn_name)
        return [(args.plan_factory, factory())]
    apps = args.apps or sorted(REGISTRY)
    for app in apps:
        if app not in REGISTRY:
            raise SystemExit(
                f"check: unknown app {app!r}; choices: {', '.join(sorted(REGISTRY))}"
            )
    return [(app, _build_plan(app, args.n, args.slaves)) for app in apps]


def _check_protocols(args: argparse.Namespace) -> list:
    """Protocol lint (RA4xx) over the PARALLEL_MAP planes' own tags.

    The send/receive pairing pass the central runtime gets, run over
    each plane's sources with tag families derived from its tag class:
    ``--hier`` lints the sub-master tree's ``sc.*`` messages, ``--steal``
    the work-stealing ``st.*`` and robust self-scheduling ``rb.*`` ones.
    A message that is sent but never drained (or declared but dead)
    fails the check exactly like an ``lb.*`` one fails the default run.
    """
    import inspect

    from .analysis import CheckResult
    from .analysis.protocol_lint import lint_sources, tag_families
    from .scale import hierarchy
    from .scale.protocol import ScaleTags
    from .strategies import rdlb, stealing
    from .strategies.protocol import RobustTags, StealTags

    table = {
        "hier": [("hier-protocol[sc.*]", "scale/hierarchy.py", hierarchy, ScaleTags)],
        "steal": [
            ("steal-protocol[st.*]", "strategies/stealing.py", stealing, StealTags),
            ("robust-protocol[rb.*]", "strategies/rdlb.py", rdlb, RobustTags),
        ],
    }
    return [
        CheckResult(
            subject=subject,
            diagnostics=lint_sources(
                [(source_name, inspect.getsource(module))], tag_families(tags_cls)
            ),
        )
        for flag, rows in table.items()
        if getattr(args, flag)
        for subject, source_name, module, tags_cls in rows
    ]


def _check_models(args: argparse.Namespace) -> list:
    """Model-check the control planes (``repro check --model``).

    Runs the standard sweep (`repro.analysis.model.configs`): every
    plane's clean model, explored exhaustively unless ``--model-budget``
    caps the state count.  Counterexamples ride along in each
    diagnostic's ``details["trace"]`` and are printed by
    ``CheckResult.describe`` / serialized by ``--json``.
    """
    from .analysis.model import run_sweep

    planes = tuple(args.model_plane) if args.model_plane else None
    out = []
    for check, ex in run_sweep(
        planes, budget=args.model_budget, seed=args.seed
    ):
        mode = "exhaustive" if ex.exhaustive else "bounded"
        check.subject += f"[{mode}:{ex.states} states]"
        out.append(check)
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import CheckResult, check_log_file, check_suite

    results: list[CheckResult] = []
    if args.hier or args.steal:
        results.extend(_check_protocols(args))
    if args.model:
        results.extend(_check_models(args))
    if args.injector_equivalence:
        from .analysis.equivalence import check_injector_equivalence

        results.append(
            CheckResult(
                subject="injector-equivalence[silent=none]",
                diagnostics=check_injector_equivalence(),
            )
        )
    if args.events is not None:
        results.append(
            CheckResult(
                subject=args.events, diagnostics=check_log_file(args.events)
            )
        )
    focused = args.events is not None or args.model or args.injector_equivalence
    if not focused or args.apps or args.plan_factory:
        protocol_pending = True
        for name, plan in _check_subjects(args):
            if args.no_replay:
                res = check_suite(plan, None, protocol=protocol_pending)
                res.subject = name
                results.append(res)
            else:
                for dlb in (True, False):
                    cfg = RunConfig(
                        cluster=ClusterSpec(n_slaves=args.slaves),
                        execute_numerics=False,
                        dlb_enabled=dlb,
                    )
                    res = check_suite(
                        plan,
                        cfg,
                        protocol=protocol_pending and dlb,
                        seed=args.seed,
                    )
                    res.subject = f"{name}[dlb={'on' if dlb else 'off'}]"
                    results.append(res)
            protocol_pending = False
    ok = all(r.ok for r in results)
    if args.json is not None:
        import json as _json

        doc = {"ok": ok, "subjects": [r.to_dict() for r in results]}
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"check results written to {args.json}")
    for r in results:
        print(r.describe())
    n_err = sum(len(r.errors()) for r in results)
    print(
        f"\ncheck: {len(results)} subject(s), "
        f"{sum(len(r) for r in results)} finding(s), {n_err} error(s)"
    )
    return 0 if ok else 1


def _chaos_failed_row(record: object) -> dict[str, object]:
    """A chaos row of one FAILED cell for a job that never completed."""
    from .orchestrator import JobRecord

    assert isinstance(record, JobRecord)
    error_lines = (record.error or "").strip().splitlines()
    detail = error_lines[-1] if error_lines else f"job {record.state.value}"
    app = str(record.spec.params.get("app", record.spec.id))
    cell = {
        "app": app,
        "plan": "*",
        "outcome": "FAILED",
        "detail": f"chaos job did not complete: {detail}",
    }
    return {"app": app, "skipped": None, "cells": [cell]}


# (cell key, label) of the counters a chaos cell line shows when present
_CHAOS_COUNTERS = (
    ("crash_pid", "pid"),
    ("deaths", "deaths"),
    ("reparents", "reparents"),
    ("dead_pids", "dead"),
)


def _chaos_cell_line(cell: dict) -> str:
    counters = " ".join(
        f"{label}={cell[key]}" for key, label in _CHAOS_COUNTERS if key in cell
    )
    return (
        f"chaos {cell['app']:>8} x {cell['plan']:<20} {cell['outcome']}"
        + (f"  [{counters}]" if counters else "")
        + (f"  ({cell['detail']})" if "detail" in cell else "")
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Crash one control plane over an app matrix and validate every cell.

    ``--control central`` (default) runs each fault plan against the
    paper's runtime (:func:`repro.faults.chaosrun.chaos_app_cells`).
    Message-only plans must leave results bit-identical to the
    fault-free baseline (the transport layer hides them).  Crash plans
    must recover with results still matching: PARALLEL_MAP shapes by
    work reassignment, dependence-carrying shapes by checkpoint rollback
    (auto-enabled, see :func:`repro.runtime.launcher.resolve_run_cfg`).

    ``hier``, ``stealing`` and ``rdlb`` make two targeted crashes
    against that PARALLEL_MAP plane
    (:func:`repro.faults.chaosrun.chaos_crash_cells`); PIPELINE /
    REDUCTION_FRONT apps are skipped.

    A flag the chosen control would ignore (``--plans``,
    ``--fault-seed``, ``--reports`` and ``--ckpt-*`` outside ``central``;
    ``--fanout`` outside ``hier``) exits 2 before any job runs.  A
    FAILED cell makes the exit code 1.  Apps fan out as jobs of an
    orchestrated sweep (one baseline + every cell of the app's row per
    job); ``--workers`` widens the warm pool and ``--state-dir`` makes
    the matrix resumable.
    """
    import json

    from .errors import FaultPlanError
    from .orchestrator import JobSpec, submit_sweep

    control = args.control
    ignored = [] if control == "hier" else [("--fanout", args.fanout)]
    if control != "central":
        ignored += [
            ("--plans", args.plans),
            ("--fault-seed", args.fault_seed),
            ("--reports", args.reports),
            ("--ckpt-interval", args.ckpt_interval),
            ("--ckpt-placement", args.ckpt_placement),
        ]
    for flag, value in ignored:
        if value is not None:
            print(f"chaos: {flag} has no effect under --control {control}")
            return 2
    fault_seed = 0 if args.fault_seed is None else args.fault_seed
    fanout = 4 if args.fanout is None else args.fanout
    plan_names = args.plans or [
        "message-light",
        "message-heavy",
        "dup-reorder",
        "one-crash",
        "stall",
    ]
    if control == "central":
        try:
            for pname in plan_names:
                load_plan(pname, seed=fault_seed).validate_for(args.slaves)
        except FaultPlanError as exc:
            print(f"chaos: {exc}")
            return 2
    apps = args.apps or sorted(REGISTRY)
    for app in apps:
        if app not in REGISTRY:
            raise SystemExit(
                f"chaos: unknown app {app!r}; choices: {', '.join(sorted(REGISTRY))}"
            )
    run_args = {"n": args.n, "slaves": args.slaves, "seed": args.seed}
    header: dict[str, object] = dict(run_args)
    if control == "central":
        ckpt_cfg = _ckpt_from_args(args)
        fn = "chaos_app_cells"
        params: dict[str, object] = {
            "plans": list(plan_names),
            "fault_seed": fault_seed,
            "ckpt_interval": ckpt_cfg.interval,
            "ckpt_placement": ckpt_cfg.placement,
            "reports_dir": args.reports,
        }
        header["fault_seed"] = fault_seed
        kind = ""
        settings = (
            f"apps={len(apps)} plans={len(plan_names)} seed={args.seed} "
            f"fault-seed={fault_seed}"
        )
    else:
        fn = "chaos_crash_cells"
        params = {"control": control, "fanout": fanout}
        header["control"] = control
        kind = f"{control} "
        settings = f"slaves={args.slaves} seed={args.seed}"
    if control == "hier":
        from .scale import build_tree

        if not build_tree(args.slaves, fanout).internal:
            raise SystemExit(
                f"chaos: --slaves {args.slaves} with --fanout {fanout} "
                "builds a flat tree (no sub-masters to crash); "
                "use more slaves or a smaller fanout"
            )
        header["fanout"] = fanout
        kind = "hierarchical "
        settings = f"fanout={fanout} {settings}"
    matrix = "chaos" if control == "central" else f"chaos-{control}"
    specs = [
        JobSpec(
            id=f"{matrix}/{app}",
            fn=f"repro.faults.chaosrun:{fn}",
            params={"app": app, **run_args, **params},
            max_retries=1,
            backoff_s=0.1,
        )
        for app in apps
    ]
    sweep = submit_sweep(
        specs,
        state_dir=args.state_dir,
        workers=args.workers,
        meta={"matrix": matrix},
    )
    cells: list[dict[str, object]] = []
    for record in sweep.records:
        row = record.result if record.ok else _chaos_failed_row(record)
        if row["skipped"] is not None:
            print(f"chaos {row['app']:>8} x {control:<14} skipped ({row['skipped']})")
        for cell in row["cells"]:
            cells.append(cell)
            print(_chaos_cell_line(cell))
    failed = sum(cell["outcome"] == "FAILED" for cell in cells)
    ok = failed == 0
    print(f"\nchaos: {len(cells)} {kind}cell(s), {failed} failure(s) [{settings}]")
    if args.json is not None:
        doc = {"ok": ok, **header, "cells": cells}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"chaos results written to {args.json}")
    return 0 if ok else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    import json
    import os

    from . import experiments as ex
    from .experiments.common import ExperimentSeries

    available = {
        "tab1": ex.tab1_features.run,
        "fig3": ex.fig3_codegen.run,
        "fig4": ex.fig4_frequency.run,
        "fig5": ex.fig5_mm_dedicated.run,
        "fig6": ex.fig6_sor_dedicated.run,
        "fig7": ex.fig7_mm_loaded.run,
        "fig8": ex.fig8_sor_loaded.run,
        "fig9": ex.fig9_oscillating.run,
        "heterogeneous": ex.heterogeneous.run,
        "adaptive": ex.adaptive_irregular.run,
        "ablation-pipelining": ex.ablations.pipelining,
        "ablation-grain": ex.ablations.grain,
        "ablation-refinements": ex.ablations.refinements,
    }
    names = args.names or list(available)
    for name in names:
        if name not in available:
            print(f"unknown figure {name!r}; choices: {', '.join(available)}")
            return 2
    if args.json is not None:
        os.makedirs(args.json, exist_ok=True)
    for name in names:
        print(f"\n===== {name} =====")
        out = available[name]()
        if isinstance(out, ExperimentSeries):
            print(out.format_table())
        elif name == "tab1":
            print(out["table"], "\nmatches paper:", out["all_match"])
        elif name == "fig3":
            print(out["source"])
        elif name == "fig9":
            print(ex.fig9_oscillating.tracking_lag(out))
        if args.json is None:
            continue
        path = os.path.join(args.json, f"{name}.json")
        if isinstance(out, ExperimentSeries):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(out.to_dict(), fh, indent=2, sort_keys=True)
        elif name == "fig9":
            out["report"].save(path)
        else:
            continue
        print(f"wrote {path}")
    return 0


def _cmd_source(args: argparse.Namespace) -> int:
    plan = _build_plan(args.app, args.n, args.slaves)
    print(plan.source)
    return 0


def _cmd_features(_args: argparse.Namespace) -> int:
    from .experiments import tab1_features

    out = tab1_features.run()
    print(out["table"])
    print("matches paper Table 1:", out["all_match"])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    from .analysis.model import SWEEP_PLANES
    from .strategies import available_strategies

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Siegell & Steenkiste (HPDC 1994): automatic "
            "generation of parallel programs with dynamic load balancing"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("-n", type=int, default=200, help="problem size")
        p.add_argument("--slaves", type=int, default=4)
        p.add_argument("--speed", type=float, default=1.0e6, help="ops/sec per node")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--load-slave", type=int, default=None, metavar="PID")
        p.add_argument("--load-tasks", type=int, default=1)
        p.add_argument("--oscillating", action="store_true")
        p.add_argument("--no-dlb", action="store_true", help="static distribution")
        p.add_argument("--synchronous", action="store_true")
        p.add_argument(
            "--numerics",
            action="store_true",
            help="execute real kernels (default: cost-only simulation)",
        )
        p.add_argument(
            "--strategy",
            choices=("centralized", *available_strategies()),
            default="centralized",
            help=(
                "DLB control plane: 'centralized' is the paper's runtime; "
                "the rest are the repro.strategies registry "
                "(PARALLEL_MAP apps only; exit code 1 if the run could "
                "not finish)"
            ),
        )
        p.add_argument(
            "--faults",
            metavar="NAME_OR_PATH",
            default=None,
            help=(
                "inject a fault plan: a built-in name "
                f"({', '.join(sorted(NAMED_PLANS))}) or a JSON file; "
                "'none' disables injection explicitly"
            ),
        )
        p.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            help="seed for the fault plan's RNG (deterministic injection)",
        )
        p.add_argument(
            "--ckpt",
            action="store_true",
            help=(
                "enable coordinated checkpointing (auto-enabled for "
                "crash plans on dependence-carrying shapes)"
            ),
        )
        p.add_argument(
            "--ckpt-interval",
            type=float,
            default=None,
            metavar="SECONDS",
            help="simulated seconds between checkpoint epochs",
        )
        p.add_argument(
            "--ckpt-placement",
            choices=("master", "buddy"),
            default=None,
            help="where slave snapshots are deposited",
        )

    p_run = sub.add_parser("run", help="run one application on the simulator")
    p_run.add_argument("app", choices=sorted(REGISTRY))
    add_run_options(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run with observability on and dump/inspect RunReport JSON",
    )
    p_trace.add_argument(
        "app", nargs="?", default=None, choices=sorted(REGISTRY)
    )
    add_run_options(p_trace)
    p_trace.add_argument(
        "--json", metavar="PATH", default=None, help="write the RunReport as JSON"
    )
    p_trace.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the raw event log as JSONL",
    )
    p_trace.add_argument(
        "--inspect",
        metavar="PATH",
        default=None,
        help="summarize a previously saved RunReport instead of running",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_check = sub.add_parser(
        "check",
        help="run the static verification suite over generated plans",
    )
    p_check.add_argument(
        "apps",
        nargs="*",
        help="applications to verify (default: all registered apps)",
    )
    p_check.add_argument("-n", type=int, default=24, help="problem size")
    p_check.add_argument("--slaves", type=int, default=3)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--json", metavar="PATH", default=None, help="write findings as JSON"
    )
    p_check.add_argument(
        "--no-replay",
        action="store_true",
        help="static passes only (skip the recorded replay simulations)",
    )
    p_check.add_argument(
        "--hier",
        action="store_true",
        help=(
            "also lint the hierarchical control plane's sc.* protocol "
            "(send/receive pairing over repro.scale sources)"
        ),
    )
    p_check.add_argument(
        "--steal",
        action="store_true",
        help=(
            "also lint the strategy control planes' st.* (work stealing) "
            "and rb.* (robust self-scheduling) protocols "
            "(send/receive pairing over repro.strategies sources)"
        ),
    )
    p_check.add_argument(
        "--model",
        action="store_true",
        help=(
            "also model-check the control planes: exhaustive "
            "deadlock/liveness/unit-conservation verification of the "
            f"{', '.join(SWEEP_PLANES)} protocol models (RA6xx/RA7xx)"
        ),
    )
    p_check.add_argument(
        "--injector-equivalence",
        action="store_true",
        help=(
            "also run the injector-equivalence suite: every golden-trace "
            "app with and without a silent fault injector, diffing trace "
            "bytes and run outcomes (RA8xx)"
        ),
    )
    p_check.add_argument(
        "--model-plane",
        action="append",
        choices=SWEEP_PLANES,
        default=None,
        metavar="PLANE",
        help="restrict --model to these planes (repeatable; default: all)",
    )
    p_check.add_argument(
        "--model-budget",
        type=int,
        default=None,
        metavar="STATES",
        help=(
            "cap exploration at this many states per model; the verdict "
            "degrades to bounded + randomized walks (RA603)"
        ),
    )
    p_check.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="replay an existing JSONL event log (from `repro trace --events`)",
    )
    p_check.add_argument(
        "--plan-factory",
        metavar="MODULE:FUNC",
        default=None,
        help="verify the plan returned by a custom zero-argument factory",
    )
    p_check.set_defaults(fn=_cmd_check)

    p_chaos = sub.add_parser(
        "chaos",
        help="run an app x fault-plan matrix and validate recovery",
    )
    p_chaos.add_argument(
        "apps",
        nargs="*",
        help="applications to stress (default: all registered apps)",
    )
    p_chaos.add_argument("-n", type=int, default=32, help="problem size")
    p_chaos.add_argument("--slaves", type=int, default=4)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault plans' RNG (--control central; default 0)",
    )
    p_chaos.add_argument(
        "--control",
        choices=("central", "hier", "stealing", "rdlb"),
        default="central",
        help=(
            "control plane to stress: 'central' runs the fault-plan "
            "matrix against the central runtime (default); 'hier' runs "
            "targeted sub-master crashes against the hierarchical plane; "
            "'stealing' / 'rdlb' run targeted worker crashes against the "
            "robust strategy planes"
        ),
    )
    p_chaos.add_argument(
        "--fanout",
        type=int,
        default=None,
        help="sub-master fanout for --control hier (default 4)",
    )
    p_chaos.add_argument(
        "--plans",
        nargs="*",
        default=None,
        metavar="PLAN",
        help=(
            "fault plans to apply "
            f"(default matrix; choices: {', '.join(sorted(NAMED_PLANS))} "
            "or JSON file paths)"
        ),
    )
    p_chaos.add_argument(
        "--json", metavar="PATH", default=None, help="write the matrix as JSON"
    )
    p_chaos.add_argument(
        "--reports",
        metavar="DIR",
        default=None,
        help="write a RunReport JSON per faulted cell into DIR",
    )
    p_chaos.add_argument(
        "--ckpt-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="checkpoint epoch interval for cells that enable ckpt",
    )
    p_chaos.add_argument(
        "--ckpt-placement",
        choices=("master", "buddy"),
        default=None,
        help="snapshot placement for cells that enable ckpt",
    )
    p_chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="warm-pool width for app fan-out (default 1: inline)",
    )
    p_chaos.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="journal + result-cache directory (makes the matrix resumable)",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    p_fig.add_argument("names", nargs="*", help="subset to run (default: all)")
    p_fig.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write machine-readable JSON per figure into DIR",
    )
    p_fig.set_defaults(fn=_cmd_figures)

    sub.add_parser(
        "orchestrate",
        help="operate crash-safe sweeps: run/status/resume/cancel/gc",
        add_help=False,
    )

    p_src = sub.add_parser("source", help="show a generated SPMD program")
    p_src.add_argument("app", choices=sorted(REGISTRY))
    p_src.add_argument("-n", type=int, default=200)
    p_src.add_argument("--slaves", type=int, default=4)
    p_src.set_defaults(fn=_cmd_source)

    p_feat = sub.add_parser("features", help="print the Table 1 matrix")
    p_feat.set_defaults(fn=_cmd_features)

    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw and raw[0] == "orchestrate":
        # ``orchestrate`` owns its full option surface
        # (repro.orchestrator.cli); delegate before the main parser can
        # reject its flags.
        from .orchestrator.cli import main as orchestrate_main

        return orchestrate_main(raw[1:])
    args = parser.parse_args(raw)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
