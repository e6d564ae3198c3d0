"""Suite registry, fan-out runner, JSON schema, and the baseline gate.

The document format is schema-versioned (``repro-bench/1``):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "suite": "ci-smoke",
      "created_unix": 1700000000.0,
      "host": {"python": "3.12.1", "platform": "...", "cpu_count": 4},
      "calibration_s": 0.031,
      "workers": 2,
      "repeat": 1,
      "cells": [
        {"suite": "ci-smoke", "name": "pingpong", "cell": "pingpong",
         "params": {"n_messages": 20000},
         "metrics": {"wall_s": 0.41, "events": 120002.0,
                     "events_per_sec": 292688.0},
         "meta": {"sim_elapsed": 30.4}}
      ]
    }

Baseline comparison normalizes by the calibration factor — a fixed
pure-Python workload timed serially before the cells run — so the gate
measures *code* speed, not *machine* speed.  ``wall_s`` regresses when
the normalized time exceeds baseline by more than the threshold;
``events_per_sec`` regresses when the normalized rate falls short of
baseline by more than the threshold.  Deterministic ``meta.sim_elapsed``
drift is reported as a warning (it means simulation semantics changed,
which is the determinism suite's jurisdiction, not a perf regression).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import time
from pathlib import Path
from typing import Any, Sequence

from .workloads import CELLS, run_cell

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "compare_docs",
    "csv_report",
    "main",
    "run_suite",
    "validate_doc",
]

SCHEMA_VERSION = "repro-bench/1"

# Metric direction for the regression gate; anything else is archived
# but never compared.
HIGHER_IS_BETTER = frozenset({"events_per_sec"})
LOWER_IS_BETTER = frozenset({"wall_s"})

DEFAULT_THRESHOLD = 0.25


def _cell(name: str, cell: str, **params: Any) -> dict[str, Any]:
    if cell not in CELLS:
        raise ValueError(f"unknown cell kind {cell!r}")
    return {"name": name, "cell": cell, "params": params}


SUITES: dict[str, list[dict[str, Any]]] = {
    # Library hot-path throughput: message path, scheduler path, and
    # paper-scale end-to-end points (the suite the >=2x overhaul target
    # is measured on).
    "simulator_throughput": [
        _cell("pingpong", "pingpong", n_messages=20000),
        _cell("compute_loop", "compute_loop", n_chunks=50000),
        _cell("mm_dedicated_point", "run", app="matmul", n=500, P=7),
        _cell("sor_paper_point", "run", app="sor", n=2000, P=7, maxiter=15),
        _cell("lu_point", "run", app="lu", n=300, P=4),
    ],
    # Scaling-crossover study: centralized vs hierarchical (fanout
    # 4/8/16) vs diffusion, weak-scaled over P under three competing
    # load regimes, plus interconnect probes at a fixed P.  The nightly
    # scaling-bench lane runs all of it (--max-p 1024); the crossover
    # analysis is attached to the document as doc["crossover"].
    "scaling_crossover": [
        _cell(f"P{P}_{regime}", "scaling", P=P, regime=regime)
        for P in (8, 32, 64, 128, 256, 512, 1024)
        for regime in ("constant", "oscillating", "trace")
    ] + [
        _cell(f"topo_{kind}_P64", "scaling", P=64, regime="constant", topology=kind)
        for kind in ("ring", "mesh2d", "fat_tree", "two_cluster")
    ],
    # Perturbation-robustness study: the paper's rate-filtered
    # redistribution vs work stealing vs rDLB robust self-scheduling,
    # over workload tails (uniform / lognormal / pareto) x perturbation
    # regimes (flat / spike / recorded trace).  The strategy-crossover
    # analysis is attached to the document as doc["robustness"].
    "perturbation_robustness": [
        _cell(f"{workload}_{regime}", "perturbation",
              workload=workload, regime=regime, P=16)
        for workload in ("uniform", "lognormal", "pareto")
        for regime in ("flat", "spike", "trace")
    ],
    # Fast PR gate: one cell per hot path, sized for stable timing but
    # bounded wall clock (used by the CI bench job).
    "ci-smoke": [
        _cell("pingpong", "pingpong", n_messages=20000),
        _cell("compute_loop", "compute_loop", n_chunks=50000),
        _cell("mm_pair", "figure_pair", app="matmul", n=500, P=4),
        _cell(
            "sor_loaded_pair",
            "figure_pair",
            app="sor",
            n=1200,
            P=4,
            maxiter=10,
            load_k=1,
        ),
        _cell("ckpt_sor", "checkpoint", app="sor", n=192, placement="master"),
        _cell("perturb_pareto_spike", "perturbation",
              workload="pareto", regime="spike", P=8, units_per_worker=12),
    ],
}


def _calibration_workload() -> int:
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return acc


def calibrate(rounds: int = 3) -> float:
    """Host speed probe: best wall time of a fixed pure-Python workload.

    Run serially before any fan-out so it measures an unloaded core.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - t0)
    return best


def _resolve_workers(workers: str | int, n_jobs: int) -> int:
    if workers == "auto":
        return max(1, min(n_jobs, (multiprocessing.cpu_count() or 2) - 1))
    n = int(workers)
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    return min(n, n_jobs) if n_jobs else 1


def _job_selected(
    spec: dict[str, Any], max_p: int | None, topologies: Sequence[str] | None
) -> bool:
    """Apply the --max-p / --topologies cell filters to one job spec.

    ``max_p`` drops cells whose ``P`` parameter exceeds it (cells with
    no ``P`` always run); ``topologies`` keeps only the named
    interconnects, with ``crossbar`` meaning the default no-topology
    cells.  Cells without a ``topology`` knob ignore the filter.
    """
    params = spec["params"]
    if max_p is not None and params.get("P", 0) > max_p:
        return False
    if topologies is not None and spec["cell"] == "scaling":
        return (params.get("topology") or "crossbar") in topologies
    return True


def run_suite(
    suite: str,
    workers: str | int = "auto",
    repeat: int = 1,
    max_p: int | None = None,
    topologies: Sequence[str] | None = None,
    state_dir: str | None = None,
    timeout_s: float | None = None,
    self_chaos: Any = None,
) -> dict[str, Any]:
    """Run every cell of ``suite`` (or ``all``) and return the document.

    Cells are submitted to :func:`repro.orchestrator.submit_sweep`: more
    than one worker fans out over the warm spawn pool, one worker runs
    inline (also the path used under test, and on single-core hosts).
    A cell that raises is recorded in the document with ``status`` and
    ``error`` (its traceback) instead of killing the sweep; ``timeout_s``
    bounds each cell attempt's wall clock.  ``state_dir`` enables the
    write-ahead journal + result cache, making an interrupted or killed
    bench run resumable (re-invoke with the same ``state_dir``).
    ``max_p`` and ``topologies`` filter cells (see :func:`_job_selected`)
    — the nightly lane uses them to bound wall clock.

    Known-noisy ``two_cluster`` topology cells always run at least
    twice (best-of policy) to damp interconnect-model timing jitter in
    the nightly lane.
    """
    from ..orchestrator import JobSpec, submit_sweep

    suite_names = sorted(SUITES) if suite == "all" else [suite]
    for name in suite_names:
        if name not in SUITES:
            choices = ", ".join(sorted(SUITES))
            raise KeyError(f"unknown suite {name!r}; choices: {choices} or 'all'")
    jobs = [
        {**spec, "suite": name, "repeat": repeat}
        for name in suite_names
        for spec in SUITES[name]
        if _job_selected(spec, max_p, topologies)
    ]
    for job in jobs:
        if job["params"].get("topology") == "two_cluster":
            # Retry-once policy for the known-noisy two_cluster cells:
            # best-of-2 minimum damps the bimodal timing of the
            # inter-cluster bottleneck model.
            job["repeat"] = max(int(job["repeat"]), 2)
    if not jobs:
        raise KeyError(
            f"suite {suite!r}: every cell was filtered out "
            f"(max_p={max_p}, topologies={topologies})"
        )
    calibration_s = calibrate()
    n_workers = _resolve_workers(workers, len(jobs))
    specs = [
        JobSpec(
            id=f"{job['suite']}/{job['name']}",
            fn="repro.bench.workloads:run_cell",
            params={"job": job},
            timeout_s=timeout_s,
            max_retries=1,
            backoff_s=0.1,
        )
        for job in jobs
    ]
    sweep = submit_sweep(
        specs,
        state_dir=state_dir,
        workers=n_workers,
        meta={"suite": suite, "repeat": repeat},
        chaos=self_chaos,
    )
    cells: list[dict[str, Any]] = []
    for record in sweep.records:
        if record.ok:
            cells.append(record.result)
            continue
        job = dict(record.spec.params["job"])
        cells.append(
            {
                "suite": job["suite"],
                "name": job["name"],
                "cell": job["cell"],
                "params": job["params"],
                "status": record.state.value,
                "error": record.error,
                "metrics": {},
            }
        )
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "created_unix": sweep.created_unix,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": multiprocessing.cpu_count(),
        },
        "calibration_s": calibration_s,
        # Calibration provenance: what was measured and how, so a doc
        # compared months later can be sanity-checked for method drift.
        "calibration": {
            "seconds": calibration_s,
            "rounds": 3,
            "workload": "pure-python int arithmetic, 1M iterations, best-of",
        },
        "workers": n_workers,
        "repeat": repeat,
        "cells": cells,
    }
    if sweep.interrupted:
        doc["interrupted"] = True
    if state_dir is not None:
        doc["sweep"] = {
            "sweep_id": sweep.sweep_id,
            "state_dir": state_dir,
            "stats": sweep.stats,
        }
    if max_p is not None:
        doc["max_p"] = max_p
    if topologies is not None:
        doc["topologies"] = list(topologies)
    scaling_cells = [
        c for c in cells
        if c.get("cell") == "scaling" and c.get("status") is None
    ]
    if scaling_cells:
        from ..scale.crossover import crossover_analysis

        doc["crossover"] = crossover_analysis(scaling_cells)
    perturbation_cells = [
        c for c in cells
        if c.get("cell") == "perturbation" and c.get("status") is None
    ]
    if perturbation_cells:
        from ..strategies.robustness import robustness_analysis

        doc["robustness"] = robustness_analysis(perturbation_cells)
    return doc


def validate_doc(doc: Any) -> list[str]:
    """Schema check for a bench document; returns human-readable errors."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema mismatch: want {SCHEMA_VERSION!r}, got {doc.get('schema')!r}"
        )
    for key, kind in (
        ("suite", str),
        ("calibration_s", (int, float)),
        ("cells", list),
        ("host", dict),
    ):
        if not isinstance(doc.get(key), kind):
            errors.append(f"missing or mistyped field {key!r}")
    if errors:
        return errors
    if doc["calibration_s"] <= 0:
        errors.append("calibration_s must be positive")
    for i, cell in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{where} is not an object")
            continue
        for key, kind in (("suite", str), ("name", str), ("metrics", dict)):
            if not isinstance(cell.get(key), kind):
                errors.append(f"{where}: missing or mistyped field {key!r}")
        status = cell.get("status")
        if status is not None and not isinstance(status, str):
            errors.append(f"{where}: status must be a string when present")
        metrics = cell.get("metrics")
        if isinstance(metrics, dict):
            # Cells that failed (or never ran: timeout/cancelled/pending)
            # legitimately carry no measurements — status says why.
            if status is None and not isinstance(
                metrics.get("wall_s"), (int, float)
            ):
                errors.append(f"{where}: metrics.wall_s missing or mistyped")
            for mname, mval in metrics.items():
                if not isinstance(mval, (int, float)):
                    errors.append(f"{where}: metric {mname!r} is not numeric")
    return errors


def compare_docs(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """Gate ``current`` against ``baseline``.

    Wall times are normalized into baseline-host units via the
    calibration ratio before applying the threshold; rates are
    normalized the opposite way.  Returns a comparison document with
    one row per (cell, gated metric) and the overall verdict.
    """
    scale = baseline["calibration_s"] / current["calibration_s"]
    base_cells = {(c["suite"], c["name"]): c for c in baseline["cells"]}
    rows: list[dict[str, Any]] = []
    warnings: list[str] = []
    regressions = 0
    compared = 0
    for cell in current["cells"]:
        key = (cell["suite"], cell["name"])
        if cell.get("status") is not None:
            warnings.append(
                f"{key[0]}/{key[1]}: cell {cell['status']} (not compared)"
            )
            continue
        base = base_cells.get(key)
        if base is None:
            warnings.append(f"{key[0]}/{key[1]}: no baseline cell (skipped)")
            continue
        if base.get("status") is not None:
            warnings.append(
                f"{key[0]}/{key[1]}: baseline cell {base['status']} (skipped)"
            )
            continue
        sim_now = cell.get("meta", {}).get("sim_elapsed")
        sim_base = base.get("meta", {}).get("sim_elapsed")
        if sim_now is not None and sim_base is not None and sim_now != sim_base:
            warnings.append(
                f"{key[0]}/{key[1]}: simulated outcome drifted "
                f"({sim_base} -> {sim_now}); check determinism suite"
            )
        for metric, cur_raw in cell["metrics"].items():
            base_raw = base["metrics"].get(metric)
            if base_raw is None or not (
                metric in HIGHER_IS_BETTER or metric in LOWER_IS_BETTER
            ):
                continue
            compared += 1
            if metric in LOWER_IS_BETTER:
                normalized = cur_raw * scale
                speedup = base_raw / normalized if normalized > 0 else float("inf")
                regressed = normalized > base_raw * (1.0 + threshold)
            else:
                normalized = cur_raw / scale
                speedup = normalized / base_raw if base_raw > 0 else float("inf")
                regressed = normalized < base_raw * (1.0 - threshold)
            regressions += regressed
            rows.append(
                {
                    "suite": key[0],
                    "cell": key[1],
                    "metric": metric,
                    "baseline": base_raw,
                    "current": cur_raw,
                    "normalized": normalized,
                    "speedup_vs_baseline": speedup,
                    "regression": bool(regressed),
                }
            )
    return {
        "threshold": threshold,
        "calibration_scale": scale,
        "compared": compared,
        "regressions": regressions,
        "rows": rows,
        "warnings": warnings,
        "ok": regressions == 0,
    }


def csv_report(doc: dict[str, Any]) -> str:
    """Plot-ready long-form CSV for a bench document.

    One row per (cell, control-plane mode) for scaling cells — simulated
    makespan and message count per mode — and one ``wall``-mode row for
    every other cell, so a single file feeds both the crossover plots
    and plain wall-time charts.
    """
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "suite", "name", "cell", "P", "regime", "topology",
            "mode", "sim_makespan_s", "messages", "wall_s",
        ]
    )
    for cell in doc["cells"]:
        if cell.get("status") is not None:
            continue
        meta = cell.get("meta", {})
        common = [
            cell["suite"], cell["name"], cell["cell"],
            meta.get("P", ""), meta.get("regime", ""), meta.get("topology", ""),
        ]
        spans = meta.get("makespans")
        if spans:
            msgs = meta.get("messages", {})
            for mode, span in spans.items():
                writer.writerow(
                    common + [mode, span, msgs.get(mode, ""), cell["metrics"]["wall_s"]]
                )
        else:
            writer.writerow(
                common + ["wall", meta.get("sim_elapsed", ""), meta.get("messages", ""),
                          cell["metrics"]["wall_s"]]
            )
    return buf.getvalue()


def _format_report(doc: dict[str, Any], comparison: dict[str, Any] | None) -> str:
    lines = [f"suite {doc['suite']}: {len(doc['cells'])} cell(s), "
             f"calibration {doc['calibration_s'] * 1e3:.1f} ms, "
             f"{doc['workers']} worker(s)"]
    for cell in doc["cells"]:
        status = cell.get("status")
        if status is not None:
            error = (cell.get("error") or "").strip().splitlines()
            detail = f"  ({error[-1]})" if error else ""
            lines.append(
                f"  {cell['suite']:>22}/{cell['name']:<18} "
                f"{status.upper():>10}{detail}"
            )
            continue
        m = cell["metrics"]
        eps = m.get("events_per_sec")
        eps_txt = f"  {eps:>12,.0f} ev/s" if eps is not None else ""
        lines.append(
            f"  {cell['suite']:>22}/{cell['name']:<18} {m['wall_s']:8.3f} s{eps_txt}"
        )
    if comparison is not None:
        lines.append(
            f"baseline gate: {comparison['compared']} metric(s) compared, "
            f"threshold {comparison['threshold']:.0%}, "
            f"scale x{comparison['calibration_scale']:.3f}"
        )
        for row in comparison["rows"]:
            verdict = "REGRESSION" if row["regression"] else "ok"
            lines.append(
                f"  {row['suite']:>22}/{row['cell']:<18} {row['metric']:<15} "
                f"x{row['speedup_vs_baseline']:.2f} vs baseline  [{verdict}]"
            )
        for warning in comparison["warnings"]:
            lines.append(f"  warning: {warning}")
    crossover = doc.get("crossover")
    if crossover:
        for regime, entry in crossover["regimes"].items():
            at = entry["crossover_P"]
            verdict = (
                f"hierarchy wins from P={at}" if at is not None
                else "central master never loses in swept range"
            )
            lines.append(f"  crossover[{regime}]: {verdict}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """``repro bench`` / ``benchmarks/harness.py`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run a named benchmark suite and gate against a baseline",
    )
    parser.add_argument(
        "--suite",
        default="ci-smoke",
        help=f"suite to run: {', '.join(sorted(SUITES))}, or 'all'",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the BENCH_run document"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline document to gate against (nonzero exit on regression)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        help="process-pool width for cell fan-out ('auto' or an integer)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="runs per cell; the fastest is reported (default 1)",
    )
    parser.add_argument(
        "--max-p",
        type=int,
        default=None,
        metavar="P",
        help="skip cells whose processor count exceeds P (nightly lane uses 1024)",
    )
    parser.add_argument(
        "--topologies",
        default=None,
        metavar="LIST",
        help="comma-separated interconnects to keep for scaling cells "
        "(crossbar, ring, mesh2d, fat_tree, two_cluster)",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write a plot-ready long-form CSV report",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="journal + result-cache directory (makes the run resumable: "
        "re-invoke with the same DIR after a crash or Ctrl-C)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock budget in seconds (hung cells are "
        "killed and recorded as timeout)",
    )
    parser.add_argument(
        "--self-chaos",
        default=None,
        metavar="SPEC",
        help="inject orchestrator faults while benching, e.g. "
        "'kill-worker:2' (testing hook)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list suites and cells, then exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SUITES):
            cells = ", ".join(spec["name"] for spec in SUITES[name])
            print(f"{name}: {cells}")
        return 0

    baseline_doc = None
    if args.baseline is not None:
        try:
            baseline_doc = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench: cannot read baseline {args.baseline}: {exc}")
            return 2
        problems = validate_doc(baseline_doc)
        if problems:
            print(f"bench: invalid baseline {args.baseline}:")
            for problem in problems:
                print(f"  - {problem}")
            return 2

    topologies = (
        [t.strip() for t in args.topologies.split(",") if t.strip()]
        if args.topologies is not None
        else None
    )
    self_chaos = None
    if args.self_chaos is not None:
        from ..faults.selfchaos import SelfChaos

        parsed = SelfChaos.parse(args.self_chaos)
        self_chaos = None if parsed.empty else parsed
    try:
        doc = run_suite(
            args.suite,
            workers=args.workers,
            repeat=args.repeat,
            max_p=args.max_p,
            topologies=topologies,
            state_dir=args.state_dir,
            timeout_s=args.timeout,
            self_chaos=self_chaos,
        )
    except KeyError as exc:
        print(f"bench: {exc.args[0]}")
        return 2

    comparison = None
    if baseline_doc is not None:
        comparison = compare_docs(doc, baseline_doc, threshold=args.threshold)
        doc["baseline"] = {"path": str(args.baseline), **comparison}

    if args.json is not None:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    if args.csv is not None:
        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(csv_report(doc), encoding="utf-8")

    print(_format_report(doc, comparison))
    if args.json is not None:
        print(f"bench results written to {args.json}")
    if args.csv is not None:
        print(f"csv report written to {args.csv}")
    if doc.get("interrupted"):
        print(
            "bench: interrupted — partial results persisted"
            + (
                f"; resume with --state-dir {args.state_dir}"
                if args.state_dir
                else ""
            )
        )
        return 2
    broken = [c for c in doc["cells"] if c.get("status") is not None]
    if broken:
        names = ", ".join(f"{c['suite']}/{c['name']}" for c in broken)
        print(f"bench: FAILED — {len(broken)} cell(s) did not complete: {names}")
        return 1
    if comparison is not None and not comparison["ok"]:
        print(
            f"bench: FAILED — {comparison['regressions']} metric(s) regressed "
            f"beyond {args.threshold:.0%}"
        )
        return 1
    return 0
