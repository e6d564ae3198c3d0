#!/usr/bin/env python3
"""End-to-end benchmark of the repro system.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--trace [0|1]]
        [--seconds N] [--passes N] [--json OUT]

Each workload (see workloads.py) runs in its own fresh, single-threaded
process: set-up (inputs from the seed, plans, sequential references and a
warm-up of every plan/cell, done three times; the median is ``setup_s``),
then timed passes over the workload's run list until ``--seconds`` have
been measured and at least 100 runs pooled.  A 2 ms probe of host speed
runs after every run and set-up step; each step's time is scaled by
``PROBE_REF_S`` / the probes around it (see :class:`Clock`), so that a
host slowed by other tenants reads the same.  Raw times are kept next to
the scaled ones in the JSON document.

Every run's outputs are checked (numerics against the sequential
reference, simulated outcome identical on every pass, unit conservation,
crash timing).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the ``end_to_end`` metrics of
BENCHMARK.json, or with ``--trace 1`` its ``per_layer`` metrics from one
untraced and one traced pass.  The exit code is 1 if any check failed.
Without ``--workload`` every workload runs in turn, each in a child
process, and the documents are merged.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SCHEMA = "repro-e2e/1"
WORKLOADS = ("paper_sweep", "numerics_verified", "strategy_irregular", "hier_p256")

#: Median probe time (s) on the reference host; set from results/ (README).
PROBE_REF_S = 0.0013
PROBE_N = 1000
SETUP_REPEATS = 3
MIN_RUNS = 100
CHILD_TIMEOUT_S = 900
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: name -> (unit, better, exact).  Host times are probe-scaled; exact
#: metrics come from the deterministic simulation and repeat bit for bit.
METRICS = {
    "setup_s": ("s", "lower", False),
    "runs_per_s": ("1/s", "higher", False),
    "run_p50_s": ("s", "lower", False),
    "run_p90_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", False),
    "failed_frac": ("ratio", "lower", True),
    "sim_speedup_gmean": ("x", "higher", True),
    "dlb_overhead_pct": ("%", "lower", True),
    "dlb_gain_pct": ("%", "higher", True),
    "makespan_over_oracle_gmean": ("ratio", "lower", True),
    "units_lost_frac": ("ratio", "lower", True),
    "numeric_max_abs_err": ("abs", "lower", True),
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it; exit non-zero when the sources are not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def probe(grid) -> float:
    """Host speed right now: time of a short loop of the program's two
    kinds of work, pure-Python heap/dict operations and numpy scalar
    indexing (``grid`` is a small float array)."""
    t0 = perf_counter()
    heap: list = []
    d: dict = {}
    for i in range(PROBE_N):
        heappush(heap, ((i * 7919) % 1009, i))
        d[i & 255] = i
    while heap:
        heappop(heap)
    for i in range(PROBE_N):
        j = i & 7
        nxt = (i + 1) & 7
        grid[j, 3] = 0.5 * (grid[j, 2] + grid[nxt, 4]) - 0.25 * grid[j, 3]
    return perf_counter() - t0


class Clock:
    """Times steps of work, each followed by a probe of host speed.

    A step's scaled time is its raw time x ``PROBE_REF_S`` / the median
    of the six probes around it (two before, its own two, two after).
    Scaling each step follows contention that comes and goes within a
    pass; the median ignores a probe slowed by the step before it (cold
    caches after a large kernel) or by a momentary stall."""

    def __init__(self) -> None:
        import numpy

        self._grid = numpy.zeros((8, 8))
        self.probes = [probe(self._grid)]

    def time(self, fn: Callable[[], Any]) -> tuple[Any, tuple[float, int]]:
        """``(fn(), step)``; ``step`` is ``(raw_s, index)`` for :meth:`scaled`."""
        t0 = perf_counter()
        value = fn()
        raw = perf_counter() - t0
        self.probes.append(probe(self._grid))
        return value, (raw, len(self.probes) - 2)

    def scaled(self, step: tuple[float, int]) -> float:
        raw, i = step
        return raw * PROBE_REF_S / statistics.median(self.probes[max(0, i - 2) : i + 4])


class Pass:
    """Outcomes, errors and per-run timed steps of one pass over a workload."""

    def __init__(self, wl, clock: Clock, tracer=None) -> None:
        self.clock = clock
        self.outcomes: list = []
        self.errors: list[str | None] = []
        self.steps: list[tuple[float, int]] = []
        gc.collect()
        for run in wl.runs:
            loads = run.loads()
            if tracer is not None:
                tracer.wrap_loads(loads)
            (out, err), step = clock.time(
                lambda run=run, loads=loads: _execute(run, loads, tracer)
            )
            self.outcomes.append(out)
            self.errors.append(err)
            self.steps.append(step)

    @property
    def raw(self) -> list[float]:
        return [raw for raw, _ in self.steps]

    @property
    def scaled(self) -> list[float]:
        return [self.clock.scaled(step) for step in self.steps]

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def _execute(run, loads: dict, tracer) -> tuple[Any, str | None]:
    try:
        if tracer is None:
            return run.execute(loads), None
        return tracer.run(run.name, lambda: run.execute(loads)), None
    except Exception as exc:  # a failing run is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _set_up(name: str, seed: int, clock: Clock):
    """Build the workload and warm up every plan/cell once; returns the
    workload, its timed steps and any warm-up errors."""
    import workloads

    gc.collect()
    wl, step = clock.time(lambda: workloads.build(name, seed))
    steps, errors = [step], []
    for run in wl.runs:
        if run.warm:
            (_out, err), step = clock.time(
                lambda run=run: _execute(run, run.loads(), None)
            )
            steps.append(step)
            if err:
                errors.append(f"{run.name}: {err}")
    return wl, steps, errors


def _gmean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _sim_metrics(wl, outcomes: list) -> dict[str, float | None]:
    """Exact metrics from the simulated outcomes of one pass."""
    import workloads

    pairs = [(r, o) for r, o in zip(wl.runs, outcomes) if o is not None]
    dlb = [(r, o) for r, o in pairs if r.dlb]
    m: dict[str, float | None] = {
        "sim_speedup_gmean": _gmean([o.sequential_time / o.elapsed for _, o in dlb]),
        "makespan_over_oracle_gmean": _gmean(
            [o.elapsed / r.oracle for r, o in dlb if r.oracle]
        ),
        "dlb_overhead_pct": None,
        "dlb_gain_pct": None,
        "units_lost_frac": None,
        "numeric_max_abs_err": None,
    }
    cells: dict[tuple, dict[bool, float]] = {}
    for r, o in pairs:
        if r.cell is not None:
            cells.setdefault(r.cell, {})[r.dlb] = o.elapsed
    ratios: dict[bool, list[float]] = {True: [], False: []}
    for (_app, _P, loaded), t in cells.items():
        if len(t) == 2:
            ratios[loaded].append(t[True] / t[False])
    if ratios[False]:
        m["dlb_overhead_pct"] = 100.0 * (_gmean(ratios[False]) - 1.0)
    if ratios[True]:
        m["dlb_gain_pct"] = 100.0 * (1.0 - _gmean(ratios[True]))
    counted = [o for _, o in pairs if o.completed is not None]
    if counted:
        m["units_lost_frac"] = sum(o.lost for o in counted) / sum(
            o.units for o in counted
        )
    if any(r.reference is not None for r in wl.runs):
        m["numeric_max_abs_err"] = max(
            (
                workloads.numeric_error(o.result, r.reference)[1]
                for r, o in pairs
                if r.reference is not None and o.result is not None
            ),
            default=math.inf,
        )
    return m


def _check_passes(wl, passes: list[Pass]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, failed_or_lossy, problems) over all passes.

    ``failed`` counts runs that fail an output check; ``failed_or_lossy``
    also counts runs that lost units (the ``failed_frac`` definition)."""
    import workloads

    first = passes[0].outcomes
    attempted = failed = lossy = 0
    problems: list[str] = []
    for k, p in enumerate(passes):
        for i, run in enumerate(wl.runs):
            attempted += 1
            out = p.outcomes[i]
            if out is None:
                found = [p.errors[i]]
            else:
                found = workloads.check(run, out, first[i] if k else None)
            if found:
                failed += 1
                problems.extend(f"pass {k + 1} {run.name}: {msg}" for msg in found)
            if found or (out is not None and out.lost):
                lossy += 1
    return attempted, failed, lossy, problems


def _metric(name: str, value: float | None, raw: float | None = None) -> dict:
    unit, better, exact = METRICS[name]
    entry = {"value": value, "unit": unit, "better": better, "exact": exact}
    if raw is not None:
        entry["raw"] = raw
    return entry


def measure(
    name: str,
    seed: int,
    seconds: float,
    passes: int | None,
    trace: bool,
    spans_path: Path | None = None,
) -> dict[str, Any]:
    """Set up, measure and check one workload in this process.

    Untraced: ``passes`` timed passes, or as many as fit in ``seconds``
    with at least ``MIN_RUNS`` runs.  Traced: one untraced and one traced
    pass, reporting per-layer metrics as well."""
    clock = Clock()
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        if tracer is not None:
            tracer.patch_compiler()
        try:
            wl, steps, warm_errors = _set_up(name, seed, clock)
        finally:
            if tracer is not None:
                tracer.restore()
        setups.append(steps)

    timed: list[Pass] = []
    wanted = passes or (1 if trace else math.ceil(MIN_RUNS / len(wl.runs)))
    t_begin = perf_counter()
    while True:
        timed.append(Pass(wl, clock))
        if len(timed) < wanted:
            continue
        if passes is not None or trace:
            break
        median_raw = statistics.median(sum(p.raw) for p in timed)
        if perf_counter() - t_begin + median_raw > seconds:
            break

    traced = None
    if tracer is not None:
        tracer.patch_runtime(wl.plans)
        try:
            traced = Pass(wl, clock, tracer)
        finally:
            tracer.restore()

    attempted, failed, lossy, problems = _check_passes(
        wl, timed + ([traced] if traced else [])
    )
    run_scaled = [t for p in timed for t in p.scaled]
    run_raw = [t for p in timed for t in p.raw]
    setup_raw = [sum(raw for raw, _ in steps) for steps in setups]
    setup_scaled = [sum(clock.scaled(step) for step in steps) for steps in setups]
    n_runs = len(wl.runs)
    metrics = {
        "setup_s": _metric(
            "setup_s", statistics.median(setup_scaled), statistics.median(setup_raw)
        ),
        "runs_per_s": _metric(
            "runs_per_s",
            n_runs / statistics.median(p.wall for p in timed),
            n_runs / statistics.median(sum(p.raw) for p in timed),
        ),
        "run_p50_s": _metric(
            "run_p50_s", statistics.median(run_scaled), statistics.median(run_raw)
        ),
        "run_p90_s": _metric("run_p90_s", _p90(run_scaled), _p90(run_raw)),
        "peak_rss_mb": _metric(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "failed_frac": _metric("failed_frac", lossy / attempted),
    }
    for key, value in _sim_metrics(wl, timed[0].outcomes).items():
        metrics[key] = _metric(key, value)

    wdoc: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "warmup_errors": warm_errors,
        "runs_per_pass": n_runs,
        "passes": len(timed),
        "metrics": metrics,
        "setup_s": {"raw": setup_raw, "scaled": setup_scaled},
        "pass_s": {
            "raw": [sum(p.raw) for p in timed],
            "scaled": [p.wall for p in timed],
        },
        "probe_s": {
            "n": len(clock.probes),
            "median": statistics.median(clock.probes),
            "min": min(clock.probes),
            "max": max(clock.probes),
        },
        "runs": {
            run.name: None
            if out is None
            else {
                "elapsed": out.elapsed,
                "messages": out.messages,
                "moves": out.moves,
                "lost": out.lost,
                "deaths": out.deaths,
                "dead_pids": list(out.dead_pids),
            }
            for run, out in zip(wl.runs, timed[0].outcomes)
        },
    }
    if traced is not None:
        wdoc.update(_trace_section(tracer, traced, timed[0]))
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return wdoc


def _trace_section(tracer, traced: Pass, untraced: Pass) -> dict[str, Any]:
    """Per-layer metrics, layer totals and per-run splits of a traced pass."""
    from layers import UNMEASURED, layer_metrics

    # Layer times are raw; scale them by the traced pass's probe correction.
    scale = traced.wall / sum(traced.raw)
    outcomes = [o for o in traced.outcomes if o is not None]
    return {
        "layer_metrics": layer_metrics(
            tracer, outcomes, scale, untraced.wall, traced.wall
        ),
        "layers": {
            layer: {"calls": c, "busy_s": b * scale, "self_s": s * scale}
            for layer, (c, b, s) in sorted(tracer.totals.items())
        },
        "trace": {
            "wrapped": tracer.wrapped,
            "unmeasured": UNMEASURED,
            "spans": len(tracer.spans),
            "runs": [
                {
                    "run": r["run"],
                    "wall_s": r["wall_s"],
                    "events": r["events"],
                    "self_s": {k: v[2] for k, v in r["layers"].items() if v[0]},
                }
                for r in tracer.runs
            ],
        },
    }


def host_info() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "probe_ref_s": PROBE_REF_S,
    }


def result_line(wdoc: dict[str, Any], bench: dict[str, Any], trace: bool) -> dict:
    """The summary line: BENCHMARK.json's metrics, each with its unit."""
    if trace:
        source = wdoc["layer_metrics"]
    else:
        source = {k: v["value"] for k, v in wdoc["metrics"].items()}
    metrics = {}
    correct = wdoc["correct"]
    for entry in bench["per_layer" if trace else "end_to_end"]:
        value = source.get(entry["name"])
        if value is None or not math.isfinite(value):
            correct = False
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": wdoc["attempted"],
        "failed": wdoc["failed"],
        "metrics": metrics,
    }


def _default_out(workload: str | None, seed: int, trace: bool) -> Path:
    return OUT_DIR / f"{workload or 'all'}-seed{seed}{'-trace' if trace else ''}.json"


def _print_table(name: str, wdoc: dict[str, Any]) -> None:
    print(
        f"# {name}: {wdoc['attempted']} runs attempted ({wdoc['runs_per_pass']} x "
        f"{wdoc['passes']} passes), {wdoc['failed']} failed an output check"
    )
    for key, m in wdoc["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:20s} {key:40s} {value:>14s} {m['unit']}")
    for key, value in wdoc.get("layer_metrics", {}).items():
        print(f"{name:20s} {key:40s} {value:>14.6g}")
    for msg in wdoc["problems"][:10]:
        print(f"  FAILED {msg}")


def run_one(args: argparse.Namespace, seconds: float, bench: dict) -> int:
    import_program()
    trace = bool(args.trace)
    out = (
        Path(args.json)
        if args.json
        else _default_out(args.workload, args.seed, trace)
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    wdoc = measure(
        args.workload,
        args.seed,
        seconds,
        args.passes,
        trace,
        out.with_suffix(".spans.jsonl") if trace else None,
    )
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "trace": trace,
        "seconds": seconds,
        "host": host_info(),
        "workloads": {args.workload: wdoc},
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    _print_table(args.workload, wdoc)
    line = result_line(wdoc, bench, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload in its own child process, one at a time."""
    trace = bool(args.trace)
    docs = []
    ok = True
    for name in WORKLOADS:
        part = _default_out(name, args.seed, trace)
        part.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--json", str(part),
        ]
        if args.passes:
            cmd += ["--passes", str(args.passes)]
        try:
            ok &= subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        if part.exists():
            docs.append(json.loads(part.read_text()))
        else:
            ok = False
    merged = dict(docs[0]) if docs else {"schema": SCHEMA, "seed": args.seed}
    merged["workloads"] = {k: v for d in docs for k, v in d["workloads"].items()}
    out = Path(args.json) if args.json else _default_out(None, args.seed, trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    wls = merged["workloads"].values()
    print(
        json.dumps(
            {
                "correct": ok and all(w["correct"] for w in wls),
                "attempted": sum(w["attempted"] for w in wls),
                "failed": sum(w["failed"] for w in wls),
                "json": str(out),
            }
        )
    )
    return 0 if ok else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: one untraced and one traced pass; report per-layer metrics",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="measurement time per workload (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--passes", type=int, help="fixed number of timed passes")
    parser.add_argument("--json", help="where to write the full result document")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload is None:
        return run_all(args, seconds)
    return run_one(args, seconds, bench)


if __name__ == "__main__":
    sys.exit(main())
