"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run

run.import_program()
import workloads  # noqa: E402  (needs the program on the path)

BENCH = run.load_benchmark()


@pytest.fixture(scope="module")
def docs():
    """One untraced and one traced single-pass document per workload."""
    saved, run.SETUP_REPEATS = run.SETUP_REPEATS, 1
    try:
        yield {
            (name, trace): run.measure(name, seed=0, seconds=0, passes=1, trace=trace)
            for name in run.WORKLOADS
            for trace in (False, True)
        }
    finally:
        run.SETUP_REPEATS = saved


def test_workload_names_match_benchmark():
    assert run.WORKLOADS == tuple(w["name"] for w in BENCH["workloads"])
    assert set(run.WORKLOADS) == set(workloads._BUILDERS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted_with_its_unit(docs, trace):
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    for name in run.WORKLOADS:
        wdoc = docs[name, trace]
        assert wdoc["correct"], wdoc["problems"]
        line = run.result_line(wdoc, BENCH, trace)
        assert line["correct"]
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        }
        assert len(wdoc["metrics"]) == len(run.METRICS)
    for m in BENCH["end_to_end"]:
        assert run.METRICS[m["name"]][:2] == (m["unit"], m["better"])


def test_traced_self_times_sum_to_run_wall_time(docs):
    import repro.runtime.balancer as balancer
    import repro.runtime.master as master
    import repro.sim.machine as machine

    for name in run.WORKLOADS:
        runs = docs[name, True]["trace"]["runs"]
        assert len(runs) == len(workloads.build(name, 0).runs)
        for r in runs:
            assert sum(r["self_s"].values()) == pytest.approx(r["wall_s"], rel=0.05)
    # every wrapped binding is restored after the traced pass
    assert master.decide is balancer.decide
    assert machine.Cluster.spawn.__module__ == "repro.sim.machine"
    assert "spawn" in vars(machine.Cluster)


def test_perturbed_kernel_is_counted_as_failed(monkeypatch):
    from repro.apps.matmul import MatmulKernels

    original = MatmulKernels.merge_results

    def perturbed(self, global_state, parts):
        C = original(self, global_state, parts)
        C[0, 0] += 1e-6
        return C

    monkeypatch.setattr(MatmulKernels, "merge_results", perturbed)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    wdoc = run.measure("numerics_verified", seed=0, seconds=0, passes=1, trace=False)
    assert wdoc["failed"] == 2  # the dedicated and the loaded MM run
    assert all(p.startswith("pass 1 mm-") for p in wdoc["problems"])
    assert not run.result_line(wdoc, BENCH, False)["correct"]


def _cli(tmp_path: Path, tag: str) -> tuple[dict, dict]:
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "strategy_irregular",
         "--seed", "1", "--passes", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_two_single_pass_invocations_give_identical_exact_metrics(tmp_path):
    (line_a, doc_a), (line_b, doc_b) = _cli(tmp_path, "a"), _cli(tmp_path, "b")
    assert line_a["correct"] and line_a["attempted"] == line_b["attempted"] > 0
    ma = doc_a["workloads"]["strategy_irregular"]["metrics"]
    mb = doc_b["workloads"]["strategy_irregular"]["metrics"]
    for name, (_unit, _better, exact) in run.METRICS.items():
        if exact:
            assert ma[name]["value"] == mb[name]["value"], name
    assert doc_a["workloads"]["strategy_irregular"]["runs"] == (
        doc_b["workloads"]["strategy_irregular"]["runs"]
    )


def test_fails_without_the_program_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        Path(run.__file__).parent,
        bench_dir,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hier_p256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    row = compare.compare([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.1, False)
    assert row["verdict"] == "regressed"
    row = compare.compare([1.0, 2.0, 1.0, 2.0], [1.5] * 4, "lower", 0.1, False)
    assert row["verdict"] == "unresolved"
    row = compare.compare([1.0] * 10, [0.8] * 10, "lower", 0.1, False)
    assert row["verdict"] == "improved" and row["wins"] == 10
    row = compare.compare([2.0, 3.0], [2.0, 3.0], "higher", None, True)
    assert row["verdict"] == "same"
    assert compare.compare([2.0], [2.5], "higher", 0.05, True)["verdict"] == "changed"
