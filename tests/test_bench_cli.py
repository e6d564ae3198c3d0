"""``repro bench`` CLI coverage: suite selection, document schema,
and the baseline regression gate's exit codes.

Cells are monkeypatched down to trivial sizes where possible so these
tests exercise the harness plumbing, not simulator wall time.
"""

import json
from pathlib import Path

import pytest

from repro.bench import SCHEMA_VERSION, SUITES, compare_docs, main, validate_doc
from repro.bench.harness import run_suite
from repro.cli import main as cli_main

BASELINE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "results"
    / "BENCH_baseline.json"
)

TINY_SUITE = [
    {"name": "pingpong", "cell": "pingpong", "params": {"n_messages": 50}},
    {"name": "compute_loop", "cell": "compute_loop", "params": {"n_chunks": 50}},
]


@pytest.fixture()
def tiny_suites(monkeypatch):
    monkeypatch.setitem(SUITES, "tiny", TINY_SUITE)
    return "tiny"


def test_list_exits_zero_and_names_every_suite(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out


def test_unknown_suite_is_usage_error(capsys):
    assert main(["--suite", "no-such-suite"]) == 2
    assert "unknown suite" in capsys.readouterr().out


def test_run_suite_document_matches_schema(tiny_suites):
    doc = run_suite(tiny_suites, workers=1)
    assert doc["schema"] == SCHEMA_VERSION
    assert validate_doc(doc) == []
    assert [c["name"] for c in doc["cells"]] == ["pingpong", "compute_loop"]
    for cell in doc["cells"]:
        assert cell["suite"] == tiny_suites
        assert cell["metrics"]["wall_s"] > 0
        assert cell["metrics"]["events_per_sec"] > 0


def test_cli_delegates_bench_subcommand(tiny_suites, capsys, tmp_path):
    out_path = tmp_path / "BENCH_run.json"
    rc = cli_main(["bench", "--suite", tiny_suites, "--json", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert validate_doc(doc) == []
    assert doc["suite"] == tiny_suites


def test_gate_passes_against_no_faster_baseline(tiny_suites, tmp_path, capsys):
    # The tiny cells finish in milliseconds, so two back-to-back wall
    # measurements can differ by more than the 25% threshold on a loaded
    # machine.  Doctor the baseline with generous headroom (the mirror
    # of the synthetic-regression test below) so the pass path is
    # deterministic; exact threshold arithmetic is pinned by the
    # compare_docs unit test further down.
    base_path = tmp_path / "base.json"
    args = ["--suite", tiny_suites, "--workers", "1"]
    assert main([*args, "--json", str(base_path)]) == 0
    doc = json.loads(base_path.read_text())
    for cell in doc["cells"]:
        cell["metrics"]["wall_s"] *= 10.0
        cell["metrics"]["events_per_sec"] /= 10.0
    base_path.write_text(json.dumps(doc))
    rc = main([*args, "--baseline", str(base_path)])
    assert rc == 0
    assert "baseline gate" in capsys.readouterr().out


def test_gate_fails_on_synthetic_regression(tiny_suites, tmp_path, capsys):
    # Doctor the baseline so it claims the code used to be far faster:
    # the current run then regresses >25% on every throughput metric
    # and the CLI must exit 1.
    base_path = tmp_path / "base.json"
    args = ["--suite", tiny_suites, "--workers", "1"]
    assert main([*args, "--json", str(base_path)]) == 0
    doc = json.loads(base_path.read_text())
    for cell in doc["cells"]:
        cell["metrics"]["wall_s"] /= 10.0
        cell["metrics"]["events_per_sec"] *= 10.0
    base_path.write_text(json.dumps(doc))
    rc = main([*args, "--baseline", str(base_path)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_missing_or_invalid_baseline_is_usage_error(tiny_suites, tmp_path, capsys):
    assert main(["--suite", tiny_suites, "--baseline", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "wrong/0"}))
    assert main(["--suite", tiny_suites, "--baseline", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "invalid baseline" in out


def test_validate_doc_reports_specific_problems():
    assert validate_doc("nope") == ["document is not a JSON object"]
    doc = {
        "schema": SCHEMA_VERSION,
        "suite": "s",
        "calibration_s": 0.01,
        "host": {},
        "cells": [{"suite": "s", "name": "c", "metrics": {"wall_s": "slow"}}],
    }
    problems = validate_doc(doc)
    assert any("wall_s" in p for p in problems)


def test_compare_docs_normalizes_by_calibration():
    cell = {
        "suite": "s",
        "name": "c",
        "metrics": {"wall_s": 2.0, "events_per_sec": 100.0},
        "meta": {"sim_elapsed": 1.0},
    }
    baseline = {"calibration_s": 0.01, "cells": [cell]}
    # Current host is 2x slower (calibration 0.02) and the cell took 2x
    # the wall time: normalized, that is *no* regression.
    current = {
        "calibration_s": 0.02,
        "cells": [
            {
                "suite": "s",
                "name": "c",
                "metrics": {"wall_s": 4.0, "events_per_sec": 50.0},
                "meta": {"sim_elapsed": 1.0},
            }
        ],
    }
    cmp_doc = compare_docs(current, baseline, threshold=0.25)
    assert cmp_doc["ok"], cmp_doc
    assert cmp_doc["warnings"] == []
    for row in cmp_doc["rows"]:
        assert row["speedup_vs_baseline"] == pytest.approx(1.0)


def test_compare_docs_warns_on_sim_elapsed_drift():
    base_cell = {
        "suite": "s",
        "name": "c",
        "metrics": {"wall_s": 1.0},
        "meta": {"sim_elapsed": 1.0},
    }
    cur_cell = {
        "suite": "s",
        "name": "c",
        "metrics": {"wall_s": 1.0},
        "meta": {"sim_elapsed": 2.0},
    }
    cmp_doc = compare_docs(
        {"calibration_s": 0.01, "cells": [cur_cell]},
        {"calibration_s": 0.01, "cells": [base_cell]},
    )
    assert cmp_doc["ok"]
    assert any("drifted" in w for w in cmp_doc["warnings"])


@pytest.mark.parametrize("name", ["perturb_pareto_spike", "sor_loaded_pair"])
def test_committed_baseline_matches_simulated_outcome(name):
    # The CI bench job warns on any sim_elapsed drift; the committed
    # baseline must record what the code actually simulates.
    from repro.bench.workloads import run_cell

    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    (row,) = [
        c for c in baseline["cells"] if c["suite"] == "ci-smoke" and c["name"] == name
    ]
    (spec,) = [s for s in SUITES["ci-smoke"] if s["name"] == name]
    out = run_cell({**spec, "suite": "ci-smoke"})
    assert out["meta"]["sim_elapsed"] == row["meta"]["sim_elapsed"]


TINY_SCALING_SUITE = [
    {
        "name": f"P{P}_constant",
        "cell": "scaling",
        "params": {
            "P": P,
            "regime": "constant",
            "fanouts": [4],
            "units_per_leaf": 4,
            "ops_per_unit": 5e4,
        },
    }
    for P in (4, 8)
] + [
    {
        "name": "topo_ring_P4",
        "cell": "scaling",
        "params": {
            "P": 4,
            "regime": "constant",
            "fanouts": [4],
            "units_per_leaf": 4,
            "ops_per_unit": 5e4,
            "topology": "ring",
        },
    }
]


@pytest.fixture()
def tiny_scaling(monkeypatch):
    monkeypatch.setitem(SUITES, "tiny-scaling", TINY_SCALING_SUITE)
    return "tiny-scaling"


def test_scaling_crossover_suite_is_registered():
    assert "scaling_crossover" in SUITES
    cells = SUITES["scaling_crossover"]
    assert {c["params"]["P"] for c in cells} >= {8, 256, 1024}
    regimes = {c["params"]["regime"] for c in cells}
    assert regimes == {"constant", "oscillating", "trace"}
    topologies = {c["params"].get("topology") for c in cells}
    assert topologies >= {"ring", "mesh2d", "fat_tree", "two_cluster"}


def test_scaling_doc_carries_crossover_analysis(tiny_scaling):
    doc = run_suite(tiny_scaling, workers=1)
    assert validate_doc(doc) == []
    analysis = doc["crossover"]
    assert analysis["schema"] == "repro-crossover/1"
    points = analysis["regimes"]["constant"]["points"]
    assert [p["P"] for p in points] == [4, 8]  # topology cell excluded


def test_max_p_filters_cells(tiny_scaling):
    doc = run_suite(tiny_scaling, workers=1, max_p=4)
    assert {c["params"]["P"] for c in doc["cells"]} == {4}
    assert doc["max_p"] == 4


def test_topologies_filter_keeps_named_interconnects(tiny_scaling):
    doc = run_suite(tiny_scaling, workers=1, topologies=["ring"])
    assert [c["name"] for c in doc["cells"]] == ["topo_ring_P4"]
    doc = run_suite(tiny_scaling, workers=1, topologies=["crossbar"])
    assert [c["name"] for c in doc["cells"]] == ["P4_constant", "P8_constant"]


def test_filtering_everything_is_usage_error(tiny_scaling, capsys):
    rc = main(["--suite", tiny_scaling, "--max-p", "2"])
    assert rc == 2
    assert "filtered out" in capsys.readouterr().out


def test_csv_report_has_one_row_per_mode(tiny_scaling, tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    rc = main(
        ["--suite", tiny_scaling, "--max-p", "4", "--topologies", "crossbar",
         "--csv", str(csv_path)]
    )
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert {"mode", "sim_makespan_s", "P", "regime"} <= set(header)
    modes = {line.split(",")[header.index("mode")] for line in lines[1:]}
    assert modes == {"centralized", "hier4", "diffusion"}


def test_cli_flags_reach_the_harness(tiny_scaling, tmp_path):
    out_path = tmp_path / "run.json"
    rc = cli_main(
        ["bench", "--suite", tiny_scaling, "--max-p", "4",
         "--json", str(out_path)]
    )
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert {c["params"]["P"] for c in doc["cells"]} == {4}


# -- failed cells degrade the document, not the run ----------------------

BROKEN_SUITE = [
    {"name": "ok", "cell": "pingpong", "params": {"n_messages": 50}},
    {"name": "broken", "cell": "no-such-cell", "params": {}},
]


@pytest.fixture()
def broken_suite(monkeypatch):
    monkeypatch.setitem(SUITES, "tiny-broken", BROKEN_SUITE)
    return "tiny-broken"


def test_failed_cell_lands_in_doc_with_traceback(broken_suite):
    doc = run_suite(broken_suite, workers=1)
    assert validate_doc(doc) == []
    by_name = {c["name"]: c for c in doc["cells"]}
    assert by_name["ok"].get("status") is None
    bad = by_name["broken"]
    assert bad["status"] == "failed"
    assert "KeyError" in bad["error"]
    assert bad["metrics"] == {}


def test_failed_cell_exits_1_and_names_the_cell(broken_suite, tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    rc = main(["--suite", broken_suite, "--json", str(out_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "did not complete" in out
    assert "tiny-broken/broken" in out
    doc = json.loads(out_path.read_text())
    assert {c["name"] for c in doc["cells"]} == {"ok", "broken"}


def test_bench_state_dir_rerun_is_zero_work(tiny_suites, tmp_path):
    state = tmp_path / "state"
    first = run_suite(tiny_suites, workers=1, state_dir=state)
    again = run_suite(tiny_suites, workers=1, state_dir=state)
    assert again["sweep"]["stats"]["resumed"] == len(first["cells"])
    assert [c["metrics"] for c in again["cells"]] == [
        c["metrics"] for c in first["cells"]
    ]
