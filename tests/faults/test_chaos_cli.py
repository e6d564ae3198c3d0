"""Chaos CLI (`repro chaos`) and `--faults` plumbing on run/trace."""

import json

import pytest

from repro.apps import build_matmul
from repro.cli import main
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.faults import load_plan
from repro.obs import Recorder, RunReport, event_to_dict
from repro.runtime import run_application


def test_chaos_matrix_matmul(capsys, tmp_path):
    out_json = tmp_path / "matrix.json"
    rc = main(
        [
            "chaos",
            "matmul",
            "-n",
            "32",
            "--slaves",
            "4",
            "--seed",
            "11",
            "--fault-seed",
            "5",
            "--plans",
            "message-light",
            "one-crash",
            "--json",
            str(out_json),
            "--reports",
            str(tmp_path / "reports"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "identical" in out and "recovered" in out
    matrix = json.loads(out_json.read_text())
    assert matrix["ok"] is True
    outcomes = {
        (c["app"], c["plan"]): c["outcome"] for c in matrix["cells"]
    }
    assert outcomes[("matmul", "message-light")] == "identical"
    assert outcomes[("matmul", "one-crash")] == "recovered"
    report_files = sorted((tmp_path / "reports").glob("*.json"))
    assert report_files
    report = RunReport.load(report_files[0])
    assert report.name == "matmul"


def test_chaos_unknown_plan_rejected(capsys):
    rc = main(["chaos", "matmul", "-n", "32", "--plans", "kaboom"])
    assert rc == 2
    assert "'kaboom' is neither" in capsys.readouterr().out


# Crash pids per app: the first and last level-1 sub-master of a 16-leaf
# fanout-4 tree; an early and the last of 8 strategy workers.
@pytest.mark.parametrize(
    "control, argv, pids, plane_fields",
    [
        (
            "hier",
            ["matmul", "adaptive", "--fanout", "4", "--slaves", "16"],
            [16, 19] * 2,
            {"deaths": 1, "reparents": 4, "bit_identical": True},
        ),
        (
            "stealing",
            ["matmul", "adaptive", "particle", "--slaves", "8"],
            [1, 7] * 3,
            {"result_matches_baseline": True},
        ),
        (
            "rdlb",
            ["matmul", "adaptive", "particle", "--slaves", "8"],
            [1, 7] * 3,
            {"result_matches_baseline": True},
        ),
    ],
)
def test_chaos_crash_controls(control, argv, pids, plane_fields, capsys, tmp_path):
    out_json = tmp_path / f"chaos-{control}.json"
    rc = main(
        ["chaos", *argv, "--control", control, "-n", "48", "--seed", "11",
         "--json", str(out_json)]
    )
    assert rc == 0
    assert "recovered" in capsys.readouterr().out
    doc = json.loads(out_json.read_text())
    assert doc["ok"] is True and doc["control"] == control
    assert [c["crash_pid"] for c in doc["cells"]] == pids
    for cell in doc["cells"]:
        assert cell["outcome"] == "recovered", cell
        assert cell["dead_pids"] == [cell["crash_pid"]]
        for key, value in plane_fields.items():
            assert cell[key] == value, (key, cell)


def test_chaos_crash_control_skips_pipeline(capsys):
    rc = main(["chaos", "sor", "--control", "rdlb"])
    assert rc == 0
    assert "skipped (PIPELINE)" in capsys.readouterr().out


def test_chaos_hier_rejects_flat_tree():
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "matmul", "--control", "hier", "--slaves", "4",
              "--fanout", "4"])
    assert exc.value.code == (
        "chaos: --slaves 4 with --fanout 4 builds a flat tree (no "
        "sub-masters to crash); use more slaves or a smaller fanout"
    )


def test_run_with_faults_flag(capsys):
    rc = main(
        [
            "run",
            "matmul",
            "-n",
            "32",
            "--slaves",
            "4",
            "--faults",
            "message-light",
            "--fault-seed",
            "5",
            "--speed",
            "1e6",
        ]
    )
    assert rc == 0
    assert "faults[message-light]:" in capsys.readouterr().out


def test_faults_none_reproduces_fault_free_trace_byte_for_byte():
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=1e6))
    )
    plan = build_matmul(n=32)

    def observed_run(faults):
        recorder = Recorder()
        res = run_application(plan, cfg, seed=11, faults=faults, recorder=recorder)
        return res, [event_to_dict(e) for e in recorder.log.events()]

    base_res, base_events = observed_run(None)
    none_res, none_events = observed_run(load_plan("none", seed=5))
    assert none_events == base_events
    assert none_res.elapsed == base_res.elapsed
    assert none_res.retransmits == 0 and none_res.dead_pids == ()
