"""CLI smoke tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, SlaveCrash
from repro.obs import EventLog, RunReport


def test_run_matmul(capsys):
    rc = main(["run", "matmul", "-n", "60", "--slaves", "2", "--speed", "1e6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "eff=" in out


def test_run_with_load_and_no_dlb(capsys):
    rc = main(
        [
            "run",
            "lu",
            "-n",
            "60",
            "--load-slave",
            "0",
            "--load-tasks",
            "2",
            "--no-dlb",
        ]
    )
    assert rc == 0
    assert "moves=0" in capsys.readouterr().out


def test_run_numerics(capsys):
    rc = main(["run", "sor", "-n", "24", "--numerics", "--speed", "1e6"])
    assert rc == 0
    assert "sor" in capsys.readouterr().out


def test_run_synchronous_oscillating(capsys):
    rc = main(
        [
            "run",
            "matmul",
            "-n",
            "60",
            "--synchronous",
            "--load-slave",
            "1",
            "--oscillating",
            "--speed",
            "2e5",
        ]
    )
    assert rc == 0


def test_run_strategy_clean(capsys):
    rc = main(
        ["run", "matmul", "-n", "500", "--slaves", "4", "--strategy", "factoring"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # No faults, deaths or lost units: no faults line.
    assert "[factoring]" in out and "faults[" not in out


def test_run_strategy_rejects_non_parallel_map(capsys):
    rc = main(["run", "lu", "-n", "40", "--strategy", "rdlb"])
    assert rc == 2
    assert "PARALLEL_MAP" in capsys.readouterr().out


def _all_crash_plan(tmp_path):
    plan_path = tmp_path / "all-crash.json"
    FaultPlan(
        name="all-crash",
        crashes=tuple(SlaveCrash(pid=p, at_fraction=0.3) for p in range(2)),
    ).save(plan_path)
    return str(plan_path)


def test_run_strategy_stealing_all_crash_exit_1(capsys, tmp_path):
    rc = main(
        [
            "run", "matmul", "-n", "64", "--slaves", "2",
            "--strategy", "stealing", "--faults", _all_crash_plan(tmp_path),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("run: ") and "st.report" in out


def test_run_strategy_stealing_recovers_a_crash(capsys):
    rc = main(["run", "particle", "--strategy", "stealing", "--faults", "one-crash"])
    assert rc == 0
    assert "faults[one-crash]: dead=[1]" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "trace"])
def test_bad_faults_value_exit_2(capsys, command):
    rc = main([command, "matmul", "-n", "32", "--faults", "crash:3@40"])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{command}: ") and "crash:3@40" in out


def test_run_strategy_rdlb_all_crash_exit_1(capsys, tmp_path):
    rc = main(
        [
            "run", "matmul", "-n", "64", "--slaves", "2",
            "--strategy", "rdlb", "--faults", _all_crash_plan(tmp_path),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("run: ") and "rb.request" in out


def test_source_listing(capsys):
    rc = main(["source", "sor", "-n", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline" in out
    assert "lbhook" in out


def test_features(capsys):
    rc = main(["features"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "matches paper Table 1: True" in out


def test_figures_single(capsys):
    rc = main(["figures", "fig4"])
    assert rc == 0
    assert "period selection" in capsys.readouterr().out


def test_figures_unknown(capsys):
    rc = main(["figures", "nope"])
    assert rc == 2


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "unknown-app"])


def test_trace_writes_report_and_events(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    events_path = tmp_path / "events.jsonl"
    rc = main(
        [
            "trace",
            "matmul",
            "-n",
            "60",
            "--slaves",
            "2",
            "--json",
            str(report_path),
            "--events",
            str(events_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "run report: matmul" in out
    report = RunReport.load(report_path)
    assert report.n_slaves == 2
    assert report.slaves["0"]["raw_rate"]
    log = EventLog.load(events_path)
    assert len(log) > 0
    assert "cpu" in log.categories()


def test_trace_inspect_round_trip(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["trace", "sor", "-n", "24", "--json", str(report_path)]) == 0
    capsys.readouterr()
    rc = main(["trace", "--inspect", str(report_path)])
    assert rc == 0
    assert "run report: sor" in capsys.readouterr().out


def test_trace_requires_app_without_inspect(capsys):
    rc = main(["trace"])
    assert rc == 2
    assert "required" in capsys.readouterr().out


def test_figures_json_export(capsys, tmp_path):
    rc = main(["figures", "fig4", "--json", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "fig4.json").read_text())
    assert data["name"].startswith("Figure 4")
    assert data["headers"][0] == "interaction_cost"
    assert len(data["rows"]) == 5
