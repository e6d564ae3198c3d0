"""RunReport: construction, round-trips, and golden-file stability.

The golden file pins the full report of a tiny deterministic MM run.
Regenerate it (after an intentional change to the report schema or the
simulation) with::

    PYTHONPATH=src python -m tests.obs.generate_golden
"""

import json
import pathlib

import pytest

from repro.apps.matmul import build_matmul
from repro.experiments.common import run_point
from repro.obs import Recorder, RunReport
from repro.sim import ConstantLoad, OscillatingLoad

GOLDEN = pathlib.Path(__file__).parent / "golden" / "mm_tiny_report.json"

REL_TOL = 1e-9


def tiny_mm_report() -> RunReport:
    """The pinned scenario: 40x40 MM, 3 slaves, slave 1 loaded."""
    plan = build_matmul(n=40, reps=2, n_slaves_hint=3)
    recorder = Recorder()
    res = run_point(
        plan,
        3,
        loads={1: ConstantLoad(k=1)},
        seed=0,
        recorder=recorder,
    )
    return res.make_report()


def assert_json_close(actual, expected, path="$"):
    """Recursive equality with relative tolerance on floats."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        assert actual == pytest.approx(expected, rel=REL_TOL, abs=1e-12), path
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            assert_json_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, f"{path}[{i}]")
    else:
        assert actual == expected, path


def test_tiny_mm_report_matches_golden():
    report = tiny_mm_report()
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with "
        "`PYTHONPATH=src python -m tests.obs.generate_golden`"
    )
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert_json_close(report.to_dict(), expected)


def test_report_json_round_trip(tmp_path):
    report = tiny_mm_report()
    path = tmp_path / "report.json"
    report.save(path)
    again = RunReport.load(path)
    assert again.to_dict() == report.to_dict()
    assert again.schema == report.schema


def test_report_rejects_wrong_schema():
    data = tiny_mm_report().to_dict()
    data["schema"] = "something/else"
    with pytest.raises(ValueError):
        RunReport.from_dict(data)


def test_describe_mentions_key_sections():
    text = tiny_mm_report().describe()
    assert "slaves" in text
    assert "overhead" in text


def test_loaded_fig9_report_has_timelines_and_overhead():
    """Acceptance check: a loaded-mode oscillating run (reduced Figure 9)
    produces per-slave rate timelines and a DLB overhead breakdown."""
    plan = build_matmul(n=120, reps=3, n_slaves_hint=4)
    recorder = Recorder()
    res = run_point(
        plan,
        4,
        loads={0: OscillatingLoad(k=1, period=5.0, duration=2.5)},
        seed=0,
        recorder=recorder,
    )
    report = res.make_report()

    assert report.n_slaves == 4
    assert sorted(report.slaves) == ["0", "1", "2", "3"]
    for pid, slave in report.slaves.items():
        for channel in ("raw_rate", "adjusted_rate", "work"):
            timeline = slave[channel]
            assert timeline, f"slave {pid} missing {channel} timeline"
            times = [t for t, _ in timeline]
            assert times == sorted(times)
        assert slave["elapsed_s"] > 0
        assert slave["app_cpu_s"] > 0
    # The loaded slave saw competing CPU; the others did not.
    assert report.slaves["0"]["competing_cpu_s"] > 0
    assert report.slaves["1"]["competing_cpu_s"] == 0

    # Imbalance timeline: (t, max/mean) pairs, time-ordered, ratios >= 1.
    assert report.imbalance
    assert all(ratio >= 1.0 for _, ratio in report.imbalance)
    times = [t for t, _ in report.imbalance]
    assert times == sorted(times)

    # Overhead breakdown mirrors the paper's Table 2 categories.
    inter = report.overhead["interaction"]
    move = report.overhead["movement"]
    assert inter["status_msgs"] > 0
    assert inter["instr_msgs"] > 0
    assert inter["est_cpu_s"] > 0
    assert move["move_msgs"] > 0
    assert move["units_sent"] > 0
    assert move["move_bytes"] > 0
    assert move["sends"] > 0 and move["recvs"] > 0
    assert report.overhead["balance_latency_s"]["count"] > 0
    assert report.overhead["idle"]["total_s"] >= 0
    assert report.metrics["counters"]["lb.reports"] > 0
    assert report.event_counts["rate"] > 0
