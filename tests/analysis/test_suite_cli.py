"""Suite orchestration + ``repro check`` CLI tests."""

import json

import pytest

from repro.analysis import check_suite
from repro.apps import REGISTRY
from repro.cli import main
from repro.config import ClusterSpec, RunConfig


class TestCheckSuite:
    def test_full_suite_on_sor_is_clean(self):
        plan = REGISTRY["sor"](n=16, n_slaves_hint=2)
        cfg = RunConfig(
            cluster=ClusterSpec(n_slaves=2),
            execute_numerics=False,
            dlb_enabled=True,
        )
        res = check_suite(plan, cfg)
        assert res.ok, res.describe()

    def test_static_only_when_no_cfg(self):
        plan = REGISTRY["matmul"](n=12, n_slaves_hint=2)
        res = check_suite(plan, None, protocol=False)
        assert res.ok
        # No replay pass ran => no RA5xx findings (not even the vacuity
        # warning, since the pass was skipped, not starved).
        assert not [d for d in res if d.code.startswith("RA5")]


class TestCheckCli:
    def test_all_apps_static_passes(self, capsys):
        rc = main(["check", "--no-replay"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_single_app_with_replay(self, capsys):
        rc = main(["check", "matmul", "-n", "12", "--slaves", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "matmul[dlb=on]" in out and "matmul[dlb=off]" in out

    def test_broken_halo_fixture_fails_with_ra202(self, capsys):
        rc = main(
            [
                "check",
                "--no-replay",
                "--plan-factory",
                "tests.analysis.fixtures.broken_plans:sor_without_halo",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RA202" in out and "halo" in out

    def test_unrestricted_fixture_fails_with_ra301(self, capsys):
        rc = main(
            [
                "check",
                "--no-replay",
                "--plan-factory",
                "tests.analysis.fixtures.broken_plans:sor_unrestricted_movement",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RA301" in out

    def test_json_output_structure(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        rc = main(["check", "sor", "--no-replay", "--json", str(path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        subjects = {s["subject"] for s in doc["subjects"]}
        assert "sor" in subjects
        for s in doc["subjects"]:
            assert set(s["counts"]) == {"error", "warning", "info"}

    @pytest.mark.parametrize(
        "flags, lints",
        [
            (["--hier"], ["hier-protocol[sc.*]"]),
            (["--steal"], ["steal-protocol[st.*]", "robust-protocol[rb.*]"]),
            (
                ["--hier", "--steal"],
                [
                    "hier-protocol[sc.*]",
                    "steal-protocol[st.*]",
                    "robust-protocol[rb.*]",
                ],
            ),
        ],
    )
    def test_plane_protocol_lints(self, flags, lints, tmp_path, capsys):
        path = tmp_path / "check.json"
        rc = main(["check", "matmul", "--no-replay", *flags, "--json", str(path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(path.read_text())
        assert [s["subject"] for s in doc["subjects"]] == [*lints, "matmul"]

    def test_events_replay_from_file(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        rc = main(
            [
                "trace",
                "matmul",
                "-n",
                "12",
                "--slaves",
                "2",
                "--events",
                str(events),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["check", "--events", str(events)])
        out = capsys.readouterr().out
        assert rc == 0
        assert str(events) in out

    def test_unknown_app_rejected(self, capsys):
        try:
            rc = main(["check", "nosuch", "--no-replay"])
        except SystemExit as e:
            rc = 2 if e.code is None else e.code
        assert rc != 0
