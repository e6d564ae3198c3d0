"""``repro orchestrate`` — operate journaled sweeps from the shell.

Subcommands::

    repro orchestrate run JOBS.json --state-dir DIR [--workers N]
    repro orchestrate status --state-dir DIR [--json]
    repro orchestrate resume --state-dir DIR [--workers N]
    repro orchestrate cancel --state-dir DIR [JOB_ID ...]
    repro orchestrate gc --state-dir DIR [--max-age-s S] [--max-entries N]

``JOBS.json`` is a list of job objects in :meth:`JobSpec.to_dict` shape
(``id``/``fn`` required; ``params``, ``priority``, ``timeout_s``,
``max_retries``, ``backoff_s`` optional).  ``run`` and ``resume`` exit 0
when every job succeeded (fresh or cached), 1 when any job ended
``failed``/``timeout``/``cancelled``, and 2 on operator error or
interruption — the same exit scheme as ``repro chaos``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from ..faults.selfchaos import SelfChaos
from .core import SweepResult, cancel_sweep, resume_sweep, submit_sweep, sweep_status
from .jobs import JobSpec
from .store import gc_state_dir

__all__ = ["main"]


def _load_jobs(path: str) -> list[JobSpec]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of job objects")
    return [JobSpec.from_dict(item) for item in data]


def _parse_chaos(text: str | None) -> SelfChaos | None:
    if text is None:
        return None
    chaos = SelfChaos.parse(text)
    return None if chaos.empty else chaos


def _print_outcome(result: SweepResult, json_out: str | None) -> int:
    doc = result.merged_doc()
    if json_out:
        Path(json_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    counts: dict[str, int] = {}
    for record in result.records:
        counts[record.state.value] = counts.get(record.state.value, 0) + 1
    summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"sweep {result.sweep_id}: {len(result.records)} jobs  {summary}")
    for record in result.failed_records():
        first_line = (record.error or "").strip().splitlines()
        detail = first_line[-1] if first_line else ""
        print(f"  {record.state.value:>9}  {record.spec.id}  {detail}")
    if result.interrupted:
        print("interrupted: partial results persisted; resume with "
              "`repro orchestrate resume`")
        return 2
    return 0 if result.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    jobs = _load_jobs(args.jobs)
    result = submit_sweep(
        jobs,
        state_dir=args.state_dir,
        workers=args.workers,
        chaos=_parse_chaos(args.self_chaos),
        mode=args.mode,
    )
    return _print_outcome(result, args.json)


def _cmd_resume(args: argparse.Namespace) -> int:
    result = resume_sweep(
        args.state_dir,
        workers=args.workers,
        chaos=_parse_chaos(args.self_chaos),
        mode=args.mode,
    )
    return _print_outcome(result, args.json)


def _cmd_status(args: argparse.Namespace) -> int:
    status = sweep_status(args.state_dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"sweep {status['sweep_id']}: {len(status['jobs'])} jobs  {summary}")
    if status["torn_records"]:
        print(f"  journal: {status['torn_records']} torn record(s) dropped")
    for job in status["jobs"]:
        cached = "  [cached]" if job["cached"] else ""
        print(f"  {job['state']:>9}  {job['id']}  attempts={job['attempts']}{cached}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    covered = cancel_sweep(args.state_dir, args.job_ids or None)
    scope = "all pending jobs" if not args.job_ids else f"{covered} job(s)"
    print(f"cancel recorded for {scope}; takes effect on next run/resume")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    stats = gc_state_dir(
        args.state_dir,
        max_age_s=args.max_age_s,
        max_entries=args.max_entries,
        keep_referenced=not args.drop_referenced,
    )
    print(
        f"gc: removed {stats['results_removed']} result(s), "
        f"compacted {stats['journal_dropped']} journal record(s)"
    )
    return 0


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, help="warm pool width (default 1)"
    )
    parser.add_argument(
        "--self-chaos",
        default=None,
        metavar="SPEC",
        help="inject orchestrator faults, e.g. 'kill-worker:2' or "
        "'kill-orchestrator:3'",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "inline", "pool"),
        default="auto",
        help="executor selection (default auto: inline iff workers=1)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the merged sweep document to PATH",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro orchestrate`` (and ``python -m`` use)."""
    parser = argparse.ArgumentParser(
        prog="repro orchestrate",
        description="operate crash-safe experiment sweeps",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a jobs JSON file")
    p_run.add_argument("jobs", help="JSON list of job specs")
    p_run.add_argument("--state-dir", default=None, help="journal + cache dir")
    _add_exec_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_res = sub.add_parser("resume", help="resume a journaled sweep")
    p_res.add_argument("--state-dir", required=True)
    _add_exec_flags(p_res)
    p_res.set_defaults(fn=_cmd_resume)

    p_stat = sub.add_parser("status", help="show a journaled sweep's state")
    p_stat.add_argument("--state-dir", required=True)
    p_stat.add_argument("--json", action="store_true", help="machine output")
    p_stat.set_defaults(fn=_cmd_status)

    p_cxl = sub.add_parser("cancel", help="cancel pending jobs")
    p_cxl.add_argument("--state-dir", required=True)
    p_cxl.add_argument("job_ids", nargs="*", help="default: every pending job")
    p_cxl.set_defaults(fn=_cmd_cancel)

    p_gc = sub.add_parser("gc", help="prune cached results, compact journal")
    p_gc.add_argument("--state-dir", required=True)
    p_gc.add_argument(
        "--max-age-s", type=float, default=None, help="evict results older than this"
    )
    p_gc.add_argument(
        "--max-entries", type=int, default=None, help="keep at most this many results"
    )
    p_gc.add_argument(
        "--drop-referenced",
        action="store_true",
        help="also evict results the journal still references",
    )
    p_gc.set_defaults(fn=_cmd_gc)

    args = parser.parse_args(list(argv) if argv is not None else sys.argv[1:])
    try:
        return int(args.fn(args))
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"repro orchestrate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the repro CLI
    sys.exit(main())
