#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark documents.

    python3 benchmarks/e2e/compare.py A.json... -- B.json...

``A`` is the baseline (the parent commit), ``B`` the change; each file is
a document written by ``run.py --json``.  For every workload x metric the
medians and quartiles of both sides are printed, one row each, with a
verdict:

- exact metrics (from the deterministic simulation) are ``same`` when
  both sides read identically, else ``changed``; compare runs made with
  the same seeds, in the same order;
- host metrics are ``regressed`` when B's median is worse than A's by
  more than the metric's bound in BENCHMARK.json, ``unresolved`` when
  the spread (interquartile range / median) of A's own runs exceeds the
  bound and not every B run beats every A run, ``improved`` when there
  are at least ten pairs (A_i vs B_i), B wins at least 9 in 10 of them
  and the medians differ by more than A's interquartile range, and
  ``ok`` otherwise.

Exit status: 0 when no row is regressed, changed or unresolved; 1
otherwise; 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
FAILING = ("regressed", "changed", "unresolved")


def collect(paths: list[str]) -> tuple[dict, dict]:
    """``(workload, metric) -> [values]`` in file order, and metric meta."""
    values: dict[tuple[str, str], list[float]] = {}
    meta: dict[str, dict] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for workload, wdoc in doc["workloads"].items():
            for name, m in wdoc["metrics"].items():
                if m["value"] is None:
                    continue
                values.setdefault((workload, name), []).append(m["value"])
                meta[name] = m
    return values, meta


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(
    a: list[float], b: list[float], better: str, bound: float | None, exact: bool
) -> dict:
    """One row: quartiles, relative change (positive = worse), verdict."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if qa[1]:
        worse = sign * (qb[1] - qa[1]) / abs(qa[1])
    else:
        worse = 0.0 if qb[1] == qa[1] else sign * math.copysign(math.inf, qb[1])
    pairs = list(zip(a, b)) if len(a) == len(b) else []
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    row = {"a": qa, "b": qb, "worse": worse, "wins": wins, "pairs": len(pairs)}
    if exact or bound is None:
        same = a == b if pairs else sorted(a) == sorted(b)
        row["verdict"] = "same" if same else "changed"
        return row
    spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        row["verdict"] = "improved"
    else:
        row["verdict"] = "ok"
    return row


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = argv[:split], argv[split + 1 :]
    if not side_a or not side_b:
        print("error: need at least one document on each side of --", file=sys.stderr)
        return 2
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    a_vals, meta = collect(side_a)
    b_vals, meta_b = collect(side_b)
    meta = {**meta_b, **meta}
    failing = 0
    header = (
        f"{'workload':20s} {'metric':28s} {'unit':6s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'worse':>8s} {'bound':>6s} {'wins':>6s}  verdict"
    )
    print(header)
    for key in sorted(set(a_vals) | set(b_vals)):
        workload, name = key
        m = meta[name]
        a, b = a_vals.get(key), b_vals.get(key)
        if not a or not b:
            print(f"{workload:20s} {name:28s} missing on side {'A' if not a else 'B'}")
            failing += 1
            continue
        bound = bounds.get(name)
        row = compare(a, b, m["better"], bound, m["exact"])
        failing += row["verdict"] in FAILING
        wins = f"{row['wins']}/{row['pairs']}" if row["pairs"] else "-"
        print(
            f"{workload:20s} {name:28s} {m['unit']:6s} {_fmt(row['a']):>34s} "
            f"{_fmt(row['b']):>34s} {100 * row['worse'] + 0.0:7.2f}% "
            f"{'exact' if m['exact'] or bound is None else f'{bound:.2f}':>6s} "
            f"{wins:>6s}  {row['verdict']}"
        )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
