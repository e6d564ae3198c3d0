"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures on the
simulated cluster, asserts the paper's qualitative shape (who wins, by
roughly what factor, where crossovers fall), prints the series in the
paper's reporting style, and archives it under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_table(name: str, text: str) -> None:
    """Print and archive a rendered experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def save_json(name: str, data: dict) -> None:
    """Archive a machine-readable result next to the rendered table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )


def save_series(name: str, series) -> None:
    """Archive an ``ExperimentSeries`` both ways: the rendered ``.txt``
    table (3 decimals) and its full-precision ``to_dict()`` as ``.json``,
    so a simulated change smaller than the table's rounding still shows
    as a diff."""
    save_table(name, series.format_table())
    save_json(name, series.to_dict())


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
