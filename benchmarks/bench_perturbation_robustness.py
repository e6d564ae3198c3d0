"""Perturbation robustness — when do the robust strategies beat ``rate``?

Races the paper's rate-filtered redistribution (``rate``) against work
stealing and rDLB robust self-scheduling at P=16, over three unit-cost
distributions x three competing-load regimes (one of them a recorded
machine-room trace).  Each strategy is scored by its degradation against
the perfect-knowledge oracle makespan.  The table prints makespans and
degradation per cell, with the robustness analysis as note lines; the
JSON keeps full-precision makespans, message counts, degradation and the
analysis.  Both are exact outputs of the simulation.  About 0.2 s.
"""

from _util import once, save_json, save_table

from repro.experiments.common import ExperimentSeries
from repro.strategies.robustness import (
    CELL_STRATEGIES,
    P,
    PERTURBATION_REGIMES,
    WORKLOADS,
    cell_perturbation,
    robustness_analysis,
)


def _run():
    cells = [
        cell_perturbation(workload, regime)
        for workload in WORKLOADS
        for regime in PERTURBATION_REGIMES
    ]
    return cells, robustness_analysis(cells)


def _series(cells, analysis):
    series = ExperimentSeries(
        name=(
            "Perturbation robustness: makespan (s) and degradation vs oracle "
            f"(%), P={P}"
        ),
        headers=(
            "workload", "regime", "oracle",
            *CELL_STRATEGIES, *(f"{s}_pct" for s in CELL_STRATEGIES), "winner",
        ),
        expected=(
            "the robust strategies complement rate-filtered redistribution: "
            "each beats rate on some cells and loses on others"
        ),
    )
    for cell in cells:
        series.add(
            cell["workload"], cell["regime"], cell["oracle_makespan"],
            *(cell["makespans"][s] for s in CELL_STRATEGIES),
            *(100.0 * cell["degradation"][s] for s in CELL_STRATEGIES),
            cell["winner"],
        )
    for strategy, entry in analysis["strategies"].items():
        series.notes.append(
            f"{strategy} beats rate on {', '.join(entry['beats_rate']) or 'none'}; "
            f"loses on {', '.join(entry['loses_to_rate']) or 'none'}"
            + ("; complementary" if entry["complementary"] else "")
        )
    return series


def test_perturbation_robustness(benchmark):
    cells, analysis = once(benchmark, _run)
    save_table("perturbation_robustness", _series(cells, analysis).format_table())
    save_json("perturbation_robustness", {"cells": cells, "robustness": analysis})

    assert len(cells) == len(WORKLOADS) * len(PERTURBATION_REGIMES)
    for cell in cells:
        for strategy, makespan in cell["makespans"].items():
            assert makespan >= 0.99 * cell["oracle_makespan"], (cell, strategy)
    assert all(entry["complementary"] for entry in analysis["strategies"].values())
