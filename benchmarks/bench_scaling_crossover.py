"""Scaling crossover — where does the central master lose?

Races the flat tree (one root: the paper's single-master shape), sub-master
trees at each fanout in ``FANOUTS`` and neighbour diffusion over a
weak-scaled synthetic bag, at P = 8 to 1024 under three competing-load
regimes, plus four P=64 cells on the non-crossbar interconnects.  The
table prints every cell's simulated makespans, with the crossover
analysis as note lines; the JSON keeps full-precision makespans, message
counts and the analysis.  Both are exact outputs of the simulation.
About 7 s, most of it the P=1024 cells.
"""

from _util import once, save_json, save_table

from repro.experiments.common import ExperimentSeries
from repro.scale.crossover import FANOUTS, REGIMES, cell_scaling, crossover_analysis

PS = (8, 32, 64, 128, 256, 512, 1024)
TOPOLOGIES = ("ring", "mesh2d", "fat_tree", "two_cluster")
MODES = ("centralized", *(f"hier{fanout}" for fanout in FANOUTS), "diffusion")


def _run():
    cells = [cell_scaling(P, regime) for P in PS for regime in REGIMES]
    cells += [cell_scaling(64, "constant", topology) for topology in TOPOLOGIES]
    return cells, crossover_analysis(cells)


def _series(cells, analysis):
    series = ExperimentSeries(
        name="Scaling crossover: simulated makespan (s) per control plane",
        headers=("P", "regime", "topology", "units", *MODES, "winner"),
        expected=(
            "a sub-master tree durably beats the flat root at large P in "
            "every regime; load volatility lowers the crossover point"
        ),
    )
    for cell in cells:
        series.add(
            cell["P"], cell["regime"], cell["topology"], cell["units"],
            *(cell["makespans"][mode] for mode in MODES), cell["winner"],
        )
    for regime, entry in analysis["regimes"].items():
        at = entry["crossover_P"]
        series.notes.append(
            f"{regime}: crossover_P={at}, "
            + (
                f"the best tree beats the flat root by >= "
                f"{analysis['margin']:.0%} at every P >= {at}"
                if at
                else "the flat root is never durably beaten"
            )
        )
    return series


def test_scaling_crossover(benchmark):
    cells, analysis = once(benchmark, _run)
    save_table("scaling_crossover", _series(cells, analysis).format_table())
    save_json("scaling_crossover", {"cells": cells, "crossover": analysis})

    assert len(cells) == len(PS) * len(REGIMES) + len(TOPOLOGIES)
    assert set(analysis["regimes"]) == set(REGIMES)
    for regime, entry in analysis["regimes"].items():
        assert entry["crossover_P"] is not None, f"{regime}: no crossover"
