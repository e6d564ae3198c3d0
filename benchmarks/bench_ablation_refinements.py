"""Section 3.2 — balancer refinements prevent excessive work movement."""

from _util import once, save_series

from repro.experiments import ablations


def test_refinements_prevent_thrash(benchmark):
    series = once(benchmark, ablations.refinements)
    save_series("ablation_refinements", series)

    rows = {r[0]: r for r in series.rows}
    t_full, eff_full, moves_full = rows["all refinements"][1:4]
    t_nothr, eff_nothr, moves_nothr = rows["no 10% threshold"][1:4]

    # Paper: the 10% improvement threshold exists "to prevent
    # oscillations and to reduce sensitivity to short load spikes" —
    # dropping it multiplies movements without improving the outcome.
    assert moves_nothr > moves_full * 1.3
    assert eff_nothr <= eff_full + 0.02
    # The full configuration stays effective under the oscillating load.
    assert eff_full > 0.85
