"""Section 3.3 — pipelined vs synchronous master-slave interaction."""

from _util import once, save_series

from repro.experiments import ablations


def test_pipelining_hides_interaction_cost(benchmark):
    series = once(benchmark, ablations.pipelining)
    save_series("ablation_pipelining", series)

    penalties = series.column("sync_penalty_%")
    # Paper: "experiments comparing the pipelined and synchronous
    # approaches confirm that pipelining is important."  The synchronous
    # penalty must be visible at LAN-scale latency and grow past a few
    # percent at high latency.
    assert all(p > -1.0 for p in penalties)  # pipelining never loses
    assert max(penalties) > 3.0
