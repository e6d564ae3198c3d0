"""Section 4.4 — strip-mining granularity of the pipelined loop."""

from _util import once, save_series

from repro.experiments import ablations


def test_grain_sweep_matches_startup_rule(benchmark):
    series = once(benchmark, ablations.grain)
    save_series("ablation_grain", series)

    block_times = series.column("block_time_s")
    elapsed = series.column("t_elapsed")
    messages = series.column("messages")

    # Paper shape: strips far below the quantum synchronize too often
    # and suffer under competing load; strips near 1.5 quanta (the
    # startup rule's target of ~150 ms) are near-optimal; very large
    # strips lose pipeline overlap.
    best_idx = elapsed.index(min(elapsed))
    assert 0.05 <= block_times[best_idx] <= 0.5, (
        f"optimum at {block_times[best_idx]}s, expected near 1.5 quanta"
    )
    assert elapsed[0] > min(elapsed) * 1.05, "tiny strips should lose"
    assert elapsed[-1] > min(elapsed) * 1.2, "huge strips should lose"
    # Messages drop monotonically as strips grow.
    assert all(b > a for a, b in zip(messages, messages[1:])) is False
    assert messages[0] > messages[-1] * 10
