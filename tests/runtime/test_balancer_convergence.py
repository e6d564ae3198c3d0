"""Property: the balancer's decide/apply loop converges.

Feeding stationary rates through repeated decide() + partition.apply()
rounds must reach the proportional allocation and then stop moving —
for both movement regimes — under arbitrary rate vectors.  This is the
closed-loop counterpart of the single-round unit tests.
"""

from hypothesis import given, settings, strategies as st

from repro.config import BalancerConfig, NetworkSpec
from repro.runtime.balancer import BalancerState, decide
from repro.runtime.partition import (
    BlockPartition,
    IndexPartition,
    proportional_counts,
)
from repro.runtime.protocol import SlaveReport


def feed(state, rates):
    for pid, r in enumerate(rates):
        state.observe(
            SlaveReport(
                pid=pid,
                seq=0,
                units_done=r,
                work_time=1.0,
                meas_units=r,
                meas_work=1.0,
                owned_count=1,
                rep=0,
            )
        )


def run_rounds(partition, rates, rounds=12, restricted=False):
    state = BalancerState(
        n_slaves=len(rates),
        config=BalancerConfig(profitability_enabled=False),
        unit_bytes=800,
        network=NetworkSpec(),
        quantum=0.1,
    )
    moves = 0
    for _ in range(rounds):
        feed(state, rates)
        d = decide(
            state,
            partition.counts(),
            {p: 1.0 for p in range(len(rates))},
            remaining_units=1e9,
            adjacent=isinstance(partition, BlockPartition),
        )
        if not d.moves:
            break
        moves += 1
        partition = partition.apply(partition.cut(d.moves))
    return partition, moves


@given(
    rates=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=6),
    units_per_slave=st.integers(5, 40),
)
@settings(max_examples=40, deadline=None)
def test_index_partition_converges_to_proportional(rates, units_per_slave):
    n = len(rates)
    total = units_per_slave * n
    part = IndexPartition.even(total, n)
    part, _ = run_rounds(part, rates)
    target = proportional_counts(total, rates, minimum=1)
    d = max(abs(c - t) for c, t in zip(part.counts(), target))
    # Unrestricted movement converges in one round up to the 10% stop
    # criterion; allow its slack.
    worst = max(target) + 1
    assert d <= max(2, int(0.15 * worst))


@given(
    rates=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=6),
    units_per_slave=st.integers(5, 40),
)
@settings(max_examples=40, deadline=None)
def test_block_partition_converges_and_stays_contiguous(rates, units_per_slave):
    n = len(rates)
    total = units_per_slave * n
    part = BlockPartition.even(total, n)
    part, _ = run_rounds(part, rates)
    assert part.n_units == total
    assert all(c >= 1 for c in part.counts())
    target = proportional_counts(total, rates, minimum=1)
    # Adjacent-only shifting still lands near the proportional target.
    d = max(abs(c - t) for c, t in zip(part.counts(), target))
    worst = max(target) + 1
    assert d <= max(2, int(0.2 * worst))


@given(rates=st.lists(st.floats(5.0, 50.0), min_size=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_no_movement_once_balanced(rates):
    n = len(rates)
    total = 20 * n
    part = IndexPartition.even(total, n)
    part, _ = run_rounds(part, rates, rounds=12)
    # One more decision on the converged partition: below threshold.
    state = BalancerState(
        n_slaves=n,
        config=BalancerConfig(profitability_enabled=False),
        unit_bytes=800,
        network=NetworkSpec(),
        quantum=0.1,
    )
    feed(state, rates)
    d = decide(state, part.counts(), {p: 1.0 for p in range(n)}, remaining_units=1e9)
    assert d.improvement < 0.15
