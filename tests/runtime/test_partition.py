"""Partition and work-movement bookkeeping tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PartitionError
from repro.runtime.partition import (
    BlockPartition,
    IndexPartition,
    Transfer,
    adjacent_moves,
    cut_units,
    proportional_counts,
    surplus_moves,
)


def toward(p, target_counts):
    """One balancing round's transfers toward ``target_counts``, as the
    master cuts them: neighbours only for a block partition."""
    pair = adjacent_moves if isinstance(p, BlockPartition) else surplus_moves
    return p.cut(pair(p.counts(), target_counts))


class TestProportionalCounts:
    def test_even_weights(self):
        assert proportional_counts(12, [1, 1, 1]) == [4, 4, 4]

    def test_proportional(self):
        assert proportional_counts(100, [1, 3]) == [25, 75]

    def test_sum_preserved_with_remainders(self):
        counts = proportional_counts(10, [1, 1, 1])
        assert sum(counts) == 10

    def test_minimum_respected(self):
        counts = proportional_counts(10, [0.001, 100.0], minimum=1)
        assert counts[0] >= 1
        assert sum(counts) == 10

    def test_minimum_reduced_when_infeasible(self):
        counts = proportional_counts(2, [1, 1, 1], minimum=1)
        assert sum(counts) == 2

    def test_zero_weights_fall_back_to_even(self):
        assert proportional_counts(9, [0, 0, 0]) == [3, 3, 3]

    def test_validation(self):
        with pytest.raises(PartitionError):
            proportional_counts(10, [])
        with pytest.raises(PartitionError):
            proportional_counts(-1, [1])
        with pytest.raises(PartitionError):
            proportional_counts(10, [1, -1])

    @given(
        total=st.integers(0, 500),
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
    )
    def test_always_sums_to_total(self, total, weights):
        counts = proportional_counts(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)

    @given(
        total=st.integers(8, 500),
        weights=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8),
    )
    def test_monotone_in_weight(self, total, weights):
        counts = proportional_counts(total, weights)
        # Largest weight never gets fewer units than smallest weight.
        imax = weights.index(max(weights))
        imin = weights.index(min(weights))
        assert counts[imax] >= counts[imin]


class TestBlockPartition:
    def test_even_construction(self):
        p = BlockPartition.even(10, 3)
        assert p.counts() == [4, 3, 3]
        assert p.n_units == 10

    def test_offset_domain(self):
        p = BlockPartition.even(10, 2, lo=5)
        assert p.owned_range(0) == (5, 10)
        assert p.owned_range(1) == (10, 15)

    def test_owner_of(self):
        p = BlockPartition.from_counts([3, 4, 3])
        assert p.owner_of(0) == 0
        assert p.owner_of(3) == 1
        assert p.owner_of(9) == 2
        with pytest.raises(PartitionError):
            p.owner_of(10)

    def test_invalid_boundaries(self):
        with pytest.raises(PartitionError):
            BlockPartition([5, 3])
        with pytest.raises(PartitionError):
            BlockPartition([0])

    def test_transfers_toward_simple_shift(self):
        p = BlockPartition.from_counts([6, 6])
        transfers = toward(p, [3, 9])
        assert len(transfers) == 1
        t = transfers[0]
        assert (t.src, t.dst) == (0, 1)
        assert t.units == (3, 4, 5)

    def test_transfers_are_adjacent_only(self):
        p = BlockPartition.from_counts([6, 6, 6])
        for t in toward(p, [2, 6, 10]):
            assert abs(t.src - t.dst) == 1

    def test_big_shift_completes_over_multiple_rounds(self):
        # Moving everything from slave 0's side to slave 2 takes multiple
        # rounds: each transfer only draws from the sender's current
        # units, and intermediate slaves forward load (paper Figure 1b).
        p = BlockPartition.from_counts([9, 1, 1])
        target = [1, 1, 9]
        for _round in range(5):
            transfers = toward(p, target)
            if not transfers:
                break
            p = p.apply(transfers)
        assert p.counts() == target

    def test_apply_roundtrip(self):
        p = BlockPartition.from_counts([5, 5])
        t = toward(p, [3, 7])
        p2 = p.apply(t)
        assert p2.counts() == [3, 7]

    def test_apply_validates_boundary_chunks(self):
        p = BlockPartition.from_counts([5, 5])
        bad = Transfer(src=0, dst=1, units=(0, 1))  # not the top chunk
        with pytest.raises(PartitionError):
            p.apply([bad])

    def test_apply_rejects_nonadjacent(self):
        p = BlockPartition.from_counts([4, 4, 4])
        bad = Transfer(src=0, dst=2, units=(3,))
        with pytest.raises(PartitionError):
            p.apply([bad])

    @given(
        counts=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        seed=st.integers(0, 1000),
    )
    def test_transfers_preserve_units(self, counts, seed):
        import random

        rng = random.Random(seed)
        p = BlockPartition.from_counts(counts)
        total = p.n_units
        weights = [rng.uniform(0.1, 10.0) for _ in counts]
        targets = proportional_counts(total, weights, minimum=1)
        transfers = toward(p, targets)
        p2 = p.apply(transfers)
        assert p2.n_units == total
        # Every slave keeps at least one unit (the pipeline protocol
        # needs a column to anchor halo exchange).
        assert all(c >= 1 for c in p2.counts())
        # Ownership remains contiguous and ordered.
        assert p2.boundaries == sorted(p2.boundaries)
        # No unit moves twice in one round, and every transfer draws from
        # the sender's pre-round range.
        seen: set[int] = set()
        for t in transfers:
            lo, hi = p.owned_range(t.src)
            for u in t.units:
                assert lo <= u < hi
                assert u not in seen
                seen.add(u)

    def test_extreme_targets_regression(self):
        # Regression: extreme proportional targets used to break boundary
        # monotonicity and strip a slave of all its units.
        p = BlockPartition.from_counts([12, 12, 11, 11])
        targets = [41, 2, 2, 1]
        p2 = p.apply(toward(p, targets))
        assert all(c >= 1 for c in p2.counts())

    def test_forwarding_round_keeps_sender_nonempty(self):
        # Regression: a round that both gives to and takes from a middle
        # slave must not ask it to send away ALL currently owned units
        # (sends execute before receives on the slave).
        p = BlockPartition([1, 19, 24, 36, 47])
        transfers = toward(p, [22, 4, 10, 10])
        gives = {s: 0 for s in range(4)}
        for t in transfers:
            gives[t.src] += t.count
        counts = p.counts()
        for s in range(4):
            assert counts[s] - gives[s] >= 1, (s, transfers)

    @given(
        counts=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        seed=st.integers(0, 2000),
    )
    def test_round_never_empties_a_slave(self, counts, seed):
        import random

        rng = random.Random(seed)
        p = BlockPartition.from_counts(counts)
        weights = [rng.uniform(0.05, 20.0) for _ in counts]
        targets = proportional_counts(p.n_units, weights, minimum=1)
        transfers = toward(p, targets)
        gives = {s: 0 for s in range(len(counts))}
        for t in transfers:
            gives[t.src] += t.count
        for s, c in enumerate(p.counts()):
            assert c - gives[s] >= 1


class TestIndexPartition:
    def test_even(self):
        p = IndexPartition.even(10, 3)
        assert p.counts() == [4, 3, 3]
        assert list(p.owned(0)) == [0, 1, 2, 3]

    def test_offset(self):
        p = IndexPartition.even(4, 2, lo=10)
        assert list(p.owned(0)) == [10, 11]

    def test_duplicate_ownership_rejected(self):
        with pytest.raises(PartitionError):
            IndexPartition([[1, 2], [2, 3]])

    def test_owner_of(self):
        p = IndexPartition([[0, 5], [1, 2]])
        assert p.owner_of(5) == 0
        assert p.owner_of(2) == 1
        with pytest.raises(PartitionError):
            p.owner_of(99)

    def test_transfers_direct_pairing(self):
        p = IndexPartition([[0, 1, 2, 3, 4, 5], [6], [7]])
        transfers = toward(p, [2, 3, 3])
        p2 = p.apply(transfers)
        assert p2.counts() == [2, 3, 3]

    def test_donors_give_highest_units(self):
        p = IndexPartition([[0, 1, 2, 3], [4]])
        (t,) = toward(p, [2, 3])
        assert t.units == (2, 3)

    def test_apply_rejects_unowned(self):
        p = IndexPartition([[0], [1]])
        with pytest.raises(PartitionError):
            p.apply([Transfer(src=0, dst=1, units=(5,))])

    def test_target_sum_mismatch_rejected(self):
        p = IndexPartition([[0, 1], [2]])
        with pytest.raises(PartitionError):
            surplus_moves(p.counts(), [5, 5])
        with pytest.raises(PartitionError):
            adjacent_moves(p.counts(), [3])

    @given(
        counts=st.lists(st.integers(1, 20), min_size=2, max_size=6),
        weights=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6),
    )
    def test_rebalance_reaches_target_exactly(self, counts, weights):
        if len(weights) != len(counts):
            weights = (weights * len(counts))[: len(counts)]
        p = IndexPartition.even(sum(counts), len(counts))
        targets = proportional_counts(sum(counts), weights, minimum=1)
        p2 = p.apply(toward(p, targets))
        # Unrestricted movement reaches the target in one round.
        assert p2.counts() == targets


def _targets(data, counts):
    """Random targets with the counts' total: proportional shares or an
    arbitrary composition."""
    total, n = sum(counts), len(counts)
    if data.draw(st.booleans()):
        weights = data.draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
        return proportional_counts(total, weights, minimum=int(total >= n))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


class TestCountLevelPairing:
    def test_counts_are_computed_once_per_partition(self):
        for p in (
            BlockPartition.from_counts([3, 2]),
            IndexPartition([[0, 1, 2], [3, 4]]),
        ):
            counts = p.counts()
            assert counts == [3, 2] and p.counts() is counts
            moved = p.apply(p.cut([(0, 1, 1)]))
            assert moved.counts() == [2, 3]
            assert p.counts() == [3, 2]

    @given(data=st.data(), counts=st.lists(st.integers(0, 20), min_size=1, max_size=8))
    def test_surplus_cut_reaches_targets_from_highest_ids(self, data, counts):
        ids = data.draw(st.permutations(range(3 * sum(counts) + 3)))
        owned, k = [], 0
        for c in counts:
            owned.append(ids[k : k + c])
            k += c
        p = IndexPartition(owned)
        targets = _targets(data, counts)
        moves = surplus_moves(counts, targets)
        transfers = p.cut(moves)
        assert [(t.src, t.dst, t.count) for t in transfers] == moves
        assert p.apply(transfers).counts() == targets
        # Each donor gives its highest ids, move by move.
        for d in range(len(counts)):
            chunks = [t.units for t in transfers if t.src == d]
            given_ids = [u for chunk in reversed(chunks) for u in chunk]
            assert given_ids == sorted(owned[d])[len(owned[d]) - len(given_ids) :]
        # The same cut over any units function.
        assert cut_units(lambda q: owned[q], moves) == transfers

    @given(data=st.data(), counts=st.lists(st.integers(0, 20), min_size=1, max_size=8))
    def test_adjacent_moves_pair_neighbours_within_what_senders_own(
        self, data, counts
    ):
        targets = _targets(data, counts)
        moves = adjacent_moves(counts, targets)
        gives = [0] * len(counts)
        for src, dst, k in moves:
            assert abs(src - dst) == 1 and k > 0
            gives[src] += k
        for c, g in zip(counts, gives):
            # Never more than the sender owns; an owner keeps one unit.
            assert g <= max(c - 1, 0)
        p = BlockPartition.from_counts(counts)
        after = p.apply(p.cut(moves)).counts()
        assert sum(after) == sum(counts)
        assert all(a >= 1 for a, c in zip(after, counts) if c >= 1)


class TestTransfer:
    def test_validation(self):
        with pytest.raises(PartitionError):
            Transfer(src=1, dst=1, units=(0,))
        with pytest.raises(PartitionError):
            Transfer(src=0, dst=1, units=())

    def test_count(self):
        assert Transfer(src=0, dst=1, units=(4, 5, 6)).count == 3
