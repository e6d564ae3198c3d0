"""CheckpointCoordinator state machine and rollback re-partitioning.

The coordinator is pure (no messages, no clock), so its contract — one
open epoch at a time, commit on the last member deposit, abort with
adaptive barrier margin, rollback to the latest committed epoch — is
tested directly.  The two re-partition helpers are checked against
hand-computed splits plus structural invariants (complete coverage, no
overlap, grants attributed to the dead snapshot they come from).
"""

import pytest

from repro.ckpt.coordinator import (
    CheckpointCoordinator,
    pipeline_repartition,
    reduction_repartition,
)
from repro.ckpt.model import CheckpointEpoch, SlaveSnapshot
from repro.config import CheckpointConfig
from repro.errors import PartitionError


def make_coord(**kw) -> CheckpointCoordinator:
    return CheckpointCoordinator(CheckpointConfig(enabled=True, **kw))


def open_default(coord, now=5.0, members=(0, 1)):
    return coord.open_epoch(
        now=now,
        barrier=4,
        members=members,
        cut={p: (2 * p, 2 * p + 1) for p in members},
        boundaries=None,
        next_move_id=3,
    )


# -- epoch lifecycle ----------------------------------------------------


class TestCoordinatorLifecycle:
    def test_due_respects_interval_and_open_epoch(self):
        coord = make_coord(interval=2.0)
        assert not coord.due(1.9)
        assert coord.due(2.0)
        open_default(coord, now=2.0)
        assert not coord.due(100.0)  # an open epoch blocks the next one

    def test_open_epoch_numbers_and_normalizes(self):
        coord = make_coord()
        epoch = coord.open_epoch(
            now=1.0,
            barrier=7,
            members=[2, 0, 1],
            cut={0: [0, 1], 1: [2], 2: [3]},
            boundaries=[0, 2, 3, 4],
            next_move_id=5,
        )
        assert epoch.epoch == 1
        assert epoch.members == (0, 1, 2)
        assert epoch.cut == {0: (0, 1), 1: (2,), 2: (3,)}
        assert epoch.boundaries == (0, 2, 3, 4)
        assert epoch.placement == "master"
        assert coord.open is epoch
        assert coord.epochs_opened == 1
        with pytest.raises(PartitionError):
            open_default(coord)

    def test_deposit_commits_on_last_member(self):
        coord = make_coord()
        epoch = open_default(coord, now=5.0, members=(0, 1))
        snap = lambda p: SlaveSnapshot(pid=p, epoch=epoch.epoch, rep=4)
        assert coord.deposit(0, snap(0), now=5.1) is False
        assert coord.open is epoch
        assert coord.deposit(1, snap(1), now=5.2) is True
        assert coord.open is None
        assert coord.committed is epoch
        assert epoch.committed
        assert epoch.committed_at == 5.2
        assert coord.epochs_committed == 1

    def test_deposit_ignores_stale_epoch_and_non_members(self):
        coord = make_coord()
        epoch = open_default(coord, members=(0, 1))
        stale = SlaveSnapshot(pid=0, epoch=epoch.epoch - 1, rep=0)
        assert coord.deposit(0, stale, now=5.1) is False
        outsider = SlaveSnapshot(pid=7, epoch=epoch.epoch, rep=4)
        assert coord.deposit(7, outsider, now=5.1) is False
        assert epoch.snapshots == {}

    def test_abort_and_barrier_miss_grow_margin(self):
        coord = make_coord()
        epoch = open_default(coord)
        assert coord.abort(now=6.0) is epoch
        assert coord.margin == 2  # plain abort: margin unchanged
        open_default(coord, now=7.0)
        coord.abort(now=8.0, missed=True)
        assert coord.margin == 3
        assert coord.barrier_misses == 1
        assert coord.epochs_aborted == 2
        assert coord.abort(now=9.0) is None  # nothing open: no-op

    def test_epoch_numbers_advance_past_aborts(self):
        coord = make_coord()
        first = open_default(coord)
        coord.abort(now=6.0)
        second = open_default(coord, now=7.0)
        assert second.epoch == first.epoch + 1

    def test_rollback_target_prefers_committed_else_epoch0(self):
        coord = make_coord()
        with pytest.raises(PartitionError):
            coord.rollback_target()  # no epoch 0 registered yet
        zero = CheckpointEpoch(
            epoch=0, barrier=0, opened_at=0.0, members=(0, 1), cut={}
        )
        coord.epoch0 = zero
        assert coord.rollback_target() is zero
        epoch = open_default(coord, members=(0, 1))
        coord.deposit(0, SlaveSnapshot(pid=0, epoch=epoch.epoch, rep=4), 5.1)
        coord.deposit(1, SlaveSnapshot(pid=1, epoch=epoch.epoch, rep=4), 5.2)
        assert coord.rollback_target() is epoch


# -- pipeline re-partitioning -------------------------------------------


class TestPipelineRepartition:
    def test_no_dead_is_identity(self):
        bounds, grants = pipeline_repartition([0, 4, 8, 12], [])
        assert bounds == [0, 4, 8, 12]
        assert grants == {}

    def test_middle_dead_splits_at_midpoint(self):
        bounds, grants = pipeline_repartition([0, 4, 8, 12], [1])
        assert bounds == [0, 6, 6, 12]
        assert grants == {0: [(1, [4, 5])], 2: [(1, [6, 7])]}

    def test_edge_dead_goes_one_sided(self):
        bounds, grants = pipeline_repartition([0, 4, 8, 12], [0])
        assert bounds == [0, 0, 8, 12]
        assert grants == {1: [(0, [0, 1, 2, 3])]}
        bounds, grants = pipeline_repartition([0, 4, 8, 12], [2])
        assert bounds == [0, 4, 12, 12]
        assert grants == {1: [(2, [8, 9, 10, 11])]}

    def test_adjacent_dead_run_split_attributes_sources(self):
        bounds, grants = pipeline_repartition([0, 3, 6, 9, 12], [1, 2])
        assert bounds == [0, 6, 6, 6, 12]
        # Each granted unit names the dead snapshot it is restored from.
        assert grants == {0: [(1, [3, 4, 5])], 3: [(2, [6, 7, 8])]}

    def test_block_structure_is_preserved(self):
        bounds, grants = pipeline_repartition([0, 5, 9, 14, 20], [2])
        assert len(bounds) == 5
        assert bounds[0] == 0 and bounds[-1] == 20
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert bounds[3] == bounds[2]  # dead slave keeps a zero-width block
        granted = [u for gs in grants.values() for _, us in gs for u in us]
        assert sorted(granted) == list(range(9, 14))

    def test_already_empty_dead_block_grants_nothing(self):
        bounds, grants = pipeline_repartition([0, 4, 4, 8], [1])
        assert bounds == [0, 4, 4, 8]
        assert grants == {}

    def test_no_survivors_raises(self):
        with pytest.raises(PartitionError):
            pipeline_repartition([0, 4, 8], [0, 1])


# -- reduction re-partitioning ------------------------------------------


class TestReductionRepartition:
    CUT = {0: (0, 1), 1: (2, 3), 2: (4, 5, 6, 7)}

    def test_shares_follow_weights(self):
        new_owned, grants = reduction_repartition(
            self.CUT, live=[0, 1], dead=[2], weights={0: 3.0, 1: 1.0}
        )
        assert new_owned == {0: [0, 1, 4, 5, 6], 1: [2, 3, 7]}
        assert grants == {0: [(2, [4, 5, 6])], 1: [(2, [7])]}

    def test_coverage_is_complete_and_disjoint(self):
        new_owned, grants = reduction_repartition(
            self.CUT, live=[0, 1], dead=[2], weights={0: 1.0, 1: 1.0}
        )
        everything = sorted(u for units in new_owned.values() for u in units)
        assert everything == list(range(8))  # nothing lost, nothing doubled
        granted = sorted(
            u for gs in grants.values() for _, us in gs for u in us
        )
        assert granted == [4, 5, 6, 7]

    def test_multiple_dead_sources_attributed(self):
        cut = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
        new_owned, grants = reduction_repartition(
            cut, live=[0], dead=[2, 3], weights={0: 1.0}
        )
        assert new_owned == {0: [0, 1, 4, 5, 6, 7]}
        assert grants == {0: [(2, [4, 5]), (3, [6, 7])]}

    def test_dead_slaves_own_nothing_after(self):
        new_owned, _ = reduction_repartition(
            self.CUT, live=[0, 1], dead=[2], weights={0: 1.0, 1: 1.0}
        )
        assert 2 not in new_owned

    def test_no_survivors_raises(self):
        with pytest.raises(PartitionError):
            reduction_repartition(self.CUT, live=[], dead=[0, 1, 2], weights={})
