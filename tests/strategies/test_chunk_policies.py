"""Chunk-size policies of the central-queue runtime."""

import pytest

from repro.errors import ConfigError
from repro.strategies.rdlb import (
    ChunkPolicy,
    FactoringPolicy,
    GuidedPolicy,
    TrapezoidPolicy,
)


class TestPolicies:
    def test_chunk_fixed_size(self):
        p = ChunkPolicy(8)
        assert p.next_chunk(100, 4) == 8
        assert p.next_chunk(5, 4) == 5

    def test_chunk_validation(self):
        with pytest.raises(ConfigError):
            ChunkPolicy(0)

    def test_guided_halves_per_round(self):
        p = GuidedPolicy()
        assert p.next_chunk(100, 4) == 25
        assert p.next_chunk(75, 4) == 19
        assert p.next_chunk(1, 4) == 1

    def test_factoring_batches(self):
        p = FactoringPolicy()
        # First batch: ceil(100 / 8) = 13 for each of 4 requests.
        sizes = [p.next_chunk(100 - 13 * i, 4) for i in range(4)]
        assert sizes == [13, 13, 13, 13]
        # Next batch re-derives from what remains.
        assert p.next_chunk(48, 4) == 6

    def test_trapezoid_decreasing(self):
        p = TrapezoidPolicy(total=100, n_slaves=4)
        sizes = []
        remaining = 100
        while remaining > 0:
            c = p.next_chunk(remaining, 4)
            sizes.append(c)
            remaining -= c
        assert sum(sizes) == 100
        assert sizes[0] >= sizes[-1]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
