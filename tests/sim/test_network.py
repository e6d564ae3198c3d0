"""Mailbox and payload-snapshot tests."""

import numpy as np
import pytest

from repro.config import NetworkSpec
from repro.errors import ConfigError
from repro.sim.events import Message
from repro.sim.network import Mailbox, snapshot_payload


def msg(src=0, dst=1, tag="t", payload=None):
    return Message(src=src, dst=dst, tag=tag, payload=payload, nbytes=8)


class TestMailbox:
    def test_fifo_within_match(self):
        box = Mailbox()
        box.deliver(msg(payload=1))
        box.deliver(msg(payload=2))
        assert box.take().payload == 1
        assert box.take().payload == 2
        assert box.take() is None

    def test_selective_by_tag(self):
        box = Mailbox()
        box.deliver(msg(tag="a", payload=1))
        box.deliver(msg(tag="b", payload=2))
        assert box.take(tag="b").payload == 2
        assert len(box) == 1

    def test_selective_by_src(self):
        box = Mailbox()
        box.deliver(msg(src=3, payload=1))
        box.deliver(msg(src=5, payload=2))
        assert box.take(src=5).payload == 2

    def test_peek_does_not_remove(self):
        box = Mailbox()
        box.deliver(msg(payload=1))
        assert box.peek().payload == 1
        assert len(box) == 1

    def test_no_match_returns_none(self):
        box = Mailbox()
        box.deliver(msg(tag="a"))
        assert box.take(tag="z") is None
        assert box.peek(src=9) is None

    def test_fifo_per_filter_after_selective_takes(self):
        box = Mailbox()
        for i in range(6):
            box.deliver(msg(src=i % 2, payload=i))
        # Draining src=1 first takes from the middle of the queue.
        assert [box.take(src=1).payload for _ in range(3)] == [1, 3, 5]
        assert len(box) == 3
        assert [box.take(src=0).payload for _ in range(3)] == [0, 2, 4]
        assert len(box) == 0
        assert box.take() is None

    def test_peek_after_take_sees_next_oldest(self):
        box = Mailbox()
        box.deliver(msg(tag="a", payload=1))
        box.deliver(msg(tag="b", payload=2))
        assert box.take(tag="a").payload == 1
        assert box.peek().payload == 2
        assert box.peek(tag="a") is None
        assert len(box) == 1


class TestSnapshotPayload:
    def test_ndarray_copied(self):
        a = np.ones(3)
        snap = snapshot_payload(a)
        a[:] = 9
        np.testing.assert_array_equal(snap, np.ones(3))

    def test_nested_containers(self):
        a = np.arange(3.0)
        payload = {"x": a, "l": [a, 5], "t": (a,)}
        snap = snapshot_payload(payload)
        a += 100
        np.testing.assert_array_equal(snap["x"], [0, 1, 2])
        np.testing.assert_array_equal(snap["l"][0], [0, 1, 2])
        np.testing.assert_array_equal(snap["t"][0], [0, 1, 2])
        assert snap["l"][1] == 5

    def test_scalars_passthrough(self):
        assert snapshot_payload(42) == 42
        assert snapshot_payload("s") == "s"
        assert snapshot_payload(None) is None


class TestNetworkSpec:
    def test_transfer_time(self):
        net = NetworkSpec(latency=1e-3, bandwidth=1e6)
        assert net.transfer_time(1000) == pytest.approx(2e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkSpec(latency=-1.0)
        with pytest.raises(ConfigError):
            NetworkSpec(bandwidth=0.0)
        with pytest.raises(ConfigError):
            NetworkSpec(send_cpu=-1.0)


class TestMessageRepr:
    def test_repr_hides_payload(self):
        m = msg(payload=np.zeros(1000))
        assert "zeros" not in repr(m)
        assert "0->1" in repr(m)
