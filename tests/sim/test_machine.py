"""Integration tests for the cluster task scheduler and message passing."""

import numpy as np
import pytest

from repro.analysis.equivalence import SILENT_PLAN
from repro.config import ClusterSpec, NetworkSpec, ProcessorSpec
from repro.errors import DeadlockError, SimulationError
from repro.faults import FaultInjector, FaultPlan, SlaveStall
from repro.sim import Cluster, Compute, Now, Poll, Recv, Send
from repro.sim.load import ConstantLoad


def make_cluster(n_slaves=2, **net_kwargs):
    spec = ClusterSpec(
        n_slaves=n_slaves,
        processor=ProcessorSpec(speed=1e6, quantum=0.1),
        network=NetworkSpec(**net_kwargs) if net_kwargs else NetworkSpec(),
    )
    return Cluster(spec)


class TestComputeAndTime:
    def test_compute_advances_time(self):
        cl = make_cluster()
        log = []

        def task(ctx):
            yield Compute(1e6)
            t = yield Now()
            log.append(t)

        cl.spawn(0, task)
        cl.run()
        assert log == [pytest.approx(1.0)]

    def test_compute_runs_kernel_eagerly(self):
        cl = make_cluster()
        out = []

        def task(ctx):
            yield Compute(10, fn=lambda: out.append("ran"))

        cl.spawn(0, task)
        cl.run()
        assert out == ["ran"]

    def test_sleep_consumes_no_cpu(self):
        cl = make_cluster()

        def task(ctx):
            yield Recv(tag="never", timeout=5.0)

        cl.spawn(0, task)
        cl.run()
        assert cl.task_finish_time(0) == pytest.approx(5.0)
        assert cl.processors[0].app_cpu_total == 0.0

    def test_competing_load_dilates_compute(self):
        spec = ClusterSpec(n_slaves=1)
        cl = Cluster(spec, loads={0: ConstantLoad(k=1)})

        def task(ctx):
            yield Compute(1e6)  # 1 s of CPU

        cl.spawn(0, task)
        cl.run()
        assert cl.task_finish_time(0) == pytest.approx(2.0, abs=0.11)

    def test_run_until_mid_chain_is_resumable(self):
        def build():
            cl = make_cluster(n_slaves=1)

            def task(ctx):
                for _ in range(100):
                    yield Compute(1000.0)

            cl.spawn(0, task)
            return cl

        cut = 37 * 1000.0 / 1e6  # mid-chain
        split, whole = build(), build()
        assert split.run(until=cut) == cut
        assert split.engine.pending() == 1
        split.run()
        whole.run()
        assert split.engine.now == whole.engine.now
        assert split.engine.events_processed == whole.engine.events_processed
        assert split.task_finish_time(0) == whole.task_finish_time(0)
        assert split.processors[0].app_cpu_total == whole.processors[0].app_cpu_total


class TestMessaging:
    def test_send_recv_roundtrip(self):
        cl = make_cluster()
        got = []

        def sender(ctx):
            yield Send(dst=1, tag="data", payload={"x": 42}, nbytes=100)

        def receiver(ctx):
            msg = yield Recv(src=0, tag="data")
            got.append(msg.payload)

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert got == [{"x": 42}]
        assert cl.message_count == 1
        assert cl.bytes_sent == 100

    def test_message_timing_includes_latency_bandwidth_and_cpu(self):
        lat, bw, scpu, rcpu = 1e-3, 1e6, 2e-3, 3e-3
        cl = make_cluster(latency=lat, bandwidth=bw, send_cpu=scpu, recv_cpu=rcpu)
        times = []

        def sender(ctx):
            yield Send(dst=1, tag="t", payload=None, nbytes=1000)
            times.append(("sent", ctx.now))

        def receiver(ctx):
            yield Recv(src=0)
            times.append(("recv", ctx.now))

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        t = dict(times)
        assert t["sent"] == pytest.approx(scpu)
        assert t["recv"] == pytest.approx(scpu + lat + 1000 / bw + rcpu)

    def test_numpy_payload_snapshot_at_send_time(self):
        cl = make_cluster()
        received = []

        def sender(ctx):
            arr = np.ones(4)
            yield Send(dst=1, tag="arr", payload=arr, nbytes=32)
            arr[:] = 999.0  # mutate after send; receiver must see ones
            yield Compute(100)

        def receiver(ctx):
            msg = yield Recv(src=0, tag="arr")
            received.append(msg.payload.copy())

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        np.testing.assert_allclose(received[0], np.ones(4))

    def test_nested_numpy_snapshot(self):
        cl = make_cluster()
        received = []

        def sender(ctx):
            arr = np.arange(3.0)
            yield Send(dst=1, tag="d", payload={"a": arr, "l": [arr]}, nbytes=8)
            arr += 100.0
            yield Compute(100)

        def receiver(ctx):
            msg = yield Recv(src=0)
            received.append(msg.payload)

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        np.testing.assert_allclose(received[0]["a"], [0, 1, 2])
        np.testing.assert_allclose(received[0]["l"][0], [0, 1, 2])

    def test_selective_recv_by_tag(self):
        cl = make_cluster()
        order = []

        def sender(ctx):
            yield Send(dst=1, tag="later", payload="L", nbytes=8)
            yield Send(dst=1, tag="first", payload="F", nbytes=8)

        def receiver(ctx):
            m1 = yield Recv(tag="first")
            order.append(m1.payload)
            m2 = yield Recv(tag="later")
            order.append(m2.payload)

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert order == ["F", "L"]

    def test_poll_returns_none_when_empty(self):
        cl = make_cluster()
        results = []

        def task(ctx):
            m = yield Poll(tag="never")
            results.append(m)

        cl.spawn(0, task)
        cl.run()
        assert results == [None]

    def test_poll_returns_message_when_available(self):
        cl = make_cluster()
        results = []

        def sender(ctx):
            yield Send(dst=1, tag="x", payload=7, nbytes=8)

        def receiver(ctx):
            yield Recv(tag="never", timeout=1.0)  # let the message arrive
            m = yield Poll(tag="x")
            results.append(m.payload)

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert results == [7]

    def test_fifo_order_same_tag(self):
        cl = make_cluster()
        got = []

        def sender(ctx):
            for i in range(5):
                yield Send(dst=1, tag="seq", payload=i, nbytes=8)

        def receiver(ctx):
            for _ in range(5):
                m = yield Recv(tag="seq")
                got.append(m.payload)

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert got == [0, 1, 2, 3, 4]

    def test_received_messages_stay_valid_across_receives(self):
        cl = make_cluster()
        kept = []

        def sender(ctx):
            for i in range(3):
                yield Send(dst=1, tag="t", payload={"v": i}, nbytes=8)

        def receiver(ctx):
            for _ in range(3):
                kept.append((yield Recv(tag="t")))

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert [(m.src, m.tag, m.payload["v"]) for m in kept] == [
            (0, "t", 0),
            (0, "t", 1),
            (0, "t", 2),
        ]
        assert len({id(m) for m in kept}) == 3


class TestTimedRecv:
    def test_expiry_resumes_with_none_at_deadline_without_cpu(self):
        cl = make_cluster()
        log = []

        def task(ctx):
            yield Recv(tag="never", timeout=0.25)
            msg = yield Recv(tag="never", timeout=1.5)
            log.append((msg, ctx.now))

        cl.spawn(0, task)
        cl.run()
        assert log == [(None, 1.75)]
        assert cl.processors[0].app_cpu_total == 0.0

    @pytest.mark.parametrize("second_timeout", [None, 5.0])
    def test_message_wins_and_its_stale_timeout_never_fires(self, second_timeout):
        cl = make_cluster()
        got = []

        def sender(ctx):
            yield Recv(tag="never", timeout=0.5)
            yield Send(dst=1, tag="x", payload=1, nbytes=8)
            yield Recv(tag="never", timeout=2.0)
            yield Send(dst=1, tag="x", payload=2, nbytes=8)

        def receiver(ctx):
            msg = yield Recv(tag="x", timeout=1.0)
            got.append((msg.payload, ctx.now))
            # Blocked again when the first wait's timeout (t=1.0) fires:
            # only the second message may wake the task.
            msg = yield Recv(tag="x", timeout=second_timeout)
            got.append((msg.payload, ctx.now))

        cl.spawn(0, sender)
        cl.spawn(1, receiver)
        cl.run()
        assert [payload for payload, _ in got] == [1, 2]
        assert got[0][1] < 1.0
        assert 2.5 < got[1][1] < 3.0

    def test_zero_timeout_on_empty_mailbox_returns_none(self):
        cl = make_cluster()
        log = []

        def task(ctx):
            msg = yield Recv(tag="x", timeout=0)
            log.append((msg, ctx.now))

        cl.spawn(0, task)
        cl.run()
        assert log == [(None, 0.0)]

    def test_negative_timeout_rejected(self):
        cl = make_cluster()

        def task(ctx):
            yield Recv(tag="x", timeout=-0.1)

        cl.spawn(0, task)
        with pytest.raises(SimulationError, match="negative recv timeout"):
            cl.run()

    def test_stall_window_slides_the_expiry(self):
        spec = make_cluster().spec
        plan = FaultPlan(stalls=(SlaveStall(pid=0, duration=2.0, at=1.0),))
        cl = Cluster(spec, None, None, FaultInjector(plan, master_pid=spec.master_pid))
        log = []

        def task(ctx):
            msg = yield Recv(tag="never", timeout=1.5)
            log.append((msg, ctx.now))

        cl.spawn(0, task)
        cl.run()
        assert log == [(None, 3.0)]


class TestErrors:
    def test_negative_compute_rejected(self):
        cl = make_cluster()

        def task(ctx):
            yield Compute(1.0)
            yield Compute(-2.0)

        cl.spawn(0, task)
        with pytest.raises(SimulationError, match="negative"):
            cl.run()

    def test_negative_compute_rejected_under_injector(self):
        # The Compute handler's fault-injection branch must not bypass
        # the CPU validation.
        spec = make_cluster().spec
        inj = FaultInjector(SILENT_PLAN, master_pid=spec.master_pid)
        cl = Cluster(spec, None, None, inj)

        def task(ctx):
            yield Compute(1.0)
            yield Compute(-2.0)

        cl.spawn(0, task)
        with pytest.raises(SimulationError, match="negative"):
            cl.run()

    def test_deadlock_detected(self):
        cl = make_cluster()

        def waiter(ctx):
            yield Recv(tag="never-sent")

        cl.spawn(0, waiter)
        with pytest.raises(DeadlockError):
            cl.run()

    def test_two_tasks_one_processor_rejected(self):
        cl = make_cluster()

        def t(ctx):
            yield Recv(tag="never", timeout=1.0)

        cl.spawn(0, t)
        with pytest.raises(SimulationError):
            cl.spawn(0, t)

    def test_send_to_unknown_processor(self):
        cl = make_cluster()

        def t(ctx):
            yield Send(dst=99, tag="x", payload=None, nbytes=0)

        cl.spawn(0, t)
        with pytest.raises(SimulationError):
            cl.run()

    def test_unknown_syscall_rejected(self):
        cl = make_cluster()

        def t(ctx):
            yield "not-a-syscall"

        cl.spawn(0, t)
        with pytest.raises(SimulationError):
            cl.run()


class TestRusage:
    def test_report_totals(self):
        spec = ClusterSpec(n_slaves=1)
        cl = Cluster(spec, loads={0: ConstantLoad(k=1)})

        def task(ctx):
            yield Compute(1e6)

        cl.spawn(0, task)
        cl.run()
        rep = cl.rusage()
        u = rep.usage_for(0)
        assert u.app_cpu == pytest.approx(1.0)
        assert u.app_cpu + u.competing_cpu == pytest.approx(u.elapsed, abs=0.11)

    def test_efficiency_formula(self):
        spec = ClusterSpec(n_slaves=2)
        cl = Cluster(spec)

        def task(ctx):
            yield Compute(1e6)

        cl.spawn(0, task)
        cl.spawn(1, task)
        cl.run()
        rep = cl.rusage()
        # Two dedicated slaves running 1s each in 1s elapsed: seq time 2s
        # => efficiency 1.0.
        assert rep.efficiency(2.0, [0, 1]) == pytest.approx(1.0)

    def test_master_context_properties(self):
        cl = make_cluster(n_slaves=3)
        seen = {}

        def task(ctx):
            seen["n"] = ctx.n_slaves
            seen["m"] = ctx.master_pid
            yield Recv(tag="never", timeout=0.0)

        cl.spawn(0, task)
        cl.run()
        assert seen == {"n": 3, "m": 3}
