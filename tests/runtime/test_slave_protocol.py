"""Protocol-level slave tests driven by a scripted master.

These pin the slave's observable wire behaviour deterministically:
hook skipping, measurement-window gating, the done/release handshake,
and movement order execution — without the real balancer in the loop.
"""

import numpy as np
import pytest

from repro.apps import build_matmul
from repro.config import BalancerConfig, ClusterSpec, ProcessorSpec, RunConfig
from repro.runtime.partition import Transfer
from repro.runtime.protocol import INSTR_BYTES, Instructions, MoveOrder, Tags
from repro.runtime.slave import SlaveCore, slave_task
from repro.sim import Cluster, Compute, Recv, Send


def make_cluster(n_slaves=2, speed=1e6, pipelined=False):
    spec = ClusterSpec(
        n_slaves=n_slaves,
        processor=ProcessorSpec(speed=speed),
    )
    cfg = RunConfig(
        cluster=spec,
        balancer=BalancerConfig(pipelined=pipelined),
        execute_numerics=False,
    )
    return Cluster(spec), cfg


def master_with_init(ctx, units, skip, script, log):
    yield Send(0, Tags.INIT, {"units": tuple(units), "skip": skip}, 64)
    done = False
    while not done:
        msg = yield Recv(tag=Tags.STATUS)
        report = msg.payload
        log.append(report)
        instr = script(report) or Instructions(phase=0, release=report.done)
        yield Send(report.pid, Tags.INSTR, instr, INSTR_BYTES)
        done = report.done and instr.release
    res = yield Recv(src=0, tag=Tags.RESULT)
    log.append(("RESULT", res.payload))


def test_compute_issues_only_its_compute():
    # compute() reads the clock around the Compute instead of asking
    # for it: one syscall, and the result is that computation's span.
    cluster, cfg = make_cluster(n_slaves=1, speed=1e6)
    plan = build_matmul(n=4, n_slaves_hint=1)
    issued, out = [], {}

    def task(ctx):
        core = SlaveCore(ctx, plan, cfg, {"units": (0,)}, False)
        yield Recv(tag="never", timeout=0.3)  # start off time zero
        t0 = ctx.now
        gen = core.compute(2.5e5)
        req = next(gen)
        while True:
            issued.append(req)
            value = yield req
            try:
                req = gen.send(value)
            except StopIteration as stop:
                out["dt"], out["span"] = stop.value, ctx.now - t0
                out["work"] = core.work_time
                return

    cluster.spawn(0, task)
    cluster.run()
    assert [type(r) for r in issued] == [Compute]
    assert issued[0].ops == 2.5e5
    assert out["dt"] == out["span"] == out["work"] == pytest.approx(0.25)


class TestSlaveProtocol:
    def _run(self, n_units=12, skip=3, script=None, speed=1e6):
        cluster, cfg = make_cluster(n_slaves=1, speed=speed)
        plan = build_matmul(n=n_units, n_slaves_hint=1)
        log = []
        script = script or (lambda r: None)
        cluster.spawn(0, slave_task, plan, cfg, False)
        cluster.spawn(1, master_with_init, range(n_units), skip, script, log)
        cluster.run()
        return log

    def test_first_report_after_initial_skip(self):
        log = self._run(n_units=12, skip=4)
        first = log[0]
        assert first.units_done == 4  # exactly `skip` units before reporting

    def test_skip_update_applies(self):
        seen = []

        def script(report):
            seen.append(report.units_done)
            return Instructions(phase=0, skip_hooks=5, release=report.done)

        self._run(n_units=13, skip=2, script=script)
        # First report after 2 units, then every 5 (synchronous mode).
        assert seen[0] == 2
        assert seen[1] == 5

    def test_done_report_and_result(self):
        log = self._run(n_units=6, skip=2)
        done_reports = [r for r in log[:-1] if r.done]
        assert len(done_reports) == 1
        assert done_reports[0].remaining_units == ()
        kind, payload = log[-1]
        assert kind == "RESULT"
        assert payload["units"] == tuple(range(6))

    def test_measurement_window_accumulates_until_valid(self):
        # Tiny units (n=12 => ~0.3 ms each, << 2 quanta): meas_work keeps
        # accumulating across reports instead of resetting.
        reports = []

        def script(report):
            reports.append((report.meas_units, report.meas_work))
            return Instructions(phase=0, skip_hooks=2, release=report.done)

        self._run(n_units=12, skip=2, script=script)
        meas_units = [m for m, _w in reports]
        assert meas_units == sorted(meas_units)  # monotone accumulation
        assert meas_units[-1] > meas_units[0]

    def test_measurement_window_resets_after_valid_sample(self):
        # Large units (n=250 => 0.125 s each): two units exceed 2 quanta,
        # so each report starts a fresh window.
        reports = []

        def script(report):
            reports.append(report.meas_work)
            return Instructions(phase=0, skip_hooks=2, release=report.done)

        self._run(n_units=8, skip=2, script=script, speed=2e3)
        assert all(w <= 3.0 for w in reports[:-1])  # no unbounded growth


class TestScriptedMovement:
    def test_recv_order_in_done_handshake_restarts_work(self):
        """A slave with no work accepts moved units during the done
        handshake and computes them before its final release."""
        cluster, cfg = make_cluster(n_slaves=2)
        plan = build_matmul(n=10, n_slaves_hint=2)
        log0, log1 = [], []
        order = MoveOrder(move_id=0, transfer=Transfer(src=1, dst=0, units=(8, 9)))

        def master(ctx):
            yield Send(0, Tags.INIT, {"units": (0, 1, 2, 3), "skip": 2}, 64)
            yield Send(1, Tags.INIT, {"units": (4, 5, 6, 7, 8, 9), "skip": 2}, 64)
            released = set()
            issued = {0: False, 1: False}
            while len(released) < 2:
                msg = yield Recv(tag=Tags.STATUS)
                r = msg.payload
                (log0 if r.pid == 0 else log1).append(r)
                sends = recvs = ()
                if r.pid == 0 and r.done and not issued[0]:
                    recvs, issued[0] = (order,), True
                elif r.pid == 1 and not r.done and not issued[1]:
                    sends, issued[1] = (order,), True
                release = (
                    r.done
                    and issued[0]
                    and (r.pid == 1 or 0 in r.applied_moves or not recvs)
                    and not sends
                    and not recvs
                )
                yield Send(
                    r.pid,
                    Tags.INSTR,
                    Instructions(phase=0, sends=sends, recvs=recvs, release=release),
                    INSTR_BYTES,
                )
                if release:
                    released.add(r.pid)
            for _ in range(2):
                res = yield Recv(tag=Tags.RESULT)
                (log0 if res.src == 0 else log1).append(("RESULT", res.payload))

        cluster.spawn(0, slave_task, plan, cfg, False)
        cluster.spawn(1, slave_task, plan, cfg, False)
        cluster.spawn(2, master, )
        cluster.run()
        result0 = [e for e in log0 if isinstance(e, tuple)][0][1]
        result1 = [e for e in log1 if isinstance(e, tuple)][0][1]
        assert set(result0["units"]) == {0, 1, 2, 3, 8, 9}
        assert set(result1["units"]) == {4, 5, 6, 7}
