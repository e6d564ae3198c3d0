"""Simulator engine throughput (library performance, not a paper figure).

Keeps the discrete-event core honest: message ping-pong and compute-loop
event rates, plus the wall time of a full paper-scale experiment point.
Regressions here make the experiment suite painful long before they make
it wrong.  The floors below only keep the suite usable; the synthetic
cells are info-only for performance claims, which are measured end to
end by ``benchmarks/e2e``.
"""

from repro.apps.sor import build_sor
from repro.config import ClusterSpec, NetworkSpec, ProcessorSpec
from repro.experiments.common import run_point
from repro.sim import Cluster, Compute, Recv, Send


def _pingpong(n_messages):
    spec = ClusterSpec(
        n_slaves=2, processor=ProcessorSpec(), network=NetworkSpec()
    )
    cluster = Cluster(spec)

    def ping(ctx):
        for i in range(n_messages):
            yield Send(1, "ping", i, 8)
            yield Recv(src=1, tag="pong")

    def pong(ctx):
        for _ in range(n_messages):
            msg = yield Recv(src=0, tag="ping")
            yield Send(0, "pong", msg.payload, 8)

    cluster.spawn(0, ping)
    cluster.spawn(1, pong)
    cluster.run()
    return cluster.message_count


def _compute_loop(n_chunks):
    spec = ClusterSpec(n_slaves=1)
    cluster = Cluster(spec)

    def worker(ctx):
        for _ in range(n_chunks):
            yield Compute(1000)

    cluster.spawn(0, worker)
    cluster.run()
    return cluster.engine.now


def test_message_pingpong_throughput(benchmark):
    count = benchmark(_pingpong, 2000)
    assert count == 4000
    # Floor: the suite needs >= ~20k messages/sec to stay usable.
    assert benchmark.stats["mean"] < 4000 / 20000


def test_compute_event_throughput(benchmark):
    benchmark(_compute_loop, 5000)
    assert benchmark.stats["mean"] < 5000 / 20000


def test_paper_scale_sor_point_wall_time(benchmark):
    plan = build_sor(n=2000, maxiter=15, n_slaves_hint=7)

    def point():
        return run_point(plan, 7, dlb=True)

    res = benchmark.pedantic(point, rounds=1, iterations=1)
    assert res.speedup > 6.0
    # One figure point must stay under a few seconds of wall time.
    assert benchmark.stats["mean"] < 5.0
