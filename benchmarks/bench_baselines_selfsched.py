"""Section 6 — DLB vs related-work schedulers on a loaded cluster.

Self-scheduling keeps a central queue (cheap on shared memory, but on a
distributed-memory cluster every chunk ships its input data and returns
its results); diffusion uses only neighbour-local information.  Both run
through the strategy registry (``run_strategy``).  The
paper's design claims: comparable balancing quality with far less data
motion than a central queue, and faster response than diffusion.
"""

from _util import once, save_series

from repro.apps.matmul import build_matmul
from repro.config import ClusterSpec, RunConfig
from repro.experiments.common import ExperimentSeries, run_point
from repro.sim import ConstantLoad
from repro.strategies import run_strategy


def _run():
    n, P = 500, 4
    plan = build_matmul(n=n, n_slaves_hint=P)
    loads = {0: ConstantLoad(k=1)}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=P), execute_numerics=False)

    series = ExperimentSeries(
        name="Related work: scheduling strategies, 500x500 MM, load on slave 0",
        headers=("strategy", "t_elapsed", "efficiency", "messages", "MB_moved"),
        expected=(
            "DLB matches the best task-queue schemes on time while moving "
            "an order of magnitude less data (iteration ownership vs "
            "shipping every chunk); GSS mis-sizes early chunks under "
            "heterogeneous speeds; diffusion converges more slowly"
        ),
    )
    r = run_point(plan, P, loads=loads)
    series.add("DLB (this paper)", r.elapsed, r.efficiency, r.message_count, r.bytes_sent / 1e6)
    r = run_point(plan, P, loads=loads, dlb=False)
    series.add("static blocks", r.elapsed, r.efficiency, r.message_count, r.bytes_sent / 1e6)
    for strategy in ("fsc", "gss", "factoring", "trapezoid", "diffusion"):
        out = run_strategy(strategy, plan, cfg, loads)
        if strategy != "diffusion":
            assert out.raw.completed_units == n, strategy
        label = strategy if strategy == "diffusion" else f"self-sched/{strategy}"
        series.add(
            label, out.elapsed, out.raw.efficiency,
            out.message_count, out.bytes_sent / 1e6,
        )
    return series


def test_dlb_vs_related_work(benchmark):
    series = once(benchmark, _run)
    save_series("baselines_selfsched", series)

    rows = {r[0]: r for r in series.rows}
    t = {k: v[1] for k, v in rows.items()}
    mb = {k: v[4] for k, v in rows.items()}

    # DLB decisively beats the static distribution.
    assert t["DLB (this paper)"] < t["static blocks"] * 0.75
    # DLB is competitive with the best central-queue scheme...
    best_ss = min(v for k, v in t.items() if k.startswith("self-sched"))
    assert t["DLB (this paper)"] < best_ss * 1.15
    # ...while moving far less data than any of them.
    min_ss_mb = min(v for k, v in mb.items() if k.startswith("self-sched"))
    assert mb["DLB (this paper)"] < min_ss_mb / 3
    # GSS hands the loaded slave an oversized early chunk and loses.
    assert t["self-sched/gss"] > t["DLB (this paper)"] * 1.3
