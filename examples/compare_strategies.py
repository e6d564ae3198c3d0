#!/usr/bin/env python
"""Compare the paper's DLB against related-work schedulers.

Runs 500x500 matrix multiplication (cost-simulated at the paper's
machine speed) on 4 slaves with one competing task on slave 0, under:

- static block distribution (no balancing),
- the paper's dynamic load balancer,
- central-queue self-scheduling: fsc / gss / factoring / trapezoid,
- near-neighbour diffusion balancing.

The last five run through the strategy registry (``run_strategy``).
Watch the last column: the central queue ships every chunk's data from
the master, while the paper's design moves only the imbalance.
"""

from repro.apps import build_matmul
from repro.config import ClusterSpec, RunConfig
from repro.runtime import run_application
from repro.sim import ConstantLoad
from repro.strategies import run_strategy


def main() -> None:
    n, n_slaves = 500, 4
    plan = build_matmul(n=n, n_slaves_hint=n_slaves)
    loads = {0: ConstantLoad(k=1)}
    cfg = RunConfig(cluster=ClusterSpec(n_slaves=n_slaves), execute_numerics=False)
    cfg_static = RunConfig(
        cluster=cfg.cluster, execute_numerics=False, dlb_enabled=False
    )

    print(f"{'strategy':<22} {'elapsed':>9} {'speedup':>8} {'eff':>6} {'msgs':>6} {'MB':>7}")

    def row(name, r, efficiency):
        print(
            f"{name:<22} {r.elapsed:>8.1f}s {r.speedup:>8.2f} {efficiency:>6.3f} "
            f"{r.message_count:>6} {r.bytes_sent / 1e6:>7.2f}"
        )

    for name, c in (("static blocks", cfg_static), ("DLB (this paper)", cfg)):
        r = run_application(plan, c, loads=loads)
        row(name, r, r.efficiency)
    for strategy in ("fsc", "gss", "factoring", "trapezoid", "diffusion"):
        out = run_strategy(strategy, plan, cfg, loads)
        row(strategy, out, out.raw.efficiency)


if __name__ == "__main__":
    main()
