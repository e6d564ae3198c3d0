"""The standard model-checking sweep behind ``repro check --model``.

:func:`standard_sweep` enumerates the clean (unmutated) models verified
on every run: each control plane at small-but-adversarial sizes chosen
so exhaustive exploration stays well under a minute per model while
still exercising every protocol arm (movement, crash recovery,
checkpoint commit + rollback, adoption).  :func:`mutation_sweep` pairs
each plane's seeded protocol corruptions with the diagnostic codes the
checker must emit for them — the checker's own regression suite.

Small configurations are not a cop-out: every protocol rule in the
shims is P-independent (per-pair channel FIFO, per-slave ledger rows,
per-move records), so the races these sizes expose — message
reordering across channels, crash-vs-ack interleavings, stale-era
traffic — are the same races any P exposes, while staying enumerable.
"""

from __future__ import annotations

from ..diagnostics import CheckResult
from .checker import check_model
from .core import Model
from .explore import ExplorationResult

__all__ = [
    "SWEEP_PLANES",
    "mutation_sweep",
    "run_sweep",
    "standard_sweep",
]

#: Planes a sweep may be filtered to.
SWEEP_PLANES = ("centralized", "ft", "ckpt", "hier", "steal", "rb")


def standard_sweep(planes: tuple[str, ...] | None = None) -> list[Model]:
    """The clean models ``repro check --model`` verifies.

    Args:
        planes: restrict to these planes (default: all).
    """
    from ...ckpt.protocol_model import CkptConfig
    from ...ckpt.protocol_model import build_model as build_ckpt
    from ...faults.protocol_model import FTConfig
    from ...faults.protocol_model import build_model as build_ft
    from ...runtime.protocol_model import CentralConfig
    from ...runtime.protocol_model import build_model as build_central
    from ...scale.protocol_model import HierConfig
    from ...scale.protocol_model import build_model as build_hier
    from ...strategies.protocol_model import StealConfig
    from ...strategies.protocol_model import build_model as build_steal
    from ...strategies.rdlb_model import RbConfig
    from ...strategies.rdlb_model import build_model as build_rb

    wanted = set(planes if planes is not None else SWEEP_PLANES)
    unknown = wanted - set(SWEEP_PLANES)
    if unknown:
        raise ValueError(
            f"unknown plane(s) {sorted(unknown)}; "
            f"choices: {', '.join(SWEEP_PLANES)}"
        )
    models: list[Model] = []
    if "centralized" in wanted:
        models.append(build_central(CentralConfig()))
        models.append(
            build_central(CentralConfig(n_slaves=3, units=4, moves=2))
        )
        models.append(build_central(CentralConfig(shape="front")))
        models.append(
            build_central(
                CentralConfig(n_slaves=3, units=4, shape="front")
            )
        )
    if "ft" in wanted:
        models.append(build_ft(FTConfig()))
        models.append(
            build_ft(FTConfig(n_slaves=3, units=4, crashable=("s1", "s2")))
        )
    if "ckpt" in wanted:
        models.append(build_ckpt(CkptConfig()))
        models.append(build_ckpt(CkptConfig(epochs=2)))
    if "hier" in wanted:
        models.append(build_hier(HierConfig()))
        models.append(
            build_hier(HierConfig(n_subs=3, units=4, crashable=("m1",)))
        )
    if "steal" in wanted:
        models.append(build_steal(StealConfig()))
        models.append(build_steal(StealConfig(crashable=("w1",))))
        models.append(build_steal(StealConfig(units=4, crashable=("w0",))))
    if "rb" in wanted:
        models.append(build_rb(RbConfig()))
        models.append(build_rb(RbConfig(crashable=("w1",))))
    return models


def mutation_sweep() -> list[tuple[Model, tuple[str, ...]]]:
    """Every seeded protocol corruption with its required diagnostics.

    Returns ``(model, codes)`` pairs: checking ``model`` must emit at
    least the ``codes``.  This is the self-test proving the checker can
    actually see the bug classes it claims to rule out.
    """
    from ...ckpt.protocol_model import CkptConfig
    from ...ckpt.protocol_model import build_model as build_ckpt
    from ...faults.protocol_model import FTConfig
    from ...faults.protocol_model import build_model as build_ft
    from ...runtime.protocol_model import CentralConfig
    from ...runtime.protocol_model import build_model as build_central
    from ...scale.protocol_model import HierConfig
    from ...scale.protocol_model import build_model as build_hier
    from ...strategies.protocol_model import StealConfig
    from ...strategies.protocol_model import build_model as build_steal
    from ...strategies.rdlb_model import RbConfig
    from ...strategies.rdlb_model import build_model as build_rb

    pairs: list[tuple[Model, tuple[str, ...]]] = [
        (
            build_central(CentralConfig(), "drop_release"),
            ("RA601", "RA602"),
        ),
        (
            build_central(CentralConfig(), "lose_moved_units"),
            ("RA701",),
        ),
        (
            build_central(CentralConfig(), "duplicate_moved_units"),
            ("RA702",),
        ),
        (
            build_central(
                CentralConfig(shape="front"), "front_skip_peer"
            ),
            ("RA601", "RA602"),
        ),
        (build_ft(FTConfig(), "drop_cancel"), ("RA601", "RA602")),
        (build_ft(FTConfig(), "sweep_contested"), ("RA702",)),
        (build_ft(FTConfig(), "forget_regrant"), ("RA701",)),
        (build_ft(FTConfig(), "no_wake"), ("RA601", "RA602")),
        (build_ckpt(CkptConfig(), "skip_era_check"), ("RA703",)),
        (
            build_ckpt(CkptConfig(epochs=2), "commit_stale_deposit"),
            ("RA703",),
        ),
        (build_ckpt(CkptConfig(), "skip_dead_grant"), ("RA701",)),
        (
            build_hier(HierConfig(), "reparent_drop"),
            ("RA601", "RA602"),
        ),
        (build_hier(HierConfig(), "double_count_sum"), ("RA704",)),
        (build_hier(HierConfig(), "lose_shipped_units"), ("RA701",)),
        (
            build_steal(StealConfig(), "drop_term"),
            ("RA601", "RA602"),
        ),
        (build_steal(StealConfig(), "lose_stolen_units"), ("RA701",)),
        (build_steal(StealConfig(), "double_serve"), ("RA702",)),
        (build_steal(StealConfig(), "ignore_late_work"), ("RA701",)),
        (
            build_steal(StealConfig(crashable=("w0",)), "no_reissue"),
            ("RA601", "RA602"),
        ),
        (
            build_rb(RbConfig(crashable=("w1",)), "no_reissue"),
            ("RA601", "RA602"),
        ),
        (build_rb(RbConfig(), "stop_when_dry"), ("RA701",)),
        (build_rb(RbConfig(), "count_duplicates"), ("RA701",)),
    ]
    return pairs


def run_sweep(
    planes: tuple[str, ...] | None = None,
    *,
    budget: int | None = None,
    seed: int = 0,
) -> list[tuple[CheckResult, ExplorationResult]]:
    """Check every model of the standard sweep; one result pair each."""
    return [
        check_model(model, por=True, budget=budget, seed=seed)
        for model in standard_sweep(planes)
    ]
