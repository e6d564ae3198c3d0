"""Public API surface checks: every exported name resolves, and every
public module/class/function carries a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.config",
    "repro.errors",
    "repro.fastcopy",
    "repro.validate",
    "repro.cli",
    "repro.bench",
    "repro.bench.harness",
    "repro.bench.workloads",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.load",
    "repro.sim.machine",
    "repro.sim.network",
    "repro.sim.processor",
    "repro.sim.rusage",
    "repro.sim.trace",
    "repro.obs",
    "repro.obs.model",
    "repro.obs.log",
    "repro.obs.metrics",
    "repro.obs.recorder",
    "repro.obs.report",
    "repro.analysis",
    "repro.analysis.diagnostics",
    "repro.analysis.equivalence",
    "repro.analysis.ownership",
    "repro.analysis.communication",
    "repro.analysis.movement",
    "repro.analysis.protocol_lint",
    "repro.analysis.replay",
    "repro.analysis.suite",
    "repro.analysis.model",
    "repro.analysis.model.core",
    "repro.analysis.model.explore",
    "repro.analysis.model.checker",
    "repro.analysis.model.trace",
    "repro.analysis.model.configs",
    "repro.faults",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.protocol_model",
    "repro.faults.selfchaos",
    "repro.faults.chaosrun",
    "repro.orchestrator",
    "repro.orchestrator.jobs",
    "repro.orchestrator.digest",
    "repro.orchestrator.journal",
    "repro.orchestrator.store",
    "repro.orchestrator.pool",
    "repro.orchestrator.core",
    "repro.orchestrator.cli",
    "repro.orchestrator.demo",
    "repro.ckpt",
    "repro.ckpt.model",
    "repro.ckpt.coordinator",
    "repro.ckpt.protocol_model",
    "repro.compiler",
    "repro.compiler.ir",
    "repro.compiler.deps",
    "repro.compiler.features",
    "repro.compiler.costmodel",
    "repro.compiler.stripmine",
    "repro.compiler.hooks",
    "repro.compiler.plan",
    "repro.compiler.codegen",
    "repro.compiler.interp",
    "repro.compiler.transforms",
    "repro.compiler.autodistribute",
    "repro.runtime",
    "repro.runtime.protocol",
    "repro.runtime.protocol_model",
    "repro.runtime.partition",
    "repro.runtime.filtering",
    "repro.runtime.frequency",
    "repro.runtime.profitability",
    "repro.runtime.balancer",
    "repro.runtime.movement",
    "repro.runtime.master",
    "repro.runtime.slave",
    "repro.runtime.pipeline",
    "repro.runtime.launcher",
    "repro.runtime.mapplane",
    "repro.apps",
    "repro.apps.matmul",
    "repro.apps.sor",
    "repro.apps.lu",
    "repro.apps.adaptive",
    "repro.baselines",
    "repro.baselines.diffusion",
    "repro.strategies",
    "repro.strategies.protocol",
    "repro.strategies.protocol_model",
    "repro.strategies.registry",
    "repro.strategies.stealing",
    "repro.strategies.rdlb",
    "repro.strategies.rdlb_model",
    "repro.strategies.robustness",
    "repro.scale",
    "repro.scale.protocol",
    "repro.scale.protocol_model",
    "repro.scale.hierarchy",
    "repro.scale.workload",
    "repro.scale.crossover",
    "repro.experiments",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", []):
        assert hasattr(mod, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", []):
        obj = getattr(mod, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{name}.{export} lacks a docstring"
                )


def test_every_package_module_listed():
    found = {
        name
        for _f, name, _p in pkgutil.walk_packages(repro.__path__, "repro.")
        if not name.startswith("repro.experiments.")
        and name not in ("repro.__main__",)
        and "events" not in name
        and "process" not in name
        and "base" not in name
    }
    missing = found - set(MODULES)
    assert not missing, f"modules missing from the API checklist: {missing}"


def test_version_string():
    assert repro.__version__.count(".") == 2
