"""Public API surface checks: every exported name resolves, every
public module/class/function carries a docstring, and the configuration
surface (config fields and the entry points' parameters) is pinned, so
a new knob shows up as an edit to this file."""

import dataclasses
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


CONFIG_FIELDS = {
    "ProcessorSpec": ("speed", "quantum", "phase", "scheduler"),
    "NetworkSpec": ("latency", "bandwidth", "send_cpu", "recv_cpu"),
    "ClusterSpec": ("n_slaves", "processor", "network", "processor_overrides"),
    "BalancerConfig": (
        "improvement_threshold",
        "pipelined",
        "filter_enabled",
        "profitability_enabled",
        "restricted",
    ),
    "GrainConfig": ("block_size_override",),
    "CheckpointConfig": ("enabled", "interval", "placement"),
    "RunConfig": (
        "cluster",
        "balancer",
        "ckpt",
        "execute_numerics",
        "dlb_enabled",
        "max_virtual_time",
    ),
}

ENTRY_POINT_PARAMETERS = {
    "repro.experiments.common:run_point": (
        "plan",
        "n_slaves",
        "loads",
        "dlb",
        "execute_numerics",
        "speed",
        "seed",
        "balancer",
        "network",
        "recorder",
    ),
    "repro.runtime.launcher:run_application": (
        "plan", "run_cfg", "loads", "seed", "recorder", "faults"
    ),
    "repro.strategies.registry:run_strategy": (
        "strategy", "plan", "run_cfg", "loads", "seed", "recorder", "faults"
    ),
    "repro.strategies.rdlb:run_rdlb": (
        "plan", "run_cfg", "loads", "strategy", "seed", "recorder", "faults"
    ),
    "repro.strategies.stealing:run_stealing": (
        "plan", "run_cfg", "loads", "seed", "recorder", "faults"
    ),
    "repro.scale.hierarchy:run_hierarchical": (
        "plan", "run_cfg", "loads", "fanout", "seed", "recorder", "faults", "topology"
    ),
    "repro.baselines.diffusion:run_diffusion": (
        "plan", "run_cfg", "loads", "seed", "topology"
    ),
    "repro.scale.crossover:cell_scaling": ("P", "regime", "topology"),
    "repro.strategies.robustness:cell_perturbation": ("workload", "regime"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_FIELDS))
def test_config_fields_are_pinned(name):
    cls = getattr(importlib.import_module("repro.config"), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == CONFIG_FIELDS[name]


@pytest.mark.parametrize("target", sorted(ENTRY_POINT_PARAMETERS))
def test_entry_point_parameters_are_pinned(target):
    module, name = target.split(":")
    fn = getattr(importlib.import_module(module), name)
    params = tuple(inspect.signature(fn).parameters)
    assert params == ENTRY_POINT_PARAMETERS[target]
